# Scenario files and the command-line runner.
#
# A scenario JSON names spaces, relations, families, kernels, mappings,
# and a list of checks; `mixedop run` executes them and writes one CSV
# row per (check, exponent tuple).  The same machinery is scriptable.

from pathlib import Path

from mixedop import load_scenario, sandwich_report
from mixedop.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Load a bundled scenario and poke at the resolved objects.
sc = load_scenario(SCENARIOS / "scalar17.json")
print("scenario:", sc.id)
print("spaces:", {k: len(v) for k, v in sc.spaces.items()})
print("checks:", [(c.kind, c.exponents) for c in sc.checks])

ker = sc.kernels["P"]
rep = sandwich_report(ker, 4, 2, oracle_samples=500, seed=7)
print("\nprogrammatic sandwich:", rep.lower.value, rep.upper.value, rep.equality)

# The CLI writes CSV to stdout (or --out).  Exit code 0: all assertions
# hold; 1: input error; 2: a sandwich/equality assertion failed.
print("\n--- mixedop run scenarios/scalar17.json ---")
code = main(["run", str(SCENARIOS / "scalar17.json")])
print("exit code:", code)

print("\n--- mixedop sweep over a small grid ---")
code = main([
    "sweep", str(SCENARIOS / "scalar17.json"),
    "--p-grid", "2,4", "--q-grid", "1,2", "--seed", "7",
])
print("exit code:", code)
