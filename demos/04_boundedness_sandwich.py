# The boundedness story on one small instance, end to end.
#
# Upper bound: the criterion norm (mixed aggregate of kernel norms times
# the density J^(1/q)).  Lower bound: the exact operator norm from the
# decoupling reduction (per-atom direction problems + closed-form
# magnitude profile).  A seeded sampling oracle corroborates from below.

from pathlib import Path

from mixedop import (
    criterion_general_result,
    exact_norm_decoupled,
    kappa,
    load_scenario,
    oracle_norm_sampling,
    sandwich_report,
    section_ratios,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Two scalar target atoms, one source atom, kernel values 1 and 2.
ker = load_scenario(SCENARIOS / "scalar17.json").kernels["P"]

# Scalar fibers: the equality regime.  With p=4, q=2 (kappa=4) both
# sides equal 17^(1/4).
for p, q in [(4, 2), (2, 2), (3, 1.5)]:
    rep = sandwich_report(ker, p, q, oracle_samples=1000, seed=7)
    print(f"p={p}, q={q}, kappa={kappa(p, q)}: "
          f"oracle={rep.oracle:.12f} <= lower={rep.lower.value:.12f} <= upper={rep.upper.value:.12f} "
          f"equality={rep.equality}")

print("\n17^(1/4) =", 17 ** 0.25)

# Sufficiency in action: no random section beats the criterion.
ratios = section_ratios(ker, 4, 2, n_sections=200, seed=1)
print("max ||Mf||/||f|| over 200 random sections:", ratios.max(),
      "criterion:", criterion_general_result(ker, 4, 2).value)

# The necessity gap: on multi-dimensional fibers the criterion can
# exceed the true norm, because it lets every kernel pick its own best
# direction.  Two orthogonal projections of one 2-d fiber make this
# extreme.
gap = load_scenario(SCENARIOS / "projection_gap.json").kernels["P"]
rep = sandwich_report(gap, 2, 2, oracle_samples=2000, seed=2)
print("\nprojection gap: lower =", rep.lower.value, " upper =", rep.upper.value,
      " equality =", rep.equality)
print("true norm:", exact_norm_decoupled(gap, 2, 2).value,
      "  sampled:", oracle_norm_sampling(gap, 2, 2, 2000, seed=3))
