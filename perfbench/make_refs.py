"""Regenerate the reference CSVs under ``perfbench/refs``.

    python3 perfbench/make_refs.py --seeds 0-49

Writes ``refs/bundled/<scenario>.csv`` (the bundled scenarios, run with
default flags) and ``refs/<workload>.json`` (for each seed, the CSV of
the first op on each generated file).  Run it only on a commit whose
outputs are trusted: every later commit is gated against these rows.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins the BLAS threads before numpy loads, and sets sys.path

from perfbench import gen  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    parser.add_argument("--workloads", default=",".join(gen.WORKLOAD_TAGS))
    args = parser.parse_args()
    cli = run.fresh_import()
    bundled = run.REFS / "bundled"
    bundled.mkdir(parents=True, exist_ok=True)
    for scenario in sorted((run.ROOT / "scenarios").glob("*.json")):
        if cli.run(str(scenario), out_path=str(bundled / f"{scenario.stem}.csv")) != 0:
            raise SystemExit(f"{scenario.name} does not pass; refusing to store it as a reference")
    scratch = run.WORK / "refs"
    for workload in args.workloads.split(","):
        table = {}
        for seed in _seeds(args.seeds):
            rows = {}
            for f in gen.generate(workload, seed, scratch):
                out = scratch / "op.csv"
                code = run.invoke(cli, f, out, f.audit_seed)
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed} {f.path.name}: exit code {code}")
                rows[f.path.name] = out.read_text(encoding="utf-8")
            table[str(seed)] = rows
            print(f"{workload} seed {seed}", flush=True)
        path = run.REFS / f"{workload}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
