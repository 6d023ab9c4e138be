"""Benchmark of the mixedop CLI verbs on seeded synthetic scenarios.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ascent_sandwich --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's scenario files from ``--seed``
(``perfbench/gen.py``), then runs ops in one process until ``--seconds``
have passed, finishing the current cycle over the files.  An op is one
``mixedop.cli.run`` or ``mixedop.cli.phi_audit`` call on one file, which
loads the file afresh, as a user's invocation would.  Every op's CSV
goes through the correctness gate (``perfbench/gate.py``), and every
invocation also byte-compares the CSVs of the bundled ``scenarios/``
against ``perfbench/refs/bundled``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
op twice, untraced and then under the span recorder of
``perfbench/tracing.py``, checks that both CSVs are identical, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it name the gate applied, every metric with its unit, and the
Python, numpy, BLAS and CPU the run used.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads: the matrices are at
# most 8x8, and a steady single-core run is what the numbers compare.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFS = BENCH_DIR / "refs"
# import the benchmark as a package and mixedop from the checkout; drop
# the script's own directory so its modules shadow no top-level name
sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]

from perfbench import gate, gen, tracing  # noqa: E402

SETUP_REPEATS = 5
AUDIT_PARTITIONS = 20

END_TO_END_UNITS = {"run_s": "s", "atoms_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "scenario.load_s": "s",
    "kernels.matrix_norm.ascent_s": "s",
    "kernels.matrix_norm.ascent_calls": "count",
    "kernels.matrix_norm.exact_s": "s",
    "kernels.matrix_norm.exact_calls": "count",
    "kernels.effectiveness.ascent_s": "s",
    "kernels.effectiveness.ascent_calls": "count",
    "kernels.effectiveness.exact_s": "s",
    "kernels.effectiveness.exact_calls": "count",
    "kernels.matrix_norm.cache_hit_ratio": "ratio",
    "kernels.effectiveness.cache_hit_ratio": "ratio",
    "boundedness.criterion_s": "s",
    "boundedness.exact_norm_s": "s",
    "boundedness.oracle_s": "s",
    "boundedness.phi_s": "s",
    "boundedness.phi_calls": "count",
    "mixedcomp.criterion_s": "s",
    "mixedcomp.materialize_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def fresh_import():
    """Import mixedop from the checkout's ``src/``, dropping any copy
    loaded before, so each set-up pays for its own import."""
    for name in [n for n in sys.modules if n == "mixedop" or n.startswith("mixedop.")]:
        del sys.modules[name]
    cli = importlib.import_module("mixedop.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"mixedop imported from {cli.__file__}, not from {SRC}")
    return cli


class Tally:
    """Ops attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def _bundled(cli, out_dir: Path) -> dict[str, list[str]]:
    """Run each bundled scenario with default flags; problems by name."""
    results = {}
    for ref in sorted((REFS / "bundled").glob("*.csv")):
        scenario = ROOT / "scenarios" / f"{ref.stem}.json"
        out = out_dir / f"bundled-{ref.stem}.csv"
        try:
            code = cli.run(str(scenario), out_path=str(out))
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            results[ref.stem] = [traceback.format_exc(limit=2)]
            continue
        problems = [] if code == 0 else [f"exit code {code}"]
        if out.read_bytes() != ref.read_bytes():
            problems.append("CSV differs from the reference bytes")
        results[ref.stem] = problems
    return results


def invoke(cli, f, out: Path, audit_seed: int) -> int:
    if f.verb == "phi-audit":
        return cli.phi_audit(str(f.path), AUDIT_PARTITIONS, audit_seed, str(out))
    return cli.run(str(f.path), out_path=str(out))


def _timed(op, out: Path) -> tuple[int | None, float, str]:
    """Run one op: exit code (None if it raised), wall seconds, CSV text."""
    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    try:
        code = op()
    except Exception:  # counted as a failed op by the caller
        return None, time.perf_counter() - t0, traceback.format_exc(limit=2)
    elapsed = time.perf_counter() - t0
    return code, elapsed, out.read_text(encoding="utf-8") if out.exists() else ""


def _references(workload: str, seed: int) -> dict[str, str] | None:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def _meta() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "cpus": os.cpu_count(),
    }


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work_dir = WORK / workload
    tally = Tally()
    setup_times, bundled_problems = [], {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = fresh_import()
        files = gen.generate(workload, seed, work_dir)
        for name, problems in _bundled(cli, work_dir).items():
            bundled_problems.setdefault(name, []).extend(problems)
        setup_times.append(time.perf_counter() - t0)
    for name, problems in bundled_problems.items():
        tally.record(f"bundled {name}", problems)

    refs = _references(workload, seed)
    gate_name = f"reference rows of seed {seed}" if refs else f"structural (no reference rows for seed {seed})"
    recorder = tracing.Recorder()
    run_times, overheads, work = [], [], 0
    ops_on = {f.path.name: 0 for f in files}
    out = work_dir / "op.csv"
    out_traced = work_dir / "op-traced.csv"
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for f in files:
            name = f.path.name
            audit_seed = f.audit_seed + ops_on[name]
            ops_on[name] += 1
            code, elapsed, text = _timed(functools.partial(invoke, cli, f, out, audit_seed), out)
            if code is None:
                tally.record(name, [text])
                continue
            problems = gate.check_op(code, text, f.rows, f.closed_form, refs and refs.get(name))
            run_times.append(elapsed)
            work += f.atom_tuples
            if traced:
                op = functools.partial(recorder.call, invoke, cli, f, out_traced, audit_seed)
                with tracing.install(recorder):
                    t_code, t_elapsed, t_text = _timed(op, out_traced)
                recorder.end_op(keep_as=name)
                overheads.append(t_elapsed / elapsed - 1.0)
                if (t_code, t_text) != (code, text):
                    problems.append("traced run wrote a different CSV or exit code")
            tally.record(name, problems)

    if not run_times:
        raise RuntimeError("no op completed: " + "; ".join(tally.problems[:3]))
    run_s = statistics.median(run_times)
    if traced:
        recorder.write_spans(work_dir / "spans.npz")
        metrics = _layer_metrics(recorder.ops)
        metrics["trace.overhead_frac"] = statistics.median(overheads)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": run_s,
            "atoms_per_s": work / sum(run_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    return {
        "gate": gate_name,
        "ops": len(run_times),
        "tally": tally,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_metrics(ops: list[dict[str, float]]) -> dict[str, float]:
    """Median per op of every time and count; cache ratios pooled."""
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("cache_hit_ratio"):
            layer = name.rsplit(".", 1)[0]
            calls = sum(op[f"{layer}.calls"] for op in ops)
            metrics[name] = sum(op[f"{layer}.hits"] for op in ops) / calls if calls else 0.0
        elif name in ops[0]:
            metrics[name] = statistics.median(op[name] for op in ops)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOAD_TAGS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "mixedop" / "cli.py").is_file():
        print(f"perfbench: no mixedop sources under {SRC}", file=sys.stderr)
        return 2

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    print(f"workload {args.workload} seed {args.seed}: {result['ops']} ops, gate: {result['gate']}")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} ops)")
    print("meta " + json.dumps(_meta()))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
