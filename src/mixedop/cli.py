"""Scenario runner and reporting front end.

Verbs:
  run        execute every check in a scenario file
  sweep      sandwich reports over a (p, q) grid
  phi-audit  additivity / monotonicity / derivative audit of the set function

Exit codes: 0 when all invariant assertions hold, 1 on input errors
(usage errors, undecodable scenario files, an unwritable --out, found
before any check runs, a failed write to stdout and non-finite results
included), 2 when a sandwich or equality assertion fails.  Output is
CSV with a fixed column order; floats carry 17 significant digits, and
identical inputs with the same seed produce byte-identical files (wall
times are written as 0 unless --timing is passed).

Flags may also be set through environment variables prefixed with the
tool name: MIXEDOP_SEED, MIXEDOP_OUT, MIXEDOP_SAMPLES (run and sweep
only), MIXEDOP_TOLERANCE (run and phi-audit only); a value that does
not parse, a count below 1 (samples, partitions), a negative seed and a
negative or non-finite tolerance are input errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .boundedness import (
    criterion_general_result,
    exact_norm_decoupled,
    phi_audit_violation,
    sandwich_report,
)
from .errors import (
    InvalidExponentError,
    MixedOpError,
    SandwichViolationError,
    ScenarioError,
    UnsupportedExponentsError,
)
from .fibers import check_exponent
from .generators import random_density
from .kernels import exponent_pair
from .measure import integrate_change_of_variables
from .mixedcomp import criterion_mixed_composition, direct_integral_instance
from .scenario import Check, Scenario, load_scenario, resolve

COLUMNS = [
    "scenario_id",
    "check",
    "p",
    "q",
    "alpha",
    "beta",
    "kappa",
    "value",
    "lower",
    "upper",
    "oracle",
    "equality",
    "value_certificate",
    "lower_certificate",
    "upper_certificate",
    "status",
    "reason",
    "wall_ms",
]

ENV_PREFIX = "MIXEDOP_"
DEFAULT_TOLERANCE = 1e-9
CHANGE_OF_VARS_TOL = 1e-12
MIXEDCOMP_TOL = 1e-6

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_VIOLATION = "violation"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".17g")
    return str(x)


def _row(**kw) -> dict:
    row = {c: None for c in COLUMNS}
    row["status"] = STATUS_OK
    row["reason"] = ""
    row["wall_ms"] = 0
    row.update(kw)
    return row


def _write_stdout(text: str) -> None:
    """Write and flush ``text`` to stdout: the one route of every CSV
    and help text that goes there.  A full device or a closed pipe
    raises MixedOpError, so the caller exits 1 with one line."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        # what stays buffered would raise again in the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise MixedOpError(f"cannot write to stdout: {e.strerror}") from e


def _write_rows(rows: list[dict], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in COLUMNS])
    data = buf.getvalue()
    if out_path:
        try:
            Path(out_path).write_text(data, encoding="utf-8")
        except OSError as e:
            raise ScenarioError(f"cannot write {out_path}: {e.strerror}") from e
    else:
        _write_stdout(data)


def _check_writable(out_path: str | None) -> None:
    """Refuse an output path that the write would fail on, with the
    message it would give, before any check runs; the file is neither
    created nor truncated."""
    if not out_path:
        return
    path = Path(out_path)
    if not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    elif path.is_dir():
        code = errno.EISDIR
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ScenarioError(f"cannot write {out_path}: {os.strerror(code)}")


def _execute_check(
    check: Check,
    exps: tuple[float, ...],
    seed: int,
    samples: int,
    tolerance: float,
) -> dict:
    kind = check.kind
    p, q = exps[0], exps[1]
    alpha = exps[2] if len(exps) == 4 else None
    beta = exps[3] if len(exps) == 4 else None
    row = _row(check=kind, p=p, q=q, alpha=alpha, beta=beta)
    # the library owns the supported exponents: its refusal, raised before
    # any computation, is the rejected row with an empty kappa cell
    try:
        row["kappa"] = exponent_pair(p, q)[2]
        if kind == "criterion":
            res = criterion_general_result(check.kernel, p, q)
            row.update(value=res.value, value_certificate=res.certificate)
        elif kind == "exact_norm":
            res = exact_norm_decoupled(check.kernel, p, q)
            row.update(value=res.value, value_certificate=res.certificate)
        elif kind == "sandwich":
            rep = sandwich_report(check.kernel, p, q, samples, seed)
            row.update(
                lower=rep.lower.value,
                upper=rep.upper.value,
                oracle=rep.oracle,
                equality=rep.equality,
                lower_certificate=rep.lower.certificate,
                upper_certificate=rep.upper.certificate,
            )
        elif kind == "phi_audit":
            worst = phi_audit_violation(check.kernel, p, q, check.partitions, seed)
            row.update(value=worst)
            if not (worst <= tolerance):
                row.update(status=STATUS_VIOLATION, reason=f"set-function violation {worst:.3e}")
        elif kind == "mixedcomp":  # the loader checked the block and the 4-tuples
            value = criterion_mixed_composition(check.mapping, p, q, alpha, beta).value
            instance, _ = direct_integral_instance(check.mapping, alpha, beta)
            brute = exact_norm_decoupled(instance, p, q)
            equal = abs(value - brute.value) <= MIXEDCOMP_TOL * max(value, 1.0)
            row.update(
                value=value,
                lower=brute.value,
                lower_certificate=brute.certificate,
                equality=equal,
            )
            if not equal:
                row.update(
                    status=STATUS_VIOLATION,
                    reason=f"criterion {value:.15g} vs operator norm {brute.value:.15g}",
                )
        else:  # change_of_vars; the loader admits no other kind
            psi, f = check.mapping, check.density
            if f is None:
                f = random_density(psi.target, seed)
            lhs, rhs = integrate_change_of_variables(f, psi)
            equal = abs(lhs - rhs) <= CHANGE_OF_VARS_TOL * max(abs(lhs), 1.0)
            row.update(value=lhs, lower=rhs, equality=equal)
            if not equal:
                row.update(status=STATUS_VIOLATION, reason=f"lhs {lhs:.17g} != rhs {rhs:.17g}")
    except UnsupportedExponentsError as e:
        row.update(kappa=None, status=STATUS_REJECTED, reason=str(e))
    except SandwichViolationError as e:
        row.update(status=STATUS_VIOLATION, reason=str(e))
    return row


def _finish(rows: list[dict], sc_id: str, timing: bool, out_path: str | None) -> int:
    for row in rows:
        row["scenario_id"] = sc_id
        if not timing:
            row["wall_ms"] = 0
    _write_rows(rows, out_path)
    return 2 if any(r["status"] == STATUS_VIOLATION for r in rows) else 0


def _report(
    sc: Scenario,
    checks: list[Check],
    seed: int | None,
    samples: int | None,
    tolerance: float,
    timing: bool,
    out_path: str | None,
) -> int:
    """One timed CSV row per (check, exponent tuple); ``seed`` and
    ``samples`` override the checks' own when given."""
    _check_writable(out_path)
    rows = []
    for check in checks:
        use_seed = seed if seed is not None else check.seed
        use_samples = samples if samples is not None else check.samples
        for exps in check.exponents:
            t0 = time.perf_counter()
            row = _execute_check(check, exps, use_seed, use_samples, tolerance)
            row["wall_ms"] = int(1000 * (time.perf_counter() - t0))
            rows.append(row)
    return _finish(rows, sc.id, timing, out_path)


def run(
    scenario_path: str,
    out_path: str | None = None,
    seed: int | None = None,
    samples: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    timing: bool = False,
) -> int:
    """Execute every check of a scenario; one CSV row per (check, tuple)."""
    sc = load_scenario(scenario_path)
    return _report(sc, sc.checks, seed, samples, tolerance, timing, out_path)


def sweep(
    scenario_path: str,
    p_grid: list[float],
    q_grid: list[float],
    out_path: str | None = None,
    seed: int | None = None,
    samples: int | None = None,
    timing: bool = False,
) -> int:
    """Sandwich reports over the (p, q) grid; q > p rows are rejected."""
    if not p_grid or not q_grid:
        raise ScenarioError("sweep needs nonempty p and q grids")
    sc = load_scenario(scenario_path)
    grid = Check("sandwich", [(p, q) for p in p_grid for q in q_grid], kernel=resolve({}, "kernel", sc.kernels, "sweep"))
    return _report(sc, [grid], seed, samples, DEFAULT_TOLERANCE, timing, out_path)


def phi_audit(
    scenario_path: str,
    partitions: int = 50,
    seed: int | None = None,
    out_path: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    timing: bool = False,
) -> int:
    """Audit the set function for every distinct (p, q) pair named by the
    scenario's checks; p = q pairs are rejected (kappa is infinite)."""
    sc = load_scenario(scenario_path)
    pairs = list(dict.fromkeys((exps[0], exps[1]) for check in sc.checks for exps in check.exponents))
    audit = Check("phi_audit", pairs, partitions=partitions, kernel=resolve({}, "kernel", sc.kernels, "phi-audit"))
    return _report(sc, [audit], seed, None, tolerance, timing, out_path)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on a usage error: argparse's own code 2 is
    the CLI's code for a failed assertion.  Help goes to stdout through
    ``_write_stdout``; argparse's own write would swallow its failure."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(minimum: int):
    """A converter to an int of at least ``minimum``, for flags and
    environment variables alike."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return convert


def _tolerance(text: str) -> float:
    """A finite, nonnegative assertion tolerance."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 <= value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _setting(flag, name: str, convert, default=None):
    """A flag's value, else the environment variable MIXEDOP_<name>
    converted, else ``default``."""
    if flag is not None:
        return flag
    text = os.environ.get(ENV_PREFIX + name)
    if not text:
        return default
    try:
        return convert(text)
    except argparse.ArgumentTypeError as e:
        raise ScenarioError(f"{ENV_PREFIX}{name}: {e}") from None


def _grid(text: str, where: str) -> list[float]:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            value = float(tok)  # float reads "inf" too, and reads "1e400" as inf
        except ValueError:
            raise ScenarioError(f"{where}: bad number {tok!r}") from None
        if math.isinf(value) and tok.lower().lstrip("+-") not in ("inf", "infinity"):
            raise ScenarioError(f"{where}: number too large for a float")
        try:
            vals.append(check_exponent(value))
        except InvalidExponentError as e:
            raise ScenarioError(f"{where}: {e}") from None
    if not vals:
        raise ScenarioError(f"{where}: empty grid")
    return vals


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="mixedop",
        description="Scenario runner for mixed-operator boundedness checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("scenario", help="path to a scenario JSON file")
        sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
        sp.add_argument("--seed", type=_integer(0), default=None, help="override check seeds")
        sp.add_argument("--timing", action="store_true", help="record wall times (breaks byte-determinism)")

    sp_run = sub.add_parser("run", help="execute every check in the scenario")
    add_common(sp_run)

    sp_sweep = sub.add_parser("sweep", help="sandwich reports over a (p, q) grid")
    add_common(sp_sweep)
    sp_sweep.add_argument("--p-grid", required=True, help="comma-separated p values")
    sp_sweep.add_argument("--q-grid", required=True, help="comma-separated q values")

    sp_audit = sub.add_parser("phi-audit", help="audit the set function on random partitions")
    add_common(sp_audit)
    sp_audit.add_argument("--partitions", type=_integer(1), default=50, help="random partitions per pair")

    for sp in (sp_run, sp_sweep):
        sp.add_argument("--samples", type=_integer(1), default=None, help="override oracle sample counts")
    for sp in (sp_run, sp_audit):
        sp.add_argument("--tolerance", type=_tolerance, default=None, help="assertion tolerance")

    # every non-finite value is refused by an explicit check with its own
    # message, so numpy's floating-point warnings would only repeat it
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            seed = _setting(args.seed, "SEED", _integer(0))
            samples = None if args.verb == "phi-audit" else _setting(args.samples, "SAMPLES", _integer(1))
            out = _setting(args.out, "OUT", str)
            if args.verb == "sweep":
                return sweep(
                    args.scenario,
                    _grid(args.p_grid, "--p-grid"),
                    _grid(args.q_grid, "--q-grid"),
                    out,
                    seed,
                    samples,
                    args.timing,
                )
            tolerance = _setting(args.tolerance, "TOLERANCE", _tolerance, DEFAULT_TOLERANCE)
            if args.verb == "run":
                return run(args.scenario, out, seed, samples, tolerance, args.timing)
            return phi_audit(args.scenario, args.partitions, seed, out, tolerance, args.timing)
    except ScenarioError as e:
        print(f"mixedop: input error: {e}", file=sys.stderr)
        return 1
    except MixedOpError as e:
        print(f"mixedop: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
