"""Correctness gate for one op: its exit code and CSV against what a
correct run must print.

With reference rows (stored for the seeds listed in ``refs/``):
  - exit code 0 and every row ``ok``;
  - the key columns (scenario, check, exponents, kappa) are unchanged;
  - a quantity the reference certifies ``exact`` is still ``exact`` and
    within REL of the reference;
  - a ``lower_bound`` quantity (and the sampling oracle) is never lower
    than the reference by more than REL; it may become ``exact``;
  - a phi-audit value stays within the audit tolerance.
Without them only the exit code, the statuses, the row keys asked for,
and the certificates are checked: on a closed-form workload every
certificate must be ``exact``.
"""

from __future__ import annotations

import csv
import io
import math

REL = 1e-12
AUDIT_TOLERANCE = 1e-9
COLUMNS = (
    "scenario_id", "check", "p", "q", "alpha", "beta", "kappa", "value", "lower",
    "upper", "oracle", "equality", "value_certificate", "lower_certificate",
    "upper_certificate", "status", "reason", "wall_ms",
)
KEY_COLUMNS = ("scenario_id", "check", "p", "q", "alpha", "beta", "kappa")
# each numeric output column with the column holding its certificate
QUANTITIES = (
    ("value", "value_certificate"),
    ("lower", "lower_certificate"),
    ("upper", "upper_certificate"),
    ("oracle", None),
)
EXACT, LOWER_BOUND = "exact", "lower_bound"


def parse_csv(text: str) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    return [dict(zip(COLUMNS, row)) for row in reader]


def _number(text: str) -> float:
    """A CSV float; NaN for text that is not one, so every gate fails on it."""
    if text == "inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        return math.nan


def _certificate(row: dict[str, str], cert_column: str | None) -> str:
    """The certificate of a quantity.  The oracle is a lower bound by
    construction; the closed-form quantities of mixedcomp and
    change_of_vars rows carry no certificate column and count as exact."""
    if cert_column is None:
        return LOWER_BOUND
    return row[cert_column] or EXACT


def check_op(
    exit_code: int,
    text: str,
    expected_rows,
    closed_form: bool,
    reference: str | None,
) -> list[str]:
    """Problems with one op's output; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        rows = parse_csv(text)
    except (ValueError, csv.Error) as e:
        return problems + [str(e)]
    keys = [(r["check"], tuple(_number(r[c]) for c in ("p", "q", "alpha", "beta") if r[c])) for r in rows]
    if keys != [(check, tuple(exps)) for check, exps in expected_rows]:
        problems.append(f"rows {keys} differ from the checks asked for")
    for i, row in enumerate(rows):
        where = f"row {i} ({row['check']} {row['p']},{row['q']})"
        if row["status"] != "ok":
            problems.append(f"{where}: status {row['status']} {row['reason']}")
        if row["check"] == "phi_audit" and not (row["value"] and _number(row["value"]) <= AUDIT_TOLERANCE):
            problems.append(f"{where}: audit violation {row['value']!r}")
        for column, cert_column in QUANTITIES:
            cert = row[cert_column] if cert_column else ""
            if cert not in ("", EXACT, LOWER_BOUND):
                problems.append(f"{where}: unknown certificate {cert!r}")
            elif closed_form and cert == LOWER_BOUND:
                problems.append(f"{where}: {column} is lower_bound on a closed-form instance")
    if reference is None:
        return problems
    ref_rows = parse_csv(reference)
    if len(ref_rows) != len(rows):
        return problems + [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        where = f"row {i} ({row['check']} {row['p']},{row['q']})"
        for column in KEY_COLUMNS:
            if row[column] != ref[column]:
                problems.append(f"{where}: {column} {row[column]!r} != reference {ref[column]!r}")
        if row["check"] == "phi_audit":
            continue  # audit values are rounding noise; gated by the tolerance above
        for column, cert_column in QUANTITIES:
            if not ref[column]:
                if row[column]:
                    problems.append(f"{where}: {column} present but empty in the reference")
                continue
            if not row[column]:
                problems.append(f"{where}: {column} missing")
                continue
            got, want = _number(row[column]), _number(ref[column])
            ref_cert = _certificate(ref, cert_column)
            cert = _certificate(row, cert_column)
            if ref_cert == EXACT:
                if cert != EXACT:
                    problems.append(f"{where}: {column} certificate weakened to {cert}")
                elif not (abs(got - want) <= REL * abs(want) or got == want):
                    problems.append(f"{where}: exact {column} {got!r} != reference {want!r}")
            elif not (got >= want - REL * abs(want)):
                problems.append(f"{where}: lower bound {column} {got!r} fell below reference {want!r}")
    return problems
