"""Tests of the benchmark itself: deterministic inputs, a gate that
catches planted regressions, and tracing that leaves the CSV alone."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, gen, tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS = BENCH_DIR / "refs"


def _reference(workload: str, name: str) -> str:
    return json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))["0"][name]


def _rows(workload: str, name: str, tmp_path: Path):
    """Expected row keys and closed-form flag of a generated file."""
    (f,) = [f for f in gen.generate(workload, 0, tmp_path) if f.path.name == name]
    return f.rows, f.closed_form


def _replace(text: str, row: int, column: str, new) -> str:
    rows = text.splitlines()
    header = rows[0].split(",")
    cells = rows[row + 1].split(",")
    old = cells[header.index(column)]
    cells[header.index(column)] = new(old) if callable(new) else new
    rows[row + 1] = ",".join(cells)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("workload", gen.WORKLOAD_TAGS)
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.generate(workload, 5, tmp_path / "a")
    second = gen.generate(workload, 5, tmp_path / "b")
    other = gen.generate(workload, 6, tmp_path / "c")
    assert [f.path.name for f in first] == [f.path.name for f in second]
    for a, b, c in zip(first, second, other):
        assert a.path.read_bytes() == b.path.read_bytes()
        assert a.path.read_bytes() != c.path.read_bytes()
        assert (a.rows, a.atom_tuples, a.audit_seed) == (b.rows, b.atom_tuples, b.audit_seed)


def test_gate_passes_the_reference_itself(tmp_path):
    for workload, name in (("ascent_sandwich", "ascent_50.json"), ("closed_form_wide", "wide.json")):
        ref = _reference(workload, name)
        rows, closed_form = _rows(workload, name, tmp_path)
        assert gate.check_op(0, ref, rows, closed_form, ref) == []
        assert gate.check_op(0, ref, rows, closed_form, None) == []


def test_gate_catches_lowered_lower_bound(tmp_path):
    ref = _reference("ascent_sandwich", "ascent_50.json")
    rows, closed_form = _rows("ascent_sandwich", "ascent_50.json", tmp_path)
    assert "lower_bound" in ref
    lowered = _replace(ref, 0, "lower", lambda v: repr(float(v) * (1 - 1e-9)))
    problems = gate.check_op(0, lowered, rows, closed_form, ref)
    assert any("fell below" in p for p in problems), problems
    raised = _replace(ref, 0, "lower", lambda v: repr(float(v) * (1 + 1e-9)))
    assert gate.check_op(0, raised, rows, closed_form, ref) == []


def test_gate_catches_weakened_certificate(tmp_path):
    ref = _reference("closed_form_wide", "wide.json")
    rows, closed_form = _rows("closed_form_wide", "wide.json", tmp_path)
    weakened = _replace(ref, 0, "lower_certificate", "lower_bound")
    problems = gate.check_op(0, weakened, rows, closed_form, ref)
    assert any("weakened" in p for p in problems), problems
    assert gate.check_op(0, weakened, rows, closed_form, None) != []


def test_gate_catches_failed_status_and_exit_code(tmp_path):
    ref = _reference("closed_form_wide", "wide.json")
    rows, closed_form = _rows("closed_form_wide", "wide.json", tmp_path)
    violated = _replace(ref, 2, "status", "violation")
    assert gate.check_op(2, violated, rows, closed_form, None) != []
    assert gate.check_op(0, ref, rows[:-1], closed_form, None) != []
    garbled = _replace(ref, 0, "lower", "garbled")
    assert any("exact lower nan" in p for p in gate.check_op(0, garbled, rows, closed_form, ref))


def test_self_times_exclude_children():
    # op [0, 10] -> load [1, 3], norm [4, 9] -> compute [5, 8]
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert np.allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 2.0, 3.0])


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    import mixedop.cli as cli
    import mixedop.kernels as kernels

    originals = (cli.load_scenario, cli.exact_norm_decoupled, kernels.OperatorKernel.matrix_norm)
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    scenarios.append(gen.generate("ascent_sandwich", 0, tmp_path)[0].path)
    recorder = tracing.Recorder()
    for scenario in scenarios:
        plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
        code = cli.run(str(scenario), out_path=str(plain))
        with tracing.install(recorder):
            traced_code = recorder.call(cli.run, str(scenario), out_path=str(traced))
        totals = recorder.end_op()
        assert (traced_code, traced.read_bytes()) == (code, plain.read_bytes()), scenario.name
        assert totals["scenario.load_s"] > 0
    assert (cli.load_scenario, cli.exact_norm_decoupled, kernels.OperatorKernel.matrix_norm) == originals
    # the generated instance needs ascent; its repeated norm lookups hit the cache
    assert totals["kernels.effectiveness.ascent_calls"] > 0
    assert totals["kernels.matrix_norm.ascent_calls"] > 0
    assert 0 < totals["kernels.matrix_norm.hits"] < totals["kernels.matrix_norm.calls"]
