"""Scenario loading, the CLI verbs, CSV format, exit codes, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mixedop
from mixedop import MixedOpError, ScenarioError, cli, load_scenario
from mixedop.cli import COLUMNS, STATUS_VIOLATION, _finish, _row, main, run
from mixedop.kernels import ORACLE_MAX_ENTRIES

from builders import bundled_kernel

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
BUNDLED_REFS = ROOT / "perfbench" / "refs" / "bundled"


def _write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _exit_code(argv):
    """main's return code, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def _console(*argv, stdout=subprocess.PIPE, **env):
    """The console verb in a fresh interpreter, ``env`` added to the
    environment: what a user sees, numpy warnings and tracebacks included."""
    env = dict(os.environ, PYTHONPATH=str(Path(mixedop.__file__).resolve().parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "mixedop.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


_DEEP = b"[" * 100_000 + b"]" * 100_000  # beyond the recursion limit of json.loads


def _deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(_DEEP)
    return str(path)


def _overflow_scenario(entry: float, kind: str):
    """One pair of 2-dim fibers, W r=1.5 and V r=3: finite entries whose
    powers overflow inside the computation."""
    data = _minimal_scenario()
    data["spaces"]["T"] = {"t1": 1.0}
    data["relations"]["lam"]["pairs"] = [["s1", "t1", 1.0]]
    data["families"] = {
        "W": {"base": "T", "fibers": {"t1": {"r": 1.5, "weights": [1.0, 1.0]}}},
        "V": {"base": "S", "fibers": {"s1": {"r": 3, "weights": [1.0, 1.0]}}},
    }
    data["kernels"]["P"]["matrices"] = [
        ["s1", "t1", [[entry, 3 * entry], [2 * entry, -entry]]]
    ]
    data["checks"] = [{"kind": kind, "exponents": [[4, 2]]}]
    return data


def _minimal_scenario():
    return {
        "schema_version": 1,
        "id": "mini",
        "spaces": {"S": {"s1": 1.0}, "T": {"t1": 1.0, "t2": 1.0}},
        "relations": {
            "lam": {"source": "S", "target": "T",
                    "pairs": [["s1", "t1", 1.0], ["s1", "t2", 1.0]]}
        },
        "families": {
            "W": {"base": "T", "fibers": {"t1": {"r": 2, "weights": [1.0]},
                                          "t2": {"r": 2, "weights": [1.0]}}},
            "V": {"base": "S", "fibers": {"s1": {"r": 2, "weights": [1.0]}}},
        },
        "kernels": {
            "P": {"relation": "lam", "domain": "W", "codomain": "V",
                  "matrices": [["s1", "t1", [[1.0]]], ["s1", "t2", [[2.0]]]]}
        },
        "checks": [{"kind": "sandwich", "exponents": [[4, 2]], "seed": 1, "samples": 50}],
    }


class TestScenarioLoading:
    def test_bundled_scenarios_load(self):
        for name in ("scalar17", "projection_gap", "graph_swap", "mixed_composition"):
            sc = load_scenario(SCENARIOS / f"{name}.json")
            assert sc.id == name

    def test_missing_schema_version(self, tmp_path):
        data = _minimal_scenario()
        del data["schema_version"]
        with pytest.raises(ScenarioError):
            load_scenario(_write(tmp_path, data))

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "string"])
    def test_schema_version_must_be_the_integer_one(self, tmp_path, version):
        # True == 1 and 1.0 == 1 in Python, so an equality test alone lets them through
        data = _minimal_scenario()
        data["schema_version"] = version
        with pytest.raises(ScenarioError, match="schema_version must be 1$"):
            load_scenario(_write(tmp_path, data))

    def test_unknown_space_reference(self, tmp_path):
        data = _minimal_scenario()
        data["relations"]["lam"]["target"] = "Zed"
        with pytest.raises(ScenarioError):
            load_scenario(_write(tmp_path, data))

    def test_unknown_check_kind(self, tmp_path):
        data = _minimal_scenario()
        data["checks"][0]["kind"] = "nonsense"
        with pytest.raises(ScenarioError):
            load_scenario(_write(tmp_path, data))

    def test_inf_exponent_string(self, tmp_path):
        data = _minimal_scenario()
        data["checks"][0]["exponents"] = [["inf", "inf"]]
        sc = load_scenario(_write(tmp_path, data))
        assert sc.checks[0].exponents[0] == (math.inf, math.inf)

    def test_kernel_generators(self, tmp_path):
        data = _minimal_scenario()
        data["families"]["V"] = {
            "base": "S", "fibers": {"s1": {"r": 2, "weights": [1.0]}}}
        data["kernels"] = {
            "I": {"relation": "lam", "domain": "W", "codomain": "V",
                  "generator": {"kind": "identity"}},
            "C": {"relation": "lam", "domain": "W", "codomain": "V",
                  "generator": {"kind": "scalar", "value": 2.0}},
            "D": {"relation": "lam", "domain": "W", "codomain": "V",
                  "generator": {"kind": "diagonal", "diag": [3.0]}},
            "R": {"relation": "lam", "domain": "W", "codomain": "V",
                  "generator": {"kind": "random", "seed": 4}},
        }
        data["checks"] = []
        sc = load_scenario(_write(tmp_path, data))
        assert sc.kernels["I"].matrix("s1", "t1")[0, 0] == 1.0
        assert sc.kernels["C"].matrix("s1", "t2")[0, 0] == 2.0
        assert sc.kernels["D"].matrix("s1", "t1")[0, 0] == 3.0
        r1 = sc.kernels["R"].matrix("s1", "t1")[0, 0]
        r2 = load_scenario(_write(tmp_path, data, "again.json")).kernels["R"].matrix("s1", "t1")[0, 0]
        assert r1 == r2  # generator output is seed-deterministic

    def test_ambiguous_default_kernel(self, tmp_path):
        data = _minimal_scenario()
        data["kernels"]["Q"] = data["kernels"]["P"]
        with pytest.raises(ScenarioError, match=r"^checks\[0\]: check needs an explicit kernel reference \(2 defined\)$"):
            load_scenario(_write(tmp_path, data))


class TestCollectorPause:
    """``load_scenario`` runs with the cyclic collector paused and hands
    back the caller's state on every exit."""

    def test_enabled_after_good_and_failed_loads(self, tmp_path):
        data = _minimal_scenario()
        del data["schema_version"]
        assert gc.isenabled()
        load_scenario(SCENARIOS / "scalar17.json")
        assert gc.isenabled()
        with pytest.raises(ScenarioError):
            load_scenario(_write(tmp_path, data))
        assert gc.isenabled()
        with pytest.raises(ScenarioError, match="nested too deeply"):
            load_scenario(_deep_nesting(tmp_path))
        assert gc.isenabled()

    def test_disabled_caller_stays_disabled(self, tmp_path):
        gc.disable()
        try:
            load_scenario(SCENARIOS / "scalar17.json")
            assert not gc.isenabled()
            with pytest.raises(ScenarioError):
                load_scenario(_deep_nesting(tmp_path))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_load_leaves_no_cyclic_garbage(self, tmp_path):
        # the premise of the pause: a load's objects are all freed by
        # reference counting, so pausing the collector defers nothing
        from perfbench import gen

        (audit,) = gen.generate("phi_audit", 0, tmp_path)
        for path in [*sorted(SCENARIOS.glob("*.json")), audit.path]:
            gc.collect()
            sc = load_scenario(path)
            del sc
            assert gc.collect() == 0, path.name


def _traced_peak(load) -> int:
    """The traced memory peak of ``load()``, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    """``load_scenario`` drops the file text once it is decoded, and each
    stage takes its section out of the decoded tree, so the section's JSON
    is freed as soon as its objects are built: loading peaks near the
    decoding itself."""

    def test_peak_is_near_the_decoding_peak(self, tmp_path):
        from perfbench import gen

        (audit,) = gen.generate("phi_audit", 0, tmp_path)
        assert audit.path.stat().st_size >= 400_000
        decoded = _traced_peak(lambda: json.loads(Path(audit.path).read_text()))
        loaded = _traced_peak(lambda: load_scenario(audit.path))
        assert loaded <= 1.2 * decoded, (loaded, decoded)


class TestRunVerb:
    def test_scalar17_run(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        sandwich = lines[1].split(",")
        row = dict(zip(COLUMNS, sandwich))
        assert row["check"] == "sandwich"
        assert float(row["lower"]) == pytest.approx(17.0 ** 0.25, rel=1e-15)
        assert float(row["upper"]) == pytest.approx(17.0 ** 0.25, rel=1e-15)
        assert row["equality"] == "true"
        assert row["wall_ms"] == "0"

    def test_projection_gap_is_not_a_failure(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["run", str(SCENARIOS / "projection_gap.json"), "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "false" in body  # equality=false rows present

    def test_malformed_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["run", str(bad)]) == 1

    def test_missing_file_exits_1(self):
        assert main(["run", "/nonexistent/scenario.json"]) == 1

    def test_rejected_exponents_row(self, tmp_path):
        data = _minimal_scenario()
        data["checks"] = [{"kind": "criterion", "exponents": [[2, 4]]}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 0
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert row["status"] == "rejected"
        assert row["reason"] == "p<q out of supported scope"

    def test_run_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_override_matches_flag(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out1), "--seed", "99"])
        monkeypatch.setenv("MIXEDOP_SEED", "99")
        main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv("MIXEDOP_OUT", str(out))
        assert main(["run", str(SCENARIOS / "scalar17.json")]) == 0
        assert out.exists() and out.read_text().startswith(",".join(COLUMNS))

    @pytest.mark.parametrize("name, value", [("SEED", "abc"), ("SAMPLES", "1.5"), ("TOLERANCE", "tight")])
    def test_bad_env_value_exits_1(self, monkeypatch, capsys, name, value):
        monkeypatch.setenv(f"MIXEDOP_{name}", value)
        assert main(["run", str(SCENARIOS / "scalar17.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mixedop: input error: MIXEDOP_{name}")

    @pytest.mark.parametrize("entry", ["1e400", "NaN", "Infinity"])
    def test_non_finite_matrix_exits_1(self, tmp_path, capsys, entry):
        text = (SCENARIOS / "scalar17.json").read_text()
        assert "[[2.0]]" in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace("[[2.0]]", f"[[{entry}]]"))
        out = tmp_path / "out.csv"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ['"3"', "true", "false", '"inf"'])
    def test_non_number_matrix_entry_exits_1(self, tmp_path, capsys, entry):
        text = (SCENARIOS / "scalar17.json").read_text()
        path = tmp_path / "bad.json"
        path.write_text(text.replace("[[2.0]]", f"[[{entry}]]"))
        out = tmp_path / "out.csv"
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "mixedop: input error: kernels.P: matrix at ('s1', 't2') "
            f"has entry {json.loads(entry)!r}, not a number\n"
        )
        assert not out.exists()

    def test_non_number_entry_of_a_row_vector_exits_1(self, tmp_path, capsys):
        data = _minimal_scenario()
        data["kernels"]["P"]["matrices"][0][2] = [True]  # one row given flat
        assert main(["run", _write(tmp_path, data)]) == 1
        assert capsys.readouterr().err == (
            "mixedop: input error: kernels.P: matrix at ('s1', 't1') has entry True, not a number\n"
        )

    def test_bare_nan_exponent_is_a_load_error(self, tmp_path, capsys):
        text = json.dumps(_minimal_scenario()).replace("[[4, 2]]", "[[NaN, 2]]")
        path = tmp_path / "nan.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "mixedop: input error: checks[0].exponents[0]: expected a number, got nan\n"

    @pytest.mark.parametrize("generator, message", [
        ({"kind": "bogus"}, "kernels.P: unknown kernel generator 'bogus'"),
        ({"kind": "scalar", "value": "x"}, "kernels.P.generator.value: expected a number or 'inf', got 'x'"),
        ({"kind": "diagonal", "diag": [True]}, "kernels.P.generator.diag: expected a number, got True"),
        ({"kind": "random", "seed": -1}, "kernels.P.generator.seed: expected an integer >= 0, got -1"),
        ({"kind": "random", "scale": None}, "kernels.P.generator.scale: expected a number, got None"),
    ])
    def test_bad_generator_on_empty_relation_exits_1(self, tmp_path, capsys, generator, message):
        data = _minimal_scenario()
        data["relations"]["lam"]["pairs"] = []
        data["kernels"]["P"] = {"relation": "lam", "domain": "W", "codomain": "V", "generator": generator}
        assert main(["run", _write(tmp_path, data)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"

    def test_non_finite_scalar_generator_exits_1(self, tmp_path, capsys):
        data = _minimal_scenario()
        data["kernels"]["P"] = {"relation": "lam", "domain": "W", "codomain": "V",
                                "generator": {"kind": "scalar", "value": "inf"}}
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2.7, True, "7", -1])
    def test_bad_random_generator_seed_exits_1(self, tmp_path, capsys, seed):
        data = _minimal_scenario()
        data["kernels"]["P"] = {"relation": "lam", "domain": "W", "codomain": "V",
                                "generator": {"kind": "random", "seed": seed}}
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kernels.P.generator.seed" in captured.err and ">= 0" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("entry, kind", [(1e200, "exact_norm"), (1e200, "sandwich"), (1e100, "phi_audit")])
    def test_non_finite_result_exits_1(self, tmp_path, capsys, entry, kind):
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, _overflow_scenario(entry, kind)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixedop: error:") and "not finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row", [[[0, -1e300, -1.2093813e-150]], [[1e300, 1, 0]]])
    def test_overflowing_gram_sum_exits_1(self, tmp_path, capsys, row):
        # q = 2, all l2: lam B^T B of the weight-conjugated matrices overflows
        data = json.loads((SCENARIOS / "projection_gap.json").read_text())
        data["families"]["W"]["fibers"]["t1"] = {"r": 2, "weights": [1.0, 1.0, 1.0]}
        data["families"]["V"]["fibers"] = {"s1": {"r": 2, "weights": [1e300]}, "s2": {"r": 2, "weights": [1.0]}}
        data["kernels"]["P"]["matrices"] = [["s1", "t1", row], ["s2", "t1", [[0, 0, 1]]]]
        data["checks"] = [{"kind": "exact_norm", "exponents": [[2, 2], [4, 2]]}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("mixedop: error: c('t1') is not finite")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_overflowing_gram_sum_writes_one_stderr_line(self, tmp_path):
        # numpy's RuntimeWarnings would reach stderr before the error line;
        # in-process runs cannot see them, so this runs the console verb
        data = json.loads((SCENARIOS / "projection_gap.json").read_text())
        data["families"]["W"]["fibers"]["t1"] = {"r": 2, "weights": [1.0, 1.0, 1.0]}
        data["families"]["V"]["fibers"] = {"s1": {"r": 2, "weights": [1e300]}, "s2": {"r": 2, "weights": [1.0]}}
        data["kernels"]["P"]["matrices"] = [["s1", "t1", [[0, -1e300, -1.2093813e-150]]], ["s2", "t1", [[0, 0, 1]]]]
        data["checks"] = [{"kind": "exact_norm", "exponents": [[2, 2]]}]
        done = _console("run", _write(tmp_path, data))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "mixedop: error: c('t1') is not finite: the sum of lam B^T B over its fiber overflows\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exponent_one_column_overflow_exits_1(self, tmp_path, capsys):
        # W_t1 has exponent 1; column 2 of the weight-conjugated P(s1, t1)
        # overflows, so c(t1) (about 1e450) is beyond the float range
        data = json.loads((SCENARIOS / "projection_gap.json").read_text())
        data["families"]["W"]["fibers"]["t1"] = {"r": 1, "weights": [1.0, 1.0]}
        data["families"]["V"]["fibers"] = {"s1": {"r": 2, "weights": [1e300]}, "s2": {"r": 2, "weights": [1.0]}}
        data["kernels"]["P"]["matrices"] = [["s1", "t1", [[1, 1e300]]], ["s2", "t1", [[1, 0]]]]
        data["checks"] = [{"kind": "exact_norm", "exponents": [[2, 2], [3, 2]]}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("mixedop: error:") and "not finite" in captured.err
        assert not out.exists()

    def test_empty_fiber_of_a_tiny_atom_adds_zero(self, tmp_path, capsys):
        # mu_t1^(-1/q) overflows, but t1 has no pair: every value is the norm, 1
        data = _minimal_scenario()
        data["spaces"]["T"] = {"t1": 1e-320, "t2": 1.0}
        data["relations"]["lam"]["pairs"] = [["s1", "t2", 1.0]]
        data["kernels"]["P"]["matrices"] = [["s1", "t2", [[1.0]]]]
        data["checks"] = [
            {"kind": "criterion", "exponents": [[1, 1]]},
            {"kind": "exact_norm", "exponents": [[1, 1]]},
            {"kind": "phi_audit", "exponents": [[1.01, 1]]},
        ]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[COLUMNS.index("value")] for row in rows] == ["1", "1", "0"]

    @pytest.mark.parametrize("field, value, flags, env", [
        ("--samples", None, ["--samples", "0"], {}),
        ("MIXEDOP_SAMPLES", None, [], {"MIXEDOP_SAMPLES": "0"}),
        ("--seed", None, ["--seed", "-1"], {}),
        ("checks[0].samples", 0, [], {}),
        ("checks[0].samples", "abc", [], {}),
        ("checks[0].seed", "abc", [], {}),
        ("checks[0].seed", -1, [], {}),
        ("checks[0].partitions", "abc", [], {}),
        ("checks[0].partitions", 0, [], {}),
    ])
    def test_bad_count_exits_1(self, tmp_path, monkeypatch, capsys, field, value, flags, env):
        data = _minimal_scenario()
        if value is not None:
            data["checks"][0][field.split(".")[1]] = value
        for name, text in env.items():
            monkeypatch.setenv(name, text)
        assert _exit_code(["run", _write(tmp_path, data), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and ">= " in captured.err

    @pytest.mark.parametrize("verb", ["run", "phi-audit"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_1(self, monkeypatch, capsys, verb, value):
        scenario = str(SCENARIOS / "scalar17.json")
        assert _exit_code([verb, scenario, "--tolerance", value]) == 1
        assert "--tolerance" in capsys.readouterr().err
        monkeypatch.setenv("MIXEDOP_TOLERANCE", value)
        assert _exit_code([verb, scenario]) == 1
        assert "MIXEDOP_TOLERANCE" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "x.json", "--bogus"],
        ["sweep", "x.json", "--p-grid", "2", "--q-grid", "2", "--tolerance", "1"],
        ["phi-audit", "x.json", "--partitions", "0"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        assert _exit_code(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mixedop") and "error:" in err

    def test_overflowing_volume_derivative_exits_1(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "graph_swap.json").read_text())
        data["spaces"]["T"]["t1"] = 5e-324  # nu(psi^-1(t1)) / mu_t1 = 4 / 5e-324 overflows
        data["checks"] = [{"kind": "change_of_vars", "exponents": [[2, 2]], "mapping": "psi", "density": "f"}]
        assert main(["run", _write(tmp_path, data)]) == 1
        assert capsys.readouterr().err.startswith("mixedop: error: density value at 't1' must be finite")

    def test_overflowing_change_of_vars_exits_1(self, tmp_path, capsys):
        # nu_s1 f(psi(s1)) = 1e300 * 1e10 overflows on both sides; was a violation row, exit 2
        data = json.loads((SCENARIOS / "graph_swap.json").read_text())
        data["spaces"]["S"] = {"s1": 1e300, "s2": 4.0}
        data["densities"]["f"]["values"] = {"t1": 5.0, "t2": 1e10}
        data["checks"] = [{"kind": "change_of_vars", "exponents": [[2, 2]], "mapping": "psi", "density": "f"}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "mixedop: error: change of variables is not finite: lhs inf, rhs inf" \
            " (overflow in the arithmetic)\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("verb", [["run"], ["phi-audit", "--partitions", "3"]])
    def test_overflowing_phi_derivative_exits_1(self, tmp_path, capsys, verb):
        # Phi({t1}) = 1.6e201 is finite, Phi({t1}) / mu_t1 overflows; was a violation row, exit 2
        data = json.loads((SCENARIOS / "graph_swap.json").read_text())
        data["spaces"]["T"] = {"t1": 1e-200, "t2": 1.0}
        del data["mappings"], data["densities"]
        data["checks"] = [{"kind": "phi_audit", "exponents": [[4, 2]]}]
        out = tmp_path / "out.csv"
        assert main([verb[0], _write(tmp_path, data), *verb[1:], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "mixedop: error: set function derivative of atom 't1' is not finite" \
            " (overflow in the arithmetic)\n"
        assert captured.out == "" and not out.exists()

    def test_mixedcomp_scenario(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["run", str(SCENARIOS / "mixed_composition.json"), "--out", str(out)]) == 0
        rows = [dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert all(r["equality"] == "true" for r in rows)
        assert all(r["alpha"] for r in rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_mixedcomp_criterion_exits_1(self, tmp_path, capsys):
        # inner masses of 1e308 overflow the slice sums; the true norms are
        # about 1e-154 and 1e-103, so neither nan nor inf may be reported
        data = json.loads((SCENARIOS / "mixed_composition.json").read_text())
        data["spaces"]["Y"] = {"y1": 1e308, "y2": 1e308}
        data["mixed_composition"]["u"]["s1"] = {"x1": "y1", "x2": "y2"}
        data["checks"] = [{"kind": "mixedcomp", "exponents": [[2, 1, 1, 2], [2, 2, 1, 2], [3, 2, 2, 3]]}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("mixedop: error: mixed composition criterion")
        assert "not finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_change_of_vars_row(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["run", str(SCENARIOS / "graph_swap.json"), "--out", str(out)]) == 0
        rows = [dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        cov = [r for r in rows if r["check"] == "change_of_vars"]
        assert len(cov) == 1
        assert float(cov[0]["value"]) == float(cov[0]["lower"]) == 27.0


def _edge_scenario(tmp_path, name, check):
    """A bundled scenario with its checks replaced by ``check``."""
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    data["checks"] = [check]
    return _write(tmp_path, data)


_CHANGE_OF_VARS = {"kind": "change_of_vars", "mapping": "psi", "density": "f"}


class TestRejectedRows:
    """The library refuses every exponent tuple outside the supported
    regime, and the CLI writes that refusal as the row's reason."""

    @pytest.mark.parametrize("name, check, exps, reason", [
        ("mixed_composition", {"kind": "mixedcomp"}, [2, 1, 2, 1], "alpha>beta out of supported scope"),
        ("mixed_composition", {"kind": "mixedcomp"}, [2, 1, 1, "inf"], "beta=inf out of scope"),
        ("mixed_composition", {"kind": "mixedcomp"}, [2, 1, "inf", "inf"], "beta=inf out of scope"),
        ("mixed_composition", {"kind": "mixedcomp"}, ["inf", "inf", 1, 2], "p=inf out of scope"),
        ("mixed_composition", {"kind": "mixedcomp"}, [1, 2, 1, 2], "p<q out of supported scope"),
        ("mixed_composition", {"kind": "mixedcomp"}, ["inf", 2, 1, 2], "p=inf out of scope"),
        ("graph_swap", _CHANGE_OF_VARS, [2, 4], "p<q out of supported scope"),
        ("graph_swap", _CHANGE_OF_VARS, ["inf", 2], "p=inf out of scope"),
        ("graph_swap", _CHANGE_OF_VARS, ["inf", "inf"], "p=inf out of scope"),
        ("graph_swap", {"kind": "phi_audit"}, [2, 2], "p=q: set function undefined (kappa=inf)"),
        ("graph_swap", {"kind": "phi_audit"}, ["inf", "inf"], "p=inf out of scope"),
        ("graph_swap", {"kind": "phi_audit"}, [2, 4], "p<q out of supported scope"),
        ("graph_swap", {"kind": "criterion"}, ["inf", "inf"], "p=inf out of scope"),
    ])
    def test_reason_and_empty_kappa(self, tmp_path, name, check, exps, reason):
        path = _edge_scenario(tmp_path, name, dict(check, exponents=[exps]))
        out = tmp_path / "out.csv"
        assert main(["run", path, "--out", str(out)]) == 0
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert (row["status"], row["reason"], row["kappa"]) == ("rejected", reason, "")


class TestCheckFields:
    @pytest.mark.parametrize("field, kind", [
        ("kernel", "criterion"), ("mapping", "change_of_vars"), ("density", "change_of_vars"),
    ])
    def test_list_reference_exits_1(self, tmp_path, field, kind):
        data = json.loads((SCENARIOS / "scalar17.json").read_text())
        data["checks"] = [{"kind": kind, "exponents": [[4, 2]], field: ["P"]}]
        out = tmp_path / "out.csv"
        done = _console("run", _write(tmp_path, data), "--out", str(out))
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert f"checks[0].{field}: expected a name string" in done.stderr
        assert not out.exists()

    def test_huge_finite_p_is_not_p_equals_q(self, tmp_path):
        data = json.loads((SCENARIOS / "scalar17.json").read_text())
        data["checks"] = [{"kind": "criterion", "exponents": [[1e308, 2], [2, 2]]}]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 0
        huge, equal = (dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:])
        assert (huge["kappa"], equal["kappa"]) == ("2", "inf")
        assert huge["value"] != equal["value"]
        # kappa = 2 and mu_t = 1: the l2 aggregate of |P| = (1, 2)
        assert float(huge["value"]) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def _one_error_line(done, part):
    """Exit 1 with exactly one stderr line, an input error holding ``part``."""
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
    assert done.stderr.startswith("mixedop: input error: ")
    assert part in done.stderr


class TestUndecodableInput:
    """A file that does not decode to JSON is an input error naming it."""

    @pytest.mark.parametrize("content, message", [
        (_DEEP, "invalid JSON (nested too deeply)"),
        (b'{"schema_version": 1, "id": "caf\xe9"}', "not UTF-8 text ("),
        # an integer literal above the int-string digit limit (4,300 by
        # default): json.loads raises a ValueError that is no JSONDecodeError
        (b'{"schema_version": 1, "id": "x", "n": ' + b"7" * 5000 + b"}", "invalid JSON ("),
    ], ids=["deep-nesting", "invalid-utf8", "digit-limit"])
    def test_exits_1_with_one_line(self, tmp_path, content, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        _one_error_line(_console("run", str(path)), f"{path}: {message}")


class TestUnwritableOutput:
    """An --out or MIXEDOP_OUT that cannot be written is an input error
    naming the path, not a traceback."""

    def test_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        done = _console("run", str(SCENARIOS / "scalar17.json"), "--out", str(out))
        _one_error_line(done, f"cannot write {out}: ")

    def test_out_env_is_a_directory(self, tmp_path):
        done = _console("run", str(SCENARIOS / "scalar17.json"), MIXEDOP_OUT=str(tmp_path))
        _one_error_line(done, f"cannot write {tmp_path}: ")
        assert done.stdout == ""

    @pytest.fixture
    def no_checks(self, monkeypatch):
        def fail(*args):
            pytest.fail("a check ran before the output path was checked")
        monkeypatch.setattr(cli, "_execute_check", fail)

    @pytest.mark.parametrize("verb", [
        ["run"], ["sweep", "--p-grid", "2", "--q-grid", "1"], ["phi-audit", "--partitions", "1"],
    ], ids=["run", "sweep", "phi-audit"])
    @pytest.mark.parametrize("out, message", [
        ("missing/x.csv", "No such file or directory"),
        ("scenario.json/x.csv", "Not a directory"),
        (".", "Is a directory"),
    ], ids=["missing-parent", "file-parent", "directory"])
    def test_found_before_any_check(self, tmp_path, capsys, no_checks, verb, out, message):
        path = _write(tmp_path, json.loads((SCENARIOS / "scalar17.json").read_text()))
        out = str(tmp_path / out)
        assert main([verb[0], path, "--out", out, *verb[1:]]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: cannot write {out}: {message}\n"

    def test_out_env_found_before_any_check(self, tmp_path, capsys, monkeypatch, no_checks):
        monkeypatch.setenv("MIXEDOP_OUT", str(tmp_path / "missing" / "x.csv"))
        assert main(["run", str(SCENARIOS / "scalar17.json")]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_failed_run_neither_creates_nor_truncates(self, tmp_path, monkeypatch):
        def fail(*args):
            raise MixedOpError("no result")
        monkeypatch.setattr(cli, "_execute_check", fail)
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        for out in (fresh, kept):
            assert main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out)]) == 1
        assert not fresh.exists()
        assert kept.read_text() == "old\n"


def _one_stdout_error_line(done, message):
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"mixedop: error: cannot write to stdout: {message}\n"


class TestStdoutWriteErrors:
    """A stdout that fails the write is an error line, not a traceback, at
    the write or in the interpreter's flush at exit."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            done = _console("run", str(SCENARIOS / "scalar17.json"), stdout=full)
        _one_stdout_error_line(done, "No space left on device")

    def test_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts, so its write always fails
        try:
            done = _console("run", str(SCENARIOS / "scalar17.json"), stdout=write_end)
        finally:
            os.close(write_end)
        _one_stdout_error_line(done, "Broken pipe")

    # argparse writes the help itself and swallows a failed write
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_to_full_device(self, argv):
        with open("/dev/full", "w") as full:
            done = _console(*argv, stdout=full)
        _one_stdout_error_line(done, "No space left on device")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_to_closed_pipe(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _console(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        _one_stdout_error_line(done, "Broken pipe")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_that_is_written_exits_0(self, argv):
        done = _console(*argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith(" ".join(["usage:", "mixedop", *argv[:-1]]))


def _identity_onto_huge_masses():
    """The identity graph of three atoms of mass 1 onto three atoms of mass
    1e308, scalar l2 fibers, P = 1."""
    data = json.loads((SCENARIOS / "graph_swap.json").read_text())
    S, T = [f"s{i}" for i in range(3)], [f"t{i}" for i in range(3)]
    data["spaces"] = {"S": dict.fromkeys(S, 1.0), "T": dict.fromkeys(T, 1e308)}
    data["relations"]["graph"]["pairs"] = [[s, t, 1.0] for s, t in zip(S, T)]
    data["families"]["W"]["fibers"] = {t: {"r": 2, "weights": [1.0]} for t in T}
    data["families"]["V"]["fibers"] = {s: {"r": 2, "weights": [1.0]} for s in S}
    for key in ("mappings", "densities"):
        del data[key]
    return data


def _graph_swap_onto_tiny_masses():
    data = json.loads((SCENARIOS / "graph_swap.json").read_text())
    data["spaces"]["T"] = {"t1": 1e-308, "t2": 1e-300}
    return data


class TestExtremeTargetMasses:
    """The criterion aggregates value * mu_t^(-1/p) as the decoupled norm
    does, so target masses whose mu-weighted sums would overflow give the
    finite norm, bit for bit."""

    @pytest.mark.parametrize("instance, pq, value", [
        (_identity_onto_huge_masses, [2, 1], "1.7320508075688772e-154"),
        (_identity_onto_huge_masses, [3, 2], "2.5873402367724796e-103"),
        (_graph_swap_onto_tiny_masses, [2, 1], "4.00000000125e+154"),
        (_graph_swap_onto_tiny_masses, [3, 2], "9.2831776672254357e+102"),
    ], ids=["huge-2-1", "huge-3-2", "tiny-2-1", "tiny-3-2"])
    def test_criterion_equals_exact_norm(self, tmp_path, instance, pq, value):
        data = instance()
        data["checks"] = [{"kind": k, "exponents": [pq]} for k in ("criterion", "exact_norm", "sandwich")]
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 0
        criterion, exact, sandwich = (dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:])
        assert (criterion["value"], exact["value"], sandwich["lower"], sandwich["upper"]) == (value,) * 4
        assert sandwich["equality"] == "true"


class TestCheckShapes:
    """Each check kind takes one exponent tuple length, checked at load."""

    @pytest.mark.parametrize("name, checks, message", [
        ("scalar17", [{"kind": "criterion", "exponents": [[4, 2, 3, 2]]}],
         "checks[0].exponents[0]: a criterion check takes [p, q]"),
        ("scalar17", [{"kind": "sandwich", "exponents": [[4, 2], [4, 2, 1, 2]]}],
         "checks[0].exponents[1]: a sandwich check takes [p, q]"),
        ("mixed_composition", [{"kind": "mixedcomp", "exponents": [[2, 1, 1, 2]]},
                               {"kind": "mixedcomp", "exponents": [[2, 1]]}],
         "checks[1].exponents[0]: a mixedcomp check takes [p, q, alpha, beta]"),
        ("scalar17", [{"kind": "criterion", "exponents": [[4, 2]]},
                      {"kind": "mixedcomp", "exponents": [[2, 1, 1, 2]]}],
         "checks[1]: a mixedcomp check needs a mixed_composition block"),
    ])
    def test_wrong_shape_is_a_load_error(self, tmp_path, capsys, name, checks, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, name, ("checks",), checks), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sweep", "--p-grid", "2", "--q-grid", "1"], ["phi-audit"]])
    def test_no_kernel_defined(self, capsys, argv):
        assert main([argv[0], str(SCENARIOS / "mixed_composition.json"), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {argv[0]}: the scenario defines no kernel\n"

    def test_no_mapping_defined(self, tmp_path, capsys):
        path = _edited(tmp_path, "scalar17", ("checks",), [{"kind": "change_of_vars", "exponents": [[2, 2]]}])
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == "mixedop: input error: checks[0]: the scenario defines no mapping\n"


class TestOracleBound:
    """The sampling oracle refuses |T| x samples above ORACLE_MAX_ENTRIES
    before it draws anything."""

    @pytest.mark.parametrize("samples", [10**12, 10**400], ids=["1e12", "1e400"])
    def test_check_field(self, tmp_path, capsys, samples):
        out = tmp_path / "out.csv"
        path = _edited(tmp_path, "scalar17", ("checks", 0, "samples"), samples)
        assert main(["run", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixedop: error: the sampling oracle needs |T| x samples = 2 x ")
        assert err.endswith(f" x {samples} directions, above its bound of 100000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["run"], ["sweep", "--p-grid", "4", "--q-grid", "2"]])
    @pytest.mark.parametrize("samples", [10**12, 10**400], ids=["1e12", "1e400"])
    def test_samples_flag(self, capsys, verb, samples):
        argv = [verb[0], str(SCENARIOS / "scalar17.json"), *verb[1:], "--samples", str(samples)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("mixedop: error: the sampling oracle needs")

    def test_bound_counts_target_atoms(self):
        kernel = bundled_kernel("scalar17")  # two target atoms
        with pytest.raises(MixedOpError, match="sampling oracle"):
            kernel.oracle_samples(2.0, 0, ORACLE_MAX_ENTRIES // 2 + 1)
        assert kernel.oracle_samples(2.0, 0, 1000).shape == (2,)


class TestSamplesFlag:
    """--samples and MIXEDOP_SAMPLES belong to run and sweep: phi-audit
    runs no oracle."""

    def test_phi_audit_refuses_samples(self, capsys):
        assert _exit_code(["phi-audit", str(SCENARIOS / "scalar17.json"), "--samples", "7"]) == 1
        assert "unrecognized arguments: --samples 7" in capsys.readouterr().err

    def test_phi_audit_ignores_samples_env(self, tmp_path, monkeypatch):
        out, plain = tmp_path / "env.csv", tmp_path / "plain.csv"
        assert main(["phi-audit", str(SCENARIOS / "scalar17.json"), "--out", str(plain)]) == 0
        monkeypatch.setenv("MIXEDOP_SAMPLES", "abc")
        assert main(["phi-audit", str(SCENARIOS / "scalar17.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_sweep_reads_samples_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MIXEDOP_SAMPLES", "abc")
        assert main(["sweep", str(SCENARIOS / "scalar17.json"), "--p-grid", "4", "--q-grid", "2"]) == 1
        assert capsys.readouterr().err.startswith("mixedop: input error: MIXEDOP_SAMPLES")


def _edited(tmp_path, name, path, value):
    """A copy of a bundled scenario with the JSON place ``path`` set to
    ``value``."""
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    node[key] = value
    return _write(tmp_path, data)


class TestMalformedNames:
    @pytest.mark.parametrize("name, path, value, message", [
        ("scalar17", ("relations", "lam", "source"), ["S"],
         "relations.lam.source: expected a name string, got ['S']"),
        ("scalar17", ("families", "W", "base"), {"T": 1},
         "families.W.base: expected a name string, got {'T': 1}"),
        ("scalar17", ("kernels", "P", "domain"), ["W"],
         "kernels.P.domain: expected a name string, got ['W']"),
        ("scalar17", ("relations", "lam", "pairs", 0, 0), ["s1"],
         "relations.lam.pairs[0][0]: expected a name string, got ['s1']"),
        ("scalar17", ("kernels", "P", "matrices", 1, 1), ["t2"],
         "kernels.P.matrices[1][1]: expected a name string, got ['t2']"),
        ("scalar17", ("kernels", "P", "matrices", 0, 2), {"a": 1},
         "kernels.P.matrices[0][2]: expected a list"),
        ("scalar17", ("kernels", "P", "matrices", 0, 2, 0), [{}],
         "kernels.P: matrix at ('s1', 't1') is not an array of numbers"),
        ("graph_swap", ("mappings", "psi", "table", "s1"), ["t2"],
         "mappings.psi.table.s1: expected a name string, got ['t2']"),
        ("mixed_composition", ("mixed_composition", "domain", "cells", 0, 1), ["x1"],
         "mixed_composition.domain.cells[0][1]: expected a name string, got ['x1']"),
        ("mixed_composition", ("mixed_composition", "psi", "s1"), ["t1"],
         "mixed_composition.psi.s1: expected a name string, got ['t1']"),
        ("mixed_composition", ("mixed_composition", "u", "s1", "x1"), {"y": 1},
         "mixed_composition.u.s1.x1: expected a name string, got {'y': 1}"),
    ])
    def test_list_or_object_for_a_name_exits_1(self, tmp_path, capsys, name, path, value, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, name, path, value), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"mixedop: input error: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, path, value, message", [
        ("scalar17", ("spaces", "S", "s1"), "x", "spaces.S.s1: expected a number or 'inf', got 'x'"),
        ("graph_swap", ("densities", "f", "values", "t1"), [5.0],
         "densities.f.values.t1: expected a number, got [5.0]"),
        ("graph_swap", ("mappings", "psi", "table"), ["t2"], "mappings.psi.table: expected an object"),
    ])
    def test_error_names_its_path_once(self, tmp_path, capsys, name, path, value, message):
        assert main(["run", _edited(tmp_path, name, path, value)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"


class TestHugeIntegers:
    """A JSON integer beyond the float range is an input error at its place."""

    @pytest.mark.parametrize("path, message", [
        (("spaces", "S", "s1"), "spaces.S.s1: integer too large for a float"),
        (("relations", "lam", "pairs", 0, 2), "relations.lam.pairs: integer too large for a float"),
        (("families", "W", "fibers", "t1", "weights", 0),
         "families.W.fibers.t1.weights: integer too large for a float"),
        (("checks", 1, "exponents", 0, 0), "checks[1].exponents[0]: integer too large for a float"),
        (("kernels", "P", "matrices", 1, 2, 0, 0),
         "kernels.P: matrix at ('s1', 't2') has an entry too large for a float"),
    ])
    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys, path, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, "scalar17", path, 10**400), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()


class TestHugeDecimals:
    """A JSON decimal beyond the float range, which json reads as inf, is an
    input error at its place; so is a bare Infinity, which is no JSON number."""

    @pytest.mark.parametrize("name, path, value, message", [
        ("scalar17", ("spaces", "T", "t1"), 1e400, "spaces.T.t1: number too large for a float"),
        ("scalar17", ("families", "W", "fibers", "t1", "r"), 1e400,
         "families.W.fibers.t1.r: number too large for a float"),
        ("scalar17", ("families", "V", "fibers", "s1", "weights", 0), -1e400,
         "families.V.fibers.s1.weights: number too large for a float"),
        ("scalar17", ("checks", 1, "exponents", 0, 1), 1e400, "checks[1].exponents[0]: number too large for a float"),
        ("graph_swap", ("densities", "f", "values", "t1"), 1e400, "densities.f.values.t1: number too large for a float"),
    ], ids=["space-weight", "fiber-r", "fiber-weight", "exponent", "density"])
    def test_decimal_beyond_float_range_exits_1(self, tmp_path, capsys, name, path, value, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, name, path, value), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    def test_literal_text_1e400(self, tmp_path):
        """The literal as a user writes it, not as json.dumps writes inf."""
        text = (SCENARIOS / "scalar17.json").read_text()
        data = json.loads(text)
        data["families"]["W"]["fibers"]["t1"]["r"] = "R"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"R"', "1e400"))
        _one_error_line(_console("run", str(path)), "families.W.fibers.t1.r: number too large for a float")


def _references(**edits):
    """``graph_swap.json`` (one kernel, mapping and density) with a good
    first check and ``edits`` applied: each a section's new blocks (None
    drops the section), or ``check`` for the second check."""
    data = json.loads((SCENARIOS / "graph_swap.json").read_text())
    second = edits.pop("check")
    for section, blocks in edits.items():
        if blocks is None:
            del data[section]
        else:
            data[section] = blocks
    data["checks"] = [{"kind": "sandwich", "exponents": [[2, 2]], "samples": 10}, second]
    return data


def _doubled(section):
    data = json.loads((SCENARIOS / "graph_swap.json").read_text())
    (name, block), = data[section].items()
    return {name: block, "extra": block}


_COV = {"kind": "change_of_vars", "exponents": [[2, 2]]}


class TestCheckReferences:
    """The loader resolves the kernel, mapping and density each check
    reads: a bad reference is a load error at ``checks[i]``, found before
    any check runs, even when every row of its check would be rejected."""

    @pytest.mark.parametrize("edits, message", [
        (dict(check={"kind": "criterion", "exponents": [[2, 2]], "kernel": "nope"}),
         "checks[1]: unknown kernel 'nope'"),
        (dict(kernels=_doubled("kernels"), check={"kind": "exact_norm", "exponents": [[2, 2]]}),
         "checks[0]: check needs an explicit kernel reference (2 defined)"),
        (dict(kernels=None, check={"kind": "phi_audit", "exponents": [[4, 2]]}),
         "checks[0]: the scenario defines no kernel"),
        (dict(check={**_COV, "mapping": "nope"}), "checks[1]: unknown mapping 'nope'"),
        (dict(mappings=_doubled("mappings"), check=_COV),
         "checks[1]: check needs an explicit mapping reference (2 defined)"),
        (dict(mappings=None, check=_COV), "checks[1]: the scenario defines no mapping"),
        (dict(check={**_COV, "density": "nope"}), "checks[1]: unknown density 'nope'"),
        (dict(densities=_doubled("densities"), check=_COV),
         "checks[1]: check needs an explicit density reference (2 defined)"),
        (dict(densities=None, check={**_COV, "density": "f"}), "checks[1]: unknown density 'f'"),
        (dict(check={"kind": "criterion", "exponents": [[2, 4]], "kernel": "nope"}),
         "checks[1]: unknown kernel 'nope'"),
        (dict(densities={"f": {"space": "S", "values": {"s1": 5.0, "s2": 7.0}}}, check={**_COV, "density": "f"}),
         "checks[1]: the density must live on the mapping's target space"),
    ], ids=["kernel-unknown", "kernel-two", "kernel-none", "mapping-unknown", "mapping-two", "mapping-none",
            "density-unknown", "density-two", "density-none", "all-rows-rejected", "density-off-target"])
    def test_load_error_before_any_check(self, tmp_path, capsys, monkeypatch, edits, message):
        def fail(*args):
            pytest.fail("a check ran before its references were resolved")
        monkeypatch.setattr(cli, "_execute_check", fail)
        path = _write(tmp_path, _references(**edits))
        with pytest.raises(ScenarioError) as e:
            load_scenario(path)
        assert str(e.value) == message
        out = tmp_path / "out.csv"
        assert main(["run", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--p-grid", "2", "--q-grid", "4"], ["sweep", "--p-grid", "1.5,2,4", "--q-grid", "1,2,4"],
        ["phi-audit", "--partitions", "5"],
    ], ids=["sweep-all-rejected", "sweep", "phi-audit"])
    def test_verb_without_a_kernel(self, tmp_path, capsys, monkeypatch, argv):
        def fail(*args):
            pytest.fail("a check ran before its kernel was resolved")
        monkeypatch.setattr(cli, "_execute_check", fail)
        out = tmp_path / "out.csv"
        assert main([argv[0], str(SCENARIOS / "mixed_composition.json"), "--out", str(out), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {argv[0]}: the scenario defines no kernel\n"
        assert not out.exists()

    def test_unknown_kernel_of_rejected_rows_in_a_fresh_interpreter(self, tmp_path):
        path = _write(tmp_path, _references(check={"kind": "criterion", "exponents": [[2, 4]], "kernel": "nope"}))
        _one_error_line(_console("run", path), "checks[1]: unknown kernel 'nope'")

    def test_resolved_blocks(self, tmp_path):
        sc = load_scenario(SCENARIOS / "graph_swap.json")
        sandwich, cov = sc.checks
        assert sandwich.kernel is sc.kernels["P"]
        assert (cov.mapping, cov.density) == (sc.mappings["psi"], sc.densities["f"])
        sc = load_scenario(_write(tmp_path, _references(densities=None, check=_COV)))
        assert sc.checks[1].density is None  # a seeded random density, drawn when the check runs
        sc = load_scenario(SCENARIOS / "mixed_composition.json")
        assert sc.checks[0].mapping is sc.mixed


_PAIRS = ("relations", "lam", "pairs")


class TestLoaderMessages:
    """One malformed entry of ``scalar17.json`` per row: the loader names
    the first bad entry with this exact line and exits 1."""

    @pytest.mark.parametrize("path, value, message", [
        (_PAIRS + (0, 0), "s9", "relations.lam: pair names unknown source atom 's9'"),
        (_PAIRS + (1, 1), "t9", "relations.lam: pair names unknown target atom 't9'"),
        (_PAIRS + (1, 2), -1.0, "relations.lam: pair ('s1', 't2') has invalid weight -1.0"),
        (_PAIRS + (0, 2), "inf", "relations.lam: pair ('s1', 't1') has invalid weight inf"),
        (_PAIRS + (0, 2), 1e400, "relations.lam.pairs: number too large for a float"),
        (_PAIRS + (1, 2), True, "relations.lam.pairs: expected a number, got True"),
        (_PAIRS + (1, 2), "x", "relations.lam.pairs: expected a number or 'inf', got 'x'"),
        (_PAIRS + (0, 2), math.nan, "relations.lam.pairs: expected a number, got nan"),
        (_PAIRS + (0, 2), 10**400, "relations.lam.pairs: integer too large for a float"),
        (_PAIRS, [["s1", "t1", 1.0], ["s1", "t2", 1.0], ["s1", "t1", 2.0]],
         "relations.lam: duplicate (s, t) pairs"),
        (_PAIRS + (1,), ["s1", "t2"], "relations.lam: pair entries are [s, t, weight]"),
        (_PAIRS + (1,), "s1 t2 1.0", "relations.lam.pairs entry: expected a list"),
        (("families", "W", "fibers", "t2", "r"), 0.5,
         "families.W.fibers.t2: exponent must lie in [1, inf], got 0.5"),
        (("families", "W", "fibers", "t1", "weights"), [0.0],
         "families.W.fibers.t1: weights must be strictly positive and finite"),
        (("kernels", "P", "matrices", 1, 2), [[2.0, 1.0]],
         "kernels.P: matrix at ('s1', 't2') has shape (1, 2), expected (1, 1)"),
        (("kernels", "P", "matrices", 0, 2), [[True]],
         "kernels.P: matrix at ('s1', 't1') has entry True, not a number"),
        (("kernels", "P", "matrices"), [["s1", "t1", [[1.0]]], ["s1", "t2", [[2.0]]], ["s1", "t1", [[5.0]]]],
         "kernels.P.matrices[2]: duplicate matrix for pair ('s1', 't1')"),
        (("spaces", "T", "t1"), "inf", "spaces.T: atom 't1' has invalid weight inf"),
        (("spaces", "T", "t1"), 0, "spaces.T: atom 't1' has invalid weight 0.0"),
    ])
    def test_first_bad_entry_is_named(self, tmp_path, capsys, path, value, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, "scalar17", path, value), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("psi, message", [
        ({"s1": "t1"}, "mixed_composition: map table must be total on the source atoms"),
        ({"s1": "zz", "s2": "t2"}, "mixed_composition: map sends 's1' to unknown atom 'zz'"),
    ])
    def test_bad_mixed_composition_psi_is_named(self, tmp_path, capsys, psi, message):
        out = tmp_path / "out.csv"
        path = ("mixed_composition", "psi")
        assert main(["run", _edited(tmp_path, "mixed_composition", path, psi), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    def test_density_value_off_its_space_is_named(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = ("densities", "f", "values", "zz")
        assert main(["run", _edited(tmp_path, "graph_swap", path, 1.0), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "mixedop: input error: densities.f: values name unknown atom 'zz'\n"
        assert not out.exists()


class TestZeroWeightPairs:
    """A relation drops its pairs of weight 0, and the kernel ignores their
    matrices: such a file runs as if the pair and its matrix were left
    out.  A pair listed twice is refused, whatever its weights."""

    @pytest.mark.parametrize("weight", [0.0, 0, -0.0])
    def test_matrix_of_a_dropped_pair_is_dropped_too(self, tmp_path, capsys, weight):
        data = json.loads((SCENARIOS / "scalar17.json").read_text())
        data["relations"]["lam"]["pairs"][0][2] = weight
        zero = _write(tmp_path, data, "zero.json")
        del data["relations"]["lam"]["pairs"][0]
        del data["kernels"]["P"]["matrices"][0]
        omitted = _write(tmp_path, data, "omitted.json")
        assert main(["run", zero, "--out", str(tmp_path / "zero.csv")]) == 0
        assert main(["run", omitted, "--out", str(tmp_path / "omitted.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "zero.csv").read_bytes() == (tmp_path / "omitted.csv").read_bytes()

    def test_pair_also_listed_with_a_positive_weight_is_a_duplicate(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "scalar17.json").read_text())
        data["relations"]["lam"]["pairs"].insert(0, ["s1", "t1", 0.0])
        out = tmp_path / "out.csv"
        assert main(["run", _write(tmp_path, data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "mixedop: input error: relations.lam: duplicate (s, t) pairs\n"
        assert not out.exists()

    def test_matrix_of_an_unlisted_pair_is_still_refused(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "scalar17.json").read_text())
        data["relations"]["lam"]["pairs"] = [["s1", "t1", 0.0]]
        assert main(["run", _write(tmp_path, data)]) == 1
        assert capsys.readouterr().err == (
            "mixedop: input error: kernels.P: matrices given for pairs outside the relation: [('s1', 't2')]\n"
        )


class TestExponentRange:
    """An exponent outside [1, inf] is an input error where it is read; a
    valid p < q is still a rejected row (``test_rejected_exponents_row``)."""

    @pytest.mark.parametrize("name, path, value, message", [
        ("scalar17", ("checks", 1, "exponents", 0), [0.5, 1],
         "checks[1].exponents[0]: exponent must lie in [1, inf], got 0.5"),
        ("scalar17", ("checks", 1, "exponents", 0), [2, 0.5],
         "checks[1].exponents[0]: exponent must lie in [1, inf], got 0.5"),
        ("scalar17", ("checks", 0, "exponents", 1), [-math.inf, 2],
         "checks[0].exponents[1]: number too large for a float"),
        ("mixed_composition", ("checks", 0, "exponents", 2), [2, 2, 2, 0.5],
         "checks[0].exponents[2]: exponent must lie in [1, inf], got 0.5"),
    ])
    def test_check_exponent(self, tmp_path, capsys, name, path, value, message):
        out = tmp_path / "out.csv"
        assert main(["run", _edited(tmp_path, name, path, value), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grids, message", [
        (["--p-grid", "0.5", "--q-grid", "1"], "--p-grid: exponent must lie in [1, inf], got 0.5"),
        (["--p-grid", "2", "--q-grid", "0.5"], "--q-grid: exponent must lie in [1, inf], got 0.5"),
        (["--p-grid=-inf", "--q-grid", "1"], "--p-grid: exponent must lie in [1, inf], got -inf"),
        (["--p-grid", "2,nan", "--q-grid", "1"], "--p-grid: exponent must lie in [1, inf], got nan"),
        (["--p-grid", "1e400", "--q-grid", "1"], "--p-grid: number too large for a float"),
        (["--p-grid", "2", "--q-grid", "1,-1e400"], "--q-grid: number too large for a float"),
        (["--p-grid=-Infinity", "--q-grid", "1"], "--p-grid: exponent must lie in [1, inf], got -inf"),
    ])
    def test_sweep_grid(self, tmp_path, capsys, grids, message):
        out = tmp_path / "out.csv"
        assert main(["sweep", str(SCENARIOS / "scalar17.json"), *grids, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mixedop: input error: {message}\n"
        assert not out.exists()

    def test_sweep_grid_inf_is_an_exponent(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["sweep", str(SCENARIOS / "scalar17.json"), "--p-grid", "INF", "--q-grid", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "inf"

    def test_sweep_grid_infinity_is_an_exponent(self, tmp_path):
        out = tmp_path / "out.csv"
        argv = ["sweep", str(SCENARIOS / "scalar17.json"), "--p-grid", "+Infinity", "--q-grid", "2", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "inf"

    def test_sweep_grid_beyond_float_range_exits_1(self):
        _one_error_line(_console("sweep", str(SCENARIOS / "scalar17.json"), "--p-grid", "1e400", "--q-grid", "2"),
                        "--p-grid: number too large for a float")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_csv_matches_reference_bytes(scenario, tmp_path):
    out = tmp_path / "out.csv"
    assert run(str(scenario), out_path=str(out)) == 0
    assert out.read_bytes() == (BUNDLED_REFS / f"{scenario.stem}.csv").read_bytes()


def _dispatched_cpu_features() -> list[str]:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        return []
    return list(getattr(_multiarray_umath, "__cpu_dispatch__", []))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_csv_bytes_do_not_depend_on_simd_dispatch(scenario, tmp_path):
    """numpy's array ``**`` rounds some values differently from Python's
    only where it dispatches power to AVX-512 code, so the reference bytes
    must also come out of numpy's baseline code, with every dispatched
    feature off: CI runners differ in CPU."""
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy reports no dispatched CPU features")
    out = tmp_path / "out.csv"
    done = _console("run", str(scenario), "--out", str(out), NPY_DISABLE_CPU_FEATURES=" ".join(features))
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (BUNDLED_REFS / f"{scenario.stem}.csv").read_bytes()


class TestSweepVerb:
    def test_grid_counts_and_kappa(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(SCENARIOS / "scalar17.json"),
            "--p-grid", "1.5,2,4", "--q-grid", "1.5,2,4", "--out", str(out),
        ])
        assert code == 0
        rows = [dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        rejected = [r for r in rows if r["status"] == "rejected"]
        computed = [r for r in rows if r["status"] == "ok"]
        assert len(rejected) == 3 and len(computed) == 6
        assert all(r["reason"] == "p<q out of supported scope" for r in rejected)
        diagonal = [r for r in computed if r["p"] == r["q"]]
        assert all(r["kappa"] == "inf" for r in diagonal)

    def test_tolerance_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", str(SCENARIOS / "scalar17.json"),
                "--p-grid", "2", "--q-grid", "2", "--tolerance", "1",
            ])
        assert exc.value.code != 0
        assert "--tolerance" in capsys.readouterr().err

    def test_sweep_byte_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main([
                "sweep", str(SCENARIOS / "scalar17.json"),
                "--p-grid", "2,3", "--q-grid", "1,2", "--out", str(out), "--seed", "5",
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestPhiAuditVerb:
    def test_scalar17_audit(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = main([
            "phi-audit", str(SCENARIOS / "scalar17.json"),
            "--partitions", "50", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        rows = [dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        audited = [r for r in rows if r["status"] == "ok"]
        assert audited and all(float(r["value"]) <= 1e-9 for r in audited)
        rejected = [r for r in rows if r["status"] == "rejected"]
        assert any("p=q" in r["reason"] for r in rejected)

    def test_single_atom_trivially_additive(self, tmp_path):
        data = _minimal_scenario()
        data["spaces"]["T"] = {"t1": 1.0}
        data["relations"]["lam"]["pairs"] = [["s1", "t1", 1.0]]
        data["families"]["W"]["fibers"] = {"t1": {"r": 2, "weights": [1.0]}}
        data["kernels"]["P"]["matrices"] = [["s1", "t1", [[1.0]]]]
        data["checks"] = [{"kind": "phi_audit", "exponents": [[4, 2]]}]
        out = tmp_path / "audit.csv"
        assert main(["phi-audit", _write(tmp_path, data), "--out", str(out)]) == 0
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert float(row["value"]) == 0.0


class TestExitCodeMapping:
    def test_violation_row_maps_to_2(self, tmp_path):
        rows = [_row(check="sandwich", status=STATUS_VIOLATION, reason="x")]
        assert _finish(rows, "x", False, str(tmp_path / "v.csv")) == 2

    def test_ok_rows_map_to_0(self, tmp_path):
        rows = [_row(check="sandwich")]
        assert _finish(rows, "x", False, str(tmp_path / "v.csv")) == 0


class TestCsvFormat:
    def test_17_significant_digits(self, tmp_path):
        out = tmp_path / "out.csv"
        main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out)])
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert row["lower"] == "2.0305431848689306"

    def test_timing_flag_breaks_zero(self, tmp_path):
        out = tmp_path / "out.csv"
        main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out), "--timing"])
        rows = [dict(zip(COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert all(r["wall_ms"].isdigit() for r in rows)
