"""A fuzzer for scenario files: mutations of the bundled scenarios never
end in a traceback, and never in an ``ok`` row that carries a NaN.

Each example edits one to three places of a bundled file: a type swap,
a list/object swap, a non-finite, huge or tiny number, or a removed key
or list item.  Huge values are floats: a huge integer in ``partitions``
is a valid request for that much work, not malformed input, and one in
``samples`` is refused by the sampling oracle's bound (tested in
``test_cli.py``).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedop.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}

NUMBERS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -1.0,
    1e308, -1e308, 1.7976931348623157e308, 1e150, 1e20,
    1e-308, 5e-324, -5e-324, 1e-150, 1e-20,
]
OTHERS = ["x", "", "inf", "nan", True, False, None, 0, 1, -1, 2, [], {}, ["s1"], {"s1": 1.0}, [[1.0]]]


def _places(node, prefix=()):
    """(path, value) for every place in a JSON tree; a path is the
    key/index steps that reach it."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from _places(child, prefix + (key,))


def _swapped(value):
    """A list as an object keyed by position, an object as its values,
    anything else wrapped in a list."""
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return [value]


@st.composite
def mutated_scenarios(draw):
    data = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number", "replace", "swap", "delete"]))
        paths = [path for path, value in _places(data)
                 if op != "number" or isinstance(value, (int, float)) and not isinstance(value, bool)]
        if not paths:
            continue
        *parents, key = draw(st.sampled_from(paths))
        parent = data
        for step in parents:
            parent = parent[step]
        if op == "delete":
            del parent[key]
        elif op == "swap":
            parent[key] = _swapped(parent[key])
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(NUMBERS if op == "number" else NUMBERS + OTHERS)))
    return data


VERB_FLAGS = {
    "run": [],
    "sweep": ["--p-grid", "2,4", "--q-grid", "1,2", "--samples", "50"],
    "phi-audit": ["--partitions", "5"],
}


@settings(max_examples=400, deadline=None)
@given(data=mutated_scenarios(), verb=st.sampled_from(sorted(VERB_FLAGS)))
def test_mutated_scenario_fails_cleanly(data, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.csv"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([verb, str(path), "--out", str(out), *VERB_FLAGS[verb]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if out.exists():
            for row in csv.DictReader(io.StringIO(out.read_text())):
                if row["status"] == "ok":  # the id is text, and may read "nan"
                    assert "nan" not in [v for k, v in row.items() if k != "scenario_id"], row
