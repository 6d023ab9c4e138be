"""Spans recorded from outside the program, around mixedop's public
entry points, and the per-layer numbers derived from them.

``install`` swaps a timing wrapper in for each entry point under every
name a loaded ``mixedop`` module binds it to (``mixedop.cli`` and
``mixedop.boundedness`` re-bind several with ``from ... import``), and
restores the originals on exit.  Nothing under ``src/`` is changed.

A span is (name, start, end, parent, tag).  Spans of one op stay in
memory in flat arrays; ``Recorder.end_op`` reduces them to per-layer
totals, and the spans of the first op on each file are kept whole and
written out when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children (calls nest, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

OP = "cli.op"
LOAD = "scenario.load"
MATRIX_NORM = "kernels.matrix_norm"  # calls through OperatorKernel.matrix_norm (cached)
MATRIX_COMPUTE = "kernels.matrix_operator_norm"
EFFECTIVENESS = "kernels.effectiveness"
CRITERION = "boundedness.criterion"
EXACT_NORM = "boundedness.exact_norm"
ORACLE = "boundedness.oracle"
PHI_VALUE = "boundedness.phi_value"
PHI_DERIVATIVE = "boundedness.phi_derivative"
MIXED_CRITERION = "mixedcomp.criterion"
MATERIALIZE = "mixedcomp.materialize"
NAMES = (
    OP, LOAD, MATRIX_NORM, MATRIX_COMPUTE, EFFECTIVENESS, CRITERION, EXACT_NORM,
    ORACLE, PHI_VALUE, PHI_DERIVATIVE, MIXED_CRITERION, MATERIALIZE,
)
CODE = {name: i for i, name in enumerate(NAMES)}

# span tags: the certificate a call returned, or a cache hit
UNTAGGED, EXACT, ASCENT, HIT = 0, 1, 2, 3
_CERT_TAG = {"exact": EXACT, "lower_bound": ASCENT}

# (module, attribute) of each wrapped entry point, and how its result is tagged
ENTRY_POINTS = (
    ("mixedop.scenario", "load_scenario", LOAD, None),
    ("mixedop.kernels", "matrix_operator_norm", MATRIX_COMPUTE, "certificate"),
    ("mixedop.kernels", "fiber_effectiveness", EFFECTIVENESS, "cache"),
    ("mixedop.boundedness", "criterion_general_result", CRITERION, None),
    ("mixedop.boundedness", "exact_norm_decoupled", EXACT_NORM, None),
    ("mixedop.boundedness", "oracle_norm_sampling", ORACLE, None),
    ("mixedop.boundedness", "phi_value", PHI_VALUE, None),
    ("mixedop.boundedness", "phi_derivative", PHI_DERIVATIVE, None),
    ("mixedop.mixedcomp", "criterion_mixed_composition", MIXED_CRITERION, None),
    ("mixedop.mixedcomp", "direct_integral_instance", MATERIALIZE, None),
)


class Recorder:
    """Spans of the current op, per-op layer totals, and kept spans."""

    def __init__(self) -> None:
        self.code = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tag = array("b")
        self.stack = [-1]
        # results returned so far in this op, by id; an entry point that
        # hands back an object it returned before answered from a cache
        self.returned: dict[int, dict[int, object]] = {CODE[MATRIX_NORM]: {}, CODE[EFFECTIVENESS]: {}}
        self.ops: list[dict[str, float]] = []
        self.kept: dict[str, tuple[np.ndarray, ...]] = {}

    def wrap(self, fn, name: str, tagging: str | None):
        code = CODE[name]
        codes, starts, ends, parents, tags, stack = (
            self.code, self.start, self.end, self.parent, self.tag, self.stack
        )
        returned = self.returned.get(code)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            tags.append(UNTAGGED)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tagging == "certificate":
                tags[i] = _CERT_TAG[result.certificate]
            elif tagging == "cache":
                key = id(result)
                if key in returned:
                    tags[i] = HIT
                else:
                    returned[key] = result
                    tags[i] = _CERT_TAG[result.certificate]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run one op under an ``OP`` span."""
        return self.wrap(fn, OP, None)(*args, **kwargs)

    def end_op(self, keep_as: str | None = None) -> dict[str, float]:
        """Reduce the current op's spans to layer totals and clear them."""
        code, start, end, parent, tag = (
            np.array(a, dtype=t)
            for a, t in zip((self.code, self.start, self.end, self.parent, self.tag),
                            (np.int64, np.float64, np.float64, np.int64, np.int64))
        )
        if keep_as is not None and keep_as not in self.kept:
            self.kept[keep_as] = (code, start, end, parent, tag)
        totals = layer_totals(code, start, end, parent, tag)
        self.ops.append(totals)
        for arr in (self.code, self.start, self.end, self.parent, self.tag):
            del arr[:]
        for seen in self.returned.values():
            seen.clear()
        return totals

    def write_spans(self, path: Path) -> None:
        """Write the kept spans: one array set per op, named by file."""
        arrays = {"names": np.array(NAMES)}
        for label, (code, start, end, parent, tag) in self.kept.items():
            origin = start[0] if start.size else 0.0
            arrays[f"{label}.name"] = code.astype(np.int8)
            arrays[f"{label}.start"] = start - origin
            arrays[f"{label}.end"] = end - origin
            arrays[f"{label}.parent"] = parent.astype(np.int32)
            arrays[f"{label}.tag"] = tag.astype(np.int8)
        np.savez_compressed(path, **arrays)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_totals(code, start, end, parent, tag) -> dict[str, float]:
    """Per-layer seconds and counts of one op, keyed by metric name."""
    self_s = self_times(start, end, parent)
    dur = end - start

    def pick(name: str, which=None) -> np.ndarray:
        mask = code == CODE[name]
        return mask if which is None else mask & (tag == which)

    out: dict[str, float] = {}
    for layer, name in (("matrix_norm", MATRIX_COMPUTE), ("effectiveness", EFFECTIVENESS)):
        for kind, which in (("ascent", ASCENT), ("exact", EXACT)):
            mask = pick(name, which)
            out[f"kernels.{layer}.{kind}_s"] = float(self_s[mask].sum())
            out[f"kernels.{layer}.{kind}_calls"] = float(mask.sum())
    for layer, name in (("matrix_norm", MATRIX_NORM), ("effectiveness", EFFECTIVENESS)):
        out[f"kernels.{layer}.calls"] = float(pick(name).sum())
        out[f"kernels.{layer}.hits"] = float(pick(name, HIT).sum())
    out["scenario.load_s"] = float(dur[pick(LOAD)].sum())
    out["boundedness.criterion_s"] = float(self_s[pick(CRITERION)].sum())
    out["boundedness.exact_norm_s"] = float(self_s[pick(EXACT_NORM)].sum())
    out["boundedness.oracle_s"] = float(dur[pick(ORACLE)].sum())
    phi = pick(PHI_VALUE) | pick(PHI_DERIVATIVE)
    out["boundedness.phi_s"] = float(self_s[phi].sum())
    phi_parent = np.zeros(code.size, dtype=bool)
    phi_parent[parent >= 0] = phi[parent[parent >= 0]]
    out["boundedness.phi_calls"] = float((phi & ~phi_parent).sum())
    out["mixedcomp.criterion_s"] = float(dur[pick(MIXED_CRITERION)].sum())
    out["mixedcomp.materialize_s"] = float(dur[pick(MATERIALIZE)].sum())
    out["cli.self_s"] = float(self_s[pick(OP)].sum())
    return out


def _targets(name: str, attr: str):
    """The original function and every (owner, attribute) bound to it."""
    original = getattr(sys.modules[name], attr)
    owners = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mixedop" or mod_name.startswith("mixedop."):
            for key, value in vars(mod).items():
                if value is original:
                    owners.append((mod, key))
    return original, owners


@contextlib.contextmanager
def install(recorder: Recorder):
    """Wrap every entry point for the duration of the block."""
    import mixedop  # noqa: F401  (loads every module the entry points live in)

    patches = []
    kernel_cls = sys.modules["mixedop.kernels"].OperatorKernel
    method = kernel_cls.__dict__["matrix_norm"]
    patches.append((kernel_cls, "matrix_norm", method, recorder.wrap(method, MATRIX_NORM, "cache")))
    for mod_name, attr, name, tagging in ENTRY_POINTS:
        original, owners = _targets(mod_name, attr)
        wrapped = recorder.wrap(original, name, tagging)
        patches.extend((owner, key, original, wrapped) for owner, key in owners)
    try:
        for owner, key, _, wrapped in patches:
            setattr(owner, key, wrapped)
        yield recorder
    finally:
        for owner, key, original, _ in patches:
            setattr(owner, key, original)
