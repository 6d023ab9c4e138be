"""Seeded scenario files for the benchmark workloads.

Inputs are drawn with numpy's ``Generator`` directly, never through
``mixedop.generators``, so a change to the program cannot change what
the benchmark feeds it.  The same ``(workload, seed)`` always gives
byte-identical files: every draw comes from a ``SeedSequence`` keyed by
``(seed, workload tag, file index)`` and JSON floats are written with
``repr``.

Instance sizes are fixed per workload; the seed only changes values
(weights, exponents, dimensions, matrices, maps), so run-to-run cost
stays comparable across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (p, q) tuples per workload; see BENCHMARK.json for the rationale
ASCENT_EXPONENTS = [[3, 2], [4, 3]]
ASCENT_SIZES = (50, 200, 500)
ASCENT_R = (1.5, 3.0, 4.0)
WIDE_ATOMS = 2000
WIDE_EXPONENTS = [[3, 2], [2, 2]]
MIXED_OUTER = 200
MIXED_INNER = 8
AUDIT_ATOMS = 1000
AUDIT_EXPONENTS = [[3, 2], [4, 2]]
PAIRS_PER_TARGET = 10
ORACLE_SAMPLES = 1000

WORKLOAD_TAGS = {"ascent_sandwich": 1, "closed_form_wide": 2, "phi_audit": 3}


@dataclass(frozen=True)
class ScenarioFile:
    """One generated input and what a correct run on it looks like."""

    path: Path
    verb: str  # "run" or "phi-audit"
    atom_tuples: int  # sum over checks of (target atoms x exponent tuples)
    rows: tuple[tuple[str, tuple[float, ...]], ...]  # (check, exponents) per CSV row
    closed_form: bool  # every norm has a closed-form branch, so must be exact
    audit_seed: int = 0  # base --seed of the phi-audit verb


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_TAGS[workload], index]))


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _space(rng: np.random.Generator, ids: list[str]) -> dict:
    return dict(zip(ids, rng.uniform(0.5, 2.0, len(ids)).tolist()))


def _balanced(rng: np.random.Generator, values, n: int) -> list:
    """``n`` draws from ``values`` in equal shares, shuffled.

    Equal shares keep the mix of fiber shapes, and so the amount of
    work, the same for every seed.
    """
    return [values[i] for i in rng.permutation(np.resize(np.arange(len(values)), n)).tolist()]


def _family(rng: np.random.Generator, base: str, ids: list[str], rs, max_dim: int) -> tuple[dict, dict]:
    """A fiber family with exponents from ``rs`` and dims 1..max_dim."""
    dims = _balanced(rng, list(range(1, max_dim + 1)), len(ids))
    r_pick = _balanced(rng, list(range(len(rs))), len(ids))
    fibers = {
        a: {"r": rs[k], "weights": rng.uniform(0.5, 2.0, d).tolist()}
        for a, d, k in zip(ids, dims, r_pick)
    }
    return {"base": base, "fibers": fibers}, dict(zip(ids, dims))


def _kernel_block(rng: np.random.Generator, s_ids: list[str], t_ids: list[str], rs, max_dim: int) -> dict:
    """Spaces S, T; families W over T, V over S; a relation with
    PAIRS_PER_TARGET sources per target atom; dense Gaussian matrices."""
    k = min(PAIRS_PER_TARGET, len(s_ids))
    W, w_dim = _family(rng, "T", t_ids, rs, max_dim)
    V, v_dim = _family(rng, "S", s_ids, rs, max_dim)
    pairs, matrices = [], []
    for t in t_ids:
        sources = sorted(rng.choice(len(s_ids), size=k, replace=False).tolist())
        lams = rng.uniform(0.5, 2.0, k).tolist()
        for j, lam in zip(sources, lams):
            s = s_ids[j]
            pairs.append([s, t, lam])
            matrices.append([s, t, rng.standard_normal((v_dim[s], w_dim[t])).tolist()])
    return {
        "spaces": {"S": _space(rng, s_ids), "T": _space(rng, t_ids)},
        "relations": {"lam": {"source": "S", "target": "T", "pairs": pairs}},
        "families": {"W": W, "V": V},
        "kernels": {"P": {"relation": "lam", "domain": "W", "codomain": "V", "matrices": matrices}},
    }


def _mixed_block(rng: np.random.Generator) -> tuple[dict, dict]:
    """Spaces and a split mapping phi(s, x) = (psi(s), u_s(x)) with
    injective psi and slices of 1-4 inner atoms."""
    ms, mt = _ids("ms", MIXED_OUTER), _ids("mt", MIXED_OUTER)
    xs, ys = _ids("x", MIXED_INNER), _ids("y", MIXED_INNER)
    spaces = {"MS": _space(rng, ms), "MT": _space(rng, mt), "X": _space(rng, xs), "Y": _space(rng, ys)}

    def cells(outer: list[str], inner: list[str]) -> dict[str, list[str]]:
        sizes = rng.integers(1, 5, len(outer)).tolist()
        return {
            o: [inner[i] for i in sorted(rng.choice(len(inner), size=n, replace=False).tolist())]
            for o, n in zip(outer, sizes)
        }

    dom, cod = cells(ms, xs), cells(mt, ys)
    perm = rng.permutation(len(mt)).tolist()
    psi = {s: mt[j] for s, j in zip(ms, perm)}
    u = {s: {x: cod[psi[s]][int(rng.integers(len(cod[psi[s]])))] for x in dom[s]} for s in ms}
    block = {
        "domain": {"outer": "MS", "inner": "X", "cells": [[s, x] for s in ms for x in dom[s]]},
        "codomain": {"outer": "MT", "inner": "Y", "cells": [[t, y] for t in mt for y in cod[t]]},
        "psi": psi,
        "u": u,
    }
    return spaces, block


def _ascent_scenario(seed: int, index: int) -> dict:
    rng = _rng("ascent_sandwich", seed, index)
    n = ASCENT_SIZES[index]
    sc = _kernel_block(rng, _ids("s", n), _ids("t", n), list(ASCENT_R), 4)
    sc["checks"] = [
        {
            "kind": "sandwich",
            "exponents": ASCENT_EXPONENTS,
            "seed": int(rng.integers(2**31)),
            "samples": ORACLE_SAMPLES,
        }
    ]
    return sc


def _wide_scenario(seed: int) -> dict:
    rng = _rng("closed_form_wide", seed, 0)
    s_ids, t_ids = _ids("s", WIDE_ATOMS), _ids("t", WIDE_ATOMS)
    sc = _kernel_block(rng, s_ids, t_ids, [2], 4)
    mixed_spaces, mixed = _mixed_block(rng)
    sc["spaces"].update(mixed_spaces)
    sc["mixed_composition"] = mixed
    images = rng.integers(0, WIDE_ATOMS, WIDE_ATOMS).tolist()
    sc["mappings"] = {
        "psi": {"source": "S", "target": "T", "table": {s: t_ids[j] for s, j in zip(s_ids, images)}}
    }
    density = dict(zip(t_ids, rng.uniform(0.5, 2.0, WIDE_ATOMS).tolist()))
    sc["densities"] = {"f": {"space": "T", "values": density}}
    sc["checks"] = [
        {
            "kind": "sandwich",
            "exponents": WIDE_EXPONENTS,
            "seed": int(rng.integers(2**31)),
            "samples": ORACLE_SAMPLES,
        },
        {"kind": "mixedcomp", "exponents": [[3, 2, 2, 2]]},
        {"kind": "change_of_vars", "exponents": [[2, 2]], "mapping": "psi", "density": "f"},
    ]
    return sc


def _audit_scenario(seed: int) -> tuple[dict, int]:
    rng = _rng("phi_audit", seed, 0)
    sc = _kernel_block(rng, _ids("s", AUDIT_ATOMS), _ids("t", AUDIT_ATOMS), [2], 4)
    sc["checks"] = [{"kind": "exact_norm", "exponents": AUDIT_EXPONENTS}]
    return sc, int(rng.integers(2**31))


def _target_atoms(sc: dict, check: dict) -> int:
    """Atoms of T the check works over: the kernel's target for norm
    checks, the codomain outer space for mixedcomp, the map's target
    for change_of_vars."""
    if check["kind"] == "mixedcomp":
        return len(sc["spaces"][sc["mixed_composition"]["codomain"]["outer"]])
    if check["kind"] == "change_of_vars":
        return len(sc["spaces"][sc["mappings"][check["mapping"]]["target"]])
    return len(sc["spaces"]["T"])


def _write(path: Path, scenario_id: str, sc: dict, verb: str, closed_form: bool, audit_seed: int = 0) -> ScenarioFile:
    doc = {"schema_version": 1, "id": scenario_id}
    doc.update(sc)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    if verb == "phi-audit":
        pairs = list(dict.fromkeys(tuple(float(x) for x in e[:2]) for c in sc["checks"] for e in c["exponents"]))
        rows = tuple(("phi_audit", pq) for pq in pairs)
        work = len(sc["spaces"]["T"]) * len(pairs)
    else:
        rows = tuple(
            (c["kind"], tuple(float(x) for x in e)) for c in sc["checks"] for e in c["exponents"]
        )
        work = sum(_target_atoms(sc, c) * len(c["exponents"]) for c in sc["checks"])
    return ScenarioFile(path, verb, work, rows, closed_form, audit_seed)


def generate(workload: str, seed: int, out_dir: Path) -> list[ScenarioFile]:
    """Write the scenario files of one workload into ``out_dir``.

    Returns them in the order the benchmark cycles through them.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "ascent_sandwich":
        return [
            _write(out_dir / f"ascent_{n}.json", f"ascent_{n}_seed{seed}", _ascent_scenario(seed, i), "run", False)
            for i, n in enumerate(ASCENT_SIZES)
        ]
    if workload == "closed_form_wide":
        return [_write(out_dir / "wide.json", f"wide_seed{seed}", _wide_scenario(seed), "run", True)]
    if workload == "phi_audit":
        sc, audit_seed = _audit_scenario(seed)
        return [_write(out_dir / "audit.json", f"audit_seed{seed}", sc, "phi-audit", True, audit_seed)]
    raise ValueError(f"unknown workload {workload!r}")
