"""Scenario files: the JSON schema (schema_version 1) and its loader.

A scenario names measure spaces, relations, fiber families, kernels,
mappings, densities, an optional mixed-composition block, and a list
of checks.  Numbers are JSON decimals or the string "inf".  Kernels
may be given explicitly or through seeded generators, so goldens stay
human-writable.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import MixedOpError, ScenarioError
from .fibers import FiberFamily, NormSpec, check_exponent
from .kernels import OperatorKernel
from .measure import AtomMap, DensityFn, FiniteMeasureSpace, WeightedRelation
from .mixedcomp import MixedDomain, SplitMapping
from .rng import GENERATOR_TAG, substream

CHECK_KINDS = ("criterion", "exact_norm", "sandwich", "phi_audit", "mixedcomp", "change_of_vars")


def parse_number(value: Any, where: str) -> float:
    """A JSON decimal, or the string "inf" for the infinite exponent."""
    if isinstance(value, str):
        if value.strip().lower() == "inf":
            return math.inf
        raise ScenarioError(f"{where}: expected a number or 'inf', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:  # NaN
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{where}: integer too large for a float") from None
    if math.isinf(number):  # a decimal beyond the float range, such as 1e400, that json reads as inf
        raise ScenarioError(f"{where}: number too large for a float")
    return number


def _expect_count(value: Any, minimum: int, where: str) -> int:
    """A JSON integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{where}: expected an integer >= {minimum}, got {value!r}")
    return value


_EXPECTED = {dict: "an object", list: "a list", str: "a name string"}


def _expect(value: Any, kind: type, where: str, *index):
    """``value`` if it is a JSON object, list or string (a name: an atom
    id or a reference), as ``kind`` says.  The path is ``where`` extended
    by the list indices and object keys of ``index``, joined only on
    failure.  The whole-section passes call it only to name a failure."""
    if not isinstance(value, kind):
        path = where + "".join(f"[{i}]" if isinstance(i, int) else f".{i}" for i in index)
        got = f", got {value!r}" if kind is str else ""
        raise ScenarioError(f"{path}: expected {_EXPECTED[kind]}{got}")
    return value


def _ref(cfg: dict, key: str, registry: dict, what: str, where: str):
    """The block of ``registry`` that ``cfg[key]`` names."""
    name = cfg.get(key)
    if name is not None:
        _expect(name, str, where, key)
    if name not in registry:
        raise ScenarioError(f"{where}: unknown {what} {name!r}")
    return registry[name]


def resolve(cfg: dict, key: str, registry: dict, where: str, optional: bool = False):
    """The block of ``registry`` that ``cfg[key]`` names; with no name, the
    only block of its kind, or None if ``optional`` and there is none."""
    if cfg.get(key) is not None:
        return _ref(cfg, key, registry, key, where)
    if len(registry) == 1:
        return next(iter(registry.values()))
    if registry:
        raise ScenarioError(f"{where}: check needs an explicit {key} reference ({len(registry)} defined)")
    if optional:
        return None
    raise ScenarioError(f"{where}: the scenario defines no {key}")


def _blocks(data: dict, section: str) -> Iterator[tuple[str, dict, str]]:
    """(name, cfg, where) for every block of a top-level section, taken out
    of ``data`` so that its JSON is freed once its blocks are built."""
    for name, cfg in _expect(data.pop(section, {}), dict, section).items():
        where = f"{section}.{name}"
        yield name, _expect(cfg, dict, where), where


class _at:
    """``with _at(where):`` reports a library error raised in the body
    as a ScenarioError prefixed with ``where``; a ScenarioError already
    names its own path and passes unchanged.  A class, not a generator
    context manager, because the loader enters one per fiber atom."""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, (MixedOpError, ValueError)) and not isinstance(error, ScenarioError):
            raise ScenarioError(f"{self.where}: {error}") from error


@dataclass
class Check:
    """One requested computation with its exponent tuples, and the blocks
    it reads: the kernel of a criterion, exact_norm, sandwich or phi_audit
    check; the mapping and density of a change_of_vars check (no density:
    a seeded random one); the split mapping of a mixedcomp check."""

    kind: str
    exponents: list[tuple[float, ...]]
    seed: int = 0
    samples: int = 1000
    partitions: int = 20
    kernel: OperatorKernel | None = None
    mapping: AtomMap | SplitMapping | None = None
    density: DensityFn | None = None


@dataclass
class Scenario:
    """A fully resolved scenario: every cross-reference checked."""

    id: str
    spaces: dict[str, FiniteMeasureSpace] = field(default_factory=dict)
    relations: dict[str, WeightedRelation] = field(default_factory=dict)
    families: dict[str, FiberFamily] = field(default_factory=dict)
    kernels: dict[str, OperatorKernel] = field(default_factory=dict)
    mappings: dict[str, AtomMap] = field(default_factory=dict)
    densities: dict[str, DensityFn] = field(default_factory=dict)
    mixed: SplitMapping | None = None
    checks: list[Check] = field(default_factory=list)


def _load_spaces(data: dict) -> dict[str, FiniteMeasureSpace]:
    out = {}
    for name, atoms, where in _blocks(data, "spaces"):
        with _at(where):
            out[name] = FiniteMeasureSpace(
                {a: parse_number(w, f"{where}.{a}") for a, w in atoms.items()}
            )
    return out


def _finite_numbers(values: list) -> bool:
    """Whether ``parse_number`` takes every entry of ``values`` as the
    float that ``np.array`` makes of it: ints and floats, all finite."""
    try:
        return set(map(type, values)) <= {int, float} and bool(np.isfinite(np.array(values, dtype=float)).all())
    except OverflowError:
        return False


def _entries(cfg: dict, key: str, where: str, form: str, third: type) -> list:
    """The [s, t, x] entries of ``cfg[key]``, x a number (``third`` float) or a list, their JSON
    types tested in one pass over the whole list.  When a test fails, one walk names the first
    bad entry in input order with the per-entry messages, and returns the entries read."""
    path = f"{where}.{key}"
    entries = _expect(cfg.get(key, []), list, path)
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        s, t, x = list(zip(*entries)) or ((), (), ())
        if set(map(type, s + t)) <= {str} and (_finite_numbers(x) if third is float else set(map(type, x)) <= {list}):
            return entries
    out = []
    for j, entry in enumerate(entries):
        entry = _expect(entry, list, f"{path} entry")
        if len(entry) != 3:
            raise ScenarioError(f"{where}: {form}")
        s, t, x = _expect(entry[0], str, path, j, 0), _expect(entry[1], str, path, j, 1), entry[2]
        out.append((s, t, parse_number(x, path) if third is float else _expect(x, list, path, j, 2)))
    return out


def _load_relations(data: dict, spaces: dict) -> dict[str, WeightedRelation]:
    out = {}
    for name, cfg, where in _blocks(data, "relations"):
        with _at(where):
            source = _ref(cfg, "source", spaces, "space", where)
            target = _ref(cfg, "target", spaces, "space", where)
            pairs = _entries(cfg, "pairs", where, "pair entries are [s, t, weight]", float)
            out[name] = WeightedRelation(source, target, pairs)
    return out


def _load_families(data: dict, spaces: dict) -> dict[str, FiberFamily]:
    out = {}
    for name, cfg, where in _blocks(data, "families"):
        with _at(where):
            base = _ref(cfg, "base", spaces, "base space", where)
            specs = _expect(cfg.get("fibers", {}), dict, where, "fibers")

            def read(atom, spec):
                at = f"{where}.fibers.{atom}"
                spec = _expect(spec, dict, at)
                r = parse_number(spec.get("r", 2), f"{at}.r")
                return r, [parse_number(x, f"{at}.weights") for x in _expect(spec.get("weights", [1.0]), list, at, "weights")]

            # every r and weight list in one type pass; if it fails, the fibers are
            # read in turn, lazily, so that an earlier fiber's NormSpec error comes first
            fast = set(map(type, specs.values())) <= {dict}
            if fast:
                rs = list(map(dict.get, specs.values(), repeat("r"), repeat(2)))
                ws = list(map(dict.get, specs.values(), repeat("weights"), repeat([1.0])))
                fast = _finite_numbers(rs) and set(map(type, ws)) <= {list} and _finite_numbers(list(chain(*ws)))
            fibers = {}
            for atom, (r, weights) in zip(specs, zip(rs, ws) if fast else map(read, specs, specs.values())):
                with _at(f"{where}.fibers.{atom}"):
                    fibers[atom] = NormSpec(r, weights)
            out[name] = FiberFamily(base, fibers)
    return out


def _kernel_matrices(
    cfg: dict, relation: WeightedRelation, dom: FiberFamily, codom: FiberFamily, where: str
) -> dict:
    if "matrices" in cfg:
        entries = _entries(cfg, "matrices", where, "matrix entries are [s, t, rows]", list)
        mats = {(s, t): rows for s, t, rows in entries}  # checked and converted by OperatorKernel
        if len(mats) < len(entries):  # a pair given twice: name its later entry
            seen = set()
            for j, (s, t, _) in enumerate(entries):
                if (s, t) in seen:
                    raise ScenarioError(f"{where}.matrices[{j}]: duplicate matrix for pair {(s, t)!r}")
                seen.add((s, t))
        return mats
    at = f"{where}.generator"
    gen = _expect(cfg.get("generator", {}), dict, at)
    kind = gen.get("kind")
    # the kind and its parameters are checked once, before any pair
    if kind == "scalar":
        value = parse_number(gen.get("value", 1.0), f"{at}.value")
    elif kind == "diagonal":
        diag = [parse_number(v, f"{at}.diag") for v in _expect(gen.get("diag", []), list, f"{at}.diag")]
    elif kind == "random":
        seed = _expect_count(gen.get("seed", 0), 0, f"{at}.seed")
        scale = parse_number(gen.get("scale", 1.0), f"{at}.scale")
    elif kind != "identity":
        raise ScenarioError(f"{where}: unknown kernel generator {kind!r}")
    mats = {}
    for i, (s, t) in enumerate(relation.pairs):
        shape = (codom.dim(s), dom.dim(t))
        if kind == "random":
            mats[(s, t)] = scale * substream(seed, GENERATOR_TAG, i).standard_normal(shape)
        elif kind == "diagonal":
            if shape[0] != shape[1] or len(diag) != shape[0]:
                raise ScenarioError(f"{where}: diagonal generator needs square fibers matching the diag length")
            mats[(s, t)] = np.diag(diag)
        elif shape[0] != shape[1]:
            raise ScenarioError(f"{where}: {kind} generator needs square fibers at ({s}, {t})")
        else:
            mats[(s, t)] = np.eye(shape[0]) if kind == "identity" else value * np.eye(shape[0])
    return mats


def _load_kernels(data: dict, relations: dict, families: dict) -> dict[str, OperatorKernel]:
    out = {}
    for name, cfg, where in _blocks(data, "kernels"):
        with _at(where):
            relation = _ref(cfg, "relation", relations, "relation", where)
            dom = _ref(cfg, "domain", families, "family", where)
            codom = _ref(cfg, "codomain", families, "family", where)
            out[name] = OperatorKernel(relation, dom, codom, _kernel_matrices(cfg, relation, dom, codom, where))
    return out


def _load_mappings(data: dict, spaces: dict) -> dict[str, AtomMap]:
    out = {}
    for name, cfg, where in _blocks(data, "mappings"):
        with _at(where):
            source = _ref(cfg, "source", spaces, "space", where)
            target = _ref(cfg, "target", spaces, "space", where)
            table = _expect(cfg.get("table", {}), dict, where, "table")
            for s, t in table.items():
                _expect(t, str, where, "table", s)
            out[name] = AtomMap(source, target, table)
    return out


def _load_densities(data: dict, spaces: dict) -> dict[str, DensityFn]:
    out = {}
    for name, cfg, where in _blocks(data, "densities"):
        with _at(where):
            space = _ref(cfg, "space", spaces, "space", where)
            values = _expect(cfg.get("values", {}), dict, where, "values")
            density = DensityFn(
                {a: parse_number(v, f"{where}.values.{a}") for a, v in values.items()}
            )
            for atom in values:
                if atom not in space:
                    raise ScenarioError(f"{where}: values name unknown atom {atom!r}")
            for atom in space.ids:
                if atom not in density:
                    raise ScenarioError(f"{where}: missing value for atom {atom!r}")
            out[name] = density
    return out


def _load_mixed(data: dict, spaces: dict) -> SplitMapping | None:
    cfg = data.pop("mixed_composition", None)
    if cfg is None:
        return None
    where = "mixed_composition"
    cfg = _expect(cfg, dict, where)

    def load_domain(sub: str) -> MixedDomain:
        at = f"{where}.{sub}"
        with _at(at):
            block = _expect(cfg.get(sub, {}), dict, at)
            outer = _ref(block, "outer", spaces, "space", at)
            inner = _ref(block, "inner", spaces, "space", at)
            cells = []
            for j, cell in enumerate(_expect(block.get("cells", []), list, at, "cells")):
                cell = _expect(cell, list, f"{at}.cells entry")
                cells.append(tuple(_expect(x, str, at, "cells", j, i) for i, x in enumerate(cell)))
            return MixedDomain(outer, inner, cells)

    domain = load_domain("domain")
    codomain = load_domain("codomain")
    with _at(where):
        psi = _expect(cfg.get("psi", {}), dict, where, "psi")
        for s, t in psi.items():
            _expect(t, str, where, "psi", s)
        u = {}
        for s, table in _expect(cfg.get("u", {}), dict, where, "u").items():
            u[s] = _expect(table, dict, where, "u", s)
            for x, y in u[s].items():
                _expect(y, str, where, "u", s, x)
        return SplitMapping(domain, codomain, psi, u)


def _load_checks(data: dict, kernels: dict, mappings: dict, densities: dict, mixed: SplitMapping | None) -> list[Check]:
    out = []
    for i, cfg in enumerate(_expect(data.pop("checks", []), list, "checks")):
        where = f"checks[{i}]"
        cfg = _expect(cfg, dict, where)
        kind = cfg.get("kind")
        if kind not in CHECK_KINDS:
            raise ScenarioError(f"{where}: unknown kind {kind!r} (one of {CHECK_KINDS})")
        if kind == "mixedcomp" and mixed is None:
            raise ScenarioError(f"{where}: a mixedcomp check needs a mixed_composition block")
        for key in ("kernel", "mapping", "density"):  # a name is a string, even one its kind ignores
            if cfg.get(key) is not None:
                _expect(cfg[key], str, where, key)
        check = Check(kind, [])
        if kind == "mixedcomp":
            check.mapping = mixed
        elif kind == "change_of_vars":
            check.mapping = resolve(cfg, "mapping", mappings, where)
            check.density = resolve(cfg, "density", densities, where, optional=True)
            if check.density is not None and set(check.density.keys()) != set(check.mapping.target.ids):
                raise ScenarioError(f"{where}: the density must live on the mapping's target space")
        else:
            check.kernel = resolve(cfg, "kernel", kernels, where)
        size, shape = (4, "[p, q, alpha, beta]") if kind == "mixedcomp" else (2, "[p, q]")
        for j, entry in enumerate(_expect(cfg.get("exponents", []), list, f"{where}.exponents")):
            entry = _expect(entry, list, f"{where}.exponents[{j}]")
            if len(entry) != size:
                raise ScenarioError(f"{where}.exponents[{j}]: a {kind} check takes {shape}")
            with _at(f"{where}.exponents[{j}]"):
                check.exponents.append(tuple(check_exponent(parse_number(x, f"{where}.exponents[{j}]")) for x in entry))
        check.seed = _expect_count(cfg.get("seed", Check.seed), 0, f"{where}.seed")
        check.samples = _expect_count(cfg.get("samples", Check.samples), 1, f"{where}.samples")
        check.partitions = _expect_count(cfg.get("partitions", Check.partitions), 1, f"{where}.partitions")
        out.append(check)
    return out


def load_scenario(path) -> Scenario:
    """Parse and resolve a scenario file; raises ScenarioError on any defect.

    Runs with the cyclic garbage collector paused, restored on every exit:
    the decoded JSON tree is large and holds no reference cycles, so each
    collection during the load would walk all of it and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(path)
    finally:
        if enabled:
            gc.enable()


def _load(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path}: not UTF-8 text ({e})") from e
    try:
        data = json.loads(text)
    except RecursionError as e:
        raise ScenarioError(f"{path}: invalid JSON (nested too deeply)") from e
    except ValueError as e:  # a syntax error, or an integer literal beyond the digit limit
        raise ScenarioError(f"{path}: invalid JSON ({e})") from e
    del text  # decoded: only the tree is held, and each stage below takes its section out of it
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    version = data.get("schema_version")
    if type(version) is not int or version != 1:  # not true or 1.0, which equal 1 in Python
        raise ScenarioError(f"{path}: schema_version must be 1")
    sid = data.get("id")
    if not isinstance(sid, str) or not sid:
        raise ScenarioError(f"{path}: nonempty string 'id' required")
    spaces = _load_spaces(data)
    relations = _load_relations(data, spaces)
    families = _load_families(data, spaces)
    kernels = _load_kernels(data, relations, families)
    mappings = _load_mappings(data, spaces)
    densities = _load_densities(data, spaces)
    mixed = _load_mixed(data, spaces)
    checks = _load_checks(data, kernels, mappings, densities, mixed)
    return Scenario(sid, spaces, relations, families, kernels, mappings, densities, mixed, checks)
