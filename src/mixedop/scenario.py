"""Scenario files: the JSON schema (schema_version 1) and its loader.

A scenario names measure spaces, relations, fiber families, kernels,
mappings, densities, an optional mixed-composition block, and a list
of checks.  Numbers are JSON decimals or the string "inf".  Kernels
may be given explicitly or through seeded generators, so goldens stay
human-writable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import MixedOpError, ScenarioError
from .fibers import FiberFamily, NormSpec
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _expect_count(value: Any, minimum: int, where: str) -> int:
    """A JSON integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{where}: expected an integer >= {minimum}, got {value!r}")
    return value


def _expect_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object")
    return value


def _expect_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list")
    return value


@dataclass
class Check:
    """One requested computation with its exponent tuples."""

    kind: str
    exponents: list[tuple[float, ...]]
    seed: int = 0
    samples: int = 1000
    partitions: int = 20
    kernel: str | None = None
    mapping: str | None = None
    density: str | None = None


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

    def _sole(self, registry: dict, what: str, name: str | None):
        if name is not None:
            if name not in registry:
                raise ScenarioError(f"check references unknown {what} {name!r}")
            return registry[name]
        if len(registry) == 1:
            return next(iter(registry.values()))
        raise ScenarioError(
            f"check needs an explicit {what} reference ({len(registry)} defined)"
        )

    def kernel_for(self, check: Check) -> OperatorKernel:
        return self._sole(self.kernels, "kernel", check.kernel)

    def mapping_for(self, check: Check) -> AtomMap:
        return self._sole(self.mappings, "mapping", check.mapping)

    def density_for(self, check: Check) -> DensityFn | None:
        if check.density is None and not self.densities:
            return None
        return self._sole(self.densities, "density", check.density)


def _load_spaces(data: dict) -> dict[str, FiniteMeasureSpace]:
    out = {}
    for name, atoms in _expect_mapping(data.get("spaces", {}), "spaces").items():
        atoms = _expect_mapping(atoms, f"spaces.{name}")
        try:
            out[name] = FiniteMeasureSpace(
                {a: parse_number(w, f"spaces.{name}.{a}") for a, w in atoms.items()}
            )
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"spaces.{name}: {e}") from e
    return out


def _load_relations(data: dict, spaces: dict) -> dict[str, WeightedRelation]:
    out = {}
    for name, cfg in _expect_mapping(data.get("relations", {}), "relations").items():
        cfg = _expect_mapping(cfg, f"relations.{name}")
        where = f"relations.{name}"
        for key in ("source", "target"):
            if cfg.get(key) not in spaces:
                raise ScenarioError(f"{where}: unknown space {cfg.get(key)!r}")
        pairs = []
        for entry in _expect_list(cfg.get("pairs", []), f"{where}.pairs"):
            entry = _expect_list(entry, f"{where}.pairs entry")
            if len(entry) != 3:
                raise ScenarioError(f"{where}: pair entries are [s, t, weight]")
            pairs.append((entry[0], entry[1], parse_number(entry[2], f"{where}.pairs")))
        try:
            out[name] = WeightedRelation(spaces[cfg["source"]], spaces[cfg["target"]], pairs)
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}: {e}") from e
    return out


def _load_families(data: dict, spaces: dict) -> dict[str, FiberFamily]:
    out = {}
    for name, cfg in _expect_mapping(data.get("families", {}), "families").items():
        cfg = _expect_mapping(cfg, f"families.{name}")
        where = f"families.{name}"
        if cfg.get("base") not in spaces:
            raise ScenarioError(f"{where}: unknown base space {cfg.get('base')!r}")
        fibers = {}
        for atom, spec in _expect_mapping(cfg.get("fibers", {}), f"{where}.fibers").items():
            spec = _expect_mapping(spec, f"{where}.fibers.{atom}")
            r = parse_number(spec.get("r", 2), f"{where}.fibers.{atom}.r")
            weights = [
                parse_number(w, f"{where}.fibers.{atom}.weights")
                for w in _expect_list(spec.get("weights", [1.0]), f"{where}.fibers.{atom}.weights")
            ]
            try:
                fibers[atom] = NormSpec(r, weights)
            except (MixedOpError, ValueError) as e:
                raise ScenarioError(f"{where}.fibers.{atom}: {e}") from e
        try:
            out[name] = FiberFamily(spaces[cfg["base"]], fibers)
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}: {e}") from e
    return out


def _kernel_matrices(
    cfg: dict, relation: WeightedRelation, dom: FiberFamily, codom: FiberFamily, where: str
) -> dict:
    if "matrices" in cfg:
        mats = {}
        for entry in _expect_list(cfg["matrices"], f"{where}.matrices"):
            entry = _expect_list(entry, f"{where}.matrices entry")
            if len(entry) != 3:
                raise ScenarioError(f"{where}: matrix entries are [s, t, rows]")
            s, t, rows = entry
            mats[(s, t)] = np.asarray(rows, dtype=float)
        return mats
    gen = _expect_mapping(cfg.get("generator", {}), f"{where}.generator")
    kind = gen.get("kind")
    mats = {}
    for i, (s, t) in enumerate(relation.pairs):
        shape = (codom.dim(s), dom.dim(t))
        if kind == "identity":
            if shape[0] != shape[1]:
                raise ScenarioError(f"{where}: identity generator needs square fibers at ({s}, {t})")
            mats[(s, t)] = np.eye(shape[0])
        elif kind == "scalar":
            if shape[0] != shape[1]:
                raise ScenarioError(f"{where}: scalar generator needs square fibers at ({s}, {t})")
            mats[(s, t)] = parse_number(gen.get("value", 1.0), f"{where}.generator.value") * np.eye(shape[0])
        elif kind == "diagonal":
            diag = [parse_number(v, f"{where}.generator.diag") for v in _expect_list(gen.get("diag", []), f"{where}.generator.diag")]
            if shape[0] != shape[1] or len(diag) != shape[0]:
                raise ScenarioError(f"{where}: diagonal generator needs square fibers matching the diag length")
            mats[(s, t)] = np.diag(diag)
        elif kind == "random":
            seed = _expect_count(gen.get("seed", 0), 0, f"{where}.generator.seed")
            scale = parse_number(gen.get("scale", 1.0), f"{where}.generator.scale")
            g = substream(seed, GENERATOR_TAG, i)
            mats[(s, t)] = scale * g.standard_normal(shape)
        else:
            raise ScenarioError(f"{where}: unknown kernel generator {kind!r}")
    return mats


def _load_kernels(data: dict, relations: dict, families: dict) -> dict[str, OperatorKernel]:
    out = {}
    for name, cfg in _expect_mapping(data.get("kernels", {}), "kernels").items():
        cfg = _expect_mapping(cfg, f"kernels.{name}")
        where = f"kernels.{name}"
        if cfg.get("relation") not in relations:
            raise ScenarioError(f"{where}: unknown relation {cfg.get('relation')!r}")
        for key in ("domain", "codomain"):
            if cfg.get(key) not in families:
                raise ScenarioError(f"{where}: unknown family {cfg.get(key)!r}")
        relation = relations[cfg["relation"]]
        dom = families[cfg["domain"]]
        codom = families[cfg["codomain"]]
        try:
            mats = _kernel_matrices(cfg, relation, dom, codom, where)
            out[name] = OperatorKernel(relation, dom, codom, mats)
        except ScenarioError:
            raise
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}: {e}") from e
    return out


def _load_mappings(data: dict, spaces: dict) -> dict[str, AtomMap]:
    out = {}
    for name, cfg in _expect_mapping(data.get("mappings", {}), "mappings").items():
        cfg = _expect_mapping(cfg, f"mappings.{name}")
        where = f"mappings.{name}"
        for key in ("source", "target"):
            if cfg.get(key) not in spaces:
                raise ScenarioError(f"{where}: unknown space {cfg.get(key)!r}")
        try:
            out[name] = AtomMap(
                spaces[cfg["source"]],
                spaces[cfg["target"]],
                _expect_mapping(cfg.get("table", {}), f"{where}.table"),
            )
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}: {e}") from e
    return out


def _load_densities(data: dict, spaces: dict) -> dict[str, DensityFn]:
    out = {}
    for name, cfg in _expect_mapping(data.get("densities", {}), "densities").items():
        cfg = _expect_mapping(cfg, f"densities.{name}")
        where = f"densities.{name}"
        if cfg.get("space") not in spaces:
            raise ScenarioError(f"{where}: unknown space {cfg.get('space')!r}")
        space = spaces[cfg["space"]]
        values = _expect_mapping(cfg.get("values", {}), f"{where}.values")
        try:
            out[name] = DensityFn(
                {a: parse_number(v, f"{where}.values.{a}") for a, v in values.items()}
            )
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}: {e}") from e
        for atom in space.ids:
            if atom not in out[name]:
                raise ScenarioError(f"{where}: missing value for atom {atom!r}")
    return out


def _load_mixed(data: dict, spaces: dict) -> SplitMapping | None:
    cfg = data.get("mixed_composition")
    if cfg is None:
        return None
    cfg = _expect_mapping(cfg, "mixed_composition")
    where = "mixed_composition"

    def load_domain(sub: str) -> MixedDomain:
        block = _expect_mapping(cfg.get(sub, {}), f"{where}.{sub}")
        for key in ("outer", "inner"):
            if block.get(key) not in spaces:
                raise ScenarioError(f"{where}.{sub}: unknown space {block.get(key)!r}")
        cells = [
            tuple(_expect_list(c, f"{where}.{sub}.cells entry"))
            for c in _expect_list(block.get("cells", []), f"{where}.{sub}.cells")
        ]
        try:
            return MixedDomain(spaces[block["outer"]], spaces[block["inner"]], cells)
        except (MixedOpError, ValueError) as e:
            raise ScenarioError(f"{where}.{sub}: {e}") from e

    domain = load_domain("domain")
    codomain = load_domain("codomain")
    try:
        return SplitMapping(
            domain,
            codomain,
            _expect_mapping(cfg.get("psi", {}), f"{where}.psi"),
            {
                s: _expect_mapping(m, f"{where}.u.{s}")
                for s, m in _expect_mapping(cfg.get("u", {}), f"{where}.u").items()
            },
        )
    except (MixedOpError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from e


def _load_checks(data: dict) -> list[Check]:
    out = []
    for i, cfg in enumerate(_expect_list(data.get("checks", []), "checks")):
        cfg = _expect_mapping(cfg, f"checks[{i}]")
        where = f"checks[{i}]"
        kind = cfg.get("kind")
        if kind not in CHECK_KINDS:
            raise ScenarioError(f"{where}: unknown kind {kind!r} (one of {CHECK_KINDS})")
        exponents = []
        for j, entry in enumerate(_expect_list(cfg.get("exponents", []), f"{where}.exponents")):
            entry = _expect_list(entry, f"{where}.exponents[{j}]")
            if len(entry) not in (2, 4):
                raise ScenarioError(f"{where}.exponents[{j}]: expected [p, q] or [p, q, alpha, beta]")
            exponents.append(tuple(parse_number(x, f"{where}.exponents[{j}]") for x in entry))
        out.append(
            Check(
                kind=kind,
                exponents=exponents,
                seed=_expect_count(cfg.get("seed", 0), 0, f"{where}.seed"),
                samples=_expect_count(cfg.get("samples", 1000), 1, f"{where}.samples"),
                partitions=_expect_count(cfg.get("partitions", 20), 1, f"{where}.partitions"),
                kernel=cfg.get("kernel"),
                mapping=cfg.get("mapping"),
                density=cfg.get("density"),
            )
        )
    return out


def load_scenario(path) -> Scenario:
    """Parse and resolve a scenario file; raises ScenarioError on any defect."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    if data.get("schema_version") != 1:
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
    checks = _load_checks(data)
    return Scenario(
        id=sid,
        spaces=spaces,
        relations=relations,
        families=families,
        kernels=kernels,
        mappings=mappings,
        densities=densities,
        mixed=mixed,
        checks=checks,
    )
