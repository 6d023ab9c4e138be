"""Seeded builders of relations, fiber families, kernels, maps and whole
instances for the tests, the all-scalar fiber family, the bundled
scenarios' kernels, and rescaled copies of a kernel or a measure space.

Every draw goes through ``rng.substream(seed, GENERATOR_TAG, *path)``
as in ``mixedop.generators``, on paths that module does not use, so each
seed gives the same instance wherever it is built.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mixedop import (
    INF,
    AtomMap,
    FiberFamily,
    FiniteMeasureSpace,
    NormSpec,
    OperatorKernel,
    WeightedRelation,
    graph_relation,
    load_scenario,
)
from mixedop.generators import random_injective_atom_map, random_measure_space
from mixedop.rng import GENERATOR_TAG, substream

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

DEFAULT_EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)


def scalar_family(base: FiniteMeasureSpace, r: float = 2.0) -> FiberFamily:
    """All-scalar fibers with unit weight; the classical Lebesgue case."""
    return FiberFamily(base, {i: NormSpec(r, [1.0]) for i in base.ids})


def _stream(seed: int, *path: int) -> np.random.Generator:
    return substream(seed, GENERATOR_TAG, *path)


def random_relation(
    S: FiniteMeasureSpace,
    T: FiniteMeasureSpace,
    seed: int,
    density: float = 0.3,
) -> WeightedRelation:
    """Bernoulli selection of pairs with uniform weights; never empty."""
    g = _stream(seed, 1)
    pairs = []
    for s in S.ids:
        for t in T.ids:
            if g.uniform() < density:
                pairs.append((s, t, float(g.uniform(0.5, 2.0))))
    if not pairs:
        pairs.append((S.ids[0], T.ids[0], float(g.uniform(0.5, 2.0))))
    return WeightedRelation(S, T, pairs)


def random_fiber_family(
    base: FiniteMeasureSpace,
    seed: int,
    max_dim: int = 3,
    exponents: tuple = DEFAULT_EXPONENTS,
) -> FiberFamily:
    fibers = {}
    for i, atom in enumerate(base.ids):
        g = _stream(seed, 3, i)
        dim = int(g.integers(1, max_dim + 1))
        r = exponents[int(g.integers(len(exponents)))]
        fibers[atom] = NormSpec(r, g.uniform(0.5, 2.0, dim))
    return FiberFamily(base, fibers)


def random_kernel(
    relation: WeightedRelation,
    domain_family: FiberFamily,
    codomain_family: FiberFamily,
    seed: int,
) -> OperatorKernel:
    mats = {}
    for i, (s, t) in enumerate(relation.pairs):
        g = _stream(seed, 4, i)
        mats[(s, t)] = g.standard_normal(
            (codomain_family.dim(s), domain_family.dim(t))
        )
    return OperatorKernel(relation, domain_family, codomain_family, mats)


def random_atom_map(S: FiniteMeasureSpace, T: FiniteMeasureSpace, seed: int) -> AtomMap:
    g = _stream(seed, 7)
    return AtomMap(S, T, {s: T.ids[int(g.integers(len(T.ids)))] for s in S.ids})


def random_noninjective_atom_map(
    S: FiniteMeasureSpace, T: FiniteMeasureSpace, seed: int
) -> AtomMap:
    if len(S) < 2:
        raise ValueError("a non-injective map needs at least two source atoms")
    g = _stream(seed, 9)
    table = {s: T.ids[int(g.integers(len(T.ids)))] for s in S.ids}
    ids = list(S.ids)
    i, j = g.choice(len(ids), size=2, replace=False)
    table[ids[int(i)]] = table[ids[int(j)]]
    return AtomMap(S, T, table)


def random_subset(ids, seed: int) -> list[str]:
    g = _stream(seed, 10)
    return [i for i in ids if g.uniform() < 0.5]


# ---------------------------------------------------------------------------
# whole instances
# ---------------------------------------------------------------------------

def random_scalar_instance(
    seed: int,
    max_atoms: int = 50,
    density: float | None = None,
    exponents: tuple = (1.0, 2.0, 3.0),
) -> OperatorKernel:
    """A seeded instance with all-scalar fibers (the exact regime)."""
    g = _stream(seed, 12)
    nt = int(g.integers(2, max_atoms + 1))
    ns = int(g.integers(2, max_atoms + 1))
    T = random_measure_space("t", nt, seed + 1)
    S = random_measure_space("s", ns, seed + 2)
    if density is None:
        density = min(1.0, 4.0 / ns)
    rel = random_relation(S, T, seed + 3, density=density)
    W = random_fiber_family(T, seed + 4, max_dim=1, exponents=exponents)
    V = random_fiber_family(S, seed + 5, max_dim=1, exponents=exponents)
    return random_kernel(rel, W, V, seed + 6)


def random_instance(
    seed: int,
    max_atoms: int = 8,
    max_dim: int = 4,
    density: float = 0.4,
    exponents: tuple = DEFAULT_EXPONENTS,
) -> OperatorKernel:
    """A seeded multi-dimensional instance."""
    g = _stream(seed, 13)
    nt = int(g.integers(2, max_atoms + 1))
    ns = int(g.integers(2, max_atoms + 1))
    T = random_measure_space("t", nt, seed + 1)
    S = random_measure_space("s", ns, seed + 2)
    rel = random_relation(S, T, seed + 3, density=density)
    W = random_fiber_family(T, seed + 4, max_dim=max_dim, exponents=exponents)
    V = random_fiber_family(S, seed + 5, max_dim=max_dim, exponents=exponents)
    return random_kernel(rel, W, V, seed + 6)


def random_graph_instance(
    seed: int,
    max_atoms: int = 20,
    max_dim: int = 3,
    injective: bool = True,
    exponents: tuple = DEFAULT_EXPONENTS,
) -> tuple[OperatorKernel, AtomMap]:
    """A kernel living on the graph of a random mapping, with the graph
    measure lambda = nu (so the marginal density is the volume
    derivative)."""
    g = _stream(seed, 14)
    nt = int(g.integers(2, max_atoms + 1))
    ns = int(g.integers(2, nt + 1)) if injective else int(g.integers(2, max_atoms + 1))
    T = random_measure_space("t", nt, seed + 1)
    S = random_measure_space("s", ns, seed + 2)
    psi = (
        random_injective_atom_map(S, T, seed + 3)
        if injective
        else random_noninjective_atom_map(S, T, seed + 3)
    )
    rel = graph_relation(psi)
    W = random_fiber_family(T, seed + 4, max_dim=max_dim, exponents=exponents)
    V = random_fiber_family(S, seed + 5, max_dim=max_dim, exponents=exponents)
    return random_kernel(rel, W, V, seed + 6), psi


def identity_instance(n: int = 4, dim: int = 1) -> tuple[OperatorKernel, AtomMap]:
    """Identity kernel over the identity map with matching unit data.

    The p = q criterion on it recovers the decomposable-operator
    condition with value exactly 1.
    """
    T = FiniteMeasureSpace({f"a{i:03d}": 1.0 for i in range(n)})
    S = FiniteMeasureSpace({f"a{i:03d}": 1.0 for i in range(n)})
    psi = AtomMap(S, T, {i: i for i in S.ids})
    rel = graph_relation(psi)
    W = FiberFamily(T, {i: NormSpec(2, np.ones(dim)) for i in T.ids})
    V = FiberFamily(S, {i: NormSpec(2, np.ones(dim)) for i in S.ids})
    mats = {(s, t): np.eye(dim) for (s, t) in rel.pairs}
    return OperatorKernel(rel, W, V, mats), psi


def bundled_kernel(name: str) -> OperatorKernel:
    """Kernel ``P`` of the bundled scenario ``scenarios/<name>.json``."""
    return load_scenario(SCENARIOS / f"{name}.json").kernels["P"]


def scaled(kernel: OperatorKernel, factor: float) -> OperatorKernel:
    """A new kernel with every matrix multiplied by ``factor``."""
    return OperatorKernel(
        kernel.relation,
        kernel.domain_family,
        kernel.codomain_family,
        {k: factor * kernel.matrix(*k) for k in kernel.pairs},
    )


def normalized(space: FiniteMeasureSpace) -> FiniteMeasureSpace:
    """Same atoms, weights rescaled to total mass 1."""
    z = space.total_mass
    if z == 0.0:
        raise ValueError("cannot normalize an empty measure")
    return FiniteMeasureSpace({i: w / z for i, w in space.items()})
