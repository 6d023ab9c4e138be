"""Seeded builders for spaces, relations, families, kernels, and split
mappings.

Used by the demos and the verification suite, and for the default
density of a change-of-variables check and the audit's partitions.
Every function is deterministic in its seed via counter-based substreams.
"""

from __future__ import annotations

import numpy as np

from .fibers import INF, FiberFamily, NormSpec, scalar_family
from .kernels import OperatorKernel
from .measure import AtomMap, DensityFn, FiniteMeasureSpace, WeightedRelation, graph_relation
from .mixedcomp import MixedDomain, SplitMapping
from .rng import GENERATOR_TAG, substream

DEFAULT_EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)


def _stream(seed: int, *path: int) -> np.random.Generator:
    return substream(seed, GENERATOR_TAG, *path)


def random_measure_space(prefix: str, n: int, seed: int) -> FiniteMeasureSpace:
    g = _stream(seed, 0)
    return FiniteMeasureSpace(
        {f"{prefix}{i:03d}": float(w) for i, w in enumerate(g.uniform(0.5, 2.0, n))}
    )


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


def random_density(space: FiniteMeasureSpace, seed: int) -> DensityFn:
    g = _stream(seed, 6)
    return DensityFn({i: float(w) for i, w in zip(space.ids, g.uniform(0.1, 3.0, len(space)))})


def random_atom_map(S: FiniteMeasureSpace, T: FiniteMeasureSpace, seed: int) -> AtomMap:
    g = _stream(seed, 7)
    return AtomMap(S, T, {s: T.ids[int(g.integers(len(T.ids)))] for s in S.ids})


def random_injective_atom_map(
    S: FiniteMeasureSpace, T: FiniteMeasureSpace, seed: int
) -> AtomMap:
    if len(S) > len(T):
        raise ValueError("injective map needs |S| <= |T|")
    g = _stream(seed, 8)
    images = [T.ids[k] for k in g.permutation(len(T.ids))[: len(S.ids)]]
    return AtomMap(S, T, dict(zip(S.ids, images)))


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


def random_partition_labels(n: int, seed: int) -> np.ndarray:
    """The block label of each of n items under ``random_partition``."""
    g = _stream(seed, 11)
    k = int(g.integers(1, 5))
    return g.integers(k, size=n)


def random_partition(ids, seed: int) -> list[list[str]]:
    """Disjoint blocks covering all ids (empty blocks dropped), in label
    order, each block in the order of ``ids``."""
    ids = list(ids)
    labels = random_partition_labels(len(ids), seed)
    return [[ids[i] for i in np.flatnonzero(labels == b)] for b in np.flatnonzero(np.bincount(labels))]


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


def scalar17_instance() -> OperatorKernel:
    """Two scalar target atoms, one source atom, kernel values 1 and 2.

    With p = 4, q = 2 (kappa = 4) the operator norm is 17^(1/4) and the
    criterion agrees; with p = q = 2 both equal 2.
    """
    T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
    S = FiniteMeasureSpace({"s1": 1.0})
    rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s1", "t2", 1.0)])
    W = scalar_family(T)
    V = scalar_family(S)
    return OperatorKernel(rel, W, V, {("s1", "t1"): [[1.0]], ("s1", "t2"): [[2.0]]})


def projection_gap_instance() -> OperatorKernel:
    """One 2-d target fiber fed into two orthogonal projections.

    The fiber effectiveness is 1 (no direction is stretched by both
    projections at once) while the pointwise-norm aggregate is sqrt(2):
    the canonical exhibit of the sup/integral interchange gap.
    """
    T = FiniteMeasureSpace({"t1": 1.0})
    S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
    rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t1", 1.0)])
    W = FiberFamily(T, {"t1": NormSpec(2, [1.0, 1.0])})
    V = FiberFamily(S, {s: NormSpec(2, [1.0, 1.0]) for s in S.ids})
    mats = {
        ("s1", "t1"): [[1.0, 0.0], [0.0, 0.0]],
        ("s2", "t1"): [[0.0, 0.0], [0.0, 1.0]],
    }
    return OperatorKernel(rel, W, V, mats)


def random_split_mapping(
    seed: int,
    max_outer: int = 4,
    max_slice: int = 4,
) -> SplitMapping:
    """A random split mapping with injective psi and slice sizes <= max_slice."""
    g = _stream(seed, 15)
    nt = int(g.integers(1, max_outer + 1))
    ns = int(g.integers(1, nt + 1))
    T = random_measure_space("t", nt, seed + 1)
    S = random_measure_space("s", ns, seed + 2)
    Y = random_measure_space("y", max_slice * nt, seed + 3)
    X = random_measure_space("x", max_slice * ns, seed + 4)
    cod_cells = []
    for i, t in enumerate(T.ids):
        size = int(g.integers(1, max_slice + 1))
        picks = g.choice(len(Y.ids), size=size, replace=False)
        cod_cells.extend((t, Y.ids[int(k)]) for k in picks)
    codomain = MixedDomain(T, Y, cod_cells)
    psi = random_injective_atom_map(S, T, seed + 5)
    dom_cells = []
    u: dict[str, dict[str, str]] = {}
    for i, s in enumerate(S.ids):
        size = int(g.integers(1, max_slice + 1))
        picks = g.choice(len(X.ids), size=size, replace=False)
        xs = [X.ids[int(k)] for k in picks]
        dom_cells.extend((s, x) for x in xs)
        target = codomain.slice(psi(s))
        u[s] = {x: target[int(g.integers(len(target)))] for x in xs}
    domain = MixedDomain(S, X, dom_cells)
    return SplitMapping(domain, codomain, psi.table, u)
