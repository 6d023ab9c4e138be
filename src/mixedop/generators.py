"""Seeded builders for spaces, densities, maps, partitions and split
mappings.

The command-line runner draws the default density of a
change-of-variables check and the audit's partitions here, and the
demos build their random instances here.  Every function is
deterministic in its seed via counter-based substreams.
"""

from __future__ import annotations

import numpy as np

from .measure import AtomMap, DensityFn, FiniteMeasureSpace
from .mixedcomp import MixedDomain, SplitMapping
from .rng import GENERATOR_TAG, substream


def _stream(seed: int, *path: int) -> np.random.Generator:
    return substream(seed, GENERATOR_TAG, *path)


def random_measure_space(prefix: str, n: int, seed: int) -> FiniteMeasureSpace:
    g = _stream(seed, 0)
    return FiniteMeasureSpace(
        {f"{prefix}{i:03d}": float(w) for i, w in enumerate(g.uniform(0.5, 2.0, n))}
    )


def random_density(space: FiniteMeasureSpace, seed: int) -> DensityFn:
    g = _stream(seed, 6)
    return DensityFn({i: float(w) for i, w in zip(space.ids, g.uniform(0.1, 3.0, len(space)))})


def random_injective_atom_map(
    S: FiniteMeasureSpace, T: FiniteMeasureSpace, seed: int
) -> AtomMap:
    if len(S) > len(T):
        raise ValueError("injective map needs |S| <= |T|")
    g = _stream(seed, 8)
    images = [T.ids[k] for k in g.permutation(len(T.ids))[: len(S.ids)]]
    return AtomMap(S, T, dict(zip(S.ids, images)))


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
