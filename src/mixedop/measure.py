"""Finite atomic measure spaces and the discrete calculus on them.

Atoms are labeled by strings and kept in canonical (lexicographic)
order, so every reduction over a space or relation is deterministic.
All objects are immutable after construction; the operations are pure
functions.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import NonFiniteResultError, UnknownAtomError


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FiniteMeasureSpace:
    """A finite set of labeled atoms with strictly positive weights.

    Parameters
    ----------
    atoms : mapping id -> weight, or iterable of (id, weight) pairs
        Ids must be distinct and weights strictly positive.  The stored
        atom order is lexicographic by id regardless of input order.
    """

    def __init__(self, atoms: Mapping[str, float] | Iterable[tuple[str, float]]):
        if isinstance(atoms, Mapping):
            pairs = [(str(i), float(w)) for i, w in atoms.items()]
        else:
            pairs = [(str(i), float(w)) for i, w in atoms]
        ids = [i for i, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate atom ids")
        pairs.sort()
        for i, w in pairs:
            if not w > 0 or not np.isfinite(w):
                raise ValueError(f"atom {i!r} has non-positive weight {w}")
        self.ids: tuple[str, ...] = tuple(i for i, _ in pairs)
        self.weights: np.ndarray = _readonly(np.array([w for _, w in pairs], dtype=float))
        self._index = {i: k for k, i in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, atom_id: str) -> bool:
        return atom_id in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def index(self, atom_id: str) -> int:
        try:
            return self._index[atom_id]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {atom_id!r}") from None

    def weight(self, atom_id: str) -> float:
        return float(self.weights[self.index(atom_id)])

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.ids, self.weights.tolist())

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def normalized(self) -> "FiniteMeasureSpace":
        """Same atoms, weights rescaled to total mass 1."""
        z = self.total_mass
        if z == 0.0:
            raise ValueError("cannot normalize an empty measure")
        return FiniteMeasureSpace({i: w / z for i, w in self.items()})

    def restrict(self, keep: Iterable[str]) -> "FiniteMeasureSpace":
        """Sub-space on the given atom ids (all must exist)."""
        keep = set(keep)
        missing = keep - set(self.ids)
        if missing:
            raise UnknownAtomError(f"unknown atoms {sorted(missing)}")
        return FiniteMeasureSpace({i: w for i, w in self.items() if i in keep})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteMeasureSpace)
            and self.ids == other.ids
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"FiniteMeasureSpace({len(self)} atoms, mass={self.total_mass:g})"


class DensityFn:
    """Nonnegative values attached to every atom of an index set.

    The index set is either the atoms of a space (string keys) or the
    pairs of a relation ((s_id, t_id) keys).
    """

    def __init__(self, values: Mapping):
        vals = {}
        for k, v in values.items():
            v = float(v)
            if v < 0 or not np.isfinite(v):
                # a computed density, a ratio of weights, can overflow on finite input
                error = ValueError if v < 0 else NonFiniteResultError
                raise error(f"density value at {k!r} must be finite and >= 0, got {v}")
            vals[k] = v
        self._values = vals

    def __getitem__(self, key) -> float:
        try:
            return self._values[key]
        except KeyError:
            raise UnknownAtomError(f"density not defined at {key!r}") from None

    def __contains__(self, key) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def keys(self):
        return sorted(self._values)

    def items(self) -> list[tuple]:
        return [(k, self._values[k]) for k in self.keys()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DensityFn) and self._values == other._values

    def __repr__(self) -> str:
        return f"DensityFn({len(self)} values)"


class AtomMap:
    """A total map between atom sets, s_id -> t_id."""

    def __init__(
        self,
        source: FiniteMeasureSpace,
        target: FiniteMeasureSpace,
        table: Mapping[str, str],
    ):
        if set(table) != set(source.ids):
            raise UnknownAtomError("map table must be total on the source atoms")
        for s, t in table.items():
            if t not in target:
                raise UnknownAtomError(f"map sends {s!r} to unknown atom {t!r}")
        self.source = source
        self.target = target
        self.table = {s: table[s] for s in source.ids}
        preimages: dict[str, list[str]] = {}
        for s, t in self.table.items():
            preimages.setdefault(t, []).append(s)
        self._preimages = {t: tuple(ss) for t, ss in preimages.items()}

    def __call__(self, s_id: str) -> str:
        try:
            return self.table[s_id]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {s_id!r}") from None

    @property
    def is_injective(self) -> bool:
        return len(set(self.table.values())) == len(self.table)

    def preimage(self, t_id: str) -> tuple[str, ...]:
        """Atoms of the source mapped onto ``t_id``, in canonical order."""
        if t_id not in self.target:
            raise UnknownAtomError(f"unknown atom {t_id!r}")
        return self._preimages.get(t_id, ())

    def __repr__(self) -> str:
        return f"AtomMap({len(self.table)} atoms -> {len(set(self.table.values()))} images)"


class WeightedRelation:
    """Atoms of F inside S x T, each with a strictly positive weight.

    Zero-weight pairs are dropped at construction; negative weights and
    duplicate pairs are rejected.  Pairs are kept sorted by (s_id, t_id),
    with ``src`` and ``tgt`` their positions in S.ids and T.ids; the fiber of
    T.ids[u] is ``order[start[u]:start[u] + size[u]]``, in s order.
    """

    def __init__(
        self,
        source: FiniteMeasureSpace,
        target: FiniteMeasureSpace,
        pairs: Iterable[tuple[str, str, float]],
    ):
        cleaned = []
        for s, t, w in pairs:
            w = float(w)
            if s not in source:
                raise UnknownAtomError(f"pair names unknown source atom {s!r}")
            if t not in target:
                raise UnknownAtomError(f"pair names unknown target atom {t!r}")
            if w == 0.0:
                continue
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"pair ({s!r}, {t!r}) has invalid weight {w}")
            cleaned.append((str(s), str(t), w))
        s_ids, t_ids, ws = zip(*cleaned) if cleaned else ((), (), ())
        src = np.array(list(map(source.index, s_ids)), dtype=np.intp)
        tgt = np.array(list(map(target.index, t_ids)), dtype=np.intp)
        sort = np.lexsort((tgt, src))  # ids are sorted: this is (s_id, t_id) order
        src, tgt = src[sort], tgt[sort]
        if np.any((src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])):
            raise ValueError("duplicate (s, t) pairs")
        self.source = source
        self.target = target
        self.pairs: tuple[tuple[str, str], ...] = tuple(cleaned[k][:2] for k in sort.tolist())
        self.weights: np.ndarray = _readonly(np.array(ws, dtype=float)[sort])
        self.src, self.tgt = _readonly(src), _readonly(tgt)
        self.size = _readonly(np.bincount(tgt, minlength=len(target)))
        self.order = _readonly(np.argsort(tgt, kind="stable"))
        self.start = _readonly(np.cumsum(self.size) - self.size)
        self._index = dict(zip(self.pairs, range(len(self.pairs))))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._index

    def index(self, s_id: str, t_id: str) -> int:
        """The position of the pair (s_id, t_id) in ``pairs``."""
        try:
            return self._index[(s_id, t_id)]
        except KeyError:
            raise UnknownAtomError(f"pair ({s_id!r}, {t_id!r}) not in relation") from None

    def weight(self, s_id: str, t_id: str) -> float:
        return float(self.weights[self.index(s_id, t_id)])

    def items(self) -> Iterator[tuple[str, str, float]]:
        for (s, t), w in zip(self.pairs, self.weights.tolist()):
            yield s, t, w

    def fiber(self, t_id: str) -> np.ndarray:
        """The fiber F_t as positions in ``pairs``, in s order (read-only)."""
        u = self.target.index(t_id)
        return self.order[self.start[u]:self.start[u] + self.size[u]]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights)) if len(self) else 0.0

    def restrict_targets(self, keep: Iterable[str]) -> "WeightedRelation":
        """Sub-relation with only the pairs whose target atom is kept."""
        keep = set(keep)
        return WeightedRelation(
            self.source, self.target, [(s, t, w) for s, t, w in self.items() if t in keep]
        )

    def __repr__(self) -> str:
        return f"WeightedRelation({len(self)} pairs, mass={self.total_mass:g})"


def radon_nikodym(
    lam: WeightedRelation, S: FiniteMeasureSpace, T: FiniteMeasureSpace
) -> DensityFn:
    """Density of the relation measure with respect to the product nu x mu.

    J(s, t) = lambda_st / (nu_s * mu_t).  Valid inputs are automatically
    absolutely continuous (all atoms carry positive weight); a pair
    naming an atom absent from S or T raises UnknownAtomError.
    """
    out = {}
    for s, t, w in lam.items():
        if s not in S:
            raise UnknownAtomError(f"pair names atom {s!r} absent from S")
        if t not in T:
            raise UnknownAtomError(f"pair names atom {t!r} absent from T")
        out[(s, t)] = w / (S.weight(s) * T.weight(t))
    return DensityFn(out)


def marginal_onto_T(lam: WeightedRelation) -> FiniteMeasureSpace:
    """The marginal measure lambda_T(t) = sum_{s: (s,t) in F} lambda_st.

    Atoms of T carrying no pairs are omitted; an empty relation yields
    the empty measure.
    """
    sums: dict[str, float] = {}
    for t in lam.target.ids:
        fiber = lam.fiber(t)
        if fiber.size:
            sums[t] = float(np.sum(lam.weights[fiber]))
    return FiniteMeasureSpace(sums)


def pushforward_volume_derivative(
    psi: AtomMap, nu: FiniteMeasureSpace, mu: FiniteMeasureSpace
) -> DensityFn:
    """Volume derivative of the pushforward:  J(t) = nu(psi^{-1}(t)) / mu_t.

    The atomic specialization of the ball limit, with balls shrunk to
    single atoms; zero where the preimage is empty.
    """
    if set(nu.ids) != set(psi.source.ids):
        raise UnknownAtomError("nu must weigh exactly the map's source atoms")
    if set(mu.ids) != set(psi.target.ids):
        raise UnknownAtomError("mu must weigh exactly the map's target atoms")
    mass: dict[str, float] = {t: 0.0 for t in mu.ids}
    for t in mu.ids:
        pre = psi.preimage(t)
        if pre:
            mass[t] = float(np.sum([nu.weight(s) for s in pre]))
    return DensityFn({t: mass[t] / mu.weight(t) for t in mu.ids})


def integrate_change_of_variables(
    f: DensityFn, psi: AtomMap, nu: FiniteMeasureSpace, mu: FiniteMeasureSpace
) -> tuple[float, float]:
    """Both routes of the discrete change-of-variables identity.

    lhs = sum_s nu_s f(psi(s));  rhs = sum_t mu_t f(t) J_{psi^-1}(t).
    The two agree up to rounding on every valid input.
    """
    for t in mu.ids:
        if t not in f:
            raise UnknownAtomError(f"integrand not defined on atom {t!r}")
    lhs = float(np.sum([nu.weight(s) * f[psi(s)] for s in nu.ids]))
    J = pushforward_volume_derivative(psi, nu, mu)
    rhs = float(np.sum([mu.weight(t) * f[t] * J[t] for t in mu.ids]))
    return lhs, rhs


def graph_relation(psi: AtomMap, nu: FiniteMeasureSpace) -> WeightedRelation:
    """The graph of psi carrying the measure lambda(A) = nu(pi_S(A)).

    Pairs are {(s, psi(s))} with weight nu_s, which makes the S-marginal
    density d(lambda_S)/d(nu) identically 1.
    """
    if set(nu.ids) != set(psi.source.ids):
        raise UnknownAtomError("nu must weigh exactly the map's source atoms")
    return WeightedRelation(
        nu, psi.target, [(s, psi(s), nu.weight(s)) for s in nu.ids]
    )
