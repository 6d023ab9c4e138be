"""Finite-dimensional weighted r-norm fibers, sections over atomic bases,
and L^p direct-integral norms.

Exponents live in [1, inf]; ``math.inf`` is the distinguished infinite
value and every formula takes its max-limit there.  Scalar (dim-1)
fibers are first class: they realize classical weighted Lebesgue spaces.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, InvalidExponentError, UnknownAtomError
from .measure import FiniteMeasureSpace

INF = math.inf


def check_exponent(r) -> float:
    """Validate a norm exponent; returns it as float (inf allowed)."""
    r = float(r)
    if math.isnan(r) or r < 1.0:
        raise InvalidExponentError(f"exponent must lie in [1, inf], got {r}")
    return r


def power_sums(V, r: float, weights=None) -> np.ndarray:
    """(sum_i w_i |v_i|^r)^(1/r) of every vector along the last axis of
    V, max_i w_i |v_i| for r = inf, 0 on an empty or all-zero row;
    ``weights`` (default 1) broadcast against V.

    The one l^r power sum: the max term is factored out so large
    exponents cannot overflow, each row is one ``np.sum`` over a
    C-contiguous array (pairwise from 8 entries on), and the root is a
    Python float operation (an array power rounds differently).
    """
    V = np.abs(np.ascontiguousarray(V, dtype=float))
    if math.isinf(r):
        return (V if weights is None else weights * V).max(axis=-1, initial=0.0)
    M = V.max(axis=-1, initial=0.0)
    X = (V / np.where(M > 0, M, 1.0)[..., None]) ** r
    S = (X if weights is None else weights * X).sum(axis=-1)
    e = 1.0 / r
    roots = [m * s ** e for m, s in zip(M.ravel().tolist(), S.ravel().tolist())]
    return np.array(roots).reshape(M.shape)


def ordered_sum(x) -> float:
    """x[0] + x[1] + ... added left to right, as a ``total +=`` loop adds
    them: np.sum adds pairwise, and the builtin sum compensates from
    Python 3.12 on, so either would change the last bits."""
    total = np.cumsum(x)
    return float(total[-1]) if total.size else 0.0


def lp_measure_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """L^p norm over an atomic measure: (sum w |v|^p)^(1/p).

    For p = inf this is the essential supremum, i.e. max |v| (every atom
    has positive weight, so the weights drop out).
    """
    return float(power_sums(values, p, None if math.isinf(p) else np.asarray(weights, dtype=float)))


class NormSpec:
    """A weighted r-norm on R^d:  (sum_i w_i |v_i|^r)^(1/r).

    For r = inf the norm is max_i w_i |v_i|.  Weights are strictly
    positive and their count fixes the fiber dimension.
    """

    def __init__(self, r, weights: Iterable[float]):
        self.r = check_exponent(r)
        w = np.array(list(weights), dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not all(0.0 < x < math.inf for x in w.tolist()):  # NaN fails too
            raise ValueError("weights must be strictly positive and finite")
        w.flags.writeable = False
        self.weights = w

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def __call__(self, v) -> float:
        return fiber_norm(v, self)

    def row_norms(self, M: np.ndarray) -> np.ndarray:
        """Norm of every row of an (n, dim) array, vectorized."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected (n, {self.dim}) array, got shape {M.shape}"
            )
        if math.isinf(self.r):
            return np.max(self.weights * np.abs(M), axis=1)
        return (np.abs(M) ** self.r @ self.weights) ** (1.0 / self.r)

    def scale(self) -> np.ndarray:
        """Diagonal taking this norm to the unweighted r-norm.

        ||v||  =  || diag(scale) v ||_r  with scale = w^(1/r) for finite
        r and scale = w when r = inf.
        """
        if math.isinf(self.r):
            return np.asarray(self.weights, dtype=float)
        return self.weights ** (1.0 / self.r)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NormSpec)
            and self.r == other.r
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"NormSpec(r={self.r}, dim={self.dim})"


def fiber_norm(v, spec: NormSpec) -> float:
    """Evaluate a weighted r-norm on one vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != spec.dim:
        raise DimensionMismatchError(
            f"vector of length {v.size if v.ndim == 1 else v.shape} "
            f"against norm of dimension {spec.dim}"
        )
    return float(power_sums(v, spec.r, spec.weights))


class Section:
    """One fiber element per atom: ``values[atom_id]`` is a real vector."""

    def __init__(self, values: Mapping[str, Iterable[float]]):
        store = {}
        for k, v in values.items():
            a = np.atleast_1d(np.asarray(v, dtype=float))
            if a.ndim != 1:
                raise DimensionMismatchError(f"value at {k!r} is not a vector")
            a.flags.writeable = False
            store[str(k)] = a
        self._values = store

    def __getitem__(self, atom_id: str) -> np.ndarray:
        try:
            return self._values[atom_id]
        except KeyError:
            raise UnknownAtomError(f"section not defined at {atom_id!r}") from None

    def __contains__(self, atom_id: str) -> bool:
        return atom_id in self._values

    def keys(self) -> list[str]:
        return sorted(self._values)

    def items(self) -> list[tuple[str, np.ndarray]]:
        return [(k, self._values[k]) for k in self.keys()]

    def __repr__(self) -> str:
        return f"Section({len(self._values)} atoms)"


class FiberFamily:
    """A normed finite-dimensional fiber over every atom of a base space."""

    def __init__(self, base: FiniteMeasureSpace, fibers: Mapping[str, NormSpec]):
        if set(fibers) != set(base.ids):
            raise UnknownAtomError("fiber map must be total on the base atoms")
        self.base = base
        self._fibers = {i: fibers[i] for i in base.ids}

    def norm(self, atom_id: str) -> NormSpec:
        try:
            return self._fibers[atom_id]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {atom_id!r}") from None

    def dim(self, atom_id: str) -> int:
        return self.norm(atom_id).dim

    def items(self) -> list[tuple[str, NormSpec]]:
        return [(i, self._fibers[i]) for i in self.base.ids]

    def validate_section(self, f: Section) -> None:
        for i in self.base.ids:
            if i not in f:
                raise UnknownAtomError(f"section missing atom {i!r}")
            if f[i].size != self.dim(i):
                raise DimensionMismatchError(
                    f"section has length {f[i].size} at {i!r}, fiber dim is {self.dim(i)}"
                )

    def __repr__(self) -> str:
        dims = [self.dim(i) for i in self.base.ids]
        return f"FiberFamily({len(dims)} fibers, dims {min(dims, default=0)}..{max(dims, default=0)})"


def direct_integral_norm(f: Section, fam: FiberFamily, p) -> float:
    """|| f || = (sum_t mu_t ||f(t)||_t^p)^(1/p);  max over atoms for p = inf."""
    p = check_exponent(p)
    fam.validate_section(f)
    vals = np.array([fiber_norm(f[i], fam.norm(i)) for i in fam.base.ids])
    return lp_measure_norm(vals, fam.base.weights, p)
