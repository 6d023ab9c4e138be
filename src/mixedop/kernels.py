"""Operator-valued kernels on weighted relations.

Covers application of the mixed operator, induced matrix norms between
weighted r-norm spaces, and the per-atom direction optimization
("fiber effectiveness") that the decoupled operator norm is assembled
from.

Induced r -> r' norms are NP-hard in general; outside the closed-form
branches the optimizer returns an honest ``lower_bound`` certificate,
and a dense unit-sphere grid oracle is provided for desk-scale
cross-checks in dimensions 2 and 3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    MissingPairError,
    MixedOpError,
    NonFiniteResultError,
    UnknownAtomError,
    UnsupportedExponentsError,
)
from .fibers import (
    FiberFamily,
    NormSpec,
    Section,
    check_exponent,
    fiber_norm,
    lp_measure_norm,
    power_sums,
)
from .measure import WeightedRelation
from .rng import ORACLE_TAG, START_TAG, substream

INF = math.inf

EXACT = "exact"
LOWER_BOUND = "lower_bound"

# multistart projected ascent configuration
ASCENT_STARTS = 16
ASCENT_ITERATIONS = 200
ASCENT_TOL = 1e-12
_START_SEED = 0x9E3779B9

# grid oracle resolution: full circle / sphere, then one refinement pass
CIRCLE_POINTS = 10_000
SPHERE_POINTS = 100_000

# the sampling oracle draws at most this many directions (|T| x samples)
ORACLE_MAX_ENTRIES = 10**8
# and reduces each target's directions in pieces of at most this many rows
ORACLE_CHUNK = 65_536


def kappa(p, q) -> float:
    """The conjugate-type exponent p q / (p - q); inf when p = q.

    Requires 1 <= q <= p, with p finite unless p = q.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    if p < q:
        raise UnsupportedExponentsError("p<q out of supported scope")
    if p == q:
        return INF
    if math.isinf(p):
        raise UnsupportedExponentsError("p=inf out of scope")
    product = p * q
    if math.isinf(product):
        # a huge finite p overflows p q; this form needs no product
        return q / (1.0 - q / p)
    return product / (p - q)


def exponent_pair(p, q) -> tuple[float, float, float]:
    """(p, q, kappa) for a source/target pair in the supported regime:
    1 <= q <= p with p finite.  The one owner of that rule; its messages
    are the reasons the CLI writes on a rejected row.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    k = kappa(p, q)
    if math.isinf(p):
        raise UnsupportedExponentsError("p=inf out of scope")
    return p, q, k


@dataclass(frozen=True)
class NormResult:
    """A norm value together with how it was obtained.

    ``exact`` comes only from a closed-form branch; iterative ascent
    yields ``lower_bound``.
    """

    value: float
    certificate: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NonFiniteResultError(f"norm value {self.value} is not finite (overflow in the arithmetic)")
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")
        if self.certificate not in (EXACT, LOWER_BOUND):
            raise ValueError(f"unknown certificate {self.certificate!r}")


def weakest_certificate(certificates: Iterable[str]) -> str:
    """``exact`` when every certificate is, else ``lower_bound``: the
    certificate of a value computed from several norms."""
    return EXACT if all(c == EXACT for c in certificates) else LOWER_BOUND


class OperatorKernel:
    """P(s, t): a dense real matrix from the domain fiber W_t into the
    codomain fiber V_s, for every pair of a weighted relation.

    The kernel bundles the relation (F, lambda) and both fiber families,
    which together form a complete mixed-operator instance.  It stores
    the matrices as one read-only stack per (out dim, in dim) shape and
    owns the caches of everything computed from them: the induced matrix
    norms, the fiber effectiveness c(t) per q, and the sampling oracle's
    per-atom values per (q, seed, samples).
    """

    def __init__(
        self,
        relation: WeightedRelation,
        domain_family: FiberFamily,
        codomain_family: FiberFamily,
        matrices: Mapping[tuple[str, str], np.ndarray],
    ):
        if domain_family.base != relation.target:
            raise UnknownAtomError("domain family must live over the relation's target space")
        if codomain_family.base != relation.source:
            raise UnknownAtomError("codomain family must live over the relation's source space")
        pairs = relation.pairs
        if relation.dropped:  # the relation left these pairs out for weight 0, and their matrices go with them
            dropped = set(relation.dropped)
            matrices = {k: m for k, m in matrices.items() if k not in dropped}
        absent = object()
        given = list(map(matrices.get, pairs, repeat(absent)))  # in pair order
        # keys are distinct: as many as the pairs, all found, is the same set
        if len(matrices) != len(pairs) or any(map(is_, given, repeat(absent))):
            keys, wanted = set(matrices), set(pairs)
            missing = sorted(wanted - keys)
            if missing:
                raise MissingPairError(f"matrices missing for pairs {missing[:5]}")
            raise ValueError(f"matrices given for pairs outside the relation: {sorted(keys - wanted)[:5]}")
        out_dim, self._out_r, self._out_scale = _atoms(codomain_family)
        in_dim, self._in_r, self._in_scale = _atoms(domain_family)
        out_dims, in_dims = out_dim[relation.src], in_dim[relation.tgt]
        # one stack per (out dim, in dim) shape, keyed out dim * width + in dim
        width = int(in_dim.max(initial=0)) + 1
        shapes, group = np.unique(out_dims * width + in_dims, return_inverse=True)
        try:
            # matrices as rows of numbers: all entries converted in one call, in pair order;
            # numpy would read "3" as 3.0 and True as 1.0, so those go to the walk below
            rows = list(chain.from_iterable(given))
            entries = list(chain.from_iterable(rows))
            if any(issubclass(kind, (bool, np.bool_, str)) for kind in set(map(type, entries))):
                raise ValueError
            flat = np.array(entries, dtype=float)
            del entries  # one pointer per entry: not held while the stacks are built
            if not (flat.ndim == 1 and np.array_equal(np.fromiter(map(len, given), np.intp, len(given)), out_dims)
                    and np.array_equal(np.fromiter(map(len, rows), np.intp, len(rows)), np.repeat(in_dims, out_dims))
                    and np.isfinite(flat).all()):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            # another layout, or a bad matrix: read in pair order, the first bad pair naming the error
            shaped = zip(given, pairs, zip(out_dims.tolist(), in_dims.tolist()))
            flat = np.concatenate([_one_matrix(m, pair, shape).ravel() for m, pair, shape in shaped])
        start = np.cumsum(out_dims * in_dims) - out_dims * in_dims
        stacks = []
        for k, key in enumerate(shapes.tolist()):
            idx = np.flatnonzero(group == k)
            m, d = divmod(key, width)
            stack = flat[start[idx][:, None] + np.arange(m * d)].reshape(-1, m, d)
            stack.flags.writeable = False
            stacks.append((stack, idx))
        stack_of = np.empty(len(pairs), dtype=np.intp)
        slot_of = np.empty(len(pairs), dtype=np.intp)
        for k, (_, idx) in enumerate(stacks):
            stack_of[idx] = k
            slot_of[idx] = np.arange(idx.size)
        self.relation = relation
        self.domain_family = domain_family
        self.codomain_family = codomain_family
        self._in_dim = in_dim
        # whether every V_s of the fiber of t has exponent 2
        self._l2 = np.bincount(relation.tgt, weights=self._out_r[relation.src] != 2.0, minlength=in_dim.size) == 0
        self._stacks = stacks
        # pair index -> stack, and position in the stack
        self._stack_of = stack_of
        self._slot_of = slot_of
        self._norm_filled: set[int] = set()
        # the closed-form norms by pair index: NaN until the pair's stack
        # is filled, and where the pair has no finite closed form
        self._norm_values = np.full(len(pairs), np.nan)
        self._norm_cache: dict[tuple[str, str], NormResult] = {}
        self._eff_cache: dict[float, list[NormResult]] = {}
        self._sample_cache: dict[tuple[float, int, int], np.ndarray] = {}

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return self.relation.pairs

    def _index(self, s_id: str, t_id: str) -> int:
        try:
            return self.relation.index(s_id, t_id)
        except UnknownAtomError:
            raise MissingPairError(f"pair ({s_id!r}, {t_id!r}) not in relation") from None

    def _matrix(self, i: int) -> np.ndarray:
        return self._stacks[self._stack_of[i]][0][self._slot_of[i]]

    def matrix(self, s_id: str, t_id: str) -> np.ndarray:
        return self._matrix(self._index(s_id, t_id))

    def matrix_norm(self, s_id: str, t_id: str) -> NormResult:
        """Induced norm of P(s, t) from W_t to V_s (cached).

        A miss fills the closed forms of the pair's own shape stack; a
        pair without one is computed on its own miss.
        """
        key = (s_id, t_id)
        cached = self._norm_cache.get(key)
        if cached is None:
            i = self._index(s_id, t_id)
            self._fill_norms(int(self._stack_of[i]))
            value = float(self._norm_values[i])
            if math.isnan(value):
                cached = matrix_operator_norm(
                    self._matrix(i),
                    self.domain_family.norm(t_id),
                    self.codomain_family.norm(s_id),
                )
            else:
                cached = NormResult(value, EXACT)
            self._norm_cache[key] = cached
        return cached

    def _conjugate(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack k weight-conjugated as ``matrix_operator_norm`` does it,
        the out scale on the left and the in scale divided out on the
        right, with each pair's in and out exponents (a new array)."""
        stack, idx = self._stacks[k]
        m, d = stack.shape[1:]
        src, tgt = self.relation.src[idx], self.relation.tgt[idx]
        B = (self._out_scale[m][src][:, :, None] * stack) / self._in_scale[d][tgt][:, None, :]
        return B, self._in_r[tgt], self._out_r[src]

    def _fill_norms(self, k: int) -> None:
        """Store the norm of every pair of stack k that has a closed form,
        once, stacked by (a, b); ``matrix_operator_norm`` computes each
        with the same ``_closed_form_norms`` on a stack of one.

        A pair whose weight-conjugated matrix or norm is not finite keeps
        NaN and is left to its own miss, which reports it as before.
        """
        if k in self._norm_filled:
            return
        self._norm_filled.add(k)
        B, a, b = self._conjugate(k)
        idx = self._stacks[k][1]
        for ak, bk in dict.fromkeys(zip(a.tolist(), b.tolist())):
            js = np.flatnonzero((a == ak) & (b == bk))
            Bg = B[js]
            keep = np.isfinite(Bg).all(axis=(1, 2))
            values = _closed_form_norms(Bg[keep], ak, bk)
            if values is None:
                # no closed form: only the zero matrices are known
                keep &= ~Bg.any(axis=(1, 2))
                values = np.zeros(int(keep.sum()))
            self._norm_values[idx[js[keep]]] = np.where(np.isfinite(values), values, np.nan)

    def _fiber_matrix(self, targets) -> np.ndarray:
        """The pair indices of the fibers of ``targets`` (positions in
        ``T.ids``), one row each in fiber order, padded with -1 to the
        largest of their sizes."""
        slots = np.arange(self.relation.size[targets].max(initial=0))
        begin = self.relation.start[targets][:, None]
        inside = slots < self.relation.size[targets][:, None]
        return np.where(inside, self.relation.order[np.where(inside, begin + slots, 0)], -1)

    def _groups(self, P: np.ndarray):
        """The weight-conjugated matrices of the pairs of P (a padded
        ``_fiber_matrix``) grouped by shape stack and out exponent b:
        ``(B, b, rows, slots)`` per group, matrix i being the pair at
        ``P[rows[i], slots[i]]``, in row-major order."""
        rows, slots = np.nonzero(P >= 0)
        pairs = P[rows, slots]
        stack, b = self._stack_of[pairs], self._out_r[self.relation.src[pairs]]
        for k in np.unique(stack).tolist():
            B = self._conjugate(k)[0]
            for bk in dict.fromkeys(b[stack == k].tolist()):
                sel = np.flatnonzero((stack == k) & (b == bk))
                yield B[self._slot_of[pairs[sel]]], bk, rows[sel], slots[sel]

    def _per_pair(self, P: np.ndarray, f, shape: tuple[int, ...]) -> np.ndarray:
        """``f(B, b)`` of each group of ``_groups(P)``, one row per pair
        index: zero for the pairs not in P and in a last row."""
        out = np.zeros((self._stack_of.size + 1,) + shape)
        for B, b, rows, slots in self._groups(P):
            out[P[rows, slots]] = f(B, b)
        return out

    def _fiber_sums(self, targets: np.ndarray, values: np.ndarray, q: float) -> np.ndarray:
        """(sum_{s in F_t} lam_st x_s^q)^(1/q) for each of ``targets``,
        x_s being the row of ``values`` at the index of (s, t): a value or
        a row summed entrywise; 0 on an empty fiber.  One ``power_sums``
        row reduction per fiber size, never padded, so each row adds
        exactly as a single fiber's sum would."""
        sizes = self.relation.size[targets]
        out = np.zeros((sizes.size,) + values.shape[1:])
        for n in np.unique(sizes[sizes > 0]).tolist():
            rows = np.flatnonzero(sizes == n)
            P = self._fiber_matrix(targets[rows])
            lams = self.relation.weights[P].reshape((rows.size,) + (1,) * (values.ndim - 1) + (n,))
            out[rows] = power_sums(np.moveaxis(values[P], 1, -1), q, lams)
        return out

    def _norm_sums(self, targets, q: float) -> list[NormResult]:
        """The fiber sums of the matrix norms of ``targets``, exact when
        every norm is.  The closed forms come from the stack fills, the
        others from ``matrix_norm`` in target order, then fiber order."""
        targets = np.asarray(targets, dtype=np.intp)
        F = self._fiber_matrix(targets)
        pairs = F[F >= 0]
        for k in np.unique(self._stack_of[pairs]).tolist():
            self._fill_norms(k)
        norms = self._norm_values.copy()
        lower = np.zeros(norms.size + 1, dtype=bool)  # False in the last entry, which the padding reads
        for i in pairs[np.isnan(norms[pairs])].tolist():
            result = self.matrix_norm(*self.pairs[i])
            norms[i], lower[i] = result.value, result.certificate != EXACT
        values = self._fiber_sums(targets, norms, q).tolist()
        return [NormResult(v, LOWER_BOUND if weak else EXACT) for v, weak in zip(values, lower[F].any(axis=1).tolist())]

    def _solve_effectiveness(self, q: float) -> list[NormResult]:
        """c(t) at q for every target, in ``T.ids`` order.

        A mask over the layout arrays picks each target's case, and each
        case runs stacked per dim of W_t, each closed-form value
        bit-identical to the same formula on one target:

        - an empty or singleton fiber, or a scalar W_t: the fiber sum of
          the matrix norms (``_norm_sums``);
        - W_t with exponent 1: the largest over the columns of W_t of the
          fiber sums of the b-norms of that column of each matrix;
        - q = 2 with all-l2 fibers: the largest eigenvalue of the sum of
          ``lam B^T B`` in fiber order, one ``eigvalsh`` per dim;
        - the others: one ``_ascent`` per dim and exponent of W_t, on the
          weight-conjugated groups of ``_groups``.
        """
        rel = self.relation
        T = rel.target.ids
        dims, rs = self._in_dim, self._in_r
        summed = (rel.size <= 1) | (dims == 1)
        eigen = ~summed & (q == 2.0) & (rs == 2.0) & self._l2
        columns = ~summed & ~eigen & (rs == 1.0)
        ascent = ~(summed | eigen | columns)
        results = [None] * len(T)
        us = np.flatnonzero(summed)
        for u, result in zip(us.tolist(), self._norm_sums(us, q)):
            results[u] = result
        for d in dict.fromkeys(dims[columns].tolist()):
            us = np.flatnonzero(columns & (dims == d))
            norms = self._per_pair(self._fiber_matrix(us), lambda B, b: power_sums(np.swapaxes(B, 1, 2), b), (d,))
            for u, value in zip(us.tolist(), self._fiber_sums(us, norms, q).max(axis=1).tolist()):
                results[u] = NormResult(value, EXACT)
        weights = np.append(rel.weights, 0.0)  # 0 at the padding
        sums = {}
        finite = np.ones(len(T), dtype=bool)
        for d in dict.fromkeys(dims[eigen].tolist()):
            us = np.flatnonzero(eigen & (dims == d))
            P = self._fiber_matrix(us)
            grams = weights[P][:, :, None, None] * self._per_pair(P, lambda B, b: np.swapaxes(B, 1, 2) @ B, (d, d))[P]
            M = np.zeros((us.size, d, d))
            for slot in range(P.shape[1]):
                M += grams[:, slot]
            sums[d] = us, M
            finite[us] = np.isfinite(M).all(axis=(1, 2))
        if not finite.all():
            # eigvalsh of a non-finite sum returns a wrong value or does not converge
            raise NonFiniteResultError(
                f"c({T[np.flatnonzero(~finite)[0]]!r}) is not finite: the sum of lam B^T B over its fiber overflows"
            )
        for us, M in sums.values():
            tops = np.linalg.eigvalsh((M + np.swapaxes(M, 1, 2)) / 2.0)[:, -1]
            for u, top in zip(us.tolist(), tops.tolist()):
                results[u] = NormResult(math.sqrt(max(top, 0.0)), EXACT)
        for d, a in dict.fromkeys(zip(dims[ascent].tolist(), rs[ascent].tolist())):
            us = np.flatnonzero(ascent & (dims == d) & (rs == a))
            P = self._fiber_matrix(us)
            stacks = [_Stack(b, B, weights[P[rows, slots]][:, None], rows, slots)
                      for B, b, rows, slots in self._groups(P)]
            for u, value in zip(us.tolist(), _ascent(stacks, us.size, P.shape[1], a, q).tolist()):
                results[u] = NormResult(value, LOWER_BOUND)
        return results

    def oracle_samples(self, q: float, seed: int, samples: int) -> np.ndarray:
        """The sampling oracle's p-free values c~ (cached per (q, seed,
        samples)): entry i is the largest ``effectiveness_objective`` value
        at the ``samples`` seeded unit directions of target i (``T.ids``
        order), zero for an atom whose fiber is empty.  Read-only; refused
        above ORACLE_MAX_ENTRIES directions in all; drawn and reduced in
        pieces of at most ORACLE_CHUNK rows, with the values of one block.
        """
        key = (q, seed, samples)
        c = self._sample_cache.get(key)
        if c is None:
            T = self.relation.target
            if len(T.ids) * samples > ORACLE_MAX_ENTRIES:
                raise MixedOpError(
                    f"the sampling oracle needs |T| x samples = {len(T.ids)} x {samples}"
                    f" directions, above its bound of {ORACLE_MAX_ENTRIES}"
                )
            c = np.zeros(len(T.ids))
            for i, (t, n) in enumerate(zip(T.ids, self.relation.size.tolist())):
                if not n:
                    continue
                W = self.domain_family.norm(t)
                draw = substream(seed, ORACLE_TAG, i).standard_normal
                objective = effectiveness_objective(self, t, q)
                # equal pieces: none is a single row (unless samples is 1),
                # whose matmul rounds differently from a row of a block
                pieces = -(-samples // ORACLE_CHUNK)
                bounds = [samples * j // pieces for j in range(pieces + 1)]
                c[i] = np.max([objective(_unit_rows(draw((end - begin, W.dim)), W)).max()
                               for begin, end in zip(bounds, bounds[1:])])
            c.flags.writeable = False
            self._sample_cache[key] = c
        return c

    def restrict_targets(self, keep) -> "OperatorKernel":
        """Sub-instance keeping only pairs whose target atom is in ``keep``."""
        rel = self.relation.restrict_targets(keep)
        return OperatorKernel(
            rel,
            self.domain_family,
            self.codomain_family,
            {k: self.matrix(*k) for k in rel.pairs},
        )

    def __repr__(self) -> str:
        return f"OperatorKernel({len(self.pairs)} pairs)"


def _atoms(family: FiberFamily) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Per atom of the family's base, in ``ids`` order: the dim and exponent
    of its fiber; per dim d, the scale of each fiber of dim d (zero rows
    elsewhere), as ``NormSpec.scale`` computes it, once per (dim, exponent)."""
    norms = [N for _, N in family.items()]
    dims = np.array([N.weights.size for N in norms], dtype=np.intp)
    rs = np.array([N.r for N in norms])
    scale = {d: np.zeros((len(norms), d)) for d in set(dims.tolist())}
    for d, r in set(zip(dims.tolist(), rs.tolist())):
        us = np.flatnonzero((dims == d) & (rs == r))
        w = np.array([norms[u].weights for u in us.tolist()])
        scale[d][us] = w if math.isinf(r) else w ** (1.0 / r)
    return dims, rs, scale


def _one_matrix(m, pair: tuple[str, str], shape: tuple[int, int]) -> np.ndarray:
    """One matrix as ``np.atleast_2d`` reads it, checked for bool and
    string entries, against its shape and for finite entries; every
    failure is a ValueError (ragged rows raise numpy's own)."""
    where = f"matrix at ({pair[0]!r}, {pair[1]!r})"
    bad = _non_number(m)
    if bad is not None:
        raise ValueError(f"{where} has entry {bad!r}, not a number")
    try:
        a = np.atleast_2d(np.asarray(m, dtype=float))
    except TypeError:  # an entry that is neither a number nor a sequence
        raise ValueError(f"{where} is not an array of numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{where} has an entry too large for a float") from None
    if a.shape != shape:
        raise DimensionMismatchError(f"{where} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{where} has a non-finite entry")
    return a


def _non_number(value):
    """The first bool or string among the leaves of nested lists and
    arrays, else None."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, list):
        for item in value:
            bad = _non_number(item)
            if bad is not None:
                return bad
    return None


def apply_mixed(kernel: OperatorKernel, f: Section) -> dict[tuple[str, str], np.ndarray]:
    """The mixed operator: value at (s, t) is P(s, t) applied to f(t)."""
    kernel.domain_family.validate_section(f)
    return {(s, t): kernel.matrix(s, t) @ f[t] for (s, t) in kernel.pairs}


def output_norm(kernel: OperatorKernel, g: Mapping[tuple[str, str], np.ndarray], q) -> float:
    """L^q(F, lambda) norm of a section over the relation, with V_s fiber norms."""
    q = check_exponent(q)
    vals = np.array(
        [fiber_norm(np.asarray(g[(s, t)], dtype=float), kernel.codomain_family.norm(s))
         for (s, t) in kernel.pairs]
    )
    return lp_measure_norm(vals, kernel.relation.weights, q)


# ---------------------------------------------------------------------------
# induced matrix norms
# ---------------------------------------------------------------------------

def _dual(r: float) -> float:
    if r == 1.0:
        return INF
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def _col_norms(X: np.ndarray, r: float) -> np.ndarray:
    """r-norms of the columns of X, or of each matrix of a stack."""
    if math.isinf(r):
        return np.abs(X).max(axis=-2)
    return (np.abs(X) ** r).sum(axis=-2) ** (1.0 / r)


def _dual_power(Y: np.ndarray, r: float) -> np.ndarray:
    """Column-wise duality map sign(y) |y|^(r-1); subgradient picks for r in {1, inf}."""
    if r == 1.0:
        return np.sign(Y)
    if math.isinf(r):
        Z = np.zeros_like(Y)
        rows = np.argmax(np.abs(Y), axis=-2, keepdims=True)
        np.put_along_axis(Z, rows, np.sign(np.take_along_axis(Y, rows, axis=-2)), axis=-2)
        return Z
    return np.sign(Y) * np.abs(Y) ** (r - 1.0)


@functools.cache
def _ascent_starts(d: int, m: int) -> np.ndarray:
    """Basis vectors, their normalized sum, and seeded random fill-ins
    (one read-only array per (d, m), built once)."""
    cols = []
    for i in range(min(d, m // 2)):
        e = np.zeros(d)
        e[i] = 1.0
        cols.append(e)
    cols.append(np.ones(d))
    g = substream(_START_SEED, START_TAG, d)
    while len(cols) < m:
        cols.append(g.standard_normal(d))
    starts = np.column_stack(cols[:m])
    starts.flags.writeable = False
    return starts


def _normalize_columns(X: np.ndarray, a: float) -> np.ndarray:
    n = _col_norms(X, a)
    dead = n == 0
    if dead.any():
        X = X.copy()
        rows = np.moveaxis(X, -2, 0)
        rows[:, dead] = 0.0
        rows[0, dead] = 1.0
        n = _col_norms(X, a)
    return X / n[..., None, :]


class _Stack:
    """The pair matrices of one (shape stack, b) group of an ascent batch.

    Slice i belongs to live problem ``owner[i]``, where it is matrix
    number ``slot[i]``; ``Y`` and ``V`` hold the current images and
    their b-norms.
    """

    def __init__(self, b: float, B: np.ndarray, lam: np.ndarray, owner: np.ndarray, slot: np.ndarray):
        self.b = b
        self.B = B
        self.lam = lam
        self.owner = owner
        self.slot = slot
        self.Y = self.V = None

    def keep(self, mask: np.ndarray, position: np.ndarray) -> "_Stack":
        """The slices of the problems kept by ``mask``, renumbered by ``position``."""
        sel = mask[self.owner]
        out = _Stack(self.b, self.B[sel], self.lam[sel], position[self.owner[sel]], self.slot[sel])
        out.Y, out.V = self.Y[sel], self.V[sel]
        return out


def _sum_slots(stacks: list[_Stack], parts: list[np.ndarray], width: int, n: int) -> np.ndarray:
    """Per live problem, the sum of its matrices' parts in matrix order."""
    if width == 1 and len(stacks) == 1:
        return parts[0]
    out = np.zeros((width * n,) + parts[0].shape[1:])
    for st, part in zip(stacks, parts):
        out[st.slot * n + st.owner] = part
    return out.reshape((width, n) + parts[0].shape[1:]).sum(axis=0)


def _ascent(stacks: list[_Stack], n: int, width: int, a: float, q: float) -> np.ndarray:
    """Multistart fixed-point ascent for sup (sum_s lam_s ||B_s e||_{b_s}^q)^(1/q)
    on the unit sphere of the unweighted a-norm, for n problems sharing
    the input dimension, each of at most ``width`` matrices, given as
    ``_Stack``s; one best value each.

    Each step maps x to Psi_{a'}(sum_s lam_s v_s^(q-1) B_s^T Psi_{b_s}(B_s x / v_s))
    with v_s = ||B_s x||_{b_s}, and renormalizes; the attained value is
    nondecreasing, so the best iterate is a valid lower bound.  One
    matrix with q = 1 and lam = 1 is the induced a -> b norm; every
    weighting operation is then exact.

    Every product is the same per-slice matmul and every elementwise
    power the same scalar exponent as for a problem solved alone, and
    ``_sum_slots`` adds each problem's parts in its own matrix order,
    whatever the order of the stacks: each value is bit-identical to a
    batch of one.  A problem leaves the batch once all its starts have
    moved by at most ``ASCENT_TOL``.
    """
    X0 = _normalize_columns(_ascent_starts(stacks[0].B.shape[2], ASCENT_STARTS), a)
    X = np.repeat(X0[None], n, axis=0)
    live = np.arange(n)
    best = np.zeros(n)
    prev = np.full((n, ASCENT_STARTS), -1.0)
    for _ in range(ASCENT_ITERATIONS):
        single = width == 1 and len(stacks) == 1
        parts = []
        for st in stacks:
            st.Y = st.B @ (X if single else X[st.owner])
            st.V = _col_norms(st.Y, st.b)
            parts.append(st.lam * st.V ** q)
        vals = _sum_slots(stacks, parts, width, len(live)) ** (1.0 / q)
        best[live] = np.fmax(best[live], vals.max(axis=1))
        done = (np.abs(vals - prev) <= ASCENT_TOL * np.maximum(vals, 1.0)).all(axis=1)
        prev = vals
        if done.any():
            mask = ~done
            if not mask.any():
                break
            position = np.cumsum(mask) - 1
            stacks = [st.keep(mask, position) for st in stacks]
            stacks = [st for st in stacks if st.B.shape[0]]
            live, prev = live[mask], prev[mask]
        parts = []
        for st in stacks:
            safe = np.where(st.V > 0, st.V, 1.0)
            weights = st.lam * st.V ** (q - 1.0)
            D = _dual_power(st.Y / safe[:, None, :], st.b)
            parts.append(weights[:, None, :] * (np.swapaxes(st.B, 1, 2) @ D))
        Z = _sum_slots(stacks, parts, width, len(live))
        X = _normalize_columns(_dual_power(Z, _dual(a)), a)
    return best


def matrix_operator_norm(A: np.ndarray, in_norm: NormSpec, out_norm: NormSpec) -> NormResult:
    """sup of ||A e||_out over the unit ball of the in norm.

    Exact branches: one input dimension; in-exponent 1 (signed basis
    vertices); out-exponent inf (independent rows, dual norms); the
    l2 -> l2 case (largest singular value of the weight-conjugated
    matrix).  Everything else falls back to multistart ascent with a
    ``lower_bound`` certificate.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape != (out_norm.dim, in_norm.dim):
        raise DimensionMismatchError(
            f"matrix shape {A.shape} does not map dim {in_norm.dim} to dim {out_norm.dim}"
        )
    B = (out_norm.scale()[:, None] * A) / in_norm.scale()[None, :]
    a, b = in_norm.r, out_norm.r
    if not np.any(B):
        return NormResult(0.0, EXACT)
    if not np.isfinite(B).all():
        raise NonFiniteResultError("the weight-conjugated matrix is not finite (overflow in the arithmetic)")
    values = _closed_form_norms(B[None], a, b)
    if values is not None:
        return NormResult(float(values[0]), EXACT)
    one = np.zeros(1, dtype=np.intp)
    return NormResult(float(_ascent([_Stack(b, B[None], np.ones((1, 1)), one, one)], 1, 1, a, 1.0)[0]), LOWER_BOUND)


def _closed_form_norms(B: np.ndarray, a: float, b: float) -> np.ndarray | None:
    """Induced a -> b norms of a stack of unweighted matrices, when their
    shape and exponents have a closed form, else None.

    The branches: one input dimension; a = 1 (signed basis vertices);
    b = inf (independent rows, dual norms); l2 -> l2 (largest singular
    value).  Each gives 0 on a zero matrix.
    """
    if B.shape[2] == 1:
        return power_sums(B[:, :, 0], b)
    if a == 1.0:
        return power_sums(np.swapaxes(B, 1, 2), b).max(axis=1)
    if math.isinf(b):
        return power_sums(B, _dual(a)).max(axis=1)
    if a == 2.0 and b == 2.0:
        return np.linalg.svd(B, compute_uv=False)[:, 0]
    return None


def matrix_norm_objective(
    A: np.ndarray, in_norm: NormSpec, out_norm: NormSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized ||A e||_out over rows of unit directions; for grid oracles."""
    A = np.atleast_2d(np.asarray(A, dtype=float))

    def objective(E: np.ndarray) -> np.ndarray:
        return out_norm.row_norms(E @ A.T)

    return objective


# ---------------------------------------------------------------------------
# fiber effectiveness
# ---------------------------------------------------------------------------

def _unit_rows(raw: np.ndarray, norm: NormSpec) -> np.ndarray:
    """The rows of ``raw`` scaled to unit norm; a zero row becomes e_1."""
    norms = norm.row_norms(raw)
    dead = norms == 0
    if np.any(dead):
        raw = raw.copy()
        raw[dead] = 0.0
        raw[dead, 0] = 1.0
        norms = norm.row_norms(raw)
    return raw / norms[:, None]


def effectiveness_objective(
    kernel: OperatorKernel, t_id: str, q
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized c_t evaluator over rows of unit W_t directions.

    Feeds both the sampling oracle and the grid cross-checks, so every
    route optimizes literally the same function.  Finite q only, as for
    ``fiber_effectiveness``.
    """
    q = check_exponent(q)
    if math.isinf(q):
        raise UnsupportedExponentsError("fiber effectiveness needs finite q")
    fiber = kernel.relation.fiber(t_id).tolist()
    mats = [kernel._matrix(i) for i in fiber]
    outs = [kernel.codomain_family.norm(kernel.pairs[i][0]) for i in fiber]
    lams = kernel.relation.weights[fiber].tolist()

    def objective(E: np.ndarray) -> np.ndarray:
        E = np.atleast_2d(np.asarray(E, dtype=float))
        acc = np.zeros(E.shape[0])
        for A, out, lam in zip(mats, outs, lams):
            acc += lam * out.row_norms(E @ A.T) ** q
        return acc ** (1.0 / q)

    return objective


def fiber_effectiveness(kernel: OperatorKernel, t_id: str, q) -> NormResult:
    """c(t) = sup over unit e in W_t of (sum_{s in F_t} lam_st ||P(s,t) e||_{V_s}^q)^(1/q).

    The per-atom ingredient of the decoupled operator norm.  Exact
    branches: empty fiber (0); singleton fiber (lam^(1/q) times the
    matrix norm); scalar W_t; W_t with exponent 1 (signed basis
    vertices, the objective being convex); q = 2 with all-l2 fibers
    (largest eigenvalue of the weight-conjugated quadratic form).

    The first call at a q solves every target of the kernel at that q
    in one pass, one mask over the kernel's layout arrays per case
    (``OperatorKernel._solve_effectiveness``); later calls read the
    cached list.
    """
    q = check_exponent(q)
    if math.isinf(q):
        raise UnsupportedExponentsError("fiber effectiveness needs finite q")
    u = kernel.relation.target.index(t_id)
    results = kernel._eff_cache.get(q)
    if results is None:
        results = kernel._eff_cache[q] = kernel._solve_effectiveness(q)
    return results[u]


def pointwise_norm_aggregate(kernel: OperatorKernel, t_id: str, q) -> NormResult:
    """(sum_{s in F_t} lam_st ||P(s,t)||^q)^(1/q), q finite: sup moved inside the sum.

    Always >= fiber_effectiveness; the gap is what separates the
    criterion from the operator norm on multi-dimensional fibers.
    """
    q = check_exponent(q)
    if math.isinf(q):
        raise UnsupportedExponentsError("the pointwise aggregate needs finite q")
    return kernel._norm_sums([kernel.relation.target.index(t_id)], q)[0]


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def _refine_circle(objective, norm: NormSpec, theta: float, span: float, n: int) -> float:
    angles = np.linspace(theta - span, theta + span, n)
    raw = np.column_stack([np.cos(angles), np.sin(angles)])
    E = raw / norm.row_norms(raw)[:, None]
    return float(np.max(objective(E)))


def direction_grid_oracle(objective, norm: NormSpec, points: int | None = None) -> float:
    """Dense unit-sphere grid oracle for 2- and 3-dimensional fibers.

    Enumerates directions on the circle (default 10^4 points) or the
    sphere (default 10^5, golden spiral), takes the best one, and runs
    one local refinement pass around it.  Independent of the ascent
    path, so it serves as the exactness check for lower_bound branches.
    """
    d = norm.dim
    if d == 2:
        n = points or CIRCLE_POINTS
        angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        raw = np.column_stack([np.cos(angles), np.sin(angles)])
        E = raw / norm.row_norms(raw)[:, None]
        vals = objective(E)
        k = int(np.argmax(vals))
        coarse = float(vals[k])
        refined = _refine_circle(objective, norm, angles[k], 2.0 * math.pi / n, 2001)
        return max(coarse, refined)
    if d == 3:
        n = points or SPHERE_POINTS
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        raw = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        E = raw / norm.row_norms(raw)[:, None]
        vals = objective(E)
        k = int(np.argmax(vals))
        coarse = float(vals[k])
        w = raw[k]
        # one refinement pass: tangent-plane grid around the best direction
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(w)))] = 1.0
        u = np.cross(w, seed)
        u /= np.linalg.norm(u)
        v = np.cross(w, u)
        spacing = 4.0 * math.sqrt(4.0 * math.pi / n)
        offs = np.linspace(-spacing, spacing, 41)
        A, Bm = np.meshgrid(offs, offs)
        cand = w[None, :] + A.reshape(-1, 1) * u[None, :] + Bm.reshape(-1, 1) * v[None, :]
        E2 = cand / norm.row_norms(cand)[:, None]
        refined = float(np.max(objective(E2)))
        return max(coarse, refined)
    raise ValueError(f"grid oracle supports dimensions 2 and 3, got {d}")
