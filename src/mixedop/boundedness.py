"""Boundedness criteria, the exact decoupled operator norm, the additive
set function with its per-atom derivative, sampling oracles, and the
sandwich report that confronts criterion against truth.

The decoupling reduction is the workhorse: the ratio ||M_F f|| / ||f||
depends on f only through one direction per atom (optimized inside the
fiber effectiveness c(t)) and the per-atom magnitude profile, which is
eliminated in closed form by the equality case of Holder's inequality.
For p > q that gives

    ||M_F|| = ( sum_t c(t)^kappa mu_t^(-kappa/p) )^(1/kappa),

and max_t c(t) mu_t^(-1/p) when p = q.  The criterion value is the same
aggregate with c(t) replaced by the pointwise-norm aggregate
(sum_s lam ||P||^q)^(1/q) >= c(t); the two coincide on scalar fibers,
singleton fibers, and whenever one direction maximizes all P(s, t) at
once, and the reported gap is meaningful otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisViolationError,
    NonFiniteResultError,
    SandwichViolationError,
    UnknownAtomError,
    UnsupportedExponentsError,
)
from .fibers import direct_integral_norms, ordered_sum, power_sums
from .generators import random_partition_labels
from .kernels import (
    EXACT,
    NormResult,
    OperatorKernel,
    exponent_pair,
    fiber_effectiveness,
    weakest_certificate,
)
from .measure import AtomMap
from .rng import SECTION_TAG, substream

EQUALITY_TOL = 1e-9
EXACT_SLACK = 1e-9
LOWER_BOUND_SLACK = 1e-6
HYPOTHESIS_TOL = 1e-9  # relative slack of the kernel-norm hypotheses of the criteria


def _atom_terms(values, ids, masses, p: float, what: str) -> np.ndarray:
    """values[i] * mu_t^(-1/p) for the atom t = ids[i] of mass masses[i]: the
    one evaluation of mu_t^(-1/p), in Python's float ``**`` (numpy's array
    power rounds by its CPU dispatch).  A zero value gives 0 without the
    power, which overflows for a tiny mu_t and would make 0 * inf = NaN; a
    term whose power or product overflows raises, as the ``what`` of t."""
    terms = np.zeros(len(ids))
    for i, (t, v, mu) in enumerate(zip(ids, np.asarray(values).tolist(), np.asarray(masses).tolist())):
        if v != 0.0:
            try:
                terms[i] = v * mu ** (-1.0 / p)
            except OverflowError:
                terms[i] = math.inf
            if math.isinf(terms[i]):
                raise NonFiniteResultError(f"{what} of atom {t!r} is not finite (overflow in the arithmetic)")
    return terms


def _atom_norm(values, kernel: OperatorKernel, p: float, k: float, what: str = "norm term") -> float:
    """The ell^k sum of the ``_atom_terms`` of values over T (the max for k = inf)."""
    T = kernel.relation.target
    return float(power_sums(_atom_terms(values, T.ids, T.weights, p, what), k))


@dataclass(frozen=True)
class BoundednessReport:
    """Lower (decoupled norm) and upper (criterion), each with its
    certificate, the sampled oracle value, and whether the two sides meet."""

    lower: NormResult
    upper: NormResult
    oracle: float
    equality: bool


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_general_result(kernel: OperatorKernel, p, q) -> NormResult:
    """Boundedness criterion for a general absolutely continuous relation.

    ( sum_t mu_t ( sum_{s in F_t} nu_s ||P(s,t)||^q J(s,t) )^(kappa/q) )^(1/kappa),
    which on atoms reduces the inner sum to (1/mu_t) sum_s lam_st ||P||^q,
    0 on an empty fiber whatever mu_t; for p = q the outer aggregate is
    the max over atoms.  As 1 - kappa/q = -kappa/p, that is ``_atom_norm``
    of (sum_s lam_st ||P||^q)^(1/q).  Exact when every matrix norm is.
    """
    p, q, k = exponent_pair(p, q)
    aggs = kernel._norm_sums(range(len(kernel.relation.target.ids)), q)
    value = _atom_norm([a.value for a in aggs], kernel, p, k)
    return NormResult(value, weakest_certificate(a.certificate for a in aggs))


def _require_graph(kernel: OperatorKernel, psi: AtomMap) -> None:
    rel = kernel.relation
    if set(psi.source.ids) != set(rel.source.ids) or set(psi.target.ids) != set(rel.target.ids):
        raise UnknownAtomError("psi must map the relation's source atoms into its target atoms")
    graph = {(s, psi(s)) for s in rel.source.ids}
    if set(rel.pairs) != graph:
        raise HypothesisViolationError("the kernel's relation is not the graph of psi")


def criterion_uniform_bounds(
    kernel: OperatorKernel, psi: AtomMap, c: float, C: float, p, q
) -> NormResult:
    """Criterion under two-sided kernel-norm bounds c <= ||P|| <= C.

    Works for non-injective psi.  The relation must be the graph of psi
    carrying the measure nu of the source; the returned value is
    || J_{psi^-1}^(1/q) ||_{L^kappa(T)}, and the contract is
    c * value <= ||M_psi|| <= C * value.  The value reads no matrix
    norm (those only check the hypothesis), so it is exact.
    """
    p, q, k = exponent_pair(p, q)
    if not (0 < c <= C):
        raise ValueError(f"need 0 < c <= C, got c={c}, C={C}")
    _require_graph(kernel, psi)
    rel = kernel.relation
    for s in rel.source.ids:
        lam = rel.weight(s, psi(s))
        nu_s = rel.source.weight(s)
        if abs(lam - nu_s) > 1e-12 * max(1.0, nu_s):
            raise HypothesisViolationError(
                "the graph must carry the source measure: lambda(s, psi(s)) = nu_s"
            )
    for (s, t) in rel.pairs:
        got = kernel.matrix_norm(s, t).value
        if got < c - HYPOTHESIS_TOL * max(1.0, c) or got > C + HYPOTHESIS_TOL * max(1.0, C):
            raise HypothesisViolationError(
                f"||P({s!r}, {t!r})|| = {got:.12g} outside [{c:.12g}, {C:.12g}]"
            )
    # the general criterion with every ||P|| = 1: (sum_{s in F_t} lam_st)^(1/q) = nu(psi^-1 t)^(1/q)
    fibers = kernel._fiber_sums(np.arange(len(rel.target.ids)), np.ones(len(rel.pairs)), q)
    return NormResult(_atom_norm(fibers, kernel, p, k), EXACT)


# ---------------------------------------------------------------------------
# exact norm via decoupling, set function, derivative
# ---------------------------------------------------------------------------

def exact_norm_decoupled(kernel: OperatorKernel, p, q) -> NormResult:
    """The operator norm of M_F on the finite instance.

    With c(t) the fiber effectiveness: the ell^kappa aggregate of
    c(t) mu_t^(-1/p) for p > q, and its max for p = q.  Exact whenever
    every per-atom direction problem hit a closed-form branch.
    """
    p, q, k = exponent_pair(p, q)
    T = kernel.relation.target
    effs = [fiber_effectiveness(kernel, t, q) for t in T.ids]
    value = _atom_norm([e.value for e in effs], kernel, p, k)
    return NormResult(value, weakest_certificate(e.certificate for e in effs))


def _phi_terms(kernel: OperatorKernel, ids, p, q) -> tuple[np.ndarray, str]:
    """Phi({t}) = (c(t) mu_t^(-1/p))^kappa for each atom of ``ids``, in
    that order: the one definition every set-function value and
    derivative is summed from; and the weakest certificate of those c(t).
    Undefined for p = q, where kappa is infinite."""
    p, q, k = exponent_pair(p, q)
    if math.isinf(k):
        raise UnsupportedExponentsError("p=q: set function undefined (kappa=inf)")
    T = kernel.relation.target
    effs = [fiber_effectiveness(kernel, t, q) for t in ids]
    what = "set function term"
    terms = _atom_terms([e.value for e in effs], ids, [T.weight(t) for t in ids], p, what)
    for i, (t, x) in enumerate(zip(ids, terms.tolist())):
        try:
            terms[i] = x ** k
        except OverflowError:
            raise NonFiniteResultError(f"{what} of atom {t!r} is not finite (overflow in the arithmetic)") from None
    return terms, weakest_certificate(e.certificate for e in effs)


def phi_value(kernel: OperatorKernel, subset, p, q) -> NormResult:
    """The set function Phi(A) = ||M_F restricted to A||^kappa.

    Additive over disjoint subsets by construction (the decoupled norm
    is an atom-wise power sum, added here in the canonical atom order);
    undefined for p = q, where kappa is infinite.  The certificate is
    the weakest of the c(t) over A, as ``exact_norm_decoupled``'s is
    over T.
    """
    T = kernel.relation.target
    subset = frozenset(subset)
    unknown = [t for t in subset if t not in T]
    if unknown:
        raise UnknownAtomError(f"unknown atoms {sorted(unknown)}")
    terms, certificate = _phi_terms(kernel, sorted(subset), p, q)
    return NormResult(ordered_sum(terms), certificate)


def _derivatives(ids, terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Phi'(t) = Phi({t}) / mu_t for each atom of ``ids``; an error names
    the first atom whose quotient or moment Phi'(t) mu_t is not finite (a
    tiny mu_t overflows the quotient of a finite term, and then both)."""
    with np.errstate(over="ignore"):
        quotients = terms / weights
        bad = np.flatnonzero(~np.isfinite(quotients * weights))
    if bad.size:
        t = ids[bad[0]]
        raise NonFiniteResultError(f"set function derivative of atom {t!r} is not finite (overflow in the arithmetic)")
    return quotients


def phi_derivative(kernel: OperatorKernel, t_id: str, p, q) -> float:
    """Per-atom derivative Phi'(t) = Phi({t}) / mu_t (atomic balls are atoms)."""
    term = np.array([phi_value(kernel, [t_id], p, q).value])
    return float(_derivatives([t_id], term, np.array([kernel.relation.target.weight(t_id)]))[0])


def phi_audit_violation(kernel: OperatorKernel, p, q, partitions: int, seed: int) -> float:
    """Max relative violation of additivity, of monotonicity along prefix
    unions, and of the derivative identity sum_{t in A} Phi'(t) mu_t =
    Phi(A), over the seeded random partitions ``random_partition(T.ids,
    seed * 100003 + j)``, j < partitions, divided by Phi(T).

    Each law holds exactly, so the value measures the rounding between
    summation routes of one additive sum.  Every quantity is summed from
    one vector of the terms Phi({t}): a set function value in ascending
    atom order (as ``phi_value`` adds it), the derivative sum of a prefix
    in the order its blocks were inserted.
    """
    T = kernel.relation.target
    terms, _ = _phi_terms(kernel, T.ids, p, q)
    phi_total = ordered_sum(terms)
    if not math.isfinite(phi_total):
        raise NonFiniteResultError(f"set function value {phi_total} is not finite (overflow in the arithmetic)")
    denom = phi_total if phi_total > 0 else 1.0
    moments = _derivatives(T.ids, terms, T.weights) * T.weights  # phi_derivative(t) * mu_t
    worst = 0.0
    for j in range(partitions):
        labels = random_partition_labels(len(T.ids), seed * 100003 + j)
        sizes = np.bincount(labels)
        blocks = np.flatnonzero(sizes)
        block_values = [ordered_sum(terms[labels == b]) for b in blocks]
        worst = max(worst, abs(ordered_sum(block_values) - phi_total) / denom)
        inserted = moments[np.argsort(labels, kind="stable")]
        ends = np.cumsum(sizes[blocks]).tolist()
        prev = 0.0
        for b, end in zip(blocks, ends):
            current = ordered_sum(terms[labels <= b])
            worst = max(worst, max(0.0, prev - current) / denom)
            prev = current
            # the prefix's phi_derivative(t) * mu_t in insertion order, left to right
            deriv_sum = ordered_sum(inserted[:end])
            worst = max(worst, abs(deriv_sum - current) / denom)
    return worst


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _count(n, name: str) -> int:
    """n if it is an integer >= 1; a bool or a float is refused, not rounded."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def oracle_norm_sampling(
    kernel: OperatorKernel, p, q, n_samples: int = 1000, seed: int = 0
) -> float:
    """Sampled lower bound on the operator norm.

    Draws seeded random unit directions per atom (one counter-based
    stream per atom, so parallel evaluation order cannot change the
    result) and takes each atom's best sample c~(t), since M f at t
    depends only on f(t).  The magnitude profile is then optimized in
    closed form, as in ``exact_norm_decoupled`` with c~ for c(t).  On
    scalar fibers directions are just signs, so a single sample is
    already exact.  The kernel keeps c~ per (q, seed, samples); each call
    only aggregates it, through the decoupled norm's ``_atom_norm``.
    """
    p, q, k = exponent_pair(p, q)
    n = _count(n_samples, "n_samples")
    return _atom_norm(kernel.oracle_samples(q, seed, n), kernel, p, k, "oracle factor")


def _section_norms(kernel: OperatorKernel, F, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(|| M_F f_j ||_q, || f_j ||_p) for n sections stacked by target
    atom, F[i] an (n, dim W_t) array for t = T.ids[i]; exponents checked,
    q finite.  The one evaluator of both norms: ||f||_p is the stacked
    ``direct_integral_norms``, ||M f||_q the lambda-weighted
    ``power_sums`` over the pairs of the V_s norms of f_t P(s, t)^T.  A
    relation without pairs gives a 0-d zero ||M f||, which broadcasts
    against n.
    """
    V = kernel.codomain_family
    out = [
        power_sums(F[i] @ kernel.matrix(s, t).T, V.norm(s).r, V.norm(s).weights)
        for (s, t), i in zip(kernel.pairs, kernel.relation.tgt.tolist())
    ]
    mf = power_sums(np.array(out).T, q, kernel.relation.weights)
    return mf, direct_integral_norms(F, kernel.domain_family, p)


def section_ratios(
    kernel: OperatorKernel, p, q, n_sections: int = 200, seed: int = 0
) -> np.ndarray:
    """||M_F f|| / ||f|| for seeded random sections f (no optimization),
    0 for a zero section.

    Feeds the sufficiency checks: every ratio must stay below the
    criterion value, and below the decoupled norm where that is exact.
    """
    p, q, _ = exponent_pair(p, q)
    n = _count(n_sections, "n_sections")
    T = kernel.relation.target
    W = kernel.domain_family
    F = [substream(seed, SECTION_TAG, i).standard_normal((n, W.dim(t))) for i, t in enumerate(T.ids)]
    mf, f = _section_norms(kernel, F, p, q)
    return np.divide(mf, f, out=np.zeros(n), where=f > 0)


# ---------------------------------------------------------------------------
# sandwich report
# ---------------------------------------------------------------------------

def _slack(certificate: str) -> float:
    return EXACT_SLACK if certificate == EXACT else LOWER_BOUND_SLACK


def sandwich_report(
    kernel: OperatorKernel, p, q, oracle_samples: int = 1000, seed: int = 0
) -> BoundednessReport:
    """Confront the criterion (upper) with the decoupled norm (lower)
    and the sampling oracle, asserting oracle <= lower <= upper.

    The equality flag records whether the criterion is attained; on
    multi-dimensional fibers with incompatible maximizing directions it
    is legitimately false.
    """
    lower = exact_norm_decoupled(kernel, p, q)
    upper = criterion_general_result(kernel, p, q)
    oracle = oracle_norm_sampling(kernel, p, q, oracle_samples, seed)
    scale = max(1.0, upper.value)
    if not (oracle <= lower.value + _slack(lower.certificate) * scale):
        raise SandwichViolationError(
            f"oracle {oracle:.15g} exceeds decoupled norm {lower.value:.15g}"
        )
    worst = weakest_certificate((lower.certificate, upper.certificate))
    if not (lower.value <= upper.value + _slack(worst) * scale):
        raise SandwichViolationError(
            f"decoupled norm {lower.value:.15g} exceeds criterion {upper.value:.15g}"
        )
    equality = abs(upper.value - lower.value) <= EQUALITY_TOL * max(upper.value, 1.0)
    return BoundednessReport(lower, upper, oracle, equality)
