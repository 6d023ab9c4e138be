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
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisViolationError,
    NonFiniteResultError,
    NotInjectiveError,
    SandwichViolationError,
    UnknownAtomError,
    UnsupportedExponentsError,
)
from .fibers import check_exponent, power_sums
from .generators import random_partition_labels
from .kernels import (
    EXACT,
    NormResult,
    OperatorKernel,
    fiber_effectiveness,
    kappa,
    weakest_certificate,
)
from .measure import AtomMap, DensityFn
from .rng import SECTION_TAG, substream

EQUALITY_TOL = 1e-9
EXACT_SLACK = 1e-9
LOWER_BOUND_SLACK = 1e-6
HYPOTHESIS_TOL = 1e-9  # relative slack of the kernel-norm hypotheses of the criteria


def _finite_pair(p, q) -> tuple[float, float, float]:
    """Validate a source/target exponent pair for norm computations.

    Returns (p, q, kappa).  Both exponents must be finite here: q = inf
    never arises below p, and p = inf is outside the supported regime
    for source exponents.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    k = kappa(p, q)
    if math.isinf(p) or math.isinf(q):
        raise UnsupportedExponentsError("infinite source/target exponents are not supported")
    return p, q, k


def _atom_norm(values: np.ndarray, kernel: OperatorKernel, p: float, k: float) -> float:
    """The ell^k sum of values[t] * mu_t^(-1/p) over the atoms of T (the max
    for k = inf); a zero value, as on an empty fiber, adds 0 without the
    power, which overflows for a tiny mu_t and would make 0 * inf = NaN."""
    nonzero = values != 0.0
    x = np.zeros(values.size)
    x[nonzero] = values[nonzero] * kernel.relation.target.weights[nonzero] ** (-1.0 / p)
    return float(power_sums(x, k))


@dataclass(frozen=True)
class PhiValue:
    """Value of the best-constant set function on a subset of T."""

    subset: frozenset
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NonFiniteResultError(f"set function value {self.value} is not finite (overflow in the arithmetic)")


@dataclass(frozen=True)
class BoundednessReport:
    """Lower (decoupled norm), upper (criterion), and sampled oracle values."""

    p: float
    q: float
    kappa: float
    lower: float
    upper: float
    oracle: float
    equality: bool
    lower_certificate: str
    upper_certificate: str


@dataclass(frozen=True)
class UniformBoundsCriterion:
    """Criterion value with the uniform kernel-norm multipliers c, C."""

    value: float
    lower_mult: float
    upper_mult: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NonFiniteResultError(f"criterion value {self.value} is not finite (overflow in the arithmetic)")

    @property
    def lower(self) -> float:
        return self.lower_mult * self.value

    @property
    def upper(self) -> float:
        return self.upper_mult * self.value


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
    p, q, k = _finite_pair(p, q)
    aggs = kernel._norm_sums(range(len(kernel.relation.target.ids)), q)
    value = _atom_norm(np.array([a.value for a in aggs]), kernel, p, k)
    return NormResult(value, weakest_certificate(a.certificate for a in aggs))


def criterion_uniform_t(kernel: OperatorKernel, rho: DensityFn, p, q) -> float:
    """Criterion when the kernel norm depends on t alone: ||rho J^(1/q)||_{L^kappa(T)}.

    The hypothesis ||P(s, t)|| = rho(t) is verified across every fiber
    F_t within HYPOTHESIS_TOL.  Under it the general criterion's inner
    term is rho(t)^q lam_t / mu_t = rho(t)^q J(t), J the marginal density.
    """
    _finite_pair(p, q)
    T = kernel.relation.target
    for t in T.ids:
        if t not in rho:
            raise UnknownAtomError(f"rho not defined on atom {t!r}")
    for (s, t) in kernel.relation.pairs:
        got = kernel.matrix_norm(s, t).value
        if not (abs(got - rho[t]) <= HYPOTHESIS_TOL * max(1.0, rho[t])):
            raise HypothesisViolationError(
                f"||P({s!r}, {t!r})|| = {got:.12g} differs from rho({t!r}) = {rho[t]:.12g}"
            )
    return criterion_general_result(kernel, p, q).value


def _require_graph(kernel: OperatorKernel, psi: AtomMap) -> None:
    rel = kernel.relation
    if set(psi.source.ids) != set(rel.source.ids) or set(psi.target.ids) != set(rel.target.ids):
        raise UnknownAtomError("psi must map the relation's source atoms into its target atoms")
    graph = {(s, psi(s)) for s in rel.source.ids}
    if set(rel.pairs) != graph:
        raise HypothesisViolationError("the kernel's relation is not the graph of psi")


def criterion_graph_result(kernel: OperatorKernel, psi: AtomMap, p, q) -> NormResult:
    """Criterion on the graph of an injective mapping.

    ||  ||P(psi^-1(t), t)|| J^(1/q)(t)  ||_{L^kappa(T)} with J the
    marginal density of the graph measure: each fiber holds at most one
    pair, so the general criterion's inner term lam ||P||^q / mu_t is
    ||P||^q J(t), and atoms outside the image contribute zero.  With
    identity data and p = q this recovers the classical
    decomposable-operator condition (the ess-sup of the fiber norms).
    """
    _finite_pair(p, q)
    if not psi.is_injective:
        raise NotInjectiveError("graph criterion requires an injective mapping")
    _require_graph(kernel, psi)
    return criterion_general_result(kernel, p, q)


def criterion_uniform_bounds(
    kernel: OperatorKernel, psi: AtomMap, c: float, C: float, p, q
) -> UniformBoundsCriterion:
    """Criterion under two-sided kernel-norm bounds c <= ||P|| <= C.

    Works for non-injective psi.  The relation must be the graph of psi
    carrying the measure nu of the source; the returned value is
    || J_{psi^-1}^(1/q) ||_{L^kappa(T)} and the exported contract is
    c * value <= ||M_psi|| <= C * value.
    """
    p, q, k = _finite_pair(p, q)
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
    return UniformBoundsCriterion(_atom_norm(fibers, kernel, p, k), c, C)


# ---------------------------------------------------------------------------
# exact norm via decoupling, set function, derivative
# ---------------------------------------------------------------------------

def exact_norm_decoupled(kernel: OperatorKernel, p, q) -> NormResult:
    """The operator norm of M_F on the finite instance.

    With c(t) the fiber effectiveness: the ell^kappa aggregate of
    c(t) mu_t^(-1/p) for p > q, and its max for p = q.  Exact whenever
    every per-atom direction problem hit a closed-form branch.
    """
    p, q, k = _finite_pair(p, q)
    T = kernel.relation.target
    effs = [fiber_effectiveness(kernel, t, q) for t in T.ids]
    value = _atom_norm(np.array([e.value for e in effs]), kernel, p, k)
    return NormResult(value, weakest_certificate(e.certificate for e in effs))


def _phi_terms(kernel: OperatorKernel, ids, p: float, q: float, k: float) -> np.ndarray:
    """Phi({t}) = (c(t) mu_t^(-1/p))^kappa for each atom of ``ids``, in
    that order: the one definition every set-function value and
    derivative is summed from."""
    T = kernel.relation.target
    terms = np.zeros(len(ids))
    for i, t in enumerate(ids):
        if not kernel.relation.fiber(t).size or (c := fiber_effectiveness(kernel, t, q).value) == 0.0:
            continue  # 0, whatever mu_t
        try:
            terms[i] = (c * T.weight(t) ** (-1.0 / p)) ** k
        except OverflowError:
            raise NonFiniteResultError(
                f"set function term of atom {t!r} is not finite (overflow in the arithmetic)"
            ) from None
    return terms


def _ordered_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added left to right, as a ``total +=`` loop adds
    them; np.sum adds pairwise, which changes the last bits."""
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def phi_value(kernel: OperatorKernel, subset, p, q) -> PhiValue:
    """The set function Phi(A) = ||M_F restricted to A||^kappa.

    Additive over disjoint subsets by construction (the decoupled norm
    is an atom-wise power sum, added here in the canonical atom order);
    undefined for p = q, where kappa is infinite.
    """
    p, q, k = _finite_pair(p, q)
    if math.isinf(k):
        raise UnsupportedExponentsError("the set function needs p > q (finite kappa)")
    T = kernel.relation.target
    subset = frozenset(subset)
    unknown = [t for t in subset if t not in T]
    if unknown:
        raise UnknownAtomError(f"unknown atoms {sorted(unknown)}")
    return PhiValue(subset, _ordered_sum(_phi_terms(kernel, sorted(subset), p, q, k)))


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
    p, q, k = _finite_pair(p, q)
    if math.isinf(k):
        raise UnsupportedExponentsError("the set function needs p > q (finite kappa)")
    T = kernel.relation.target
    terms = _phi_terms(kernel, T.ids, p, q, k)
    phi_total = PhiValue(frozenset(T.ids), _ordered_sum(terms)).value
    denom = phi_total if phi_total > 0 else 1.0
    moments = _derivatives(T.ids, terms, T.weights) * T.weights  # phi_derivative(t) * mu_t
    worst = 0.0
    for j in range(partitions):
        labels = random_partition_labels(len(T.ids), seed * 100003 + j)
        sizes = np.bincount(labels)
        blocks = np.flatnonzero(sizes)
        block_values = [_ordered_sum(terms[labels == b]) for b in blocks]
        worst = max(worst, abs(sum(block_values) - phi_total) / denom)
        inserted = moments[np.argsort(labels, kind="stable")].tolist()
        ends = np.cumsum(sizes[blocks]).tolist()
        prev = 0.0
        for b, end in zip(blocks, ends):
            current = _ordered_sum(terms[labels <= b])
            worst = max(worst, max(0.0, prev - current) / denom)
            prev = current
            # the builtin sum, as sum(phi_derivative(t) * mu_t for t in prefix)
            # adds (compensated from Python 3.12 on)
            deriv_sum = sum(inserted[:end])
            worst = max(worst, abs(deriv_sum - current) / denom)
    return worst


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

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
    already exact.  The kernel keeps c~ per (q, seed, samples); only the
    factors mu_t^(-1/p) are applied per call.
    """
    p, q, k = _finite_pair(p, q)
    n = int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    T = kernel.relation.target
    c = kernel.oracle_samples(q, seed, n)
    factors = np.zeros(len(T.ids))  # mu_t^(-1/p); 0 where c~ is 0, whatever mu_t
    for i, (t, w, nonzero) in enumerate(zip(T.ids, T.weights.tolist(), (c != 0.0).tolist())):
        try:
            factors[i] = w ** (-1.0 / p) if nonzero else 0.0
        except OverflowError:
            raise NonFiniteResultError(f"oracle factor of atom {t!r} is not finite (overflow in the arithmetic)") from None
    return float(power_sums(c * factors, k))


def section_ratios(
    kernel: OperatorKernel, p, q, n_sections: int = 200, seed: int = 0
) -> np.ndarray:
    """||M_F f|| / ||f|| for seeded random sections f (no optimization).

    Feeds the sufficiency checks: every ratio must stay below the
    criterion value.
    """
    p, q, _ = _finite_pair(p, q)
    n = int(n_sections)
    if n < 1:
        raise ValueError("n_sections must be >= 1")
    T = kernel.relation.target
    num = np.zeros(n)
    den = np.zeros(n)
    raws = {}
    for i, t in enumerate(T.ids):
        W = kernel.domain_family.norm(t)
        raw = substream(seed, SECTION_TAG, i).standard_normal((n, W.dim))
        raws[t] = raw
        den += T.weight(t) * W.row_norms(raw) ** p
    for (s, t), lam in zip(kernel.pairs, kernel.relation.weights.tolist()):
        out = kernel.codomain_family.norm(s)
        num += lam * out.row_norms(raws[t] @ kernel.matrix(s, t).T) ** q
    den = np.where(den > 0, den, 1.0)
    return num ** (1.0 / q) / den ** (1.0 / p)


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
    p, q, k = _finite_pair(p, q)
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
    return BoundednessReport(
        p=p,
        q=q,
        kappa=k,
        lower=lower.value,
        upper=upper.value,
        oracle=oracle,
        equality=equality,
        lower_certificate=lower.certificate,
        upper_certificate=upper.certificate,
    )
