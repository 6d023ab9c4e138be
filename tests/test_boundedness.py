"""Criteria, decoupled norm, set function, oracles, sandwich reports."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedop import (
    EXACT,
    LOWER_BOUND,
    NonFiniteResultError,
    AtomMap,
    DensityFn,
    FiberFamily,
    FiniteMeasureSpace,
    HypothesisViolationError,
    INF,
    OperatorKernel,
    Section,
    UnknownAtomError,
    UnsupportedExponentsError,
    WeightedRelation,
    criterion_general_result,
    criterion_uniform_bounds,
    direct_integral_norm,
    exact_norm_decoupled,
    fiber_effectiveness,
    graph_relation,
    kappa,
    oracle_norm_sampling,
    phi_derivative,
    phi_value,
    sandwich_report,
    section_ratios,
)
from mixedop import boundedness, kernels, mixedcomp
from mixedop.boundedness import phi_audit_violation
from mixedop.fibers import lp_measure_norm, power_sums
from mixedop.kernels import effectiveness_objective
from mixedop.generators import random_partition, random_split_mapping
from mixedop.rng import GENERATOR_TAG, ORACLE_TAG, substream

from builders import (
    bundled_kernel,
    identity_instance,
    random_graph_instance,
    random_instance,
    random_scalar_instance,
    random_subset,
    scalar_family,
    scaled,
)
from helpers import loop_sum, neumaier_sum, scalar_ratio_brute
from references import criterion_uniform_t

ROOT17 = 17.0 ** 0.25


class TestCriterionGeneral:
    def test_scalar_p4_q2(self):
        assert criterion_general_result(bundled_kernel("scalar17"), 4, 2).value == pytest.approx(ROOT17, rel=1e-15)

    def test_scalar_p_equals_q(self):
        assert criterion_general_result(bundled_kernel("scalar17"), 2, 2).value == pytest.approx(2.0, rel=1e-15)

    def test_zero_kernel(self):
        ker = bundled_kernel("scalar17")
        zero = OperatorKernel(
            ker.relation,
            ker.domain_family,
            ker.codomain_family,
            {p: [[0.0]] for p in ker.pairs},
        )
        assert criterion_general_result(zero, 4, 2).value == 0.0

    def test_rejects_p_less_than_q(self):
        with pytest.raises(UnsupportedExponentsError):
            criterion_general_result(bundled_kernel("scalar17"), 2, 4)


class TestCriterionUniformT:
    def test_identity_density(self):
        # rho = 1 and lambda_T = mu give criterion 1 for any p >= q
        # (for p > q the L^kappa norm of 1 needs unit total mass)
        T = FiniteMeasureSpace({f"a{i}": 0.25 for i in range(4)})
        S = FiniteMeasureSpace({f"a{i}": 0.25 for i in range(4)})
        psi = AtomMap(S, T, {i: i for i in S.ids})
        rel = graph_relation(psi)
        ker = OperatorKernel(
            rel, scalar_family(T), scalar_family(S), {p: [[1.0]] for p in rel.pairs}
        )
        rho = DensityFn({t: 1.0 for t in T.ids})
        for p, q in [(2, 2), (4, 2), (3, 1.5)]:
            assert criterion_uniform_t(ker, rho, p, q).value == pytest.approx(1.0, rel=1e-15)
        # p = q is mass-independent: ess-sup of 1 is 1
        big, _ = identity_instance(4)
        rho_big = DensityFn({t: 1.0 for t in big.relation.target.ids})
        assert criterion_uniform_t(big, rho_big, 2, 2).value == pytest.approx(1.0, rel=1e-15)

    def test_agrees_with_general(self):
        ker = bundled_kernel("scalar17")
        rho = DensityFn({"t1": 1.0, "t2": 2.0})
        got = criterion_uniform_t(ker, rho, 4, 2).value
        assert got == pytest.approx(criterion_general_result(ker, 4, 2).value, rel=1e-12)
        assert got == pytest.approx(ROOT17, rel=1e-12)

    def test_hypothesis_violation(self):
        # kernel norms vary across the fiber of t1, so no rho(t) exists
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t1", 1.0)])
        ker = OperatorKernel(
            rel, scalar_family(T), scalar_family(S),
            {("s1", "t1"): [[1.0]], ("s2", "t1"): [[2.0]]},
        )
        with pytest.raises(HypothesisViolationError):
            criterion_uniform_t(ker, DensityFn({"t1": 1.0}), 4, 2)


class TestCriterionGraph:
    def test_identity_recovers_decomposable_condition(self):
        ker, _ = identity_instance(2)
        assert criterion_general_result(ker, 2, 2).value == 1.0

    def test_injective_swap(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 4.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        psi = AtomMap(S, T, {"s1": "t2", "s2": "t1"})
        rel = graph_relation(psi)
        ker = OperatorKernel(
            rel, scalar_family(T), scalar_family(S), {p: [[1.0]] for p in rel.pairs}
        )
        assert criterion_general_result(ker, 2, 2).value == pytest.approx(2.0, rel=1e-15)
        # sampling oracle corroborates (scalar fibers: oracle is exact)
        assert oracle_norm_sampling(ker, 2, 2, 16, seed=0) == pytest.approx(2.0, rel=1e-12)


class TestCriterionUniformBounds:
    def _two_to_one(self, values=(1.0, 1.0)):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
        rel = graph_relation(psi)
        ker = OperatorKernel(
            rel, scalar_family(T), scalar_family(S),
            {("s1", "t1"): [[values[0]]], ("s2", "t1"): [[values[1]]]},
        )
        return ker, psi

    def test_two_to_one_sqrt2(self):
        ker, psi = self._two_to_one()
        c, C = 1.0, 1.0
        res = criterion_uniform_bounds(ker, psi, c, C, 2, 2)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
        true_norm = exact_norm_decoupled(ker, 2, 2).value
        assert true_norm == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert c * res.value <= true_norm <= C * res.value

    def test_identity_value_one(self):
        ker, psi = identity_instance(3)
        res = criterion_uniform_bounds(ker, psi, 1.0, 1.0, 2, 2)
        assert res.value == 1.0

    def test_norm_outside_bounds(self):
        ker, psi = self._two_to_one(values=(3.0, 1.0))
        with pytest.raises(HypothesisViolationError):
            criterion_uniform_bounds(ker, psi, 1.0, 2.0, 2, 2)

    def test_exact_where_the_matrix_norms_are_not(self):
        # the value reads only nu(psi^-1 t) and mu_t; ascent norms only check c <= ||P|| <= C
        weak = 0
        for seed in range(10):
            ker, psi = random_graph_instance(seed, max_atoms=8, max_dim=3, injective=False)
            norms = [ker.matrix_norm(s, t) for (s, t) in ker.pairs]
            weak += any(n.certificate == LOWER_BOUND for n in norms)
            values = [n.value for n in norms]
            for p, q in [(2, 2), (3, 2), (4, 1.5)]:
                res = criterion_uniform_bounds(ker, psi, min(values), max(values), p, q)
                assert res.certificate == EXACT
        assert weak > 0


FOLDED_PQ = [(2, 2), (3, 2), (4, 1.5), (2, 1), (1.5, 1.5), (7.3, 3)]


def _graph_reference(kernel, psi, p, q):
    """The graph criterion by its own formula: the L^kappa(T) norm of
    ||P(psi^-1(t), t)|| (lam / mu_t)^(1/q), 0 off the image of psi."""
    rel = kernel.relation
    T = rel.target
    inv = {psi(s): s for s in rel.source.ids}
    vals = np.zeros(len(T.ids))
    certs = []
    for i, t in enumerate(T.ids):
        s = inv.get(t)
        if s is None:
            continue
        r = kernel.matrix_norm(s, t)
        certs.append(r.certificate)
        vals[i] = r.value * (rel.weight(s, t) / T.weight(t)) ** (1.0 / q)
    return lp_measure_norm(vals, T.weights, kappa(p, q)), kernels.weakest_certificate(certs)


def _uniform_t_reference(kernel, rho, p, q):
    """The t-uniform criterion by its own formula: ||rho J^(1/q)||_{L^kappa(T)}
    with J = lam_t / mu_t the marginal density."""
    rel = kernel.relation
    T = rel.target
    lam_t = np.array([sum(rel.weights[rel.fiber(t)].tolist()) for t in T.ids])
    vals = np.array([rho[t] for t in T.ids]) * (lam_t / T.weights) ** (1.0 / q)
    return lp_measure_norm(vals, T.weights, kappa(p, q))


def _rho_instance(seed):
    """A random scalar instance rescaled so that ||P(s, t)|| = rho(t), with
    rho drawn from [0.5, 2] per target atom."""
    ker = random_scalar_instance(seed, max_atoms=12)
    T = ker.relation.target
    g = np.random.default_rng(seed)
    rho = {t: float(g.uniform(0.5, 2.0)) for t in T.ids}
    matrices = {(s, t): ker.matrix(s, t) * (rho[t] / ker.matrix_norm(s, t).value) for (s, t) in ker.pairs}
    return OperatorKernel(ker.relation, ker.domain_family, ker.codomain_family, matrices), DensityFn(rho)


class TestFoldedCriteriaMatchTheirFormulas:
    # the general criterion on an injective graph and the t-uniform criterion
    # agree with their own formulas up to rounding
    @pytest.mark.parametrize("seed", range(50))
    def test_graph(self, seed):
        ker, psi = random_graph_instance(seed, max_atoms=8, max_dim=3, injective=True)
        for p, q in FOLDED_PQ:
            got = criterion_general_result(ker, p, q)
            ref, cert = _graph_reference(ker, psi, p, q)
            assert abs(got.value - ref) <= 1e-14 * ref
            assert got.certificate == cert

    @pytest.mark.parametrize("seed", range(50))
    def test_uniform_t(self, seed):
        ker, rho = _rho_instance(seed)
        for p, q in FOLDED_PQ:
            ref = _uniform_t_reference(ker, rho, p, q)
            assert abs(criterion_uniform_t(ker, rho, p, q).value - ref) <= 1e-14 * ref


def test_uniform_t_carries_the_general_certificate():
    # kernels rescaled to ||P(s, t)|| = rho(t) on fibers whose norms need the ascent
    weak = 0
    for seed in range(10):
        ker = random_instance(seed, max_atoms=6, max_dim=3, exponents=(1.5, 3.0))
        rho = {t: 1.0 + i for i, t in enumerate(ker.relation.target.ids)}
        matrices = {(s, t): ker.matrix(s, t) * (rho[t] / ker.matrix_norm(s, t).value) for (s, t) in ker.pairs}
        ker = OperatorKernel(ker.relation, ker.domain_family, ker.codomain_family, matrices)
        for p, q in [(2, 2), (3, 2)]:
            got = criterion_uniform_t(ker, DensityFn(rho), p, q)
            assert got == criterion_general_result(ker, p, q)
            weak += got.certificate == LOWER_BOUND
    assert weak > 0


def _huge_target_identity():
    """The identity graph of three source atoms of mass 1 onto three target
    atoms of mass 1e308, scalar fibers, P = 1: a mu-weighted criterion sum
    would overflow, while every criterion and the exact norm equal
    3^(1/kappa) 1e-308^(1/p)."""
    S = FiniteMeasureSpace({f"s{i}": 1.0 for i in range(3)})
    T = FiniteMeasureSpace({f"t{i}": 1e308 for i in range(3)})
    psi = AtomMap(S, T, {f"s{i}": f"t{i}" for i in range(3)})
    rel = graph_relation(psi)
    ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {p: [[1.0]] for p in rel.pairs})
    return ker, psi, DensityFn({t: 1.0 for t in T.ids})


class TestNonFiniteCriteria:
    # the criteria share the decoupled norm's aggregate of value * mu_t^(-1/p),
    # so they raise only where the value itself is beyond the float range
    @pytest.mark.parametrize("pq", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("which", ["uniform_t", "uniform_bounds", "general"])
    def test_overflow_raises(self, pq, which):
        ker, psi, rho = _huge_target_identity()
        value = {
            "uniform_t": lambda: criterion_uniform_t(ker, rho, *pq).value,
            "uniform_bounds": lambda: criterion_uniform_bounds(ker, psi, 1.0, 1.0, *pq).value,
            "general": lambda: criterion_general_result(ker, *pq).value,
        }[which]()
        expected = {(2, 1): 1.7320508075688772e-154, (3, 2): 2.5873402367724796e-103}[pq]
        assert value == exact_norm_decoupled(ker, *pq).value == expected

    @pytest.mark.parametrize("compute, pq, message", [
        (exact_norm_decoupled, (1, 1), "norm term"),
        (criterion_general_result, (1, 1), "norm term"),
        (lambda ker, p, q: criterion_uniform_bounds(ker, _tiny_graph(ker), 1.0, 1.0, p, q), (1, 1), "norm term"),
        (lambda ker, p, q: oracle_norm_sampling(ker, p, q, 10), (1, 1), "oracle factor"),
        (lambda ker, p, q: phi_value(ker, ["t1", "t2"], p, q), (1.01, 1), "set function term"),
    ], ids=["exact_norm_decoupled", "criterion_general_result", "criterion_uniform_bounds",
            "oracle_norm_sampling", "phi_value"])
    def test_value_beyond_float_range_raises(self, compute, pq, message):
        # mu_t1 = 1e-320 and a nonzero term at t1: mu_t1^(-1/p) overflows
        with pytest.raises(NonFiniteResultError, match=f"^{message} of atom 't1' is not finite"):
            compute(_tiny_zero_atom_instance(1.0), *pq)

    @pytest.mark.parametrize("compute", [exact_norm_decoupled, criterion_general_result])
    def test_product_beyond_float_range_raises(self, compute):
        # mu_t1^(-1/2) = 1e150 is finite; times the value 1e200 it is not
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1e-300})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0)])
        ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t1"): [[1e200]]})
        with pytest.raises(NonFiniteResultError, match="^norm term of atom 't1' is not finite"):
            compute(ker, 2, 2)

    def test_exact_norm_stays_finite(self):
        ker, _, _ = _huge_target_identity()
        assert exact_norm_decoupled(ker, 2, 1).value == 1.7320508075688772e-154


class TestExactNormDecoupled:
    def test_scalar_17_matches_brute_force(self):
        ker = bundled_kernel("scalar17")
        res = exact_norm_decoupled(ker, 4, 2)
        assert res.certificate == EXACT
        assert res.value == pytest.approx(ROOT17, rel=1e-15)
        # independent oracle: dense scan over magnitude profiles
        assert res.value == pytest.approx(scalar_ratio_brute(ker, 4, 2), rel=1e-9)

    def test_identity_norm_one(self):
        ker, _ = identity_instance(5, dim=2)
        assert exact_norm_decoupled(ker, 2, 2).value == 1.0

    def test_projection_gap(self):
        ker = bundled_kernel("projection_gap")
        res = exact_norm_decoupled(ker, 2, 2)
        upper = criterion_general_result(ker, 2, 2).value
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_scalar_brute_force_random(self):
        # dense magnitude scan on random two-target scalar instances
        for seed in range(10):
            S = FiniteMeasureSpace({"s1": 1.0, "s2": 0.7})
            T = FiniteMeasureSpace({"t1": 0.9, "t2": 1.3})
            g = np.random.default_rng(seed)
            pairs = [
                ("s1", "t1", float(g.uniform(0.2, 2.0))),
                ("s2", "t1", float(g.uniform(0.2, 2.0))),
                ("s1", "t2", float(g.uniform(0.2, 2.0))),
            ]
            rel = WeightedRelation(S, T, pairs)
            ker = OperatorKernel(
                rel, scalar_family(T), scalar_family(S),
                {(s, t): [[float(g.standard_normal())]] for (s, t) in rel.pairs},
            )
            for p, q in [(4, 2), (3, 1.5), (2, 2)]:
                res = exact_norm_decoupled(ker, p, q)
                assert res.value == pytest.approx(scalar_ratio_brute(ker, p, q), rel=1e-8)


def _tiny_empty_atom_instance():
    """T = {t1: 1e-320, t2: 1}; only t2 has a pair, (s1, t2, 1), with
    identity scalar l2 fibers: the norm is 1 for every p >= q."""
    S = FiniteMeasureSpace({"s1": 1.0})
    T = FiniteMeasureSpace({"t1": 1e-320, "t2": 1.0})
    rel = WeightedRelation(S, T, [("s1", "t2", 1.0)])
    return OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t2"): [[1.0]]})


def _tiny_zero_atom_instance(entry: float = 0.0):
    """T = {t1: 1e-320, t2: 1}; pairs (s1, t1, 1) with [[entry]] and
    (s2, t2, 1) with [[1]], scalar l2 fibers: with entry 0 the fiber of
    t1 is nonempty but adds 0, and the norm is 1 for every p >= q."""
    S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
    T = FiniteMeasureSpace({"t1": 1e-320, "t2": 1.0})
    rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t2", 1.0)])
    return OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t1"): [[entry]], ("s2", "t2"): [[1.0]]})


def _tiny_graph(kernel) -> AtomMap:
    """The map s_i -> t_i whose graph is the relation of ``_tiny_zero_atom_instance``."""
    rel = kernel.relation
    return AtomMap(rel.source, rel.target, {"s1": "t1", "s2": "t2"})


class TestEmptyFiberTerm:
    # mu_t1^(-1/r) overflows; the empty fiber of t1 must still add exactly 0
    def test_criterion_and_exact_norm(self):
        ker = _tiny_empty_atom_instance()
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            assert exact_norm_decoupled(ker, p, q) == criterion_general_result(ker, p, q)
            assert exact_norm_decoupled(ker, p, q).value == 1.0
            assert oracle_norm_sampling(ker, p, q, 10) == 1.0

    def test_set_function(self):
        ker = _tiny_empty_atom_instance()
        assert phi_value(ker, ["t1"], 1.01, 1).value == 0.0
        assert phi_value(ker, ["t1", "t2"], 1.01, 1).value == 1.0
        assert phi_audit_violation(ker, 1.01, 1, 5, 0) == 0.0


class TestZeroFiberTerm:
    # mu_t1^(-1/r) overflows; the nonempty fiber of t1 whose matrix is 0 must add exactly 0
    def test_criterion_exact_norm_and_oracle(self):
        ker = _tiny_zero_atom_instance()
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            assert exact_norm_decoupled(ker, p, q) == criterion_general_result(ker, p, q)
            assert exact_norm_decoupled(ker, p, q).value == 1.0
            assert oracle_norm_sampling(ker, p, q, 10) == 1.0

    def test_set_function(self):
        ker = _tiny_zero_atom_instance()
        assert phi_value(ker, ["t1"], 1.01, 1).value == 0.0
        assert phi_audit_violation(ker, 1.01, 1, 5, 0) == 0.0

    def test_oracle_names_an_overflowing_nonzero_row(self):
        with pytest.raises(NonFiniteResultError, match="oracle factor of atom 't1' is not finite"):
            oracle_norm_sampling(_tiny_zero_atom_instance(1.0), 1, 1, 10)


class TestPhi:
    def test_scalar_17_values(self):
        ker = bundled_kernel("scalar17")
        assert phi_value(ker, ["t1"], 4, 2).value == pytest.approx(1.0, rel=1e-15)
        assert phi_value(ker, ["t2"], 4, 2).value == pytest.approx(16.0, rel=1e-15)
        assert phi_value(ker, ["t1", "t2"], 4, 2).value == pytest.approx(17.0, rel=1e-15)

    def test_empty_subset(self):
        assert phi_value(bundled_kernel("scalar17"), [], 4, 2).value == 0.0

    def test_monotone(self):
        ker = bundled_kernel("scalar17")
        assert phi_value(ker, ["t1"], 4, 2).value <= phi_value(ker, ["t1", "t2"], 4, 2).value

    def test_p_equals_q_rejected(self):
        with pytest.raises(UnsupportedExponentsError):
            phi_value(bundled_kernel("scalar17"), ["t1"], 2, 2)

    def test_restricted_oracle_cross_check(self):
        # Phi(A) equals the sampled norm of the restricted instance, to kappa
        ker = bundled_kernel("scalar17")
        for subset in (["t1"], ["t2"], ["t1", "t2"]):
            restricted = ker.restrict_targets(subset)
            sampled = oracle_norm_sampling(restricted, 4, 2, 32, seed=5)
            assert phi_value(ker, subset, 4, 2).value == pytest.approx(sampled ** 4.0, rel=1e-12)

    def test_consistency_with_norm(self):
        for seed in range(5):
            ker = random_instance(seed, max_atoms=5, max_dim=3)
            norm = exact_norm_decoupled(ker, 3, 1.5).value
            k = 3.0 * 1.5 / 1.5
            assert phi_value(ker, ker.relation.target.ids, 3, 1.5).value == pytest.approx(
                norm ** k, rel=1e-9
            )


class TestPhiDerivative:
    def test_scalar_17(self):
        ker = bundled_kernel("scalar17")
        assert phi_derivative(ker, "t1", 4, 2) == pytest.approx(1.0, rel=1e-15)
        assert phi_derivative(ker, "t2", 4, 2) == pytest.approx(16.0, rel=1e-15)

    def test_integrates_back_to_total(self):
        ker = bundled_kernel("scalar17")
        T = ker.relation.target
        total = sum(phi_derivative(ker, t, 4, 2) * T.weight(t) for t in T.ids)
        assert total == pytest.approx(17.0, rel=1e-15)

    def test_rescaled_atom(self):
        ker = bundled_kernel("scalar17")
        T2 = FiniteMeasureSpace({"t1": 2.0, "t2": 1.0})
        S = ker.relation.source
        rel = WeightedRelation(S, T2, [(s, t, w) for s, t, w in ker.relation.items()])
        ker2 = OperatorKernel(
            rel, scalar_family(T2), ker.codomain_family,
            {p: ker.matrix(*p) for p in rel.pairs},
        )
        assert phi_derivative(ker2, "t1", 4, 2) == pytest.approx(
            phi_value(ker2, ["t1"], 4, 2).value / 2.0, rel=1e-15
        )

    def test_overflowing_quotient_is_an_error(self):
        # Phi({t1}) = (2 * (1e-200)^(-1/4))^4 = 1.6e201 is finite; Phi({t1}) / mu_t1 is not
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 4.0})
        T = FiniteMeasureSpace({"t1": 1e-200, "t2": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t2", 1.0), ("s2", "t1", 4.0)])
        ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {pr: [[1.0]] for pr in rel.pairs})
        assert phi_value(ker, ["t1"], 4, 2).value == pytest.approx(1.6e201, rel=1e-14)
        assert phi_derivative(ker, "t2", 4, 2) == pytest.approx(1.0, rel=1e-15)
        message = "set function derivative of atom 't1' is not finite"
        with pytest.raises(NonFiniteResultError, match=message):
            phi_derivative(ker, "t1", 4, 2)
        with pytest.raises(NonFiniteResultError, match=message):
            phi_audit_violation(ker, 4, 2, 3, 0)


def _reference_phi_value(kernel, subset, p, q) -> float:
    """Phi(A) added term by term over the sorted subset."""
    k = kappa(p, q)
    T = kernel.relation.target
    total = 0.0
    for t in sorted(frozenset(subset)):
        c = fiber_effectiveness(kernel, t, q).value
        total += (c * T.weight(t) ** (-1.0 / p)) ** k
    return total


def _reference_phi_derivative(kernel, t_id, p, q) -> float:
    return _reference_phi_value(kernel, [t_id], p, q) / kernel.relation.target.weight(t_id)


def _reference_partition(ids, seed: int) -> list[list[str]]:
    """The blocks of random_partition, built label by label."""
    ids = list(ids)
    g = substream(seed, GENERATOR_TAG, 11)
    k = int(g.integers(1, 5))
    labels = g.integers(k, size=len(ids))
    blocks = [[i for i, lab in zip(ids, labels) if lab == b] for b in range(k)]
    return [b for b in blocks if b]


def _reference_phi_audit(kernel, p: float, q: float, partitions: int, seed: int) -> float:
    """The audit as one phi_value / phi_derivative call per block, prefix
    and atom: the loop phi_audit_violation must reproduce bit for bit."""
    ids = list(kernel.relation.target.ids)
    mu = kernel.relation.target
    phi_total = _reference_phi_value(kernel, ids, p, q)
    denom = phi_total if phi_total > 0 else 1.0
    worst = 0.0
    for k in range(partitions):
        blocks = _reference_partition(ids, seed * 100003 + k)
        block_values = [_reference_phi_value(kernel, b, p, q) for b in blocks]
        worst = max(worst, abs(loop_sum(block_values) - phi_total) / denom)
        prefix: list[str] = []
        prev = 0.0
        for block in blocks:
            prefix.extend(block)
            current = _reference_phi_value(kernel, prefix, p, q)
            worst = max(worst, max(0.0, prev - current) / denom)
            prev = current
            deriv_sum = loop_sum(_reference_phi_derivative(kernel, t, p, q) * mu.weight(t) for t in prefix)
            worst = max(worst, abs(deriv_sum - current) / denom)
    return worst


PQ_ABOVE = [(4.0, 2.0), (3.0, 2.0), (3.0, 1.5), (2.0, 1.0), (4.0, 3.0), (6.0, 1.5), (2.5, 1.0)]


def _phi_instance(seed: int, scalar: bool):
    if scalar:
        return random_scalar_instance(seed, max_atoms=40)
    return random_instance(seed, max_atoms=10, max_dim=3)


class TestPhiAudit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scalar=st.booleans(),
        pq=st.sampled_from(PQ_ABOVE),
        partitions=st.integers(1, 10),
        audit_seed=st.integers(0, 10**4),
    )
    def test_equals_reference_loop(self, seed, scalar, pq, partitions, audit_seed):
        ker = _phi_instance(seed, scalar)
        p, q = pq
        got = phi_audit_violation(ker, p, q, partitions, audit_seed)
        assert got == _reference_phi_audit(ker, p, q, partitions, audit_seed)
        ids = ker.relation.target.ids
        subset = ids[::2]
        assert phi_value(ker, subset, p, q).value == _reference_phi_value(ker, subset, p, q)
        assert phi_derivative(ker, ids[-1], p, q) == _reference_phi_derivative(ker, ids[-1], p, q)

    def test_partition_matches_reference(self):
        ids = [f"t{i:03d}" for i in range(50)]
        for seed in range(20):
            assert random_partition(ids, seed) == _reference_partition(ids, seed)

    def test_p_equals_q_rejected(self):
        with pytest.raises(UnsupportedExponentsError):
            phi_audit_violation(bundled_kernel("scalar17"), 2, 2, 5, 0)

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtomError, match=r"unknown atoms \['zz'\]"):
            phi_value(bundled_kernel("scalar17"), ["t1", "zz"], 4, 2)

    @pytest.mark.parametrize("p, q, reason", [
        (2, 2, "p=q: set function undefined (kappa=inf)"),
        (math.inf, math.inf, "p=inf out of scope"),
        (2, 4, "p<q out of supported scope"),
    ])
    def test_refusal_is_the_rejected_reason(self, p, q, reason):
        anchored = f"^{re.escape(reason)}$"
        with pytest.raises(UnsupportedExponentsError, match=anchored):
            phi_value(bundled_kernel("scalar17"), ["t1"], p, q)
        with pytest.raises(UnsupportedExponentsError, match=anchored):
            phi_audit_violation(bundled_kernel("scalar17"), p, q, 5, 0)


class TestSummationOrder:
    """The audit value and the slice volume derivatives add left to right,
    so they do not depend on the Python version: from 3.12 on the builtin
    sum is compensated."""

    def test_values_do_not_move_under_a_compensated_builtin_sum(self, monkeypatch):
        # both moved under this patch while they added with the builtin sum
        ker = random_instance(8, max_atoms=60, max_dim=2)
        phi = random_split_mapping(2, max_slice=8)

        def values():
            J_psi, J_u = mixedcomp.slice_volume_derivatives(phi)
            return phi_audit_violation(ker, 3, 2, 20, 0), J_psi.items(), J_u.items()

        before = values()
        for module in (boundedness, mixedcomp):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        assert values() == before


def _scaled_lambda(ker, c: float):
    rel = ker.relation
    weighted = WeightedRelation(rel.source, rel.target, [(s, t, c * w) for s, t, w in rel.items()])
    return OperatorKernel(weighted, ker.domain_family, ker.codomain_family, {pr: ker.matrix(*pr) for pr in rel.pairs})


def _scaled_mu(ker, c: float):
    rel = ker.relation
    T = FiniteMeasureSpace({t: c * w for t, w in rel.target.items()})
    moved = WeightedRelation(rel.source, T, list(rel.items()))
    W = FiberFamily(T, {t: ker.domain_family.norm(t) for t in T.ids})
    return OperatorKernel(moved, W, ker.codomain_family, {pr: ker.matrix(*pr) for pr in rel.pairs})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), scalar=st.booleans(), pq=st.sampled_from(PQ_ABOVE))
def test_phi_of_T_is_the_decoupled_norm_to_kappa(seed, scalar, pq):
    # same value and same certificate: Phi(T) = ||M_F||^kappa, both from the c(t)
    ker = _phi_instance(seed, scalar)
    p, q = pq
    phi = phi_value(ker, ker.relation.target.ids, p, q)
    norm = exact_norm_decoupled(ker, p, q)
    assert phi.certificate == norm.certificate
    assert phi.value ** (1.0 / kappa(p, q)) == pytest.approx(norm.value, rel=1e-12, abs=0.0)


class TestPhiMetamorphic:
    """Scaling laws of Phi on exact-certificate (scalar-fiber) instances."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        pq=st.sampled_from(PQ_ABOVE),
        c=st.sampled_from([1e-3, 0.5, 2.0, 3.7, 250.0]),
        subset_seed=st.integers(0, 10**4),
    )
    def test_scaling_laws(self, seed, pq, c, subset_seed):
        ker = random_scalar_instance(seed, max_atoms=20)
        p, q = pq
        k = kappa(p, q)
        assert exact_norm_decoupled(ker, p, q).certificate == EXACT
        subset = random_subset(ker.relation.target.ids, subset_seed)
        base = phi_value(ker, subset, p, q).value
        lam = phi_value(_scaled_lambda(ker, c), subset, p, q).value
        assert lam == pytest.approx(c ** (k / q) * base, rel=1e-12, abs=0.0)
        mu = phi_value(_scaled_mu(ker, c), subset, p, q).value
        assert mu == pytest.approx(c ** (-k / p) * base, rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), pq=st.sampled_from(PQ_ABOVE), subset_seed=st.integers(0, 10**4))
    def test_monotone_under_one_more_atom(self, seed, pq, subset_seed):
        ker = random_scalar_instance(seed, max_atoms=20)
        p, q = pq
        ids = ker.relation.target.ids
        subset = random_subset(ids, subset_seed)
        smaller = phi_value(ker, subset, p, q).value
        for t in ids:
            assert smaller <= phi_value(ker, [*subset, t], p, q).value


def _renamed(ker):
    """The same instance with every atom renamed so that the order of
    each space, and so every fiber order and sum order, is reversed."""
    rel = ker.relation

    def names(space, prefix):
        return {a: f"{prefix}{len(space.ids) - i:04d}" for i, a in enumerate(space.ids)}

    sn, tn = names(rel.source, "u"), names(rel.target, "v")
    S = FiniteMeasureSpace({sn[a]: w for a, w in rel.source.items()})
    T = FiniteMeasureSpace({tn[a]: w for a, w in rel.target.items()})
    W = FiberFamily(T, {tn[t]: ker.domain_family.norm(t) for t in rel.target.ids})
    V = FiberFamily(S, {sn[s]: ker.codomain_family.norm(s) for s in rel.source.ids})
    renamed = WeightedRelation(S, T, [(sn[s], tn[t], w) for s, t, w in rel.items()])
    return OperatorKernel(renamed, W, V, {(sn[s], tn[t]): ker.matrix(s, t) for s, t in rel.pairs})


# exact-certificate families: scalar fibers at any q, exponent-1 fibers
# at any q (vertex closed forms), l2 fibers at q = 2 (eigenvalue closed form)
_EXACT_FAMILIES = {
    "scalar": (lambda seed: random_scalar_instance(seed, max_atoms=12), PQ_ABOVE + [(2.0, 2.0)]),
    "l1": (lambda seed: random_instance(seed, exponents=(1.0,)), PQ_ABOVE + [(1.5, 1.5)]),
    "l2": (lambda seed: random_instance(seed, exponents=(2.0,)), [(2.0, 2.0), (3.0, 2.0), (4.0, 2.0), (6.0, 2.0)]),
}


class TestNormMetamorphic:
    """Laws of the exact norm and the general criterion on
    exact-certificate instances, each to 1e-12 relative."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(_EXACT_FAMILIES)),
        seed=st.integers(0, 10**6),
        pick=st.integers(0, 10**3),
        c=st.sampled_from([1e-3, 0.5, 2.0, 3.7, 250.0]),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_laws(self, family, seed, pick, c, sign):
        make, pqs = _EXACT_FAMILIES[family]
        ker = make(seed)
        p, q = pqs[pick % len(pqs)]

        def both(kernel):
            results = exact_norm_decoupled(kernel, p, q), criterion_general_result(kernel, p, q)
            assert all(r.certificate == EXACT for r in results)
            return np.array([r.value for r in results])

        base = both(ker)
        close = dict(rel=1e-12, abs=0.0)
        assert both(_scaled_lambda(ker, c)) == pytest.approx(c ** (1.0 / q) * base, **close)
        assert both(_scaled_mu(ker, c)) == pytest.approx(c ** (-1.0 / p) * base, **close)
        assert both(scaled(ker, sign * c)) == pytest.approx(c * base, **close)
        assert both(_renamed(ker)) == pytest.approx(base, **close)
        norm, criterion = base
        assert criterion >= norm * (1.0 - 1e-12)


def _reference_atom_norm(kernel, values, p, q) -> float:
    """The decoupled aggregate as one loop over atoms: each value times a
    Python-float mu_t^(-1/p), 0 for a zero value, through power_sums."""
    T = kernel.relation.target
    x = []
    for t, v in zip(T.ids, values):
        x.append(v * T.weight(t) ** (-1.0 / p) if v != 0.0 else 0.0)
    return float(power_sums(x, kappa(p, q)))


def _reference_norm_sum(kernel, t, q) -> float:
    """(sum_{s in F_t} lam_st ||P(s, t)||^q)^(1/q), one fiber at a time."""
    rel = kernel.relation
    fiber = rel.fiber(t)
    norms = [kernel.matrix_norm(*kernel.pairs[i]).value for i in fiber.tolist()]
    return float(power_sums(np.array(norms), q, rel.weights[fiber]))


class TestSharedAtomTerm:
    # the norm and the criterion share the oracle's route: value * mu_t^(-1/p) in Python's float **
    @pytest.mark.parametrize("p, q", [(p, q) for p in (1.0, 1.5, 2.0, 3.0, 4.0) for q in (1.0, 1.5, 2.0, 3.0, 4.0) if q <= p])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6), scalar=st.booleans())
    def test_equals_reference_loop(self, p, q, seed, scalar):
        ker = _phi_instance(seed, scalar)
        T = ker.relation.target
        effs = [fiber_effectiveness(ker, t, q).value for t in T.ids]
        sums = [_reference_norm_sum(ker, t, q) for t in T.ids]
        assert exact_norm_decoupled(ker, p, q).value == _reference_atom_norm(ker, effs, p, q)
        assert criterion_general_result(ker, p, q).value == _reference_atom_norm(ker, sums, p, q)


def _reference_oracle(kernel, p, q, n, seed):
    """The sampling oracle as one loop over atoms with every value
    recomputed per call: each atom's best sample times a Python-float
    mu_t^(-1/p), through the decoupled norm's aggregate.  The kernel's
    kept values must reproduce it bit for bit."""
    T = kernel.relation.target
    best = _reference_samples(kernel, q, n, seed).max(axis=1)
    x = np.zeros(len(T.ids))
    for i, t in enumerate(T.ids):
        if best[i] != 0.0:
            x[i] = best[i] * T.weight(t) ** (-1.0 / p)
    return float(power_sums(x, kappa(p, q)))


def _column_oracle(kernel, p, q, n, seed):
    """The sampling oracle by columns: sample j puts its own direction at
    every atom, the magnitude profile is optimized per column, and the
    best column wins.  Never above the per-atom oracle in exact
    arithmetic, since each atom's best sample beats its sample j."""
    k = kappa(p, q)
    T = kernel.relation.target
    C = _reference_samples(kernel, q, n, seed)
    X = np.zeros((len(T.ids), n))
    for i, t in enumerate(T.ids):
        if kernel.relation.fiber(t).size:
            X[i] = C[i] * T.weight(t) ** (-1.0 / p)
    if math.isinf(k):
        return float(np.max(X.max(axis=0)))
    M = X.max(axis=0)
    safe = np.where(M > 0, M, 1.0)
    return float(np.max(M * np.sum((X / safe) ** k, axis=0) ** (1.0 / k)))


def _reference_samples(kernel, q, n, seed):
    """The oracle's p-free values, every target's n directions drawn and
    reduced in one block."""
    T = kernel.relation.target
    C = np.zeros((len(T.ids), n))
    for i, t in enumerate(T.ids):
        if not kernel.relation.fiber(t).size:
            continue
        W = kernel.domain_family.norm(t)
        raw = substream(seed, ORACLE_TAG, i).standard_normal((n, W.dim))
        norms = W.row_norms(raw)
        dead = norms == 0
        if np.any(dead):
            raw = raw.copy()
            raw[dead] = 0.0
            raw[dead, 0] = 1.0
            norms = W.row_norms(raw)
        E = raw / norms[:, None]
        C[i] = effectiveness_objective(kernel, t, q)(E)
    return C


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        instance=st.integers(0, 10_000),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 7, 64]),
    )
    def test_kept_samples_equal_reference(self, instance, q, seed, n):
        ps = [q, 1.5 * q, 3.0 * q]
        for order in (ps, ps[::-1]):
            ker = random_instance(instance, max_atoms=6, max_dim=3, density=0.5)
            for p in order:
                assert oracle_norm_sampling(ker, p, q, n, seed) == _reference_oracle(ker, p, q, n, seed)
        # another q, seed or sample count must not read the kept entry
        for other_q, other_seed, other_n in ((1.5 * q, seed, n), (q, seed + 1, n), (q, seed, n + 1)):
            got = oracle_norm_sampling(ker, 3.0 * q, other_q, other_n, other_seed)
            assert got == _reference_oracle(ker, 3.0 * q, other_q, other_n, other_seed)

    @settings(max_examples=30, deadline=None)
    @given(
        instance=st.integers(0, 10_000),
        q=st.sampled_from([1.0, 2.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([4, 5, 64]),
    )
    def test_chunked_samples_equal_unchunked_reference(self, instance, q, seed, chunk):
        ker = random_instance(instance, max_atoms=5, max_dim=4, density=0.6)
        with mock.patch.object(kernels, "ORACLE_CHUNK", chunk):
            for n in (chunk, chunk + 1, 2 * chunk + 7):
                assert np.array_equal(ker.oracle_samples(q, seed, n), _reference_samples(ker, q, n, seed).max(axis=1))

    def test_chunk_constant_is_crossed_exactly(self):
        assert kernels.ORACLE_CHUNK >= 65_536
        # a one-row last piece would differ in the last bit on some of these
        for instance in range(8):
            ker = random_instance(instance, max_atoms=4, max_dim=4, density=1.0)
            n = kernels.ORACLE_CHUNK + 1
            assert np.array_equal(ker.oracle_samples(2.0, 5, n), _reference_samples(ker, 2.0, n, 5).max(axis=1))
        n = 2 * kernels.ORACLE_CHUNK + 7
        assert np.array_equal(ker.oracle_samples(3.0, 5, n), _reference_samples(ker, 3.0, n, 5).max(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(
        instance=st.integers(0, 10_000),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        ratio=st.sampled_from([1.0, 1.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 7, 64]),
    )
    def test_per_atom_between_column_oracle_and_norm(self, instance, q, ratio, seed, n):
        ker = random_instance(instance, max_atoms=6, max_dim=3, density=0.5)
        p = ratio * q
        got = oracle_norm_sampling(ker, p, q, n, seed)
        columns = _column_oracle(ker, p, q, n, seed)
        if p == q:
            assert got == columns
        else:
            # equal in exact arithmetic when one column holds every atom's
            # best sample (scalar fibers); the two aggregates round apart
            assert got >= columns * (1.0 - 1e-15)
        lower = exact_norm_decoupled(ker, p, q)
        slack = (1e-9 if lower.certificate == EXACT else 1e-6) * max(lower.value, 1.0)
        assert got <= lower.value + slack

    def test_identity_is_exact_at_any_sample_count(self):
        ker, _ = identity_instance(4, dim=2)
        assert oracle_norm_sampling(ker, 2, 2, 1, seed=0) == pytest.approx(1.0, rel=1e-12)
        assert oracle_norm_sampling(ker, 2, 2, 64, seed=9) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_exactness(self):
        ker = bundled_kernel("scalar17")
        got = oracle_norm_sampling(ker, 4, 2, 10, seed=123)
        assert got == pytest.approx(ROOT17, rel=1e-12)

    def test_bitwise_determinism(self):
        ker = random_instance(3, max_atoms=6, max_dim=3)
        a = oracle_norm_sampling(ker, 3, 2, 500, seed=42)
        b = oracle_norm_sampling(ker, 3, 2, 500, seed=42)
        assert a == b
        # on an instance where direction matters, seeds explore differently
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0)])
        from mixedop import FiberFamily, NormSpec

        fam2 = lambda base: FiberFamily(base, {i: NormSpec(2, [1.0, 1.0]) for i in base.ids})
        ker2 = OperatorKernel(rel, fam2(T), fam2(S), {("s1", "t1"): [[1.0, 0.0], [0.0, 0.5]]})
        x = oracle_norm_sampling(ker2, 2, 2, 50, seed=42)
        y = oracle_norm_sampling(ker2, 2, 2, 50, seed=43)
        assert x != y

    def test_lower_bound_property(self):
        for seed in range(10):
            ker = random_instance(seed, max_atoms=5, max_dim=3)
            for p, q in [(4, 2), (2, 2)]:
                oracle = oracle_norm_sampling(ker, p, q, 200, seed=seed)
                lower = exact_norm_decoupled(ker, p, q)
                slack = (1e-9 if lower.certificate == EXACT else 1e-6) * max(lower.value, 1.0)
                assert oracle <= lower.value + slack


class TestSufficiency:
    def test_random_sections_below_criterion(self):
        for seed in range(20):
            ker = random_instance(seed, max_atoms=6, max_dim=4)
            for p, q in [(4, 2), (2, 2), (3, 1.5)]:
                crit = criterion_general_result(ker, p, q).value
                ratios = section_ratios(ker, p, q, 200, seed=seed + 1000)
                assert float(np.max(ratios)) <= crit + 1e-9 * max(crit, 1.0)

    @pytest.mark.parametrize("build", [random_scalar_instance, random_instance])
    def test_random_sections_below_exact_decoupled_norm(self, build):
        # the decoupling checked through M f itself: no section beats an exact norm
        exact = 0
        for seed in range(100):
            ker = build(seed)
            for p, q in [(4, 2), (2, 2), (3, 1.5), (2, 1)]:
                norm = exact_norm_decoupled(ker, p, q)
                if norm.certificate == EXACT:
                    exact += 1
                    assert float(np.max(section_ratios(ker, p, q, 200, seed=seed))) <= norm.value * (1 + 1e-12)
        assert exact >= 20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [2000, 1e6])
    def test_large_exponents_give_true_ratios(self, p):
        # sum_t mu_t ||f_t||^p overflows for such p; the max-factored sums do not
        ker = bundled_kernel("scalar17")
        crit = criterion_general_result(ker, p, 2).value
        ratios = section_ratios(ker, p, 2, 200, seed=1)
        assert ratios.min() > 0.0
        assert ratios.max() <= crit * (1 + 1e-9)

    def test_zero_sections_give_zero(self):
        # over an empty target space every section is zero, and so is its ratio
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({})
        ker = OperatorKernel(WeightedRelation(S, T, []), scalar_family(T), scalar_family(S), {})
        assert section_ratios(ker, 2, 2, 3).tolist() == [0.0, 0.0, 0.0]


class TestSectionNorms:
    @pytest.mark.parametrize("seed", range(200))
    def test_stacked_norm_is_direct_integral_norm_bit_for_bit(self, seed):
        # each row of a stack of sections is normed exactly as the section alone
        ker = random_instance(seed)
        W = ker.domain_family
        g = substream(seed, 70)
        sections = [Section({t: g.standard_normal(W.dim(t)) for t in W.base.ids}) for _ in range(5)]
        F = [np.array([f[t] for f in sections]) for t in W.base.ids]
        for p in (1, 1.5, 2, 3, 7, INF):
            _, norms = boundedness._section_norms(ker, F, p, 1.0)
            assert norms.tolist() == [direct_integral_norm(f, W, p) for f in sections]

    @pytest.mark.parametrize("count", [True, 2.7, 2.0, "3", 0])
    def test_sample_counts_are_integers(self, count):
        ker = bundled_kernel("scalar17")
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            oracle_norm_sampling(ker, 4, 2, count)
        with pytest.raises(ValueError, match="n_sections must be an integer >= 1"):
            section_ratios(ker, 4, 2, count)

    def test_numpy_integer_counts_are_accepted(self):
        ker = bundled_kernel("scalar17")
        assert oracle_norm_sampling(ker, 4, 2, np.int64(3)) == oracle_norm_sampling(ker, 4, 2, 3)
        assert section_ratios(ker, 4, 2, np.int32(2)).tolist() == section_ratios(ker, 4, 2, 2).tolist()


class TestSandwichReport:
    def test_scalar_equality(self):
        rep = sandwich_report(bundled_kernel("scalar17"), 4, 2, 100, seed=1)
        assert rep.equality
        assert rep.lower.value == pytest.approx(ROOT17, rel=1e-12)
        assert rep.upper.value == pytest.approx(ROOT17, rel=1e-12)

    def test_projection_gap_reports_gap(self):
        rep = sandwich_report(bundled_kernel("projection_gap"), 2, 2, 500, seed=2)
        assert not rep.equality
        assert rep.lower.value == pytest.approx(1.0, abs=1e-6)
        assert rep.upper.value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_graph_instances_have_equality(self):
        for seed in range(10):
            ker, _ = random_graph_instance(seed, max_atoms=8, max_dim=3, injective=True)
            rep = sandwich_report(ker, 3, 2, 50, seed=seed)
            assert rep.equality

    def test_scalar_instances_have_equality(self):
        for seed in range(10):
            ker = random_scalar_instance(seed, max_atoms=10)
            rep = sandwich_report(ker, 4, 2, 50, seed=seed)
            assert rep.equality

    def test_aligned_kernels_have_equality(self):
        # all kernels at one atom are scalar multiples of a fixed matrix,
        # so a single direction maximizes every one of them at once
        from mixedop import FiberFamily, NormSpec
        from mixedop.rng import substream

        g = substream(71, 0)
        for trial in range(5):
            S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.5, "s3": 0.5})
            T = FiniteMeasureSpace({"t1": 1.0, "t2": 2.0})
            base = {t: g.standard_normal((2, 2)) for t in T.ids}
            pairs, mats = [], {}
            for s in S.ids:
                for t in T.ids:
                    pairs.append((s, t, float(g.uniform(0.2, 2.0))))
                    mats[(s, t)] = float(g.uniform(0.2, 3.0)) * base[t]
            rel = WeightedRelation(S, T, pairs)
            fam2 = lambda sp: FiberFamily(sp, {i: NormSpec(2, [1.0, 1.0]) for i in sp.ids})
            ker = OperatorKernel(rel, fam2(T), fam2(S), mats)
            rep = sandwich_report(ker, 4, 2, 100, seed=trial)
            assert rep.equality, (trial, rep.lower.value, rep.upper.value)

    def test_homogeneity(self):
        ker = random_instance(7, max_atoms=5, max_dim=3)
        rep1 = sandwich_report(ker, 4, 2, 100, seed=3)
        rep2 = sandwich_report(scaled(ker, 2.5), 4, 2, 100, seed=3)
        assert rep2.lower.value == pytest.approx(2.5 * rep1.lower.value, rel=1e-12)
        assert rep2.upper.value == pytest.approx(2.5 * rep1.upper.value, rel=1e-12)
        assert rep2.oracle == pytest.approx(2.5 * rep1.oracle, rel=1e-12)

    def test_empty_relation_degenerate(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [])
        ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {})
        rep = sandwich_report(ker, 4, 2, 10, seed=0)
        assert rep.lower.value == rep.upper.value == rep.oracle == 0.0
        assert rep.equality
