"""Kernels, induced matrix norms, and the fiber direction optimization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedop import (
    EXACT,
    INF,
    LOWER_BOUND,
    DimensionMismatchError,
    FiberFamily,
    FiniteMeasureSpace,
    InvalidExponentError,
    MissingPairError,
    NonFiniteResultError,
    NormSpec,
    OperatorKernel,
    Section,
    UnknownAtomError,
    UnsupportedExponentsError,
    WeightedRelation,
    direct_integral_norm,
    direction_grid_oracle,
    effectiveness_objective,
    fiber_effectiveness,
    graph_relation,
    kappa,
    matrix_norm_objective,
    matrix_operator_norm,
    pointwise_norm_aggregate,
)
from mixedop.boundedness import _section_norms, criterion_general_result
from mixedop.kernels import exponent_pair
from mixedop.generators import random_measure_space
from mixedop.fibers import lp_measure_norm, power_sums
from mixedop.kernels import (
    ASCENT_ITERATIONS,
    ASCENT_STARTS,
    ASCENT_TOL,
    NormResult,
    _ascent,
    _ascent_starts,
    _Stack,
    _col_norms,
    _dual,
    _dual_power,
    _normalize_columns,
    weakest_certificate,
)
from mixedop.rng import substream

from builders import (
    bundled_kernel,
    identity_instance,
    random_atom_map,
    random_fiber_family,
    random_instance,
    random_kernel,
    scalar_family,
    scaled,
)
from helpers import circle_max_oracle, svd_norm_oracle, vertex_norm_oracle
from references import apply_weighted_composition

# frozen from the singular-value oracle (svd of [[1,2],[3,4]])
SIGMA_MAX_1234 = 5.464985704219043


class TestKappa:
    def test_values(self):
        assert kappa(4, 2) == 4.0
        assert kappa(2, 2) == INF
        assert kappa(3, 1) == 1.5
        assert kappa(INF, INF) == INF

    def test_huge_finite_p(self):
        # p q overflows; kappa -> q as p -> inf
        assert kappa(1e308, 2) == 2.0
        assert kappa(1.7e308, 1.5) == 1.5

    def test_rejections(self):
        with pytest.raises(UnsupportedExponentsError):
            kappa(2, 4)
        with pytest.raises(UnsupportedExponentsError):
            kappa(INF, 2)
        with pytest.raises(InvalidExponentError):
            kappa(2, 0.5)

    @pytest.mark.parametrize("p, q, reason", [
        (2, 4, "p<q out of supported scope"),
        (INF, 2, "p=inf out of scope"),
    ])
    def test_refusal_is_the_rejected_reason(self, p, q, reason):
        with pytest.raises(UnsupportedExponentsError, match=f"^{re.escape(reason)}$"):
            kappa(p, q)


class TestExponentPair:
    def test_values(self):
        assert exponent_pair(4, 2) == (4.0, 2.0, 4.0)
        assert exponent_pair(2, 2) == (2.0, 2.0, INF)

    @pytest.mark.parametrize("p, q, reason", [
        (2, 4, "p<q out of supported scope"),
        (2, INF, "p<q out of supported scope"),
        (INF, 2, "p=inf out of scope"),
        (INF, INF, "p=inf out of scope"),
    ])
    def test_refusal_is_the_rejected_reason(self, p, q, reason):
        with pytest.raises(UnsupportedExponentsError, match=f"^{re.escape(reason)}$"):
            exponent_pair(p, q)


def _scalar_pair_instance():
    S = FiniteMeasureSpace({"s1": 1.0})
    T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
    rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s1", "t2", 1.0)])
    return OperatorKernel(
        rel,
        scalar_family(T),
        scalar_family(S),
        {("s1", "t1"): [[1.0]], ("s1", "t2"): [[2.0]]},
    )


def _two_shape_kernel(mats):
    """Pairs (s1, t1), (s1, t2), (s2, t1), (s2, t2) in pair order, W_t1
    scalar and W_t2 of dim 2: two shape stacks, interleaved."""
    S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
    T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
    rel = WeightedRelation(S, T, [(s, t, 1.0) for s in S.ids for t in T.ids])
    W = FiberFamily(T, {"t1": NormSpec(2, [1.0]), "t2": NormSpec(2, [1.0, 1.0])})
    good = {("s1", "t1"): [[1.0]], ("s1", "t2"): [[1.0, 2.0]], ("s2", "t1"): [[3.0]], ("s2", "t2"): [[4.0, 5.0]]}
    return OperatorKernel(rel, W, scalar_family(S), {**good, **mats})


class TestKernelConstruction:
    def test_matrices_read_as_np_atleast_2d_does(self):
        ker = _two_shape_kernel({("s1", "t1"): 7, ("s1", "t2"): [6.0, 8.0], ("s2", "t2"): np.array([[4, 5]])})
        assert ker.matrix("s1", "t1").tolist() == [[7.0]]
        assert ker.matrix("s1", "t2").tolist() == [[6.0, 8.0]]
        assert ker.matrix("s2", "t2").dtype == float
        assert not ker.matrix("s2", "t1").flags.writeable

    @pytest.mark.parametrize("mats, error, message", [
        ({("s1", "t2"): [[math.nan, 1.0]], ("s2", "t1"): [[1.0, 2.0]]},
         ValueError, "matrix at ('s1', 't2') has a non-finite entry"),
        ({("s1", "t2"): [[1.0]], ("s2", "t1"): [[math.inf]]},
         DimensionMismatchError, "matrix at ('s1', 't2') has shape (1, 1), expected (1, 2)"),
        ({("s2", "t1"): [[{}]], ("s2", "t2"): [[math.inf, 0.0]]},
         ValueError, "matrix at ('s2', 't1') is not an array of numbers"),
        ({("s1", "t1"): [[1.0], [2.0]], ("s2", "t1"): [[{}]]},
         DimensionMismatchError, "matrix at ('s1', 't1') has shape (2, 1), expected (1, 1)"),
        # numpy would read these as 1.0, 3.0 and 0.0
        ({("s2", "t1"): [[True]]}, ValueError, "matrix at ('s2', 't1') has entry True, not a number"),
        ({("s2", "t1"): [["3"]]}, ValueError, "matrix at ('s2', 't1') has entry '3', not a number"),
        ({("s1", "t2"): np.array([[False, True]])}, ValueError, "matrix at ('s1', 't2') has entry False, not a number"),
        ({("s2", "t2"): [[1.0, "inf"]], ("s1", "t2"): [[1.0, 2.0], [3.0, 4.0]]},
         DimensionMismatchError, "matrix at ('s1', 't2') has shape (2, 2), expected (1, 2)"),
    ])
    def test_first_bad_pair_in_pair_order_names_the_error(self, mats, error, message):
        with pytest.raises(error) as raised:
            _two_shape_kernel(mats)
        assert str(raised.value) == message

    def test_overflow_in_a_group_converted_first_loses_to_an_earlier_pair(self):
        # the (1, 1) stack holds pairs 0 and 2 and is converted first; the
        # bad shape at pair 1, in the (1, 2) stack, comes first in pair order
        with pytest.raises(DimensionMismatchError) as raised:
            _two_shape_kernel({("s2", "t1"): [[10**400]], ("s1", "t2"): [[1.0]]})
        assert str(raised.value) == "matrix at ('s1', 't2') has shape (1, 1), expected (1, 2)"

    def test_matrix_of_a_pair_dropped_for_weight_zero_is_ignored(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 0.0), ("s1", "t2", 1.0)])
        ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t1"): [[True]], ("s1", "t2"): [[2.0]]})
        assert ker.pairs == (("s1", "t2"),)
        assert ker.matrix("s1", "t2").tolist() == [[2.0]]
        with pytest.raises(MissingPairError):
            ker.matrix("s1", "t1")
        # leaving it out is the same kernel
        alone = OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t2"): [[2.0]]})
        assert fiber_effectiveness(ker, "t2", 2) == fiber_effectiveness(alone, "t2", 2)

    def test_matrix_of_a_pair_the_relation_never_listed_is_refused(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 0.0)])
        with pytest.raises(ValueError, match=re.escape("matrices given for pairs outside the relation: [('s1', 't2')]")):
            OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t1"): [[1.0]], ("s1", "t2"): [[2.0]]})


def _stack(ker, *sections):
    """Sections stacked by target atom, as ``_section_norms`` reads them."""
    return [np.array([f[t] for f in sections]) for t in ker.relation.target.ids]


class TestApplyMixed:
    # the mixed operator (s, t) -> P(s, t) f(t), normed by its one evaluator
    def test_identity_kernel(self):
        # identity matrices on the identity graph with unit data: ||M f||_q = ||f||_q
        ker, _ = identity_instance(3, dim=2)
        f = Section({t: [1.0, float(i)] for i, t in enumerate(ker.relation.target.ids)})
        for q in (1, 1.5, 2, 3, 7):
            mf, norm = _section_norms(ker, _stack(ker, f), q, q)
            assert mf.tolist() == norm.tolist() == [direct_integral_norm(f, ker.domain_family, q)]

    def test_zero_section(self):
        ker = _scalar_pair_instance()
        f = Section({"t1": [0.0], "t2": [0.0]})
        mf, norm = _section_norms(ker, _stack(ker, f), 2, 2)
        assert mf.tolist() == norm.tolist() == [0.0]

    def test_scalar_values(self):
        # M f = (1 * 3, 2 * 5) on the pairs (s1, t1), (s1, t2) of weight 1;
        # a second section, 2 f, is stacked in the same call
        ker = _scalar_pair_instance()
        f = Section({"t1": [3.0], "t2": [5.0]})
        g = Section({"t1": [6.0], "t2": [10.0]})
        mf, norm = _section_norms(ker, _stack(ker, f, g), 1, 1)
        assert mf.tolist() == [13.0, 26.0]
        assert norm.tolist() == [8.0, 16.0]

    def test_output_norm(self):
        ker = _scalar_pair_instance()
        f = Section({"t1": [3.0], "t2": [5.0]})
        mf, norm = _section_norms(ker, _stack(ker, f), 2, 2)
        assert mf[0] == pytest.approx(math.sqrt(9.0 + 100.0), rel=1e-15)
        assert norm[0] == pytest.approx(math.sqrt(9.0 + 25.0), rel=1e-15)

    def test_relation_without_pairs(self):
        # every listed pair has weight 0: M f = 0 for each of the n sections
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        ker = OperatorKernel(WeightedRelation(S, T, [("s1", "t1", 0.0)]), scalar_family(T), scalar_family(S), {})
        mf, norm = _section_norms(ker, [np.array([[3.0], [0.0]])], 2, 2)
        assert np.broadcast_to(mf, 2).tolist() == [0.0, 0.0]
        assert norm.tolist() == [3.0, 0.0]


class TestApplyWeightedComposition:
    def test_identity(self):
        ker, psi = identity_instance(4, dim=2)
        f = Section({t: [float(i), 1.0] for i, t in enumerate(ker.relation.target.ids)})
        out = apply_weighted_composition(ker, psi, f)
        for s in ker.relation.source.ids:
            assert np.array_equal(out[s], f[psi(s)])

    def test_constant_map(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        from mixedop import AtomMap

        psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
        rel = graph_relation(psi)
        ker = OperatorKernel(
            rel,
            scalar_family(T),
            scalar_family(S),
            {p: [[1.0]] for p in rel.pairs},
        )
        f = Section({"t1": [7.0], "t2": [9.0]})
        out = apply_weighted_composition(ker, psi, f)
        assert all(out[s][0] == 7.0 for s in S.ids)

    def test_missing_pair(self):
        ker = _scalar_pair_instance()
        from mixedop import AtomMap

        psi = AtomMap(ker.relation.source, ker.relation.target, {"s1": "t1"})
        small = ker.restrict_targets(["t2"])
        f = Section({"t1": [1.0], "t2": [1.0]})
        with pytest.raises(MissingPairError):
            apply_weighted_composition(small, psi, f)

    def test_agrees_with_graph_route(self):
        # M_psi f(s) is the mixed operator on the graph at (s, psi(s)), and the
        # graph carries nu: ||M_psi f||_{L^q(nu)} = ||M f||_q
        for seed in range(10):
            S = random_measure_space("s", 5, seed)
            T = random_measure_space("t", 6, seed + 10)
            psi = random_atom_map(S, T, seed + 20)
            rel = graph_relation(psi)
            W = random_fiber_family(T, seed + 30, max_dim=3)
            V = random_fiber_family(S, seed + 40, max_dim=3)
            ker = random_kernel(rel, W, V, seed + 50)
            g = substream(seed, 60)
            f = Section({t: g.standard_normal(W.dim(t)) for t in T.ids})
            direct = apply_weighted_composition(ker, psi, f)
            for q in (1, 1.5, 2, 3):
                want = direct_integral_norm(direct, V, q)
                mf, _ = _section_norms(ker, _stack(ker, f), q, q)
                assert abs(mf[0] - want) <= 1e-14 * want


def _unit(dim):
    return NormSpec(2, np.ones(dim))


class TestMatrixOperatorNorm:
    def test_identity_l2(self):
        res = matrix_operator_norm(np.eye(2), _unit(2), _unit(2))
        assert res.value == 1.0 and res.certificate == EXACT

    def test_l2_l2_matches_svd_oracle(self):
        A = [[1.0, 2.0], [3.0, 4.0]]
        res = matrix_operator_norm(A, _unit(2), _unit(2))
        assert res.certificate == EXACT
        assert res.value == pytest.approx(SIGMA_MAX_1234, rel=1e-15)
        assert res.value == pytest.approx(svd_norm_oracle(A, [1, 1], [1, 1]), rel=1e-15)

    def test_l1_l1_matches_vertex_oracle(self):
        A = [[1.0, 2.0], [3.0, 4.0]]
        spec1 = NormSpec(1, [1.0, 1.0])
        res = matrix_operator_norm(A, spec1, spec1)
        assert res.certificate == EXACT
        assert res.value == 6.0
        assert res.value == vertex_norm_oracle(A, spec1, spec1)

    def test_weighted_l2(self):
        g = substream(3, 0)
        for _ in range(20):
            A = g.standard_normal((3, 2))
            win = g.uniform(0.3, 2.0, 2)
            wout = g.uniform(0.3, 2.0, 3)
            res = matrix_operator_norm(A, NormSpec(2, win), NormSpec(2, wout))
            assert res.certificate == EXACT
            assert res.value == pytest.approx(svd_norm_oracle(A, win, wout), rel=1e-12)

    def test_single_column(self):
        A = [[3.0], [4.0]]
        res = matrix_operator_norm(A, NormSpec(2, [4.0]), _unit(2))
        # unit ball of the in norm is +-1/2
        assert res.certificate == EXACT
        assert res.value == pytest.approx(2.5, rel=1e-15)

    def test_out_sup_norm_rows(self):
        A = [[1.0, -2.0], [3.0, 0.5]]
        res = matrix_operator_norm(A, _unit(2), NormSpec(INF, [1.0, 1.0]))
        assert res.certificate == EXACT
        # dual of l2 is l2: max row norm
        assert res.value == pytest.approx(math.sqrt(9.25), rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matrix_operator_norm(np.eye(2), _unit(3), _unit(2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_column_is_not_skipped(self):
        # the weight-conjugated second column overflows to inf; the a = 1
        # max over columns must not drop it and report the first column
        W, V = NormSpec(1, [1.0, 1.0]), NormSpec(2, [1e20, 1.0])
        A = [[1.0, 1e300], [1.0, 0.0]]
        with pytest.raises(NonFiniteResultError):
            matrix_operator_norm(A, W, V)
        S, T = FiniteMeasureSpace({"s1": 1.0}), FiniteMeasureSpace({"t1": 1.0})
        ker = OperatorKernel(
            WeightedRelation(S, T, [("s1", "t1", 1.0)]),
            FiberFamily(T, {"t1": W}), FiberFamily(S, {"s1": V}), {("s1", "t1"): A},
        )
        with pytest.raises(NonFiniteResultError):
            ker.matrix_norm("s1", "t1")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_matrix_never_reaches_lapack(self, capfd):
        # every weight-conjugated entry is inf; LAPACK's SVD of it prints
        # DLASCL errors before the NaN it returns is caught
        W, V = _unit(3), NormSpec(2, [1e300] * 3)
        with pytest.raises(NonFiniteResultError, match="not finite"):
            matrix_operator_norm(np.full((3, 3), 1e300), W, V)
        assert capfd.readouterr() == ("", "")

    def test_zero_matrix(self):
        res = matrix_operator_norm(np.zeros((2, 3)), NormSpec(3, np.ones(3)), _unit(2))
        assert res.value == 0.0 and res.certificate == EXACT

    def test_exact_branches_are_upper_bounds(self):
        # ||A e|| <= value ||e|| for 1000 random e
        g = substream(17, 1)
        cases = [
            (NormSpec(2, [1.0, 1.0]), NormSpec(2, [1.0, 1.0])),
            (NormSpec(1, [0.5, 2.0]), NormSpec(3, [1.0, 1.0, 1.0])),
            (NormSpec(2, [1.0, 3.0]), NormSpec(INF, [1.0, 2.0, 0.5])),
        ]
        for in_norm, out_norm in cases:
            A = g.standard_normal((out_norm.dim, in_norm.dim))
            res = matrix_operator_norm(A, in_norm, out_norm)
            assert res.certificate == EXACT
            E = g.standard_normal((1000, in_norm.dim))
            lhs = out_norm.row_norms(E @ A.T)
            rhs = res.value * in_norm.row_norms(E)
            assert np.all(lhs <= rhs + 1e-9 * np.maximum(rhs, 1.0))

    def test_ascent_vs_grid_oracle_dim2(self):
        g = substream(29, 2)
        for trial in range(20):
            in_norm = NormSpec(3, g.uniform(0.5, 2.0, 2))
            out_norm = NormSpec(1.5, g.uniform(0.5, 2.0, 3))
            A = g.standard_normal((3, 2))
            res = matrix_operator_norm(A, in_norm, out_norm)
            assert res.certificate == LOWER_BOUND
            grid = direction_grid_oracle(matrix_norm_objective(A, in_norm, out_norm), in_norm)
            # lower bound, attained within the grid oracle's resolution
            assert res.value <= grid * (1 + 1e-6) + 1e-12
            assert res.value >= grid * (1 - 1e-6) - 1e-12

    def test_ascent_vs_grid_oracle_dim3(self):
        g = substream(31, 3)
        for trial in range(6):
            in_norm = NormSpec(4, g.uniform(0.5, 2.0, 3))
            out_norm = NormSpec(2, g.uniform(0.5, 2.0, 2))
            A = g.standard_normal((2, 3))
            res = matrix_operator_norm(A, in_norm, out_norm)
            assert res.certificate == LOWER_BOUND
            grid = direction_grid_oracle(matrix_norm_objective(A, in_norm, out_norm), in_norm)
            # sphere resolution is ~1e-5 relative after one refinement pass
            assert res.value <= grid * (1 + 1e-4) + 1e-12
            assert res.value >= grid * (1 - 1e-4) - 1e-12

    def test_scaling_is_exact(self):
        g = substream(37, 4)
        A = g.standard_normal((2, 2))
        in_norm = NormSpec(3, [1.0, 2.0])
        out_norm = NormSpec(1.5, [0.5, 1.0])
        base = matrix_operator_norm(A, in_norm, out_norm).value
        scaled = matrix_operator_norm(2.5 * A, in_norm, out_norm).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_sup_input_matches_sign_vertices(self):
        # the sup-ball is a polytope: the sup of a convex objective sits
        # at a sign vector; the ascent must find it
        import itertools

        from mixedop import fiber_norm

        g = substream(61, 5)
        for trial in range(10):
            d = int(g.integers(2, 5))
            e = int(g.integers(1, 4))
            A = g.standard_normal((e, d))
            win = g.uniform(0.5, 2.0, d)
            in_norm = NormSpec(INF, win)
            out_norm = NormSpec(1.5, g.uniform(0.5, 2.0, e))
            res = matrix_operator_norm(A, in_norm, out_norm)
            best = max(
                fiber_norm(A @ (np.array(signs) / win), out_norm)
                for signs in itertools.product([-1.0, 1.0], repeat=d)
            )
            assert res.value == pytest.approx(best, rel=1e-12)


class TestFiberEffectiveness:
    def test_scalar_singleton(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0)])
        ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), {("s1", "t1"): [[2.0]]})
        res = fiber_effectiveness(ker, "t1", 2)
        assert res.value == 2.0 and res.certificate == EXACT

    def test_scalar_two_sources(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t1", 1.0)])
        ker = OperatorKernel(
            rel, scalar_family(T), scalar_family(S),
            {("s1", "t1"): [[1.0]], ("s2", "t1"): [[2.0]]},
        )
        res = fiber_effectiveness(ker, "t1", 2)
        assert res.value == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert res.certificate == EXACT

    def test_projection_gap_against_circle_oracle(self):
        ker = bundled_kernel("projection_gap")
        res = fiber_effectiveness(ker, "t1", 2)
        agg = pointwise_norm_aggregate(ker, "t1", 2)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert agg.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
        oracle = circle_max_oracle(
            effectiveness_objective(ker, "t1", 2), ker.domain_family.norm("t1")
        )
        assert res.value == pytest.approx(oracle, rel=1e-7)

    def test_empty_fiber(self):
        ker = _scalar_pair_instance()
        small = ker.restrict_targets(["t1"])
        res = fiber_effectiveness(small, "t2", 2)
        assert res.value == 0.0 and res.certificate == EXACT

    def test_singleton_reduces_to_matrix_norm(self):
        g = substream(41, 5)
        for seed in range(10):
            S = FiniteMeasureSpace({"s1": float(g.uniform(0.5, 2.0))})
            T = FiniteMeasureSpace({"t1": 1.0})
            lam = float(g.uniform(0.2, 3.0))
            rel = WeightedRelation(S, T, [("s1", "t1", lam)])
            W = FiberFamily(T, {"t1": NormSpec(2, g.uniform(0.5, 2.0, 3))})
            V = FiberFamily(S, {"s1": NormSpec(1.5, g.uniform(0.5, 2.0, 2))})
            A = g.standard_normal((2, 3))
            ker = OperatorKernel(rel, W, V, {("s1", "t1"): A})
            q = float(g.uniform(1.0, 4.0))
            res = fiber_effectiveness(ker, "t1", q)
            mat = matrix_operator_norm(A, W.norm("t1"), V.norm("s1"))
            assert res.value == pytest.approx(lam ** (1.0 / q) * mat.value, rel=1e-12)

    def test_dominated_by_pointwise_aggregate(self):
        for seed in range(15):
            ker = random_instance(seed, max_atoms=5, max_dim=3)
            for q in (1.0, 2.0, 3.0):
                for t in ker.relation.target.ids:
                    c = fiber_effectiveness(ker, t, q).value
                    b = pointwise_norm_aggregate(ker, t, q).value
                    assert c <= b + 1e-9 * max(b, 1.0)

    def test_eigen_branch_matches_circle_oracle(self):
        g = substream(43, 6)
        for trial in range(10):
            S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0, "s3": 1.0})
            T = FiniteMeasureSpace({"t1": 1.0})
            rel = WeightedRelation(
                S, T, [(s, "t1", float(g.uniform(0.3, 2.0))) for s in S.ids]
            )
            W = FiberFamily(T, {"t1": NormSpec(2, g.uniform(0.5, 2.0, 2))})
            V = FiberFamily(S, {s: NormSpec(2, g.uniform(0.5, 2.0, 2)) for s in S.ids})
            ker = OperatorKernel(
                rel, W, V, {(s, "t1"): g.standard_normal((2, 2)) for s in S.ids}
            )
            res = fiber_effectiveness(ker, "t1", 2)
            assert res.certificate == EXACT
            oracle = circle_max_oracle(
                effectiveness_objective(ker, "t1", 2), W.norm("t1")
            )
            assert res.value == pytest.approx(oracle, rel=1e-8)

    def test_ascent_branch_matches_circle_oracle(self):
        g = substream(47, 7)
        for trial in range(8):
            S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
            T = FiniteMeasureSpace({"t1": 1.0})
            rel = WeightedRelation(
                S, T, [(s, "t1", float(g.uniform(0.3, 2.0))) for s in S.ids]
            )
            W = FiberFamily(T, {"t1": NormSpec(3, g.uniform(0.5, 2.0, 2))})
            V = FiberFamily(S, {s: NormSpec(1.5, g.uniform(0.5, 2.0, 2)) for s in S.ids})
            ker = OperatorKernel(
                rel, W, V, {(s, "t1"): g.standard_normal((2, 2)) for s in S.ids}
            )
            q = 3.0
            res = fiber_effectiveness(ker, "t1", q)
            assert res.certificate == LOWER_BOUND
            oracle = circle_max_oracle(effectiveness_objective(ker, "t1", q), W.norm("t1"))
            assert res.value <= oracle * (1 + 1e-6) + 1e-12
            assert res.value >= oracle * (1 - 1e-6) - 1e-12

    def test_scaling_is_exact(self):
        ker = bundled_kernel("projection_gap")
        base = fiber_effectiveness(ker, "t1", 2).value
        tripled = fiber_effectiveness(scaled(ker, 3.0), "t1", 2).value
        assert tripled == pytest.approx(3.0 * base, rel=1e-12)

    def test_infinite_q_rejected(self):
        ker = _scalar_pair_instance()
        with pytest.raises(UnsupportedExponentsError):
            fiber_effectiveness(ker, "t1", INF)

    def test_objective_refuses_infinite_q_as_fiber_effectiveness_does(self):
        # at q = inf it read 1 whatever the matrices: each x^q went to 0 or inf, then to the power 0
        ker = bundled_kernel("scalar17")
        assert effectiveness_objective(ker, "t2", 2)(np.ones((1, 1))).tolist() == [2.0]
        for route in (fiber_effectiveness, effectiveness_objective):
            with pytest.raises(UnsupportedExponentsError, match="^fiber effectiveness needs finite q$"):
                route(ker, "t2", INF)

    def test_pointwise_aggregate_rejects_infinite_q(self):
        # max_s lam ||P|| is not its q -> inf limit, max_s ||P||
        with pytest.raises(UnsupportedExponentsError):
            pointwise_norm_aggregate(_scalar_pair_instance(), "t1", INF)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exponent_one_column_overflow_is_an_error(self):
        # column 2 of the weight-conjugated P(s1, t1) overflows; c(t1) is about 1e450
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t1", 1.0)])
        W = FiberFamily(T, {"t1": NormSpec(1, [1.0, 1.0])})
        V = FiberFamily(S, {"s1": NormSpec(2, [1e300]), "s2": NormSpec(2, [1.0])})
        ker = OperatorKernel(rel, W, V, {("s1", "t1"): [[1.0, 1e300]], ("s2", "t1"): [[1.0, 0.0]]})
        with pytest.raises(NonFiniteResultError):
            fiber_effectiveness(ker, "t1", 2.0)


def _reference_ascent(Bs, bs, lams, a, q):
    """The fixed point for one problem as a plain per-matrix loop: the
    arithmetic that the batched ``_ascent`` must reproduce bit for bit."""
    X = _normalize_columns(_ascent_starts(Bs[0].shape[1], ASCENT_STARTS), a)
    best = 0.0
    prev = np.full(X.shape[1], -1.0)
    for _ in range(ASCENT_ITERATIONS):
        Ys = [B @ X for B in Bs]
        V = np.stack([_col_norms(Y, b) for Y, b in zip(Ys, bs)])
        vals = (lams[:, None] * V ** q).sum(axis=0) ** (1.0 / q)
        best = max(best, float(np.max(vals)))
        if np.all(np.abs(vals - prev) <= ASCENT_TOL * np.maximum(vals, 1.0)):
            break
        prev = vals
        Z = np.zeros_like(X)
        for B, b, Y, v, lam in zip(Bs, bs, Ys, V, lams):
            w = lam * v ** (q - 1.0)
            Z += w * (B.T @ _dual_power(Y / np.where(v > 0, v, 1.0), b))
        X = _normalize_columns(_dual_power(Z, _dual(a)), a)
    return best


@st.composite
def _ascent_batches(draw):
    """Problems sharing an input dimension: ragged matrix counts, out
    dims 1-4, b in {1, 1.5, 3, inf}, some all-zero matrices."""
    d = draw(st.integers(2, 4))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 4))
        dims = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        bs = draw(st.lists(st.sampled_from([1.0, 1.5, 3.0, INF]), min_size=k, max_size=k))
        zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        Bs = [np.zeros((m, d)) if z else g.standard_normal((m, d)) for m, z in zip(dims, zero)]
        problems.append((Bs, bs, g.uniform(0.1, 2.0, k)))
    return problems


def _reference_matrix_norm(A, in_norm, out_norm):
    """The closed forms as one matrix at a time, with Python-level
    reductions: what the stacked per-kernel fill must reproduce bit for
    bit.  None where the ascent takes over."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = (out_norm.scale()[:, None] * A) / in_norm.scale()[None, :]
    a, b = in_norm.r, out_norm.r
    if not np.any(B):
        return NormResult(0.0, EXACT)
    if B.shape[1] == 1:
        return NormResult(float(power_sums(B[:, 0], b)), EXACT)
    if a == 1.0:
        return NormResult(max(float(power_sums(B[:, j], b)) for j in range(B.shape[1])), EXACT)
    if math.isinf(b):
        return NormResult(max(float(power_sums(B[i, :], _dual(a))) for i in range(B.shape[0])), EXACT)
    if a == 2.0 and b == 2.0:
        return NormResult(float(np.linalg.svd(B, compute_uv=False)[0]), EXACT)
    return None


@st.composite
def _closed_form_kernels(draw, fibers=False, every_case=False):
    """Pairs between 2-6 targets and sources whose weighted fibers share
    a few (dim, r) kinds, so several shape groups hold several matrices:
    dims 1-4, r in {1, 1.5, 2, 3, inf}, dense, zero and rank-one
    matrices over six orders of magnitude (two with ``fibers``).  By
    default every pair is present with weight 1.  With ``fibers`` there
    are 6-12 sources, each
    target's fiber takes a random 0-12 of them with random weights
    (sizes from 8 on, where ``np.sum`` turns pairwise, included), and
    some instances have all-l2 fibers or only exponent-1 targets.
    ``every_case`` implies ``fibers``: 4-8 targets cycle through a scalar
    W_t and W_t of one dim with exponents 1, 2 and one of {1.5, 3, inf},
    over all-l2 V_s, so at q = 2 one kernel holds every case of c(t)."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = [1.0, 1.5, 2.0, 3.0, INF]
    fibers = fibers or every_case
    mode = "every_case" if every_case else draw(st.sampled_from(["any", "l2", "l1"])) if fibers else "any"

    def family(prefix, count, rs=every, kinds=None):
        base = FiniteMeasureSpace({f"{prefix}{i}": 1.0 for i in range(count)})
        if kinds is None:
            kinds = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(rs)), min_size=1, max_size=3))
            picks = draw(st.lists(st.sampled_from(kinds), min_size=len(base.ids), max_size=len(base.ids)))
        else:
            picks = [kinds[i % len(kinds)] for i in range(count)]
        return FiberFamily(base, {i: NormSpec(r, g.uniform(0.2, 5.0, d)) for i, (d, r) in zip(base.ids, picks)})

    if mode == "every_case":
        d = draw(st.integers(2, 4))
        other = draw(st.sampled_from([1.5, 3.0, INF]))
        W = family("t", draw(st.integers(4, 8)), kinds=[(1, 2.0), (d, 1.0), (d, 2.0), (d, other)])
    else:
        W = family("t", draw(st.integers(2, 6)), {"any": every, "l2": [2.0], "l1": [1.0]}[mode])
    V = family("s", int(g.integers(6, 13)) if fibers else draw(st.integers(2, 6)), every if mode in ("any", "l1") else [2.0])
    if fibers:
        sources = list(V.base.ids)
        pairs = [
            (str(s), t)
            for t in W.base.ids
            for s in g.permutation(sources)[: g.integers(0, len(sources) + 1)]
        ]
        weights = g.uniform(0.1, 3.0, len(pairs))
        spread = 1  # comparable terms, whose sums are sensitive to the order of addition
    else:
        pairs = [(s, t) for s in V.base.ids for t in W.base.ids]
        weights = np.ones(len(pairs))
        spread = 3
    shapes = draw(st.lists(st.sampled_from(["dense", "zero", "rank1"]), min_size=len(pairs), max_size=len(pairs)))
    mats = {}
    for (s, t), shape in zip(pairs, shapes):
        m, d = V.dim(s), W.dim(t)
        if shape == "zero":
            mats[(s, t)] = np.zeros((m, d))
        elif shape == "rank1":
            mats[(s, t)] = np.outer(g.standard_normal(m), g.standard_normal(d))
        else:
            mats[(s, t)] = g.standard_normal((m, d)) * 10.0 ** g.integers(-spread, spread + 1)
    rel = WeightedRelation(V.base, W.base, [(s, t, w) for (s, t), w in zip(pairs, weights.tolist())])
    return OperatorKernel(rel, W, V, mats)


def _stacked(problems):
    """``_ascent``'s arguments for problems ``(Bs, bs, lams)``: their
    matrices stacked by (out dim, b), the problem count and the largest
    matrix count."""
    groups = {}
    for i, (Bs, bs, lams) in enumerate(problems):
        for k, (B, b, lam) in enumerate(zip(Bs, bs, lams)):
            groups.setdefault((B.shape[0], b), []).append((i, k, B, lam))
    stacks = [
        _Stack(b, np.stack([B for _, _, B, _ in items]), np.array([[lam] for *_, lam in items]),
               np.array([i for i, *_ in items]), np.array([k for _, k, *_ in items]))
        for (_, b), items in groups.items()
    ]
    return stacks, len(problems), max(len(Bs) for Bs, _, _ in problems)


class TestBatchedAscent:
    @settings(max_examples=60, deadline=None)
    @given(problems=_ascent_batches(), a=st.sampled_from([1.5, 3.0, INF]), q=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_batch_equals_each_problem_alone(self, problems, a, q):
        batched = _ascent(*_stacked(problems), a, q)
        for problem, value in zip(problems, batched):
            assert value == _ascent(*_stacked([problem]), a, q)[0] == _reference_ascent(*problem, a, q)

    def test_effectiveness_equals_target_alone(self):
        for seed in range(6):
            ker = random_instance(seed, max_atoms=8, max_dim=3, density=0.6)
            for q in (1.5, 2.0, 2.5):
                for t in ker.relation.target.ids:
                    alone = fiber_effectiveness(ker.restrict_targets([t]), t, q)
                    assert fiber_effectiveness(ker, t, q) == alone

    @settings(max_examples=30, deadline=None)
    @given(kernel=_closed_form_kernels(every_case=True), q=st.sampled_from([1.5, 2.0, 2.5]))
    def test_effectiveness_equals_target_alone_all_cases(self, kernel, q):
        # summed, column, ascent and (at q = 2) eigen targets solved in one kernel
        for t in kernel.relation.target.ids:
            alone = fiber_effectiveness(kernel.restrict_targets([t]), t, q)
            assert fiber_effectiveness(kernel, t, q) == alone


class TestEffectivenessCache:
    @staticmethod
    def _counted(kernel):
        calls = []
        solve = kernel._solve_effectiveness
        kernel._solve_effectiveness = lambda q: calls.append(q) or solve(q)
        return calls

    def test_one_solve_per_q(self):
        ker = random_instance(3, max_atoms=8, max_dim=3, density=0.6)
        calls = self._counted(ker)
        T = ker.relation.target.ids
        first = [fiber_effectiveness(ker, t, 2.5) for t in T]
        again = [fiber_effectiveness(ker, t, 2.5) for t in T]
        assert calls == [2.5]
        assert all(x is y for x, y in zip(first, again))
        fiber_effectiveness(ker, T[0], 1.5)
        assert calls == [2.5, 1.5]

    def test_unknown_atom_raises_before_any_solve(self):
        ker = random_instance(3, max_atoms=8, max_dim=3, density=0.6)
        calls = self._counted(ker)
        with pytest.raises(UnknownAtomError, match="unknown atom 'nope'"):
            fiber_effectiveness(ker, "nope", 2.0)
        assert calls == []


class TestClosedFormFill:
    @settings(max_examples=80, deadline=None)
    @given(kernel=_closed_form_kernels())
    def test_fill_equals_reference(self, kernel):
        expected = {}
        for s, t in kernel.pairs:
            W, V = kernel.domain_family.norm(t), kernel.codomain_family.norm(s)
            ref = _reference_matrix_norm(kernel.matrix(s, t), W, V)
            if ref is not None:
                expected[(s, t)] = ref
                assert matrix_operator_norm(kernel.matrix(s, t), W, V) == ref

        def shape(pair):
            return kernel.matrix(*pair).shape

        def filled():
            return {p for p, v in zip(kernel.pairs, kernel._norm_values.tolist()) if not math.isnan(v)}

        first = kernel.pairs[0]
        kernel.matrix_norm(*first)
        # one miss filled exactly the closed forms of its own shape stack
        assert filled() == {p for p in expected if shape(p) == shape(first)}
        for pair in {shape(p): p for p in kernel.pairs}.values():
            kernel.matrix_norm(*pair)
        # after one miss per stack, every closed form is filled as the reference
        assert filled() == set(expected)
        assert {p: kernel.matrix_norm(*p) for p in expected} == expected


def _reference_effectiveness(kernel, t, q):
    """c(t) from the closed forms one target at a time, with the norms of
    ``matrix_operator_norm`` and per-target loops: what the stacked fill
    must reproduce bit for bit.  None where the ascent takes over."""
    rel = kernel.relation
    pairs = [(rel.pairs[i][0], float(rel.weights[i])) for i in rel.fiber(t).tolist()]
    W = kernel.domain_family.norm(t)
    outs = [kernel.codomain_family.norm(s) for s, _ in pairs]
    if not pairs:
        return NormResult(0.0, EXACT)
    if len(pairs) == 1:
        r = matrix_operator_norm(kernel.matrix(pairs[0][0], t), W, outs[0])
        return NormResult(pairs[0][1] ** (1.0 / q) * r.value, r.certificate)
    lams = np.array([lam for _, lam in pairs])
    if W.dim == 1:
        vals = np.array([matrix_operator_norm(kernel.matrix(s, t), W, o).value for (s, _), o in zip(pairs, outs)])
        return NormResult(float(power_sums(vals, q, lams)), EXACT)
    Bs = [(o.scale()[:, None] * kernel.matrix(s, t)) / W.scale()[None, :] for (s, _), o in zip(pairs, outs)]
    bs = [o.r for o in outs]
    if W.r == 1.0:
        best = max(
            float(power_sums(np.array([float(power_sums(B[:, j], b)) for B, b in zip(Bs, bs)]), q, lams))
            for j in range(W.dim)
        )
        return NormResult(best, EXACT)
    if q == 2.0 and W.r == 2.0 and all(b == 2.0 for b in bs):
        M = np.zeros((W.dim, W.dim))
        for lam, B in zip(lams, Bs):
            M += lam * (B.T @ B)
        top = float(np.linalg.eigvalsh((M + M.T) / 2.0)[-1])
        return NormResult(math.sqrt(max(top, 0.0)), EXACT)
    return None


def _gram_overflow_kernel(fibers):
    """q = 2 all-l2 fibers whose weight-conjugated matrices overflow: V_s1
    is scalar with weight 1e300, V_s2 scalar with weight 1; ``fibers``
    maps each target to its W dim and its (s1, s2) matrix rows."""
    S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
    T = FiniteMeasureSpace({t: 1.0 for t in fibers})
    rel = WeightedRelation(S, T, [(s, t, 1.0) for s in S.ids for t in T.ids])
    W = FiberFamily(T, {t: NormSpec(2, [1.0] * d) for t, (d, _) in fibers.items()})
    V = FiberFamily(S, {"s1": NormSpec(2, [1e300]), "s2": NormSpec(2, [1.0])})
    mats = {}
    for t, (_, rows) in fibers.items():
        mats[("s1", t)], mats[("s2", t)] = rows
    return OperatorKernel(rel, W, V, mats)


class TestGramOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row", [
        [[0.0, -1e300, -1.2093813e-150]],  # NaN in the sum: a wrong "exact" value before
        [[1e300, 1.0, 0.0]],  # eigvalsh did not converge before
    ])
    def test_non_finite_gram_sum_is_an_error(self, row):
        ker = _gram_overflow_kernel({"t1": (3, (row, [[0.0, 0.0, 1.0]]))})
        with pytest.raises(NonFiniteResultError, match="c\\('t1'\\) is not finite"):
            fiber_effectiveness(ker, "t1", 2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_target_in_target_order_is_named(self):
        # t2 (dim 2) and t3 (dim 3) overflow; the dim-3 pass holds t1 and t3
        ker = _gram_overflow_kernel({
            "t1": (3, ([[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])),
            "t2": (2, ([[1e300, 1.0]], [[0.0, 1.0]])),
            "t3": (3, ([[0.0, -1e300, -1.2093813e-150]], [[0.0, 0.0, 1.0]])),
        })
        with pytest.raises(NonFiniteResultError, match="c\\('t2'\\) is not finite"):
            fiber_effectiveness(ker, "t1", 2.0)


def _reference_aggregate(kernel, t, q):
    """The pointwise aggregate of t one target at a time: the weighted
    q-power sum of the ``matrix_operator_norm`` values in fiber order,
    with the weakest certificate."""
    fiber = kernel.relation.fiber(t).tolist()
    W = kernel.domain_family.norm(t)
    norms = [
        matrix_operator_norm(kernel._matrix(i), W, kernel.codomain_family.norm(kernel.pairs[i][0]))
        for i in fiber
    ]
    value = float(power_sums(np.array([r.value for r in norms]), q, kernel.relation.weights[fiber]))
    return NormResult(value, weakest_certificate(r.certificate for r in norms))


def _overflow_order_kernel():
    """Scalar W_t; t2 and t3 each hold a pair whose norm is not finite:
    in t2 first P(big, t2), whose weight-conjugated matrix overflows, then
    P(wide, t2), whose closed-form norm overflows; in t3 P(wide, t3).
    t1 and t3 have three pairs, t2 has two."""
    S = FiniteMeasureSpace({"a": 1.0, "b": 1.0, "big": 1.0, "wide": 1.0})
    T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0, "t3": 1.0})
    fibers = {"t1": ["a", "b", "big"], "t2": ["big", "wide"], "t3": ["a", "b", "wide"]}
    rel = WeightedRelation(S, T, [(s, t, 1.0) for t, ss in fibers.items() for s in ss])
    V = FiberFamily(S, {"a": NormSpec(2, [1.0]), "b": NormSpec(2, [1.0]),
                        "big": NormSpec(1, [1e300]), "wide": NormSpec(1, [1.0, 1.0])})
    mats = {(s, t): [[1.0]] for s, t in rel.pairs}
    mats[("big", "t1")] = [[1e-300]]
    mats[("big", "t2")] = [[1e10]]
    mats[("wide", "t2")] = mats[("wide", "t3")] = [[1e308], [1e308]]
    return OperatorKernel(rel, scalar_family(T), V, mats)


class TestStackedEffectiveness:
    @settings(max_examples=80, deadline=None)
    @given(kernel=_closed_form_kernels(fibers=True))
    def test_fill_equals_reference(self, kernel):
        T = kernel.relation.target
        for q in (1.0, 2.0, 3.0):
            aggregates = []
            for t in T.ids:
                ref = _reference_effectiveness(kernel, t, q)
                if ref is not None:
                    assert fiber_effectiveness(kernel, t, q) == ref
                aggregates.append(_reference_aggregate(kernel, t, q))
                assert pointwise_norm_aggregate(kernel, t, q) == aggregates[-1]
            inner = np.array([r.value for r in aggregates]) * T.weights ** (-1.0 / q)
            criterion = NormResult(
                lp_measure_norm(inner, T.weights, kappa(4.0, q)),
                weakest_certificate(r.certificate for r in aggregates),
            )
            assert criterion_general_result(kernel, 4.0, q) == criterion

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_pair_in_target_then_fiber_order_is_named(self):
        # each route raises the error of P(big, t2): the first failing pair in
        # T.ids order and then fiber order, though t3 shares t1's fiber size
        first = "the weight-conjugated matrix is not finite"
        for call in (
            lambda ker: fiber_effectiveness(ker, "t3", 2.0),
            lambda ker: criterion_general_result(ker, 2.0, 2.0),
        ):
            with pytest.raises(NonFiniteResultError, match=first):
                call(_overflow_order_kernel())
        with pytest.raises(NonFiniteResultError, match="norm value inf is not finite"):
            pointwise_norm_aggregate(_overflow_order_kernel(), "t3", 2.0)


class TestGridOracleSanity:
    def test_matches_svd_on_l2(self):
        g = substream(53, 8)
        A = g.standard_normal((2, 2))
        spec = _unit(2)
        grid = direction_grid_oracle(matrix_norm_objective(A, spec, spec), spec)
        assert grid == pytest.approx(float(np.linalg.svd(A, compute_uv=False)[0]), rel=1e-7)

    def test_dim3_sphere(self):
        g = substream(59, 9)
        A = g.standard_normal((3, 3))
        spec = _unit(3)
        grid = direction_grid_oracle(matrix_norm_objective(A, spec, spec), spec, points=20000)
        assert grid == pytest.approx(float(np.linalg.svd(A, compute_uv=False)[0]), rel=1e-4)
