"""Composition operators on mixed-norm grids: split mappings, volume
derivatives, the boundedness criterion, and its cross-checks."""

import math
import re

import numpy as np
import pytest

from mixedop import (
    EXACT,
    FiniteMeasureSpace,
    MixedDomain,
    NotInjectiveError,
    SliceRangeError,
    SplitMapping,
    UnknownAtomError,
    UnsupportedExponentsError,
    criterion_general_result,
    criterion_graph_result,
    criterion_mixed_composition,
    criterion_uniform_bounds,
    direct_integral_instance,
    exact_norm_decoupled,
    grid_section,
    mixed_as_direct_integral,
    mixed_norm,
    slice_volume_derivatives,
)
from mixedop.generators import random_split_mapping
from mixedop.rng import substream

from references import compose_apply, mixed_product_density_norm

EXPONENT_GRID = [
    (2.0, 1.0, 1.0, 2.0),
    (3.0, 2.0, 2.0, 3.0),
    (2.0, 2.0, 2.0, 2.0),
    (4.0, 2.0, 1.5, 3.0),
    (2.0, 2.0, 2.0, 3.0),
    (3.0, 1.5, 2.0, 2.0),
    (2.0, 1.0, 1.0, 1.0),
]


def _identity_mapping(n_outer=2, n_inner=2):
    S = FiniteMeasureSpace({f"o{i}": 1.0 for i in range(n_outer)})
    X = FiniteMeasureSpace({f"i{j}": 1.0 for j in range(n_inner)})
    cells = [(s, x) for s in S.ids for x in X.ids]
    dom = MixedDomain(S, X, cells)
    cod = MixedDomain(S, X, cells)
    psi = {s: s for s in S.ids}
    u = {s: {x: x for x in X.ids} for s in S.ids}
    return SplitMapping(dom, cod, psi, u)


class TestMixedDomain:
    """MixedDomain is the one validator of a grid and the one owner of its
    slice order; the mixed-norm functions only read its slices."""

    S = FiniteMeasureSpace({"s1": 1.0, "s2": 2.0, "s3": 0.5})
    X = FiniteMeasureSpace({"x1": 1.0, "x2": 0.25, "x3": 4.0})

    @pytest.mark.parametrize("cell, message", [
        (("s9", "x1"), "unknown outer atom 's9'"),
        (("s1", "x9"), "unknown inner atom 'x9'"),
    ])
    def test_unknown_atom_rejected(self, cell, message):
        with pytest.raises(UnknownAtomError, match=message):
            MixedDomain(self.S, self.X, [("s1", "x1"), cell])

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError, match="duplicate cells"):
            MixedDomain(self.S, self.X, [("s1", "x2"), ("s2", "x1"), ("s1", "x2")])

    def test_slices_in_canonical_inner_order(self):
        grid = MixedDomain(self.S, self.X, [("s2", "x3"), ("s1", "x3"), ("s2", "x1"), ("s1", "x2"), ("s2", "x2")])
        assert grid.slice("s1") == ("x2", "x3")
        assert grid.slice("s2") == ("x1", "x2", "x3")
        assert grid.cells == tuple(sorted(grid.cells))

    def test_outer_atom_without_cells_has_empty_slice(self):
        grid = MixedDomain(self.S, self.X, [("s1", "x1"), ("s3", "x2")])
        assert grid.slice("s2") == ()
        fam = mixed_as_direct_integral(grid, 2)
        assert fam.base.ids == ("s1", "s3")
        g = {("s1", "x1"): 3.0, ("s3", "x2"): 4.0}
        assert grid_section(g, grid).keys() == ["s1", "s3"]
        # the empty slice adds nothing: (1 * 3^2 + 0.5 * (0.25 * 4^2))^(1/2)
        assert mixed_norm(g, grid, 2, 2) == pytest.approx(math.sqrt(11.0), rel=1e-15)

    @pytest.mark.parametrize("fn", [
        lambda g, grid: mixed_norm(g, grid, 2, 1),
        lambda g, grid: grid_section(g, grid),
    ], ids=["mixed_norm", "grid_section"])
    def test_function_missing_a_cell_rejected(self, fn):
        grid = MixedDomain(self.S, self.X, [("s1", "x1"), ("s2", "x3")])
        with pytest.raises(UnknownAtomError, match=r"\('s2', 'x3'\)"):
            fn({("s1", "x1"): 1.0}, grid)


class TestSplitMapping:
    def test_u_outside_slice_rejected(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        X = FiniteMeasureSpace({"x1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        Y = FiniteMeasureSpace({"y1": 1.0, "y2": 1.0})
        dom = MixedDomain(S, X, [("s1", "x1")])
        cod = MixedDomain(T, Y, [("t1", "y1"), ("t2", "y2")])
        with pytest.raises(SliceRangeError):
            SplitMapping(dom, cod, {"s1": "t1"}, {"s1": {"x1": "y2"}})

    def test_u_must_be_total_on_slice(self):
        phi = _identity_mapping()
        dom, cod = phi.domain, phi.codomain
        with pytest.raises(UnknownAtomError):
            SplitMapping(dom, cod, {s: s for s in dom.outer.ids}, {})

    def test_psi_must_be_total_on_outer_atoms(self):
        phi = _identity_mapping()
        with pytest.raises(UnknownAtomError, match=r"^map table must be total on the source atoms$"):
            SplitMapping(phi.domain, phi.codomain, {"o0": "o0"}, {})

    def test_psi_must_land_in_codomain_outer_atoms(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        X = FiniteMeasureSpace({"x1": 1.0})
        dom = MixedDomain(S, X, [("s1", "x1")])
        with pytest.raises(UnknownAtomError, match=r"^map sends 's1' to unknown atom 'zz'$") as e:
            SplitMapping(dom, dom, {"s1": "zz"}, {"s1": {"x1": "x1"}})
        # a KeyError subclass, but its message is not quoted
        assert str(e.value) == "map sends 's1' to unknown atom 'zz'"
        assert isinstance(e.value, KeyError)


class TestComposeApply:
    def test_identity(self):
        phi = _identity_mapping()
        g = substream(1, 0)
        f = {c: float(g.standard_normal()) for c in phi.codomain.cells}
        assert compose_apply(f, phi) == f

    def test_constant_one(self):
        phi = random_split_mapping(5)
        f = {c: 1.0 for c in phi.codomain.cells}
        out = compose_apply(f, phi)
        assert set(out) == set(phi.domain.cells)
        assert all(v == 1.0 for v in out.values())

    def test_permutation(self):
        S = FiniteMeasureSpace({"o0": 1.0, "o1": 1.0})
        X = FiniteMeasureSpace({"i0": 1.0, "i1": 1.0})
        cells = [(s, x) for s in S.ids for x in X.ids]
        dom = MixedDomain(S, X, cells)
        cod = MixedDomain(S, X, cells)
        psi = {"o0": "o1", "o1": "o0"}
        u = {s: {"i0": "i1", "i1": "i0"} for s in S.ids}
        phi = SplitMapping(dom, cod, psi, u)
        f = {("o0", "i0"): 1.0, ("o0", "i1"): 2.0, ("o1", "i0"): 3.0, ("o1", "i1"): 4.0}
        out = compose_apply(f, phi)
        assert out[("o0", "i0")] == 4.0
        assert out[("o0", "i1")] == 3.0
        assert out[("o1", "i0")] == 2.0
        assert out[("o1", "i1")] == 1.0

    def test_linear_and_positive(self):
        phi = random_split_mapping(11)
        g = substream(2, 0)
        f1 = {c: float(g.standard_normal()) for c in phi.codomain.cells}
        f2 = {c: float(g.standard_normal()) for c in phi.codomain.cells}
        combo = {c: 2.0 * f1[c] + 3.0 * f2[c] for c in f1}
        out = compose_apply(combo, phi)
        o1, o2 = compose_apply(f1, phi), compose_apply(f2, phi)
        for c in phi.domain.cells:
            assert out[c] == pytest.approx(2.0 * o1[c] + 3.0 * o2[c], rel=1e-15)
        nonneg = {c: abs(f1[c]) for c in f1}
        assert all(v >= 0 for v in compose_apply(nonneg, phi).values())


class TestSliceVolumeDerivatives:
    def test_identity_gives_ones(self):
        phi = _identity_mapping()
        J_psi, J_u = slice_volume_derivatives(phi)
        assert all(J_psi[t] == 1.0 for t in phi.codomain.outer.ids)
        assert all(J_u[c] == 1.0 for c in phi.codomain.cells)

    def test_two_to_one_inner(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        X = FiniteMeasureSpace({"x1": 1.0, "x2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        Y = FiniteMeasureSpace({"y1": 1.0})
        dom = MixedDomain(S, X, [("s1", "x1"), ("s1", "x2")])
        cod = MixedDomain(T, Y, [("t1", "y1")])
        phi = SplitMapping(dom, cod, {"s1": "t1"}, {"s1": {"x1": "y1", "x2": "y1"}})
        _, J_u = slice_volume_derivatives(phi)
        assert J_u[("t1", "y1")] == 2.0

    def test_non_injective_rejected(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        X = FiniteMeasureSpace({"x1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        Y = FiniteMeasureSpace({"y1": 1.0})
        dom = MixedDomain(S, X, [("s1", "x1"), ("s2", "x1")])
        cod = MixedDomain(T, Y, [("t1", "y1")])
        phi = SplitMapping(
            dom, cod, {"s1": "t1", "s2": "t1"}, {"s1": {"x1": "y1"}, "s2": {"x1": "y1"}}
        )
        with pytest.raises(NotInjectiveError):
            slice_volume_derivatives(phi)
        with pytest.raises(NotInjectiveError):
            criterion_mixed_composition(phi, 2, 2, 2, 2)
        # the two-sided-bounds route still covers the instance: norm sqrt(2)
        inst, psi_used = direct_integral_instance(phi, 2, 2)
        assert exact_norm_decoupled(inst, 2, 2).value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        res = criterion_uniform_bounds(inst, psi_used, 1.0, 1.0, 2, 2)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestCriterion:
    def test_identity_is_one(self):
        phi = _identity_mapping()
        assert criterion_mixed_composition(phi, 2, 2, 2, 2).value == pytest.approx(1.0, rel=1e-15)

    def test_single_slice_two_to_one(self):
        # alpha=1, beta=2: the criterion equals the per-slice norm directly
        S = FiniteMeasureSpace({"s1": 1.0})
        X = FiniteMeasureSpace({"x1": 1.0, "x2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        Y = FiniteMeasureSpace({"y1": 1.0})
        dom = MixedDomain(S, X, [("s1", "x1"), ("s1", "x2")])
        cod = MixedDomain(T, Y, [("t1", "y1")])
        phi = SplitMapping(dom, cod, {"s1": "t1"}, {"s1": {"x1": "y1", "x2": "y1"}})
        got = criterion_mixed_composition(phi, 2, 2, 1, 2).value
        # per-slice value computed directly: ||J_u^(1/alpha)||_{L^2(slice)}
        _, J_u = slice_volume_derivatives(phi)
        expected = (Y.weight("y1") * J_u[("t1", "y1")] ** 2.0) ** 0.5
        assert got == pytest.approx(expected, rel=1e-15)
        # and it is the actual operator norm
        inst, _ = direct_integral_instance(phi, 1, 2)
        assert exact_norm_decoupled(inst, 2, 2).value == pytest.approx(got, rel=1e-12)

    def test_matches_product_density_route(self):
        for seed in range(15):
            phi = random_split_mapping(seed)
            for (p, q, a, b) in EXPONENT_GRID:
                got = criterion_mixed_composition(phi, p, q, a, b)
                assert got.certificate == EXACT  # read off the volume derivatives, no matrix norm
                direct = mixed_product_density_norm(phi, p, q, a, b)
                assert got.value == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_matches_operator_norm_and_graph_route(self):
        for seed in range(15):
            phi = random_split_mapping(seed, max_outer=4, max_slice=4)
            for (p, q, a, b) in EXPONENT_GRID:
                crit = criterion_mixed_composition(phi, p, q, a, b).value
                inst, psi_used = direct_integral_instance(phi, a, b)
                brute = exact_norm_decoupled(inst, p, q).value
                route = criterion_graph_result(inst, psi_used, p, q).value
                scale = max(crit, 1.0)
                assert abs(crit - brute) <= 1e-6 * scale
                assert abs(crit - route) <= 1e-9 * scale

    @pytest.mark.parametrize("exps, reason", [
        ((2, 1, 2, 1), "alpha>beta out of supported scope"),
        ((2, 1, 1, math.inf), "beta=inf out of scope"),
        ((2, 1, math.inf, math.inf), "beta=inf out of scope"),
        ((math.inf, math.inf, 1, 2), "p=inf out of scope"),
        ((1, 2, 1, 2), "p<q out of supported scope"),
        ((math.inf, 2, 1, 2), "p=inf out of scope"),
    ])
    def test_refusal_is_the_rejected_reason(self, exps, reason):
        phi = random_split_mapping(3)
        anchored = f"^{re.escape(reason)}$"
        with pytest.raises(UnsupportedExponentsError, match=anchored):
            criterion_mixed_composition(phi, *exps)
        with pytest.raises(UnsupportedExponentsError, match=anchored):
            mixed_product_density_norm(phi, *exps)

    def test_sufficiency_for_random_functions(self):
        g = substream(3, 0)
        for seed in range(10):
            phi = random_split_mapping(seed)
            for (p, q, a, b) in [(2.0, 1.0, 1.0, 2.0), (3.0, 2.0, 2.0, 3.0), (2.0, 2.0, 2.0, 2.0)]:
                crit = criterion_mixed_composition(phi, p, q, a, b).value
                for _ in range(20):
                    f = {c: float(g.standard_normal()) for c in phi.codomain.cells}
                    num = mixed_norm(compose_apply(f, phi), phi.domain, q, a)
                    den = mixed_norm(f, phi.codomain, p, b)
                    assert num <= crit * den + 1e-9 * max(1.0, crit * den)


class TestDirectIntegralInstance:
    def test_incidence_shapes(self):
        phi = random_split_mapping(21)
        inst, psi_used = direct_integral_instance(phi, 2, 2)
        for s in inst.relation.source.ids:
            t = psi_used(s)
            A = inst.matrix(s, t)
            assert A.shape == (len(phi.domain.slice(s)), len(phi.codomain.slice(t)))
            assert np.all(A.sum(axis=1) == 1.0)  # each x has exactly one image

    def test_criterion_general_agrees_on_graph(self):
        # the general criterion on the materialized instance also matches
        phi = random_split_mapping(33)
        p, q, a, b = 3.0, 2.0, 2.0, 3.0
        crit = criterion_mixed_composition(phi, p, q, a, b).value
        inst, _ = direct_integral_instance(phi, a, b)
        assert criterion_general_result(inst, p, q).value == pytest.approx(crit, rel=1e-9)
