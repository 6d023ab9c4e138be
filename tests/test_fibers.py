"""Fiber norms, direct-integral norms, and mixed norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedop import (
    INF,
    DimensionMismatchError,
    FiberFamily,
    FiniteMeasureSpace,
    InvalidExponentError,
    MixedDomain,
    NormSpec,
    Section,
    direct_integral_norm,
    fiber_norm,
    grid_section,
    mixed_as_direct_integral,
    mixed_norm,
    scalar_family,
)
from mixedop.rng import substream

from helpers import product_lq_norm, weighted_norm_reference

EXPONENT_POOL = (1.0, 1.5, 2.0, 3.0, INF)

finite_vec = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=6
)
pos_weights = st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6)
exponent = st.sampled_from(EXPONENT_POOL)


class TestFiberNorm:
    def test_euclidean_345(self):
        assert fiber_norm([3.0, 4.0], NormSpec(2, [1.0, 1.0])) == 5.0

    def test_sup_norm(self):
        assert fiber_norm([3.0, 4.0], NormSpec(INF, [1.0, 1.0])) == 4.0

    def test_weighted_l2(self):
        got = fiber_norm([3.0, 4.0], NormSpec(2, [4.0, 1.0]))
        assert got == pytest.approx(math.sqrt(52.0), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fiber_norm([1.0, 2.0, 3.0], NormSpec(2, [1.0, 1.0]))

    def test_matches_reference(self):
        g = substream(99, 0)
        for _ in range(50):
            dim = int(g.integers(1, 7))
            v = g.standard_normal(dim)
            w = g.uniform(0.2, 3.0, dim)
            r = EXPONENT_POOL[int(g.integers(len(EXPONENT_POOL)))]
            assert fiber_norm(v, NormSpec(r, w)) == pytest.approx(
                weighted_norm_reference(v, w, r), rel=1e-12
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), r=exponent)
    def test_homogeneity_and_triangle(self, data, r):
        w = data.draw(pos_weights)
        dim = len(w)
        u = np.array(data.draw(st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=dim, max_size=dim,
        )))
        v = np.array(data.draw(st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=dim, max_size=dim,
        )))
        c = data.draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
        spec = NormSpec(r, w)
        scale = max(fiber_norm(u, spec), fiber_norm(v, spec), 1.0)
        assert fiber_norm(c * u, spec) == pytest.approx(
            abs(c) * fiber_norm(u, spec), rel=1e-12, abs=1e-12
        )
        assert fiber_norm(u + v, spec) <= fiber_norm(u, spec) + fiber_norm(v, spec) + 1e-12 * scale

    def test_norm_spec_validation(self):
        with pytest.raises(InvalidExponentError):
            NormSpec(0.5, [1.0])
        with pytest.raises(ValueError):
            NormSpec(2, [1.0, -1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_weight_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^weights must be strictly positive and finite$"):
            NormSpec(2, [1.0, bad, 2.0])


class TestDirectIntegralNorm:
    def test_two_scalar_fibers(self):
        base = FiniteMeasureSpace({"a": 1.0, "b": 1.0})
        fam = scalar_family(base)
        f = Section({"a": [1.0], "b": [2.0]})
        assert direct_integral_norm(f, fam, 2) == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_zero_section(self):
        base = FiniteMeasureSpace({"a": 1.0, "b": 2.0})
        fam = scalar_family(base)
        f = Section({"a": [0.0], "b": [0.0]})
        assert direct_integral_norm(f, fam, 3) == 0.0

    def test_sup_exponent(self):
        base = FiniteMeasureSpace({"a": 1.0, "b": 1.0})
        fam = scalar_family(base)
        f = Section({"a": [1.0], "b": [2.0]})
        assert direct_integral_norm(f, fam, INF) == 2.0

    def test_invalid_exponent(self):
        base = FiniteMeasureSpace({"a": 1.0})
        fam = scalar_family(base)
        with pytest.raises(InvalidExponentError):
            direct_integral_norm(Section({"a": [1.0]}), fam, 0.5)

    def test_dimension_mismatch(self):
        base = FiniteMeasureSpace({"a": 1.0})
        fam = FiberFamily(base, {"a": NormSpec(2, [1.0, 1.0])})
        with pytest.raises(DimensionMismatchError):
            direct_integral_norm(Section({"a": [1.0]}), fam, 2)

    def test_monotone_in_p_on_probability_measure(self):
        # power-mean inequality on a normalized base
        g = substream(7, 1)
        for trial in range(30):
            n = int(g.integers(2, 7))
            base = FiniteMeasureSpace(
                {f"a{i}": float(w) for i, w in enumerate(g.uniform(0.2, 2.0, n))}
            ).normalized()
            fam = scalar_family(base)
            f = Section({a: [float(g.standard_normal())] for a in base.ids})
            ps = sorted(g.uniform(1.0, 6.0, 2))
            n1 = direct_integral_norm(f, fam, ps[0])
            n2 = direct_integral_norm(f, fam, ps[1])
            assert n1 <= n2 + 1e-12 * max(n2, 1.0)
            assert n2 <= direct_integral_norm(f, fam, INF) + 1e-12


def _full_grid(ns, nx):
    nu = FiniteMeasureSpace({f"s{i}": 1.0 for i in range(ns)})
    eta = FiniteMeasureSpace({f"x{j}": 1.0 for j in range(nx)})
    cells = [(s, x) for s in nu.ids for x in eta.ids]
    return nu, eta, cells


class TestMixedNorm:
    def test_constant_on_grid(self):
        nu, eta, cells = _full_grid(2, 3)
        g = {c: 1.0 for c in cells}
        assert mixed_norm(g, MixedDomain(nu, eta, cells), 2, 1) == pytest.approx(math.sqrt(18.0), rel=1e-15)

    def test_alpha_equals_q_collapses_to_product_norm(self):
        gen = substream(11, 2)
        for trial in range(20):
            nu = FiniteMeasureSpace({f"s{i}": float(w) for i, w in enumerate(gen.uniform(0.3, 2.0, 4))})
            eta = FiniteMeasureSpace({f"x{j}": float(w) for j, w in enumerate(gen.uniform(0.3, 2.0, 3))})
            cells = [(s, x) for s in nu.ids for x in eta.ids if gen.uniform() < 0.7]
            g = {c: float(gen.standard_normal()) for c in cells}
            q = float(gen.uniform(1.0, 4.0))
            if not cells:
                continue
            assert mixed_norm(g, MixedDomain(nu, eta, cells), q, q) == pytest.approx(
                product_lq_norm(g, nu, eta, q), rel=1e-12
            )

    def test_empty_slices_contribute_zero(self):
        nu = FiniteMeasureSpace({"s1": 1.0, "s2": 9.0})
        eta = FiniteMeasureSpace({"x1": 1.0})
        g = {("s1", "x1"): 3.0}
        assert mixed_norm(g, MixedDomain(nu, eta, g.keys()), 2, 2) == 3.0


class TestMixedAsDirectIntegral:
    def test_fiber_layout(self):
        nu, eta, cells = _full_grid(2, 3)
        fam = mixed_as_direct_integral(MixedDomain(nu, eta, cells), 1)
        assert set(fam.base.ids) == set(nu.ids)
        for s in fam.base.ids:
            assert fam.dim(s) == 3
            assert fam.norm(s).r == 1.0

    def test_constant_grid_equality(self):
        nu, eta, cells = _full_grid(2, 3)
        g = {c: 1.0 for c in cells}
        grid = MixedDomain(nu, eta, cells)
        fam = mixed_as_direct_integral(grid, 1)
        f = grid_section(g, grid)
        assert direct_integral_norm(f, fam, 2) == pytest.approx(math.sqrt(18.0), rel=1e-15)

    def test_two_route_equality_random(self):
        # 100 random sections across random exponent pairs
        gen = substream(23, 3)
        pool = (1.0, 1.5, 2.0, 3.0, INF)
        for trial in range(100):
            ns, nx = int(gen.integers(1, 6)), int(gen.integers(1, 6))
            nu = FiniteMeasureSpace({f"s{i}": float(w) for i, w in enumerate(gen.uniform(0.3, 2.0, ns))})
            eta = FiniteMeasureSpace({f"x{j}": float(w) for j, w in enumerate(gen.uniform(0.3, 2.0, nx))})
            cells = [(s, x) for s in nu.ids for x in eta.ids if gen.uniform() < 0.8]
            if not cells:
                continue
            g = {c: float(gen.standard_normal()) for c in cells}
            q = pool[int(gen.integers(len(pool)))]
            alpha = pool[int(gen.integers(len(pool)))]
            grid = MixedDomain(nu, eta, cells)
            fam = mixed_as_direct_integral(grid, alpha)
            f = grid_section(g, grid)
            via_family = direct_integral_norm(f, fam, q)
            direct = mixed_norm(g, grid, q, alpha)
            assert via_family == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_sup_inner_uses_unit_weights(self):
        nu = FiniteMeasureSpace({"s1": 1.0})
        eta = FiniteMeasureSpace({"x1": 5.0, "x2": 0.125})
        cells = [("s1", "x1"), ("s1", "x2")]
        g = {("s1", "x1"): 1.0, ("s1", "x2"): 2.0}
        grid = MixedDomain(nu, eta, cells)
        fam = mixed_as_direct_integral(grid, INF)
        f = grid_section(g, grid)
        # ess-sup over the slice is 2 regardless of the eta weights
        assert mixed_norm(g, grid, 2, INF) == 2.0
        assert direct_integral_norm(f, fam, 2) == 2.0
