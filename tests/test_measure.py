"""Atomic measure spaces, relations, and the discrete calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedop import (
    AtomMap,
    DensityFn,
    FiniteMeasureSpace,
    UnknownAtomError,
    WeightedRelation,
    graph_relation,
    integrate_change_of_variables,
    marginal_onto_T,
    pushforward_volume_derivative,
    radon_nikodym,
)
from mixedop.generators import (
    random_atom_map,
    random_density,
    random_measure_space,
    random_relation,
)


class TestFiniteMeasureSpace:
    def test_canonical_order(self):
        sp = FiniteMeasureSpace({"b": 2.0, "a": 1.0, "c": 3.0})
        assert sp.ids == ("a", "b", "c")
        assert np.array_equal(sp.weights, [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace({"a": 0.0})
        with pytest.raises(ValueError):
            FiniteMeasureSpace({"a": -1.0})

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([("a", 1.0), ("a", 2.0)])

    def test_restrict_and_mass(self):
        sp = FiniteMeasureSpace({"a": 1.0, "b": 2.0})
        assert sp.total_mass == 3.0
        assert sp.restrict(["b"]).ids == ("b",)
        with pytest.raises(UnknownAtomError):
            sp.restrict(["z"])

    def test_weights_frozen(self):
        sp = FiniteMeasureSpace({"a": 1.0})
        with pytest.raises(ValueError):
            sp.weights[0] = 5.0


class TestWeightedRelation:
    def test_zero_weight_pairs_dropped(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        rel = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s1", "t2", 0.0)])
        assert rel.pairs == (("s1", "t1"),)

    def test_negative_weight_rejected(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        with pytest.raises(ValueError):
            WeightedRelation(S, T, [("s1", "t1", -1.0)])

    def test_duplicate_pair_rejected(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        with pytest.raises(ValueError):
            WeightedRelation(S, T, [("s1", "t1", 1.0), ("s1", "t1", 2.0)])

    def test_unknown_atom_rejected(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        with pytest.raises(UnknownAtomError):
            WeightedRelation(S, T, [("s1", "t2", 1.0)])

    def test_fibers_in_canonical_order(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        rel = WeightedRelation(S, T, [("s2", "t1", 2.0), ("s1", "t1", 1.0)])
        fiber = rel.fiber("t1").tolist()
        assert [rel.pairs[i] for i in fiber] == [("s1", "t1"), ("s2", "t1")]
        assert rel.weights[fiber].tolist() == [1.0, 2.0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_layout_matches_string_tuple_reference(self, data):
        ids = st.lists(st.text("ab01z", min_size=1, max_size=3), min_size=1, max_size=8, unique=True)
        S = FiniteMeasureSpace({i: 1.0 for i in data.draw(ids)})
        T = FiniteMeasureSpace({i: 2.0 for i in data.draw(ids)})
        weights = st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-300])
        product = [(s, t) for s in S.ids for t in T.ids]
        triples = data.draw(st.one_of(
            st.lists(st.tuples(st.sampled_from(S.ids), st.sampled_from(T.ids), weights), max_size=40),
            # every pair once: fibers as large as the ids allow
            st.lists(weights, min_size=len(product), max_size=len(product)).map(
                lambda ws: [(s, t, w) for (s, t), w in zip(product, ws)]
            ),
        ))
        if triples and data.draw(st.booleans()):
            # a zero-weight copy of a kept pair is no duplicate: it is dropped first
            s, t, _ = data.draw(st.sampled_from(triples))
            triples.append((s, t, 0.0))
        triples = data.draw(st.permutations(triples))
        ref = _reference_layout(T, triples)
        if ref is None:
            with pytest.raises(ValueError, match="duplicate"):
                WeightedRelation(S, T, triples)
            return
        pairs, weights, fibers = ref
        rel = WeightedRelation(S, T, triples)
        assert rel.pairs == pairs
        assert rel.weights.tolist() == weights
        assert rel.src.tolist() == [S.ids.index(s) for s, _ in pairs]
        assert rel.tgt.tolist() == [T.ids.index(t) for _, t in pairs]
        assert sorted(rel.order.tolist()) == list(range(len(pairs)))
        for u, t in enumerate(T.ids):
            fiber = rel.fiber(t).tolist()
            assert rel.start[u] == sum(len(fibers[x]) for x in T.ids[:u])
            assert rel.size[u] == len(fibers[t])
            assert rel.order[rel.start[u]:rel.start[u] + rel.size[u]].tolist() == fiber
            assert [(rel.pairs[i][0], weights[i]) for i in fiber] == fibers[t]
            assert all(rel.pairs[i][1] == t for i in fiber)
        for a in (rel.src, rel.tgt, rel.weights, rel.order, rel.start, rel.size):
            assert not a.flags.writeable
        with pytest.raises(UnknownAtomError):
            rel.fiber("not an atom")


def _reference_layout(T, triples):
    """The relation as sorted (s, t, w) string tuples: its pairs, weights
    and (s, w) fiber per target, or None for a duplicate pair."""
    cleaned = sorted((s, t, w) for s, t, w in triples if w != 0.0)
    pairs = tuple((s, t) for s, t, _ in cleaned)
    if len(set(pairs)) != len(pairs):
        return None
    fibers = {t: [(s, w) for s, x, w in cleaned if x == t] for t in T.ids}
    return pairs, [w for _, _, w in cleaned], fibers


class TestAtomMap:
    def test_totality_required(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        with pytest.raises(UnknownAtomError):
            AtomMap(S, T, {"s1": "t1"})

    def test_codomain_checked(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        with pytest.raises(UnknownAtomError):
            AtomMap(S, T, {"s1": "t9"})

    def test_preimage_and_injectivity(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
        assert psi.preimage("t1") == ("s1", "s2")
        assert psi.preimage("t2") == ()
        assert not psi.is_injective


class TestRadonNikodym:
    def test_simple_ratio(self):
        S = FiniteMeasureSpace({"s1": 2.0})
        T = FiniteMeasureSpace({"t1": 3.0})
        lam = WeightedRelation(S, T, [("s1", "t1", 6.0)])
        assert radon_nikodym(lam, S, T)[("s1", "t1")] == 1.0

    def test_half_ratio(self):
        S = FiniteMeasureSpace({"s1": 2.0})
        T = FiniteMeasureSpace({"t1": 3.0})
        lam = WeightedRelation(S, T, [("s1", "t1", 3.0)])
        assert radon_nikodym(lam, S, T)[("s1", "t1")] == 0.5

    def test_absent_atom_is_reference_error(self):
        S = FiniteMeasureSpace({"s1": 2.0})
        T = FiniteMeasureSpace({"t1": 3.0, "t2": 1.0})
        lam = WeightedRelation(S, T, [("s1", "t2", 1.0)])
        T_small = FiniteMeasureSpace({"t1": 3.0})
        with pytest.raises(UnknownAtomError):
            radon_nikodym(lam, S, T_small)

    def test_mass_reconstruction(self):
        # sum of J * nu * mu over pairs recovers the total relation mass
        for seed in range(20):
            S = random_measure_space("s", 6, seed)
            T = random_measure_space("t", 5, seed + 100)
            lam = random_relation(S, T, seed + 200, density=0.5)
            J = radon_nikodym(lam, S, T)
            total = sum(J[(s, t)] * S.weight(s) * T.weight(t) for s, t, _ in lam.items())
            assert total == pytest.approx(lam.total_mass, rel=1e-12)


class TestMarginal:
    def test_sums_over_sources(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        lam = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s2", "t1", 2.0)])
        marg = marginal_onto_T(lam)
        assert marg.ids == ("t1",)
        assert marg.weight("t1") == 3.0

    def test_keeps_targets_separate(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        lam = WeightedRelation(S, T, [("s1", "t1", 1.0), ("s1", "t2", 4.0)])
        marg = marginal_onto_T(lam)
        assert marg.weight("t1") == 1.0 and marg.weight("t2") == 4.0

    def test_empty_relation_gives_empty_measure(self):
        S = FiniteMeasureSpace({"s1": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        lam = WeightedRelation(S, T, [])
        assert len(marginal_onto_T(lam)) == 0


class TestPushforward:
    def test_two_to_one(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 2.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
        J = pushforward_volume_derivative(psi, S, T)
        assert J["t1"] == 3.0 and J["t2"] == 0.0

    def test_identity_gives_one(self):
        S = FiniteMeasureSpace({"a": 2.0, "b": 5.0})
        psi = AtomMap(S, S, {"a": "a", "b": "b"})
        J = pushforward_volume_derivative(psi, S, S)
        assert all(J[t] == 1.0 for t in S.ids)

    def test_weight_ratio(self):
        S = FiniteMeasureSpace({"s1": 5.0})
        T = FiniteMeasureSpace({"t1": 2.0})
        psi = AtomMap(S, T, {"s1": "t1"})
        assert pushforward_volume_derivative(psi, S, T)["t1"] == 2.5

    def test_matches_direct_preimage_sum(self):
        for seed in range(10):
            S = random_measure_space("s", 8, seed)
            T = random_measure_space("t", 5, seed + 50)
            psi = random_atom_map(S, T, seed)
            J = pushforward_volume_derivative(psi, S, T)
            for t in T.ids:
                direct = sum(S.weight(s) for s in psi.preimage(t)) / T.weight(t)
                assert J[t] == direct


class TestChangeOfVariables:
    def test_collapse_two_atoms(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
        f = DensityFn({"t1": 5.0, "t2": 7.0})
        lhs, rhs = integrate_change_of_variables(f, psi, S, T)
        assert lhs == 10.0 and rhs == 10.0

    def test_identity_map(self):
        S = FiniteMeasureSpace({"a": 2.0, "b": 3.0})
        psi = AtomMap(S, S, {"a": "a", "b": "b"})
        f = DensityFn({"a": 1.5, "b": 0.25})
        lhs, rhs = integrate_change_of_variables(f, psi, S, S)
        expected = 2.0 * 1.5 + 3.0 * 0.25
        assert lhs == pytest.approx(expected, rel=1e-15)
        assert rhs == pytest.approx(expected, rel=1e-15)

    def test_random_instances_agree(self):
        # both routes are plain sums; they must agree to rounding
        for seed in range(25):
            S = random_measure_space("s", 20, seed)
            T = random_measure_space("t", 20, seed + 1)
            psi = random_atom_map(S, T, seed + 2)
            f = random_density(T, seed + 3)
            lhs, rhs = integrate_change_of_variables(f, psi, S, T)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGraphRelation:
    def test_single_atom(self):
        S = FiniteMeasureSpace({"s1": 3.0})
        T = FiniteMeasureSpace({"t1": 1.0, "t2": 1.0})
        psi = AtomMap(S, T, {"s1": "t2"})
        rel = graph_relation(psi, S)
        assert rel.pairs == (("s1", "t2"),)
        assert rel.weight("s1", "t2") == 3.0

    def test_constant_map(self):
        S = FiniteMeasureSpace({"s1": 1.0, "s2": 2.0, "s3": 4.0})
        T = FiniteMeasureSpace({"t1": 1.0})
        psi = AtomMap(S, T, {s: "t1" for s in S.ids})
        rel = graph_relation(psi, S)
        assert len(rel) == 3
        assert [w for _, _, w in rel.items()] == [1.0, 2.0, 4.0]

    def test_marginal_equals_pushforward(self):
        # both are the same preimage sums in the same canonical order
        for seed in range(10):
            S = random_measure_space("s", 7, seed)
            T = random_measure_space("t", 4, seed + 30)
            psi = random_atom_map(S, T, seed)
            marg = marginal_onto_T(graph_relation(psi, S))
            push = pushforward_volume_derivative(psi, S, T)
            for t in T.ids:
                pre_mass = sum(S.weight(s) for s in psi.preimage(t))
                got = marg.weight(t) if t in marg else 0.0
                assert got == pre_mass
                assert push[t] == pytest.approx(pre_mass / T.weight(t), rel=1e-15)


class TestDensityFn:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityFn({"a": -0.5})

    def test_missing_key(self):
        f = DensityFn({"a": 1.0})
        with pytest.raises(UnknownAtomError):
            f["b"]
