"""Laws of the paper as metamorphic tests across seeded random instances.

Restriction: c(t) does not depend on the other target atoms, so the
batched solvers give it bit for bit on ``kernel.restrict_targets(A)``.

Target refinement: splitting a target atom into two halves, each with
half of mu_t and of every lam_st and with W_t and P(s, t) copied, leaves
the operator norm, the criterion and Phi(T) unchanged for p >= q.  Each
half's term is 2^(-1/q) c(t) (mu_t / 2)^(-1/p), and kappa (1/q - 1/p) = 1,
so the two halves' kappa-th powers add up to the whole atom's.
"""

import pytest

from mixedop import (
    FiberFamily,
    FiniteMeasureSpace,
    OperatorKernel,
    WeightedRelation,
    criterion_general_result,
    exact_norm_decoupled,
    fiber_effectiveness,
    phi_value,
)

from builders import random_instance, random_scalar_instance, random_subset

REFINEMENT_RTOL = 1e-12  # the relative change the refinement law allows


def _instance(seed: int) -> OperatorKernel:
    """Odd seeds: multi-dimensional fibers; even seeds: all-scalar fibers."""
    return random_instance(seed) if seed % 2 else random_scalar_instance(seed)


@pytest.mark.parametrize("block", range(4))
def test_effectiveness_is_unchanged_by_restriction(block):
    mismatches = []
    for seed in range(25 * block, 25 * (block + 1)):
        ker = _instance(seed)
        ids = ker.relation.target.ids
        keep = random_subset(ids, seed) or [ids[0]]
        sub = ker.restrict_targets(keep)
        for q in (1.0, 1.5, 2.0, 3.0):
            for t in keep:
                full, part = fiber_effectiveness(ker, t, q), fiber_effectiveness(sub, t, q)
                if (part.value, part.certificate) != (full.value, full.certificate):
                    mismatches.append((seed, q, t, full, part))
    assert not mismatches


def _split_target(kernel: OperatorKernel, t: str) -> OperatorKernel:
    """``kernel`` with target atom ``t`` split into ``t`` and ``t + "b"``:
    mu_t and every lam_st halved, W_t and each P(s, t) copied."""
    rel, W = kernel.relation, kernel.domain_family
    twin = t + "b"
    origin = {twin: t}
    masses = {}
    for u in rel.target.ids:
        masses[u] = rel.target.weight(u) / (2.0 if u == t else 1.0)
        if u == t:
            masses[twin] = masses[t]
    T = FiniteMeasureSpace(masses)
    pairs = []
    for (s, u) in rel.pairs:
        w = rel.weight(s, u)
        pairs += [(s, t, w / 2.0), (s, twin, w / 2.0)] if u == t else [(s, u, w)]
    split = WeightedRelation(rel.source, T, pairs)
    family = FiberFamily(T, {u: W.norm(origin.get(u, u)) for u in T.ids})
    mats = {(s, u): kernel.matrix(s, origin.get(u, u)) for (s, u) in split.pairs}
    return OperatorKernel(split, family, kernel.codomain_family, mats)


def _values(kernel: OperatorKernel, p, q) -> dict:
    out = {
        "norm": exact_norm_decoupled(kernel, p, q),
        "criterion": criterion_general_result(kernel, p, q),
    }
    if p != q:  # kappa is infinite at p = q, where Phi is undefined
        out["phi"] = phi_value(kernel, kernel.relation.target.ids, p, q)
    return out


@pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (4, 3), (2, 1), (3, 1.5)])
def test_target_refinement_leaves_the_norm_unchanged(p, q):
    changed = []
    for seed in range(40):
        ker = _instance(seed)
        ids = ker.relation.target.ids
        before = _values(ker, p, q)
        after = _values(_split_target(ker, ids[seed % len(ids)]), p, q)
        for name, old in before.items():
            new = after[name]
            ok = abs(new.value - old.value) <= REFINEMENT_RTOL * old.value  # NaN fails
            if not ok or new.certificate != old.certificate:
                changed.append((seed, name, old, new))
    assert not changed
