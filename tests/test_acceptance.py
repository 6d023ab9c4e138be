"""Acceptance suite: one test per shipped guarantee, tolerances pinned
in the assertions.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per item (each test also prints its own summary, visible with -s).
"""

import math
from pathlib import Path

import numpy as np

from mixedop import (
    EXACT,
    FiniteMeasureSpace,
    OperatorKernel,
    criterion_general_result,
    criterion_graph_result,
    criterion_mixed_composition,
    criterion_uniform_bounds,
    direct_integral_instance,
    exact_norm_decoupled,
    graph_relation,
    integrate_change_of_variables,
    kappa,
    oracle_norm_sampling,
    phi_derivative,
    phi_value,
    sandwich_report,
    section_ratios,
)
from mixedop.cli import main
from mixedop.generators import (
    random_density,
    random_measure_space,
    random_partition,
    random_split_mapping,
)
from mixedop.rng import substream

from builders import (
    bundled_kernel,
    identity_instance,
    random_atom_map,
    random_graph_instance,
    random_instance,
    random_noninjective_atom_map,
    random_scalar_instance,
    random_subset,
    scalar_family,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

P_POOL = (1.5, 2.0, 3.0, 4.0)
Q_POOL = (1.0, 1.25, 1.5, 2.0, 3.0)


def _pick_exponents(seed, require_strict=False):
    g = substream(seed, 999)
    while True:
        p = P_POOL[int(g.integers(len(P_POOL)))]
        q = Q_POOL[int(g.integers(len(Q_POOL)))]
        if q < p or (not require_strict and q == p):
            return p, q


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_01_scalar_equality_regime():
    # 100 seeded scalar instances: criterion == exact norm, oracle exact
    worst_gap = 0.0
    worst_oracle = 0.0
    for seed in range(100):
        ker = random_scalar_instance(seed, max_atoms=50)
        p, q = _pick_exponents(seed, require_strict=True)
        crit = criterion_general_result(ker, p, q).value
        exact = exact_norm_decoupled(ker, p, q)
        assert exact.certificate == EXACT
        gap = abs(crit - exact.value) / max(exact.value, 1e-300)
        assert gap <= 1e-9, (seed, p, q, crit, exact.value)
        worst_gap = max(worst_gap, gap)
        oracle = oracle_norm_sampling(ker, p, q, 10_000, seed=seed)
        deficit = exact.value - oracle
        assert deficit <= 1e-9 * max(exact.value, 1.0), (seed, p, q, oracle, exact.value)
        worst_oracle = max(worst_oracle, deficit / max(exact.value, 1.0))
    _report(
        "1 scalar equality regime",
        f"100 scalar instances, worst criterion gap {worst_gap:.2e}, "
        f"worst oracle deficit {worst_oracle:.2e}",
    )


def test_02_criterion_dominates_random_sections():
    # 100 multi-dimensional instances, 200 random sections each
    worst = -math.inf
    for seed in range(100):
        ker = random_instance(seed, max_atoms=8, max_dim=4)
        p, q = _pick_exponents(seed + 5000)
        crit = criterion_general_result(ker, p, q).value
        ratios = section_ratios(ker, p, q, 200, seed=seed + 10_000)
        excess = float(np.max(ratios)) - crit
        assert excess <= 1e-9 * max(crit, 1.0), (seed, p, q, excess)
        worst = max(worst, excess)
    _report("2 criterion sufficiency", f"100 instances x 200 sections, worst excess {worst:.2e}")


def test_03_necessity_gap_exhibit():
    ker = bundled_kernel("projection_gap")
    rep = sandwich_report(ker, 2, 2, 2000, seed=0)
    assert abs(rep.lower.value - 1.0) <= 1e-6
    assert abs(rep.upper.value - math.sqrt(2.0)) <= 1e-12
    assert rep.equality is False
    _report(
        "3 necessity gap exhibit",
        f"lower {rep.lower.value:.12f}, upper {rep.upper.value:.12f}, equality {rep.equality}",
    )


def _mixed_pool_instance(seed):
    if seed % 2 == 0:
        return random_scalar_instance(seed, max_atoms=12)
    return random_instance(seed, max_atoms=6, max_dim=3)


def test_04_set_function_additivity():
    # additivity over 50 partitions, monotonicity, norm^kappa consistency
    worst_add = 0.0
    for seed in range(50):
        ker = _mixed_pool_instance(seed)
        p, q = _pick_exponents(seed + 20_000, require_strict=True)
        k = kappa(p, q)
        ids = list(ker.relation.target.ids)
        phi_total = phi_value(ker, ids, p, q).value
        norm = exact_norm_decoupled(ker, p, q).value
        assert abs(norm**k - phi_total) <= 1e-9 * max(phi_total, 1e-300)
        denom = max(phi_total, 1e-300)
        for trial in range(50):
            blocks = random_partition(ids, seed * 1000 + trial)
            total = sum(phi_value(ker, b, p, q).value for b in blocks)
            rel_err = abs(total - phi_total) / denom
            assert rel_err <= 1e-9, (seed, trial, rel_err)
            worst_add = max(worst_add, rel_err)
            prefix = []
            prev = 0.0
            for block in blocks:
                prefix.extend(block)
                current = phi_value(ker, prefix, p, q).value
                assert current >= prev - 1e-12 * max(current, 1.0)
                prev = current
    _report("4 set function additivity", f"50 instances x 50 partitions, worst additivity {worst_add:.2e}")


def test_05_set_function_derivative():
    worst = 0.0
    for seed in range(50):
        ker = _mixed_pool_instance(seed)
        p, q = _pick_exponents(seed + 30_000, require_strict=True)
        mu = ker.relation.target
        ids = list(mu.ids)
        derivs = {t: phi_derivative(ker, t, p, q) for t in ids}
        for trial in range(100):
            U = random_subset(ids, seed * 777 + trial)
            phi_U = phi_value(ker, U, p, q).value
            integral = sum(derivs[t] * mu.weight(t) for t in U)
            assert integral <= phi_U + 1e-12 * max(phi_U, 1.0)
            rel_err = abs(integral - phi_U) / max(phi_U, 1e-300) if U else 0.0
            assert rel_err <= 1e-9, (seed, trial, rel_err)
            worst = max(worst, rel_err)
    _report("5 set function derivative", f"50 instances x 100 subsets, worst equality error {worst:.2e}")


def test_06_graph_criteria_match_exact_norm():
    worst = 0.0
    for seed in range(50):
        ker, psi = random_graph_instance(seed, max_atoms=16, max_dim=3, injective=True)
        p, q = _pick_exponents(seed + 40_000)
        crit = criterion_graph_result(ker, psi, p, q).value
        exact = exact_norm_decoupled(ker, p, q).value
        rel_err = abs(crit - exact) / max(exact, 1e-300)
        assert rel_err <= 1e-9, (seed, p, q, crit, exact)
        worst = max(worst, rel_err)
    ker_id, psi_id = identity_instance(4, dim=2)
    assert criterion_graph_result(ker_id, psi_id, 2, 2).value == 1.0
    assert exact_norm_decoupled(ker_id, 2, 2).value == 1.0
    _report("6 graph criteria", f"50 injective graph instances, worst gap {worst:.2e}; identity = 1")


def _two_sided_scalar_graph(seed):
    """Non-injective psi with scalar kernels of norms inside [c, C]."""
    g = substream(seed, 777)
    nt = int(g.integers(2, 13))
    ns = int(g.integers(2, 26))
    T = random_measure_space("t", nt, seed + 1)
    S = random_measure_space("s", ns, seed + 2)
    psi = random_noninjective_atom_map(S, T, seed + 3)
    rel = graph_relation(psi)
    mats = {
        (s, t): [[float(g.uniform(0.5, 2.0) * (1 if g.uniform() < 0.5 else -1))]]
        for (s, t) in rel.pairs
    }
    ker = OperatorKernel(rel, scalar_family(T), scalar_family(S), mats)
    return ker, psi


def test_07_two_sided_bounds_sandwich():
    for seed in range(50):
        ker, psi = _two_sided_scalar_graph(seed)
        assert not psi.is_injective
        norms = [ker.matrix_norm(s, t).value for (s, t) in ker.pairs]
        c, C = min(norms), max(norms)
        p, q = _pick_exponents(seed + 50_000)
        res = criterion_uniform_bounds(ker, psi, c, C, p, q)
        brute = exact_norm_decoupled(ker, p, q)
        assert brute.certificate == EXACT
        assert c * res.value <= brute.value + 1e-9 * max(brute.value, 1.0)
        assert brute.value <= C * res.value + 1e-9 * max(brute.value, 1.0)

    # the two-to-one unit instance: norm sqrt(2) within 1e-12
    S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
    T = FiniteMeasureSpace({"t1": 1.0})
    from mixedop import AtomMap

    psi = AtomMap(S, T, {"s1": "t1", "s2": "t1"})
    rel = graph_relation(psi)
    ker = OperatorKernel(
        rel, scalar_family(T), scalar_family(S),
        {("s1", "t1"): [[1.0]], ("s2", "t1"): [[1.0]]},
    )
    res = criterion_uniform_bounds(ker, psi, 1.0, 1.0, 2, 2)
    brute = exact_norm_decoupled(ker, 2, 2).value
    assert abs(brute - math.sqrt(2.0)) <= 1e-12
    assert abs(res.value - math.sqrt(2.0)) <= 1e-12
    _report("7 two-sided bounds", "50 non-injective instances, unit case sqrt(2)")


MIXEDCOMP_GRID = [
    (2.0, 1.0, 1.0, 2.0),
    (3.0, 2.0, 2.0, 3.0),
    (2.0, 2.0, 2.0, 2.0),
    (4.0, 2.0, 1.5, 3.0),
    (3.0, 3.0, 1.0, 2.0),
    (2.0, 1.5, 2.0, 2.0),
]


def test_08_mixed_composition_criterion():
    worst_norm = 0.0
    worst_route = 0.0
    for seed in range(50):
        phi = random_split_mapping(seed, max_outer=4, max_slice=4)
        for (p, q, alpha, beta) in MIXEDCOMP_GRID:
            crit = criterion_mixed_composition(phi, p, q, alpha, beta).value
            inst, psi_used = direct_integral_instance(phi, alpha, beta)
            brute = exact_norm_decoupled(inst, p, q).value
            route = criterion_graph_result(inst, psi_used, p, q).value
            scale = max(crit, 1e-300)
            err_norm = abs(crit - brute) / scale
            err_route = abs(crit - route) / scale
            assert err_norm <= 1e-6, (seed, (p, q, alpha, beta), crit, brute)
            assert err_route <= 1e-9, (seed, (p, q, alpha, beta), crit, route)
            worst_norm = max(worst_norm, err_norm)
            worst_route = max(worst_route, err_route)
    _report(
        "8 mixed composition",
        f"50 mappings x {len(MIXEDCOMP_GRID)} exponent tuples, "
        f"worst operator-norm gap {worst_norm:.2e}, worst route gap {worst_route:.2e}",
    )


def test_09_change_of_variables():
    worst = 0.0
    for seed in range(100):
        S = random_measure_space("s", int(substream(seed, 1).integers(2, 21)), seed)
        T = random_measure_space("t", int(substream(seed, 2).integers(2, 21)), seed + 100)
        psi = random_atom_map(S, T, seed + 200)
        f = random_density(T, seed + 300)
        lhs, rhs = integrate_change_of_variables(f, psi)
        rel_err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        assert rel_err <= 1e-12, (seed, lhs, rhs)
        worst = max(worst, rel_err)
    _report("9 change of variables", f"100 instances, worst relative gap {worst:.2e}")


def test_10_cli_byte_determinism(tmp_path):
    pairs = []
    for name in ("a", "b"):
        out = tmp_path / f"run_{name}.csv"
        assert main(["run", str(SCENARIOS / "scalar17.json"), "--out", str(out), "--seed", "7"]) == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]
    sweeps = []
    for name in ("a", "b"):
        out = tmp_path / f"sweep_{name}.csv"
        code = main([
            "sweep", str(SCENARIOS / "scalar17.json"),
            "--p-grid", "1.5,2,3,4", "--q-grid", "1,2,3", "--out", str(out), "--seed", "11",
        ])
        assert code == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
    _report("10 determinism", "run and sweep byte-identical across reruns")
