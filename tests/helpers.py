"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: vertex enumeration
for l1-ball suprema, raw SVD on hand-conjugated matrices, dense angle
grids, and direct two-route summation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mixedop import NormSpec, fiber_norm


def loop_sum(values) -> float:
    """``values`` added left to right, one ``total +=`` at a time."""
    total = 0.0
    for v in values:
        total += v
    return total


def neumaier_sum(values) -> float:
    """The builtin float sum of Python 3.12 on: Neumaier-compensated, the
    correction added at the end when it is nonzero and finite."""
    total, c = 0.0, 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def weighted_norm_reference(v, weights, r) -> float:
    """Straightforward reference evaluation of the weighted r-norm."""
    v = np.abs(np.asarray(v, dtype=float))
    w = np.asarray(weights, dtype=float)
    if math.isinf(r):
        return float(np.max(w * v)) if v.size else 0.0
    return float(np.sum(w * v**r) ** (1.0 / r))


def vertex_norm_oracle(A, in_norm: NormSpec, out_norm: NormSpec) -> float:
    """Exact induced norm for in-exponent 1: enumerate the +-e_j / w_j
    extreme points of the weighted l1 ball."""
    assert in_norm.r == 1.0
    A = np.asarray(A, dtype=float)
    best = 0.0
    for j in range(in_norm.dim):
        e = np.zeros(in_norm.dim)
        e[j] = 1.0 / in_norm.weights[j]
        best = max(best, fiber_norm(A @ e, out_norm))
    return best


def svd_norm_oracle(A, in_weights, out_weights) -> float:
    """Exact weighted l2 -> l2 induced norm via SVD of the conjugated matrix."""
    A = np.asarray(A, dtype=float)
    left = np.sqrt(np.asarray(out_weights, dtype=float))
    right = np.sqrt(np.asarray(in_weights, dtype=float))
    return float(np.linalg.svd(left[:, None] * A / right[None, :], compute_uv=False)[0])


def circle_max_oracle(objective, norm: NormSpec, n: int = 20000, refine: int = 2000) -> float:
    """Dense angle grid with one refinement window; for dim-2 objectives."""
    assert norm.dim == 2
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    raw = np.column_stack([np.cos(angles), np.sin(angles)])
    E = raw / norm.row_norms(raw)[:, None]
    vals = objective(E)
    k = int(np.argmax(vals))
    window = np.linspace(angles[k] - 2 * math.pi / n, angles[k] + 2 * math.pi / n, refine)
    raw2 = np.column_stack([np.cos(window), np.sin(window)])
    E2 = raw2 / norm.row_norms(raw2)[:, None]
    return max(float(np.max(vals)), float(np.max(objective(E2))))


def sign_pattern_max(objective, dim: int) -> float:
    """Max of an objective over all +-1 sign vectors (rows)."""
    rows = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
    return float(np.max(objective(rows)))


def scalar_ratio_brute(kernel, p: float, q: float, n: int = 200001) -> float:
    """Brute-force operator norm for an all-scalar two-target instance.

    Parametrizes sections as (cos theta, sin theta) magnitudes (the
    ratio is scale invariant) and scans a dense angle grid.  Only used
    on instances whose target space has exactly two atoms.
    """
    T = kernel.relation.target
    assert len(T.ids) == 2
    thetas = np.linspace(0.0, math.pi / 2.0, n)
    mags = np.column_stack([np.cos(thetas), np.sin(thetas)])
    num = np.zeros(n)
    for (s, t) in kernel.pairs:
        lam = kernel.relation.weight(s, t)
        col = T.index(t)
        a = float(kernel.matrix(s, t)[0, 0])
        win = float(kernel.domain_family.norm(t).weights[0])
        wout = float(kernel.codomain_family.norm(s).weights[0])
        rin = kernel.domain_family.norm(t).r
        rout = kernel.codomain_family.norm(s).r
        gain = abs(a) * _scale(wout, rout) / _scale(win, rin)
        num += lam * (gain * mags[:, col]) ** q
    den = np.zeros(n)
    for t in T.ids:
        col = T.index(t)
        den += T.weight(t) * mags[:, col] ** p
    ratios = num ** (1.0 / q) / den ** (1.0 / p)
    return float(np.max(ratios))


def _scale(w: float, r: float) -> float:
    return w if math.isinf(r) else w ** (1.0 / r)


def product_lq_norm(g, nu, eta, q) -> float:
    """Plain L^q norm over the product measure nu x eta on the grid support."""
    total = 0.0
    for (s, x), val in g.items():
        total += nu.weight(s) * eta.weight(x) * abs(val) ** q
    return total ** (1.0 / q)
