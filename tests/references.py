"""Reference implementations that the tests check the package against.

Each one is a second route to a quantity the package computes: the
t-uniform criterion through the general one, the weighted composition
operator applied atom by atom, the composition operator on a grid, and
the mixed-composition criterion as a mixed norm of the product density.
"""

from __future__ import annotations

from typing import Mapping

from mixedop import (
    AtomMap,
    DensityFn,
    HypothesisViolationError,
    MissingPairError,
    NormResult,
    OperatorKernel,
    Section,
    SplitMapping,
    UnknownAtomError,
    criterion_general_result,
    mixed_norm,
    slice_volume_derivatives,
)
from mixedop.boundedness import HYPOTHESIS_TOL
from mixedop.kernels import exponent_pair
from mixedop.mixedcomp import _require_defined, _slice_pair


def criterion_uniform_t(kernel: OperatorKernel, rho: DensityFn, p, q) -> NormResult:
    """Criterion when the kernel norm depends on t alone: ||rho J^(1/q)||_{L^kappa(T)}.

    The hypothesis ||P(s, t)|| = rho(t) is verified across every fiber
    F_t within HYPOTHESIS_TOL.  Under it the general criterion's inner
    term is rho(t)^q lam_t / mu_t = rho(t)^q J(t), J the marginal density,
    so the result is the general criterion's, certificate included.
    """
    exponent_pair(p, q)
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
    return criterion_general_result(kernel, p, q)


def apply_weighted_composition(kernel: OperatorKernel, psi: AtomMap, f: Section) -> Section:
    """The weighted composition operator: s -> P(s, psi(s)) f(psi(s)).

    Coincides with the mixed operator on the graph relation composed
    with the isomorphism g(s) = g(s, psi(s)).
    """
    kernel.domain_family.validate_section(f)
    out = {}
    for s in kernel.relation.source.ids:
        t = psi(s)
        if (s, t) not in kernel.relation:
            raise MissingPairError(f"pair ({s!r}, {t!r}) not in the kernel's relation")
        out[s] = kernel.matrix(s, t) @ f[t]
    return Section(out)


def compose_apply(
    f: Mapping[tuple[str, str], float], phi: SplitMapping
) -> dict[tuple[str, str], float]:
    """The composition operator: (C_phi f)(s, x) = f(psi(s), u_s(x)).

    Well-definedness is automatic on atomic grids (every nonempty set
    has positive measure, so the Luzin N^-1 condition is vacuous).
    """
    _require_defined(f, phi.codomain)
    return {(s, x): float(f[phi(s, x)]) for (s, x) in phi.domain.cells}


def mixed_product_density_norm(phi: SplitMapping, p, q, alpha, beta) -> float:
    """The same criterion computed the direct way: a mixed norm over the
    codomain grid of J_psi^(1/q) J_u^(1/alpha).  Used as a two-route
    consistency check for criterion_mixed_composition."""
    _, q, k_out = exponent_pair(p, q)
    alpha, k_in = _slice_pair(alpha, beta)
    J_psi, J_u = slice_volume_derivatives(phi)
    g = {
        (t, y): J_psi[t] ** (1.0 / q) * J_u[(t, y)] ** (1.0 / alpha)
        for (t, y) in phi.codomain.cells
    }
    return mixed_norm(g, phi.codomain, k_out, k_in)
