"""Mixed-norm grids, mixed (q, alpha) norms and their direct-integral
representation, and composition operators between mixed-norm spaces
induced by split mappings phi(s, x) = (psi(s), u(s, x)).

A MixedDomain is the one owner of a grid Omega inside outer x inner: it
checks the cells and orders each slice Omega_s, and every function here
reads its slices from it.

The boundedness criterion multiplies the outer volume derivative of psi
by the per-slice volume derivatives of the u maps and takes a mixed
norm of the product.  The same operator materializes as a weighted
composition instance on the direct-integral representation (fibers =
slice Lebesgue spaces, kernels = 0/1 incidence matrices), which is how
it is cross-checked against the decoupled operator norm.

General mappings phi(s, x) = (psi(s, x), u(s, x)) are rejected by
construction: a SplitMapping carries a single outer map psi.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import NonFiniteResultError, NotInjectiveError, SliceRangeError, UnknownAtomError
from .fibers import FiberFamily, NormSpec, Section, check_exponent, lp_measure_norm
from .kernels import OperatorKernel, kappa
from .measure import (
    AtomMap,
    DensityFn,
    FiniteMeasureSpace,
    graph_relation,
    pushforward_volume_derivative,
)


class MixedDomain:
    """A finite grid Omega inside outer x inner, with weighted factors."""

    def __init__(
        self,
        outer: FiniteMeasureSpace,
        inner: FiniteMeasureSpace,
        cells: Iterable[tuple[str, str]],
    ):
        cleaned = []
        for s, x in cells:
            if s not in outer:
                raise UnknownAtomError(f"cell names unknown outer atom {s!r}")
            if x not in inner:
                raise UnknownAtomError(f"cell names unknown inner atom {x!r}")
            cleaned.append((str(s), str(x)))
        cleaned.sort()
        if len(set(cleaned)) != len(cleaned):
            raise ValueError("duplicate cells")
        self.outer = outer
        self.inner = inner
        self.cells: tuple[tuple[str, str], ...] = tuple(cleaned)
        slices: dict[str, list[str]] = {s: [] for s in outer.ids}
        for s, x in self.cells:
            slices[s].append(x)
        self._slices = {s: tuple(xs) for s, xs in slices.items()}

    def slice(self, outer_id: str) -> tuple[str, ...]:
        """The slice Omega_s in canonical inner order (may be empty)."""
        try:
            return self._slices[outer_id]
        except KeyError:
            raise UnknownAtomError(f"unknown outer atom {outer_id!r}") from None

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"MixedDomain({len(self.outer)} x {len(self.inner)} atoms, {len(self.cells)} cells)"


def _require_defined(g: Mapping[tuple[str, str], float], grid: MixedDomain) -> None:
    for cell in grid.cells:
        if cell not in g:
            raise UnknownAtomError(f"function not defined on cell {cell!r}")


def _slice_norms(values, grid: MixedDomain, alpha: float) -> np.ndarray:
    """The L^alpha(Omega_s) norm of ``values`` (cell -> number) over each
    slice, in outer atom order; zero on an empty slice."""
    out = np.zeros(len(grid.outer.ids))
    for k, s in enumerate(grid.outer.ids):
        xs = grid.slice(s)
        if xs:
            vals = np.array([values[(s, x)] for x in xs], dtype=float)
            out[k] = lp_measure_norm(vals, np.array([grid.inner.weight(x) for x in xs]), alpha)
    return out


def mixed_norm(g: Mapping[tuple[str, str], float], grid: MixedDomain, q, alpha) -> float:
    """Mixed Lebesgue norm of g on the grid Omega.

    Inner alpha-aggregation over each slice Omega_s with the inner
    weights, outer q-aggregation over the outer atoms with theirs.
    Empty slices contribute zero; inf exponents become maxima (ess-sup).
    """
    q = check_exponent(q)
    alpha = check_exponent(alpha)
    _require_defined(g, grid)
    return lp_measure_norm(_slice_norms(g, grid, alpha), grid.outer.weights, q)


def mixed_as_direct_integral(grid: MixedDomain, alpha) -> FiberFamily:
    """Fiber family realizing L^{q,alpha}(Omega) as an L^q direct integral.

    The fiber over s is the slice space L^alpha(Omega_s, eta): dimension
    |Omega_s|, weighted alpha-norm with eta weights (unit weights when
    alpha = inf, where the ess-sup ignores atom mass).  Outer atoms with
    empty slices are dropped from the base; they contribute nothing to
    either norm route.
    """
    alpha = check_exponent(alpha)
    used = [s for s in grid.outer.ids if grid.slice(s)]
    fibers = {}
    for s in used:
        xs = grid.slice(s)
        if math.isinf(alpha):
            w = np.ones(len(xs))
        else:
            w = np.array([grid.inner.weight(x) for x in xs])
        fibers[s] = NormSpec(alpha, w)
    return FiberFamily(grid.outer.restrict(used), fibers)


def grid_section(g: Mapping[tuple[str, str], float], grid: MixedDomain) -> Section:
    """Reshape grid values into the section matching mixed_as_direct_integral,
    each slice in the same canonical inner order as its fiber weights."""
    _require_defined(g, grid)
    return Section({s: [g[(s, x)] for x in grid.slice(s)] for s in grid.outer.ids if grid.slice(s)})


class SplitMapping:
    """phi(s, x) = (psi(s), u_s(x)) between two mixed domains.

    Each u_s must be total on the slice over s and land inside the
    slice over psi(s).
    """

    def __init__(
        self,
        domain: MixedDomain,
        codomain: MixedDomain,
        psi: AtomMap | Mapping[str, str],
        u: Mapping[str, Mapping[str, str]],
    ):
        if not isinstance(psi, AtomMap):
            psi = AtomMap(domain.outer, codomain.outer, psi)
        if set(psi.source.ids) != set(domain.outer.ids):
            raise UnknownAtomError("psi must be defined on the domain's outer atoms")
        if set(psi.target.ids) != set(codomain.outer.ids):
            raise UnknownAtomError("psi must map into the codomain's outer atoms")
        table: dict[str, dict[str, str]] = {}
        for s in domain.outer.ids:
            slice_s = domain.slice(s)
            u_s = dict(u.get(s, {}))
            if set(u_s) != set(slice_s):
                raise UnknownAtomError(f"u({s!r}, .) must be total on the slice {slice_s}")
            target_slice = set(codomain.slice(psi(s)))
            for x, y in u_s.items():
                if y not in target_slice:
                    raise SliceRangeError(
                        f"u({s!r}, {x!r}) = {y!r} lies outside the slice over {psi(s)!r}"
                    )
            table[s] = u_s
        self.domain = domain
        self.codomain = codomain
        self.psi = psi
        self._u = table

    def u(self, s_id: str) -> dict[str, str]:
        try:
            return dict(self._u[s_id])
        except KeyError:
            raise UnknownAtomError(f"unknown outer atom {s_id!r}") from None

    def __call__(self, s_id: str, x_id: str) -> tuple[str, str]:
        u_s = self._u.get(s_id)
        if u_s is None:
            raise UnknownAtomError(f"unknown outer atom {s_id!r}")
        if x_id not in u_s:
            raise UnknownAtomError(f"cell ({s_id!r}, {x_id!r}) not in the domain")
        return self.psi(s_id), u_s[x_id]

    def __repr__(self) -> str:
        return f"SplitMapping({len(self.domain)} cells -> {len(self.codomain)} cells)"


def compose_apply(
    f: Mapping[tuple[str, str], float], phi: SplitMapping
) -> dict[tuple[str, str], float]:
    """The composition operator: (C_phi f)(s, x) = f(psi(s), u_s(x)).

    Well-definedness is automatic on atomic grids (every nonempty set
    has positive measure, so the Luzin N^-1 condition is vacuous).
    """
    _require_defined(f, phi.codomain)
    return {(s, x): float(f[phi(s, x)]) for (s, x) in phi.domain.cells}


def slice_volume_derivatives(phi: SplitMapping) -> tuple[DensityFn, DensityFn]:
    """Volume derivatives (J_psi on T, J_u on the codomain cells).

    J_psi(t) = nu(psi^-1(t)) / mu_t and, for t = psi(s),
    J_u(t, y) = eta_X(u_s^-1(y)) / eta_Y(y); both are zero off the image
    of psi.  Requires injective psi (the reduction through the graph
    picture needs it).
    """
    psi = phi.psi
    if not psi.is_injective:
        raise NotInjectiveError("slice volume derivatives require injective psi")
    J_psi = pushforward_volume_derivative(psi, phi.domain.outer, phi.codomain.outer)
    inv = {psi(s): s for s in psi.source.ids}
    eta_x = phi.domain.inner
    eta_y = phi.codomain.inner
    J_u: dict[tuple[str, str], float] = {}
    for (t, y) in phi.codomain.cells:
        s = inv.get(t)
        if s is None:
            J_u[(t, y)] = 0.0
            continue
        u_s = phi.u(s)
        mass = sum(eta_x.weight(x) for x in phi.domain.slice(s) if u_s[x] == y)
        J_u[(t, y)] = mass / eta_y.weight(y)
    return J_psi, DensityFn(J_u)


def criterion_mixed_composition(phi: SplitMapping, p, q, alpha, beta) -> float:
    """Boundedness criterion for C_phi from L^{p,beta} to L^{q,alpha}.

    Instantiates the reduction through per-slice composition operators:
    each slice operator has norm rho(t) = || J_u^(1/alpha)(t, .) ||
    in the inner conjugate exponent beta*alpha/(beta-alpha), and the
    outer aggregation is the graph criterion for psi, i.e. the
    L^{kappa}(T) norm of rho(t) J_psi^(1/q)(t).  Equivalently, the
    mixed (kappa_outer, kappa_inner) norm of the product density.
    """
    k_out = kappa(p, q)
    k_in = kappa(beta, alpha)
    q = float(q)
    alpha = float(alpha)
    J_psi, J_u = slice_volume_derivatives(phi)
    mu = phi.codomain.outer
    rho = _slice_norms({c: J_u[c] ** (1.0 / alpha) for c in phi.codomain.cells}, phi.codomain, k_in)
    vals = rho * np.array([J_psi[t] ** (1.0 / q) for t in mu.ids])
    value = lp_measure_norm(vals, mu.weights, k_out)
    if not math.isfinite(value):
        raise NonFiniteResultError(f"mixed composition criterion {value} is not finite (overflow in the arithmetic)")
    return value


def mixed_product_density_norm(phi: SplitMapping, p, q, alpha, beta) -> float:
    """The same criterion computed the direct way: a mixed norm over the
    codomain grid of J_psi^(1/q) J_u^(1/alpha).  Used as a two-route
    consistency check for criterion_mixed_composition."""
    k_out = kappa(p, q)
    k_in = kappa(beta, alpha)
    J_psi, J_u = slice_volume_derivatives(phi)
    g = {
        (t, y): J_psi[t] ** (1.0 / float(q)) * J_u[(t, y)] ** (1.0 / float(alpha))
        for (t, y) in phi.codomain.cells
    }
    return mixed_norm(g, phi.codomain, k_out, k_in)


def direct_integral_instance(
    phi: SplitMapping, alpha, beta
) -> tuple[OperatorKernel, AtomMap]:
    """Materialize C_phi as a weighted composition instance.

    Source fibers are the slice spaces L^beta(Omega'_t), target fibers
    L^alpha(Omega_s), the kernel matrices are the 0/1 incidence maps of
    the u_s, and the relation is the graph of psi carrying the source
    outer measure.  Outer atoms with empty slices are dropped (they
    contribute nothing on either side).  Works for non-injective psi
    too, which is how the two-sided-bounds regime is cross-checked.
    """
    dom_fam = mixed_as_direct_integral(phi.domain, alpha)
    codom_fam = mixed_as_direct_integral(phi.codomain, beta)
    S_used = dom_fam.base
    psi_table, matrices = {}, {}
    for s in S_used.ids:
        t = phi.psi(s)
        if t not in codom_fam.base:
            # u_s is total on a nonempty slice into the slice over t
            raise SliceRangeError(f"slice over {t!r} is empty but receives {s!r}")
        psi_table[s] = t
        xs = phi.domain.slice(s)
        ys = phi.codomain.slice(t)
        col = {y: j for j, y in enumerate(ys)}
        A = np.zeros((len(xs), len(ys)))
        u_s = phi.u(s)
        for i, x in enumerate(xs):
            A[i, col[u_s[x]]] = 1.0
        matrices[(s, t)] = A
    psi_used = AtomMap(S_used, codom_fam.base, psi_table)
    relation = graph_relation(psi_used, S_used)
    return OperatorKernel(relation, codom_fam, dom_fam, matrices), psi_used
