# Composition operators between mixed-norm spaces, induced by split
# mappings phi(s, x) = (psi(s), u_s(x)).
#
# The boundedness criterion multiplies the outer volume derivative of
# psi with the per-slice derivatives of the u maps and takes a mixed
# norm of the product.  Materializing the operator on the
# direct-integral representation (slice Lebesgue fibers + 0/1 incidence
# kernels) lets us confirm the criterion IS the operator norm.

from mixedop import (
    NotInjectiveError,
    criterion_graph_result,
    criterion_mixed_composition,
    criterion_uniform_bounds,
    direct_integral_instance,
    exact_norm_decoupled,
    slice_volume_derivatives,
)
from mixedop.generators import random_split_mapping

phi = random_split_mapping(seed=4, max_outer=3, max_slice=3)
print("domain cells:  ", phi.domain.cells)
print("codomain cells:", phi.codomain.cells)
print("psi:", phi.psi.table)

J_psi, J_u = slice_volume_derivatives(phi)
print("\nouter volume derivative:", {t: J_psi[t] for t in phi.codomain.outer.ids})

for (p, q, alpha, beta) in [(2, 1, 1, 2), (3, 2, 2, 3), (2, 2, 2, 2)]:
    crit = criterion_mixed_composition(phi, p, q, alpha, beta).value
    inst, psi_used = direct_integral_instance(phi, alpha, beta)
    brute = exact_norm_decoupled(inst, p, q)
    route = criterion_graph_result(inst, psi_used, p, q).value
    print(f"(p,q,alpha,beta)=({p},{q},{alpha},{beta}): criterion={crit:.12f} "
          f"operator norm={brute.value:.12f} [{brute.certificate}] graph route={route:.12f}")

# Non-injective outer maps are rejected by the mixed-composition
# criterion (the reduction through the graph picture needs injectivity),
# but with uniformly bounded slice operators the two-sided-bounds
# criterion still pins the norm.
from mixedop import FiniteMeasureSpace, MixedDomain, SplitMapping

S = FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
X = FiniteMeasureSpace({"x1": 1.0})
T = FiniteMeasureSpace({"t1": 1.0})
Y = FiniteMeasureSpace({"y1": 1.0})
collapse = SplitMapping(
    MixedDomain(S, X, [("s1", "x1"), ("s2", "x1")]),
    MixedDomain(T, Y, [("t1", "y1")]),
    {"s1": "t1", "s2": "t1"},
    {"s1": {"x1": "y1"}, "s2": {"x1": "y1"}},
)
try:
    criterion_mixed_composition(collapse, 2, 2, 2, 2)
except NotInjectiveError as e:
    print("\nnon-injective psi rejected:", e)
inst, psi_used = direct_integral_instance(collapse, 2, 2)
bounds = criterion_uniform_bounds(inst, psi_used, 1.0, 1.0, 2, 2)
print("two-sided-bounds criterion:", bounds.value,
      " true norm:", exact_norm_decoupled(inst, 2, 2).value, "(= sqrt 2)")
