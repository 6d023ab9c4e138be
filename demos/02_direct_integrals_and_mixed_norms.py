# L^p direct integrals of finite-dimensional fibers, and mixed-norm
# spaces as a special case.
#
# A "section" picks one vector per atom; its norm aggregates per-fiber
# weighted r-norms with the base measure and exponent p.  Mixed
# (q, alpha) norms on a grid are the same thing in disguise: fibers are
# the slice spaces L^alpha(Omega_s).

import numpy as np

import mixedop as mo

base = mo.FiniteMeasureSpace({"a": 1.0, "b": 1.0})

# Per-atom normed fibers: dimension + weighted r-norm.
family = mo.FiberFamily(base, {
    "a": mo.NormSpec(2, [1.0, 1.0]),        # plain euclidean plane
    "b": mo.NormSpec(mo.INF, [1.0, 2.0]),   # weighted sup norm
})
f = mo.Section({"a": [3.0, 4.0], "b": [1.0, 0.25]})
print("fiber norms:", mo.fiber_norm(f["a"], family.norm("a")),
      mo.fiber_norm(f["b"], family.norm("b")))
print("direct integral norm, p=2:", mo.direct_integral_norm(f, family, 2))
print("direct integral norm, p=inf:", mo.direct_integral_norm(f, family, mo.INF))

# Now a mixed-norm space on a 2 x 3 grid with unit weights.
nu = mo.FiniteMeasureSpace({"s1": 1.0, "s2": 1.0})
eta = mo.FiniteMeasureSpace({"x1": 1.0, "x2": 1.0, "x3": 1.0})
grid = mo.MixedDomain(nu, eta, [(s, x) for s in nu.ids for x in eta.ids])
g = {c: 1.0 for c in grid.cells}
print("\nmixed norm of 1 on the full grid (q=2, alpha=1):",
      mo.mixed_norm(g, grid, 2, 1), "= sqrt(18)")

# The direct-integral representation: one fiber per outer atom, carrying
# the slice's L^alpha norm.  Both routes give the same number for every
# section and every exponent pair.
fam = mo.mixed_as_direct_integral(grid, 1)
sec = mo.grid_section(g, grid)
print("same norm through the fiber route:", mo.direct_integral_norm(sec, fam, 2))

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(100):
    g = {c: float(rng.standard_normal()) for c in grid.cells}
    for q, alpha in [(1, 1), (2, 1), (3, 2), (2, mo.INF), (mo.INF, 2)]:
        direct = mo.mixed_norm(g, grid, q, alpha)
        fam = mo.mixed_as_direct_integral(grid, alpha)
        via = mo.direct_integral_norm(mo.grid_section(g, grid), fam, q)
        worst = max(worst, abs(direct - via) / max(direct, 1e-300))
print("worst relative gap between the two routes over 100 random sections:", worst)
