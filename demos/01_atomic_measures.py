# Finite atomic measure spaces and the discrete calculus on them.
#
# Everything in this library lives on finite sets of weighted atoms, so
# measure-theoretic statements (densities, pushforwards, change of
# variables) become exactly computable ratios and sums.

import mixedop as mo

# Two measure spaces: T carries the sections we act on, S indexes the
# output side.  Atom order is canonical (sorted by id), so sums are
# reproducible no matter how the dicts were built.
T = mo.FiniteMeasureSpace({"t1": 3.0, "t2": 1.0})
S = mo.FiniteMeasureSpace({"s1": 2.0, "s2": 1.0})
print("T:", list(T.items()))
print("S:", list(S.items()))

# A weighted relation F inside S x T: the measure lambda on pairs.
lam = mo.WeightedRelation(S, T, [("s1", "t1", 6.0), ("s2", "t1", 1.5), ("s2", "t2", 0.5)])
print("\nrelation pairs:", lam.pairs, "total mass", lam.total_mass)

# The Radon-Nikodym derivative with respect to the product measure is a
# per-pair ratio: J(s, t) = lambda_st / (nu_s mu_t).
J = mo.radon_nikodym(lam)
for (s, t), v in J.items():
    print(f"J({s}, {t}) = {v}")

# Mass is reconstructed exactly: sum J * nu * mu = lambda(F).
total = sum(J[(s, t)] * S.weight(s) * T.weight(t) for s, t, _ in lam.items())
print("reconstructed mass:", total)

# The marginal onto T and, for a mapping psi, the volume derivative of
# the pushforward nu o psi^-1 (the atomic version of the ball limit).
print("\nmarginal onto T:", list(mo.marginal_onto_T(lam).items()))

psi = mo.AtomMap(S, T, {"s1": "t1", "s2": "t1"})
Jpsi = mo.pushforward_volume_derivative(psi)
print("volume derivative of psi^-1:", [(t, Jpsi[t]) for t in T.ids])

# Change of variables: integrating f o psi against nu equals integrating
# f J against mu.  On atoms the two routes agree to rounding.
f = mo.DensityFn({"t1": 5.0, "t2": 7.0})
lhs, rhs = mo.integrate_change_of_variables(f, psi)
print("\nchange of variables: lhs =", lhs, " rhs =", rhs)

# The graph of psi carrying lambda(A) = nu(pi_S(A)) is how composition
# operators embed into the relation picture.
graph = mo.graph_relation(psi)
print("graph relation:", list(graph.items()))
print("marginal of graph = pushforward measure:",
      list(mo.marginal_onto_T(graph).items()))
