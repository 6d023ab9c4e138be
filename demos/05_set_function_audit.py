# The best-constant set function and its per-atom derivative.
#
# Phi(A) = ||M_F restricted to sections supported in A||^kappa.  On
# atomic spaces the decoupled norm makes Phi a plain sum over atoms, so
# additivity and monotonicity hold exactly and the derivative is the
# per-atom summand divided by the atom's mass.

from pathlib import Path

from mixedop import exact_norm_decoupled, load_scenario, oracle_norm_sampling, phi_derivative, phi_value
from mixedop.generators import random_partition

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

ker = load_scenario(SCENARIOS / "scalar17.json").kernels["P"]
T_ids = list(ker.relation.target.ids)
p, q = 4, 2

print("Phi({t1}) =", phi_value(ker, ["t1"], p, q).value)
print("Phi({t2}) =", phi_value(ker, ["t2"], p, q).value)
print("Phi(T)    =", phi_value(ker, T_ids, p, q).value)
print("norm^kappa =", exact_norm_decoupled(ker, p, q).value ** 4)

# Additivity over random partitions.
for seed in range(3):
    blocks = random_partition(T_ids, seed)
    parts = [phi_value(ker, b, p, q).value for b in blocks]
    print(f"partition {blocks} -> sum of parts {sum(parts)}")

# The derivative integrates back to Phi exactly: atoms are their own
# balls, so differentiating and re-integrating loses nothing here.
mu = ker.relation.target
total = sum(phi_derivative(ker, t, p, q) * mu.weight(t) for t in T_ids)
print("\nPhi'(t1), Phi'(t2):", phi_derivative(ker, "t1", p, q), phi_derivative(ker, "t2", p, q))
print("sum Phi'(t) mu_t =", total)

# Phi is literally a restricted operator norm: sampling the restricted
# instance reproduces it.
restricted = ker.restrict_targets(["t2"])
sampled = oracle_norm_sampling(restricted, p, q, 100, seed=0)
print("\nsampled restricted norm^kappa:", sampled ** 4, " Phi({t2}):",
      phi_value(ker, ["t2"], p, q).value)
