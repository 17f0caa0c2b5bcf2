"""Inside one solve: the value tables, the tilt, and the optimality checks.

The optimal kernel at stage i tilts the output marginal by
exp(s rho_i - g_i); the g tables integrate the future out of the problem,
stage by stage from the end.  This script shows the tables for a
nonstationary source, checks the invariances they obey, and stress-tests the
solved policy.
"""
import numpy as np

from causalrd import (
    DistortionSpec,
    SolverConfig,
    SourceModel,
    StageAlphabets,
    directed_information,
    fixed_point_solve,
    full_joint_source,
    joint_law,
    markov_chain_check,
    tilted_policy,
    verify_stationarity,
)
from causalrd.solver import STATIONARITY_PROBES

# a deliberately nonstationary binary source: fair start, then a sticky
# kernel, then an anti-sticky one
al = StageAlphabets(3, [2, 2, 2], [2, 2, 2])
src = SourceModel(al, [
    np.array([[0.5, 0.5]]),
    np.array([[0.9, 0.1], [0.1, 0.9]]),
    np.array([[0.2, 0.8], [0.8, 0.2]])[np.arange(4) % 2],
])
spec = DistortionSpec.single_letter(al, 1.0 - np.eye(2))

res = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-11))
print(f"converged in {res.sweeps_used} sweeps; "
      f"D={res.distortion_per_symbol:.6f}, R={res.rate_nats:.6f} nats")
print()
print("g tables (rows = x-history code, cols = y-history code):")
for i, t in enumerate(res.g):
    print(f"  stage {i}: shape {t.shape}, terminal-zero={bool(np.all(t == 0))}")
    print(np.array2string(t, precision=4, suppress_small=True, prefix="    "))

print()
print("the terminal table is identically zero; earlier tables are genuinely")
print("two-argument for this source because the future depends on the present.")

# tilt-shift invariance: g is only defined up to an x-history offset
nu = res.nu
g_shift = [t + np.arange(t.shape[0])[:, None] for t in res.g]
p1 = tilted_policy(src, spec, nu, res.g, -2.0)
p2 = tilted_policy(src, spec, nu, g_shift, -2.0)
drift = max(float(np.abs(a - b).max()) for a, b in zip(p1.kernels, p2.kernels))
print(f"tilt-shift invariance: max kernel change under x-offsets = {drift:.2e}")

# the optimizer is causal: all four Markov-chain statements hold
mu = full_joint_source(src)
j = joint_law(mu, res.policy)
residuals = [markov_chain_check(j, v) for v in (1, 2, 3, 4)]
print("Markov-chain residuals of the solved joint:",
      " ".join(f"{r:.1e}" for r in residuals))

# and first-order optimal: no feasible direction lowers the Lagrangian
dec = verify_stationarity(src, spec, res, seed=3)
print(f"max Lagrangian decrease over {STATIONARITY_PROBES} random feasible perturbations: "
      f"{dec:.2e}")
print(f"closed-form rate vs directed information gap: "
      f"{abs(res.rate_nats - directed_information(mu, res.policy)):.2e}")
