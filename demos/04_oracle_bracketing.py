"""Bracketing the solver between brute force and duality.

The grid oracle finds the minimum Lagrangian over causal policies whose rows
lie on a simplex grid, evaluated directly from the measures.  That minimum
is an upper bound on the true infimum, and it never loosens as the grid
halves, because the finer grid contains the coarser one.  The solver's
converged value must sit at or below every grid value, and the oracle must
close in on it from above.
"""
import time

from causalrd import (
    GridSpec,
    SolverConfig,
    binary_symmetric_markov,
    brute_force_lagrangian_min,
    fixed_point_solve,
    hamming_distortion,
    iid_source,
)

for name, src in (("fair IID binary", iid_source([0.5, 0.5], 2)),
                  ("0.3-flip Markov", binary_symmetric_markov(0.3, 2))):
    spec = hamming_distortion(src.alphabets)
    print(f"=== {name}, 2 stages, s = -2 ===")
    res = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-11))
    solver_value = res.rate_nats + 2.0 * res.distortion_total
    print(f"  solver Lagrangian: {solver_value:.9f}")
    # each grid halves the previous step, so it contains the coarser grid
    for resolution in (0.1, 0.05, 0.025, 0.0125):
        t0 = time.perf_counter()
        value, _ = brute_force_lagrangian_min(src, spec, -2.0,
                                              GridSpec(resolution=resolution))
        print(f"  grid {resolution:6.4f}: oracle {value:.9f}  "
              f"gap {value - solver_value:+.3e}  ({time.perf_counter() - t0:.1f}s)")
    print()

print("The gap is always nonnegative: a grid policy cannot beat the infimum.")
print("Each value is the exact grid minimum, so it cannot grow as the step")
print("halves, but it need not shrink at any fixed rate. How far the nearest")
print("grid rows sit from the optimal kernel varies from grid to grid, and a")
print("kernel entry below one grid step sits where t log t has unbounded slope.")
