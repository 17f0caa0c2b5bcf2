"""Property tests: invariants checked on randomly drawn problems."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrd.baseline import blahut_arimoto
from causalrd.model import DistortionSpec, iid_source
from causalrd.solver import SolverConfig, fixed_point_solve

# rho entries: a few repeated values (ties) mixed with arbitrary ones
RHO_ENTRY = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                      st.floats(0.0, 2.0, allow_nan=False))


@st.composite
def single_stage_problems(draw):
    """(px, rho, s): px may have zero entries, rho in [0, 2], s in [-8, -0.25]."""
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=nx, max_size=nx)
                   .filter(lambda w: sum(w) > 0))
    px = np.asarray(weights, dtype=float) / sum(weights)
    rho = np.asarray(draw(st.lists(RHO_ENTRY, min_size=nx * ny, max_size=nx * ny)),
                     dtype=float).reshape(nx, ny)
    s = draw(st.floats(-8.0, -0.25))
    return px, rho, s


# some draws need ~37,000 iterations, hence no deadline and few examples
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(single_stage_problems())
def test_blahut_arimoto_matches_the_one_stage_causal_solve(problem):
    px, rho, s = problem
    ba = blahut_arimoto(px, rho, s, tol=1e-12)
    src = iid_source(px, 1, y_size=rho.shape[1])
    spec = DistortionSpec.stage_tables(src.alphabets, [rho])
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12, max_sweeps=200_000))
    assert ba.converged and r.converged
    assert abs(r.rate_nats - ba.rate_nats) <= 1e-9
    assert abs(r.distortion_per_symbol - ba.distortion) <= 1e-9
