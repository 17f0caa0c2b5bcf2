"""Property tests: invariants checked on randomly drawn problems."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalrd.baseline import blahut_arimoto, classical_block_rdf
from causalrd.measures import directed_information, joint_law, markov_chain_check
from causalrd.model import (DistortionSpec, SourceModel, StageAlphabets, full_joint_source,
                            iid_source)
from causalrd.oracle import exhaustive_directed_info
from causalrd.solver import SolverConfig, fixed_point_solve, trace_curve

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


def _row(nx):
    """A probability row over ``nx`` symbols, zero entries allowed."""
    return (st.lists(st.integers(0, 4), min_size=nx, max_size=nx)
            .filter(lambda w: sum(w) > 0)
            .map(lambda w: np.asarray(w, dtype=float) / sum(w)))


@st.composite
def causal_problems(draw):
    """(source, single-letter spec, s): n and |X|, |Y| in 1..3, memory
    "full", 0 or 1, rho in [0, 2] with ties, s in [-6, -0.25]."""
    n = draw(st.integers(1, 3))
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1, 3))
    memory = draw(st.sampled_from(["full", 0, 1]))
    al = StageAlphabets(n, [nx] * n, [ny] * n)
    window = [i if memory == "full" else min(memory, i) for i in range(n)]
    kernels = [np.array(draw(st.lists(_row(nx), min_size=nx ** w, max_size=nx ** w)))
               for w in window]
    rho = np.asarray(draw(st.lists(RHO_ENTRY, min_size=nx * ny, max_size=nx * ny)),
                     dtype=float).reshape(nx, ny)
    src = SourceModel(al, kernels, memory=memory)
    return src, DistortionSpec.single_letter(al, rho), draw(st.floats(-6.0, -0.25))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(causal_problems())
def test_solved_rate_is_the_directed_information_of_a_causal_policy(problem):
    src, spec, s = problem
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12))
    assume(r.converged)
    mu = full_joint_source(src)
    joint = joint_law(mu, r.policy)
    assert abs(r.rate_nats - directed_information(mu, r.policy)) <= 1e-8
    if src.alphabets.n_stages <= 2:
        assert abs(r.rate_nats - exhaustive_directed_info(joint)) <= 1e-8
    # the classical block rate is a lower bound, within the CLI's dominance tolerance
    assert classical_block_rdf(mu, spec, r.distortion_per_symbol) <= r.rate_nats + 1e-9
    assert max(markov_chain_check(joint, v) for v in (1, 2, 3, 4)) <= 1e-10


# the checks read converged points only; a point that loses output support
# converges slowly (ROADMAP item 2), so the sweep cap keeps the test short
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(causal_problems(), st.lists(st.floats(-6.0, -0.25), min_size=3, max_size=5,
                                   unique=True))
def test_traced_curve_is_monotone_and_convex(problem, s_values):
    src, spec, _ = problem
    curve = trace_curve(src, spec, s_values, fp_tol=1e-12, max_sweeps=2000)
    assume(sum(p.converged for p in curve.points) >= 3)
    assert curve.monotone_ok, curve.monotone_worst
    assert curve.convex_ok, curve.convex_worst
