"""Nonanticipative (causal) rate-distortion for finite-alphabet nonstationary sources.

The package computes the block nonanticipative rate-distortion function by a
backward value recursion and exponentially tilted reproduction kernels, closed
by fixed-point iteration on the output marginal process, with classical
Blahut-Arimoto and brute-force grid oracles for verification.
"""
__version__ = "0.1.0"

from .baseline import BaPoint, blahut_arimoto, classical_block_rdf
from .errors import (
    CausalRdError,
    ConfigError,
    DegenerateMarginalError,
    InternalConsistencyError,
    InvalidArgumentError,
    ResourceBudgetError,
)
from .model import (
    CausalPolicy,
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    binary_symmetric_markov,
    decode_history,
    distortion_lookup,
    encode_history,
    full_joint_source,
    hamming_distortion,
    iid_source,
    markov_source,
    validate_source,
)
from .measures import (
    JointLaw,
    MarginalProcess,
    directed_information,
    expected_distortion,
    joint_law,
    markov_chain_check,
    mix_policies,
    mutual_information,
    output_marginal,
    policy_from_marginals,
)
from .oracle import GridSpec, brute_force_lagrangian_min, exhaustive_directed_info
from .solver import (
    CurvePoint,
    RdCurve,
    SolveResult,
    SolverConfig,
    backward_g,
    d_max_policy,
    fixed_point_solve,
    lagrangian_value,
    marginal_update,
    min_achievable_distortion,
    rate_limit_estimate,
    rdf_value,
    solve_for_target_distortion,
    tilted_policy,
    trace_curve,
    verify_stationarity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
