"""Sparse regression codes for lossy compression.

Codebooks are sums of one column per section of a seeded Gaussian
dictionary; encoding is exhaustive minimum-distance search. The package
computes the closed-form rate curves, error exponents, large-deviation
rate functions and covering-probability bounds for this ensemble, and
validates them against independent numerical oracles and Monte Carlo
simulation at desk scale.
"""

from .core import (
    BetaVector,
    DesignMatrix,
    LowRateError,
    SparcParams,
    beta_rank,
    beta_unrank,
    build_design_matrix,
    load_matrix,
    make_params,
    save_matrix,
    synthesize,
)
from .encoder import (
    EncodeResult,
    encode_min_distance,
    encode_oracle,
    sample_power,
)
from .theory import (
    OverlapProfile,
    RatePoint,
    SuenTerms,
    TBoundResult,
    a_squared,
    alpha_star,
    b_min,
    c_alpha,
    chernoff_rate_oracle,
    cramer_source_exponent,
    f_rate,
    g_corr,
    h_alpha,
    optimal_error_exponent,
    overlap_profile,
    rate_distortion_gaussian,
    second_moment_bound,
    solve_x_star,
    sparc_error_exponent,
    sparc_rate,
    suen_bound,
    t0_tilt,
    t_bound_finite_L,
)
from .sim import (
    ExperimentReport,
    SourceModel,
    TrialRecord,
    draw_source,
    estimate_pU1,
    estimate_pair_prob,
    exponent_trend,
    robustness_suite,
    run_experiment,
    validate_bounds,
)

__version__ = "0.1.0"
