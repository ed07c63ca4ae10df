"""Occupation-time laws of the Brownian spider and one-sided stable ratios.

The package bundles exact samplers, closed-form densities and transforms, a
lattice walk simulator with the three classical stopping rules, and the
statistical machinery that verifies the distributional identities tying them
together.
"""

__version__ = "0.1.0"

from .errors import (
    NonFiniteSamplesError,
    ParameterDomainError,
    UsageError,
)
from .gof import (
    ConvergencePoint,
    GofReport,
    cauchy_square_convergence,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    mc_transform_check,
    summary_table,
    verify_occupation_identity,
    write_reports_jsonl,
)
from .laws import (
    DensityCurve,
    LawKind,
    LawSpec,
    arcsine_cdf,
    arcsine_pdf,
    build_density_curve,
    density_mean,
    fractional_moment,
    integrate_density,
    mellin_transform,
    ratio_A_cdf,
    ratio_A_pdf,
    ratio_power_cdf,
    ratio_power_pdf,
    spider_cdf,
    spider_pdf,
    stieltjes_transform,
)
from .rng import RngStream, composite_stream_id
from .samplers import (
    BatchMeta,
    SimplexVector,
    StableParams,
    sample_arcsine,
    sample_cauchy_spider_marginal,
    sample_occupation_exact,
    sample_positive_stable,
    sample_ratio_A,
    sample_ratio_X,
    sample_stable_half,
    save_sample_batch,
)
from .walk import (
    SpiderConfig,
    StopBatch,
    StoppingRule,
    run_walk_batch,
    simulate_batch,
    stop_batch,
)
