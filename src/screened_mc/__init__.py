"""Screened Monte Carlo estimation.

Estimate E[F(X)] from i.i.d. samples while a second observable U with
known mean screens the estimates: an estimate is accepted at the fixed
horizon n only if the empirical mean of U sits within u of its known
value.  When U dominates F (ess sup[F - beta*U] finite for every
beta > 0) the screened error probability decays exponentially in n even
if F(X) is heavy-tailed, and this package computes explicit, certified
exponents for that decay, the exact large-deviations rates they bound,
and seeded simulations validating every claim.
"""

__version__ = "0.1.0"

from .bound_engine import (
    BoundReport,
    Prop11Report,
    bennett_log_mgf_bound,
    binary_kl,
    bound_thm31_ii,
    bound_thm31_iii,
    margin,
    normalize_observables,
    pinsker_lower,
    prop11_report,
    thm31_ii_exponent_at,
    zero_event_check,
)
from .dist_models import (
    DistributionModel,
    ObservablePair,
    counterexample_pair,
    exact_moments,
    finite_support,
    log_mgf_joint,
    pair_from_callables,
    heavy_tail_pair,
    pareto_like,
    sample,
    sign_product,
    tabulated_pair,
    with_gamma,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateScreenError,
    DivergenceError,
    DomainError,
    EmptyStreamError,
    InputError,
    InsufficientTrialsError,
    NumericError,
    PreconditionError,
    ScreenedMcError,
)
from .exp_harness import (
    ExperimentConfig,
    ValidationReport,
    emit_report,
    emit_trajectory_csv,
    fit_log_slope,
    parse_config,
    run_heavy_tail_slope,
    run_validation,
    wilson_interval,
)
from .rate_functions import (
    RatePoint,
    delta_exponent,
    legendre_sup,
    rate_lambda_star,
    rate_plus_star,
    rate_plus_star_detail,
    two_sided_bound,
)
from .sanov_oracle import SanovResult, duality_suite, relative_entropy, sanov_rate
from .screen_core import (
    ScreenConfig,
    StreamState,
    TrajectoryRecord,
    control_variate_estimate,
    run_trajectory,
    screen_decision,
    update_stream,
)
from .streams import RandomStream

__all__ = [
    "__version__",
    # errors
    "ScreenedMcError",
    "ConfigError",
    "InputError",
    "EmptyStreamError",
    "DomainError",
    "PreconditionError",
    "DegenerateScreenError",
    "DivergenceError",
    "CapabilityError",
    "NumericError",
    "InsufficientTrialsError",
    # models and observables
    "DistributionModel",
    "ObservablePair",
    "pareto_like",
    "finite_support",
    "sign_product",
    "heavy_tail_pair",
    "tabulated_pair",
    "pair_from_callables",
    "counterexample_pair",
    "with_gamma",
    "sample",
    "exact_moments",
    "log_mgf_joint",
    # streaming estimator
    "ScreenConfig",
    "StreamState",
    "TrajectoryRecord",
    "update_stream",
    "screen_decision",
    "control_variate_estimate",
    "run_trajectory",
    # bounds
    "BoundReport",
    "Prop11Report",
    "normalize_observables",
    "margin",
    "zero_event_check",
    "bennett_log_mgf_bound",
    "binary_kl",
    "pinsker_lower",
    "thm31_ii_exponent_at",
    "bound_thm31_ii",
    "bound_thm31_iii",
    "prop11_report",
    # rates
    "RatePoint",
    "legendre_sup",
    "rate_lambda_star",
    "rate_plus_star",
    "rate_plus_star_detail",
    "two_sided_bound",
    "delta_exponent",
    # entropy oracle
    "SanovResult",
    "relative_entropy",
    "sanov_rate",
    "duality_suite",
    # harness
    "ExperimentConfig",
    "ValidationReport",
    "parse_config",
    "run_validation",
    "run_heavy_tail_slope",
    "fit_log_slope",
    "wilson_interval",
    "emit_trajectory_csv",
    "emit_report",
    # streams
    "RandomStream",
]
