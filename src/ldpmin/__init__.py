"""Locally private minimum (and maximum) finding over user-held values.

Users hold real values in [-1, 1]; an untrusted aggregator estimates the
smallest one without ever seeing anything but randomized-response bits.
The package bundles the privacy primitives, the interactive bisection
protocol, parameter schedules, synthetic data models with controllable
tail fatness, closed-form error bounds, an experiment harness, and a
reference TCP client/server pair demonstrating the protocol end to end.
"""

from .analysis import (
    ErrorBound,
    RateFit,
    error_bound_fixed,
    error_bound_iid,
    fit_rate,
    rising_factorial,
    tail_bound,
)
from .datagen import (
    BetaScaled,
    Cohort,
    TruncNormal,
    fatness_constant,
    fixed_cohort,
    iid_cohort,
    ingest_csv_cohort,
)
from .harness import (
    CellResult,
    ExperimentSpec,
    ModelTemplate,
    compare_baseline,
    guideline_curve,
    run_experiment,
)
from .mechanisms import (
    PrivacyBudget,
    RoundBudget,
    laplace_sanitize,
    randomized_response,
    rr_keep_probability,
    unbiased_phi,
)
from .params import (
    ParamChoice,
    choose_params,
    gamma_threshold,
    params_known_alpha,
    params_unknown_alpha,
)
from .protocol import (
    ProtocolConfig,
    RoundRecord,
    Transcript,
    baseline_min,
    run_nonprivate_min,
    run_private_max,
    run_private_min,
    user_respond,
)

__version__ = "0.1.0"
