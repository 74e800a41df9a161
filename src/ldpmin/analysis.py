"""The closed-form error bound of a search and empirical rate fitting.

The concentration rate of a randomized-response average at budget eps is

    rate(eps) = (e^eps - 1)^2 / (4 (e^eps + 1) e^eps),

so the probability that the debiased estimate deviates from its mean by d
is at most exp(-rate(eps) d^2 N).  Plugging in the stock threshold makes
this bound exactly e^{-h}, an identity the tests check to 12 digits.

:func:`error_bound` adds a quantile term, from the model's tail F(x) >=
C (x - x_min)^alpha, and the grid's 2^-L; ``ldpmin experiment`` writes it per
search cell to ``bounds.csv``.  It is this code's statement of the theorem,
checked against measured errors, not taken from the paper's text.

``fit_rate`` recovers the decay exponent of an empirical error curve by
ordinary least squares on

    ln err = ln C + B ln ln N - A ln N ,

and reports alpha_hat = 1/(2A), the tail-fatness exponent implied by the
fitted slope.  Natural logs throughout; the base only rescales B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rr_concentration_rate(epsilon: float) -> float:
    """(e^eps - 1)^2 / (4 (e^eps + 1) e^eps), overflow-safe, -> 1/4 at inf."""
    em = math.exp(-epsilon)
    return (1.0 - em) ** 2 / (4.0 * (1.0 + em))


def tail_bound(epsilon_round: float, deviation: float, n: int) -> float:
    """Upper bound on the probability of a deviation-sized estimate error.

    exp(-rate(eps) deviation^2 N), clamped to [0, 1].  ``deviation`` is the
    gap between the true +1-fraction and the threshold being tested.
    """
    if deviation < 0:
        raise ValueError(f"deviation must be >= 0, got {deviation}")
    return min(1.0, math.exp(-rr_concentration_rate(epsilon_round) * deviation**2 * n))


@dataclass(frozen=True)
class ErrorBound:
    """Three-term error bound with the terms kept separate for inspection.

    ``applicable`` is the small-threshold precondition 2 gamma < C (x_max -
    x_min)^alpha; a bound outside it is meaningless, not merely loose.
    """

    quantile_term: float
    noise_term: float
    discretization_term: float
    applicable: bool

    @property
    def value(self) -> float:
        return self.quantile_term + self.noise_term + self.discretization_term


def error_bound(model, config, setting: str) -> ErrorBound:
    """Mean-absolute-error bound of a search with ``config`` on a ``setting`` cohort of ``model``:

        Q + exp(-rate(eps/L) gamma^2 N) + 2^{-L} ,

    with alpha the model's ``fat_alpha``, C its ``fatness_constant()``, and
    Q = 2 (2 gamma / C)^{1/alpha} for a fixed cohort, and for an i.i.d. one
    2 (1/C)^{1/alpha} (ceil(2 gamma N))^{rising 1/alpha} / (N+1)^{rising 1/alpha},
    which is 2 ceil(2 gamma N) / (C (N + 1)) at alpha = 1.  A C of 0, or a
    term past float64, makes Q inf and the bound not applicable.
    """
    if setting not in ("fixed", "iid"):
        raise ValueError(f"setting must be 'fixed' or 'iid', got {setting!r}")
    gamma, n, alpha = config.gamma, config.n, model.fat_alpha
    try:
        c = model.fatness_constant()
        if setting == "fixed":
            quantile = 2.0 * (2.0 * gamma / c) ** (1.0 / alpha)
        else:
            ratio = (rising_factorial(math.ceil(2.0 * gamma * n), 1.0 / alpha)
                     / rising_factorial(n + 1.0, 1.0 / alpha))
            quantile = 2.0 * (1.0 / c) ** (1.0 / alpha) * ratio
        applicable = 2.0 * gamma < c * (model.x_max - model.x_min) ** alpha
    except (OverflowError, ZeroDivisionError):  # Python floats raise where numpy gives inf
        quantile, applicable = math.inf, False
    return ErrorBound(
        quantile_term=quantile,
        noise_term=tail_bound(config.round_budget.epsilon_round, gamma, n),
        discretization_term=2.0**-config.depth,
        applicable=applicable,
    )


def rising_factorial(x: float, a: float) -> float:
    """Gamma(x + a) / Gamma(x), computed through log-gamma for stability."""
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if a < 0 or not x + a > 0:
        raise ValueError(f"need a >= 0 and x + a > 0, got x={x}, a={a}")
    return math.exp(math.lgamma(x + a) - math.lgamma(x))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of err(N) = C ln^B(N) / N^A in log space.

    ``alpha_hat`` is 1/(2A), defined only for a decaying curve (A > 0);
    ``residual`` is the RMS misfit of ln err.
    """

    A: float
    B: float
    C: float
    alpha_hat: float | None
    residual: float


def fit_rate(points) -> RateFit:
    """Fit (N, err) pairs; needs >= 3 distinct N values in float range and finite positive errors."""
    pts = [(int(n), float(err)) for n, err in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    try:
        ns = np.array([p[0] for p in pts], dtype=float)
    except OverflowError:
        raise ValueError("N values must lie within float range") from None
    errs = np.array([p[1] for p in pts])
    if len(set(ns.tolist())) != len(ns):
        raise ValueError("N values must be distinct")
    if np.any(ns < 2):
        raise ValueError("N values must be >= 2")
    if not np.all((errs > 0) & np.isfinite(errs)):
        raise ValueError("errors must be finite and positive")

    log_n = np.log(ns)
    design = np.column_stack([np.ones_like(log_n), np.log(log_n), -log_n])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("singular design matrix; N values too degenerate to fit")
    y = np.log(errs)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    log_c, b, a = (float(v) for v in coef)
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    alpha_hat = 1.0 / (2.0 * a) if a > 0 else None
    return RateFit(A=a, B=b, C=math.exp(log_c), alpha_hat=alpha_hat, residual=residual)
