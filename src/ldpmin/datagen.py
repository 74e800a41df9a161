"""Synthetic data models with controllable left-tail fatness, plus cohorts.

A model here is any object with ``cdf``, ``quantile``, ``x_min``, ``x_max``
and ``fat_alpha``.  The two models are a rescaled beta distribution
(whose first shape parameter is exactly the fatness exponent of the left
tail) and a truncated normal (always exponent 1, like any truncated
density).

Cohorts come in two flavours:

* fixed: user i holds the deterministic quantile F*((i-1)/(N-1)), so the
  empirical CDF of the cohort interpolates F exactly;
* iid: users hold independent draws from F.  A search reads only counts
  (``count_at_or_below``), and :class:`IidCounts` draws an iid cohort's counts
  from their exact law without its values, at a cost that does not grow with N;
  :func:`iid_cohort` evaluates the quantile only at the levels a reader reads.

Quantiles of both models are closed forms (the inverse incomplete
beta function; the normal quantile on the side of the mean where the
support's tail keeps its relative precision), clamped to the support; sampling
is inverse CDF from one uniform per value so that seeded runs are replayable.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import special


def _check_levels(qs: np.ndarray) -> None:
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")


def _clamped_quantile(model, q):
    """The model's closed-form inverse CDF, clamped to the support and exact at its endpoints."""
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    _check_levels(qs)
    x = np.clip(model._inverse(qs), model.x_min, model.x_max)
    # the endpoint levels denote the support edges exactly, whatever the
    # rounding of the inverse
    out = np.where(qs == 0.0, model.x_min, np.where(qs == 1.0, model.x_max, x))
    return float(out[0]) if np.isscalar(q) else out


@dataclass(frozen=True)
class BetaScaled:
    """Beta(alpha, beta) stretched onto [x_min, x_min + delta] within [-1, 1].

    The left tail satisfies F(x) >= C (x - x_min)^alpha all the way up to
    the right support edge, so ``alpha`` is literally the model's fatness
    exponent (alpha = beta = 1 is the uniform distribution).
    """

    alpha: float
    beta: float
    x_min: float
    delta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("shape parameters must be positive")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.x_min < -1.0 or self.x_min + self.delta > 1.0:
            raise ValueError(
                f"support [{self.x_min}, {self.x_min + self.delta}] leaves [-1, 1]"
            )

    @property
    def x_max(self) -> float:
        return self.x_min + self.delta

    @property
    def fat_alpha(self) -> float:
        return self.alpha

    def cdf(self, x):
        u = (_checked(x) - self.x_min) / self.delta
        out = special.betainc(self.alpha, self.beta, _clip(u, 0.0, 1.0))
        return float(out) if np.isscalar(x) else out

    def _inverse(self, qs):
        return self.x_min + self.delta * special.betaincinv(self.alpha, self.beta, qs)

    def quantile(self, q):
        return _clamped_quantile(self, q)


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mu, sigma^2) conditioned on [x_min, x_max] subset of [-1, 1]."""

    mu: float
    sigma: float
    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not -1.0 <= self.x_min < self.x_max <= 1.0:
            raise ValueError(
                f"need -1 <= x_min < x_max <= 1, got [{self.x_min}, {self.x_max}]"
            )
        if not self._mass >= np.finfo(float).tiny:
            raise ValueError(
                f"support [{self.x_min}, {self.x_max}] carries no probability mass "
                f"in float64 under Normal({self.mu}, {self.sigma}^2)"
            )

    @property
    def fat_alpha(self) -> float:
        # any truncated density is bounded away from zero near its minimum
        return 1.0

    @property
    def _side(self) -> float:
        # above the mean Phi(b) - Phi(a) cancels to 0 while the survival
        # function Phi(-t) keeps full relative precision, so mirror there
        return -1.0 if self.x_min + self.x_max > 2.0 * self.mu else 1.0

    def _phi(self, x):
        """Phi(side * (x - mu) / sigma): monotone in x, decreasing when side = -1."""
        return special.ndtr(self._side * (x - self.mu) / self.sigma)

    @functools.cached_property
    def _mass(self) -> float:
        """Normal probability of the support, the truncation's normalizer."""
        return float(abs(self._phi(self.x_max) - self._phi(self.x_min)))

    def cdf(self, x):
        xs = _clip(_checked(x), self.x_min, self.x_max)
        out = abs(self._phi(xs) - self._phi(self.x_min)) / self._mass
        return float(out) if np.isscalar(x) else out

    def _inverse(self, qs):
        a, b = self._phi(self.x_min), self._phi(self.x_max)
        return self.mu + self._side * self.sigma * special.ndtri(a + qs * (b - a))

    def quantile(self, q):
        return _clamped_quantile(self, q)


def _checked(x):
    """x as a float (one round's query) or an array, refused outside [-1, 1]; NaN passes."""
    scalar = isinstance(x, float)
    xs = x if scalar else np.asarray(x, dtype=float)
    if abs(xs) > 1.0 if scalar else np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    return xs


def _clip(x, lo: float, hi: float):
    # np.clip without its per-call cost on a float; a NaN fails both tests and stays
    return (lo if x < lo else hi if x > hi else x) if isinstance(x, float) else np.clip(x, lo, hi)


class Cohort:
    """N user values in [-1, 1] and the setting they were drawn in."""

    bounds = (-1.0, 1.0)  # (lo, hi) with lo <= every value <= hi

    def __init__(self, values, setting: str):
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            raise ValueError("cohort must contain at least one value")
        if not np.all(np.abs(v) <= 1.0):  # false for a NaN, unlike "below -1 or above 1"
            raise ValueError("cohort values must lie in [-1, 1]")
        if setting not in ("fixed", "iid"):
            raise ValueError(f"setting must be 'fixed' or 'iid', got {setting!r}")
        self.values, self.setting, self.n, self._counts = v, setting, int(v.size), {}

    def true_min(self) -> float:
        return float(self.values.min())

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        return self.values[idx]

    @functools.cached_property
    def _sorted(self) -> np.ndarray:
        v = self.values  # a fixed cohort's are sorted already; checking costs less than np.sort
        return v if np.all(v[:-1] <= v[1:]) else np.sort(v)

    def count_at_or_below(self, tau: float) -> int:
        """Users with value <= tau, by binary search in the sorted values, once per tau."""
        if tau not in self._counts:
            self._counts[tau] = int(np.searchsorted(self._sorted, tau, side="right"))
        return self._counts[tau]

    def negated(self) -> "Cohort":
        return Cohort(-self.values, self.setting)


class DeferredCohort(Cohort):
    """An iid cohort kept as its users' uniform levels: value i is
    ``model.quantile(levels[i])``, evaluated only for the users read.  The
    quantile is clamped to the model's support, so that is the ``bounds``.
    """

    def __init__(self, model, levels: np.ndarray):
        _check_levels(levels)
        self.model, self.levels, self.setting = model, levels, "iid"
        self.n, self.bounds, self._counts = int(levels.size), (model.x_min, model.x_max), {}

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.model.quantile(self.levels)

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        return self.model.quantile(self.levels[idx])


def fixed_cohort(model, n: int) -> Cohort:
    """Deterministic cohort x_(i) = F*((i-1)/(N-1)), i = 1..N, sorted.

    The first value is the support minimum exactly and the last the support
    maximum.
    """
    if n < 2:
        raise ValueError(f"fixed cohorts need n >= 2, got {n}")
    levels = np.arange(n, dtype=float) / (n - 1)
    return Cohort(model.quantile(levels), "fixed")


def iid_cohort(model, n: int, rng) -> DeferredCohort:
    """n independent inverse-CDF draws: one uniform per value now, its quantile when read."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return DeferredCohort(model, rng.random(n))


class IidCounts:
    """Counts of n iid draws from ``model`` at the points asked, drawn from ``rng``.

    Known at first: (-1, F = 0, k = 0) and (1, F = 1, k = n).  A new tau between
    known a < tau < b gets k_a + Binom(k_b - k_a, (F(tau) - F(a)) / (F(b) - F(a))),
    the exact conditional law of the multinomial counts; a known tau draws nothing.
    """

    def __init__(self, model, n: int, rng):
        self._model, self.n, self._rng = model, n, rng
        self._known = [(-1.0, 0.0, 0), (1.0, 1.0, n)]  # (tau, F, k), sorted by tau

    def count_at_or_below(self, tau: float) -> int:
        i = bisect_left(self._known, (tau,))
        if i < len(self._known) and self._known[i][0] == tau:
            return self._known[i][2]
        f = self._model.cdf(tau)  # raises outside [-1, 1]
        (_, fa, ka), (_, fb, kb) = self._known[i - 1], self._known[i]
        p = 0.0 if fb == fa else min(max((f - fa) / (fb - fa), 0.0), 1.0)
        k = ka + int(self._rng.binomial(kb - ka, p))
        self._known.insert(i, (tau, f, k))
        return k


def fatness_constant(model) -> float:
    """Closed-form C with F(x) >= C (x - x_min)^alpha on (x_min, x_max).

    For the rescaled beta model the sharp constant is
    min{1, 1/(alpha B(alpha, beta))} / delta^alpha.  For the truncated
    normal the exponent is 1 and C is the smallest density value on the
    support (attained at a boundary).  Any other model carries no closed
    form and is rejected.  C is a Python float: a delta^alpha past float64
    raises ``OverflowError`` or ``ZeroDivisionError`` instead of giving inf or 0.
    """
    if isinstance(model, BetaScaled):
        # min{1, 1/(alpha B)} without dividing by a B that underflows to 0
        c0 = 1.0 / max(1.0, model.alpha * float(special.beta(model.alpha, model.beta)))
        return c0 / model.delta**model.alpha
    if isinstance(model, TruncNormal):
        # the density is smallest at the support edge farther from mu
        t = max(model.mu - model.x_min, model.x_max - model.mu) / model.sigma
        return math.exp(-0.5 * t * t) / (math.sqrt(2.0 * math.pi) * model.sigma * model._mass)
    raise TypeError(f"no closed-form fatness constant for {type(model).__name__}")
