"""Synthetic data models with controllable left-tail fatness, plus cohorts.

A model here is any object with ``cdf``, ``quantile``, ``x_min``, ``x_max``,
``fat_alpha`` and ``fatness_constant``, the closed-form C with F(x) >= C (x -
x_min)^alpha, a Python float: one past float64 raises ``OverflowError`` or
``ZeroDivisionError`` instead of giving inf or 0.  The two models are a
rescaled beta distribution (whose first shape parameter is exactly the
fatness exponent of the left tail) and a truncated normal (always exponent 1).

Cohorts come in two flavours, and a search reads only their counts
(``count_at_or_below``), which each flavour gives without its values at a
cost that does not grow with N:

* fixed: user i holds the deterministic quantile F*((i-1)/(N-1)), so the
  empirical CDF of the cohort interpolates F exactly; :func:`fixed_cohort`
  evaluates the quantile only next to the user a count ends at, or at the
  users a reader reads; of the cohorts, it alone memoizes its counts;
* iid: users hold independent draws from F.  Every search reads
  :class:`IidCounts`, which draws an iid cohort's counts from their exact law
  and holds no values; the Laplace baseline, which reads values, reads
  :func:`iid_cohort`: one uniform level per user, its quantile evaluated only
  where read.

Quantiles of both models are closed forms (the inverse incomplete
beta function; the normal quantile on the side of the mean where the
support's tail keeps its relative precision), clamped to the support; sampling
is inverse CDF from one uniform per value so that seeded runs are replayable.
The paper's alpha family, a beta with beta = 1 (the uniform model is its
alpha = 1 member), needs no scipy: its CDF is u**alpha, its inverse
q**(1/alpha) and B(alpha, 1) = 1/alpha.  Only a beta with beta != 1 or a
truncated normal loads scipy, on its first ``cdf``, ``quantile`` or
``fatness_constant`` (a truncated normal's, when it is built, as it evaluates
its edges), so a process that evaluates no such model (the aggregator, a
client, ``simulate --data``, ``fit``, any uniform or beta(alpha, 1) run) never
loads it.  The aggregator and ``serve`` do not import this module, so they
load no numpy either.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


@functools.cache
def _special():
    """``scipy.special``, imported on the first evaluation of a beta with beta != 1
    or of a truncated normal, not with the module."""
    try:
        from scipy import special
    except ImportError as exc:
        raise RuntimeError(f"data models need scipy, which could not be imported: {exc}") from exc
    return special


def _clamped_quantile(model, q):
    """The model's closed-form inverse CDF, clamped to the support and exact at its endpoints.

    A float level (one count's probe) skips the array calls and gives the
    array path's result bit for bit.
    """
    if isinstance(q, float):
        if not 0.0 <= q <= 1.0:  # false for a NaN
            raise ValueError("quantile levels must lie in [0, 1]")
        if q == 0.0:
            return model.x_min
        if q == 1.0:
            return model.x_max
        return _clip(float(model._inverse(q)), model.x_min, model.x_max)
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    # initial: a level in [0, 1] that lets an empty array pass; a NaN level makes both NaN
    least, most = qs.min(initial=0.5), qs.max(initial=0.5)
    if not (least >= 0.0 and most <= 1.0):
        raise ValueError("quantile levels must lie in [0, 1]")
    x = model._inverse(qs).clip(model.x_min, model.x_max)
    # the endpoint levels denote the support edges exactly, whatever the
    # rounding of the inverse
    if least == 0.0 or most == 1.0:
        x = np.where(qs == 0.0, model.x_min, np.where(qs == 1.0, model.x_max, x))
    return float(x[0]) if np.isscalar(q) else x


@dataclass(frozen=True)
class BetaScaled:
    """Beta(alpha, beta) stretched onto [x_min, x_min + delta] within [-1, 1].

    The left tail satisfies F(x) >= C (x - x_min)^alpha all the way up to
    the right support edge, so ``alpha`` is literally the model's fatness
    exponent.  beta = 1, the paper's alpha family with F(u) = u**alpha (alpha =
    1 is the uniform distribution), is evaluated in closed form without scipy;
    only beta != 1 loads it.
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
        # beta = 1: the incomplete beta function is u**alpha
        object.__setattr__(self, "_power", self.beta == 1)

    @property
    def x_max(self) -> float:
        return self.x_min + self.delta

    @property
    def fat_alpha(self) -> float:
        return self.alpha

    def cdf(self, x: float) -> float:
        u = _clip((_checked(x) - self.x_min) / self.delta, 0.0, 1.0)
        if self._power:  # + 0.0 turns a -0.0 into the +0.0 betainc gives
            return u**self.alpha + 0.0
        return float(_special().betainc(self.alpha, self.beta, u))

    def _inverse(self, qs):
        if self._power:  # one numpy call for a float and an array alike: the same bits
            u = qs if self.alpha == 1 else np.power(qs, 1.0 / self.alpha)
        else:
            u = _special().betaincinv(self.alpha, self.beta, qs)
        return self.x_min + self.delta * u

    def quantile(self, q):
        return _clamped_quantile(self, q)

    def fatness_constant(self) -> float:
        """The sharp C: min{1, 1/(alpha B(alpha, beta))} / delta^alpha."""
        if self._power:  # B(alpha, 1) = 1/alpha
            return 1.0 / self.delta**self.alpha
        # min{1, 1/(alpha B)} without dividing by a B that underflows to 0
        c0 = 1.0 / max(1.0, self.alpha * float(_special().beta(self.alpha, self.beta)))
        return c0 / self.delta**self.alpha


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
        # above the mean Phi(b) - Phi(a) cancels to 0 while the survival
        # function Phi(-t) keeps full relative precision, so mirror there
        side = -1.0 if self.x_min + self.x_max > 2.0 * self.mu else 1.0
        object.__setattr__(self, "_side", side)
        a, b = float(self._phi(self.x_min)), float(self._phi(self.x_max))
        # Phi at the edges; _mass, their gap, is the truncation's normalizer
        for name, value in (("_phi_min", a), ("_phi_max", b), ("_mass", abs(b - a))):
            object.__setattr__(self, name, value)
        if not self._mass >= np.finfo(float).tiny:
            raise ValueError(
                f"support [{self.x_min}, {self.x_max}] carries no probability mass "
                f"in float64 under Normal({self.mu}, {self.sigma}^2)"
            )

    @property
    def fat_alpha(self) -> float:
        # any truncated density is bounded away from zero near its minimum
        return 1.0

    def _phi(self, x):
        """Phi(side * (x - mu) / sigma): monotone in x, decreasing when side = -1."""
        return _special().ndtr(self._side * (x - self.mu) / self.sigma)

    def cdf(self, x: float) -> float:
        x = _clip(_checked(x), self.x_min, self.x_max)
        return float(abs(self._phi(x) - self._phi_min) / self._mass)

    def _inverse(self, qs):
        a, b = self._phi_min, self._phi_max
        return self.mu + self._side * self.sigma * _special().ndtri(a + qs * (b - a))

    def quantile(self, q):
        return _clamped_quantile(self, q)

    def fatness_constant(self) -> float:
        """C at exponent 1: the smallest density value on the support."""
        # the density is smallest at the support edge farther from mu
        t = max(self.mu - self.x_min, self.x_max - self.mu) / self.sigma
        return math.exp(-0.5 * t * t) / (math.sqrt(2.0 * math.pi) * self.sigma * self._mass)


def _checked(x: float) -> float:
    """x (one round's query), refused outside [-1, 1]; NaN passes."""
    if abs(x) > 1.0:
        raise ValueError("evaluation points must lie in [-1, 1]")
    return x


def _clip(x: float, lo: float, hi: float) -> float:
    # np.clip without its per-call cost; a NaN fails both tests and stays
    return lo if x < lo else hi if x > hi else x


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
        self.values, self.setting, self.n = v, setting, int(v.size)

    def true_min(self) -> float:
        return float(self.values.min())

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        return self.values[idx]

    @functools.cached_property
    def _sorted(self) -> np.ndarray:
        return np.sort(self.values)

    def count_at_or_below(self, tau: float) -> int:
        """Users with value <= tau, by binary search in the sorted values."""
        return int(np.searchsorted(self._sorted, tau, side="right"))

    def negated(self) -> "Cohort":
        return Cohort(-self.values, self.setting)


class DeferredCohort:
    """An iid cohort as the Laplace baseline reads it: its users' uniform
    levels, value i being ``model.quantile(levels[i])``, evaluated only for
    the users read.  The quantile checks each level it reads and clamps to the
    model's support, so that is the ``bounds``.
    """

    def __init__(self, model, levels: np.ndarray):
        self.model, self.levels, self.n = model, levels, int(levels.size)
        self.bounds = (model.x_min, model.x_max)

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        return self.model.quantile(self.levels[idx])


class FixedCohort:
    """The fixed cohort of ``model``: value i is ``model.quantile(i / (n - 1))``,
    i = 0..n-1, evaluated only where read.

    A count at tau starts from i = floor((n - 1) F(tau)) and walks to the first
    value above tau in doubling strides, then bisects the last stride: O(1)
    quantiles where values are distinct, O(log n) where many users share one.
    While the quantile is nondecreasing that is the count of the values.
    """

    def __init__(self, model, n: int):
        self.model, self.n, self._counts = model, n, {}
        self.bounds = (model.x_min, model.x_max)

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        return self.model.quantile(idx / (self.n - 1))

    def count_at_or_below(self, tau: float) -> int:
        """Users with value <= tau, counted once per tau."""
        k = self._counts.get(tau)
        if k is None:
            k = self._counts[tau] = self._count(tau)
        return k

    def _count(self, tau: float) -> int:  # the index of the first value above tau
        n, quantile = self.n, self.model.quantile

        def above(i):  # value i > tau, with value -1 below and value n above everything
            return i >= n or (i >= 0 and quantile(i / (n - 1)) > tau)

        i = min(max(math.floor((n - 1) * self.model.cdf(tau)), 0), n - 1)
        lo, hi = (i - 1, i) if above(i) else (i, i + 1)
        stride = 1
        while above(lo):  # walk down ...
            stride *= 2
            lo, hi = lo - stride, lo
        while not above(hi):  # ... or up, until value lo <= tau < value hi
            stride *= 2
            lo, hi = hi, hi + stride
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return hi


def _check_size(n: int, least: int, kind: str) -> None:
    if n < least:
        raise ValueError(f"{kind} cohorts need n >= {least}, got {n}")
    if n > 2**63 - 1:  # numpy draws a binomial count as an int64
        raise ValueError(f"n must be at most 2**63 - 1, got {n}")


def fixed_cohort(model, n: int) -> FixedCohort:
    """Deterministic cohort x_(i) = F*((i-1)/(N-1)), i = 1..N, sorted.

    The first value is the support minimum exactly and the last the support
    maximum.
    """
    _check_size(n, 2, "fixed")
    return FixedCohort(model, n)


def iid_cohort(model, n: int, rng) -> DeferredCohort:
    """n independent inverse-CDF draws: one uniform per value now, its quantile when read."""
    _check_size(n, 1, "iid")
    return DeferredCohort(model, rng.random(n))


class IidCounts:
    """Counts of n iid draws from ``model`` at the points asked, drawn from ``rng``.

    Known at first: (-1, F = 0, k = 0) and (1, F = 1, k = n).  A new tau between
    known a < tau < b gets k_a + Binom(k_b - k_a, (F(tau) - F(a)) / (F(b) - F(a))),
    the exact conditional law of the multinomial counts; a known tau draws nothing.
    """

    def __init__(self, model, n: int, rng):
        _check_size(n, 1, "iid")
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

