"""Interactive bisection for minimum finding, with and without sanitization.

Every search is one of two walks over the same interval: :func:`bisect`,
whose rounds come from a callback (the server, per-user streams and the
noise-free search), and :func:`_count_walk`, whose rounds it draws itself
from a count source and one shared stream (every simulated sanitized
search).  A walk keeps an interval [lo, hi],
starting from the data domain [-1, 1], and in each of L rounds asks every
user about the midpoint tau: the raw answer is sign(tau - x_i) with
sign(0) = +1, so +1 means "my value is at most tau".  The answers are
sanitized by randomized response at budget eps/L, their sum is debiased
into an estimate phi of the fraction at or below tau, and the walk keeps
the left half when phi >= gamma, tested as sum >= ``config.threshold``.
The final interval's midpoint is returned: discretization error <= 2^-L.

The noise-free search is the callback walk at eps = inf and gamma = 1/(2N):
phi is then the plain fraction count/N, which reaches 1/(2N) exactly when
at least one user sits at or below tau.

A walk keeps one plain step (tau, sum_z) per round; its transcript builds
the :class:`RoundRecord` s, phi and branch included, when ``rounds`` is
read.  A sweep, which reads only the estimate, calls
:func:`private_min_estimate`, whose walk keeps no steps and builds no
transcript.

A simulated run reads each round's count at tau from a count source (``n``
and ``count_at_or_below``: a :class:`Cohort`, a ``datagen.FixedCohort`` or,
for every iid search, ``datagen.IidCounts``, which draws the counts from the
run's stream), then draws the answer sum as two binomials from that stream
(users at or below tau first), so transcripts replay from (counts, config,
seed); a binomial over no users is skipped, as numpy returns 0 for it before
touching the stream.  Passing a cohort and ``user_rngs`` simulates one independent
stream per user instead (one uniform per sanitized bit); the estimator
distribution is identical either way.  This module imports neither numpy nor
``datagen``, so the aggregator that runs :func:`bisect` loads neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .mechanisms import (
    PrivacyBudget,
    RoundBudget,
    debias,
    laplace_noise,
    laplace_noise_one,
    laplace_scale,
    phi_correction,
    randomized_response,
    rr_keep_probability,
)
from .mechanisms import laplace_noise_many, rr_respond_many  # noqa: F401 - bench hooks

if TYPE_CHECKING:
    from .datagen import Cohort

BRANCH_LEFT = "left"
BRANCH_RIGHT = "right"

# Round t's midpoint is an odd multiple of 2^(1-t); float64 holds every such
# value in [-1, 1] exactly while t <= 54, past that the interval collapses.
MAX_DEPTH = 54

# The most candidates the Laplace baseline reads as floats: about 2.2 us each
# for beta(2,1) and 1.8 us for a truncated normal, against 15-19 us for its
# array path at any count up to 16; the two meet at 8 for beta(2,1).
FLOAT_CANDIDATES = 8


def sign(v: float) -> int:
    """+1 for v >= 0, -1 otherwise (zero counts as positive)."""
    return 1 if v >= 0 else -1


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: total budget, depth, decision threshold, cohort size.

    Derived once, at construction: ``budget`` (the total), ``round_budget``
    (eps/L), randomized response's ``p_keep`` and phi's debiasing
    ``correction`` at the round budget, and ``threshold``, the least sum in
    [-n, n + 1] whose phi reaches gamma (n + 1: none does).  ``debias`` (a
    positive multiply, a divide and an add) is monotone, so for every valid
    sum, sum_z >= threshold exactly when phi >= gamma.
    """

    epsilon: float
    depth: int
    gamma: float
    n: int

    def __post_init__(self):
        budget = PrivacyBudget(self.epsilon)  # raises on a NaN or nonpositive epsilon
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(
                f"depth must lie in [1, {MAX_DEPTH}] (float64 midpoint resolution), "
                f"got {self.depth}"
            )
        if not self.gamma >= 0:  # false for a NaN, which would send every branch right
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        round_budget = budget.split(self.depth)
        correction = phi_correction(round_budget)
        if math.isinf(correction * self.n):  # so phi * sum_z is finite
            raise ValueError(f"epsilon/depth is too small for n = {self.n}: phi overflows")
        lo, hi = -self.n, self.n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if debias(mid, 2.0 * self.n, correction) >= self.gamma:
                hi = mid
            else:
                lo = mid + 1
        for name, value in (("budget", budget), ("round_budget", round_budget),
                            ("p_keep", rr_keep_probability(round_budget)),
                            ("correction", correction), ("threshold", lo)):
            object.__setattr__(self, name, value)

    @property
    def degenerate_gamma(self) -> bool:
        """All +1 answers miss the threshold, so every branch goes right (legal at tiny n)."""
        return self.threshold > self.n

    @property
    def always_left(self) -> bool:
        """All -1 answers reach the threshold, so every branch goes left (gamma 0 at eps = inf)."""
        return self.threshold <= -self.n


class RoundRecord(NamedTuple):
    """One audited round: queried midpoint, aggregate and branch taken."""

    round: int
    tau: float
    sum_z: int
    phi: float
    branch: str


class Transcript(NamedTuple):
    """One run: its config, one step (tau, sum_z) per round, the estimate.
    ``rounds``, one record per step (phi and branch added), is built when read.
    """

    config: ProtocolConfig
    steps: tuple[tuple[float, int], ...]
    estimate: float

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        c = self.config
        return tuple(RoundRecord(t, tau, sum_z, debias(sum_z, 2.0 * c.n, c.correction),
                                 BRANCH_LEFT if sum_z >= c.threshold else BRANCH_RIGHT)
                     for t, (tau, sum_z) in enumerate(self.steps, 1))


def user_respond(x: float, tau: float, budget: RoundBudget, rng) -> int:
    """Sanitized sign(tau - x): one user's answer to one round's query."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x!r}")
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [-1, 1], got {tau!r}")
    return randomized_response(sign(tau - x), budget, rng)


def bisect(config: ProtocolConfig, round_sum) -> Transcript:
    """The interval walk whose rounds come from a callback.

    Round t queries the midpoint tau and takes ``round_sum(t, tau)``, the sum
    of the N answers in {-1, +1}; it keeps the left half when that sum reaches
    ``config.threshold`` (so the debiased estimate reaches ``config.gamma``).
    Returns the midpoint of the final interval with one step (tau, sum_z) per
    round, which the transcript turns into records when read.
    """
    threshold = config.threshold
    lo, hi = -1.0, 1.0
    steps = []
    for t in range(1, config.depth + 1):
        tau = lo + (hi - lo) / 2.0  # keeps tau an exact dyadic rational
        sum_z = round_sum(t, tau)
        if sum_z >= threshold:
            hi = tau
        else:
            lo = tau
        steps.append((tau, sum_z))
    return Transcript(config, tuple(steps), lo + (hi - lo) / 2.0)


@functools.lru_cache(maxsize=64)  # an iid sweep's repetitions share one (n, depth)
def _nonprivate_config(n: int, depth: int) -> ProtocolConfig:
    return ProtocolConfig(epsilon=math.inf, depth=depth, gamma=1.0 / (2 * n), n=n)


def run_nonprivate_min(counts, depth: int) -> Transcript:
    """Noise-free bisection on a count source; error at most 2^-depth.

    The walk at eps = inf and gamma = 1/(2N): the estimate count/N reaches
    gamma exactly when at least one user sits at or below tau.
    """
    n = counts.n
    return bisect(_nonprivate_config(n, depth),
                  lambda t, tau: 2 * counts.count_at_or_below(tau) - n)


def _count_walk(counts, config: ProtocolConfig, rng, steps: list | None = None) -> float:
    """The walk on a count source and one shared stream; returns the estimate.

    Each round reads k, the count at tau, then draws the answer sum in law:
    ``Binom(k, p_keep)`` kept +1s, then ``Binom(n - k, 1 - p_keep)`` flipped
    -1s, skipping a draw over no users.  Appends (tau, sum_z) to ``steps``
    when given a list.
    """
    n, threshold = config.n, config.threshold
    count, binomial = counts.count_at_or_below, rng.binomial
    p_keep, p_flip = config.p_keep, 1.0 - config.p_keep
    lo, hi = -1.0, 1.0
    for _ in range(config.depth):
        tau = lo + (hi - lo) / 2.0  # keeps tau an exact dyadic rational
        k = count(tau)
        sum_z = 2 * ((binomial(k, p_keep) if k else 0)
                     + (binomial(n - k, p_flip) if k != n else 0)) - n
        if sum_z >= threshold:
            hi = tau
        else:
            lo = tau
        if steps is not None:
            steps.append((tau, sum_z))
    return lo + (hi - lo) / 2.0


def _check_size(counts, config: ProtocolConfig) -> None:
    if counts.n != config.n:
        raise ValueError(f"cohort size {counts.n} != configured n {config.n}")


def run_private_min(counts, config: ProtocolConfig, rng=None, *, user_rngs=None) -> Transcript:
    """Sanitized bisection on ``counts`` under an even eps/L split across rounds.

    ``counts`` is a count source (``n``, ``count_at_or_below(tau)``).  Pass
    either ``rng`` (one shared stream: the source's draws at tau, if any,
    then two binomials, users at or below tau first) or ``user_rngs`` (one
    stream per user of a :class:`Cohort`, as a networked deployment has).
    """
    _check_size(counts, config)
    if (rng is None) == (user_rngs is None):
        raise ValueError("pass exactly one of rng or user_rngs")
    if user_rngs is None:
        steps = []
        estimate = _count_walk(counts, config, rng, steps)  # before the steps are read
        return Transcript(config, tuple(steps), estimate)
    from .datagen import Cohort

    if not isinstance(counts, Cohort) or len(user_rngs) != config.n:
        raise ValueError(f"user_rngs need a cohort's values and {config.n} streams")
    budget = config.round_budget
    return bisect(config, lambda t, tau: sum(user_respond(x, tau, budget, g)
                                             for x, g in zip(counts.values, user_rngs)))


def private_min_estimate(counts, config: ProtocolConfig, rng) -> float:
    """``run_private_min(counts, config, rng).estimate`` by the same draws, no steps kept."""
    _check_size(counts, config)
    return _count_walk(counts, config, rng)


def run_private_max(cohort: Cohort, config: ProtocolConfig, rng=None, *, user_rngs=None) -> Transcript:
    """Maximum finding by reflection: negate the data, search, negate back.

    With the same stream, the estimate is exactly the negation of
    :func:`run_private_min` on the negated cohort.  Its steps carry the
    reflected midpoints (the queries as seen in the original orientation);
    branch labels remain the literal threshold-test outcomes of the
    underlying mirrored search.
    """
    mirrored = run_private_min(cohort.negated(), config, rng, user_rngs=user_rngs)
    steps = tuple((-tau, sum_z) for tau, sum_z in mirrored.steps)
    return Transcript(config, steps, -mirrored.estimate)


def baseline_min(cohort, budget: PrivacyBudget, rng) -> float:
    """Naive estimate: sanitize every value with Laplace(0, 2/eps), take the min.

    The whole budget is spent on a single release per user.  The output is
    unclamped and, since the minimum of N noise draws grows like
    -(2/eps) ln N, typically falls far outside the data domain.

    ``cohort`` gives ``n``, ``bounds``, ``values_at`` and ``value_at``: a
    :class:`Cohort`, a ``datagen.DeferredCohort`` or a ``datagen.FixedCohort``.
    All N noise uniforms are drawn, but noise and values are computed only
    for the users who can hold the minimum: with every value in ``bounds`` =
    [lo, hi] and rounding monotone, user i reports at least fl(lo + L_i) and
    the minimum is at most fl(hi + L_j) at j = argmin u, so only users whose
    uniform lies at or below :func:`_candidate_cut` are read.  At a finite
    nonzero scale, up to ``FLOAT_CANDIDATES`` of them are read one float at a
    time (``value_at`` and :func:`laplace_noise_one`), more on arrays; a
    least report of zero is left to the arrays, as ``np.min`` picks among
    tied signed zeros by its own order.  The result is the bits of the
    minimum over all N reports.
    """
    u = rng.random(cohort.n)
    lo, hi = cohort.bounds
    scale = laplace_scale(budget)
    cand = (u <= _candidate_cut(float(u.min()), hi - lo, scale)).nonzero()[0]
    if 0.0 < scale < math.inf and cand.size <= FLOAT_CANDIDATES:
        least = min(cohort.value_at(i) + laplace_noise_one(u.item(i), scale)
                    for i in cand.tolist())
        if least != 0.0:
            return least
    return float((cohort.values_at(cand) + laplace_noise(u[cand], budget)).min())


def _candidate_cut(u_min: float, width: float, scale: float) -> float:
    """A level at or above every uniform whose noise is within ``width`` of u_min's.

    In units of the scale, u_min's noise is g = +-ln(w), and the level whose
    noise is t = g + width/scale is the Laplace CDF at t.  Padding t by a
    relative 1e-9, far above the rounding of log, exp, the scaling and the
    additions, keeps every user whose computed report can tie or undercut
    the minimum.  No noise (scale 0), NaN noise (an infinite scale times
    ln 1) or a cut that is not finite makes every user a candidate.
    """
    if not 0.0 < scale < math.inf:
        return math.inf
    v = u_min - 0.5
    # laplace_noise's -ln(w) from u = 1/2 up, ln(w) below it
    g = math.copysign(math.log(max(1.0 - 2.0 * abs(v), 5e-324)), v)
    t = g + width / scale
    t += 1e-9 * (1.0 + abs(g) + abs(t))
    cut = 0.5 * math.exp(t) if t < 0.0 else 1.0 - 0.5 * math.exp(-t)
    return max(cut, u_min) if math.isfinite(cut) else math.inf
