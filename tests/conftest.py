import math

import numpy as np
import pytest

from ldpmin.datagen import Cohort, fixed_cohort, iid_cohort
from ldpmin.mechanisms import (
    PrivacyBudget,
    RoundBudget,
    laplace_scale,
    rr_respond_many,
    unbiased_phi,
)
from ldpmin.protocol import BRANCH_LEFT, BRANCH_RIGHT, RoundRecord, user_respond


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class ConstantRng:
    """Stand-in stream returning a fixed uniform value, for forcing branches."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class CountingModel:
    """Wraps a data model; counts the levels its quantile is evaluated at."""

    def __init__(self, model):
        self.model = model
        self.levels = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def quantile(self, q):
        self.levels += int(np.size(q))
        return self.model.quantile(q)


class CountingRng:
    """Wraps a real stream; counts uniforms consumed and binomial draws taken."""

    def __init__(self, seed: int):
        self.inner = make_rng(seed)
        self.consumed = 0
        self.binomials = 0

    def random(self, size=None):
        self.consumed += 1 if size is None else int(size)
        return self.inner.random(size)

    def binomial(self, n, p):
        self.binomials += 1
        return self.inner.binomial(n, p)


# Scalar references for the vectorized mechanisms: the tests compare
# ``rr_keep_probability`` and ``laplace_noise_many`` against these.

def rr_flip_probability(budget: RoundBudget) -> float:
    """Probability 1/(1+e^eps) that the reported bit is negated."""
    return 1.0 / (1.0 + math.exp(budget.epsilon_round))


def _laplace_from_uniform(u: float, scale: float) -> float:
    # Inverse CDF from a single uniform; keeps runs replayable from a seed.
    v = u - 0.5
    w = 1.0 - 2.0 * abs(v)
    if w <= 0.0:  # u == 0.0 happens with probability 2^-53; avoid log(0)
        w = 5e-324
    noise = -scale * math.log(w)
    return noise if v >= 0.0 else -noise


def laplace_sanitize(x: float, budget: PrivacyBudget, rng) -> float:
    """Report x + Laplace(0, 2/eps) noise; consumes one uniform variate.

    The output is deliberately unclamped, even though the input lives in
    [-1, 1].
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x!r}")
    return x + _laplace_from_uniform(rng.random(), laplace_scale(budget))


def respond_round(values: np.ndarray, tau: float, budget: RoundBudget, rng) -> np.ndarray:
    """Reference for ``run_private_min``'s binomial round sum: all N sanitized
    answers for one round, drawn in user-index order."""
    raw = np.where(tau - values >= 0.0, 1, -1)
    return rr_respond_many(raw, budget, rng)


def fixed_values(model, n: int) -> np.ndarray:
    """The n values of ``fixed_cohort(model, n)``, every one's quantile read."""
    return fixed_cohort(model, n).values_at(np.arange(n))


def iid_values(model, n: int, rng) -> Cohort:
    """An iid cohort given by its values: ``iid_cohort``'s n uniforms from
    ``rng``, every one's quantile read."""
    return Cohort(iid_cohort(model, n, rng).values_at(np.arange(n)), "iid")


def always_two_binomials(counts, config, rng):
    """Reference for ``run_private_min``'s shared-stream round sum: it draws both
    binomials every round, the empty ones (k = 0 or k = n) included."""
    n, p_keep = config.n, config.p_keep

    def round_sum(t, tau):
        k = counts.count_at_or_below(tau)
        return 2 * int(rng.binomial(k, p_keep) + rng.binomial(n - k, 1.0 - p_keep)) - n
    return round_sum


def eager_walk(config, round_sum):
    """Reference for ``Transcript.rounds``: the interval walk building each
    round's ``RoundRecord`` as it goes.  Returns (records, estimate)."""
    lo, hi = -1.0, 1.0
    records = []
    for t in range(1, config.depth + 1):
        tau = lo + (hi - lo) / 2.0
        sum_z = round_sum(t, tau)
        phi = unbiased_phi(sum_z, config.n, config.round_budget)
        if phi >= config.gamma:
            branch, hi = BRANCH_LEFT, tau
        else:
            branch, lo = BRANCH_RIGHT, tau
        records.append(RoundRecord(t, tau, sum_z, phi, branch))
    return tuple(records), lo + (hi - lo) / 2.0


def per_user_round_sum(values, config, user_rngs):
    """Reference round sum with one stream per user: one sanitized answer each."""
    def round_sum(t, tau):
        return sum(user_respond(float(x), tau, config.round_budget, g)
                   for x, g in zip(values, user_rngs))
    return round_sum


def seed_sequence_rep_rng(seed: int, mechanism_code: int, n: int, epsilon: float,
                          x_min: float, rep: int) -> np.random.Generator:
    """Reference for ``harness.rep_rng``: numpy's own SeedSequence on the key."""
    eps_bits, xmin_bits = (int(np.float64(x).view(np.uint64)) for x in (epsilon, x_min))
    key = [seed, mechanism_code, n, eps_bits, xmin_bits, rep]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


@pytest.fixture
def rng():
    return make_rng(12345)
