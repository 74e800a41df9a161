"""Local-privacy primitives: binary randomized response and Laplace noise.

Randomized response reports a {-1,+1} bit truthfully with probability
e^eps / (1 + e^eps) and flipped otherwise, so the likelihood ratio between
the two possible inputs is exactly e^eps for every output.  Averaged reports
are debiased by the factor (e^eps + 1)/(e^eps - 1), which turns the noisy
mean back into an unbiased frequency estimate.

All sampling goes through an explicitly passed random stream and each
operation here consumes a fixed number of uniform variates (one per
sanitized value), so a run is replayable from its seed;
:func:`laplace_noise` takes its uniforms ready drawn, so the Laplace baseline
can draw all N and transform only those it reads, and
:func:`laplace_noise_one` is its float form, for a baseline with few users
to read.  A simulated round takes none of these: ``protocol`` draws its
answer sum as two binomials.  ``epsilon = math.inf`` is accepted everywhere
as the no-noise switch used by equivalence tests.  Only the array
mechanisms, :func:`rr_respond_many` and :func:`laplace_noise`, and the
Laplace float form (for numpy's ``log``) import numpy, when called, so the
aggregator, which uses the scalar randomized response, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _validate_epsilon(value: float, name: str) -> None:
    if math.isnan(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total privacy loss epsilon for one user across a whole session.

    ``epsilon = math.inf`` disables the noise entirely; it is allowed so that
    noise-free runs can exercise the exact same code paths.
    """

    epsilon: float

    def __post_init__(self):
        _validate_epsilon(self.epsilon, "epsilon")

    def split(self, rounds: int) -> "RoundBudget":
        """Evenly split the budget over ``rounds`` sequential queries."""
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        return RoundBudget(self.epsilon / rounds)


@dataclass(frozen=True)
class RoundBudget:
    """Per-query privacy parameter (epsilon / depth under an even split).

    Refused when so small that the debiasing factor :func:`phi_correction`
    is not a finite float (below about 1.1e-308).
    """

    epsilon_round: float

    def __post_init__(self):
        _validate_epsilon(self.epsilon_round, "epsilon_round")
        tanh_half = math.tanh(self.epsilon_round / 2.0)
        if tanh_half == 0.0 or math.isinf(1.0 / tanh_half):
            raise ValueError(f"epsilon_round = {self.epsilon_round!r} is too small: "
                             f"its debiasing factor overflows")


def rr_keep_probability(budget: RoundBudget) -> float:
    """Probability e^eps/(1+e^eps) that randomized response keeps the bit.

    Strictly inside (1/2, 1) for finite eps; 1/2 in the eps -> 0 limit and
    exactly 1.0 at eps = inf.
    """
    return 1.0 / (1.0 + math.exp(-budget.epsilon_round))


def randomized_response(bit: int, budget: RoundBudget, rng) -> int:
    """Sanitize one {-1,+1} bit, consuming exactly one uniform variate."""
    if bit not in (-1, 1):
        raise ValueError(f"bit must be -1 or +1, got {bit!r}")
    if rng.random() < rr_keep_probability(budget):
        return bit
    return -bit


def rr_respond_many(bits: np.ndarray, budget: RoundBudget, rng) -> np.ndarray:
    """Vectorized randomized response over a bit vector.

    Consumes one uniform per entry, in index order, so the output is
    bit-identical to calling :func:`randomized_response` in a loop over the
    same stream.
    """
    import numpy as np

    bits = np.asarray(bits)
    u = rng.random(bits.shape[0])
    return np.where(u < rr_keep_probability(budget), bits, -bits)


def phi_correction(budget: RoundBudget) -> float:
    """Debiasing factor (e^eps + 1)/(e^eps - 1) = coth(eps/2).

    Tends to 1 as eps -> inf (no correction needed without noise) and to
    2/eps as eps -> 0.
    """
    return 1.0 / math.tanh(budget.epsilon_round / 2.0)


def unbiased_phi(sum_z: int, n: int, budget: RoundBudget) -> float:
    """Unbiased estimate of the fraction of users whose raw bit was +1.

    Given the sum of n sanitized bits, returns

        (1/2n) * (e^eps + 1)/(e^eps - 1) * sum_z + 1/2 .

    The estimate is intentionally not clamped: it can land outside [0, 1]
    for finite eps, and downstream threshold tests compare it raw.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if abs(sum_z) > n:
        raise ValueError(f"|sum_z| = {abs(sum_z)} exceeds n = {n}")
    if (sum_z - n) % 2 != 0:
        raise ValueError(f"sum_z = {sum_z} has wrong parity for n = {n}")
    return debias(sum_z, 2.0 * n, phi_correction(budget))


def debias(sum_z: int, two_n: float, correction: float) -> float:
    """:func:`unbiased_phi` from 2n and :func:`phi_correction`, unchecked (valid sums only)."""
    return correction * sum_z / two_n + 0.5


def laplace_scale(budget: PrivacyBudget) -> float:
    """Noise scale 2/eps for a single release of a value in [-1, 1]."""
    return 2.0 / budget.epsilon


def laplace_noise(u: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """Laplace(0, 2/eps) noise by inverse CDF, one draw per uniform in ``u``.

    Nondecreasing in u: -scale * ln(w) above u = 1/2, scale * ln(w) below it,
    w = 1 - 2|u - 1/2|.
    """
    import numpy as np

    v = u - 0.5
    w = 1.0 - 2.0 * np.abs(v)
    np.maximum(w, 5e-324, out=w)  # u == 0.0 happens with probability 2^-53; avoid log(0)
    np.log(w, out=w)
    w *= laplace_scale(budget)
    w *= np.where(v >= 0.0, -1.0, 1.0)  # not -w: keeps the sign of inf * ln(1)'s NaN
    return w


def laplace_noise_one(u: float, scale: float) -> float:
    """:func:`laplace_noise` of one float uniform at a scale in (0, inf), bit for bit.

    The same operations in the same order, with numpy's ``log``: ``math.log``
    differs from it by up to 1 ulp.
    """
    import numpy as np

    v = u - 0.5
    w = float(np.log(max(1.0 - 2.0 * abs(v), 5e-324)))
    return w * scale * (-1.0 if v >= 0.0 else 1.0)


def laplace_noise_many(n: int, budget: PrivacyBudget, rng) -> np.ndarray:
    """n Laplace(0, 2/eps) draws by inverse CDF, one uniform each, in index order."""
    return laplace_noise(rng.random(n), budget)
