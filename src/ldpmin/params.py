"""Schedules for the bisection depth L, concentration budget h and threshold.

The decision threshold separating "some mass lies left of the midpoint"
from pure sanitization noise is

    gamma = sqrt( 4 e^m (1 + e^m) h / ((e^m - 1)^2 N) ),   m = eps / L,

chosen so that the per-round mistake probability is at most e^{-h}.

:func:`parse_schedule` alone reads a schedule token, into a :class:`Schedule`;
:func:`choose_params` builds its :class:`~ldpmin.protocol.ProtocolConfig`:

* ``lower_alpha`` and ``known_alpha:<a0>`` assume a lower bound alpha0 (1 for
  ``lower_alpha``) on the data's tail-fatness exponent.  h = ln(N)/(2 alpha0)
  and L = ceil(log2(N)/(2 alpha0)), the smallest admissible depth (a larger L
  only adds noise through eps/L), for the rate (ln^3 N / (eps^2 N))^{1/(2 alpha)}.
* ``unknown_alpha`` assumes nothing and pays ln^6 N in place of ln^3 N:
  h = ln^2(N)/(2 ln(B)) and L = ceil(log2^2(N) / (2 log2(B))) with
  B = ``UNKNOWN_ALPHA_BASE`` = 1000, so that the two coincide at N = B.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .protocol import ProtocolConfig

UNKNOWN_ALPHA_BASE = 1000.0


class Schedule(NamedTuple):
    """A schedule's assumed lower bound on alpha (None: none) and its rate's log power."""

    alpha0: float | None
    log_power: float


def parse_schedule(token: str) -> Schedule:
    """The schedule a token names: ``lower_alpha``, ``known_alpha:<a0>`` or ``unknown_alpha``."""
    if token == "unknown_alpha":
        return Schedule(None, 6.0)
    if token == "lower_alpha":
        return Schedule(1.0, 3.0)
    name, sep, arg = token.partition(":")
    if name != "known_alpha" or not sep:
        raise ValueError(f"unknown parameter mode {token!r}")
    try:
        alpha0 = float(arg)
    except ValueError:
        raise ValueError(f"bad parameter in mode {token!r}") from None
    if not 0 < alpha0 < math.inf:
        raise ValueError(f"alpha0 must be finite and positive, got {alpha0}")
    return Schedule(alpha0, 3.0)


def gamma_threshold(epsilon: float, depth: int, h: float, n: int) -> float:
    """Exact evaluation of the threshold formula for m = epsilon/depth.

    Written in the overflow-safe form
    2 sqrt(h (1 + e^{-m}) / N) / (1 - e^{-m}), which equals the defining
    expression and stays finite for epsilon = inf.  An m so small that
    e^{-m} rounds to 1 leaves no representable threshold and is refused.
    """
    if not (epsilon > 0 and depth >= 1 and h > 0 and n >= 1):
        raise ValueError("epsilon, depth, h and n must all be positive")
    em = math.exp(-epsilon / depth)
    if em == 1.0:
        raise ValueError(f"epsilon/depth = {epsilon / depth!r} is below float64 "
                         f"resolution; the threshold is unbounded")
    return 2.0 * math.sqrt(h * (1.0 + em) / n) / (1.0 - em)


def choose_params(mode: str, n: int, epsilon: float) -> ProtocolConfig:
    """The config of schedule ``mode`` for N = ``n`` users at budget ``epsilon``.

    A tail fatter than alpha0 keeps the error bound but not the rate: at
    alpha < 1, ``lower_alpha`` holds the error near its grid, 2^-L ~ N^-1/2,
    where the paper's rate N^-1/(2 alpha) falls faster.  Without alpha0 the
    ratios come first, so that at N = B depth and h are lower_alpha's to the bit.
    """
    alpha0 = parse_schedule(mode).alpha0
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if alpha0 is None:
        base = UNKNOWN_ALPHA_BASE
        depth = max(1, math.ceil(0.5 * (math.log2(n) / math.log2(base)) * math.log2(n)))
        h = 0.5 * (math.log(n) / math.log(base)) * math.log(n)
    else:
        steps = math.log2(n) / (2.0 * alpha0)
        if steps == math.inf:  # an alpha0 near 0, whose depth math.ceil cannot take
            raise ValueError(f"alpha0 = {alpha0!r} is too small: log2(N) / (2 alpha0) overflows")
        depth = max(1, math.ceil(steps))
        h = 0.5 * math.log(n) / alpha0  # ln(N) / (2 alpha0) to the bit, where 2 alpha0 overflows too
    return ProtocolConfig(epsilon, depth, gamma_threshold(epsilon, depth, h, n), n)
