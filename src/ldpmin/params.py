"""Schedules for the bisection depth L, concentration budget h and threshold.

The decision threshold separating "some mass lies left of the midpoint"
from pure sanitization noise is

    gamma = sqrt( 4 e^m (1 + e^m) h / ((e^m - 1)^2 N) ),   m = eps / L,

chosen so that the per-round mistake probability is at most e^{-h}.

Each stock schedule returns the :class:`~ldpmin.protocol.ProtocolConfig`
a run uses, with gamma from :func:`gamma_threshold`:

* ``params_known_alpha``: requires a lower bound alpha0 on the tail-fatness
  exponent of the data distribution.  Uses h = ln(N)/(2 alpha0) and the
  smallest admissible depth L = ceil(log2(N)/(2 alpha0)); larger L only
  inflates the per-round noise through eps/L.
* ``params_unknown_alpha``: needs no knowledge of the tail.  Uses the
  log-squared schedule h = ln^2(N)/(2 ln(B)), L = ceil(log2^2(N) /
  (2 log2(B))) with B = ``UNKNOWN_ALPHA_BASE`` = 1000 (the two schedules
  coincide at N = B by construction).
"""

from __future__ import annotations

import math

from .protocol import ProtocolConfig

UNKNOWN_ALPHA_BASE = 1000.0


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


def params_known_alpha(n: int, alpha0: float, epsilon: float) -> ProtocolConfig:
    """Schedule for a known lower bound alpha0 on the fatness exponent.

    h = ln(N) / (2 alpha0), L = max(1, ceil(log2(N) / (2 alpha0))).
    alpha0 = 1 is the stock "lower alpha" preset (valid whenever the data
    tail is at least linear near its minimum).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 < alpha0 < math.inf:
        raise ValueError(f"alpha0 must be finite and positive, got {alpha0}")
    steps = math.log2(n) / (2.0 * alpha0)
    if steps == math.inf:  # an alpha0 near 0, whose depth math.ceil cannot take
        raise ValueError(f"alpha0 = {alpha0!r} is too small: log2(N) / (2 alpha0) overflows")
    depth = max(1, math.ceil(steps))
    h = 0.5 * math.log(n) / alpha0  # ln(N) / (2 alpha0) to the bit, where 2 alpha0 overflows too
    return ProtocolConfig(epsilon, depth, gamma_threshold(epsilon, depth, h, n), n)


def params_unknown_alpha(n: int, epsilon: float) -> ProtocolConfig:
    """Schedule needing no tail information, at a log-factor cost in error.

    L = ceil(log2^2(N) / (2 log2(B))) and h = ln^2(N) / (2 ln(B)).
    The ratios are computed first so that at N = B this degrades exactly
    (bit for bit) to the alpha0 = 1 schedule of :func:`params_known_alpha`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    base = UNKNOWN_ALPHA_BASE
    depth = max(1, math.ceil(0.5 * (math.log2(n) / math.log2(base)) * math.log2(n)))
    h = 0.5 * (math.log(n) / math.log(base)) * math.log(n)
    return ProtocolConfig(epsilon, depth, gamma_threshold(epsilon, depth, h, n), n)


def choose_params(mode: str, n: int, epsilon: float) -> ProtocolConfig:
    """Resolve a mode token (as used in config files and CSV columns).

    Accepted tokens: ``lower_alpha``, ``known_alpha:<alpha0>`` and
    ``unknown_alpha``.
    """
    if mode == "lower_alpha":
        return params_known_alpha(n, 1.0, epsilon)
    if mode == "unknown_alpha":
        return params_unknown_alpha(n, epsilon)
    name, sep, arg = mode.partition(":")
    if name == "known_alpha" and sep:
        try:
            alpha0 = float(arg)
        except ValueError:
            raise ValueError(f"bad parameter in mode {mode!r}") from None
        return params_known_alpha(n, alpha0, epsilon)
    raise ValueError(f"unknown parameter mode {mode!r}")
