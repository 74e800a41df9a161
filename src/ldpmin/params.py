"""Schedules for the bisection depth L, concentration budget h and threshold.

The decision threshold separating "some mass lies left of the midpoint"
from pure sanitization noise is

    gamma = sqrt( 4 e^m (1 + e^m) h / ((e^m - 1)^2 N) ),   m = eps / L,

chosen so that the per-round mistake probability is at most e^{-h}.

Two stock schedules are provided:

* ``params_known_alpha``: requires a lower bound alpha0 on the tail-fatness
  exponent of the data distribution.  Uses h = ln(N)/(2 alpha0) and the
  smallest admissible depth L = ceil(log2(N)/(2 alpha0)); larger L only
  inflates the per-round noise through eps/L.
* ``params_unknown_alpha``: needs no knowledge of the tail.  Uses the
  log-squared schedule h = ln^2(N)/(2 ln(base)), L = ceil(log2^2(N) /
  (2 log2(base))) with base = 1000 by default (the two schedules coincide
  at N = base by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import MAX_DEPTH

MODE_LOWER_ALPHA = "lower_alpha"
MODE_UNKNOWN_ALPHA = "unknown_alpha"


@dataclass(frozen=True)
class ParamChoice:
    """One resolved schedule: mode label, depth L, budget h and threshold.

    ``gamma`` is computed once at construction so a protocol run can never
    accidentally mix the threshold of one schedule with the depth of
    another.
    """

    mode: str
    depth: int
    h: float
    gamma: float

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"{self.mode}: depth must lie in [1, {MAX_DEPTH}] "
                             f"(float64 midpoint resolution), got {self.depth}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")


def gamma_threshold(epsilon: float, depth: int, h: float, n: int) -> float:
    """Exact evaluation of the threshold formula for m = epsilon/depth.

    Written in the overflow-safe form
    2 sqrt(h (1 + e^{-m}) / N) / (1 - e^{-m}), which equals the defining
    expression and stays finite for epsilon = inf.
    """
    if not (epsilon > 0 and depth >= 1 and h > 0 and n >= 1):
        raise ValueError("epsilon, depth, h and n must all be positive")
    em = math.exp(-epsilon / depth)
    return 2.0 * math.sqrt(h * (1.0 + em) / n) / (1.0 - em)


def params_known_alpha(n: int, alpha0: float, epsilon: float) -> ParamChoice:
    """Schedule for a known lower bound alpha0 on the fatness exponent.

    h = ln(N) / (2 alpha0), L = max(1, ceil(log2(N) / (2 alpha0))).
    alpha0 = 1 is the stock "lower alpha" preset (valid whenever the data
    tail is at least linear near its minimum).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not alpha0 > 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    depth = max(1, math.ceil(math.log2(n) / (2.0 * alpha0)))
    h = math.log(n) / (2.0 * alpha0)
    mode = MODE_LOWER_ALPHA if alpha0 == 1.0 else f"known_alpha:{alpha0:g}"
    return ParamChoice(mode, depth, h, gamma_threshold(epsilon, depth, h, n))


def params_unknown_alpha(n: int, epsilon: float, base: float = 1000.0) -> ParamChoice:
    """Schedule needing no tail information, at a log-factor cost in error.

    L = ceil(log2^2(N) / (2 log2(base))) and h = ln^2(N) / (2 ln(base)).
    The ratios are computed first so that at N = base this degrades exactly
    (bit for bit) to the alpha0 = 1 schedule of :func:`params_known_alpha`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not base > 1:
        raise ValueError(f"base must exceed 1, got {base}")
    depth = max(1, math.ceil(0.5 * (math.log2(n) / math.log2(base)) * math.log2(n)))
    h = 0.5 * (math.log(n) / math.log(base)) * math.log(n)
    mode = MODE_UNKNOWN_ALPHA if base == 1000.0 else f"unknown_alpha:{base:g}"
    return ParamChoice(mode, depth, h, gamma_threshold(epsilon, depth, h, n))


def choose_params(mode: str, n: int, epsilon: float) -> ParamChoice:
    """Resolve a mode token (as used in config files and CSV columns).

    Accepted tokens: ``lower_alpha``, ``known_alpha:<alpha0>``,
    ``unknown_alpha`` and ``unknown_alpha:<base>``.
    """
    if mode == MODE_LOWER_ALPHA:
        return params_known_alpha(n, 1.0, epsilon)
    if mode == MODE_UNKNOWN_ALPHA:
        return params_unknown_alpha(n, epsilon)
    name, sep, arg = mode.partition(":")
    if sep:
        try:
            value = float(arg)
        except ValueError:
            raise ValueError(f"bad parameter in mode {mode!r}") from None
        if name == "known_alpha":
            return params_known_alpha(n, value, epsilon)
        if name == "unknown_alpha":
            return params_unknown_alpha(n, epsilon, base=value)
    raise ValueError(f"unknown parameter mode {mode!r}")
