"""Summary statistics for the benchmark: percentiles and failure share."""

from __future__ import annotations

import math

MIN_BEYOND = 10
# tail levels in per mille; integers keep "ten samples beyond" exact where
# 1 - 0.9 in floating point would not be
TAIL_PERMILLE = (900, 990, 999)


def percentile(samples, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks like numpy's default."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def beyond(count: int, permille: int) -> int:
    """Samples above the given tail level out of ``count``."""
    return count * (1000 - permille) // 1000


def tail_levels(count: int) -> list[int]:
    """Tail levels (per mille) with at least MIN_BEYOND samples beyond them."""
    return [level for level in TAIL_PERMILLE if beyond(count, level) >= MIN_BEYOND]


def latency_summary(samples) -> dict:
    """n, the median, and every tail percentile the sample count supports."""
    out = {"n": len(samples)}
    if samples:
        out["p50"] = percentile(samples, 50.0)
    for level in tail_levels(len(samples)):
        out[f"p{level / 10:g}"] = percentile(samples, level / 10.0)
    return out


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
