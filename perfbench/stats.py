"""Summaries of timing samples."""
from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_needed(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``tail`` samples above percentile q."""
    return math.ceil(tail / (1.0 - q / 100.0) - 1e-9)


def highest_reportable(n: int, candidates=(50.0, 90.0, 99.0, 99.9), tail: int = TAIL_SAMPLES):
    """Largest candidate percentile with at least ``tail`` of n samples beyond it."""
    ok = [q for q in candidates if n >= samples_needed(q, tail)]
    return max(ok) if ok else None


def unscaled(t: float) -> float:
    return 1.0


def scaled_median(samples, scale=unscaled) -> float:
    """Median of ``value * scale(t)`` over (t, value) samples."""
    return statistics.median(value * scale(t) for t, value in samples)


def pass_time(samples: dict, scale=unscaled) -> float:
    """Time of one pass over all keys: the sum of each key's median time.
    Samples are (midpoint, seconds) pairs; ``scale`` maps a midpoint to the
    factor its time is multiplied by (see speed.SpeedLine.factor)."""
    return sum(scaled_median(times, scale) for times in samples.values())
