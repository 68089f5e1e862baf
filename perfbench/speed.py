"""The host's speed, read from a fixed reference kernel timed between chunks.

The benchmark runs on a shared host whose speed drifts by up to about 2x,
over seconds to minutes: slower than one run lasts, so longer runs do not
average it out. The window therefore times the kernel before its first
chunk and after every chunk, and scales each chunk's time by the kernel's
reference time over the mean of its times just before and just after the
chunk. A scaled time is the time the chunk would take with the host at its
reference speed. The kernel is the benchmark's own code and never calls
it2frbc, so a change to it2frbc moves the scaled times in full. The raw
times are kept in the run's metadata.

The drift does not slow all kinds of work alike: a fast and a slow phase of
the host differ by about 2x for Python-level code, less for vectorized
numpy. The kernel has one part per kind of work the workloads do, timed
separately. An operation is scaled by the parts that do its kind of work
(``Operation.speed_parts`` in workloads.py): online_classify, which is
mostly per-call Python overhead, by the python part; the others, which mix
all three kinds, by the whole kernel. The parts:
  python       loops over small objects, strings and floats
  small_numpy  numpy calls on arrays the size of a pattern against a rule base
  vector       vectorized numpy over a block of a clustering potential field
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical part times on a 2-vCPU Sapphire Rapids KVM guest (Python 3.11,
# numpy 2.4 with scipy-openblas). Their medians over a run read 1.1-2.1 ms,
# 1.0-1.6 ms and 1.6-2.1 ms.
REFERENCE_S = {"python": 0.0019, "small_numpy": 0.0015, "vector": 0.0018}
PARTS = tuple(REFERENCE_S)

_RNG = np.random.default_rng(12345)
_PATTERN = _RNG.random(9)
_LOWER = _RNG.random((130, 9))
_UPPER = _LOWER + 0.25
_BLOCK_A = _RNG.random((300, 1, 9))
_BLOCK_B = _RNG.random((1, 80, 9))


class _Row:
    __slots__ = ("values", "label")

    def __init__(self, values, label):
        self.values = values
        self.label = label

    def total(self):
        return sum(self.values)


def _python_part() -> float:
    counts: dict = {}
    acc = 0.0
    for i in range(200):
        text = ",".join(f"{(i * 7 + j) % 97 / 13:.6f}" for j in range(6))
        row = _Row([float(v) for v in text.split(",")], i % 3)
        counts[row.label] = counts.get(row.label, 0) + 1
        acc += row.total()
    return acc


def _small_numpy_part() -> float:
    acc = 0.0
    for _ in range(40):
        lo = np.minimum(_LOWER, _PATTERN).prod(axis=1)
        hi = np.maximum(_UPPER, _PATTERN).min(axis=1)
        acc += float(np.power(lo * hi, 0.5).sum()) + int(np.argmax(hi))
    return acc


def _vector_part() -> float:
    dist = ((_BLOCK_A - _BLOCK_B) ** 2).sum(axis=2)
    return float(np.exp(-4.0 * dist).sum())


KERNEL_PARTS = {"python": _python_part, "small_numpy": _small_numpy_part,
                "vector": _vector_part}


def time_kernel(clock=time.perf_counter) -> dict:
    """Seconds each part of the kernel takes, run once."""
    times = {}
    for name, part in KERNEL_PARTS.items():
        start = clock()
        part()
        times[name] = clock() - start
    return times


class SpeedLine:
    """Kernel part times along the run, and the scale factor they give a chunk."""

    def __init__(self, clock=time.perf_counter, run_kernel=time_kernel):
        self.clock = clock
        self.run_kernel = run_kernel
        self.times: list[float] = []    # midpoints of the probes, increasing
        self.kernel_s: list[dict] = []  # part -> seconds, per probe
        run_kernel(clock)  # warm caches and numpy's dispatch before the first probe

    def probe(self) -> None:
        start = self.clock()
        parts = self.run_kernel(self.clock)
        self.times.append((start + self.clock()) / 2)
        self.kernel_s.append(parts)

    def factor(self, t: float, parts=PARTS) -> float:
        """Reference time of the kernel parts over their mean time in the
        probes just before and just after t."""
        if not self.times:
            raise ValueError("no probe taken")
        i = bisect.bisect_left(self.times, t)
        around = self.kernel_s[max(i - 1, 0):i + 1]
        measured = sum(probe[p] for probe in around for p in parts) / len(around)
        return sum(REFERENCE_S[p] for p in parts) / measured

    def scale(self, parts=PARTS):
        """``factor`` for the given parts, as a function of t alone."""
        return lambda t: self.factor(t, parts)

    def median_ms(self) -> dict:
        return {p: statistics.median(probe[p] for probe in self.kernel_s) * 1e3 for p in PARTS}
