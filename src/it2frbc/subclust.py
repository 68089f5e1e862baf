"""Subtractive clustering: estimate number and location of cluster centers.

Every data point is scored by its potential as a cluster center,

    P_i = sum_j exp(-alpha * ||x_i - x_j||^2),    alpha = 4 / r_a^2,

so points with many close neighbours score high. Centers are picked
greedily by maximum remaining potential (Chiu, J. Intell. Fuzzy Syst. 2(3),
1994); after each accepted center x* with potential P*, all potentials are
reduced by

    P_i <- P_i - P* * exp(-beta * ||x_i - x*||^2),   beta = 4 / r_b^2,

with r_b = 1.25 * r_a by default, which suppresses candidates near an
existing center. Candidates between the accept and reject thresholds are
kept only if they are far enough from the accepted centers; the squared
distances computed for the revision also give that distance, so the loop
takes one distance pass per accepted center.

Points are expected in normalized feature space (r_a is relative to it).

The potential field is computed in row blocks, so it needs O(n * block)
working memory rather than the full n x n x N difference tensor: one
block's differences, dropped once their squared distances are taken, which
then take the exponential in place.
``_row_blocks`` is the one rule for such blocks: the rule base's
memberships and certainty degrees and the reasoning method's soundness walk
their rows with it too. ``_differences`` is the one implementation of a
block's pairwise differences, here and in the rule base's distances: the
rows repeated, minus the other operand in one contiguous pass, C-ordered
whatever the input's layout, one row included.

Termination: every candidate, accepted or discarded, leaves the search at
potential -inf. Once all n points have left, the maximum is -inf, which lies
below reject_ratio * P_first (>= 0, finite), so the loop ends within n + 1
iterations for every accepted parameter set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Target size, in float64 values, of a block's largest array (2 MB).
BLOCK_ELEMENTS = 1 << 18


def _row_blocks(n: int, width: int):
    """Yield slices covering range(n) in order, each of
    max(1, BLOCK_ELEMENTS // width) rows (the last may be shorter), where
    width is the number of values one row adds to the block's largest
    array. The only reader of BLOCK_ELEMENTS."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (rows, m, N) block of A[i] - B[j], C-ordered; see the module docstring."""
    diff = np.repeat(A, len(B), axis=0).reshape(len(A), len(B), A.shape[1])
    diff -= B
    return diff


@dataclass(frozen=True)
class SubclustParams:
    """Controls for the clustering loop.

    r_a is the neighbourhood radius and the only parameter that normally
    needs tuning; it governs how many centers emerge. accept_ratio and
    reject_ratio are fractions of the first (highest) potential.
    """

    r_a: float
    rb_ratio: float = 1.25
    accept_ratio: float = 0.5
    reject_ratio: float = 0.15

    def __post_init__(self):
        # The radius rule. A radius whose square underflows, overflows or is
        # infinite makes alpha or beta 0 or inf (or raises), which gives nan
        # potentials or no clusters.
        try:
            usable = self.r_a > 0 and self.rb_ratio > 0 and all(
                0.0 < v < np.inf for v in (self.alpha, self.beta))
        except (ZeroDivisionError, OverflowError):
            usable = False
        if not usable:
            raise ConfigError(f"r_a={self.r_a!r} and rb_ratio={self.rb_ratio!r} must be positive "
                              "and give a finite, positive alpha = 4/r_a**2 and beta = 4/r_b**2")
        if not 0.0 < self.accept_ratio <= 1.0:
            raise ConfigError("accept_ratio must lie in (0,1]")
        if not 0.0 <= self.reject_ratio < self.accept_ratio:
            raise ConfigError("reject_ratio must lie in [0,1) and below accept_ratio")

    @property
    def alpha(self) -> float:
        return 4.0 / self.r_a**2

    @property
    def beta(self) -> float:
        return 4.0 / (self.rb_ratio * self.r_a) ** 2


def describe_params(params: SubclustParams | None) -> dict[str, str]:
    """The clustering settings as printed in configurations and reports."""
    if params is None:
        return {"r_a": "none"}
    return {
        "r_a": repr(params.r_a),
        "rb_ratio": repr(params.rb_ratio),
        "accept_ratio": repr(params.accept_ratio),
        "reject_ratio": repr(params.reject_ratio),
    }


def initial_potentials(points, params: SubclustParams) -> np.ndarray:
    """P_i = sum_j exp(-alpha * ||x_i - x_j||^2), including the j=i term, (n,).

    Each row block's (rows, n, N) differences go through one einsum, the
    same as the single-shot form, so the result is bitwise independent of
    the block size and coincident points give exact zeros.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise DataError("points must be a 2-D array (n, num_features)")
    if X.shape[0] < 1:
        raise DataError("need at least one point")
    if not np.isfinite(X).all():
        raise DataError("points must be finite (no nan or inf)")
    P = np.empty(X.shape[0])
    for s in _row_blocks(X.shape[0], X.size):
        diff = _differences(X[s], X)
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # before the next block's differences are built
        sq *= -params.alpha
        P[s] = np.exp(sq, out=sq).sum(axis=1)
    return P


def _revised(P: np.ndarray, X: np.ndarray, k: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Subtract accepted center k's influence from every potential.

    Uses the center's current potential as the subtracted peak, so the
    center's own potential becomes exactly 0. Values may go negative.
    Returns the revised potentials, in one new array (P is left as it is),
    and every point's squared distance to the center, (n,) each.
    """
    d2 = ((X - X[k]) ** 2).sum(axis=1)
    e = np.exp(-beta * d2)
    e *= P[k]
    return np.subtract(P, e, out=e), d2


def subtractive_cluster(points, params: SubclustParams) -> np.ndarray:
    """Run Chiu's accept/reject loop; returns center coordinates (c, N).

    Each candidate k is the point of maximum remaining potential P_k (ties
    break toward the lowest point index). With P_first the potential of the
    first candidate, the global maximum, k is
      - rejected, and the loop ends, if P_k < reject_ratio * P_first,
      - accepted outright if P_k >= accept_ratio * P_first (so the first
        candidate always is),
      - otherwise accepted iff d_min/r_a + P_k/P_first >= 1, where d_min is
        its distance to the nearest accepted center, and else discarded.
    Each accepted center revises the potentials, and its squared distances
    to every point also lower ``nearest``, the squared distance of each
    point to its nearest accepted center, which gives d_min.
    """
    X = np.asarray(points, dtype=float)  # initial_potentials checks it
    P = initial_potentials(X, params)
    first_potential = float(P.max())
    nearest = np.full(X.shape[0], np.inf)
    chosen = []

    while True:
        k = int(P.argmax())
        peak = float(P[k])
        if peak < params.reject_ratio * first_potential:
            break
        if (peak >= params.accept_ratio * first_potential
                or np.sqrt(nearest[k]) / params.r_a + peak / first_potential >= 1.0):
            chosen.append(k)
            P, d2 = _revised(P, X, k, params.beta)
            np.minimum(nearest, d2, out=nearest)
        P[k] = -np.inf

    return X[chosen].copy()
