"""Subtractive clustering: estimate number and location of cluster centers.

Every data point is scored by its potential as a cluster center,

    P_i = sum_j exp(-alpha * ||x_i - x_j||^2),    alpha = 4 / r_a^2,

so points with many close neighbours score high. Centers are picked
greedily by maximum remaining potential; after each accepted center x* with
potential P*, all potentials are reduced by

    P_i <- P_i - P* * exp(-beta * ||x_i - x*||^2),   beta = 4 / r_b^2,

with r_b = 1.25 * r_a by default, which suppresses candidates near an
existing center. Candidates between the accept and reject thresholds are
kept only if they are far enough from the accepted centers.

Points are expected in normalized feature space (r_a is relative to it).

Pairwise squared distances are computed in row blocks (``_sq_distance_blocks``,
shared with the rule base's memberships), so the potential field needs
O(n * block) working memory rather than the full n x n x N difference tensor.
Accepted and discarded candidates drop out of the search at -inf, so the loop
ends within n iterations for every accepted parameter set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Target size, in float64 values, of one row block's difference tensor (2 MB).
BLOCK_ELEMENTS = 1 << 18


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
    max_centers: int | None = None

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
        if self.max_centers is not None and self.max_centers < 1:
            raise ConfigError("max_centers must be at least 1")

    @property
    def alpha(self) -> float:
        return 4.0 / self.r_a**2

    @property
    def beta(self) -> float:
        return 4.0 / (self.rb_ratio * self.r_a) ** 2


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise DataError("points must be a 2-D array (n, num_features)")
    if X.shape[0] < 1:
        raise DataError("need at least one point")
    if not np.isfinite(X).all():
        raise DataError("points must be finite (no nan or inf)")
    return X


def _sq_distance_blocks(X: np.ndarray, Y: np.ndarray):
    """Yield (start, stop, sq): squared distances of X[start:stop] to every row of Y.

    A block's difference tensor holds at most BLOCK_ELEMENTS values (at least
    one row). Each entry is the same einsum over the same differences as in
    the single-shot (n, m, N) form, so results are bitwise independent of the
    block size and coincident points give exact zeros.
    """
    rows = max(1, BLOCK_ELEMENTS // max(1, Y.shape[0] * Y.shape[1]))
    for start in range(0, X.shape[0], rows):
        stop = min(start + rows, X.shape[0])
        diff = X[start:stop, None, :] - Y[None, :, :]
        yield start, stop, np.einsum("ijk,ijk->ij", diff, diff)


def initial_potentials(points, params: SubclustParams) -> np.ndarray:
    """P_i = sum_j exp(-alpha * ||x_i - x_j||^2), including the j=i term, (n,)."""
    X = _as_points(points)
    P = np.empty(X.shape[0])
    for start, stop, sq in _sq_distance_blocks(X, X):
        P[start:stop] = np.exp(-params.alpha * sq).sum(axis=1)
    return P


def _revised(P: np.ndarray, X: np.ndarray, k: int, beta: float) -> np.ndarray:
    """Subtract accepted center k's influence from every potential.

    Uses the center's current potential as the subtracted peak, so the
    center's own potential becomes exactly 0. Values may go negative.
    """
    d2 = ((X - X[k]) ** 2).sum(axis=1)
    return P - P[k] * np.exp(-beta * d2)


def subtractive_cluster(points, params: SubclustParams) -> np.ndarray:
    """Run the accept/reject loop; returns center coordinates (c, N).

    The first candidate (global potential maximum) is always accepted.
    Each next candidate k (maximum remaining potential P_k) is
      - accepted outright if P_k >= accept_ratio * P_first,
      - rejected (loop ends) if P_k < reject_ratio * P_first,
      - otherwise accepted iff d_min/r_a + P_k/P_first >= 1, where d_min is
        its distance to the nearest accepted center; failing that it is
        discarded and the search continues.
    Accepted and discarded candidates leave the search (potential -inf), so
    the loop also ends once every point has been considered. Ties on the
    maximum break toward the lowest point index.
    """
    X = _as_points(points)
    n = X.shape[0]
    cap = n if params.max_centers is None else min(params.max_centers, n)

    P = initial_potentials(X, params)
    first_potential = float(P.max())
    k = int(P.argmax())
    chosen = [k]
    P = _revised(P, X, k, params.beta)
    P[k] = -np.inf

    while len(chosen) < cap:
        k = int(P.argmax())
        peak = float(P[k])
        if peak == -np.inf:
            break
        if peak >= params.accept_ratio * first_potential:
            pass
        elif peak < params.reject_ratio * first_potential:
            break
        else:
            d_min = float(np.sqrt(((X[chosen] - X[k]) ** 2).sum(axis=1)).min())
            if d_min / params.r_a + peak / first_potential < 1.0:
                P[k] = -np.inf
                continue
        chosen.append(k)
        P = _revised(P, X, k, params.beta)
        P[k] = -np.inf

    return X[chosen].copy()
