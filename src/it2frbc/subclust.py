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
takes one distance pass per accepted center. They come from
``_squared_distances``, as the field's do, so they are the center's row of
the field's distances, bit for bit.

Points are expected in normalized feature space (r_a is relative to it).

The potential field computes each pair of points once. x_j - x_i is the
exact negation of x_i - x_j, so both give the same squared distance and the
same exp, byte for byte. The rows and the columns are cut into tiles at the
leaves of the pairwise tree by which numpy sums a row of n values
(``_leaves``: runs of at most 128 values; a longer run splits at half its
length rounded down to a multiple of 8). No two neighbouring leaves fit in
128 values, so a tile is one leaf. For each tile pair (a, b >= a)
``_squared_distances`` fills the tile's squared distances from differences
built in row chunks of at most an eighth of the budget, so none outgrows
it at any number of features, and the kernel takes exp in place. The
tile's row sums are leaf sums of the rows of a; when b > a, the row sums
of its C-ordered transpose are leaf sums of the rows of b. ``_fold`` adds
the leaf sums up numpy's tree as they complete: it pushes each leaf's sums
in leaf order and adds, left + right, every node whose last leaf that is
(``_merges`` counts them), so only the partial sums of completed subtrees
are kept, a stack no deeper than the tree. The rows of a hold the sums over leaves
0..a-1 on a stack shared by all rows, filled from the transposes of
earlier tiles; they go on through leaves a..L-1 in their own tiles, to the
root, adding in place into views of the shared entries. Leaf a's
transposed sums then go onto the shared stack for the rows after a, in an
entry of zeros: a finished row's entries hold zeros or its own partial
sums, never uninitialized memory, which could add inf - inf and warn.
So every potential keeps the bytes of one sum over its whole row, and
with them every center, certainty degree and report. A set of at most
128 points is one tile, whose rows are summed whole. One chunk's
differences, one tile and the two stacks, the tree's depth times n
values, are alive at a time.

``_row_blocks`` is the one rule for row blocks. certainty_degrees and
classify_batch walk their rows with it, and the kernels they call take each
block whole; inside them, only ``_squared_distances`` cuts rows again, into
the chunks whose differences it builds. It is the one chunk loop, here and
in the rule base's distances, with one budget: a chunk of a (rows, m)
block holds at most an eighth of the budget in differences (256 KB, which
a core's L2 cache holds). einsum sums each cell over its own N values, so
the chunks give the bytes of one einsum over the block. A one-row block is
one chunk at any width and takes no loop, as every classify() call and
every revision of the potentials does. The distances' rows past the float
range take the loop again, each chunk's differences scaled per row before
its einsum. ``_differences`` is the one implementation of a chunk's
pairwise differences: the rows repeated, minus the other operand in one
contiguous pass, C-ordered whatever the input's layout, one row included.

Radii near the low end of the rule (about 1.5e-154) make alpha or beta so
large that -alpha * ||x_i - x_j||^2 passes the float range. The product is
then -inf and its exp 0, the exact limit, so the field's tile loop and the
accept/reject loop each run under one np.errstate that lets the product
overflow without a warning.

Termination: every candidate, accepted or discarded, leaves the search at
potential -inf. Once all n points have left, the maximum is -inf, which lies
below reject_ratio * P_first (>= 0, finite), so the loop ends within n + 1
iterations for every accepted parameter set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Target size, in float64 values, of a row block's arrays (2 MB).
BLOCK_ELEMENTS = 1 << 18


def _row_blocks(n: int, width: int):
    """Yield slices covering range(n) in order, each of
    max(1, BLOCK_ELEMENTS // width) rows (the last may be shorter), where
    width is the number of values one row counts against the budget. The
    only reader of BLOCK_ELEMENTS."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (rows, m, N) block of A[i] - B[j], C-ordered; see the module docstring."""
    diff = np.repeat(A, len(B), axis=0).reshape(len(A), len(B), A.shape[1])
    diff -= B
    return diff


def _squared_distances(A: np.ndarray, B: np.ndarray, scaled: bool = False) -> np.ndarray:
    """The (len(A), len(B)) squared distances ||A[i] - B[j]||^2. Their
    differences are built in the row chunks of _row_blocks at width
    8 * B.size, so one chunk's differences hold at most an eighth of the
    budget (or one row); see the module docstring. If scaled, each row's
    differences are first divided by the row's largest |difference| (1 for
    a row of zeros): the rescale path of rulebase._distances."""
    if len(A) == 1 and not scaled:  # one chunk at any width: classify()'s row takes no loop
        diff = _differences(A, B)
        return np.einsum("ijk,ijk->ij", diff, diff)
    sq = np.empty((len(A), len(B)))
    for s in _row_blocks(len(A), 8 * B.size):
        diff = _differences(A[s], B)
        if scaled:  # max(max, -min) is max |difference| without an abs copy
            scale = np.maximum(diff.max(axis=(1, 2), initial=0.0),
                               -diff.min(axis=(1, 2), initial=0.0))
            scale[scale == 0.0] = 1.0
            diff /= scale[:, None, None]
        np.einsum("ijk,ijk->ij", diff, diff, out=sq[s])
        del diff  # before the next chunk's differences are built
    return sq


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


# numpy sums a contiguous run of up to this many values as one leaf of its
# pairwise tree, with 8 accumulators (PW_BLOCKSIZE in its loops).
_LEAF = 128


def _leaves(n: int, start: int = 0) -> list[slice]:
    """The leaves of numpy's summation tree over n values, in order."""
    if n <= _LEAF:
        return [slice(start, start + n)]
    half = n // 2 - n // 2 % 8
    return _leaves(half, start) + _leaves(n - half, start + half)


def _merges(n: int) -> list[int]:
    """For each leaf of _leaves(n), how many nodes of numpy's tree over n
    values have it as their last leaf."""
    if n <= _LEAF:
        return [0]
    half = n // 2 - n // 2 % 8
    right = _merges(n - half)
    right[-1] += 1
    return _merges(half) + right


def _fold(stack: list, sums: np.ndarray, merges: int) -> None:
    """Push one leaf's row sums onto stack, then add the top two entries,
    left += right, merges times: the nodes of numpy's tree that end at that
    leaf. Fed every leaf in order, the stack ends as the rows' sums, with
    their bytes. The adds are in place, into the left entry."""
    stack.append(sums)
    for _ in range(merges):
        right = stack.pop()
        stack[-1] += right


def initial_potentials(points, params: SubclustParams) -> np.ndarray:
    """P_i = sum_j exp(-alpha * ||x_i - x_j||^2), including the j=i term, (n,).

    Each pair of tiles is computed once and summed for both of its row
    sets; see the module docstring. Each chunk's (rows, cols, N)
    differences go through the single-shot form's einsum, and each row
    sum is folded up numpy's tree leaf by leaf, so the result has the
    single-shot bytes whatever the chunk size, and coincident points give
    exact zeros. Past one tile and one chunk's differences, memory is the
    tree's depth times n values.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise DataError("points must be a 2-D array (n, num_features)")
    if X.shape[0] < 1:
        raise DataError("need at least one point")
    if not np.isfinite(X).all():
        raise DataError("points must be finite (no nan or inf)")
    n = len(X)
    leaves, merges = _leaves(n), _merges(n)
    P = np.empty(n)
    shared = []  # every row's sums over leaves 0..a-1, folded
    # Past the float range, alpha * ||x_i - x_j||^2 is -inf and its exp the
    # exact limit 0 (radii near the rule's low end).
    with np.errstate(over="ignore"):
        for a, rows in enumerate(leaves):
            # The rows of a go on from there. These are views: their in-place
            # adds write the rows of a only, which shared no longer needs.
            own = [part[rows] for part in shared]
            later = np.zeros(n)  # leaf a's sums for the rows of later leaves
            for b, cols in enumerate(leaves[a:], a):
                sq = _squared_distances(X[rows], X[cols])
                sq *= -params.alpha
                np.exp(sq, out=sq)
                _fold(own, sq.sum(axis=1), merges[b])
                if b > a:
                    later[cols] = np.ascontiguousarray(sq.T).sum(axis=1)
                del sq  # before the next tile's differences are built
            P[rows] = own[0]  # the root
            _fold(shared, later, merges[a])
    return P


def _revised(P: np.ndarray, X: np.ndarray, k: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Subtract accepted center k's influence from every potential.

    Uses the center's current potential as the subtracted peak, so the
    center's own potential becomes exactly 0. Values may go negative.
    Returns the revised potentials, in one new array (P is left as it is),
    and every point's squared distance to the center, (n,) each.
    """
    d2 = _squared_distances(X[k:k + 1], X)[0]
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

    # As in the field, -beta * ||x_i - x*||^2 may pass the float range; its
    # exp is then the exact limit 0.
    with np.errstate(over="ignore"):
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
