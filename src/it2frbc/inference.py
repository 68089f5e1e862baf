"""Interval fuzzy reasoning: classify patterns against a rule base.

One row kernel serves single patterns and batches alike. Per row of raw
features (n, N): normalize -> membership bounds (n, c) to every rule's
prototype under the two fuzzifiers -> association = bounds x the rule's
per-class certainty -> soundness per class = power mean, bound by bound,
over the rules whose upper association is positive (none leaves [0, 0]) ->
decision = argmax of the interval midpoints (ties go to the lowest index).
For p > 0 the soundness of every class and both bounds is one scaled matrix
product (_soundness_bounds); the few cells it cannot give exactly (extreme
p, underflowing products) are recomputed one by one with _power_mean_rows,
which also computes every cell for p < 0. The operands that depend on the
model alone (normalization divisors, the certainty's firing mask, column
maxima and scaled powers) are built once when the model is constructed,
so a call computes only what depends on its patterns. classify_batch runs
the kernel over row blocks whose (rows, c) arrays hold about
subclust.BLOCK_ELEMENTS values each (about 2 MB), so its memory is the
(n, M) scores plus a few such blocks, whatever n is; classify calls the
kernel on its one row directly. Non-finite input is refused with DataError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .errors import DataError
from .rulebase import _TINY, RuleBase, _SoundnessConstants, membership_bounds
from .subclust import BLOCK_ELEMENTS


@dataclass(frozen=True)
class SoundnessInterval:
    """Aggregated per-class evidence interval, 0 <= lower <= upper."""

    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class ClassificationResult:
    predicted: int
    soundness: tuple[SoundnessInterval, ...]
    scores: np.ndarray
    no_rule_fired: bool = False

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)


def _power_mean_rows(vals: np.ndarray, mask: np.ndarray, p: float) -> np.ndarray:
    """Row-wise power mean ((1/s) * sum a^p)^(1/p) of the s masked entries
    of non-negative values; rows with no entry -> 0.

    Tends to the row min as p -> -inf and the max as p -> +inf. Each row is
    scaled by its max (p > 0) or min (p < 0) so extreme p stays stable, and
    for p < 0 a zero entry forces the limit 0. p = 0 (the geometric limit)
    is refused where the model is built (RuleBase).
    """
    n = vals.shape[0]
    out = np.zeros(n)
    count = mask.sum(axis=1)
    rows = count > 0
    if not rows.any():
        return out
    masked = np.where(mask, vals, np.nan)
    if p > 0:
        scale = np.where(rows, np.nanmax(masked, axis=1, initial=-np.inf), 0.0)
        live = rows & (scale > 0)
        if live.any():
            ratio = np.where(mask & live[:, None], vals / np.where(scale > 0, scale, 1.0)[:, None], 0.0)
            out[live] = scale[live] * ((ratio[live] ** p).sum(axis=1) / count[live]) ** (1.0 / p)
    else:
        has_zero = (np.where(mask, vals, 1.0) == 0.0).any(axis=1)
        live = rows & ~has_zero
        if live.any():
            scale = np.where(live, np.nanmin(masked, axis=1, initial=np.inf), 1.0)
            # Past the float range a ratio's power is 0, its limit.
            with np.errstate(over="ignore"):
                ratio = vals / np.where(scale > 0, scale, 1.0)[:, None]
            ratio = np.where(mask & live[:, None], ratio, 1.0)
            powered = np.where(mask & live[:, None], ratio**p, 0.0)
            out[live] = scale[live] * (powered[live].sum(axis=1) / count[live]) ** (1.0 / p)
    return out


# Each term of a scaled sum that underflows is off by less than _TINY, so
# a sum of count terms at or above count * _FLOOR is exact to rounding.
_FLOOR = _TINY / np.finfo(float).eps


def _soundness_bounds(
    lower: np.ndarray, upper: np.ndarray, consts: _SoundnessConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class soundness bound matrices (n, M) from membership bounds
    0 <= lower <= upper <= 1 (n, c) and the model's constants (built by
    rulebase._soundness_constants from certainty degrees R in [0, 1] (c, M)
    and the exponent p).

    Rule k fires for class j when upper_k * R_kj > 0, and each bound's
    soundness is the power mean of bound_k * R_kj over the firing rules.
    For p > 0 both bounds come from one product over the stacked rows
    B = [lower; upper] (2n, c), with no loop over classes:

        S = (B / s)**p @ (R / t)**p,   count = (upper > 0) @ (R > 0),
        soundness = s * t * (S / count)**(1/p)   (0 where count is 0),

    where s is the row max of B and t the column max of R, so every scaled
    term is at most 1 and the sum cannot overflow. Everything that depends
    on R and p alone (the float (R > 0), t, (R / t)**p and the smallest
    positive R) comes from consts, built once per model. The cells the product
    cannot give exactly are recomputed by _power_mean_rows, each as a row
    of its own:
      - a scaled sum below count * _FLOOR, where underflowed terms could
        matter (large p), or a scale s * t below the smallest normal float;
      - every cell of a row where some upper_k * R_kj of positive factors
        can round to 0, since firing is decided on that product.
    Besides the firing mask, built as floats for the count, the only (n, c)
    arrays are the stacked rows B, which are scaled and raised to p in
    place; whether any firing product can round to 0 is read off the
    smallest firing upper bound, with no (n, c) product. classify_batch
    calls this on row blocks (_row_blocks), so n is at most a block.
    For p < 0 every cell with a firing rule takes that exact path (p = 0 is
    refused where the model is built).
    """
    n, c, M = lower.shape[0], lower.shape[1], consts.certainty.shape[1]
    p = consts.p
    # The firing mask is written as floats, the dtype of the product.
    count = np.matmul(np.greater(upper, 0.0, out=np.empty_like(upper)), consts.firing)
    if p > 0:
        B = np.concatenate((lower, upper))
        s = B.max(axis=1, initial=_TINY)
        B /= s[:, None]
        B **= p
        S = (B @ consts.weights).reshape(2, n, M)
        st = s.reshape(2, n, 1) * consts.t
        fine = (S > count * _FLOOR) & (st >= _TINY)
        # Cells that are not fine hold S / count * s * t, which is 0 where
        # no rule fires and is recomputed everywhere else.
        out = S / np.maximum(count, 1.0)
        np.power(out, 1.0 / p, out=out, where=fine)
        out *= st
        redo = (count > 0.0) & ~fine
        # Firing is decided on upper * R: when a positive product of
        # positive factors can round to 0, those rows need the exact test.
        # upper * rmin is monotone in upper, so the smallest firing bound
        # alone tells whether any such product rounds to 0. Bounds are
        # >= 0, so it is the smallest bound unless that one is 0.
        smallest = upper.min(initial=np.inf)
        if smallest == 0.0:
            smallest = np.min(upper, where=upper > 0.0, initial=np.inf)
        if smallest * consts.rmin == 0.0:
            fires = upper > 0.0
            redo |= (upper * consts.rmin == 0.0).any(axis=1, where=fires)[:, None] & (count > 0.0)
    else:
        out = np.zeros((2, n, M))
        redo = np.broadcast_to(count > 0.0, out.shape)
    h, i, j = np.nonzero(redo)
    if h.size:
        bounds = np.stack((lower, upper))
        # Row blocks of bounded size keep the gathered (cells, c) values small.
        step = max(1, BLOCK_ELEMENTS // max(1, c))
        for a in range(0, h.size, step):
            hb, ib, jb = h[a:a + step], i[a:a + step], j[a:a + step]
            r = consts.certainty[:, jb].T
            out[hb, ib, jb] = _power_mean_rows(bounds[hb, ib] * r, upper[ib] * r > 0.0, p)
    # The true bounds are ordered, but when m1 and m2 nearly coincide the two
    # rounded ones can differ by an ulp the wrong way; this moves such a
    # lower bound by at most its rounding error.
    np.minimum(out[0], out[1], out=out[0])
    return out[0], out[1]


def _soundness_of(X: np.ndarray, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Soundness bound matrices (n, M) of raw-unit patterns X (n, N)."""
    if X.shape[1] != rb.num_features:
        raise DataError(f"input has {X.shape[1]} features but model expects {rb.num_features}")
    if not np.isfinite(X).all():
        raise DataError("input features must be finite (no nan or inf)")
    lower, upper = membership_bounds(rb.normalization.apply(X), rb.prototypes, rb.fuzzifiers)
    return _soundness_bounds(lower, upper, rb._soundness)


# Blocks keep at least this many rows, so that splitting a batch leaves its
# scores' bytes unchanged. With 2 classes, blocks of 300 rows or fewer move
# the (2 * rows, c) @ (c, M) product onto another OpenBLAS kernel (measured
# at 32 to 1024 rules), which changes the last bits of most scores; from
# 384 rows up every split gave the bytes of the unsplit product. More
# classes move the switch to fewer rows.
_MIN_BLOCK_ROWS = 512


def _row_blocks(n: int, c: int) -> list[int]:
    """Edges of the row blocks of an n-pattern batch against c rules.

    A block's (rows, c) arrays hold about BLOCK_ELEMENTS values, but never
    fewer than _MIN_BLOCK_ROWS rows; the batch is split evenly, so block
    lengths differ by at most one row. A batch that fits is one block.
    """
    k = max(1, min(-(-n // max(1, BLOCK_ELEMENTS // c)), n // _MIN_BLOCK_ROWS))
    return [-(-i * n // k) for i in range(k + 1)]


def classify_batch(X, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Classify raw-unit patterns (n, N); returns (predictions, scores).

    Normalization is applied internally; scores are the per-class soundness
    interval midpoints and predictions their row argmax (ties -> lowest
    class index). Rows go through the kernel in blocks (_row_blocks), each
    writing its midpoints into the (n, M) scores, so the (rows, c) arrays
    stay bounded whatever n is. The products run on one BLAS thread (see
    _blas).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    edges = _row_blocks(X.shape[0], rb.num_rules)
    scores = np.empty((X.shape[0], rb.num_classes))
    with one_blas_thread():
        for a, b in zip(edges, edges[1:]):
            y_lower, y_upper = _soundness_of(X[a:b], rb)
            np.add(y_lower, y_upper, out=scores[a:b])
    scores *= 0.5
    return scores.argmax(axis=1), scores


def classify(x, rb: RuleBase) -> ClassificationResult:
    """Classify one raw-unit pattern with full interval detail: row 0 of
    the batch kernel."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("classify expects a single feature vector")
    y_lower, y_upper = _soundness_of(x[None, :], rb)
    lower, upper = y_lower[0].tolist(), y_upper[0].tolist()
    for lo, up in zip(lower, upper):
        if not 0.0 <= lo <= up:
            raise DataError(f"invalid soundness interval [{lo}, {up}]")
    scores = 0.5 * (y_lower[0] + y_upper[0])
    intervals = tuple(map(SoundnessInterval, lower, upper))
    return ClassificationResult(
        predicted=int(scores.argmax()),
        soundness=intervals,
        scores=scores,
        no_rule_fired=not scores.any(),
    )
