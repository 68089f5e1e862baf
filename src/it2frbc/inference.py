"""Interval fuzzy reasoning: classify patterns against a rule base.

One row kernel serves single patterns and batches alike. Per row of raw
features (n, N): normalize -> membership bounds (n, c) to every rule's
prototype under the two fuzzifiers -> association = bounds x the rule's
per-class certainty -> soundness per class = power mean, bound by bound,
over the rules whose upper association is positive (none leaves [0, 0]) ->
decision = argmax of the interval midpoints (ties go to the lowest index).
_soundness_bounds takes the soundness as one scaled product for p > 0 and
recomputes the cells it cannot give exactly, and every cell for p < 0, with
_power_mean_rows. The product scales and raises the stacked membership
bounds in place, so a block holds no copy of them. Its operands that
depend on the model alone are built once, with the model. Its sums are
np.einsum, which makes no BLAS call, so a pattern scores the same bytes in
any batch and in classify, which is row 0 of the kernel. classify_batch
cuts the batch into row blocks, which the kernel takes whole (subclust's
module docstring states the policy). NormalizationParams.apply refuses
non-finite input with DataError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rulebase import _SMALL, _TINY, RuleBase, membership_bounds
from .subclust import _row_blocks


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

    Tends to the row min as p -> -inf, the max as p -> +inf and the
    geometric mean as p -> 0. Each row is scaled by its max (p > 0) or min
    (p < 0), d = a / scale, and the mean is taken as
    scale * exp(log1p(mean(expm1(p * log d))) / p), which stays exact as
    |p| -> 0, where mean(d^p) would round to 1. A row whose scale is 0
    gives 0: all its entries are 0 (p > 0), or for p < 0 a zero entry
    forces the limit 0. p = 0 is refused where the model is built
    (RuleBase).
    """
    out = np.zeros(vals.shape[0])
    count = mask.sum(axis=1)
    if p > 0:
        scale = np.max(vals, axis=1, where=mask, initial=0.0)
    else:
        scale = np.min(vals, axis=1, where=mask, initial=np.inf)
    live = (count > 0) & (scale > 0.0)
    if live.any():
        # Below |p| = 1e-30 the power mean is the geometric mean to rounding
        # (their ratio is about exp(p * var(log d) / 2), and |log d| < 746),
        # so p is held there, which keeps p * log d clear of subnormals.
        q = np.copysign(max(abs(p), 1e-30), p)
        if not live.all():
            vals, mask, scale, count = vals[live], mask[live], scale[live], count[live]
        # A zero ratio (p > 0) has log -inf and d^p = 0, its limit; q * log d
        # past the float range gives the same limits. One array holds the
        # ratios, their logs and the terms.
        with np.errstate(divide="ignore", over="ignore"):
            log_d = vals / scale[:, None]
            np.copyto(log_d, 1.0, where=~mask)
            np.log(log_d, out=log_d)
            # A ratio past the float range (p < 0) takes a difference of logs.
            r, k = np.nonzero(np.isposinf(log_d))
            log_d[r, k] = np.log(vals[r, k]) - np.log(scale[r])
            log_d *= q
            mean = np.expm1(log_d, out=log_d).sum(axis=1) / count
        # In logs, since the mean over a subnormal scale can pass the float range.
        out[live] = np.exp(np.log(scale) + np.log1p(mean) / q)
    return out


def _soundness_bounds(bounds: np.ndarray, X: np.ndarray, rb: RuleBase
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-class soundness bound matrices (n, M) from the stacked membership
    bounds 0 <= lower <= upper <= 1 (2, n, c) that membership_bounds gives
    for the normalized patterns X (n, N) under the model rb: its certainty
    degrees R in [0, 1] (c, M), its exponent p and the constants built
    from them (rulebase._soundness_constants). The bounds are overwritten.

    Rule k fires for class j when upper_k * R_kj > 0, and each bound's
    soundness is the power mean of bound_k * R_kj over the firing rules.
    Where the model has product weights (p > 0 and not too small, see
    rulebase._soundness_constants) both bounds come from one product over
    the rows of the stacked bounds B = [lower; upper] (2, n, c), with no
    loop over classes:

        S_ij = sum_k (B_ik / s_i)**p (R_kj / t_j)**p,
        count_ij = sum_k (upper_ik > 0) (R_kj > 0),
        soundness = s * t * (S / count)**(1/p)   (0 where count is 0),

    where s is the row max of B and t the column max of R, so every scaled
    term is at most 1 and the sum cannot overflow. Everything that depends
    on R and p alone (the float (R > 0) and its column sums, t, (R / t)**p
    and the smallest positive R) comes from the constants, built once per
    model. The cells the product cannot give exactly are recomputed by
    _power_mean_rows, each as a row of its own:
      - a scaled sum below count * _SMALL, where underflowed terms could
        matter (large p), or a scale s * t below the smallest normal float;
      - every cell of a row where some upper_k * R_kj of positive factors
        can round to 0, since firing is decided on that product.
    B is scaled and raised to p in place (einsum sums each cell of the
    (2, n, c) operand as it would over its (2n, c) rows); the firing mask,
    built only when some upper bound is 0, and the smallest firing upper
    bound, which tells whether any firing product can round to 0, are
    taken before that. So the only (n, c) arrays are the bounds
    and that mask. The product path's exact cells take their rows' bounds
    again from membership_bounds on those rows of X (a row's bounds do not
    depend on its batch, so they are the same bytes). The exact cells, up
    to 2M a row, are gathered as one (cells, c) array, which
    classify_batch's block width counts. Without product weights every
    cell with a firing rule takes the exact path, on the bounds as given.
    """
    consts = rb._soundness
    upper = bounds[1]
    n, M, p = upper.shape[0], rb.certainty.shape[1], rb.aggregation_p
    # Both products are np.einsum sums, which make no BLAS call, so a row's
    # bounds do not depend on the other rows. When every upper bound is
    # positive, each rule fires wherever its certainty does: the count is
    # the model's (M,) firing count. Otherwise the firing mask is written
    # as floats, the dtype of the product.
    smallest = upper.min(initial=np.inf)
    if smallest > 0.0:
        count, least, divisor = consts.fired, consts.fired_small, consts.fired_floor
    else:
        count = np.einsum("ik,kj->ij", np.greater(upper, 0.0, out=np.empty_like(upper)),
                          consts.firing)
        least, divisor = count * _SMALL, np.maximum(count, 1.0)
    if consts.weights is not None:
        # Firing is decided on upper * R: when a positive product of
        # positive factors can round to 0, those rows need the exact test.
        # upper * rmin is monotone in upper, so the smallest firing bound
        # alone tells whether any such product rounds to 0. Bounds are
        # >= 0, so it is the smallest bound unless that one is 0.
        if smallest == 0.0:
            smallest = np.min(upper, where=upper > 0.0, initial=np.inf)
        rounding = None
        if smallest * consts.rmin == 0.0:
            rounding = (upper * consts.rmin == 0.0).any(axis=1, where=upper > 0.0)
        s = bounds.max(axis=2, initial=_TINY, keepdims=True)
        bounds /= s
        bounds **= p
        S = np.einsum("hik,kj->hij", bounds, consts.weights)
        st = s * consts.t
        # Each term of a scaled sum that underflows is off by less than
        # _TINY, so a sum of count terms above count * _SMALL is exact to
        # rounding.
        fine = (S > least) & (st >= _TINY)
        if rounding is not None:
            fine &= ~rounding[:, None]
        # Cells that are not fine hold S / count * s * t, which is 0 where
        # no rule fires and is recomputed everywhere else.
        out = S / divisor
        np.power(out, 1.0 / p, out=out, where=fine)
        out *= st
        redo = None if fine.all() else (count > 0.0) & ~fine
    else:
        out = np.zeros((2, n, M))
        redo = np.broadcast_to(count > 0.0, out.shape)
    if redo is not None:
        h, i, j = np.nonzero(redo)
        if h.size:  # cells that are not fine may fire no rule
            at = i  # the cells' rows in bounds
            if consts.weights is not None:  # the product overwrote them: take these rows again
                rows, at = np.unique(i, return_inverse=True)
                bounds = membership_bounds(X[rows], rb.prototypes, rb.fuzzifiers)
            # Firing is decided on upper * R; then the lower-bound cells,
            # which come first (h is sorted), take lower * R in their place.
            r = rb.certainty[:, j].T
            vals = bounds[1][at]
            vals *= r
            fires = vals > 0.0
            k = np.searchsorted(h, 1)
            vals[:k] = bounds[0][at[:k]]
            vals[:k] *= r[:k]
            del r  # before _power_mean_rows builds its array
            out[h, i, j] = _power_mean_rows(vals, fires, p)
    # The true bounds are ordered, but when m1 and m2 nearly coincide the two
    # rounded ones can differ by an ulp the wrong way; this moves such a
    # lower bound by at most its rounding error.
    np.minimum(out[0], out[1], out=out[0])
    return out[0], out[1]


def _soundness_of(X: np.ndarray, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Soundness bound matrices (n, M) of raw-unit patterns X (n, N)."""
    X = rb.normalization.apply(X)
    return _soundness_bounds(membership_bounds(X, rb.prototypes, rb.fuzzifiers), X, rb)


def _block_width(rb: RuleBase) -> int:
    """The width c * max(N, 2M) at which classify_batch cuts its rows: a
    row adds up to 2M gathered rows of c values at the exact cells."""
    return rb.num_rules * max(rb.num_features, 2 * rb.num_classes)


def classify_batch(X, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Classify raw-unit patterns (n, N); returns (predictions, scores).

    Normalization is applied internally; scores are the per-class soundness
    interval midpoints and predictions their row argmax (ties -> lowest
    class index). The rows are cut here, once, in row blocks at
    _block_width(rb). The kernel takes each block whole and writes its
    midpoints into the (n, M) scores, so memory stays bounded whatever n
    is. A row's scores do not depend on the block it falls in.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, M = X.shape[0], rb.num_classes
    scores = np.empty((n, M))
    # An empty batch still takes one (empty) block, so its input is checked.
    for s in _row_blocks(max(n, 1), _block_width(rb)):
        y_lower, y_upper = _soundness_of(X[s], rb)
        np.add(y_lower, y_upper, out=scores[s])
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
    # The batch's float operations on M Python floats: the same bytes, and
    # max/index pick the lowest index on ties, as argmax does.
    scores = [(lo + up) * 0.5 for lo, up in zip(lower, upper)]
    return ClassificationResult(
        predicted=scores.index(max(scores)),
        soundness=tuple(map(SoundnessInterval, lower, upper)),
        scores=scores,
        no_rule_fired=not any(scores),
    )
