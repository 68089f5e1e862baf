"""Interval fuzzy reasoning: classify patterns against a rule base.

One row kernel serves single patterns and batches alike. Per row of raw
features (n, N): normalize -> membership bounds (n, c) to every rule's
prototype under the two fuzzifiers -> association = bounds x the rule's
per-class certainty -> soundness per class = power mean, bound by bound,
over the rules whose upper association is positive (none leaves [0, 0]) ->
decision = argmax of the interval midpoints (ties go to the lowest index).
Non-finite input is refused with DataError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rulebase import RuleBase, membership_bounds


@dataclass(frozen=True)
class SoundnessInterval:
    """Aggregated per-class evidence interval."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise DataError(f"invalid soundness interval [{self.lower}, {self.upper}]")

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
            ratio = np.where(mask & live[:, None], vals / np.where(scale > 0, scale, 1.0)[:, None], 1.0)
            powered = np.where(mask & live[:, None], ratio**p, 0.0)
            out[live] = scale[live] * (powered[live].sum(axis=1) / count[live]) ** (1.0 / p)
    return out


def _soundness_bounds(
    lower: np.ndarray, upper: np.ndarray, certainty: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class soundness bound matrices (n, M) from membership bounds (n, c)."""
    n = lower.shape[0]
    M = certainty.shape[1]
    y_lower = np.zeros((n, M))
    y_upper = np.zeros((n, M))
    for j in range(M):
        r = certainty[:, j][None, :]
        assoc_lower = lower * r
        assoc_upper = upper * r
        firing = assoc_upper > 0.0
        y_lower[:, j] = _power_mean_rows(assoc_lower, firing, p)
        y_upper[:, j] = _power_mean_rows(assoc_upper, firing, p)
    return y_lower, y_upper


def _soundness_of(X: np.ndarray, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Soundness bound matrices (n, M) of raw-unit patterns X (n, N)."""
    if X.shape[1] != rb.num_features:
        raise DataError(f"input has {X.shape[1]} features but model expects {rb.num_features}")
    if not np.isfinite(X).all():
        raise DataError("input features must be finite (no nan or inf)")
    lower, upper = membership_bounds(rb.normalization.apply(X), rb.prototypes, rb.fuzzifiers)
    return _soundness_bounds(lower, upper, rb.certainty, rb.aggregation_p)


def classify_batch(X, rb: RuleBase) -> tuple[np.ndarray, np.ndarray]:
    """Classify raw-unit patterns (n, N); returns (predictions, scores).

    Normalization is applied internally; scores are the per-class soundness
    interval midpoints and predictions their row argmax (ties -> lowest
    class index).
    """
    y_lower, y_upper = _soundness_of(np.atleast_2d(np.asarray(X, dtype=float)), rb)
    scores = 0.5 * (y_lower + y_upper)
    return scores.argmax(axis=1), scores


def classify(x, rb: RuleBase) -> ClassificationResult:
    """Classify one raw-unit pattern with full interval detail: row 0 of
    the batch kernel."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("classify expects a single feature vector")
    y_lower, y_upper = _soundness_of(x[None, :], rb)
    scores = 0.5 * (y_lower[0] + y_upper[0])
    intervals = tuple(
        SoundnessInterval(float(lo), float(up)) for lo, up in zip(y_lower[0], y_upper[0])
    )
    return ClassificationResult(
        predicted=int(scores.argmax()),
        soundness=intervals,
        scores=scores,
        no_rule_fired=bool(np.all(scores == 0.0)),
    )
