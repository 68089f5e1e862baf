"""Rule-base construction for the interval type-2 fuzzy classifier.

Each rule has a single antecedent: an interval type-2 fuzzy set defined by
a cluster prototype. A pattern's membership to prototype k under fuzzifier
m follows the fuzzy-partition form

    mu_k = 1 / sum_q (d_k / d_q)^(2/(m-1)),

where d_k is the Euclidean distance to prototype k, so memberships over
all c prototypes sum to 1. Evaluating with two fuzzifiers m1 and m2 and
taking the pointwise min/max yields the interval [lower_k, upper_k] —
the footprint of uncertainty of the rule's antecedent.

The distance matrix (n, c) of a row block is computed once, and both
fuzzifiers are applied to it. The kernels below take their row block
whole; the row blocks, and the chunks in which subclust._squared_distances
builds a block's differences, follow the one policy stated in subclust's
module docstring. Squared distances past the float range, overflowing to
inf or rounding into subnormals, are recomputed in their block from the
flagged rows' differences, scaled per row, so scaling every feature by one
factor leaves the memberships as they are, and a block of such rows takes
no more memory than an ordinary one.

The rule consequent is a certainty vector over classes, estimated from the
training patterns' interval midpoints, the means of the two partitions.
Their per-class and total sums run block by block and keep the bytes of
one sum over the whole training set (see certainty_degrees).

A RuleBase refuses non-finite prototypes, certainty entries and exponents,
and builds the inference constants that depend on the model alone
(_soundness_constants) once, when it is constructed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, NormalizationParams, _class_indices, _freeze, _write_text
from .errors import ConfigError, DataError, _number
from .subclust import (
    SubclustParams,
    _row_blocks,
    _squared_distances,
    subtractive_cluster,
)

FORMAT_VERSION = 1

_TINY = np.finfo(float).tiny
# Below this a squared distance may have lost bits to subnormal rounding
# (inference also reads it as the floor, per term, of an exact scaled sum).
_SMALL = float(_TINY / np.finfo(float).eps)


class _SoundnessConstants(NamedTuple):
    """The operands of inference._soundness_bounds derived from the model's
    certainty R (c, M) and exponent p, read-only. R+ is R with its negatives
    clipped to 0 (negatives never fire)."""

    firing: np.ndarray  # float (R+ > 0) (c, M), F-ordered
    fired: np.ndarray  # column sums of firing (M,): the count when every upper bound is > 0
    fired_small: np.ndarray  # fired * _SMALL (M,)
    fired_floor: np.ndarray  # max(fired, 1) (M,)
    t: np.ndarray  # column maxima of R+ (M,), at least _TINY
    weights: np.ndarray | None  # (R+ / t)**p (c, M), a transposed view; None: exact path only
    rmin: float  # smallest positive entry of R+ (1 if none)


def _soundness_constants(certainty: np.ndarray, p: float) -> _SoundnessConstants:
    """Build the model-only operands of the soundness kernel once."""
    RT = np.maximum(certainty.T, 0.0, order="C")  # (M, c)
    pos = RT > 0.0
    t = RT.max(axis=1, initial=_TINY)
    # Transposed views of (M, c) arrays: einsum's rounding depends on its
    # operands' layout, so the layout is fixed here.
    firing = pos.T.astype(float)
    # The product's rounding is about c * eps / p relative, so below
    # p = c * eps / 1e-12, and for p < 0 (where (R / t)**p divides by 0),
    # inference computes every firing cell exactly instead.
    product = p * 1e-12 >= RT.shape[1] * np.finfo(float).eps
    weights = ((RT / t[:, None]) ** p).T if product else None
    fired = firing.sum(axis=0)  # sums of 0s and 1s: exact
    fired_small, fired_floor = fired * _SMALL, np.maximum(fired, 1.0)
    for a in (firing, fired, fired_small, fired_floor, t, weights):
        if a is not None:
            a.flags.writeable = False
    return _SoundnessConstants(firing, fired, fired_small, fired_floor, t, weights,
                               RT[pos].min(initial=1.0))


def _check_aggregation_p(p: float) -> None:
    """The aggregation exponent's rule: a finite (_number), non-zero number."""
    if not math.isfinite(_number("aggregation_p", p)):
        raise ConfigError(f"aggregation_p must be finite, got {p!r}")
    if p == 0.0:
        raise ConfigError("aggregation exponent p=0 is not supported")


@dataclass(frozen=True)
class Fuzzifiers:
    """Lower/upper fuzziness exponents (both finite and > 1, m1 <= m2).

    m1 == m2 degenerates to an ordinary type-1 membership (zero-width
    intervals); m1 < m2 opens the footprint of uncertainty.
    """

    m1: float = 1.5
    m2: float = 2.5

    def __post_init__(self):
        for name, m in (("m1", self.m1), ("m2", self.m2)):
            if not math.isfinite(_number(f"fuzzifier {name}", m)):
                raise ConfigError(f"fuzzifier {name} must be finite, got {m!r}")
        if not (self.m1 > 1.0 and self.m2 > 1.0):
            raise ConfigError("fuzzifiers must be greater than 1")
        if self.m1 > self.m2:
            raise ConfigError("m1 must not exceed m2")


@dataclass(frozen=True)
class RuleBase:
    """The persisted model: c prototypes, their certainty vectors, and the
    parameters needed to classify raw patterns (normalization, fuzzifiers,
    aggregation exponent).

    Every field must be finite, the class names distinct, and each source
    class a class index (dataset._class_indices). The soundness kernel's
    model-only operands (_soundness_constants) are built once here and kept
    read-only in ``_soundness``; the fields are frozen, so they cannot go
    stale, and dataclasses.replace rebuilds them.
    """

    prototypes: np.ndarray
    source_classes: np.ndarray
    certainty: np.ndarray
    fuzzifiers: Fuzzifiers
    normalization: NormalizationParams
    class_names: tuple[str, ...]
    aggregation_p: float = 2.0

    def __post_init__(self):
        P = np.asarray(self.prototypes, dtype=float)
        R = np.asarray(self.certainty, dtype=float)
        names = tuple(str(c) for c in self.class_names)
        if len(set(names)) != len(names):
            raise DataError(f"class names must be distinct, got {list(names)}")
        if any("\ud800" <= ch <= "\udfff" for ch in "".join(names)):  # UTF-8 cannot hold it
            raise DataError(f"class names must be UTF-8 text, got {list(names)}")
        if P.ndim != 2 or P.shape[0] < 1:
            raise DataError("prototypes must be a non-empty (c, N) array")
        if np.shape(self.source_classes) != (P.shape[0],):
            raise DataError("one source class per prototype required")
        src = _class_indices("source classes", self.source_classes, len(names))
        if R.shape != (P.shape[0], len(self.class_names)):
            raise DataError("certainty must be a (c, num_classes) matrix")
        if P.shape[1] != self.normalization.num_features:
            raise DataError("prototype dimensionality must match normalization")
        for name, A in (("prototypes", P), ("certainty", R)):
            finite = np.isfinite(A).all(axis=1)
            if not finite.all():
                raise DataError(f"{name} must be finite (rule {int(np.argmin(finite)) + 1})")
        _check_aggregation_p(self.aggregation_p)
        object.__setattr__(self, "prototypes", _freeze(P))
        object.__setattr__(self, "source_classes", _freeze(src))
        object.__setattr__(self, "certainty", _freeze(R))
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "_soundness",
                           _soundness_constants(self.certainty, self.aggregation_p))

    @property
    def num_rules(self) -> int:
        return self.prototypes.shape[0]

    @property
    def num_features(self) -> int:
        return self.prototypes.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _distances(X, prototypes) -> np.ndarray:
    """Euclidean distances of each row of X to each prototype, (n, c).

    Takes X whole, one row block. Its differences are built in chunks, so
    the (rows, c) distances are its largest array. A row past the float
    range comes back divided by a per-row scale (below); only such rows
    have their differences built again.
    """
    X, P = np.asarray(X, dtype=float), np.asarray(prototypes, dtype=float)
    if X.shape[1] != P.shape[1]:
        raise DataError(f"input has {X.shape[1]} features but prototypes have {P.shape[1]}")
    if P.shape[0] == 0:
        raise DataError("need at least one prototype")
    sq = _squared_distances(X, P)
    # A huge finite pattern overflows its squared distances to inf; tiny
    # differences underflow them, so a pattern near several prototypes
    # counts as sitting on them. Such rows are recomputed from differences
    # divided by the row's largest |difference|: the scale cancels in the
    # ratios d_k / d_q, and exact zeros stay zeros. A row whose largest
    # squared distance is at least sqrt(_SMALL) (~1e-146) is kept: its
    # smallest falls below _SMALL only at distance ratios past ~1e73, so
    # rows on a prototype of normalized data are not recomputed, and a block
    # with neither case pays two reductions (an empty one passes).
    if sq.max(initial=0.0) == np.inf or sq.min(initial=np.inf) < _SMALL:
        top = sq.max(axis=1)  # inf where any entry is
        flagged = (top == np.inf) | (sq.min(axis=1) < _SMALL) & (top < _SMALL**0.5)
        if flagged.any():
            sq[flagged] = _squared_distances(X[flagged], P, scaled=True)
    return np.sqrt(sq, out=sq)


def _partitions(d: np.ndarray, m1: float, m2: float, out: np.ndarray) -> np.ndarray:
    """Fuzzy-partition memberships (n, c) from distances d, under m1 and m2.

    Rows sum to 1. A pattern coinciding with t prototypes gets 1/t on each
    of those and 0 elsewhere. The partition under m1 is written into out,
    an (n, c) buffer of the caller's; d is overwritten: it holds the
    ratios, and then the partition under m2, which is returned.
    """
    dmin = d.min(axis=1, keepdims=True)
    # Scale by the row minimum so powers stay <= 1 (no overflow for
    # sharp fuzzifiers / tiny distances). Rows on a prototype take their
    # shares instead, so their ratio is only a placeholder 1. A block
    # without such rows (count_nonzero is the cheapest test) builds no index.
    on = None if np.count_nonzero(dmin) == len(dmin) else (dmin == 0.0).nonzero()[0]
    if on is not None:
        hits = d[on] == 0.0
        shares = hits / hits.sum(axis=1, keepdims=True)
        d[on] = dmin[on] = 1.0
    d /= dmin

    np.power(d, -(2.0 / (m1 - 1.0)), out=out)
    d **= -(2.0 / (m2 - 1.0))
    for mu in (out, d):
        mu /= mu.sum(axis=1, keepdims=True)
        if on is not None:
            mu[on] = shares
    return d


def membership_bounds(X: np.ndarray, prototypes: np.ndarray, fz: Fuzzifiers) -> np.ndarray:
    """Lower/upper membership matrices (n, c) from the two fuzzifiers,
    both applied to one distance matrix, stacked as one (2, n, c) array.

    Inference is its only caller and hands it one row block of
    inference.classify_batch, or the rows of one whose bounds its
    soundness kernel needs again. It takes its n rows whole: past the
    distances while they are built, its memory is three (n, c) arrays (the
    distances, which _partitions turns into the second partition; the
    stacked bounds, whose lower half takes the first partition) and the
    shares of rows on a prototype. A row's bounds do not depend on the
    other rows.
    """
    d = _distances(X, prototypes)
    bounds = np.empty((2, *d.shape))
    lower, upper = bounds[0], bounds[1]  # indexing is cheaper than unpacking at n = 1
    mu2 = _partitions(d, fz.m1, fz.m2, lower)
    np.maximum(lower, mu2, out=upper)
    np.minimum(lower, mu2, out=lower)
    return bounds


def certainty_degrees(train: Dataset, prototypes, fz: Fuzzifiers) -> np.ndarray:
    """Certainty matrix (c, M): per rule, the class shares of the summed
    interval-midpoint memberships over all training patterns.

    min(a, b) + max(a, b) is a + b bit for bit, so the interval's midpoints
    are the means (mu1 + mu2) / 2 of the two partitions, taken in row
    blocks at width c * N. Whatever n is, at most two (rows, c) arrays are
    alive: the buffer below (built after the first block's distances) and
    the distances, with one chunk of their differences while they are
    built. _partitions writes the first partition into the buffer and
    turns the distances into the second, which is added to it, so the
    midpoints are written into the buffer under a leading row holding the
    running sum. A class's sum reduces it
    along axis 0 where the running sum and the class's rows are, the
    totals all of it; numpy adds row by row in order (a masked reduction
    from 0), so the sums are the bytes of one sum over the whole training
    set.
    """
    if len(train) == 0:
        raise DataError("certainty degrees need a non-empty training set")
    P = np.atleast_2d(np.asarray(prototypes, dtype=float))
    c = P.shape[0]
    M = train.num_classes
    per_class = np.zeros((M, c))
    totals = np.zeros(c)
    for s in _row_blocks(len(train), P.size):
        d = _distances(train.features[s], P)
        k = len(d)
        if s.start == 0:  # the first block is the longest
            U = np.empty((k + 1, c))
            rows = np.ones((k + 1, 1), dtype=bool)  # row 0, the running sum, always on
        mid = U[1:k + 1]  # the block's midpoints, under the running sum
        mid += _partitions(d, fz.m1, fz.m2, mid)
        del d  # before the next block's distances are built
        mid *= 0.5
        for j in range(M):
            rows[1:k + 1, 0] = train.labels[s] == j
            U[0] = per_class[j]
            np.add.reduce(U[:k + 1], axis=0, where=rows[:k + 1], out=per_class[j])
        U[0] = totals
        np.add.reduce(U[:k + 1], axis=0, out=totals)

    degenerate = totals <= 0.0
    totals[degenerate] = 1.0
    R = np.divide(per_class.T, totals[:, None], order="C")
    R[degenerate] = 1.0 / M
    return R


def build_rulebase(
    train: Dataset,
    params: SubclustParams | None,
    fz: Fuzzifiers,
    aggregation_p: float,
    normalization: NormalizationParams,
) -> RuleBase:
    """Construct the rule base from a training set in normalized space.

    With ``params`` set, subtractive clustering runs separately on each
    class's patterns and every found center becomes a rule antecedent.
    With ``params=None`` (a single-prototype baseline) each class
    contributes one prototype: the mean of its training patterns.
    Certainty degrees are then estimated jointly over all prototypes.
    """
    counts = train.class_counts()
    for j, cnt in enumerate(counts):
        if cnt == 0:
            raise DataError(f"class {train.class_names[j]!r} has no training patterns")

    centers: list[np.ndarray] = []
    sources: list[int] = []
    for j in range(train.num_classes):
        members = train.features[train.labels == j]
        if params is None:
            found = members.mean(axis=0)[None, :]
        else:
            found = subtractive_cluster(members, params)
        centers.append(found)
        sources.extend([j] * found.shape[0])

    prototypes = np.vstack(centers)
    certainty = certainty_degrees(train, prototypes, fz)
    return RuleBase(
        prototypes=prototypes,
        source_classes=np.array(sources),
        certainty=certainty,
        fuzzifiers=fz,
        normalization=normalization,
        class_names=train.class_names,
        aggregation_p=aggregation_p,
    )


def save_rulebase(rb: RuleBase, path) -> None:
    """Write the model as JSON (floats keep full round-trip precision)."""
    doc = {
        "format": "it2frbc-model",
        "format_version": FORMAT_VERSION,
        "num_classes": rb.num_classes,
        "class_names": list(rb.class_names),
        "fuzzifiers": {"m1": rb.fuzzifiers.m1, "m2": rb.fuzzifiers.m2},
        "aggregation_p": rb.aggregation_p,
        "normalization": {
            "min": rb.normalization.minimum.tolist(),
            "max": rb.normalization.maximum.tolist(),
        },
        "rules": [
            {
                "center": rb.prototypes[k].tolist(),
                "source_class": int(rb.source_classes[k]),
                "certainty": rb.certainty[k].tolist(),
            }
            for k in range(rb.num_rules)
        ],
    }
    _write_text(path, json.dumps(doc, indent=1) + "\n")


def load_rulebase(path) -> RuleBase:
    """Load a model written by save_rulebase; every refusal names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "it2frbc-model":
        raise DataError(f"{path} is not a recognized model file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model format version {doc.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        rules = doc["rules"]
        if not isinstance(doc["class_names"], list):
            raise DataError(f"class_names must be a list, got {doc['class_names']!r}")
        norm = NormalizationParams(
            np.array(doc["normalization"]["min"], dtype=float),
            np.array(doc["normalization"]["max"], dtype=float),
        )
        rb = RuleBase(
            prototypes=np.array([r["center"] for r in rules], dtype=float),
            source_classes=np.array([r["source_class"] for r in rules]),
            certainty=np.array([r["certainty"] for r in rules], dtype=float),
            fuzzifiers=Fuzzifiers(float(doc["fuzzifiers"]["m1"]), float(doc["fuzzifiers"]["m2"])),
            normalization=norm,
            class_names=tuple(doc["class_names"]),
            aggregation_p=float(doc["aggregation_p"]),
        )
        if doc["num_classes"] != rb.num_classes:
            raise DataError("class count mismatch")
    except (KeyError, TypeError, ValueError, ConfigError, DataError) as exc:
        # A value that validation refuses is the file's fault here.
        raise DataError(f"malformed model file {path}: {exc}") from exc
    return rb


def export_rules_text(rb: RuleBase) -> str:
    """Human-readable rules, one line each, centers in original units."""
    lines = []
    for k in range(rb.num_rules):
        center = rb.normalization.invert(rb.prototypes[k])
        coords = ", ".join(f"{v:.6g}" for v in center)
        certainty = ", ".join(
            f"{name}: {val:.3f}" for name, val in zip(rb.class_names, rb.certainty[k])
        )
        source = rb.class_names[int(rb.source_classes[k])]
        lines.append(f"R{k + 1}: IF x is near ({coords}) [from class {source}] THEN ({certainty})")
    return "\n".join(lines) + "\n"
