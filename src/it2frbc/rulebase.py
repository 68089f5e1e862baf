"""Rule-base construction for the interval type-2 fuzzy classifier.

Each rule has a single antecedent: an interval type-2 fuzzy set defined by
a cluster prototype. A pattern's membership to prototype k under fuzzifier
m follows the fuzzy-partition form

    mu_k = 1 / sum_q (d_k / d_q)^(2/(m-1)),

where d_k is the Euclidean distance to prototype k, so memberships over
all c prototypes sum to 1. Evaluating with two fuzzifiers m1 and m2 and
taking the pointwise min/max yields the interval [lower_k, upper_k] —
the footprint of uncertainty of the rule's antecedent.

The distance matrix (n, c) is computed once per call, over the row
blocks of subclust._row_blocks, and both fuzzifiers are applied to it.
Each block's (rows, c, N) differences come from subclust._differences,
the one implementation, shared with the potential field: repeated rows
minus the prototypes in one contiguous pass, for the one row of a
classify() call too. Squared distances past the float range, overflowing
to inf or rounding into subnormals, are recomputed in their block from
those differences, scaled per row, so scaling every feature by one factor
leaves the memberships as they are. The callers of membership_bounds
hand it one row block at a time, so neither training nor inference memory
grows with the number of patterns.

The rule consequent is a certainty vector over classes, estimated from the
training patterns' interval-midpoint memberships. Their per-class and
total sums run block by block and keep the bytes of one sum over the
whole training set (see certainty_degrees).

A RuleBase refuses non-finite prototypes, certainty entries and exponents,
and builds the inference constants that depend on the model alone
(_soundness_constants) once, when it is constructed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, NormalizationParams, _freeze
from .errors import ConfigError, DataError
from .subclust import SubclustParams, _differences, _row_blocks, subtractive_cluster

FORMAT_VERSION = 1

_TINY = np.finfo(float).tiny
# Below this a squared distance may have lost bits to subnormal rounding
# (inference also reads it as the floor, per term, of an exact scaled sum).
_SMALL = float(_TINY / np.finfo(float).eps)


class _SoundnessConstants(NamedTuple):
    """The operands of inference._soundness_bounds that depend only on the
    model, read-only. R is the certainty (c, M), R+ its negatives clipped to
    0 (negatives never fire)."""

    certainty: np.ndarray  # R (c, M), for the exact path
    p: float
    firing: np.ndarray  # float (R+ > 0) (c, M), F-ordered
    fired: np.ndarray  # column sums of firing (M,): the count when every upper bound is > 0
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
    for a in (firing, fired, t, weights):
        if a is not None:
            a.flags.writeable = False
    return _SoundnessConstants(certainty, p, firing, fired, t, weights, RT[pos].min(initial=1.0))


def _check_aggregation_p(p: float) -> None:
    """The aggregation exponent's rule: finite and non-zero."""
    if not np.isfinite(p):
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
            if not np.isfinite(m):
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

    Every field must be finite, and each source class an integer in
    0..num_classes-1. The soundness kernel's model-only operands
    (_soundness_constants) are built once here and kept read-only in
    ``_soundness``; the fields are frozen, so they cannot go stale, and
    dataclasses.replace rebuilds them.
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
        src = np.asarray(self.source_classes)
        R = np.asarray(self.certainty, dtype=float)
        if P.ndim != 2 or P.shape[0] < 1:
            raise DataError("prototypes must be a non-empty (c, N) array")
        if src.shape != (P.shape[0],):
            raise DataError("one source class per prototype required")
        whole = src.dtype.kind in "iu" or src.dtype.kind == "f" and (src == np.trunc(src)).all()
        if not (whole and 0 <= src.min() <= src.max() < len(self.class_names)):
            raise DataError(f"source classes must be integers in 0..{len(self.class_names) - 1}")
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
        object.__setattr__(self, "source_classes", _freeze(src.astype(np.int64)))
        object.__setattr__(self, "certainty", _freeze(R))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))
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

    Computed over the row blocks of subclust._row_blocks at width c * N. A
    row past the float range comes back divided by a per-row scale (below).
    """
    X, P = np.asarray(X, dtype=float), np.asarray(prototypes, dtype=float)
    if X.ndim < 2 or P.ndim < 2:
        X, P = np.atleast_2d(X, P)
    if X.shape[1] != P.shape[1]:
        raise DataError(f"input has {X.shape[1]} features but prototypes have {P.shape[1]}")
    if P.shape[0] == 0:
        raise DataError("need at least one prototype")
    d = np.empty((X.shape[0], P.shape[0]))
    for s in _row_blocks(X.shape[0], P.size):
        diff = _differences(X[s], P)
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        # A huge finite pattern overflows its squared distances to inf; tiny
        # differences underflow them, so a pattern near several prototypes
        # counts as sitting on them. Such rows are recomputed from
        # differences divided by the row's largest |difference|: the scale
        # cancels in the ratios d_k / d_q, and exact zeros stay zeros. A row
        # whose largest squared distance is at least sqrt(_SMALL) (~1e-146)
        # is kept: its smallest falls below _SMALL only at distance ratios
        # past ~1e73, so rows on a prototype of normalized data are not
        # recomputed, and a block with neither case pays two reductions.
        if sq.max() == np.inf or sq.min() < _SMALL:
            top = sq.max(axis=1)  # inf where any entry is
            flagged = (top == np.inf) | (sq.min(axis=1) < _SMALL) & (top < _SMALL**0.5)
            if flagged.any():
                diff = diff[flagged]
                scale = np.abs(diff).max(axis=(1, 2), initial=0.0)
                scale[scale == 0.0] = 1.0  # a row on every prototype keeps its zeros
                diff /= scale[:, None, None]
                sq[flagged] = np.einsum("ijk,ijk->ij", diff, diff)
        np.sqrt(sq, out=d[s])
        del diff  # before the next block's differences are built
    return d


def _partitions(d: np.ndarray, m1: float, m2: float) -> tuple[np.ndarray, np.ndarray]:
    """Fuzzy-partition memberships (n, c) from distances d, under m1 and m2.

    Rows sum to 1. A pattern coinciding with t prototypes gets 1/t on each
    of those and 0 elsewhere. d is overwritten: it holds the ratios, and
    then the memberships under m2.
    """
    dmin = d.min(axis=1, keepdims=True)
    # Scale by the row minimum so powers stay <= 1 (no overflow for
    # sharp fuzzifiers / tiny distances). Rows on a prototype take their
    # shares instead, so their ratio is only a placeholder 1.
    on = (dmin == 0.0).nonzero()[0]
    if len(on):
        hits = d[on] == 0.0
        shares = hits / hits.sum(axis=1, keepdims=True)
        d[on] = dmin[on] = 1.0
    d /= dmin

    mu1 = d ** -(2.0 / (m1 - 1.0))
    d **= -(2.0 / (m2 - 1.0))
    for mu in (mu1, d):
        mu /= mu.sum(axis=1, keepdims=True)
        if len(on):
            mu[on] = shares
    return mu1, d


def membership_bounds(
    X: np.ndarray, prototypes: np.ndarray, fz: Fuzzifiers
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper membership matrices (n, c) from the two fuzzifiers,
    both applied to one distance matrix.

    Callers hand it one row block, subclust._row_blocks at width c:
    inference.classify_batch per block of patterns, certainty_degrees per
    block of the training set. It does not split n itself, so its memory is
    linear in n x c: at most three (n, c) arrays (the distances, which
    _partitions turns into the second partition and then the upper bound;
    the first partition; the lower bound), the shares of rows on a
    prototype, and one difference block while the distances are built.
    """
    mu1, mu2 = _partitions(_distances(X, prototypes), fz.m1, fz.m2)
    return np.minimum(mu1, mu2), np.maximum(mu1, mu2, out=mu2)


def certainty_degrees(train: Dataset, prototypes, fz: Fuzzifiers) -> np.ndarray:
    """Certainty matrix (c, M): per rule, the class shares of the summed
    interval-midpoint memberships over all training patterns.

    The training set goes through membership_bounds in the row blocks of
    subclust._row_blocks at width c, so whatever n is, at most four
    (rows, c) arrays are alive: one block's bounds and the buffer below.
    The lower bound takes the block's midpoints in place, and they are
    written under a leading row holding the running sum. That buffer is
    reduced along axis 0, which numpy adds row by row in order: the sums
    are the bytes of one sum over the whole training set.
    """
    if len(train) == 0:
        raise DataError("certainty degrees need a non-empty training set")
    P = np.atleast_2d(np.asarray(prototypes, dtype=float))
    c = P.shape[0]
    M = train.num_classes
    per_class = np.zeros((M, c))
    totals = np.zeros(c)
    for s in _row_blocks(len(train), c):
        mid, upper = membership_bounds(train.features[s], P, fz)
        mid += upper
        del upper
        mid *= 0.5
        k = len(mid)
        if s.start == 0:  # after the first bounds: a one-block set peaks as membership_bounds does
            U = np.empty((k + 1, c))
        labels = train.labels[s]
        for j in range(M):
            mask = labels == j
            kj = int(np.count_nonzero(mask))
            U[0] = per_class[j]
            np.compress(mask, mid, axis=0, out=U[1:kj + 1])
            np.add.reduce(U[:kj + 1], axis=0, out=per_class[j])
        U[0] = totals
        U[1:k + 1] = mid
        np.add.reduce(U[:k + 1], axis=0, out=totals)
        del mid  # before the next block's bounds are built

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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_rulebase(path) -> RuleBase:
    """Load a model written by save_rulebase; every refusal names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
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
