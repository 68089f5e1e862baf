"""Property-based checks of the classifier invariants."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from it2frbc import (
    ConfigError,
    Dataset,
    ExperimentConfig,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    SplitSpec,
    SubclustParams,
    certainty_degrees,
    classify,
    classify_batch,
    gen_circular,
    initial_potentials,
    split,
    subtractive_cluster,
)
from it2frbc.inference import _soundness_of
from it2frbc.rulebase import membership_bounds
from it2frbc.subclust import _revised

from test_inference import power_means

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)
fuzzifier = st.floats(min_value=1.05, max_value=5.0, allow_nan=False)
exponent = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False).filter(
    lambda p: abs(p) > 0.05
)


@st.composite
def points_and_probe(draw, max_protos=6, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_protos))
    protos = draw(
        st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=c, max_size=c)
    )
    x = draw(st.lists(coord, min_size=dim, max_size=dim))
    return np.array(protos, dtype=float), np.array(x, dtype=float)


@given(points_and_probe(), fuzzifier)
@settings(max_examples=150, deadline=None)
def test_memberships_sum_to_one(pp, m):
    protos, x = pp
    mu = membership_bounds(x[None, :], protos, Fuzzifiers(m, m))[0][0]
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu >= 0.0)


@given(points_and_probe(), fuzzifier, fuzzifier)
@settings(max_examples=150, deadline=None)
def test_interval_ordering(pp, ma, mb):
    protos, x = pp
    lower, upper = membership_bounds(x[None, :], protos, Fuzzifiers(min(ma, mb), max(ma, mb)))
    assert np.all((0.0 <= lower) & (lower <= upper) & (upper <= 1.0))


@given(points_and_probe(), fuzzifier)
@settings(max_examples=100, deadline=None)
def test_equal_fuzzifiers_zero_width(pp, m):
    protos, x = pp
    lower, upper = membership_bounds(x[None, :], protos, Fuzzifiers(m, m))
    assert np.all(upper - lower == 0.0)


@st.composite
def labeled_points(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 15))
    M = draw(st.integers(1, 3))
    feats = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, M - 1), min_size=n, max_size=n))
    return np.array(feats), np.array(labels), M


@given(labeled_points(), points_and_probe(), fuzzifier, fuzzifier)
@settings(max_examples=150, deadline=None)
def test_certainty_simplex(lp, pp, ma, mb):
    feats, labels, M = lp
    protos, _ = pp
    assume(protos.shape[1] == feats.shape[1])
    ds = Dataset(feats, labels, tuple(str(i) for i in range(M)))
    r = certainty_degrees(ds, protos, Fuzzifiers(min(ma, mb), max(ma, mb)))
    assert np.all(r >= 0.0) and np.all(r <= 1.0 + 1e-12)
    assert r.sum(axis=1) == pytest.approx(np.ones(len(protos)), abs=1e-9)


positive_values = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)


@given(positive_values, exponent)
@settings(max_examples=200, deadline=None)
def test_power_mean_bounds(vals, p):
    for got in power_means(vals, p):
        assert min(vals) - 1e-9 <= got <= max(vals) + 1e-9


@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(1, 8), exponent)
@settings(max_examples=100, deadline=None)
def test_power_mean_idempotent(a, n, p):
    for got in power_means([a] * n, p):
        assert got == pytest.approx(a, rel=1e-9)


@given(positive_values, exponent, exponent)
@settings(max_examples=150, deadline=None)
def test_power_mean_monotone_in_p(vals, p1, p2):
    for f_lo, f_hi in zip(power_means(vals, min(p1, p2)), power_means(vals, max(p1, p2))):
        assert f_lo <= f_hi + 1e-9


@given(positive_values, exponent, st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_power_mean_homogeneous(vals, p, lam):
    for direct, base in zip(power_means([lam * v for v in vals], p), power_means(vals, p)):
        assert direct == pytest.approx(lam * base, rel=1e-9)


@given(points_and_probe(max_protos=12), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_revision_never_increases(pp, r_a):
    pts, _ = pp
    params = SubclustParams(r_a)
    field = initial_potentials(pts, params)
    k = int(field.argmax())
    revised, _ = _revised(field, pts, k, params.beta)
    assert np.all(revised <= field + 1e-12)
    assert revised[k] == 0.0


@st.composite
def points_with_duplicates(draw, max_points=12, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1,
                         max_size=max_points))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    order = draw(st.permutations(rows + [rows[i] for i in copies]))
    return np.array(order, dtype=float)


def _accepted(r_a):
    try:
        SubclustParams(r_a)
    except ConfigError:
        return False
    return True


def _last_accepted(inside, outside):
    """The accepted radius next to the rule's edge between an accepted and a
    refused radius: positive floats are ordered as their bit patterns."""
    a, b = (int(np.float64(v).view(np.int64)) for v in (inside, outside))
    while abs(b - a) > 1:
        mid = (a + b) // 2
        if _accepted(float(np.int64(mid).view(np.float64))):
            a = mid
        else:
            b = mid
    return float(np.int64(a).view(np.float64))


# Every radius the parameter rule accepts, about 1.5e-154 to 1.07e154 (alpha
# and beta finite and positive), log-uniform; each end is drawn as it is.
R_MIN, R_MAX = _last_accepted(1.0, 1e-160), _last_accepted(1.0, 1e160)
any_radius = st.one_of(
    st.sampled_from([R_MIN, R_MAX]),
    st.floats(min_value=math.log10(R_MIN), max_value=math.log10(R_MAX)).map(
        lambda e: min(max(10.0**e, R_MIN), R_MAX)),
)


@given(points_with_duplicates(), any_radius, st.floats(min_value=0.0, max_value=0.49))
@settings(max_examples=150, deadline=None)
def test_cluster_centers_are_distinct_input_rows(pts, r_a, reject):
    centers = subtractive_cluster(pts, SubclustParams(r_a, reject_ratio=reject))
    rows = {tuple(r) for r in pts.tolist()}
    found = [tuple(c) for c in centers.tolist()]
    assert 1 <= len(found) <= len(rows)
    assert all(c in rows for c in found)
    assert len(set(found)) == len(found)


@given(st.integers(0, 2**31 - 1), st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_split_partition_properties(seed, frac):
    ds = gen_circular(5)
    a_tr, a_te = split(ds, SplitSpec(frac, seed))
    b_tr, b_te = split(ds, SplitSpec(frac, seed))
    assert np.array_equal(a_tr.features, b_tr.features)
    assert np.array_equal(a_te.features, b_te.features)
    assert len(a_tr) + len(a_te) == len(ds)
    assert abs(len(a_tr) - frac * len(ds)) <= 1.0
    merged = np.vstack([a_tr.features, a_te.features])
    assert np.array_equal(
        np.sort(merged.view([("", float)] * 2), axis=0),
        np.sort(ds.features.view([("", float)] * 2), axis=0),
    )


@st.composite
def random_rulebase(draw, max_rules=4):
    dim = draw(st.integers(1, 3))
    c = draw(st.integers(1, max_rules))
    M = draw(st.integers(2, 3))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    protos = np.array(
        draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=c, max_size=c))
    )
    raw = np.array(
        draw(
            st.lists(
                st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=M, max_size=M),
                min_size=c,
                max_size=c,
            )
        )
    )
    cert = raw / raw.sum(axis=1, keepdims=True)
    ma = draw(fuzzifier)
    mb = draw(fuzzifier)
    p = draw(exponent)
    return RuleBase(
        prototypes=protos,
        source_classes=np.zeros(c, dtype=int),
        certainty=cert,
        fuzzifiers=Fuzzifiers(min(ma, mb), max(ma, mb)),
        normalization=NormalizationParams(np.zeros(dim), np.ones(dim)),
        class_names=tuple(str(i) for i in range(M)),
        aggregation_p=p,
    )


@given(random_rulebase(), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_classify_invariants(rb, raw):
    x = np.array(raw[: rb.num_features])
    res = classify(x, rb)
    assert res.predicted == int(np.argmax(res.scores))
    for j, iv in enumerate(res.soundness):
        assert 0.0 <= iv.lower <= iv.upper
        assert res.scores[j] == pytest.approx(iv.midpoint, abs=1e-15)
    preds, scores = classify_batch(x[None, :], rb)
    assert preds[0] == res.predicted
    assert scores[0] == pytest.approx(res.scores, abs=1e-15)


@given(random_rulebase(max_rules=11), st.integers(0, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_near_equal_fuzzifiers_keep_intervals_ordered(rb, k, seed):
    # m2 within a few ulps of m1: both bounds agree to rounding, and their
    # rounded soundness must still satisfy lower <= upper, for p of either sign.
    m = rb.fuzzifiers.m1
    rb = dataclasses.replace(rb, fuzzifiers=Fuzzifiers(m, m + k * np.finfo(float).eps))
    X = np.random.default_rng(seed).uniform(size=(20, rb.num_features))
    lower, upper = _soundness_of(X, rb)
    assert np.all(lower <= upper)
    for x in X:
        classify(x, rb)


extreme = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@given(random_rulebase(), st.lists(extreme, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_classify_extreme_magnitudes(rb, raw):
    x = np.array(raw[: rb.num_features])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, scores = classify_batch(x[None, :], rb)
    assert np.all(np.isfinite(scores))
    assert np.any(scores > 0.0)


@st.composite
def scaled_training_sets(draw):
    """Patterns on a grid with per-column scales from 2**-20 to 2**20,
    duplicate rows, prototypes on patterns (some repeated) and off them,
    labels, and a factor s = 2**k from about 1e-300 to 1e300, log-uniform.
    A power of two scales every value exactly, so any difference between
    scales comes from the kernel, not from rounding the inputs."""
    dim = draw(st.integers(1, 3))
    cols = 2.0 ** np.array(draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim)))
    row = st.lists(st.integers(-50, 50), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))
    X = np.array(rows + [rows[i] for i in copies], dtype=float) / 8.0 * cols
    picks = draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=5))
    free = np.array(draw(st.lists(row, max_size=2)), dtype=float).reshape(-1, dim) / 8.0 * cols
    protos = np.vstack([X[picks], free])
    M = draw(st.integers(1, 3))
    labels = np.array(draw(st.lists(st.integers(0, M - 1), min_size=len(X), max_size=len(X))))
    s = 2.0 ** draw(st.integers(-996, 996))
    return X, labels, M, protos, s


@given(scaled_training_sets(), fuzzifier, fuzzifier)
@settings(max_examples=200, deadline=None)
def test_scaling_leaves_memberships_and_certainty(data, ma, mb):
    X, labels, M, protos, s = data
    fz = Fuzzifiers(min(ma, mb), max(ma, mb))
    for a, b in zip(membership_bounds(s * X, s * protos, fz), membership_bounds(X, protos, fz)):
        assert a == pytest.approx(b, rel=0, abs=1e-12)
    names = tuple(str(i) for i in range(M))
    R_s = certainty_degrees(Dataset(s * X, labels, names), s * protos, fz)
    R = certainty_degrees(Dataset(X, labels, names), protos, fz)
    assert R_s == pytest.approx(R, rel=0, abs=1e-12)


# Degenerate fuzzifiers and extreme exponents: m within a few ulps of 1 or
# up to 1e300, m1 == m2, and |p| from 1e-300 to 1e300, all log-uniform.
near_one = st.integers(1, 8).map(lambda k: 1.0 + k * np.finfo(float).eps)
edge_fuzzifier = st.one_of(near_one, st.floats(min_value=1e-3, max_value=300.0).map(
    lambda e: 10.0**e))
edge_fuzzifiers = st.one_of(
    edge_fuzzifier.map(lambda m: Fuzzifiers(m, m)),
    st.tuples(edge_fuzzifier, edge_fuzzifier).map(lambda ms: Fuzzifiers(*sorted(ms))))
edge_exponent = st.tuples(st.sampled_from([-1.0, 1.0]),
                          st.floats(min_value=-300.0, max_value=300.0)).map(
    lambda sp: sp[0] * 10.0 ** sp[1])


@given(random_rulebase(max_rules=6), edge_fuzzifiers, edge_exponent,
       st.lists(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_degenerate_fuzzifiers_and_extreme_exponents(rb, fz, p, rows):
    rb = dataclasses.replace(rb, fuzzifiers=fz, aggregation_p=p)
    X = np.vstack([np.array(rows)[:, :rb.num_features], rb.prototypes[:1]])  # one on a rule
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, scores = classify_batch(X, rb)
        lower, upper = _soundness_of(X, rb)
        singles = [classify(x, rb).scores for x in X]
    assert np.all((0.0 <= lower) & (lower <= upper) & (upper <= 1.0))
    assert np.all((0.0 <= scores) & (scores <= 1.0))
    for single, row in zip(singles, scores):
        assert np.array_equal(single, row)


# Each numeric setting, as (type, the other arguments it needs, field).
NUMERIC_FIELDS = [
    *((SubclustParams, {"r_a": 0.5}, f) for f in ("r_a", "rb_ratio", "accept_ratio",
                                                  "reject_ratio")),
    *((Fuzzifiers, {}, f) for f in ("m1", "m2")),
    *((SplitSpec, {}, f) for f in ("train_fraction", "seed")),
    *((ExperimentConfig, {"generator": "circular"}, f) for f in (
        "label_column", "runs", "train_fraction", "master_seed", "aggregation_p")),
]
# Values no numeric setting takes: every one of them must be finite.
not_a_number = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.text(max_size=4),
    st.sampled_from(["0.5", "2"]), st.none(), st.lists(st.floats(0.1, 0.9), max_size=2),
    st.sampled_from([10**400, -10**400, math.nan, math.inf, -math.inf]))


@given(st.sampled_from(NUMERIC_FIELDS), not_a_number)
@settings(max_examples=300, deadline=None)
def test_settings_refuse_what_is_not_a_number(setting, value):
    make, others, name = setting
    with pytest.raises(ConfigError):
        make(**{**others, name: value})
