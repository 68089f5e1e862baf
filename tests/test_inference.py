import dataclasses
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from it2frbc import (
    ConfigError,
    DataError,
    Dataset,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    certainty_degrees,
    classify,
    classify_batch,
    load_rulebase,
    save_rulebase,
)
from it2frbc import inference, rulebase, subclust
from it2frbc.inference import _power_mean_rows
from it2frbc.rulebase import _soundness_constants, membership_bounds

from frm_reference import power_mean as ref_power_mean
from frm_reference import predict as ref_predict

MU_M15 = (16.0 / 17.0, 1.0 / 17.0)
MU_M25 = (0.71589634658334991, 0.28410365341665009)


def make_rulebase(prototypes, certainty, m1=1.5, m2=2.5, p=2.0, norm=None):
    prototypes = np.asarray(prototypes, dtype=float)
    certainty = np.asarray(certainty, dtype=float)
    n_features = prototypes.shape[1]
    if norm is None:
        norm = NormalizationParams(np.zeros(n_features), np.ones(n_features))
    names = tuple(str(j) for j in range(certainty.shape[1]))
    return RuleBase(
        prototypes=prototypes,
        source_classes=np.zeros(prototypes.shape[0], dtype=int),
        certainty=certainty,
        fuzzifiers=Fuzzifiers(m1, m2),
        normalization=norm,
        class_names=names,
        aggregation_p=p,
    )


TWO_RULE_RB = make_rulebase(
    [[0.0, 0.0], [0.75, 0.0]],  # probe at (0.25, 0) has distances (1,2)/4
    [[0.9, 0.1], [0.2, 0.8]],
)
PROBE = np.array([0.25, 0.0])


def soundness(lower, upper, certainty, p):
    """The soundness kernel on constants built by the model's own helper,
    over a stacked copy of the given bounds. The kernel overwrites them and
    takes the rows its exact cells need again from membership_bounds; here
    the patterns are the row numbers, and those rows come from a second copy."""
    bounds = np.stack((lower, upper)).astype(float)
    kept = bounds.copy()
    model = SimpleNamespace(_soundness=_soundness_constants(np.asarray(certainty, dtype=float), p),
                            prototypes=kept, fuzzifiers=None)
    with mock.patch.object(inference, "membership_bounds", lambda rows, kept, _: kept[:, rows]):
        return inference._soundness_bounds(bounds, np.arange(bounds.shape[1]), model)


def matching(x, rb):
    """Membership bounds (c,) of one normalized pattern to each rule."""
    x = np.asarray(x, dtype=float)
    lower, upper = membership_bounds(x[None, :], rb.prototypes, rb.fuzzifiers)
    return lower[0], upper[0]


def association(lower, upper, certainty, k, p=2.0):
    """Association bounds (M,) of rule k alone: the power mean of a single
    firing value is that value, so the kernel returns the product itself."""
    y_lower, y_upper = soundness(
        np.array([[lower[k]]]), np.array([[upper[k]]]), certainty[[k]], p
    )
    return y_lower[0], y_upper[0]


class TestMatchingDegree:
    def test_at_prototype(self):
        lower, upper = matching([0.0, 0.0], TWO_RULE_RB)
        assert (lower[0], upper[0]) == (1.0, 1.0)
        assert (lower[1], upper[1]) == (0.0, 0.0)

    def test_equidistant(self):
        rb = make_rulebase([[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]])
        for bound in matching([0.5], rb):
            assert bound == pytest.approx([0.5, 0.5])

    def test_worked_example(self):
        lower, upper = matching(PROBE, TWO_RULE_RB)
        assert lower[0] == pytest.approx(MU_M25[0], abs=1e-15)
        assert upper[0] == pytest.approx(MU_M15[0], abs=1e-15)


class TestAssociationDegrees:
    def test_zero_certainty(self):
        rb = make_rulebase([[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]])
        lower, upper = association(*matching([0.3], rb), rb.certainty, 0)
        assert lower[1] == upper[1] == 0.0

    def test_product(self):
        rb = make_rulebase([[0.0]], [[0.6]])
        lower, upper = association([0.5], [1.0], rb.certainty, 0)
        assert lower[0] == pytest.approx(0.30)
        assert upper[0] == pytest.approx(0.60)

    def test_worked_two_by_two(self):
        m_lower, m_upper = matching(PROBE, TWO_RULE_RB)
        r = TWO_RULE_RB.certainty
        for k in range(2):
            lower, upper = association(m_lower, m_upper, r, k)
            for j in range(2):
                assert lower[j] == pytest.approx(m_lower[k] * r[k, j], abs=1e-15)
                assert upper[j] == pytest.approx(m_upper[k] * r[k, j], abs=1e-15)


def power_means(vals, p):
    """The kernel's power mean of vals, computed twice: as a one-row input,
    and as the middle row of three whose other entries are masked out (a
    masked 0 and 7 on either side, an empty row and an unrelated row)."""
    vals = np.asarray(vals, dtype=float)
    s = vals.size
    one_row = _power_mean_rows(vals[None, :], np.ones((1, s), dtype=bool), p)[0]
    batch = np.full((3, s + 2), 7.0)
    batch[1, 0] = 0.0
    batch[1, 1:-1] = vals
    mask = np.zeros(batch.shape, dtype=bool)
    mask[1, 1:-1] = True
    mask[2] = True
    batch_rows = _power_mean_rows(batch, mask, p)
    assert batch_rows[0] == 0.0
    return one_row, batch_rows[1]


def geometric_mean(vals):
    """The p -> 0 limit of the power mean, one value at a time."""
    return math.exp(sum(math.log(float(v)) for v in vals) / len(vals))


class TestQuasiarithmeticMean:
    def test_idempotent(self):
        for p in (-3.0, -1.0, 0.5, 1.0, 2.0, 7.0):
            for got in power_means([0.37, 0.37, 0.37], p):
                assert got == pytest.approx(0.37)

    def test_arithmetic(self):
        for got in power_means([0.2, 0.8], 1.0):
            assert got == pytest.approx(0.5)

    def test_quadratic(self):
        for got in power_means([0.2, 0.8], 2.0):
            assert got == pytest.approx(0.58309518948453005, abs=1e-15)

    def test_limits(self):
        # The (1/s)^(1/p) factor biases the mean away from the extreme by
        # about max*ln(s)/|p|, so the 1e-3 window at p=+-50 needs
        # small-magnitude values.
        vals = [0.01, 0.02]
        for got in power_means(vals, -50.0):
            assert got == pytest.approx(0.01, abs=1e-3)
        for got in power_means(vals, 50.0):
            assert got == pytest.approx(0.02, abs=1e-3)

    def test_converges_to_extremes(self):
        vals = [0.21, 0.5, 0.93]
        for form in range(2):
            lo = [power_means(vals, p)[form] for p in (-10.0, -50.0, -400.0, -1e300)]
            hi = [power_means(vals, p)[form] for p in (10.0, 50.0, 400.0, 1e300)]
            assert all(a >= b for a, b in zip(lo, lo[1:]))
            assert all(a <= b for a, b in zip(hi, hi[1:]))
            assert lo[-1] == pytest.approx(0.21, rel=5e-3)
            assert hi[-1] == pytest.approx(0.93, rel=5e-3)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            vals = rng.uniform(0.01, 1.0, size=rng.integers(1, 6))
            p = float(rng.uniform(-4, 4)) or 1.0
            for got in power_means(vals, p):
                assert vals.min() - 1e-12 <= got <= vals.max() + 1e-12

    def test_monotone_in_p(self):
        vals = [0.2, 0.5, 0.9]
        for form in range(2):
            results = [power_means(vals, p)[form] for p in (-5, -1, 0.5, 1, 2, 5)]
            assert all(a <= b + 1e-12 for a, b in zip(results, results[1:]))

    @pytest.mark.parametrize("p", [1e-16, -1e-16, 1e-200, -1e-200, 1e-320, -1e-320])
    def test_tiny_p_is_the_geometric_mean(self, p):
        # (mean a^p)^(1/p) rounds every a^p to 1 here and gave the max or min.
        for vals in ([0.2, 0.8], [0.21, 0.5, 0.93, 0.013, 1e-30]):
            for got in power_means(vals, p):
                assert got == pytest.approx(geometric_mean(vals), rel=1e-12, abs=0.0)

    def test_zero_value_negative_p(self):
        assert power_means([0.0, 0.5], -2.0) == (0.0, 0.0)

    def test_subnormal_value_negative_p(self):
        # 1.0 / 1e-320 overflows; at p = -2 the power of that ratio is 0, so
        # the mean is 1e-320 * 2**0.5, with no RuntimeWarning. At small |p|
        # the power is not 0 (0.48 at p = -1e-3); taking it as 0 gave 1e-19
        # there. The mean's ratio to 1e-320 can also pass the float range:
        # the last case gave inf.
        pair, many = [1e-320, 1.0], [1e-320] + [1.0] * 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vals, p, want, rel in ((pair, -2.0, 1e-320 * 2**0.5, 1e-3),
                                       (pair, -1e-3, ref_power_mean(pair, -1e-3), 1e-10),
                                       (pair, -1e-200, geometric_mean(pair), 1e-12),
                                       (many, -1e-200, geometric_mean(many), 1e-12)):
                for got in power_means(vals, p):
                    assert got == pytest.approx(want, rel=rel, abs=0.0)

    def test_rejects_p_zero(self):
        with pytest.raises(ConfigError):
            make_rulebase([[0.0]], [[1.0]], p=0.0)


class TestSoundness:
    def test_all_zero_class(self):
        lower, upper = soundness(
            np.array([[0.1]]), np.array([[0.2]]), np.array([[0.0, 1.0]]), 2.0
        )
        assert (lower[0, 0], upper[0, 0]) == (0.0, 0.0)
        assert upper[0, 1] > 0

    def test_single_rule_idempotent(self):
        lower, upper = soundness(np.array([[0.3]]), np.array([[0.6]]), np.ones((1, 1)), 2.0)
        assert lower[0, 0] == pytest.approx(0.3)
        assert upper[0, 0] == pytest.approx(0.6)

    def test_two_rules_arithmetic(self):
        lower, upper = soundness(
            np.array([[0.2, 0.8]]), np.array([[0.4, 1.0]]), np.ones((2, 1)), 1.0
        )
        assert lower[0, 0] == pytest.approx(0.5)
        assert upper[0, 0] == pytest.approx(0.7)

    def test_qualifies_on_upper_bound(self):
        # lower bound 0 must not drop the rule when its upper bound fires
        lower, upper = soundness(
            np.array([[0.0, 0.2]]), np.array([[0.4, 0.5]]), np.ones((2, 1)), 2.0
        )
        assert lower[0, 0] == pytest.approx(np.sqrt((0.0 + 0.04) / 2))
        assert upper[0, 0] == pytest.approx(np.sqrt((0.16 + 0.25) / 2))

    @pytest.mark.parametrize("p", [1e-16, -1e-16, 1e-200, -1e-200])
    def test_tiny_p_scores_are_geometric_means(self, p):
        rng = np.random.default_rng(24)
        rb = make_rulebase(rng.uniform(size=(16, 3)), rng.uniform(0.05, 1.0, size=(16, 2)), p=p)
        X = rng.uniform(size=(20, 3))
        _, scores = classify_batch(X, rb)
        lower, upper = membership_bounds(rb.normalization.apply(X), rb.prototypes, rb.fuzzifiers)
        for i in range(len(X)):
            for j in range(2):
                want = [geometric_mean(b[i] * rb.certainty[:, j]) for b in (lower, upper)]
                assert scores[i, j] == pytest.approx(0.5 * sum(want), rel=1e-12, abs=0.0)


def _unit_cube_case(seed, c, M, n, p):
    rng = np.random.default_rng(seed)
    lower, upper = membership_bounds(
        rng.uniform(size=(n, 3)), rng.uniform(size=(c, 3)), Fuzzifiers(1.5, 2.5)
    )
    return lower, upper, rng.dirichlet(np.ones(M), size=c), p


def _extreme_p_case(p):
    # Every product lies in [0.17, 0.19], so the oracle's unscaled v**p
    # stays finite, while the kernel's row and column scales leave each
    # scaled term of class 1 below the underflow floor.
    upper = np.array([[1.0, 0.18]])
    return 0.97 * upper, upper, np.array([[1.0, 0.18], [1.0, 1.0]]), p


def _zero_lower_case():
    # Rule 1 fires with a zero lower bound: that class's lower mean is 0.
    upper = np.array([[0.7, 0.2, 0.1], [0.5, 0.3, 0.2]])
    lower = np.array([[0.6, 0.0, 0.05], [0.4, 0.2, 0.1]])
    return lower, upper, np.array([[0.9, 0.1], [0.3, 0.7], [0.0, 1.0]]), -1.5


def _zero_column_case(p):
    # No rule fires for class 1, so both its bounds are 0.
    lower, upper, certainty, _ = _unit_cube_case(15, 6, 3, 4, p)
    certainty = certainty.copy()
    certainty[:, 1] = 0.0
    return lower, upper, certainty, p


def _on_prototype_case(p):
    protos = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.4]])
    lower, upper = membership_bounds(protos[[1]], protos, Fuzzifiers(1.5, 2.5))
    return lower, upper, np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8]]), p


def _product_underflow_case(p):
    # upper * r = 1e-200 * 1e-200 rounds to 0, so rule 1 does not fire for
    # class 0 although both factors are positive: its mean is over rule 0
    # alone, not over two rules.
    upper = np.array([[1.0, 1e-200]])
    return 0.5 * upper, upper, np.array([[0.5, 0.5], [1e-200, 0.0]]), p


def _product_underflow_one_row_case(p):
    # Only row 1 has a firing product that rounds to 0 (1e-200 * 1e-200);
    # every firing product of rows 0 and 2 stays positive.
    upper = np.array([[0.6, 0.4], [1.0, 1e-200], [0.3, 0.7]])
    return 0.5 * upper, upper, np.array([[0.5, 0.5], [1e-200, 0.0]]), p


def _subnormal_case(p):
    # Row 0's bounds are subnormal: its scale s * t is below the smallest
    # normal float, so the product would round it with few bits left.
    upper = np.array([[1e-318, 4.4e-319, 0.0], [0.6, 0.3, 0.1]])
    return 0.37 * upper, upper, np.array([[0.3, 0.7], [0.45, 0.55], [0.9, 0.1]]), p


def _near_equal_fuzzifiers_case(p):
    # m2 is one ulp above m1, so the two bounds agree to rounding; the two
    # rows of the product can round some cells to lower > upper.
    rng = np.random.default_rng(7)
    lower, upper = membership_bounds(rng.uniform(size=(20, 3)), rng.uniform(size=(6, 3)),
                                     Fuzzifiers(1.5, np.nextafter(1.5, 2.0)))
    return lower, upper, rng.dirichlet(np.ones(3), size=6), p


# (id, case, whether the exact path must run); for p < 0 it always runs.
KERNEL_CASES = [
    ("unit-cube-p2", _unit_cube_case(16, 20, 3, 30, 2.0), False),
    ("unit-cube-p2-one-row", _unit_cube_case(17, 128, 2, 1, 2.0), False),
    ("p+400", _extreme_p_case(400.0), True),
    ("p-400", _extreme_p_case(-400.0), True),
    ("zero-lower-negative-p", _zero_lower_case(), True),
    ("zero-certainty-column-p2", _zero_column_case(2.0), False),
    ("zero-certainty-column-p-2", _zero_column_case(-2.0), True),
    ("on-prototype-p2", _on_prototype_case(2.0), False),
    ("on-prototype-p-1.5", _on_prototype_case(-1.5), True),
    ("subnormal-bounds-p2", _subnormal_case(2.0), True),
    ("product-underflow-p2", _product_underflow_case(2.0), True),
    ("product-underflow-p-2", _product_underflow_case(-2.0), True),
    ("product-underflow-one-row-p2", _product_underflow_one_row_case(2.0), True),
    ("near-equal-fuzzifiers-p2", _near_equal_fuzzifiers_case(2.0), False),
]


def exact_soundness(lower, upper, certainty, p):
    """Both bounds (2, n, M) from _power_mean_rows, class by class."""
    out = np.zeros((2, lower.shape[0], certainty.shape[1]))
    for j in range(certainty.shape[1]):
        r = certainty[:, j][None, :]
        firing = upper * r > 0.0
        out[0, :, j] = _power_mean_rows(lower * r, firing, p)
        out[1, :, j] = _power_mean_rows(upper * r, firing, p)
    return out


def reference_soundness(lower, upper, certainty, p):
    """Both bounds (2, n, M) from the straight-line oracle's power mean."""
    out = np.zeros((2, lower.shape[0], certainty.shape[1]))
    for i in range(lower.shape[0]):
        for j in range(certainty.shape[1]):
            fired = [k for k in range(certainty.shape[0])
                     if float(upper[i, k]) * float(certainty[k, j]) > 0.0]
            for h, bound in enumerate((lower, upper)):
                vals = [float(bound[i, k]) * float(certainty[k, j]) for k in fired]
                out[h, i, j] = ref_power_mean(vals, p) if vals else 0.0
    return out


class TestProductKernel:
    @pytest.mark.parametrize("case, needs_exact", [c[1:] for c in KERNEL_CASES],
                             ids=[c[0] for c in KERNEL_CASES])
    def test_regimes(self, monkeypatch, case, needs_exact):
        lower, upper, certainty, p = case
        calls = []

        def counted(vals, mask, p):
            calls.append(vals.shape[0])
            return _power_mean_rows(vals, mask, p)

        monkeypatch.setattr(inference, "_power_mean_rows", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.stack(soundness(lower, upper, certainty, p))
        assert bool(calls) == needs_exact
        assert np.all(got[0] <= got[1])
        np.testing.assert_allclose(got, exact_soundness(lower, upper, certainty, p),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got, reference_soundness(lower, upper, certainty, p),
                                   rtol=1e-12, atol=1e-12)


class TestModelConstants:
    """The soundness kernel's model-only operands are built with the model."""

    def model(self, p=2.0):
        rng = np.random.default_rng(18)
        return make_rulebase(rng.uniform(size=(24, 3)), rng.dirichlet(np.ones(3), size=24),
                             p=p), rng.uniform(size=(60, 3))

    def test_built_once_per_model(self, monkeypatch):
        calls = []

        def counted(certainty, p):
            calls.append(p)
            return _soundness_constants(certainty, p)

        monkeypatch.setattr(rulebase, "_soundness_constants", counted)
        rb, X = self.model()
        assert calls == [2.0]
        for x in X[:20]:
            classify(x, rb)
        classify_batch(X, rb)
        assert calls == [2.0]

    def test_read_only(self):
        rb, _ = self.model()
        for a in rb._soundness:
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable

    @pytest.mark.parametrize("field", ["aggregation_p", "certainty"])
    def test_replace_rebuilds(self, field):
        rb, X = self.model()
        value = {"aggregation_p": -2.0, "certainty": np.roll(rb.certainty, 1, axis=1)}[field]
        changed = dataclasses.replace(rb, **{field: value})
        fresh = make_rulebase(changed.prototypes, changed.certainty, p=changed.aggregation_p)
        _, got = classify_batch(X, changed)
        assert np.array_equal(got, classify_batch(X, fresh)[1])
        assert not np.array_equal(got, classify_batch(X, rb)[1])

    @pytest.mark.parametrize("p", [2.0, -1.5])
    def test_save_load_round_trip(self, tmp_path, p):
        rb, X = self.model(p)
        path = tmp_path / "model.json"
        save_rulebase(rb, path)
        got = classify_batch(X, load_rulebase(path))
        want = classify_batch(X, rb)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestClassify:
    def test_single_rule_always_class0(self):
        rb = make_rulebase([[0.4, 0.4]], [[1.0, 0.0]])
        rng = np.random.default_rng(7)
        preds, _ = classify_batch(rng.uniform(size=(30, 2)), rb)
        assert np.all(preds == 0)

    def test_symmetric_tie_goes_to_lowest_index(self):
        rb = make_rulebase(
            [[0.25, 0.5], [0.75, 0.5]],
            [[1.0, 0.0], [0.0, 1.0]],
        )
        res = classify(np.array([0.5, 0.5]), rb)
        assert res.scores[0] == pytest.approx(res.scores[1], abs=1e-15)
        assert res.predicted == 0

    def test_decision_matches_scores(self):
        rng = np.random.default_rng(8)
        rb = make_rulebase(rng.uniform(size=(3, 2)), [[0.7, 0.3], [0.1, 0.9], [0.5, 0.5]])
        X = rng.uniform(size=(40, 2))
        preds, scores = classify_batch(X, rb)
        assert np.array_equal(preds, scores.argmax(axis=1))

    def test_single_matches_batch(self):
        # A row's scores do not depend on the other rows of its batch.
        rng = np.random.default_rng(9)
        for rules, classes in ((4, 3), (128, 2)):
            rb = make_rulebase(rng.uniform(size=(rules, 3)),
                               rng.dirichlet(np.ones(classes), size=rules))
            X = rng.uniform(size=(50, 3))
            preds, scores = classify_batch(X, rb)
            for i in range(len(X)):
                res = classify(X[i], rb)
                assert res.predicted == preds[i]
                assert np.array_equal(res.scores, scores[i])
                for j, iv in enumerate(res.soundness):
                    assert iv.lower <= res.scores[j] <= iv.upper

    @pytest.mark.parametrize("p", [2.0, -1.5, 1e-16])
    def test_batch_prefix_matches_whole_batch(self, p):
        rng = np.random.default_rng(23)
        rb = make_rulebase(rng.uniform(size=(128, 9)), rng.dirichlet(np.ones(2), size=128), p=p)
        X = rng.uniform(size=(341, 9))
        preds, scores = classify_batch(X, rb)
        for k in (1, 2, 7, 100, 340):
            got_preds, got = classify_batch(X[:k], rb)
            assert np.array_equal(got, scores[:k])
            assert np.array_equal(got_preds, preds[:k])

    @pytest.mark.parametrize("lower, upper", [(0.5, 0.4), (-0.1, 0.2), (np.nan, 0.2)])
    def test_disordered_interval_refused(self, monkeypatch, lower, upper):
        # classify checks the bounds once before it builds SoundnessIntervals;
        # that check once exposed inverted intervals from near-equal fuzzifiers.
        rb = make_rulebase([[0.4, 0.4], [0.6, 0.6]], [[1.0, 0.0], [0.0, 1.0]])
        bounds = (np.array([[0.1, lower]]), np.array([[0.3, upper]]))
        monkeypatch.setattr(inference, "_soundness_of", lambda X, model: bounds)
        with pytest.raises(DataError, match=rf"invalid soundness interval \[{lower}, {upper}\]"):
            classify(np.array([0.5, 0.5]), rb)

    def test_classify_takes_one_pattern(self):
        rb = make_rulebase([[0.4, 0.4]], [[1.0, 0.0]])
        with pytest.raises(DataError, match="classify expects a single feature vector"):
            classify(np.zeros((2, 2)), rb)

    def test_dimension_mismatch_names_both(self):
        rb = make_rulebase([[0.4, 0.4]], [[1.0, 0.0]])
        with pytest.raises(DataError, match=r"3.*2|2.*3"):
            classify(np.array([0.1, 0.2, 0.3]), rb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, bad):
        # Refused rather than classified as class 0 with scores [0, 0].
        rb = make_rulebase([[0.4, 0.4], [0.6, 0.6]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="finite"):
            classify(np.array([bad, 10.0]), rb)
        with pytest.raises(DataError, match="finite"):
            classify_batch(np.array([[0.1, 0.2], [bad, 10.0]]), rb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_message(self, bad):
        # apply's one finiteness test on its output tells non-finite input
        # from a finite value that overflows.
        norm = NormalizationParams(np.zeros(2), np.array([1e-10, 2.0]))
        rb = make_rulebase([[0.2, 0.3], [0.8, 0.6]], [[0.9, 0.1], [0.2, 0.8]], norm=norm)
        with pytest.raises(DataError, match="input features must be finite"):
            classify(np.array([0.5, bad]), rb)
        with pytest.raises(DataError, match="input features must be finite"):
            classify_batch(np.array([[0.1, 0.2], [bad, 1.0]]), rb)
        with pytest.raises(DataError, match="does not normalize"):
            classify_batch(np.array([[0.1, 0.2], [1e300, 1.0]]), rb)

    def test_huge_finite_input_classified(self):
        # The squared distances of these rows overflow; they used to give
        # class 0 with scores [0, 0] and a RuntimeWarning.
        rb = make_rulebase([[0.2, 0.3], [0.8, 0.6]], [[0.9, 0.1], [0.2, 0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want_pred, want_scores = classify_batch([[1e150, 10.0]], rb)
            assert np.all(want_scores > 0.0)
            for x in ([1e200, 10.0], [-1e200, 1e200], [1e300, 1e300]):
                pred, scores = classify_batch([x], rb)
                assert pred[0] == want_pred[0]
                assert np.array_equal(scores, want_scores)

    @pytest.mark.parametrize("p", [2.0, -2.0])
    def test_empty_batch(self, p):
        rb = make_rulebase([[0.2, 0.3], [0.8, 0.6]], [[0.9, 0.1], [0.2, 0.8]], p=p)
        preds, scores = classify_batch(np.empty((0, 2)), rb)
        assert preds.shape == (0,)
        assert scores.shape == (0, 2)

    def test_normalization_overflow_refused(self):
        # 1e300 over a span of 1e-10 overflows in normalization; it used to
        # give class 0 with scores [0, 0] and only RuntimeWarnings.
        norm = NormalizationParams(np.zeros(2), np.array([1e-10, 2.0]))
        rb = make_rulebase([[0.2, 0.3], [0.8, 0.6]], [[0.9, 0.1], [0.2, 0.8]], norm=norm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="feature 1"):
                classify_batch([[1e300, 1.0]], rb)
            with pytest.raises(DataError, match="feature 1"):
                classify(np.array([-1e300, 1.0]), rb)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c, M, N = rng.integers(1, 5), rng.integers(2, 4), rng.integers(1, 4)
            protos = rng.uniform(size=(c, N))
            cert = rng.dirichlet(np.ones(M), size=c)
            p = float(rng.choice([-3.0, -1.0, 0.7, 1.0, 2.0, 4.0]))
            rb = make_rulebase(protos, cert, m1=1.4, m2=2.8, p=p)
            x = rng.uniform(size=N)
            res = classify(x, rb)
            want_pred, want_scores = ref_predict(
                x.tolist(), protos.tolist(), cert.tolist(), 1.4, 2.8, p
            )
            assert res.scores == pytest.approx(np.array(want_scores), abs=1e-12)
            assert res.predicted == want_pred

    def test_interval_preservation(self):
        rng = np.random.default_rng(11)
        rb = make_rulebase(rng.uniform(size=(4, 2)), rng.dirichlet(np.ones(2), size=4))
        for _ in range(20):
            x = rng.uniform(size=2)
            m_lower, m_upper = matching(rb.normalization.apply(x), rb)
            assert np.all(m_lower <= m_upper)
            for k in range(rb.num_rules):
                lower, upper = association(m_lower, m_upper, rb.certainty, k, rb.aggregation_p)
                assert np.all(lower <= upper)
            lower, upper = soundness(
                m_lower[None, :], m_upper[None, :], rb.certainty, rb.aggregation_p
            )
            assert np.all(lower <= upper)

    def test_degenerate_type1(self):
        rng = np.random.default_rng(12)
        rb = make_rulebase(
            rng.uniform(size=(3, 2)), rng.dirichlet(np.ones(2), size=3), m1=2.0, m2=2.0
        )
        res = classify(rng.uniform(size=2), rb)
        for iv in res.soundness:
            assert iv.lower == pytest.approx(iv.upper, abs=1e-15)

    def test_certainty_scaling_leaves_argmax(self):
        rng = np.random.default_rng(13)
        protos = rng.uniform(size=(3, 2))
        cert = rng.dirichlet(np.ones(3), size=3)
        rb1 = make_rulebase(protos, cert)
        rb2 = make_rulebase(protos, 0.25 * cert)
        X = rng.uniform(size=(25, 2))
        p1, s1 = classify_batch(X, rb1)
        p2, s2 = classify_batch(X, rb2)
        assert np.array_equal(p1, p2)
        assert s2 == pytest.approx(0.25 * s1, rel=1e-12)

    def test_all_zero_flag(self):
        rb = make_rulebase([[0.5, 0.5]], [[0.0, 0.0]])
        res = classify(np.array([0.2, 0.2]), rb)
        assert res.no_rule_fired
        assert res.predicted == 0

    def test_circular_model_probe_end_to_end(self):
        from frm_reference import scores as ref_scores
        from it2frbc import (
            SplitSpec,
            SubclustParams,
            build_rulebase,
            fit_normalizer,
            gen_circular,
            normalize_dataset,
            split,
        )

        train, _ = split(gen_circular(7), SplitSpec(0.5, 21))
        norm = fit_normalizer(train)
        rb = build_rulebase(
            normalize_dataset(norm, train), SubclustParams(0.2), Fuzzifiers(), 2.0, norm
        )
        probe = np.array([9.0, 11.5])  # inside the class-1 disk (radius < 5)
        res = classify(probe, rb)
        assert rb.class_names[res.predicted] == "1"
        want = ref_scores(
            norm.apply(probe).tolist(), rb.prototypes.tolist(), rb.certainty.tolist(),
            1.5, 2.5, 2.0,
        )
        assert res.scores == pytest.approx(np.array(want), abs=1e-12)

    def test_probe_at_prototype_negative_p(self):
        # Only one rule fires (the coincident one); the non-firing rules
        # must not leak into the negative-p aggregation.
        protos = np.array([[0.1], [0.5], [0.9]])
        cert = np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
        rb = make_rulebase(protos, cert, p=-1.5)
        res = classify(np.array([0.5]), rb)
        assert res.scores == pytest.approx([0.6, 0.4], abs=1e-15)


def batch_rows(c, N, M):
    """Rows per block of classify_batch at c rules, N features and M classes."""
    return max(1, subclust.BLOCK_ELEMENTS // (c * max(N, 2 * M)))


def working_peak(run):
    """tracemalloc peak of run() past the arrays it returns."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in out)
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    """classify_batch cuts the rows once, in blocks of
    BLOCK_ELEMENTS // (c * max(N, 2M)) rows, and the kernel takes each whole."""

    @pytest.mark.parametrize("n, c", [(0, 128), (1, 128), (2048, 128), (2049, 128),
                                      (10_000, 128), (7001, 128), (5000, 10**6)])
    def test_edges(self, monkeypatch, n, c):
        blocks = []

        def recorded(X, rb):
            blocks.append(len(X))
            return np.zeros((len(X), 2)), np.zeros((len(X), 2))

        monkeypatch.setattr(inference, "_soundness_of", recorded)
        # 3 features and 2 classes: a row adds 4c values, the exact cells'.
        classify_batch(np.zeros((n, 3)), SimpleNamespace(num_rules=c, num_features=3,
                                                         num_classes=2))
        step = batch_rows(c, 3, 2)
        assert step == (512 if c == 128 else 1)
        full, rest = divmod(n, step)
        # An empty batch still takes one block, which checks its input.
        assert blocks == [step] * full + ([rest] if rest or not n else [])

    @pytest.mark.parametrize("p", [2.0, -1.5])
    def test_blocks_equal_the_unblocked_kernel(self, p):
        rng = np.random.default_rng(21)
        rb = make_rulebase(rng.random((128, 9)), rng.random((128, 2)), p=p)
        X = rng.random((7001, 9))
        X[-3:-1] = rb.prototypes[[5, 77]]  # rows on a prototype
        X[-5, 2] = 1e200  # squared distances overflow
        assert len(X) > 3 * batch_rows(128, 9, 2)  # more than four blocks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds, scores = classify_batch(X, rb)
        X_n = rb.normalization.apply(X)
        want = inference._soundness_bounds(membership_bounds(X_n, rb.prototypes, rb.fuzzifiers),
                                           X_n, rb)
        assert np.array_equal(scores, 0.5 * (want[0] + want[1]))
        assert np.array_equal(preds, scores.argmax(axis=1))

    def test_one_budget_bounds_every_block(self, monkeypatch):
        # subclust.BLOCK_ELEMENTS alone sets the blocks of training
        # (certainty, at width c * N) and of classify_batch (at width
        # c * max(N, 2M)); the kernel's distances and exact cells take their
        # block whole. Training's blocks are seen at rulebase._distances,
        # recorded during certainty_degrees alone: classify_batch reaches it
        # too, through membership_bounds.
        rng = np.random.default_rng(23)
        rb = make_rulebase(rng.random((8, 3)), rng.random((8, 2)), p=-1.5)
        X = rng.random((50, 3))
        train = Dataset(X, rng.integers(0, 2, 50), ("a", "b"))
        seen = {"distances": [], "soundness": [], "cells": []}

        def recorder(module, name, key, patch=monkeypatch):
            run = getattr(module, name)

            def recorded(A, *args):
                seen[key].append(len(A))
                return run(A, *args)
            patch.setattr(module, name, recorded)

        recorder(inference, "_soundness_of", "soundness")
        recorder(inference, "_power_mean_rows", "cells")
        budget = 8 * 4 * 6
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", budget)
        with monkeypatch.context() as m:
            recorder(rulebase, "_distances", "distances", m)
            certainty_degrees(train, rb.prototypes, rb.fuzzifiers)
        classify_batch(X, rb)
        # Eight rows a block at 8 rules x 3 features in training, six at
        # 8 rules x 2 bounds x 2 classes in classify_batch. p < 0 sends every
        # firing cell, 50 rows x 2 classes x 2 bounds, through the exact
        # path, one call per block, whose gathered (cells, 8) values fill
        # the budget.
        assert seen["distances"] == [8] * 6 + [2]
        assert seen["soundness"] == [6] * 8 + [2]
        assert seen["cells"] == [24] * 8 + [8]
        assert max(seen["cells"]) * 8 == budget

    def test_peak_memory_is_bounded(self):
        # Unblocked, the (n, c) arrays of 10k rows x 128 rules peak at 43.7 MB.
        # Cut at width c and again at c * N inside, 8.5 MiB; cut once at
        # c * max(N, 2M), 2.4 MiB; with each block's differences built in
        # chunks of an eighth of the budget, 1.1 MiB (numpy 2.4.6).
        rng = np.random.default_rng(22)
        rb = make_rulebase(rng.random((128, 9)), rng.random((128, 2)))
        X = rng.random((10_000, 9))
        tracemalloc.start()
        try:
            classify_batch(X, rb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    def test_wbcd_sized_batch_peaks_at_three_arrays_and_a_chunk(self):
        # wbcd-0.4's held-out half: 341 rows x 119 rules x 9 features, in
        # blocks of 244 rows. When the soundness kernel stacked the bounds
        # into a new B, the bounds and B, four (rows, c) arrays, set the
        # peak: tracemalloc read 0.95 MiB (4.29 arrays). With B the stacked
        # bounds themselves, the distances and the two bounds set it while
        # the first partition is written, 0.75 MiB (3.37 arrays; numpy
        # 2.4.6). The bound is three arrays and one chunk of differences,
        # an eighth of the budget.
        rng = np.random.default_rng(26)
        rb = make_rulebase(rng.random((119, 9)), rng.dirichlet(np.ones(2), size=119))
        X = rng.random((341, 9))
        rows = batch_rows(119, 9, 2)
        assert rows == 244
        peak = working_peak(lambda: classify_batch(X, rb))
        assert peak < 3 * rows * 119 * 8 + subclust.BLOCK_ELEMENTS * 8 // 8

    def test_rescaled_rows_peak_within_the_ordinary_bound(self):
        # Every row overflows its squared distances, so every row of every
        # block is rescaled. With each block's flagged differences built in
        # one piece and copied by abs, this read 4.39 MiB; built and scaled
        # chunk by chunk, within the ordinary rows' bound (numpy 2.4.6).
        rng = np.random.default_rng(22)
        rb = make_rulebase(rng.random((128, 9)), rng.random((128, 2)))
        X = rng.random((10_000, 9))
        X[:, 2] = 1e200
        tracemalloc.start()
        try:
            classify_batch(X, rb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    # N = 30: a block's differences are built in chunks of at most an
    # eighth of the budget, so its largest arrays are (rows, c).
    # M = 10, p < 0: it is the exact path's (2M rows, c) gathered values:
    # the gathered certainty and bounds, then the one array in which
    # _power_mean_rows takes its terms. tracemalloc read 0.39 and 0.18 MiB
    # (N = 30) and 5.6 and 5.4 MiB (M = 10) at 1x and 10x the rows; 2.1 and
    # 1.9 MiB (N = 30) when each block's differences were built whole, 14.7
    # and 14.5 MiB (M = 10) when the exact path kept about seven (cells, c)
    # arrays alive, and 17.5 and 23.4 MiB when the kernel also cut the rows
    # again inside blocks of width c (numpy 2.4.6).
    @pytest.mark.parametrize("N, M, p, n, budgets", [(30, 2, 2.0, 3000, 0.25),
                                                     (3, 10, -1.5, 2000, 4)])
    def test_peak_is_one_block_at_any_width(self, N, M, p, n, budgets):
        rng = np.random.default_rng(24)
        rb = make_rulebase(rng.random((64, N)), rng.random((64, M)), p=p)
        assert n > 8 * batch_rows(64, N, M)  # several blocks at 1x

        def peak(rows):
            X = rng.random((rows, N))
            return working_peak(lambda: classify_batch(X, rb))

        one, ten = peak(n), peak(10 * n)
        assert ten <= 1.1 * one
        assert max(one, ten) < budgets * subclust.BLOCK_ELEMENTS * 8


class TestFiringCount:
    """The count of firing rules is the model's when every upper bound of a
    block is positive, and comes from the firing mask when a row of the
    block sits on a prototype (upper bounds of exactly 0 elsewhere)."""

    @pytest.mark.parametrize("p", [2.0, -1.5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_rows_on_a_prototype_among_ordinary_rows(self, monkeypatch, p, reverse):
        rng = np.random.default_rng(31)
        protos = rng.random((6, 2))
        cert = rng.dirichlet(np.ones(3), size=6)
        cert[[1, 4], 2] = 0.0  # so the count differs between rows and classes
        rb = make_rulebase(protos, cert, p=p)
        X = np.vstack([rng.random((2, 2)), protos[[1, 4]], rng.random((5, 2))])
        if reverse:
            X = X[::-1].copy()
        on = np.isin(np.arange(9), [2, 3] if not reverse else [5, 6])
        upper = membership_bounds(X, protos, rb.fuzzifiers)[1]
        assert np.array_equal((upper == 0.0).any(axis=1), on)
        # Three rows a block: the two rows on a prototype fall in different
        # blocks, each with ordinary rows, and one block has none of them.
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 3 * rb.num_rules * 2 * 3)
        assert batch_rows(6, 2, 3) == 3
        preds, scores = classify_batch(X, rb)
        for x, pred, row in zip(X, preds, scores):
            res = classify(x, rb)
            assert np.array_equal(res.scores, row)
            assert res.predicted == pred
            want = ref_predict(x.tolist(), protos.tolist(), cert.tolist(), 1.5, 2.5, p)[1]
            assert res.scores == pytest.approx(want, abs=1e-12)


class TestExactRowsAmongProductRows:
    """The product path overwrites the bounds, so the cells it cannot give
    exactly take their rows' bounds again from membership_bounds, on those
    rows alone; a row's scores stay the bytes of classify() on that row."""

    @pytest.mark.parametrize("p, m2", [(400.0, 2.5), (-400.0, 2.5), (2.0, 2.5),
                                       (2.0, np.nextafter(1.5, 2.0))],
                             ids=["p+400", "p-400", "subnormal-bounds-p2",
                                  "near-equal-fuzzifiers-p2"])
    def test_each_row_scores_as_classify(self, monkeypatch, p, m2):
        rng = np.random.default_rng(40)
        protos = rng.random((12, 3))
        protos[[2, 4]] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        cert = rng.dirichlet(np.ones(3), size=12)
        cert[[2, 7], 1] = 0.0
        cert[4, 0] = 0.0
        rb = make_rulebase(protos, cert, m2=m2, p=p)
        X = rng.random((40, 3))
        # Rows 5 and 31 lie 1e-80 from prototype 2, so their lower bounds
        # (and upper ones, at near-equal fuzzifiers) on every other rule are
        # subnormal, and prototype 2 does not fire for class 1; row 23 is on
        # prototype 9.
        X[5], X[31], X[23] = [1e-80, 0.0, 0.0], [0.0, 2e-80, 0.0], protos[9]
        lower = membership_bounds(X, protos, rb.fuzzifiers)[0]
        assert (lower[[5, 31]] < np.finfo(float).tiny).sum() == 22
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 16 * 12 * 6)  # blocks of 16 rows
        calls, run = [], inference.membership_bounds

        def recorded(rows, *args):  # by caller: a block's, or the kernel's rows again
            calls.append((sys._getframe(1).f_code.co_name, len(rows)))
            return run(rows, *args)

        monkeypatch.setattr(inference, "membership_bounds", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, scores = classify_batch(X, rb)
        monkeypatch.undo()
        again = [n for caller, n in calls if caller == "_soundness_bounds"]
        assert [n for caller, n in calls if caller == "_soundness_of"] == [16, 16, 8]
        if p > 0:  # the product path ran: some rows, not all, took the exact path
            assert 0 < sum(again) < len(X)
        else:  # every firing cell is exact, on the bounds as given
            assert again == []
        for x, row in zip(X, scores):
            assert classify(x, rb).scores.tobytes() == row.tobytes()


class TestBatchEqualsUnblockedKernel:
    def test_batch_equals_unblocked_kernel(self):
        # The batch path makes no BLAS call, so its scores are the unblocked
        # kernel's bytes whatever BLAS thread count the process runs with.
        rng = np.random.default_rng(3)
        rb = make_rulebase(rng.random((128, 9)), rng.random((128, 2)))
        X = rng.random((3000, 9))
        X_n = rb.normalization.apply(X)
        want = inference._soundness_bounds(membership_bounds(X_n, rb.prototypes, rb.fuzzifiers),
                                           X_n, rb)
        _, scores = classify_batch(X, rb)
        assert np.array_equal(scores, 0.5 * (want[0] + want[1]))
