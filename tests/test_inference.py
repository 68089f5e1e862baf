import warnings

import numpy as np
import pytest

from it2frbc import (
    ConfigError,
    DataError,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    classify,
    classify_batch,
)
from it2frbc.inference import _power_mean_rows, _soundness_bounds
from it2frbc.rulebase import membership_bounds

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


def matching(x, rb):
    """Membership bounds (c,) of one normalized pattern to each rule."""
    x = np.asarray(x, dtype=float)
    lower, upper = membership_bounds(x[None, :], rb.prototypes, rb.fuzzifiers)
    return lower[0], upper[0]


def association(lower, upper, certainty, k, p=2.0):
    """Association bounds (M,) of rule k alone: the power mean of a single
    firing value is that value, so the kernel returns the product itself."""
    y_lower, y_upper = _soundness_bounds(
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
            lo = [power_means(vals, p)[form] for p in (-10.0, -50.0, -400.0)]
            hi = [power_means(vals, p)[form] for p in (10.0, 50.0, 400.0)]
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

    def test_zero_value_negative_p(self):
        assert power_means([0.0, 0.5], -2.0) == (0.0, 0.0)

    def test_rejects_p_zero(self):
        with pytest.raises(ConfigError):
            make_rulebase([[0.0]], [[1.0]], p=0.0)


class TestSoundness:
    def test_all_zero_class(self):
        lower, upper = _soundness_bounds(
            np.array([[0.1]]), np.array([[0.2]]), np.array([[0.0, 1.0]]), 2.0
        )
        assert (lower[0, 0], upper[0, 0]) == (0.0, 0.0)
        assert upper[0, 1] > 0

    def test_single_rule_idempotent(self):
        lower, upper = _soundness_bounds(np.array([[0.3]]), np.array([[0.6]]), np.ones((1, 1)), 2.0)
        assert lower[0, 0] == pytest.approx(0.3)
        assert upper[0, 0] == pytest.approx(0.6)

    def test_two_rules_arithmetic(self):
        lower, upper = _soundness_bounds(
            np.array([[0.2, 0.8]]), np.array([[0.4, 1.0]]), np.ones((2, 1)), 1.0
        )
        assert lower[0, 0] == pytest.approx(0.5)
        assert upper[0, 0] == pytest.approx(0.7)

    def test_qualifies_on_upper_bound(self):
        # lower bound 0 must not drop the rule when its upper bound fires
        lower, upper = _soundness_bounds(
            np.array([[0.0, 0.2]]), np.array([[0.4, 0.5]]), np.ones((2, 1)), 2.0
        )
        assert lower[0, 0] == pytest.approx(np.sqrt((0.0 + 0.04) / 2))
        assert upper[0, 0] == pytest.approx(np.sqrt((0.16 + 0.25) / 2))


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
        rng = np.random.default_rng(9)
        rb = make_rulebase(rng.uniform(size=(4, 3)), rng.dirichlet(np.ones(3), size=4))
        X = rng.uniform(size=(10, 3))
        preds, scores = classify_batch(X, rb)
        for i in range(10):
            res = classify(X[i], rb)
            assert res.predicted == preds[i]
            assert res.scores == pytest.approx(scores[i], abs=1e-15)
            for j, iv in enumerate(res.soundness):
                assert iv.lower <= res.scores[j] <= iv.upper

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
            lower, upper = _soundness_bounds(
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
