import json
import re
import tracemalloc

import numpy as np
import pytest

from it2frbc import inference, rulebase, subclust
from it2frbc import (
    ConfigError,
    DataError,
    Dataset,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    SubclustParams,
    build_rulebase,
    certainty_degrees,
    classify_batch,
    export_rules_text,
    fit_normalizer,
    gen_circular,
    load_rulebase,
    normalize_dataset,
    save_rulebase,
    split,
    SplitSpec,
)

# d = (1, 2) to two prototypes, frozen from 30-digit evaluation of the
# fuzzy-partition formula: m=1.5 -> exponent 4, m=2.5 -> exponent 4/3.
MU_M15 = (16.0 / 17.0, 1.0 / 17.0)
MU_M25 = (0.71589634658334991, 0.28410365341665009)

TWO_PROTOS = np.array([[0.0, 0.0], [3.0, 0.0]])
PROBE = np.array([1.0, 0.0])  # distances (1, 2)


def bounds(x, protos, fz):
    """Membership bounds (c,) of one pattern under the fuzzifier pair fz."""
    lower, upper = rulebase.membership_bounds(np.asarray(x, dtype=float)[None, :], protos, fz)
    return lower[0], upper[0]


def memberships(x, protos, m):
    """Single-fuzzifier memberships (c,) of one pattern: both bounds at m1 == m2."""
    lower, upper = bounds(x, protos, Fuzzifiers(m, m))
    assert np.array_equal(lower, upper)
    return lower


def identity_norm(n):
    return NormalizationParams(np.zeros(n), np.ones(n))


class TestFuzzifiers:
    def test_defaults(self):
        fz = Fuzzifiers()
        assert (fz.m1, fz.m2) == (1.5, 2.5)

    def test_equal_fuzzifiers_allowed(self):
        Fuzzifiers(2.0, 2.0)

    # "2" and None used to raise TypeError from np.isfinite.
    @pytest.mark.parametrize("m1,m2", [(1.0, 2.0), (0.5, 2.0), (2.0, 1.0), (2.5, 1.5),
                                       ("2", 3.0), (None, 2.0)])
    def test_rejects_invalid(self, m1, m2):
        with pytest.raises(ConfigError):
            Fuzzifiers(m1, m2)

    @pytest.mark.parametrize("m1,m2,name", [(np.nan, 2.0, "m1"), (1.5, np.inf, "m2"),
                                            (-np.inf, 2.0, "m1"), (np.inf, np.inf, "m1")])
    def test_rejects_non_finite(self, m1, m2, name):
        # An infinite m2 used to be accepted and saved as "m2": Infinity.
        with pytest.raises(ConfigError, match=f"fuzzifier {name} must be finite"):
            Fuzzifiers(m1, m2)


class TestMemberships:
    def test_equidistant(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        mu = memberships(np.zeros(2), protos, 2.0)
        assert mu == pytest.approx([0.25] * 4)

    def test_m2_exponent(self):
        mu = memberships(PROBE, TWO_PROTOS, 2.0)
        assert mu == pytest.approx([0.8, 0.2], abs=1e-15)

    def test_m15_exponent(self):
        mu = memberships(PROBE, TWO_PROTOS, 1.5)
        assert mu == pytest.approx(MU_M15, abs=1e-15)

    def test_m25_exponent(self):
        mu = memberships(PROBE, TWO_PROTOS, 2.5)
        assert mu == pytest.approx(MU_M25, abs=1e-15)

    def test_singularity_at_prototype(self):
        protos = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        mu = memberships(np.array([1.0, 1.0]), protos, 1.5)
        assert mu.tolist() == [1.0, 0.0, 0.0]

    def test_singularity_split_between_coincident(self):
        protos = np.array([[1.0], [1.0], [5.0]])
        mu = memberships(np.array([1.0]), protos, 2.0)
        assert mu.tolist() == [0.5, 0.5, 0.0]

    def test_sum_to_one(self):
        rng = np.random.default_rng(8)
        protos = rng.uniform(size=(5, 3))
        x = rng.uniform(size=3)
        for m in (1.2, 1.5, 2.0, 2.5, 4.0):
            assert memberships(x, protos, m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_tiny_distances_stable(self):
        protos = np.array([[0.0], [1.0]])
        mu = memberships(np.array([1e-12]), protos, 1.1)
        assert np.isfinite(mu).all()
        assert mu[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_fuzzifier(self):
        with pytest.raises(ConfigError):
            memberships(PROBE, TWO_PROTOS, 1.0)

    def test_empty_prototypes_refused(self):
        fz = Fuzzifiers()
        with pytest.raises(DataError, match="prototype"):
            rulebase.membership_bounds(np.zeros((3, 2)), np.zeros((0, 2)), fz)
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), ("a", "b"))
        with pytest.raises(DataError, match="prototype"):
            certainty_degrees(ds, np.zeros((0, 2)), fz)


class TestMembershipInterval:
    def test_worked_example(self):
        lower, upper = bounds(PROBE, TWO_PROTOS, Fuzzifiers(1.5, 2.5))
        assert lower[0] == pytest.approx(MU_M25[0], abs=1e-15)
        assert upper[0] == pytest.approx(MU_M15[0], abs=1e-15)
        assert lower[1] == pytest.approx(MU_M15[1], abs=1e-15)
        assert upper[1] == pytest.approx(MU_M25[1], abs=1e-15)

    def test_degenerate_equal_fuzzifiers(self):
        lower, upper = bounds(PROBE, TWO_PROTOS, Fuzzifiers(2.0, 2.0))
        assert np.all(upper - lower == 0.0)

    def test_equidistant(self):
        protos = np.array([[1.0], [-1.0]])
        lower, upper = bounds([0.0], protos, Fuzzifiers(1.5, 2.5))
        assert lower == pytest.approx([0.5, 0.5])
        assert upper == pytest.approx([0.5, 0.5])

    def test_ordering(self):
        rng = np.random.default_rng(3)
        protos = rng.uniform(size=(4, 2))
        for _ in range(20):
            lower, upper = bounds(rng.uniform(size=2), protos, Fuzzifiers(1.3, 3.0))
            assert np.all((0.0 <= lower) & (lower <= upper) & (upper <= 1.0))

    def test_wider_fuzzifier_gap_never_narrows_interval(self):
        # Empirical claim on a probe grid for a 2-cluster system: nesting
        # the fuzzifier pair inside a wider one cannot shrink the interval.
        protos = np.array([[0.0], [1.0]])
        pairs = [(1.8, 2.2), (1.6, 2.5), (1.4, 3.0), (1.2, 4.0)]
        for x in np.linspace(-0.5, 1.5, 41):
            widths = []
            for m1, m2 in pairs:
                lower, upper = bounds([x], protos, Fuzzifiers(m1, m2))
                widths.append(upper[0] - lower[0])
            assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


def single_shot_memberships(X, protos, m):
    """Memberships from the full (n, c, N) difference tensor, one fuzzifier
    at a time: the form the blocked, shared-distance kernel must match."""
    diff = X[:, None, :] - protos[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    out = np.zeros_like(d)
    zero_rows = (d == 0.0).any(axis=1)
    regular = ~zero_rows
    if regular.any():
        dr = d[regular]
        w = (dr / dr.min(axis=1, keepdims=True)) ** (-(2.0 / (m - 1.0)))
        out[regular] = w / w.sum(axis=1, keepdims=True)
    for i in np.flatnonzero(zero_rows):
        hits = d[i] == 0.0
        out[i, hits] = 1.0 / hits.sum()
    return out


def block_rows(c, N):
    """Rows per block of classify_batch at c rules of N features, two classes."""
    return max(1, subclust.BLOCK_ELEMENTS // (c * max(N, 4)))


def batch_model(protos, fz=Fuzzifiers()):
    """A two-class model whose normalization leaves every value as it is."""
    c, N = protos.shape
    return RuleBase(protos, np.zeros(c, dtype=int), np.full((c, 2), 0.5), fz, identity_norm(N),
                    ("a", "b"))


def batch_bounds(monkeypatch, X, protos, fz):
    """The membership bounds classify_batch computes, joined over its
    blocks, and each block's rows. They are copied: the soundness kernel
    overwrites the bounds it is handed."""
    seen = []

    def recorded(*args):
        bounds = rulebase.membership_bounds(*args)
        seen.append(bounds.copy())
        return bounds

    monkeypatch.setattr(inference, "membership_bounds", recorded)
    classify_batch(X, batch_model(protos, fz))
    lower, upper = (np.concatenate(b) for b in zip(*seen))
    return lower, upper, [len(lo) for lo, _ in seen]


def working_peak(run):
    """tracemalloc peak of run() past the arrays it returns."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in out)
    finally:
        tracemalloc.stop()


def assert_bounds_match_single_shot(monkeypatch, X, protos, fz):
    lower, upper, blocks = batch_bounds(monkeypatch, X, protos, fz)
    step = block_rows(*protos.shape)
    assert blocks == [min(step, len(X) - i) for i in range(0, len(X), step)]
    mu1 = single_shot_memberships(X, protos, fz.m1)
    mu2 = single_shot_memberships(X, protos, fz.m2)
    assert np.array_equal(lower, np.minimum(mu1, mu2))
    assert np.array_equal(upper, np.maximum(mu1, mu2))


class TestBlockedMemberships:
    """The memberships classify_batch computes in its row blocks are the
    single-shot ones; the kernel takes each block whole."""

    def test_several_blocks_with_partial_last_block(self, monkeypatch):
        rng = np.random.default_rng(30)
        X = rng.uniform(size=(1000, 9))
        protos = X[rng.choice(1000, size=128, replace=False)]
        rows = block_rows(128, 9)
        assert 1 < rows < 1000 and 1000 % rows != 0
        assert_bounds_match_single_shot(monkeypatch, X, protos, Fuzzifiers(1.5, 2.5))

    def test_one_row_per_block_when_a_row_exceeds_the_budget(self, monkeypatch):
        rng = np.random.default_rng(31)
        protos = rng.uniform(size=(30000, 9))
        assert block_rows(30000, 9) == 1
        X = np.vstack([rng.uniform(size=(4, 9)), protos[17]])
        assert_bounds_match_single_shot(monkeypatch, X, protos, Fuzzifiers(1.2, 4.0))

    @pytest.mark.parametrize("budget", [1, 5, 64])
    def test_independent_of_block_size(self, monkeypatch, budget):
        rng = np.random.default_rng(32)
        X = np.round(rng.uniform(size=(23, 3)), 1)
        protos = X[[0, 4, 4, 9, 15]]
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", budget * 4)  # budget // 5 rows
        assert_bounds_match_single_shot(monkeypatch, X, protos, Fuzzifiers(1.5, 2.5))
        assert_bounds_match_single_shot(monkeypatch, X, protos, Fuzzifiers(2.0, 2.0))

    def test_exact_zeros_in_a_later_block(self, monkeypatch):
        rng = np.random.default_rng(33)
        X = rng.uniform(size=(1000, 9))
        protos = rng.uniform(size=(128, 9))
        last = 1000 - 1000 % block_rows(128, 9)
        assert 0 < last < 990
        protos[[5, 40, 100]] = X[995]  # t = 3 prototypes coincide with row 995
        protos[70] = X[last - 1]  # t = 1, last row of a full block
        lower, upper, blocks = batch_bounds(monkeypatch, X, protos, Fuzzifiers(1.5, 2.5))
        assert len(blocks) > 2
        for mu in (lower, upper):
            expect = np.zeros(128)
            expect[[5, 40, 100]] = 1.0 / 3.0
            assert np.array_equal(mu[995], expect)
            expect = np.zeros(128)
            expect[70] = 1.0
            assert np.array_equal(mu[last - 1], expect)
            assert np.all(np.delete(mu, [995, last - 1], axis=0) > 0.0)

    @pytest.mark.parametrize("fz", [Fuzzifiers(1.5, 2.5), Fuzzifiers(2.0, 2.0)])
    def test_rows_independent_of_their_batch(self, fz):
        # Regular rows, rows on one prototype and rows on two coincident
        # ones: each row's bounds must not depend on what else is in the batch.
        rng = np.random.default_rng(34)
        protos = rng.uniform(size=(6, 3))
        protos[4] = protos[1]
        X = np.vstack([rng.uniform(size=(4, 3)), protos[[0, 1, 3]], rng.uniform(size=(3, 3)),
                       protos[[4]]])
        lower, upper = rulebase.membership_bounds(X, protos, fz)
        for i in range(len(X)):
            lo, up = rulebase.membership_bounds(X[i:i + 1], protos, fz)
            assert np.array_equal(lo, lower[i:i + 1])
            assert np.array_equal(up, upper[i:i + 1])

    def test_one_block_peaks_at_three_arrays_and_a_difference_block(self):
        # classify_batch over 1000 rows x 178 rules, six blocks of 163 rows,
        # two rows on a prototype (one on two): the distances turn into the
        # ratios and then a partition in place, and the shares cover those
        # two rows only. With a new array for each and full-size shares there
        # were five (rows, c) arrays; with the rows cut again inside blocks
        # of width c, three of 1000 rows. The distances are built in chunks
        # of at most BLOCK_ELEMENTS bytes of differences (20 rows, 1.1
        # arrays here). The soundness kernel scales and raises the stacked
        # bounds in place, so three arrays set the peak: the distances and
        # the stacked bounds while the first partition is written, or the
        # bounds and the firing mask of these blocks' rows on a prototype.
        # tracemalloc read 0.75 MiB (3.4 arrays); 0.96 MiB (4.3 arrays)
        # when the kernel stacked the bounds into a copy, and 2.23 MiB when
        # each block's differences were built whole (numpy 2.4.6). The
        # bound is three arrays and one chunk, an eighth of the budget.
        rng = np.random.default_rng(35)
        c, N = 178, 9
        rows = block_rows(c, N)
        X = rng.uniform(size=(1000, N))
        protos = rng.uniform(size=(c, N))
        protos[[3, 90, 91]] = X[[10, 900, 900]]
        rb = batch_model(protos, Fuzzifiers(1.5, 2.5))
        assert 1000 > 6 * rows
        peak = working_peak(lambda: classify_batch(X, rb))
        assert peak < 3 * rows * c * 8 + subclust.BLOCK_ELEMENTS * 8 // 8


def whole_block_distances(X, protos):
    """rulebase._distances with the block's differences built whole: one
    einsum over the (n, c, N) block, and the flagged rows rescaled from it."""
    diff = subclust._differences(X, protos)
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    top = sq.max(axis=1)
    flagged = (top == np.inf) | (sq.min(axis=1) < rulebase._SMALL) & (top < rulebase._SMALL**0.5)
    diff = diff[flagged]
    scale = np.abs(diff).max(axis=(1, 2), initial=0.0)
    scale[scale == 0.0] = 1.0
    diff /= scale[:, None, None]
    sq[flagged] = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(sq), flagged


class TestDistanceChunks:
    """_distances builds a block's differences in row chunks of
    _row_blocks at width 8 * c * N, an eighth of the budget, and gives the
    bytes of the whole block's einsum, rescaled rows included."""

    def chunked(self, monkeypatch, X, protos):
        seen, run = [], subclust._differences

        def recorded(A, B):
            seen.append(len(A))
            return run(A, B)
        monkeypatch.setattr(subclust, "_differences", recorded)
        return rulebase._distances(X, protos), seen

    def test_several_chunks_equal_the_whole_block(self, monkeypatch):
        rng = np.random.default_rng(36)
        X, protos = rng.uniform(size=(100, 9)), rng.uniform(size=(128, 9))
        protos[7] = X[63]  # an exact zero in the third chunk
        step = subclust.BLOCK_ELEMENTS // (8 * 128 * 9)
        got, seen = self.chunked(monkeypatch, X, protos)
        assert seen == [step, step, step, 100 - 3 * step]
        want, flagged = whole_block_distances(X, protos)
        assert not flagged.any()
        assert got.tobytes() == want.tobytes()
        assert got[63, 7] == 0.0

    def test_flagged_rows_in_different_chunks_keep_their_bytes(self, monkeypatch):
        # Prototypes near 0 at scale 1e-150: rows at that scale underflow
        # every squared distance below _SMALL, rows of 1e200 overflow them
        # to inf, and the ordinary rows in between take neither path.
        rng = np.random.default_rng(37)
        protos = rng.uniform(size=(128, 9)) * 1e-150
        X = rng.uniform(size=(100, 9))
        X[[5, 60]] = rng.uniform(size=(2, 9)) * 1e-150
        X[[30, 99]] = 1e200
        X[99, 4] = -1e200
        got, seen = self.chunked(monkeypatch, X, protos)
        step = seen[0]
        assert len({i // step for i in (5, 30, 60, 99)}) == 4
        want, flagged = whole_block_distances(X, protos)
        assert np.flatnonzero(flagged).tolist() == [5, 30, 60, 99]
        assert got.tobytes() == want.tobytes()
        assert np.all(got[[5, 60]] > 0.0) and np.isfinite(got).all()


class TestCertaintyDegrees:
    def test_single_class(self):
        ds = Dataset(np.array([[0.1], [0.4], [0.9]]), np.zeros(3, dtype=int), ("only",))
        r = certainty_degrees(ds, np.array([[0.2], [0.8]]), Fuzzifiers())
        assert np.allclose(r, 1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.uniform(size=(30, 2)), rng.integers(0, 3, 30), ("a", "b", "c"))
        r = certainty_degrees(ds, rng.uniform(size=(5, 2)), Fuzzifiers())
        assert r.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-9)
        assert np.all((r >= 0.0) & (r <= 1.0))

    def test_matches_reference(self):
        from frm_reference import certainty as ref_certainty

        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 2))
        y = rng.integers(0, 2, 12)
        y[0], y[1] = 0, 1
        protos = rng.uniform(size=(3, 2))
        ds = Dataset(X, y, ("a", "b"))
        got = certainty_degrees(ds, protos, Fuzzifiers(1.5, 2.5))
        want = ref_certainty(X.tolist(), y.tolist(), protos.tolist(), 1.5, 2.5, 2)
        assert got == pytest.approx(np.array(want), abs=1e-12)

    def test_empty_training_set_refused(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0), ("a",))
        with pytest.raises(DataError, match="certainty degrees need a non-empty training set"):
            certainty_degrees(ds, np.zeros((1, 2)), Fuzzifiers())

    def test_prototype_width_checked(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3), ("a",))
        with pytest.raises(DataError, match="input has 2 features but prototypes have 3"):
            certainty_degrees(ds, np.zeros((1, 3)), Fuzzifiers())

    def test_requires_labels(self):
        # certainty_degrees takes a Dataset, and Dataset is the one place that
        # refuses a pattern without a class (a label below 0).
        with pytest.raises(DataError, match=r"labels must be integers in 0\.\.0"):
            Dataset(np.array([[0.1]]), np.array([-1]), ("a",))

    def test_single_cluster_gives_class_frequencies(self):
        ds = Dataset(
            np.array([[0.0], [0.2], [0.4], [1.0]]), np.array([0, 0, 0, 1]), ("a", "b")
        )
        r = certainty_degrees(ds, np.array([[0.5]]), Fuzzifiers())
        assert r[0] == pytest.approx([0.75, 0.25])


def one_shot_certainty(ds, protos, fz):
    """The certainty as one sum over the whole training set: the form the
    blocked running sums must match byte for byte."""
    lower, upper = rulebase.membership_bounds(ds.features, protos, fz)
    U = 0.5 * (lower + upper)
    per_class = np.stack([U[ds.labels == j].sum(axis=0) for j in range(ds.num_classes)], axis=1)
    totals = U.sum(axis=0)
    degenerate = totals <= 0.0
    totals[degenerate] = 1.0
    R = per_class / totals[:, None]
    R[degenerate] = 1.0 / ds.num_classes
    return R


def certainty_rows(c, N):
    """Rows per block of certainty_degrees at c rules of N features."""
    return max(1, subclust.BLOCK_ELEMENTS // (c * N))


class TestBlockedCertainty:
    """certainty_degrees walks the training set in blocks of
    BLOCK_ELEMENTS // (c * N) rows; its sums keep the bytes of one sum."""

    FZ = Fuzzifiers(1.5, 2.5)

    def blocked(self, monkeypatch, budget, ds, protos, fz=FZ):
        with monkeypatch.context() as m:
            m.setattr(subclust, "BLOCK_ELEMENTS", budget)
            return certainty_degrees(ds, protos, fz)

    def check(self, monkeypatch, ds, protos, budgets, fz=FZ):
        assert len(ds) <= certainty_rows(*protos.shape)  # one block at the default budget
        whole = certainty_degrees(ds, protos, fz)
        assert np.array_equal(whole, one_shot_certainty(ds, protos, fz))
        for budget in budgets:
            assert np.array_equal(self.blocked(monkeypatch, budget, ds, protos, fz), whole), budget
        return whole

    def random_set(self, seed, n, N, M, c):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, N))
        labels = rng.integers(0, M, n)
        labels[:M] = np.arange(M)
        return Dataset(X, labels, tuple("abcd"[:M])), X[rng.choice(n, c, replace=False)]

    def test_one_row_blocks(self, monkeypatch):
        ds, protos = self.random_set(40, 57, 3, 3, 6)
        self.check(monkeypatch, ds, protos, [1, 6])

    def test_uneven_last_block(self, monkeypatch):
        ds, protos = self.random_set(41, 1000, 4, 2, 7)
        budgets = [28 * 9, 28 * 285]  # 9 and 285 rows a block at 7 rules x 4 features
        assert [1000 % (b // 28) for b in budgets] == [1, 145]
        self.check(monkeypatch, ds, protos, budgets)

    def test_block_without_rows_of_a_class(self, monkeypatch):
        # Sorted labels: at 10 rows per block, blocks hold one class only,
        # and one block straddles classes 1 and 2.
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(45, 2))
        labels = np.repeat([0, 1, 2], [20, 15, 10])
        ds = Dataset(X, labels, ("a", "b", "c"))
        self.check(monkeypatch, ds, X[[3, 22, 40, 41]], [8 * 10, 8 * 7])

    def test_one_rule(self, monkeypatch):
        ds, protos = self.random_set(43, 90, 2, 3, 1)
        R = self.check(monkeypatch, ds, protos, [1, 2 * 7])
        assert np.array_equal(R[0], ds.class_counts() / len(ds))

    def test_one_class(self, monkeypatch):
        ds, protos = self.random_set(44, 90, 2, 1, 5)
        R = self.check(monkeypatch, ds, protos, [5, 10 * 12])
        assert np.array_equal(R, np.ones((5, 1)))

    def test_duplicate_and_on_prototype_rows(self, monkeypatch):
        rng = np.random.default_rng(45)
        X = np.round(rng.uniform(size=(80, 2)), 1)  # many duplicate rows
        X[60:] = X[:20]
        labels = rng.integers(0, 2, 80)
        protos = X[[0, 5, 5, 33, 61]]  # every prototype sits on rows; two coincide
        ds = Dataset(X, labels, ("a", "b"))
        self.check(monkeypatch, ds, protos, [1, 10 * 3, 10 * 16])

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    @pytest.mark.parametrize("fz", [FZ, Fuzzifiers(2.0, 2.0)])
    def test_midpoints_of_rescaled_rows(self, monkeypatch, scale, fz):
        # Squared distances underflow (1e-170) or overflow (1e200), so every
        # row is rescaled. one_shot_certainty averages min and max of the two
        # partitions, certainty_degrees the partitions themselves: the bytes
        # agree because min(a, b) + max(a, b) is a + b.
        ds, protos = self.random_set(52, 60, 3, 3, 5)  # every prototype on a row
        ds = Dataset(ds.features * scale, ds.labels, ds.class_names)
        self.check(monkeypatch, ds, protos * scale, [1, 7], fz)

    def test_matches_reference(self, monkeypatch):
        from frm_reference import certainty as ref_certainty

        ds, protos = self.random_set(46, 70, 3, 3, 4)
        want = ref_certainty(ds.features.tolist(), ds.labels.tolist(), protos.tolist(),
                             1.5, 2.5, 3)
        for budget in (1, 12 * 9, subclust.BLOCK_ELEMENTS):
            got = self.blocked(monkeypatch, budget, ds, protos)
            assert got == pytest.approx(np.array(want), abs=1e-12)

    def test_memory_does_not_grow_with_the_training_set(self):
        # At 128 rules x 4 features a block is 512 rows, so 5 000 rows
        # already take full blocks; the peak at 20 000 rows must stay that
        # of a block.
        rng = np.random.default_rng(47)
        protos = rng.uniform(size=(128, 4))
        assert certainty_rows(128, 4) * 2 < 5000

        def peak(n):
            ds = Dataset(rng.uniform(size=(n, 4)), rng.integers(0, 2, n), ("a", "b"))
            tracemalloc.start()
            try:
                certainty_degrees(ds, protos, self.FZ)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) <= 1.5 * peak(5000)

    def test_one_block_of_bounds_alive_at_a_time(self):
        # fit_large's certainty at r_a 0.4: 4000 rows x 178 rules x 9
        # features, 163 rows a block, some rows on a prototype. One chunk
        # of a block's differences (at most BLOCK_ELEMENTS bytes) is alive
        # while its distances are built; after them, the running-sum buffer
        # and its two partitions make three (rows, c) arrays, the midpoints
        # written into the buffer. tracemalloc read 0.76 MiB; 2.45 MiB when
        # each block's differences were built whole (numpy 2.4.6). Cut at
        # width c, with the distances cut again inside, three arrays of
        # 1472 rows peaked at 6.4 MiB; with the interval's lower bound as a
        # fourth array at 8.4, and at about 12.9 before that.
        rng = np.random.default_rng(51)
        X = rng.uniform(size=(4000, 9))
        protos = np.vstack([X[rng.choice(4000, 20, replace=False)], rng.uniform(size=(158, 9))])
        ds = Dataset(X, rng.integers(0, 2, 4000), ("a", "b"))
        rows = certainty_rows(178, 9)
        assert 4000 / rows > 20
        tracemalloc.start()
        try:
            certainty_degrees(ds, protos, self.FZ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= subclust.BLOCK_ELEMENTS + 3.5 * rows * 178 * 8


class TestScaledMemberships:
    """Memberships depend only on distance ratios, so scaling patterns and
    prototypes by one factor leaves them as they are, down to where squared
    distances underflow and up to where they overflow."""

    def data(self):
        rng = np.random.default_rng(48)
        X = rng.uniform(size=(40, 3))
        X[5] = X[7]
        labels = rng.integers(0, 2, 40)
        return X, labels, X[[0, 5, 9, 20]]

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-170, 1e-160, 3.7e-290, 1e-150, 1e150,
                                   1e200, 1e300])
    def test_scale_invariant(self, s):
        # At 1e-160 the bounds were off by 1.4e-3; from 1e-170 down every
        # pattern counted as sitting on every prototype, and the certainty
        # fell back toward the class frequencies.
        X, labels, protos = self.data()
        fz = Fuzzifiers()
        lower, upper = rulebase.membership_bounds(X, protos, fz)
        lo_s, up_s = rulebase.membership_bounds(s * X, s * protos, fz)
        assert lo_s == pytest.approx(lower, rel=0, abs=1e-12)
        assert up_s == pytest.approx(upper, rel=0, abs=1e-12)
        R = certainty_degrees(Dataset(X, labels, ("a", "b")), protos, fz)
        R_s = certainty_degrees(Dataset(s * X, labels, ("a", "b")), s * protos, fz)
        assert R_s == pytest.approx(R, rel=0, abs=1e-12)

    def test_exact_zeros_kept(self):
        # Rows on a prototype keep their shares bit for bit when their
        # other distances are rescaled, and a row on every prototype stays.
        protos = np.array([[1e-200, 0.0], [1e-200, 0.0], [3e-200, 1e-200]])
        X = np.array([[1e-200, 0.0], [2e-200, 5e-201], [3e-200, 1e-200]])
        lower, upper = rulebase.membership_bounds(X, protos, Fuzzifiers())
        for mu in (lower, upper):
            assert mu[0].tolist() == [0.5, 0.5, 0.0]
            assert mu[2].tolist() == [0.0, 0.0, 1.0]
            assert np.all(mu[1] > 0.0)
        same = np.full((1, 2), 1e-300)
        lower, upper = rulebase.membership_bounds(same, np.repeat(same, 3, axis=0), Fuzzifiers())
        assert lower.tolist() == upper.tolist() == [[1 / 3] * 3]

    def test_rescale_memory_does_not_grow_with_the_rows(self):
        # Every row overflows, so every row of every classify_batch block is
        # rescaled. Past the scores, the working memory must stay that of a
        # block. It was 10.2 MiB at 5 000 rows and 40.3 MiB at 20 000 when
        # the flagged rows were found over the whole distance matrix.
        rng = np.random.default_rng(49)
        protos = rng.uniform(size=(128, 4))
        rb = batch_model(protos)
        assert 5000 > 4 * block_rows(128, 4)

        def working(n):
            X = rng.uniform(size=(n, 4))
            X[:, 1] = 1e200
            return working_peak(lambda: classify_batch(X, rb))

        assert working(20000) <= 1.5 * working(5000)


class TestBuildRulebase:
    def build(self, ds, params, fz=None, p=2.0):
        norm = fit_normalizer(ds)
        return build_rulebase(normalize_dataset(norm, ds), params, fz or Fuzzifiers(), p, norm)

    def test_baseline_two_classes_two_rules(self):
        ds = gen_circular(3)
        rb = self.build(ds, None)
        assert rb.num_rules == 2
        assert rb.source_classes.tolist() == [0, 1]

    def test_baseline_iris_three_rules(self, iris):
        rb = self.build(iris, None)
        assert rb.num_rules == 3

    def test_baseline_prototype_is_class_mean(self):
        ds = gen_circular(4)
        norm = fit_normalizer(ds)
        normed = normalize_dataset(norm, ds)
        rb = build_rulebase(normed, None, Fuzzifiers(), 2.0, norm)
        for j in (0, 1):
            want = normed.features[normed.labels == j].mean(axis=0)
            assert rb.prototypes[j] == pytest.approx(want, abs=1e-15)

    def test_subclust_prototypes_come_from_class_points(self):
        ds = gen_circular(5)
        norm = fit_normalizer(ds)
        normed = normalize_dataset(norm, ds)
        rb = build_rulebase(normed, SubclustParams(0.3), Fuzzifiers(), 2.0, norm)
        for k in range(rb.num_rules):
            j = rb.source_classes[k]
            members = normed.features[normed.labels == j]
            assert any(np.array_equal(rb.prototypes[k], m) for m in members)

    def test_missing_class_rejected(self):
        ds = Dataset(np.array([[0.1], [0.2]]), np.array([0, 0]), ("a", "b"))
        with pytest.raises(DataError, match="has no training patterns"):
            build_rulebase(ds, None, Fuzzifiers(), 2.0, identity_norm(1))

    def test_pattern_order_irrelevant(self):
        ds = gen_circular(6)
        norm = fit_normalizer(ds)
        normed = normalize_dataset(norm, ds)
        rb1 = build_rulebase(normed, SubclustParams(0.3), Fuzzifiers(), 2.0, norm)
        perm = np.random.default_rng(0).permutation(len(ds))
        shuffled = Dataset(normed.features[perm], normed.labels[perm], ds.class_names)
        rb2 = build_rulebase(shuffled, SubclustParams(0.3), Fuzzifiers(), 2.0, norm)
        assert rb1.num_rules == rb2.num_rules
        assert rb1.prototypes == pytest.approx(rb2.prototypes, abs=1e-12)
        assert rb1.certainty == pytest.approx(rb2.certainty, rel=1e-12)


class TestPersistence:
    def make_rulebase(self):
        ds = gen_circular(9)
        norm = fit_normalizer(ds)
        return build_rulebase(normalize_dataset(norm, ds), SubclustParams(0.4), Fuzzifiers(), 2.0, norm)

    def test_round_trip(self, tmp_path):
        rb = self.make_rulebase()
        path = tmp_path / "model.json"
        save_rulebase(rb, path)
        back = load_rulebase(path)
        assert np.array_equal(back.prototypes, rb.prototypes)
        assert np.array_equal(back.certainty, rb.certainty)
        assert np.array_equal(back.source_classes, rb.source_classes)
        assert back.fuzzifiers == rb.fuzzifiers
        assert back.class_names == rb.class_names
        assert back.aggregation_p == rb.aggregation_p
        assert np.array_equal(back.normalization.minimum, rb.normalization.minimum)
        assert np.array_equal(back.normalization.maximum, rb.normalization.maximum)

    def test_round_trip_memberships_identical(self, tmp_path):
        rb = self.make_rulebase()
        path = tmp_path / "model.json"
        save_rulebase(rb, path)
        back = load_rulebase(path)
        probe = np.array([[4.2, 17.3], [10.0, 10.0]])
        _, scores_a = classify_batch(probe, rb)
        _, scores_b = classify_batch(probe, back)
        assert np.array_equal(scores_a, scores_b)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError, match="not a recognized model"):
            load_rulebase(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "it2frbc-model", "format_version": 99}))
        with pytest.raises(DataError, match="version"):
            load_rulebase(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="malformed"):
            load_rulebase(path)

    def test_hand_written_single_rule_model(self, tmp_path):
        doc = {
            "format": "it2frbc-model",
            "format_version": 1,
            "num_classes": 2,
            "class_names": ["yes", "no"],
            "fuzzifiers": {"m1": 1.5, "m2": 2.5},
            "aggregation_p": 2.0,
            "normalization": {"min": [0.0, 0.0], "max": [1.0, 1.0]},
            "rules": [{"center": [0.5, 0.5], "source_class": 0, "certainty": [1.0, 0.0]}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        rb = load_rulebase(path)
        rng = np.random.default_rng(1)
        preds, _ = classify_batch(rng.uniform(size=(20, 2)), rb)
        assert np.all(preds == 0)

    @pytest.mark.parametrize("key, value, message", [
        ("center", np.nan, r"prototypes must be finite \(rule 2\)"),
        ("center", -np.inf, r"prototypes must be finite \(rule 2\)"),
        ("certainty", np.nan, r"certainty must be finite \(rule 2\)"),
        ("aggregation_p", np.nan, "aggregation_p must be finite"),
        ("aggregation_p", np.inf, "aggregation_p must be finite"),
        ("max", np.inf, "feature 2: span max - min is not finite"),
    ], ids=["center-nan", "center-inf", "certainty-nan", "p-nan", "p-inf", "max-inf"])
    def test_non_finite_field_refused(self, tmp_path, key, value, message):
        # A nan center or exponent used to give class 0 with nan scores on
        # every row; a nan certainty entry, a rule that never fires. The
        # message names the file (it used to, only for the exponent).
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        if key == "aggregation_p":
            doc[key] = value
        elif key == "max":
            doc["normalization"]["max"][1] = value
        else:
            doc["rules"][1][key][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"malformed model file {re.escape(str(path))}: {message}"):
            load_rulebase(path)

    @pytest.mark.parametrize("value", [None, "two", "2", [2], 2.5, 3, "missing"],
                             ids=["null", "text", "digits", "list", "fraction", "mismatch",
                                  "missing"])
    def test_bad_num_classes_refused(self, tmp_path, value):
        # A missing or non-integer count used to escape as KeyError,
        # ValueError or TypeError (exit 3 from the CLI), and "2" or 2.5 was
        # read as 2.
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        if value == "missing":
            del doc["num_classes"]
        else:
            doc["num_classes"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"malformed model file {re.escape(str(path))}: "):
            load_rulebase(path)

    def test_no_rules_refused(self, tmp_path):
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        doc["rules"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"malformed model file {re.escape(str(path))}: .*non-empty"):
            load_rulebase(path)


    @pytest.mark.parametrize("value", [7, -1, 1.7, "1"])
    def test_bad_source_class_refused(self, tmp_path, value):
        # 7 used to raise IndexError in export_rules_text, -1 named the
        # last class and 1.7 was truncated to 1.
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        doc["rules"][1]["source_class"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"malformed model file {re.escape(str(path))}: "
                                            r"source classes must be integers in 0\.\.1"):
            load_rulebase(path)

    def test_nan_source_class_refused(self):
        rb = self.make_rulebase()
        src = rb.source_classes.astype(float)
        src[1] = np.nan
        with pytest.raises(DataError, match=r"source classes must be integers in 0\.\.1"):
            RuleBase(rb.prototypes, src, rb.certainty, rb.fuzzifiers, rb.normalization,
                     rb.class_names)

    def test_whole_float_source_class_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        doc["rules"][1]["source_class"] = 1.0
        path.write_text(json.dumps(doc))
        rb = load_rulebase(path)
        assert rb.source_classes.dtype == np.int64 and rb.source_classes[1] == 1

    @pytest.mark.parametrize("fuzzifiers, p, message", [
        ({"m1": 0.5, "m2": 2.5}, 2.0, "greater than 1"),
        ({"m1": 3.0, "m2": 2.0}, 2.0, "m1 must not exceed m2"),
        ({"m1": 1.5, "m2": np.inf}, 2.0, "m2 must be finite"),
        ({"m1": 1.5, "m2": 2.5}, 0.0, "p=0"),
    ], ids=["m1-below-1", "m1-above-m2", "m2-inf", "p-zero"])
    def test_invalid_parameter_is_a_data_error(self, tmp_path, fuzzifiers, p, message):
        # Used to raise ConfigError (a usage error) without naming the file.
        path = tmp_path / "model.json"
        save_rulebase(self.make_rulebase(), path)
        doc = json.loads(path.read_text())
        doc["fuzzifiers"], doc["aggregation_p"] = fuzzifiers, p
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"malformed model file {re.escape(str(path))}: .*{message}"):
            load_rulebase(path)


class TestExportRules:
    def test_two_rule_format(self):
        ds = gen_circular(2)
        norm = fit_normalizer(ds)
        rb = build_rulebase(normalize_dataset(norm, ds), None, Fuzzifiers(), 2.0, norm)
        text = export_rules_text(rb)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert "IF" in line
            assert line.count(":") >= 2

    def test_full_certainty_shown(self, tmp_path):
        doc = {
            "format": "it2frbc-model",
            "format_version": 1,
            "num_classes": 2,
            "class_names": ["1", "2"],
            "fuzzifiers": {"m1": 1.5, "m2": 2.5},
            "aggregation_p": 2.0,
            "normalization": {"min": [0.0], "max": [1.0]},
            "rules": [{"center": [0.5], "source_class": 0, "certainty": [1.0, 0.0]}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        text = export_rules_text(load_rulebase(path))
        assert "1: 1.000" in text

    def test_iris_baseline_denormalized(self, iris):
        train, _ = split(iris, SplitSpec(0.5, 3))
        norm = fit_normalizer(train)
        rb = build_rulebase(normalize_dataset(norm, train), None, Fuzzifiers(), 2.0, norm)
        text = export_rules_text(rb)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        # Centers back in original units: sepal lengths are in the 4-8 cm range.
        first_coord = float(lines[0].split("(")[1].split(",")[0])
        assert 4.0 < first_coord < 8.0


class TestRuleBaseType:
    def test_caller_arrays_stay_writeable(self):
        rng = np.random.default_rng(30)
        P, R = rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(2), size=5)
        lo, hi = np.zeros(2), np.ones(2)
        rb = RuleBase(P, np.array([0, 0, 1, 1, 1]), R, Fuzzifiers(),
                      NormalizationParams(lo, hi), ("a", "b"))
        X = rng.uniform(size=(20, 2))
        expected = classify_batch(X, rb)[1]
        fields = rb.prototypes.copy(), rb.certainty.copy()
        assert all(a.flags.writeable for a in (P, R, lo, hi))
        P += 1.0
        R[:] = R[:, ::-1]
        lo -= 1.0
        hi += 1.0
        assert np.array_equal(rb.prototypes, fields[0])
        assert np.array_equal(rb.certainty, fields[1])
        assert np.array_equal(classify_batch(X, rb)[1], expected)

    def test_one_source_class_per_prototype(self):
        with pytest.raises(DataError, match="one source class per prototype required"):
            RuleBase(
                prototypes=np.array([[0.2], [0.8]]),
                source_classes=np.array([0]),
                certainty=np.eye(2),
                fuzzifiers=Fuzzifiers(),
                normalization=identity_norm(1),
                class_names=("a", "b"),
            )

    def test_certainty_shape_checked(self):
        with pytest.raises(DataError):
            RuleBase(
                prototypes=np.array([[0.5]]),
                source_classes=np.array([0]),
                certainty=np.array([[1.0]]),
                fuzzifiers=Fuzzifiers(),
                normalization=identity_norm(1),
                class_names=("a", "b"),
            )

    @pytest.mark.parametrize("names", [("a", "a"), (1, "1")])
    def test_class_names_distinct(self, names):
        with pytest.raises(DataError, match="class names must be distinct"):
            RuleBase(
                prototypes=np.array([[0.2], [0.8]]),
                source_classes=np.array([0, 1]),
                certainty=np.eye(2),
                fuzzifiers=Fuzzifiers(),
                normalization=identity_norm(1),
                class_names=names,
            )

    @pytest.mark.parametrize("names", [("\ud800", "b"), ("a", "x\udfff")])
    def test_class_names_utf8(self, names):
        # UTF-8 cannot encode a lone surrogate, so no output file could hold it.
        with pytest.raises(DataError, match="class names must be UTF-8 text"):
            RuleBase(
                prototypes=np.array([[0.2], [0.8]]),
                source_classes=np.array([0, 1]),
                certainty=np.eye(2),
                fuzzifiers=Fuzzifiers(),
                normalization=identity_norm(1),
                class_names=names,
            )

    def test_lone_surrogate_class_name_in_a_model_file(self, tmp_path):
        # JSON's "\ud800" loads as a lone surrogate; the refusal names the file.
        path = tmp_path / "model.json"
        save_rulebase(TestPersistence().make_rulebase(), path)
        doc = json.loads(path.read_text())
        doc["class_names"][0] = "\ud800"
        path.write_text(json.dumps(doc))
        assert '"\\ud800"' in path.read_text()
        message = f"malformed model file {path}: class names must be UTF-8 text"
        with pytest.raises(DataError, match=re.escape(message)):
            load_rulebase(path)
