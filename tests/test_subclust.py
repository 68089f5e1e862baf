import threading
import tracemalloc

import numpy as np
import pytest

from it2frbc import rulebase, subclust
from it2frbc import (
    ConfigError,
    DataError,
    Fuzzifiers,
    SubclustParams,
    build_rulebase,
    classify,
    classify_batch,
    fit_normalizer,
    gen_circular,
    gen_irregular,
    initial_potentials,
    normalize_dataset,
    subtractive_cluster,
)

from frm_reference import subtractive_cluster as ref_subtractive_cluster

# Frozen oracle values for the 3-point set {(0,0), (0,0.1), (1,1)} at
# r_a = 0.5 (alpha = 16, beta = 10.24), evaluated independently at
# 30-digit precision.
THREE_POINTS = np.array([[0.0, 0.0], [0.0, 0.1], [1.0, 1.0]])
THREE_INITIAL = [1.8521437889662240, 1.8521437889664761, 1.0000000000002774]
THREE_REVISED = [0.18027209603427560, 0.0, 0.99999998346973690]


class TestParams:
    def test_defaults(self):
        p = SubclustParams(0.5)
        assert p.rb_ratio == 1.25
        assert p.accept_ratio == 0.5
        assert p.reject_ratio == 0.15
        assert p.alpha == pytest.approx(16.0)
        assert p.beta == pytest.approx(10.24)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_a=0.0),
            dict(r_a=-1.0),
            dict(r_a=0.5, rb_ratio=0.0),
            dict(r_a=0.5, accept_ratio=0.0),
            dict(r_a=0.5, accept_ratio=1.5),
            dict(r_a=0.5, reject_ratio=0.9),
            dict(r_a=0.5, reject_ratio=-0.1),
            # alpha = 4/r_a**2 or beta = 4/r_b**2 not finite and positive:
            # r_a**2 underflows to 0 (ZeroDivisionError), overflows
            # (OverflowError), is subnormal (alpha = inf), or is inf (alpha = 0).
            dict(r_a=float("nan")),
            dict(r_a=1e-200),
            dict(r_a=1e200),
            dict(r_a=1e-155),
            dict(r_a=float("inf")),
            dict(r_a=0.5, rb_ratio=float("nan")),
            dict(r_a=0.5, rb_ratio=1e-200),
            dict(r_a=0.5, rb_ratio=1e200),
            dict(r_a=0.5, rb_ratio=float("inf")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SubclustParams(**kwargs)


class TestInitialPotentials:
    def test_single_point(self):
        field = initial_potentials(np.array([[3.0, 4.0]]), SubclustParams(1.0))
        assert field.tolist() == [1.0]

    def test_two_coincident(self):
        field = initial_potentials(np.zeros((2, 2)), SubclustParams(1.0))
        assert field.tolist() == [2.0, 2.0]

    def test_three_point_oracle(self):
        field = initial_potentials(THREE_POINTS, SubclustParams(0.5))
        assert field == pytest.approx(THREE_INITIAL, rel=1e-14)

    def test_all_at_least_one(self):
        rng = np.random.default_rng(0)
        field = initial_potentials(rng.normal(size=(30, 3)), SubclustParams(0.3))
        assert np.all(field >= 1.0)

    def test_dimension_check(self):
        with pytest.raises(DataError):
            initial_potentials(np.zeros(3), SubclustParams(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_refused(self, bad):
        # A nan column made every potential nan and the loop returned nan centers.
        pts = np.array([[0.0, 0.0], [1.0, bad], [0.5, 0.5]])
        for run in (initial_potentials, subtractive_cluster):
            with pytest.raises(DataError, match="finite"):
                run(pts, SubclustParams(0.5))


class TestRowBlockWalker:
    """_row_blocks: slices of max(1, BLOCK_ELEMENTS // max(1, width)) rows."""

    @pytest.mark.parametrize("n, width, budget", [
        (1, 128, 1 << 18), (2048, 128, 1 << 18), (2049, 128, 1 << 18), (10_000, 128, 1 << 18),
        (7, 3, 10), (5, 0, 4), (6, 40, 7), (3, 10**6, 1 << 18), (100, 1, 1)])
    def test_slices_cover_the_rows_once_in_order(self, monkeypatch, n, width, budget):
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", budget)
        step = max(1, budget // max(1, width))
        blocks = list(subclust._row_blocks(n, width))
        assert [i for s in blocks for i in range(n)[s]] == list(range(n))
        assert all(0 < s.stop - s.start <= step for s in blocks)
        assert all(s.stop - s.start == step for s in blocks[:-1])

    def test_no_rows_no_blocks(self):
        assert list(subclust._row_blocks(0, 128)) == []

    def test_zero_width_takes_the_whole_budget(self, monkeypatch):
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 4)
        assert list(subclust._row_blocks(9, 0)) == [slice(0, 4), slice(4, 8), slice(8, 9)]

    def test_width_over_the_budget_takes_one_row(self, monkeypatch):
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 4)
        assert list(subclust._row_blocks(3, 5)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def broadcast_differences(A, B):
    """The plain broadcast that subclust._differences must match bit for bit,
    on C-ordered operands: the broadcast of a Fortran-ordered A is laid out
    in Fortran order, and einsum's sums follow the layout."""
    return np.ascontiguousarray(A)[:, None, :] - np.ascontiguousarray(B)


def squared_norms(diff):
    return np.einsum("ijk,ijk->ij", diff, diff)


def difference_cases():
    rng = np.random.default_rng(14)
    B = rng.uniform(-1.0, 1.0, size=(6, 3))
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]])
    return {
        "one-row": (rng.uniform(size=(1, 3)), B),
        "one-feature": (rng.uniform(size=(5, 1)), rng.uniform(size=(4, 1))),
        "one-prototype": (rng.uniform(size=(5, 3)), B[:1]),
        "fortran-order": (np.asfortranarray(rng.uniform(size=(5, 3))), B),
        "column-sliced": (rng.uniform(size=(5, 9))[:, ::3], B),
        "signed-zeros": (zeros, zeros[::-1].copy()),
        # Squared distances overflow / underflow: _distances rescales the rows.
        "huge": (rng.uniform(size=(5, 3)) * 1e300, B * 1e300),
        "tiny": (rng.uniform(size=(5, 3)) * 1e-300, B * 1e-300),
        "one-row-fortran-other": (rng.uniform(size=(1, 3)), np.asfortranarray(B)),
    }


@pytest.fixture(scope="module")
def wbcd_model(wbcd):
    norm = fit_normalizer(wbcd)
    return build_rulebase(normalize_dataset(norm, wbcd), SubclustParams(0.4), Fuzzifiers(), 2.0,
                          norm)


class TestSharedDifferences:
    """subclust._differences, the one pairwise-difference block of the
    potential field and the rule base's distances, gives the broadcast's
    bytes: the differences, their squared norms and everything built on them."""

    @pytest.mark.parametrize("case", list(difference_cases()))
    def test_block_equals_the_broadcast(self, case):
        A, B = difference_cases()[case]
        got, want = subclust._differences(A, B), broadcast_differences(A, B)
        assert got.shape == want.shape == (len(A), len(B), A.shape[1])
        assert got.tobytes() == want.tobytes()
        assert squared_norms(got).tobytes() == squared_norms(want).tobytes()

    @pytest.mark.parametrize("case", list(difference_cases()))
    def test_distances_equal_the_broadcast(self, monkeypatch, case):
        A, B = difference_cases()[case]
        got = rulebase._distances(A, B)
        if case in ("huge", "tiny"):  # the rows take the rescale path
            sq = squared_norms(broadcast_differences(A, B))
            assert sq.max() == np.inf or sq.min() < rulebase._SMALL
        monkeypatch.setattr(rulebase, "_differences", broadcast_differences)
        assert got.tobytes() == rulebase._distances(A, B).tobytes()

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_blocks_equal_the_broadcast(self, monkeypatch, budget):
        rng = np.random.default_rng(15)
        X = np.round(rng.uniform(size=(13, 2)), 1)  # coincident points likely
        protos = rng.uniform(size=(5, 2))
        params = SubclustParams(0.3)
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", budget)
        got = initial_potentials(X, params), rulebase._distances(X, protos)
        monkeypatch.setattr(subclust, "_differences", broadcast_differences)
        monkeypatch.setattr(rulebase, "_differences", broadcast_differences)
        want = initial_potentials(X, params), rulebase._distances(X, protos)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_layout_of_the_input_moves_no_bit(self, monkeypatch, wbcd, wbcd_model):
        # A broadcast over a Fortran-ordered batch gave squared norms that
        # differ in the last bits from the same values in C order, and so
        # other classify_batch scores; the repeated block is C-ordered.
        rng = np.random.default_rng(17)
        A, B = rng.uniform(size=(300, 9)), rng.uniform(size=(30, 9))
        F = np.asfortranarray(A)
        assert (squared_norms(subclust._differences(F, B)).tobytes()
                == squared_norms(subclust._differences(A, B)).tobytes())
        X, rb = wbcd.features[::3], wbcd_model
        assert np.array_equal(classify_batch(np.asfortranarray(X), rb)[1], classify_batch(X, rb)[1])
        # One-row blocks, as the potentials of a large point set take: the
        # other operand, X itself, is then the Fortran-ordered one (a
        # one-row broadcast gave 4 of these 300 potentials other bytes).
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 1)
        params = SubclustParams(0.4)
        assert initial_potentials(F, params).tobytes() == initial_potentials(A, params).tobytes()
        assert rulebase._distances(B, F).tobytes() == rulebase._distances(B, A).tobytes()

    def test_classify_equals_its_row_of_a_multi_block_batch(self, wbcd, wbcd_model):
        rb = wbcd_model
        rows = max(1, subclust.BLOCK_ELEMENTS // rb.num_rules)
        rng = np.random.default_rng(16)
        X = wbcd.features[rng.integers(0, len(wbcd), rows + 300)]
        X = X + rng.normal(0.0, 0.3, size=X.shape)
        _, scores = classify_batch(X, rb)
        assert len(X) > rows
        for x, row in zip(X, scores):
            assert classify(x, rb).scores.tobytes() == row.tobytes()


def single_shot_potentials(X, alpha):
    """The full (n, n, N) difference tensor form the row blocks must match."""
    diff = X[:, None, :] - X[None, :, :]
    return np.exp(-alpha * np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=1)


def block_rows(m, N):
    return max(1, subclust.BLOCK_ELEMENTS // (m * N))


class TestBlockedPotentials:
    def test_several_blocks_with_partial_last_block(self):
        X = np.random.default_rng(10).uniform(size=(300, 9))
        X[250] = X[3]  # coincident pair across blocks
        rows = block_rows(300, 9)
        assert 1 < rows < 300 and 300 % rows != 0
        params = SubclustParams(0.4)
        got = initial_potentials(X, params)
        assert np.array_equal(got, single_shot_potentials(X, params.alpha))

    # Budgets below m*N = 228 force one row per block; a real row over the
    # default budget needs n*N > 2**18, too large for the single-shot reference.
    @pytest.mark.parametrize("budget", [1, 7, 50, 1000])
    def test_independent_of_block_size(self, monkeypatch, budget):
        X = np.round(np.random.default_rng(12).uniform(size=(57, 4)), 1)
        params = SubclustParams(0.3)
        expected = single_shot_potentials(X, params.alpha)
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", budget)
        assert np.array_equal(initial_potentials(X, params), expected)

    def test_peak_memory_is_bounded(self):
        # The (n, n, N) tensor alone would be 2000*2000*9*8 bytes = 288 MB.
        X = np.random.default_rng(13).uniform(size=(2000, 9))
        tracemalloc.start()
        try:
            initial_potentials(X, SubclustParams(0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_one_difference_block_alive_at_a_time(self):
        # fit_large's larger class: 2552 x 9 points in 11-row blocks of 2 MB.
        # A block kept until the next is built makes two.
        n, N = 2552, 9
        X = np.random.default_rng(14).uniform(size=(n, N))
        block = block_rows(n, N) * n * N * 8
        tracemalloc.start()
        try:
            initial_potentials(X, SubclustParams(0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block


def revise(field, pts, k, params):
    """One revision step of the clustering loop, on plain arrays."""
    return subclust._revised(field, pts, k, params.beta)[0]


class TestRevisePotentials:
    def test_center_potential_becomes_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        params = SubclustParams(0.8)
        field = initial_potentials(pts, params)
        k = int(field.argmax())
        revised = revise(field, pts, k, params)
        assert revised[k] == 0.0

    def test_far_point_unchanged(self):
        pts = np.array([[0.0], [1e9]])
        params = SubclustParams(1.0)
        field = initial_potentials(pts, params)
        revised = revise(field, pts, 0, params)
        assert revised[1] == field[1]

    def test_three_point_oracle(self):
        params = SubclustParams(0.5)
        field = initial_potentials(THREE_POINTS, params)
        assert int(field.argmax()) == 1
        revised, d2 = subclust._revised(field, THREE_POINTS, 1, params.beta)
        assert revised == pytest.approx(THREE_REVISED, rel=1e-12, abs=1e-15)
        assert d2 == pytest.approx([0.01, 0.0, 1.81], rel=1e-15)

    def test_never_increases(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(25, 2))
        params = SubclustParams(0.4)
        field = initial_potentials(pts, params)
        revised = revise(field, pts, int(field.argmax()), params)
        assert np.all(revised <= field)


class TestSubtractiveCluster:
    def test_single_point(self):
        centers = subtractive_cluster(np.array([[2.0, 3.0]]), SubclustParams(0.5))
        assert centers.tolist() == [[2.0, 3.0]]

    def test_two_dense_blobs(self):
        # 10 coincident points per blob: potentials are near-exact integers
        # (10 + 10*exp(-alpha*50) per point); the loop accepts exactly one
        # center per blob and then stops.
        pts = np.vstack([np.zeros((10, 2)), np.full((10, 2), 5.0)])
        centers = subtractive_cluster(pts, SubclustParams(1.0))
        assert centers.shape == (2, 2)
        assert centers[0].tolist() == [0.0, 0.0]
        assert centers[1].tolist() == [5.0, 5.0]

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        centers = subtractive_cluster(pts, SubclustParams(0.5))
        assert centers[0].tolist() == [0.0, 0.0]

    def test_centers_are_input_points(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(60, 2))
        centers = subtractive_cluster(pts, SubclustParams(0.3))
        as_set = {tuple(p) for p in pts}
        assert all(tuple(c) in as_set for c in centers)

    def test_translation_covariance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(40, 2))
        shift = np.array([13.5, -2.25])
        a = subtractive_cluster(pts, SubclustParams(0.35))
        b = subtractive_cluster(pts + shift, SubclustParams(0.35))
        assert a.shape == b.shape
        assert np.allclose(a + shift, b, atol=1e-9)

    def test_radius_controls_count_on_benchmark(self):
        ds = gen_circular(11)
        ring = ds.features[ds.labels == 1] / 20.0
        small = subtractive_cluster(ring, SubclustParams(0.2))
        large = subtractive_cluster(ring, SubclustParams(0.6))
        assert small.shape[0] > large.shape[0]

    def test_always_at_least_one_center(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(10, 2))
        centers = subtractive_cluster(pts, SubclustParams(5.0))
        assert centers.shape[0] >= 1


def per_class_point_sets(iris):
    """Each class of normalized Iris, circular and irregular, and a random
    set with duplicate rows."""
    sets = []
    for ds in (iris, gen_circular(0), gen_irregular(0)):
        ds = normalize_dataset(fit_normalizer(ds), ds)
        sets += [ds.features[ds.labels == j] for j in range(ds.num_classes)]
    rng = np.random.default_rng(0)
    base = np.round(rng.uniform(size=(30, 2)), 3)
    sets.append(np.vstack([base, base[rng.integers(0, 30, 10)]]))
    return sets


class TestAgainstReference:
    @pytest.mark.parametrize("r_a", [0.2, 0.3, 0.5])
    def test_same_centers_as_straight_line_loop(self, iris, r_a):
        band = 0
        for pts in per_class_point_sets(iris):
            expected, decisions = ref_subtractive_cluster(pts.tolist(), r_a)
            got = subtractive_cluster(pts, SubclustParams(r_a))
            assert np.array_equal(got, np.array(expected))
            # Every comparison is decided by more than rounding could move it.
            assert min(margin for _, margin in decisions) > 1e-9
            band += sum(kind == "d_min" for kind, _ in decisions)
        assert band > 0


def cluster_within(seconds, points, params):
    """Run subtractive_cluster in a daemon thread; fail if it has not returned."""
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(centers=subtractive_cluster(points, params)), daemon=True
    )
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "subtractive clustering did not terminate"
    return result["centers"]


class TestTermination:
    def test_zero_reject_ratio_terminates(self):
        # Accepted centers sit at potential <= 0, which a zero reject ratio
        # does not stop at; argmax must never return one again.
        rng = np.random.default_rng(20)
        for _ in range(20):
            pts = rng.uniform(size=(30, 2))
            centers = cluster_within(30.0, pts, SubclustParams(0.3, reject_ratio=0.0))
            as_rows = {tuple(c) for c in centers}
            assert len(as_rows) == centers.shape[0] <= 30
            assert as_rows <= {tuple(p) for p in pts}

    def test_search_ends_when_every_point_is_used(self):
        # The duplicate of the first center is revised to exactly 0 and then
        # discarded (d_min = 0); the loop must end there, below the cap.
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        centers = cluster_within(30.0, pts, SubclustParams(0.5, reject_ratio=0.0))
        assert centers.tolist() == [[0.0, 0.0], [10.0, 10.0]]

    def test_discarded_candidates_leave_the_search(self):
        rng = np.random.default_rng(21)
        pts = np.round(rng.uniform(size=(60, 2)), 1)
        params = SubclustParams(0.25, accept_ratio=1.0, reject_ratio=0.0)
        centers = cluster_within(30.0, pts, params)
        assert len({tuple(c) for c in centers}) == centers.shape[0]
