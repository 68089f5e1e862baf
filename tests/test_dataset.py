import warnings

import numpy as np
import pytest

from it2frbc import (
    ConfigError,
    DataError,
    Dataset,
    NormalizationParams,
    SplitSpec,
    fit_normalizer,
    gen_circular,
    gen_irregular,
    load_csv,
    save_csv,
    split,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_wbcd_drop_row(self, wbcd):
        assert len(wbcd) == 683
        assert wbcd.num_classes == 2
        assert wbcd.num_features == 9
        assert wbcd.class_names == ("benign", "malignant")

    def test_wbcd_error_policy(self, data_dir):
        with pytest.raises(DataError, match="line"):
            load_csv(data_dir / "wbcd.csv", -1, missing_policy="error")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(write(tmp_path, ""), -1)

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(write(tmp_path, "a,b,label\n"), -1)

    def test_first_appearance_label_mapping(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2,a\n3,4,b\n5,6,a\n"), -1)
        assert ds.num_classes == 2
        assert ds.class_names == ("a", "b")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_header_autodetect(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y,label\n1,2,a\n3,4,b\n"), -1)
        assert len(ds) == 2

    def test_numeric_labels_stay_strings(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2,4\n3,4,2\n5,6,4\n"), -1)
        assert ds.class_names == ("4", "2")

    def test_malformed_row_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 3"):
            load_csv(write(tmp_path, "1,2,a\n3,4,b\n5,6\n"), -1)

    def test_non_numeric_feature_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_csv(write(tmp_path, "1,2,a\nx,4,b\n"), -1)

    def test_unknown_missing_policy(self, tmp_path):
        path = write(tmp_path, "1.0,a\n")
        with pytest.raises(ConfigError, match="unknown missing_policy 'impute'"):
            load_csv(path, -1, "impute")

    def test_label_only_file(self, tmp_path):
        path = write(tmp_path, "label\na\nb\n")
        with pytest.raises(DataError, match="need at least one feature column"):
            load_csv(path, -1)

    def test_label_column_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="label column"):
            load_csv(write(tmp_path, "1,2,a\n"), 5)

    def test_missing_marks(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2,a\n?,4,b\n5,,a\n7,8,b\n"), -1)
        assert len(ds) == 2

    def test_label_column_position(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,1,2\nb,3,4\n"), 0)
        assert ds.class_names == ("a", "b")
        assert ds.features.tolist() == [[1, 2], [3, 4]]

    def test_iris(self, iris):
        assert len(iris) == 150
        assert iris.num_features == 4
        assert iris.class_names == ("setosa", "versicolor", "virginica")
        assert iris.class_counts().tolist() == [50, 50, 50]


class TestNormalization:
    def test_fit_ranges(self):
        ds = Dataset(np.array([[0.0, 5.0], [10.0, 5.0]]), np.array([0, 1]), ("a", "b"))
        params = fit_normalizer(ds)
        assert params.minimum.tolist() == [0.0, 5.0]
        assert params.maximum.tolist() == [10.0, 5.0]

    def test_single_pattern(self):
        ds = Dataset(np.array([[3.0, 4.0]]), np.array([0]), ("a",))
        params = fit_normalizer(ds)
        assert params.minimum.tolist() == params.maximum.tolist() == [3.0, 4.0]

    def test_midpoint(self):
        params = NormalizationParams(np.array([0.0]), np.array([20.0]))
        assert params.apply(np.array([10.0]))[0] == 0.5

    def test_constant_feature_maps_to_half(self):
        params = NormalizationParams(np.array([5.0]), np.array([5.0]))
        assert params.apply(np.array([5.0]))[0] == 0.5

    def test_out_of_range_unclamped(self):
        params = NormalizationParams(np.array([0.0]), np.array([20.0]))
        assert params.apply(np.array([25.0]))[0] == 1.25

    def test_dimension_mismatch(self):
        params = NormalizationParams(np.array([0.0]), np.array([1.0]))
        with pytest.raises(DataError, match="1"):
            params.apply(np.array([1.0, 2.0]))

    def test_fit_source_lands_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(3.0, 10.0, size=(40, 3))
        ds = Dataset(X, np.zeros(40, dtype=int), ("a",))
        params = fit_normalizer(ds)
        normed = params.apply(ds.features)
        assert normed.min() >= 0.0 and normed.max() <= 1.0

    def test_invert_round_trip(self):
        params = NormalizationParams(np.array([-2.0, 1.0]), np.array([6.0, 1.0]))
        X = np.array([[0.0, 1.0], [4.0, 1.0]])
        assert np.allclose(params.invert(params.apply(X))[:, 0], X[:, 0])

    @staticmethod
    def assert_per_column_formula(constant):
        # (x - min) / span per column, a constant column at exactly 0.5.
        rng = np.random.default_rng(14)
        lo = rng.normal(size=9) * 10.0 ** rng.uniform(-5, 5, size=9)
        hi = lo + rng.uniform(0.1, 10.0, size=9) * 10.0 ** rng.uniform(-5, 5, size=9)
        if constant is not None:
            hi[constant] = lo[constant]
        X = rng.normal(size=(1000, 9)) * 10.0 ** rng.uniform(-5, 5, size=9)
        want = np.empty_like(X)
        for k in range(9):
            want[:, k] = 0.5 if k == constant else (X[:, k] - lo[k]) / (hi[k] - lo[k])
        params = NormalizationParams(lo, hi)
        assert np.array_equal(params.apply(X), want)
        for i in range(3):
            assert np.array_equal(params.apply(X[i]), want[i])

    def test_matches_per_column_formula(self):
        self.assert_per_column_formula(constant=4)

    def test_matches_per_column_formula_without_constant_column(self):
        # apply() skips the constant-column fill when there is none.
        self.assert_per_column_formula(constant=None)

    def test_overflowing_value_refused(self):
        # 1e300 over a span of 1e-10 used to become inf, and inference then
        # gave class 0 with scores [0, 0] and only RuntimeWarnings.
        params = NormalizationParams(np.array([0.0, 0.0]), np.array([2.0, 1e-10]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="feature 2"):
                params.apply(np.array([[1.0, 0.5], [1.0, 1e300]]))
            with pytest.raises(DataError, match="feature 2"):
                params.apply(np.array([1.0, -1e300]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("hi", [[2.0, 1e-10], [2.0, 0.0]])
    def test_non_finite_input_refused(self, bad, hi):
        # Refused as input, not as an overflow, in any column; a constant
        # column (max 0 = min) maps every finite value to 0.5 and must not
        # hide a nan or inf.
        params = NormalizationParams(np.array([0.0, 0.0]), np.array(hi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X in ([[1.0, 0.5], [1.0, bad]], [bad, 0.5], [0.5, bad]):
                with pytest.raises(DataError, match="input features must be finite"):
                    params.apply(np.array(X))

    def test_overflow_in_constant_column_maps_to_half(self):
        # The finite value overflows on its way, but a constant column maps
        # it to 0.5 all the same.
        params = NormalizationParams(np.array([0.0, -1e308]), np.array([1e-10, -1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert params.apply(np.array([0.0, 1e308])).tolist() == [0.0, 0.5]
            with pytest.raises(DataError, match="feature 1: value does not normalize"):
                params.apply(np.array([[0.0, 0.0], [1e300, 1e308]]))

    def test_overflowing_span_refused(self):
        # max - min of a column holding +-1e308 is inf: every value of it
        # would normalize to 0 or nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="feature 1"):
                NormalizationParams(np.array([-1e308, 0.0]), np.array([1e308, 1.0]))
            ds = Dataset(np.array([[1e308, 0.0], [-1e308, 1.0]]), np.array([0, 1]), ("a", "b"))
            with pytest.raises(DataError, match="feature 1"):
                fit_normalizer(ds)


class TestSplit:
    def test_sizes_186(self):
        ds = gen_circular(3)
        train, test = split(ds, SplitSpec(0.5, 11))
        assert (len(train), len(test)) == (93, 93)

    def test_sizes_150(self, iris):
        train, test = split(iris, SplitSpec(0.5, 11))
        assert (len(train), len(test)) == (75, 75)

    def test_determinism(self):
        ds = gen_circular(3)
        a = split(ds, SplitSpec(0.5, 7))
        b = split(ds, SplitSpec(0.5, 7))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_partition(self):
        ds = gen_circular(3)
        train, test = split(ds, SplitSpec(0.5, 9))
        merged = np.vstack([train.features, test.features])
        assert np.array_equal(
            np.sort(merged.view([("", float)] * 2), axis=0),
            np.sort(ds.features.view([("", float)] * 2), axis=0),
        )

    def test_stratified_proportions(self):
        ds = gen_circular(3)
        train, _ = split(ds, SplitSpec(0.5, 13, stratified=True))
        counts = train.class_counts()
        assert counts[0] in (31, 32)
        assert counts[1] in (61, 62)

    def test_stratified_untrainable(self):
        ds = Dataset(
            np.arange(20, dtype=float).reshape(10, 2),
            np.array([0] * 9 + [1]),
            ("a", "b"),
        )
        with pytest.raises(DataError, match="absent from train"):
            split(ds, SplitSpec(0.2, 1, stratified=True))

    def test_too_small(self):
        ds = Dataset(np.array([[1.0]]), np.array([0]), ("a",))
        with pytest.raises(DataError):
            split(ds, SplitSpec(0.5, 1))

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 1)


class TestGenCircular:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_counts_and_geometry(self, seed):
        ds = gen_circular(seed)
        assert len(ds) == 186
        assert ds.class_counts().tolist() == [63, 123]
        d = np.hypot(ds.features[:, 0] - 10.0, ds.features[:, 1] - 10.0)
        assert np.all(d[ds.labels == 0] < 5.0)
        assert np.all(d[ds.labels == 1] > 7.0)
        assert not np.any((d >= 5.0) & (d <= 7.0))
        assert ds.features.min() >= 0.0 and ds.features.max() <= 20.0

    def test_determinism(self):
        a, b = gen_circular(42), gen_circular(42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def best_linear_accuracy(X, y, grid=50):
    """Exhaustive search over a coarse grid of separating lines."""
    best = 0.0
    for ang in np.linspace(0.0, np.pi, grid, endpoint=False):
        proj = X @ np.array([np.cos(ang), np.sin(ang)])
        for offset in np.linspace(proj.min(), proj.max(), grid):
            side = proj >= offset
            hit = (side == (y == 0)).mean()
            best = max(best, hit, 1.0 - hit)
    return 100.0 * best


class TestGenIrregular:
    def test_counts(self):
        ds = gen_irregular(0)
        assert len(ds) == 863
        assert ds.class_counts().tolist() == [480, 383]

    def test_determinism(self):
        a, b = gen_irregular(9), gen_irregular(9)
        assert np.array_equal(a.features, b.features)

    def test_not_linearly_separable(self):
        ds = gen_irregular(1)
        assert best_linear_accuracy(ds.features, ds.labels) < 90.0


class TestSeedRule:
    # The generators used to raise numpy's ValueError for a negative seed.
    @pytest.mark.parametrize("make", [
        gen_circular,
        gen_irregular,
        lambda seed: SplitSpec(0.5, seed),
    ], ids=["gen_circular", "gen_irregular", "SplitSpec"])
    def test_negative_seed_refused(self, make):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            make(-1)

    # A split seed of 1.5 used to pass, then raise numpy's TypeError in split.
    @pytest.mark.parametrize("seed", [1.5, "3", None])
    @pytest.mark.parametrize("make", [
        gen_circular,
        gen_irregular,
        lambda seed: SplitSpec(0.5, seed),
    ], ids=["gen_circular", "gen_irregular", "SplitSpec"])
    def test_non_integer_seed_refused(self, make, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            make(seed)

    def test_numpy_integer_seeds_pass(self):
        assert np.array_equal(gen_circular(np.uint8(7)).features, gen_circular(7).features)
        ds = gen_circular(1)
        a, b = split(ds, SplitSpec(0.5, np.int64(3))), split(ds, SplitSpec(0.5, 3))
        assert np.array_equal(a[0].features, b[0].features)


class TestCsvRoundTrip:
    def test_generated_dataset(self, tmp_path):
        ds = gen_circular(5)
        path = tmp_path / "gen.csv"
        save_csv(ds, path)
        back = load_csv(path, -1)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names


class TestInvariantsOfTypes:
    def test_pattern_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(np.array([[0.0, 1.0], [1.0, np.nan]]), np.array([0, 0]), ("a",))

    def test_dataset_rejects_bad_label(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0]]), np.array([2]), ("a", "b"))

    @pytest.mark.parametrize("X, y, names, message", [
        (np.zeros(3), np.zeros(3), ("a",), "features must be a 2-D array"),
        (np.zeros((3, 1)), np.zeros(2), ("a",), "labels must be one per pattern"),
        (np.zeros((1, 1)), np.zeros(1), (), "at least one class name required"),
    ], ids=["1-D features", "labels mismatch", "no class names"])
    def test_dataset_refusals(self, X, y, names, message):
        with pytest.raises(DataError, match=message):
            Dataset(X, y, names)

    def test_normalization_rejects_unequal_shapes(self):
        with pytest.raises(DataError, match="min/max must be 1-D vectors of equal length"):
            NormalizationParams(np.zeros(2), np.ones(3))

    def test_fit_normalizer_rejects_empty_set(self):
        with pytest.raises(DataError, match="cannot fit normalizer on an empty dataset"):
            fit_normalizer(Dataset(np.zeros((0, 2)), np.zeros(0), ("a",)))

    def test_normalization_rejects_inverted_range(self):
        with pytest.raises(DataError):
            NormalizationParams(np.array([2.0]), np.array([1.0]))

    def test_immutable(self):
        ds = gen_circular(0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_caller_arrays_stay_writeable(self):
        X, y = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1])
        lo, hi = np.array([0.0, 1.0]), np.array([2.0, 5.0])
        ds = Dataset(X, y, ("a", "b"))
        norm = NormalizationParams(lo, hi)
        assert all(a.flags.writeable for a in (X, y, lo, hi))
        X[0, 0], y[0], lo[0], hi[0] = 9.0, 1, -9.0, 9.0
        assert ds.features.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert ds.labels.tolist() == [0, 1]
        assert (norm.minimum.tolist(), norm.maximum.tolist()) == ([0.0, 1.0], [2.0, 5.0])
        assert norm.apply(np.array([1.0, 3.0])).tolist() == [0.5, 0.5]
