import contextlib
import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

from it2frbc import (
    ConfigError,
    DataError,
    Dataset,
    ExperimentConfig,
    SplitSpec,
    SubclustParams,
    accuracy,
    classify_batch,
    confusion_matrix,
    emit_report,
    fit_normalizer,
    gen_circular,
    run_experiment,
    save_csv,
    split,
    subtractive_cluster,
    train_and_score,
)
from it2frbc import cli, evaluation, rulebase
from it2frbc.evaluation import RunResult, derive_run_seed


class TestConfusionMatrix:
    def test_counts_true_by_predicted(self):
        rng = np.random.default_rng(4)
        t, p = rng.integers(3, size=50), rng.integers(3, size=50)
        conf = confusion_matrix(t, p, 3)
        assert conf.dtype == np.int64
        for a in range(3):
            for b in range(3):
                assert conf[a, b] == np.count_nonzero((t == a) & (p == b))


class TestAccuracy:
    def test_diagonal(self):
        assert accuracy(np.diag([5, 7, 3])) == 100.0

    def test_even_split(self):
        assert accuracy(np.array([[5, 5], [5, 5]])) == 50.0

    def test_worked_example(self):
        got = accuracy(np.array([[60, 3], [1, 29]]))
        assert got == pytest.approx(95.69892473118280, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy(np.zeros((2, 2), dtype=int))

    def test_no_cells_rejected(self):
        with pytest.raises(DataError, match="empty confusion matrix"):
            accuracy(np.zeros((0, 0), dtype=int))


class TestConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig()
        with pytest.raises(ConfigError):
            ExperimentConfig(generator="circular", data_path="x.csv")

    def test_runs_at_least_one(self):
        with pytest.raises(ConfigError, match="runs must be at least 1"):
            ExperimentConfig(generator="circular", runs=0)

    @pytest.mark.parametrize("runs", [2.5, "2", None])
    def test_runs_must_be_an_integer(self, runs):
        # 2.5 used to pass, then raise TypeError in run_experiment.
        with pytest.raises(ConfigError, match="runs must be an integer"):
            ExperimentConfig(generator="circular", runs=runs)

    @pytest.mark.parametrize("column", [1.5, "1", None])
    def test_label_column_must_be_an_integer(self, column):
        # 1.5 used to pass, then raise TypeError when the CSV was read.
        with pytest.raises(ConfigError, match="label_column must be an integer"):
            ExperimentConfig(data_path="x.csv", label_column=column)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_stratified_must_be_true_or_false(self, value):
        # "no" used to run stratified splits and report "stratified": "no".
        with pytest.raises(ConfigError, match="stratified must be True or False"):
            ExperimentConfig(generator="circular", runs=2, stratified=value)

    def test_numpy_bool_stratified_passes(self):
        cfg = ExperimentConfig(generator="circular", runs=2, stratified=np.True_)
        want = ExperimentConfig(generator="circular", runs=2, stratified=True)
        assert (emit_report(run_experiment(cfg), "json")
                == emit_report(run_experiment(want), "json"))

    @pytest.mark.parametrize("p", ["2", None])
    def test_aggregation_p_must_be_a_number(self, p):
        # "2" used to raise TypeError from np.isfinite.
        with pytest.raises(ConfigError, match="aggregation_p must be a number"):
            ExperimentConfig(generator="circular", aggregation_p=p)

    @pytest.mark.parametrize("source", [{"generator": "circular"}, {"data_path": "x.csv"}],
                             ids=["generator", "data_path"])
    def test_unknown_missing_policy(self, source):
        # Used to pass: a data_path config was refused only when load_csv
        # ran, and a generator config never.
        with pytest.raises(ConfigError, match="unknown missing_policy 'bogus'"):
            ExperimentConfig(**source, missing_policy="bogus")

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_master_seed_must_be_an_integer(self, seed):
        # 1.5 used to pass, then raise TypeError in run_experiment.
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ExperimentConfig(generator="circular", master_seed=seed)

    def test_numpy_integers_pass(self):
        cfg = ExperimentConfig(generator="circular", runs=np.int64(2), master_seed=np.uint32(7))
        want = ExperimentConfig(generator="circular", runs=2, master_seed=7)
        assert (emit_report(run_experiment(cfg), "json")
                == emit_report(run_experiment(want), "json"))

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(generator="wavy")

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_p(self, p):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(generator="circular", aggregation_p=p)

    def test_negative_master_seed(self):
        # Used to pass, then fail in run_experiment with numpy's ValueError.
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ExperimentConfig(generator="circular", master_seed=-1)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ExperimentConfig(data_path="x.csv", master_seed=-1)

    # "0.5" and None used to raise TypeError (exit 3 from the CLI's guard).
    @pytest.mark.parametrize("frac", [0.0, 1.0, float("nan"), "0.5", None])
    def test_train_fraction_rule_is_the_split_rule(self, frac):
        with pytest.raises(ConfigError, match="train_fraction must lie in the open interval"):
            ExperimentConfig(generator="circular", train_fraction=frac)

    def test_defaults_describe(self):
        desc = ExperimentConfig(generator="circular").describe()
        assert desc["runs"] == "32"
        assert desc["train_fraction"] == "0.5"
        assert desc["m1"] == "1.5"
        assert desc["m2"] == "2.5"
        assert desc["aggregation_p"] == "2.0"
        assert desc["r_a"] == "none"


def small_cfg(**kw):
    base = dict(generator="circular", runs=4, master_seed=99, subclust=None)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_run_aggregates(self):
        report = run_experiment(small_cfg(runs=1))
        assert report.best == report.average == report.worst
        assert report.stddev == 0.0

    def test_determinism(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg())
        assert emit_report(a, "json") == emit_report(b, "json")

    def test_reports_compare_by_identity(self):
        # The generated __eq__ compared the runs' confusion arrays and raised
        # "The truth value of an array ... is ambiguous"; reports and runs
        # compare by identity, and their content through the json report.
        a = run_experiment(small_cfg(runs=2))
        b = run_experiment(small_cfg(runs=2))
        assert a == a and a.runs[0] == a.runs[0]
        assert a != b and a.runs[0] != b.runs[0]
        assert emit_report(a, "json") == emit_report(b, "json")

    def test_run_prefix_stable(self):
        short = run_experiment(small_cfg(runs=2))
        longer = run_experiment(small_cfg(runs=4))
        for r_a, r_b in zip(short.runs, longer.runs):
            assert r_a.seed == r_b.seed
            assert r_a.accuracy == r_b.accuracy
            assert r_a.rule_count == r_b.rule_count

    def test_master_seed_changes_results(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg(master_seed=100))
        assert [r.accuracy for r in a.runs] != [r.accuracy for r in b.runs]

    def test_confusion_rows_sum_to_test_counts(self):
        cfg = small_cfg()
        ds = gen_circular(cfg.master_seed)
        report = run_experiment(cfg)
        for run in report.runs:
            _, test = split(ds, SplitSpec(cfg.train_fraction, run.seed, cfg.stratified))
            assert run.confusion.sum(axis=1).tolist() == test.class_counts().tolist()

    def test_aggregate_consistency(self):
        report = run_experiment(small_cfg(subclust=SubclustParams(0.3)))
        accs = np.array([r.accuracy for r in report.runs if r.ok])
        assert report.best == accs.max()
        assert report.worst == accs.min()
        assert report.average == pytest.approx(accs.mean(), abs=1e-12)
        assert report.stddev == pytest.approx(accs.std(), abs=1e-12)
        assert report.rules_min == min(r.rule_count for r in report.runs if r.ok)
        assert report.rules_max == max(r.rule_count for r in report.runs if r.ok)

    def test_aggregates_follow_the_runs(self, report):
        # The aggregates are derived from the runs, so a report cannot
        # disagree with its own runs, and replacing them re-derives every one.
        assert len(report.runs) == 4 and report.failed_count == 0
        kept = report.runs[1:3]
        failed = RunResult(index=9, seed=5, error="class 'b' has no training patterns")
        fewer = dataclasses.replace(report, runs=(*kept, failed))
        accs = [r.accuracy for r in kept]
        assert (fewer.best, fewer.worst) == (max(accs), min(accs))
        assert fewer.average == float(np.mean(accs))
        assert fewer.stddev == float(np.std(accs))
        rules = [r.rule_count for r in kept]
        assert (fewer.rules_min, fewer.rules_max) == (min(rules), max(rules))
        assert fewer.failed_count == 1
        none_ok = dataclasses.replace(report, runs=(failed,))
        assert [none_ok.best, none_ok.average, none_ok.worst, none_ok.stddev,
                none_ok.rules_min, none_ok.rules_max, none_ok.failed_count] == [None] * 6 + [1]
        with pytest.raises(TypeError):
            evaluation.ExperimentReport(report.config, report.class_names, report.runs,
                                        best=100.0)
        # A run's accuracy is that of its confusion matrix.
        assert all(r.accuracy == accuracy(r.confusion) for r in report.runs)

    def test_normalizer_fit_on_train_only(self):
        cfg = small_cfg(runs=1)
        ds = gen_circular(cfg.master_seed)
        seed = derive_run_seed(cfg.master_seed, 0)
        rb, _ = train_and_score(ds, cfg, seed)
        train, test = split(ds, SplitSpec(cfg.train_fraction, seed, cfg.stratified))
        expected = fit_normalizer(train)
        assert np.array_equal(rb.normalization.minimum, expected.minimum)
        assert np.array_equal(rb.normalization.maximum, expected.maximum)
        # An extreme value placed in the test half must not widen the ranges.
        extended = Dataset(
            np.vstack([ds.features, [[1e6, 1e6]]]),
            np.append(ds.labels, 1),
            ds.class_names,
        )
        for probe_seed in range(10):
            tr2, te2 = split(extended, SplitSpec(0.5, probe_seed))
            if 1e6 in te2.features:
                assert fit_normalizer(tr2).maximum.max() < 1e6
                break
        else:
            pytest.fail("extreme point never landed in the test half")

    def test_failed_runs_reported(self, tmp_path):
        # One class has a single pattern: splits that put it in the test
        # half are untrainable and must be recorded, not silently dropped.
        rng = np.random.default_rng(0)
        ds = Dataset(
            np.vstack([rng.uniform(size=(12, 2)), [[5.0, 5.0]]]),
            np.array([0] * 12 + [1]),
            ("a", "b"),
        )
        path = tmp_path / "lopsided.csv"
        save_csv(ds, path)
        report = run_experiment(
            ExperimentConfig(data_path=str(path), runs=12, master_seed=3, subclust=None)
        )
        failed = [r for r in report.runs if not r.ok]
        assert report.failed_count == len(failed)
        assert 0 < report.failed_count < 12
        for r in failed:
            assert "no training patterns" in r.error
        accs = [r.accuracy for r in report.runs if r.ok]
        assert report.average == pytest.approx(np.mean(accs))


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_cfg(subclust=SubclustParams(0.3)))


class TestEmitReport:
    def test_formats_agree(self, report):
        text = emit_report(report, "text_table")
        csv_text = emit_report(report, "csv")
        json_doc = json.loads(emit_report(report, "json"))

        json_accs = [r["accuracy_pct"] for r in json_doc["runs"]]
        csv_rows = [
            line.split(",") for line in csv_text.splitlines() if line.startswith("run,")
        ]
        csv_accs = [float(row[4]) for row in csv_rows]
        assert csv_accs == json_accs

        agg = json_doc["aggregate"]
        for name in ("best", "average", "worst", "stddev"):
            line = next(
                l for l in csv_text.splitlines() if l.startswith(f"aggregate_{name},")
            )
            assert float(line.split(",")[4]) == agg[name]
            assert f"{agg[name]:.2f}" in text

    def test_interval_rendering(self, report):
        text = emit_report(report, "text_table")
        if report.rules_min == report.rules_max:
            assert f" {report.rules_min} " in text or f"{report.rules_min}" in text
        else:
            assert f"[{report.rules_min},{report.rules_max}]" in text

    def test_clean_report_shows_zero_failures(self, report):
        assert report.failed_count == 0
        assert "failed runs: 0" in emit_report(report, "text_table")
        assert "aggregate_failed_runs,,,,,0," in emit_report(report, "csv")

    def test_config_echoed_everywhere(self, report):
        for fmt in ("text_table", "csv"):
            body = emit_report(report, fmt)
            assert "master_seed" in body
            assert "0.3" in body
        doc = json.loads(emit_report(report, "json"))
        assert doc["config"]["r_a"] == "0.3"

    def test_timestamp_single_line(self, report):
        body = emit_report(report, "csv", timestamp="2020-01-01T00:00:00Z")
        lines = body.splitlines()
        assert lines[0] == "# generated: 2020-01-01T00:00:00Z"
        assert emit_report(report, "csv") == "\n".join(lines[1:]) + "\n"

    def test_timestamp_json_field(self, report):
        doc = json.loads(emit_report(report, "json", timestamp="2020-01-01T00:00:00Z"))
        assert list(doc)[0] == "generated_at"
        assert doc.pop("generated_at") == "2020-01-01T00:00:00Z"
        assert doc == json.loads(emit_report(report, "json"))

    def test_failed_run_row_in_csv(self, report):
        # The error text goes in the last cell, its commas turned into ';'.
        failed = RunResult(index=7, seed=11, error="class 'b', then 'c', absent")
        body = emit_report(dataclasses.replace(report, runs=(failed,)), "csv")
        rows = [line for line in body.splitlines() if line.startswith("run,")]
        assert rows == ["run,7,11,failed,,,class 'b'; then 'c'; absent"]
        assert "aggregate_failed_runs,,,,,1," in body

    def test_unknown_format(self, report):
        with pytest.raises(ConfigError):
            emit_report(report, "xml")


class TestOneCodePath:
    def test_threads_variable_ignored(self, monkeypatch):
        # Runs execute one after another; IT2FRBC_THREADS is not read, so
        # not even a value that is no integer changes the report.
        cfg = small_cfg(runs=6, subclust=SubclustParams(0.4))
        monkeypatch.delenv("IT2FRBC_THREADS", raising=False)
        plain = emit_report(run_experiment(cfg), "json")
        monkeypatch.setenv("IT2FRBC_THREADS", "lots")
        assert emit_report(run_experiment(cfg), "json") == plain


class TestDecisionMargins:
    """No decision of the protocol lies next to a tie, so a kernel change
    that moves one there fails here instead of flipping a report digest on
    some CPU (exp and pow give other last bits under other SIMD levels)."""

    CONFIGS = {
        "circular-0.2": ["--gen", "circular", "--ra", "0.2"],
        "wbcd-0.4": ["--in", str(pathlib.Path(__file__).resolve().parent.parent / "data" /
                                 "wbcd.csv"), "--ra", "0.4"],
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_every_decision_clears_rounding(self, monkeypatch, name):
        from frm_reference import subtractive_cluster as ref_subtractive_cluster

        scores, clusterings = [], []

        def recording_classify(X, rb):
            out = classify_batch(X, rb)
            scores.append(out[1])
            return out

        def recording_cluster(points, params):
            found = subtractive_cluster(points, params)
            clusterings.append((points, params, found))
            return found

        monkeypatch.setattr(evaluation, "classify_batch", recording_classify)
        monkeypatch.setattr(rulebase, "subtractive_cluster", recording_cluster)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", *self.CONFIGS[name], "--seed", "1234", "--runs", "4",
                             "--format", "json", "--no-timestamp"]) == 0
        assert len(scores) == 4 and len(clusterings) >= 8

        # The smallest top-two score gap of a test prediction, relative to
        # the top score: 3.1e-5 on wbcd-0.4 and 4.9e-2 on circular-0.2.
        top_two = np.sort(np.vstack(scores), axis=1)[:, -2:]
        assert np.all(top_two[:, 1] > 0.0)
        assert np.min((top_two[:, 1] - top_two[:, 0]) / top_two[:, 1]) > 1e-9

        # Each comparison that steers the clustering loop, replayed by the
        # straight-line reference on the same points: the smallest margin
        # is 3.1e-8 on wbcd-0.4 and 1.1e-3 on circular-0.2.
        for points, params, found in clusterings:
            centers, decisions = ref_subtractive_cluster(
                points.tolist(), params.r_a, params.rb_ratio, params.accept_ratio,
                params.reject_ratio)
            assert np.array_equal(found, np.array(centers))
            assert min(margin for _, margin in decisions) > 1e-9
