import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import it2frbc
from it2frbc import Dataset, classify_batch, cli, load_csv, load_rulebase, save_csv, subclust
from it2frbc.cli import main
from it2frbc.evaluation import ExperimentConfig, accuracy, confusion_matrix
from it2frbc.inference import _block_width


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenData:
    def test_circular(self, tmp_path, capsys):
        out_file = tmp_path / "circ.csv"
        code, out, err = run(capsys, "gen-data", "--which", "circular", "--seed", "7",
                             "--out", str(out_file))
        assert code == 0
        assert "configuration:" in out
        ds = load_csv(out_file, -1)
        assert len(ds) == 186
        assert ds.class_counts().tolist() == [63, 123]

    def test_irregular(self, tmp_path, capsys):
        out_file = tmp_path / "irr.csv"
        code, out, _ = run(capsys, "gen-data", "--which", "irregular", "--seed", "3",
                           "--out", str(out_file))
        assert code == 0
        assert len(load_csv(out_file, -1)) == 863

    def test_unknown_generator(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-data", "--which", "spiral", "--out", "x.csv")
        assert code == 1
        assert "invalid choice" in err


class TestCluster:
    def test_centers_written(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(8, 0.3, (20, 2))])
        src = tmp_path / "points.csv"
        src.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        out_file = tmp_path / "centers.csv"
        code, out, _ = run(capsys, "cluster", "--in", str(src), "--ra", "0.5",
                           "--out", str(out_file))
        assert code == 0
        centers = np.loadtxt(out_file, delimiter=",", skiprows=1)
        assert centers.reshape(-1, 2).shape[0] == 2

    def test_zero_reject_ratio_terminates(self, tmp_path):
        # Run as a child process so a regression to the endless loop fails
        # on the timeout instead of hanging the suite.
        pts = np.random.default_rng(1).uniform(size=(30, 2))
        src = tmp_path / "points.csv"
        src.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        out_file = tmp_path / "centers.csv"
        env = dict(os.environ)
        src_dir = str(pathlib.Path(it2frbc.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "it2frbc.cli", "cluster", "--in", str(src), "--ra", "0.3",
             "--reject", "0", "--out", str(out_file)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        centers = np.loadtxt(out_file, delimiter=",", skiprows=1).reshape(-1, 2)
        assert 1 <= centers.shape[0] <= 30

    def test_bad_ra(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("1,2\n3,4\n")
        code, _, err = run(capsys, "cluster", "--in", str(src), "--ra", "-1",
                           "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert "r_a" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_cell_refused(self, tmp_path, capsys, bad):
        # A nan cell used to give nan centers and exit 0.
        src = tmp_path / "p.csv"
        src.write_text(f"0,0\n0.1,0.2\n{bad},4\n5,6\n")
        out_file = tmp_path / "c.csv"
        code, _, err = run(capsys, "cluster", "--in", str(src), "--ra", "0.5",
                           "--out", str(out_file))
        assert code == 2
        assert "finite" in err
        assert not out_file.exists()


@pytest.fixture()
def circ_file(tmp_path, capsys):
    path = tmp_path / "circ.csv"
    assert main(["gen-data", "--which", "circular", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def two_rule_model():
    """A hand-written model whose feature 1 spans only 1e-10."""
    return {
        "format": "it2frbc-model",
        "format_version": 1,
        "num_classes": 2,
        "class_names": ["a", "b"],
        "fuzzifiers": {"m1": 1.5, "m2": 2.5},
        "aggregation_p": 2.0,
        "normalization": {"min": [0.0, 0.0], "max": [1e-10, 2.0]},
        "rules": [
            {"center": [0.2, 0.3], "source_class": 0, "certainty": [0.9, 0.1]},
            {"center": [0.8, 0.6], "source_class": 1, "certainty": [0.2, 0.8]},
        ],
    }


class TestTrainPredict:
    def test_round_trip(self, tmp_path, capsys, circ_file):
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "train", "--in", str(circ_file), "--ra", "0.2",
                           "--seed", "3", "--model", str(model))
        assert code == 0
        assert model.exists()
        assert "rules:" in out
        assert "train accuracy" in out

        pred_file = tmp_path / "pred.csv"
        code, out, _ = run(capsys, "predict", "--model", str(model), "--in", str(circ_file),
                           "--out", str(pred_file))
        assert code == 0
        assert "accuracy against provided labels" in out
        lines = pred_file.read_text().splitlines()
        assert len(lines) == 187  # header + 186 rows
        header = lines[0].split(",")
        assert "predicted" in header
        assert any(h.startswith("score_") for h in header)

    def test_train_prints_its_clustering_settings(self, tmp_path, capsys, circ_file):
        model = str(tmp_path / "model.json")
        code, out, _ = run(capsys, "train", "--in", str(circ_file), "--ra", "0.3",
                           "--accept", "0.7", "--reject", "0.2", "--rb-ratio", "1.5",
                           "--model", model)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("  r_a: 0.3")
        assert lines[start:start + 4] == ["  r_a: 0.3", "  rb_ratio: 1.5", "  accept_ratio: 0.7",
                                          "  reject_ratio: 0.2"]
        code, out, _ = run(capsys, "train", "--in", str(circ_file), "--no-sc", "--model", model)
        assert code == 0
        keys = [line.split(":")[0].strip() for line in out.splitlines()]
        assert "  r_a: none" in out.splitlines()
        assert not {"rb_ratio", "accept_ratio", "reject_ratio"} & set(keys)

    def test_train_prints_the_configuration_reports_record(self, tmp_path, capsys, circ_file):
        # train used to print its own list under other names (in, label_col,
        # seed) and no runs.
        model = str(tmp_path / "model.json")
        code, out, _ = run(capsys, "train", "--in", str(circ_file), "--ra", "0.3", "--seed", "3",
                           "--stratified", "--p", "1.5", "--model", model)
        assert code == 0
        cfg = ExperimentConfig(data_path=str(circ_file), runs=1, stratified=True, master_seed=3,
                               subclust=subclust.SubclustParams(0.3), aggregation_p=1.5)
        lines = out.splitlines()
        assert lines[:lines.index(f"  model: {model}") + 1] == [
            "configuration:", *(f"  {key}: {val}" for key, val in cfg.describe().items()),
            f"  model: {model}"]
        assert lines[len(cfg.describe()) + 2].startswith("rules: ")

    def test_predict_dimension_mismatch(self, tmp_path, capsys, circ_file):
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,4,5\n6,7,8,9,10\n")
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(bad),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "5" in err and "2" in err

    def test_predict_unlabeled(self, tmp_path, capsys, circ_file):
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
        capsys.readouterr()
        plain = tmp_path / "plain.csv"
        plain.write_text("10.0,10.0\n0.5,19.0\n")
        code, out, _ = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 0
        assert "accuracy" not in out

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_non_finite_cell_refused(self, tmp_path, capsys, circ_file, bad):
        # Such a row used to be written as class 0 with scores [0, 0], exit 0.
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
        capsys.readouterr()
        plain = tmp_path / "plain.csv"
        plain.write_text(f"10.0,10.0\n{bad},10.0\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert "finite" in err
        assert not out_file.exists()

    def test_predict_normalization_overflow_refused(self, tmp_path, capsys):
        # 1e300 over the model's span of 1e-10 normalizes to inf; the row
        # used to be written as class 0 with scores [0, 0], exit 0.
        model = tmp_path / "model.json"
        model.write_text(json.dumps(two_rule_model()))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n1e300,1.0\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert "feature 1" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("field", ["center", "certainty", "aggregation_p"])
    def test_predict_non_finite_model_field_refused(self, tmp_path, capsys, field):
        # Such a model used to write class 0 with nan,nan scores on every row
        # (nan center or exponent) or ignore a rule (nan certainty), exit 0.
        doc = two_rule_model()
        if field == "aggregation_p":
            doc[field] = float("nan")
        else:
            doc["rules"][0][field][1] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n1e-11,0.5\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert "must be finite" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_held_out_set(self, tmp_path, capsys, command):
        # A stratified 0.9 split of classes of 3 rows leaves no test rows in
        # any run: each run is refused, before clustering, as a data error
        # that names the held-out half. train writes and prints nothing; eval
        # records every run as failed, still writes its report, and exits 2.
        # Both used to end on "confusion matrix has no observations", eval
        # without a report.
        data = tmp_path / "tiny.csv"
        data.write_text("0.1,0.2,0\n0.2,0.1,0\n0.3,0.3,0\n0.9,0.8,1\n0.8,0.9,1\n0.7,0.7,1\n")
        report = tmp_path / "report.txt"
        extra = {"train": ["--model", str(tmp_path / "m.json")],
                 "eval": ["--runs", "3", "--no-timestamp", "--out", str(report)]}[command]
        code, out, err = run(capsys, command, "--in", str(data), "--no-sc", "--stratified",
                             "--train-frac", "0.9", *extra)
        assert code == 2
        assert not (tmp_path / "m.json").exists()
        if command == "train":
            assert err == "error: the held-out half of the split is empty\n"
            assert out == ""
        else:
            assert err == "error: all 3 runs failed\n"
            text = report.read_text()
            assert text.count("failed   the held-out half of the split is empty\n") == 3
            assert "failed runs: 3" in text

    def test_predict_label_col_out_of_range(self, tmp_path, capsys, circ_file):
        # Used to write the whole output file and then exit 3 on an IndexError.
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
        capsys.readouterr()
        plain = tmp_path / "plain.csv"
        plain.write_text("10.0,10.0\n0.5,19.0\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--label-col", "5", "--out", str(out_file))
        assert code == 1
        assert "label column 5" in err
        assert not out_file.exists()

    def test_invalid_fuzzifier(self, tmp_path, capsys, circ_file):
        code, _, err = run(capsys, "train", "--in", str(circ_file), "--no-sc",
                           "--m1", "0.5", "--model", str(tmp_path / "m.json"))
        assert code == 1
        assert "fuzzifier" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--in", str(tmp_path / "nope.csv"),
                           "--no-sc", "--model", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("flag, message", [
        ("--p=0", "p=0"),
        ("--train-frac=1", "train_fraction"),
        ("--seed=-1", "seed must be a non-negative integer"),
    ])
    def test_flags_checked_before_the_input_is_read(self, tmp_path, capsys, flag, message):
        # The missing file used to exit 2 first; --p 0 was refused only
        # after the training half had been clustered.
        model = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--in", str(tmp_path / "nope.csv"), "--ra", "0.3",
                             flag, "--model", str(model))
        assert code == 1
        assert message in err and "nope.csv" not in err
        assert out == "" and not model.exists()

    def test_predict_missing_model_file(self, tmp_path, capsys, circ_file):
        model = tmp_path / "nope.json"
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(circ_file),
                           "--out", str(out_file))
        assert code == 2
        assert f"cannot read {model}" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("names, message", [
        ("12", "class_names must be a list, got '12'"),
        (["a", "a"], "class names must be distinct, got ['a', 'a']"),
        ([1, "1"], "class names must be distinct, got ['1', '1']"),
    ], ids=["string", "repeated", "repeated-as-text"])
    def test_predict_bad_class_names(self, tmp_path, capsys, names, message):
        # "12" used to load as two classes '1' and '2'; ["a", "a"] loaded
        # too, and predict wrote the header score_a,score_a with exit 0.
        doc = two_rule_model()
        doc["class_names"] = names
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert f"malformed model file {model}: {message}" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_p_is_a_usage_error(self, tmp_path, capsys, circ_file, bad):
        # Used to exit 2, refused by the model after the data was read.
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--in", str(circ_file), "--no-sc",
                           f"--p={bad}", "--model", str(model))
        assert code == 1
        assert "--p" in err
        assert not model.exists()


    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_fuzzifier_is_a_usage_error(self, tmp_path, capsys, circ_file, flag, bad):
        # --m2=inf used to train and save a model with "m2": Infinity, exit 0.
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--in", str(circ_file), "--no-sc",
                           f"{flag}={bad}", "--model", str(model))
        assert code == 1
        assert f"argument {flag}: must be a finite number" in err
        assert not model.exists()

    @pytest.mark.parametrize("fuzzifiers, p", [
        ({"m1": 0.5, "m2": 2.5}, 2.0),
        ({"m1": 3.0, "m2": 2.0}, 2.0),
        ({"m1": 1.5, "m2": float("inf")}, 2.0),
        ({"m1": 1.5, "m2": 2.5}, 0.0),
    ], ids=["m1-below-1", "m1-above-m2", "m2-inf", "p-zero"])
    def test_predict_invalid_model_parameter_is_a_data_error(self, tmp_path, capsys,
                                                             fuzzifiers, p):
        # Used to exit 1, a usage error, with a message that did not name the file.
        doc = two_rule_model()
        doc["fuzzifiers"], doc["aggregation_p"] = fuzzifiers, p
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n1e-11,0.5\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert f"malformed model file {model}" in err
        assert not out_file.exists()


class TestPredictEcho:
    """predict echoes the feature cells as read and writes repr scores."""

    @pytest.fixture()
    def model(self, tmp_path, circ_file):
        path = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(path)]) == 0
        return path

    def predict(self, capsys, tmp_path, model, data, *extra):
        out = tmp_path / "pred.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(data),
                           "--out", str(out), *extra)
        assert code == 0, err
        with open(out, newline="") as fh:
            return list(csv.reader(fh))

    def test_cells_echoed_as_written(self, tmp_path, capsys, model):
        data = tmp_path / "plain.csv"
        data.write_text("1,1e3\n 2.5,10.0\n")
        rows = self.predict(capsys, tmp_path, model, data)
        assert [row[:2] for row in rows[1:]] == [["1", "1e3"], [" 2.5", "10.0"]]

    def test_scores_are_repr_of_classify_batch(self, tmp_path, capsys, model, circ_file):
        rb = load_rulebase(model)
        preds, scores = classify_batch(load_csv(circ_file, -1).features, rb)
        body = self.predict(capsys, tmp_path, model, circ_file)[1:]
        assert [row[2] for row in body] == [rb.class_names[k] for k in preds]
        assert [row[3:] for row in body] == [[repr(v) for v in s] for s in scores.tolist()]

    def test_gen_data_cells_are_repr_floats(self, tmp_path, capsys, model, circ_file):
        # gen-data writes repr floats, so echoing them keeps predict's bytes.
        with open(circ_file, newline="") as fh:
            given = [row[:2] for row in list(csv.reader(fh))[1:]]
        body = self.predict(capsys, tmp_path, model, circ_file)[1:]
        assert [row[:2] for row in body] == given
        assert all(cell == repr(float(cell)) for row in given for cell in row)

    def test_label_column_left_out(self, tmp_path, capsys, model):
        data = tmp_path / "labelled.csv"
        data.write_text("class,x,y\n1,10.0,10\n2,0.5,1.9e1\n")
        rows = self.predict(capsys, tmp_path, model, data, "--label-col", "0")
        assert rows[0] == ["f1", "f2", "predicted", "score_1", "score_2"]
        assert [row[:2] for row in rows[1:]] == [["10.0", "10"], ["0.5", "1.9e1"]]
        assert all(len(row) == 5 for row in rows)

    @staticmethod
    def reference_bytes(model, data, header=False, label_col=None):
        """What csv.writer (excel dialect) writes for ``data``: the header,
        then each row's feature cells as read, the class name and repr scores."""
        rb = load_rulebase(model)
        with open(data, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if label_col is not None:
            rows = [row[:label_col] + row[label_col + 1:] for row in rows]
        if header:
            rows = rows[1:]
        preds, scores = classify_batch(np.array(rows, dtype=float), rb)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"f{i + 1}" for i in range(rb.num_features)] + ["predicted"]
                        + [f"score_{name}" for name in rb.class_names])
        writer.writerows([*row, rb.class_names[k], *map(repr, s)]
                         for row, k, s in zip(rows, preds.tolist(), scores.tolist()))
        return buf.getvalue().encode()

    def predict_bytes(self, capsys, tmp_path, model, data, *extra):
        self.predict(capsys, tmp_path, model, data, *extra)
        return (tmp_path / "pred.csv").read_bytes()

    def test_bytes_match_csv_writer_when_cells_need_quoting(self, tmp_path, capsys):
        # Class names with a comma and a quote, and feature cells holding a
        # line break inside a quoted input cell, are quoted as csv.writer does.
        doc = two_rule_model()
        doc["class_names"] = ["a,b", 'c"d']
        doc["normalization"] = {"min": [0.0, 0.0], "max": [1.0, 2.0]}
        model = tmp_path / "quoting.json"
        model.write_text(json.dumps(doc))
        data = tmp_path / "quoting.csv"
        data.write_bytes(b'"0.1\n", 0.5\r\n1e3,"\r\n0.2"\n0.9,1.5\r\n')
        got = self.predict_bytes(capsys, tmp_path, model, data)
        assert got == self.reference_bytes(model, data)
        assert b'"0.1\n", 0.5,"a,b",' in got and b'"c""d"' in got
        assert b'1e3,"\r\n0.2",' in got and got.endswith(b"\r\n")

    def test_bytes_match_csv_writer(self, tmp_path, capsys, model, circ_file):
        got = self.predict_bytes(capsys, tmp_path, model, circ_file)
        assert got == self.reference_bytes(model, circ_file, header=True, label_col=2)
        assert got.endswith(b"\r\n")


class TestPredictStream:
    """predict reads, classifies and renders one row block at a time, and
    writes the output only after the last row. Here the blocks are 1000
    rows of the two-rule model, so line 5000 lies in the fifth block read."""

    ROWS = 6000

    @pytest.fixture()
    def model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(two_rule_model()))
        monkeypatch.setattr(subclust, "BLOCK_ELEMENTS", 1000 * _block_width(load_rulebase(path)))
        return path

    @staticmethod
    def lines(rows: int) -> list[bytes]:
        """Data rows (no header) inside the model's spans, labelled a, b and
        c in turn; c is no class of the model."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1e-10, rows).tolist()
        y = rng.uniform(0.0, 2.0, rows).tolist()
        return [f"{a!r},{b!r},{'abc'[i % 3]}".encode() for i, (a, b) in enumerate(zip(x, y))]

    @staticmethod
    def write_input(tmp_path, lines) -> pathlib.Path:
        data = tmp_path / "in.csv"
        data.write_bytes(b"\n".join(lines) + b"\n")
        return data

    @staticmethod
    def run_predict(capsys, tmp_path, model):
        return run(capsys, "predict", "--model", str(model), "--in", str(tmp_path / "in.csv"),
                   "--out", str(tmp_path / "pred.csv"))

    def predict(self, capsys, tmp_path, model, lines):
        self.write_input(tmp_path, lines)
        return self.run_predict(capsys, tmp_path, model)

    def test_blocks_give_the_bytes_of_one_batch(self, tmp_path, capsys, model):
        code, out, err = self.predict(capsys, tmp_path, model, self.lines(self.ROWS))
        assert code == 0, err
        data = tmp_path / "in.csv"
        want = TestPredictEcho.reference_bytes(model, data, label_col=2)
        assert (tmp_path / "pred.csv").read_bytes() == want
        # The labelled rows' confusion counts, summed over the blocks.
        rb = load_rulebase(model)
        ds = load_csv(data, -1)
        keep = ds.labels < 2  # "c" is no class of the model
        preds, _ = classify_batch(ds.features[keep], rb)
        acc = accuracy(confusion_matrix(ds.labels[keep], preds, 2))
        assert out.splitlines()[-2:] == [
            f"wrote predictions for {self.ROWS} rows to {tmp_path / 'pred.csv'}",
            f"accuracy against provided labels: {acc:.2f} ({keep.sum()} labeled rows)"]

    @pytest.mark.parametrize("line, message", [
        (b"1e-11", "line 5000: expected 3 fields, found 1"),
        (b"1e-11,abc,a", "line 5000: non-numeric feature value 'abc'"),
        (b"nan,1.0,a", "line 5000: non-finite value (nan or inf)"),
        (b"1e-11,1.0,caf\xe9", "cannot read {path}: not UTF-8 text (invalid continuation byte)"),
        (b"1e300,1.0,a", "feature 1: value does not normalize to a finite number "
                         "(fitted min 0.0, max 1e-10)"),
    ], ids=["ragged", "non-numeric", "nan", "latin-1", "normalization-overflow"])
    def test_refusal_past_the_first_block(self, tmp_path, capsys, model, line, message):
        # The same message, line number and exit code as reading the file
        # whole; nothing printed, and the target untouched.
        lines = self.lines(self.ROWS)
        lines[4999] = line
        target = tmp_path / "pred.csv"
        want = f"error: {message.format(path=tmp_path / 'in.csv')}\n"
        assert self.predict(capsys, tmp_path, model, lines) == (2, "", want)
        assert not target.exists()
        target.write_bytes(b"old bytes\n")
        assert self.predict(capsys, tmp_path, model, lines) == (2, "", want)
        assert target.read_bytes() == b"old bytes\n"

    def test_first_defect_in_file_order(self, tmp_path, capsys, model):
        # A missing mark at line 11 and a ragged row at line 5000: reading
        # the file whole checked every width first and named line 5000. The
        # blocks are checked as they are read, so line 11, in the first
        # block, is named. Within one block widths still come first.
        lines = self.lines(self.ROWS)
        lines[10] = b"?,1.0,a"
        lines[4999] = b"1e-11"
        code, _, err = self.predict(capsys, tmp_path, model, lines)
        assert (code, err) == (2, "error: line 11: non-numeric feature value '?'\n")
        lines[19] = b"1e-11"
        code, _, err = self.predict(capsys, tmp_path, model, lines)
        assert (code, err) == (2, "error: line 20: expected 3 fields, found 1\n")

    def test_line_numbers_count_quoted_line_breaks(self, tmp_path, capsys, model):
        # A feature cell holding a line break at line 11 moves every later
        # row down one physical line; counting records named line 5000.
        lines = self.lines(self.ROWS)
        lines[10] = b'"1e-11\n",1.0,a'
        lines[4999] = b"1e-11,abc,a"
        assert self.predict(capsys, tmp_path, model, lines) == (
            2, "", "error: line 5001: non-numeric feature value 'abc'\n")

    def test_peak_holds_one_block(self, tmp_path, capsys, model):
        # The encoded output rows go to an unnamed temporary file, so at ten
        # times the rows the peak stays that of one block. Held in memory,
        # they grew it by the output's size (1.5 MB here). The first run
        # warms one-time allocations and is not compared.
        peaks = []
        for rows in (self.ROWS // 3, self.ROWS // 3, 10 * self.ROWS // 3):
            self.write_input(tmp_path, self.lines(rows))
            tracemalloc.start()
            try:
                code, _, err = self.run_predict(capsys, tmp_path, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        assert peaks[2] - peaks[1] <= 64 * 1024, peaks

    @pytest.fixture()
    def temp_dir(self, tmp_path, monkeypatch):
        """An empty directory that TMPDIR names, for the spool."""
        path = tmp_path / "tmp"
        path.mkdir()
        monkeypatch.setenv("TMPDIR", str(path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
        return path

    def test_spool_leaves_no_file(self, tmp_path, capsys, model, temp_dir):
        lines = self.lines(self.ROWS)
        code, _, err = self.predict(capsys, tmp_path, model, lines)
        assert code == 0, err
        assert tempfile.gettempdir() == str(temp_dir)
        assert list(temp_dir.iterdir()) == []
        lines[4999] = b"1e-11,abc,a"
        assert self.predict(capsys, tmp_path, model, lines) == (
            2, "", "error: line 5000: non-numeric feature value 'abc'\n")
        assert list(temp_dir.iterdir()) == []

    @pytest.mark.parametrize("fails", ["make", "write"])
    def test_spool_failure_keeps_the_target(self, tmp_path, capsys, model, monkeypatch, fails):
        # No usable temp dir, or a disk that fills on the third write (the
        # header, then the first two blocks): exit 2 naming the output,
        # nothing printed, the target untouched.
        class FullDisk(io.BytesIO):
            blocks = 0

            def write(self, data):
                self.blocks += 1
                if self.blocks == 3:
                    raise OSError(28, "No space left on device")
                return super().write(data)

        def temporary_file():
            if fails == "make":
                raise FileNotFoundError(2, "No usable temporary directory found")
            return FullDisk()

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        target = tmp_path / "pred.csv"
        target.write_bytes(b"old bytes\n")
        code, out, err = self.predict(capsys, tmp_path, model, self.lines(self.ROWS))
        reason = {"make": "[Errno 2] No usable temporary directory found",
                  "write": "[Errno 28] No space left on device"}[fails]
        assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")
        assert target.read_bytes() == b"old bytes\n"


def test_predict_missing_policy_on_wbcd(tmp_path, capsys, data_dir):
    # A model trained on data/wbcd.csv (rows with '?' dropped) could not
    # score that file: predict refused line 25's '?'. That stays the
    # default; --missing-policy drop_row drops the rows train drops, and
    # says how many.
    wbcd = data_dir / "wbcd.csv"
    model = tmp_path / "model.json"
    assert main(["train", "--in", str(wbcd), "--no-sc", "--model", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    argv = ["predict", "--model", str(model), "--in", str(wbcd), "--out", str(out)]
    refused = (2, "", "error: line 25: non-numeric feature value '?'\n")
    assert run(capsys, *argv) == refused
    assert run(capsys, *argv, "--missing-policy", "error") == refused
    assert not out.exists()
    code, stdout, err = run(capsys, *argv, "--missing-policy", "drop_row")
    assert code == 0, err
    ds = load_csv(wbcd, -1)
    rb = load_rulebase(model)
    preds, scores = classify_batch(ds.features, rb)
    acc = accuracy(confusion_matrix(ds.labels, preds, ds.num_classes))
    assert stdout.splitlines()[3:] == [
        f"  rows: {len(ds)}", "  label_col: 9", f"  out: {out}",
        f"wrote predictions for {len(ds)} rows to {out}",
        "dropped 16 rows with a missing value",
        f"accuracy against provided labels: {acc:.2f} ({len(ds)} labeled rows)"]
    with open(out, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert [[float(c) for c in row[:9]] for row in body] == ds.features.tolist()
    assert [row[9] for row in body] == [rb.class_names[k] for k in preds]
    assert [row[10:] for row in body] == [[repr(v) for v in s] for s in scores.tolist()]


def test_normalization_wider_than_centers_exits_2(tmp_path, capsys):
    doc = two_rule_model()
    doc["normalization"] = {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    plain = tmp_path / "plain.csv"
    plain.write_text("0.5,0.5\n")
    code, out, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                         "--out", str(tmp_path / "o.csv"))
    assert (code, out) == (2, "")
    assert err == (f"error: malformed model file {model}: "
                   "prototype dimensionality must match normalization\n")
    assert not (tmp_path / "o.csv").exists()


class TestExportRules:
    def test_lines(self, tmp_path, capsys, circ_file):
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "export-rules", "--model", str(model))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all("IF" in line for line in lines)

    @pytest.mark.parametrize("value", [7, -1, 1.7])
    def test_bad_source_class(self, tmp_path, capsys, value):
        # 7 used to exit 3 (IndexError), -1 printed class b and 1.7 class a.
        doc = two_rule_model()
        doc["rules"][0]["source_class"] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export-rules", "--model", str(model))
        assert code == 2
        assert f"malformed model file {model}: source classes must be integers in 0..1" in err
        assert out == ""


class TestEval:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "eval", "--gen", "circular", "--runs", "4", "--no-sc",
                           "--seed", "7", "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["runs"]) == 4
        assert doc["config"]["m1"] == "1.5"
        assert doc["config"]["r_a"] == "none"

    def test_table_contains_config(self, capsys):
        code, out, _ = run(capsys, "eval", "--gen", "circular", "--runs", "2", "--ra", "0.4",
                           "--seed", "7", "--no-timestamp")
        assert code == 0
        assert "configuration:" in out
        assert "master_seed: 7" in out
        assert "clusters/rules" in out

    def test_deterministic_bytes(self, capsys):
        args = ["eval", "--gen", "circular", "--runs", "2", "--no-sc", "--seed", "5",
                "--format", "csv", "--no-timestamp"]
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_timestamp_header(self, capsys):
        code, out, _ = run(capsys, "eval", "--gen", "circular", "--runs", "1", "--no-sc",
                           "--seed", "5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("# generated: ")

    def test_file_dataset(self, tmp_path, capsys, circ_file):
        code, out, _ = run(capsys, "eval", "--in", str(circ_file), "--runs", "2",
                           "--no-sc", "--seed", "1", "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["source"] == str(circ_file)

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, out, _ = run(capsys, "eval", "--gen", "circular", "--runs", "1", "--no-sc",
                           "--seed", "1", "--format", "csv", "--no-timestamp",
                           "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert "report written" in out

    def test_all_runs_failed_exits_2(self, tmp_path, capsys):
        # Every split's training span max - min overflows, so no run
        # succeeds: the report is still written, and the exit status says so.
        data = tmp_path / "huge.csv"
        data.write_text("".join(f"{v},0.{i},{i % 2}\n" for i, v in
                                enumerate(["1e308", "-1e308"] * 4)))
        out_file = tmp_path / "report.txt"
        code, _, err = run(capsys, "eval", "--in", str(data), "--no-sc", "--runs", "2",
                           "--no-timestamp", "--out", str(out_file))
        assert code == 2
        assert "all 2 runs failed" in err
        assert "failed runs: 2" in out_file.read_text()

    def test_some_runs_failed_exits_0(self, tmp_path, capsys):
        # Class b has one pattern: runs that hold it out cannot train.
        data = tmp_path / "lopsided.csv"
        rows = [f"0.{i},0.{11 - i},a" for i in range(12)] + ["5.0,5.0,b"]
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "eval", "--in", str(data), "--no-sc", "--runs", "12",
                           "--seed", "3", "--format", "json", "--no-timestamp")
        assert code == 0
        assert 0 < json.loads(out)["aggregate"]["failed_runs"] < 12

    def test_requires_source(self, capsys):
        code, _, err = run(capsys, "eval", "--runs", "1", "--no-sc")
        assert code == 1

    def test_p_zero_refused(self, capsys):
        code, _, err = run(capsys, "eval", "--gen", "circular", "--runs", "1", "--no-sc",
                           "--p", "0")
        assert code == 1
        assert "p=0" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_p_is_a_usage_error(self, capsys, bad):
        # Used to write a report in which every run failed, then exit 2.
        code, out, err = run(capsys, "eval", "--gen", "circular", "--runs", "2", "--no-sc",
                             f"--p={bad}")
        assert code == 1
        assert "--p" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_fuzzifier_is_a_usage_error(self, capsys, flag, bad):
        # --m2=inf used to run every split and exit 0.
        code, out, err = run(capsys, "eval", "--gen", "circular", "--runs", "2", "--no-sc",
                             f"{flag}={bad}")
        assert code == 1
        assert f"argument {flag}: must be a finite number" in err
        assert out == ""

    def test_zero_runs_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--gen", "circular", "--runs", "0", "--no-sc")
        assert (code, out, err) == (1, "", "error: runs must be at least 1\n")

    def test_ra_not_a_number_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--gen", "circular", "--runs", "1", "--ra", "abc")
        assert (code, out) == (1, "")
        assert "argument --ra: invalid float value: 'abc'" in err

    def test_ra_and_no_sc_conflict(self, capsys):
        code, _, err = run(capsys, "eval", "--gen", "circular", "--ra", "0.2", "--no-sc")
        assert code == 1


@pytest.mark.parametrize("command", ["cluster", "eval", "export-rules"])
def test_input_not_utf8_exits_2(tmp_path, capsys, command):
    # A Latin-1 'café' (byte 0xe9) used to exit 3 with
    # "internal error: UnicodeDecodeError".
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"x,y,label\n0.1,0.2,caf\xe9\n0.3,0.4,tea\n0.5,0.1,caf\xe9\n")
    model = tmp_path / "model.json"
    model.write_bytes(json.dumps(two_rule_model()).encode().replace(b'"a"', b'"caf\xe9"'))
    path, argv = {
        "cluster": (data, ["--in", str(data), "--ra", "0.5", "--out", str(tmp_path / "c.csv")]),
        "eval": (data, ["--in", str(data), "--no-sc", "--runs", "1"]),
        "export-rules": (model, ["--model", str(model)]),
    }[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert err == f"error: cannot read {path}: not UTF-8 text (invalid continuation byte)\n"
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "export-rules"])
def test_lone_surrogate_class_name_exits_2(tmp_path, capsys, command):
    # A class name UTF-8 cannot encode used to exit 3 with "internal error:
    # UnicodeEncodeError", and predict left an empty output file.
    doc = two_rule_model()
    doc["class_names"] = ["\ud800", "b"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    plain = tmp_path / "plain.csv"
    plain.write_text("5e-11,1.0\n")
    out_file = tmp_path / "o.csv"
    argv = ["--model", str(model)]
    if command == "predict":
        argv += ["--in", str(plain), "--out", str(out_file)]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert err == (f"error: malformed model file {model}: "
                   "class names must be UTF-8 text, got ['\\ud800', 'b']\n")
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "plain.csv"]


@pytest.mark.parametrize("command", ["gen-data", "cluster", "train", "predict", "eval"])
def test_unwritable_output_exits_2(tmp_path, capsys, circ_file, command):
    # Each used to exit 3 with "internal error: FileNotFoundError"; then
    # cluster and predict printed their configuration before Python's raw
    # message. Every command prints after its file is written.
    model = tmp_path / "model.json"
    assert main(["train", "--in", str(circ_file), "--no-sc", "--model", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "out"
    argv = {
        "gen-data": ["--which", "circular", "--out", str(out)],
        "cluster": ["--in", str(circ_file), "--ra", "0.3", "--out", str(out)],
        "train": ["--in", str(circ_file), "--no-sc", "--model", str(out)],
        "predict": ["--model", str(model), "--in", str(circ_file), "--out", str(out)],
        "eval": ["--gen", "circular", "--no-sc", "--runs", "1", "--out", str(out)],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert run(capsys, command, *argv) == (
        2, "", f"error: cannot write {out}: [Errno 2] No such file or directory: {str(out)!r}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_internal_error_exits_3(capsys, monkeypatch):
    def fails(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_export_rules", fails)
    assert run(capsys, "export-rules", "--model", "m.json") == (
        3, "", "internal error: RuntimeError: boom\n")


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--gen", "circular", "--no-sc", "--bogus")
        assert code == 1
        assert "bogus" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_no_args(self, capsys):
        code, _, err = run(capsys)
        assert code == 1


class TestParameterRules:
    """Each parameter rule refuses a value given on the command line with
    exit 1, and a value read from a model file with exit 2."""

    @pytest.mark.parametrize("ra", ["1e-170", "1e-200", "1e200", "1e-155", "1e-160"])
    def test_cluster_extreme_radius(self, tmp_path, capsys, circ_file, ra):
        # 1e-170, 1e-200 and 1e200 used to exit 3 (ZeroDivisionError or
        # OverflowError in alpha); 1e-155 and 1e-160 gave alpha = inf, nan
        # potentials and duplicate centers, with exit 0.
        out_file = tmp_path / "c.csv"
        code, _, err = run(capsys, "cluster", "--in", str(circ_file), f"--ra={ra}",
                           "--out", str(out_file))
        assert code == 1
        assert "alpha" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--ra", "--rb-ratio", "--accept", "--reject"])
    def test_cluster_non_finite_flag(self, tmp_path, capsys, circ_file, flag):
        # --ra inf used to give alpha = 0 and exit 0 with 2 centers.
        out_file = tmp_path / "c.csv"
        code, _, err = run(capsys, "cluster", "--in", str(circ_file), "--ra", "0.3",
                           f"{flag}=inf", "--out", str(out_file))
        assert code == 1
        assert f"argument {flag}: must be a finite number" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [
        ["--ra=1e-170"], ["--ra=1e-200"], ["--ra=1e-155"], ["--ra=1e-160"],
        ["--ra=0.2", "--rb-ratio=1e-200"],
    ], ids=["ra-1e-170", "ra-1e-200", "ra-1e-155", "ra-1e-160", "rb-ratio-1e-200"])
    def test_eval_extreme_radius(self, capsys, flags):
        # The first two and --rb-ratio 1e-200 used to exit 3; 1e-155 and
        # 1e-160 reported "93 rules" and 88.71%, with exit 0.
        code, out, err = run(capsys, "eval", "--gen", "circular", "--runs", "2", *flags)
        assert code == 1
        assert "alpha" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_negative_seed(self, tmp_path, capsys, circ_file, command):
        # gen-data and eval used to exit 3 with numpy's ValueError.
        out_file = tmp_path / "out"
        argv = {
            "gen-data": ["--which", "circular", "--out", str(out_file)],
            "train": ["--in", str(circ_file), "--no-sc", "--model", str(out_file)],
            "eval": ["--in", str(circ_file), "--no-sc", "--runs", "1", "--out", str(out_file)],
        }[command]
        code, _, err = run(capsys, command, *argv, "--seed=-1")
        assert code == 1
        assert "seed must be a non-negative integer" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("value", [None, "two", 3, "missing"])
    def test_predict_bad_num_classes(self, tmp_path, capsys, value):
        # A missing or non-integer count used to exit 3.
        doc = two_rule_model()
        if value == "missing":
            del doc["num_classes"]
        else:
            doc["num_classes"] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n1e-11,0.5\n")
        out_file = tmp_path / "o.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(out_file))
        assert code == 2
        assert f"malformed model file {model}" in err
        assert not out_file.exists()

    def test_predict_non_finite_max_names_the_file(self, tmp_path, capsys):
        doc = two_rule_model()
        doc["normalization"]["max"][1] = float("inf")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        plain = tmp_path / "plain.csv"
        plain.write_text("5e-11,1.0\n")
        code, _, err = run(capsys, "predict", "--model", str(model), "--in", str(plain),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert f"malformed model file {model}: feature 2" in err


SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-320", "1e-200", "1e-155", "1e200", "2",
                "0.5"]
SUBCLUST_FLAGS = ["--ra", "--rb-ratio", "--accept", "--reject"]
MODEL_FLAGS = ["--label-col", *SUBCLUST_FLAGS, "--m1", "--m2", "--p", "--seed", "--train-frac"]


def test_no_numeric_flag_value_exits_3(tmp_path, capsys, circ_file):
    """Every numeric flag of cluster, train, eval and gen-data, over values
    at and past the edges of the float range, ends in 0, 1 or 2."""
    out = str(tmp_path / "out")
    commands = {
        "cluster": (["--in", str(circ_file), "--ra", "0.3", "--out", out], SUBCLUST_FLAGS),
        "train": (["--in", str(circ_file), "--ra", "0.3", "--model", out], MODEL_FLAGS),
        "eval": (["--in", str(circ_file), "--ra", "0.3", "--runs", "1", "--out", out],
                 MODEL_FLAGS),
        "gen-data": (["--which", "circular", "--out", out], ["--seed"]),
    }
    codes = {}
    for command, (base, flags) in commands.items():
        for flag in flags:
            for value in SWEEP_VALUES:
                codes[command, flag, value] = main([command, *base, f"{flag}={value}"])
    capsys.readouterr()
    assert len(codes) == 275
    assert {key: code for key, code in codes.items() if code not in (0, 1, 2)} == {}


@st.composite
def small_data_and_flags(draw):
    """A small labeled dataset (every class at least three times) and a flag set
    for train and eval, each value from the range its rule accepts."""
    dim = draw(st.integers(1, 3))
    M = draw(st.integers(2, 3))
    labels = list(range(M)) * 3 + draw(st.lists(st.integers(0, M - 1), max_size=14))
    cell = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    feats = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=len(labels),
                          max_size=len(labels)))
    ds = Dataset(np.array(feats), np.array(labels), tuple(f"c{j}" for j in range(M)))
    if draw(st.booleans()):
        accept = draw(st.floats(min_value=0.05, max_value=1.0))
        flags = ["--ra", repr(10.0 ** draw(st.floats(min_value=-2.0, max_value=0.5))),
                 "--rb-ratio", repr(draw(st.floats(min_value=0.5, max_value=3.0))),
                 "--accept", repr(accept),
                 "--reject", repr(draw(st.floats(min_value=0.0, max_value=accept,
                                                 exclude_max=True)))]
    else:
        flags = ["--no-sc"]
    m1 = draw(st.floats(min_value=1.01, max_value=6.0))
    m2 = draw(st.floats(min_value=m1, max_value=8.0))
    p = draw(st.floats(min_value=0.05, max_value=8.0)) * draw(st.sampled_from([-1.0, 1.0]))
    flags += ["--m1", repr(m1), "--m2", repr(m2), "--p", repr(p),
              "--seed", str(draw(st.integers(0, 2**31 - 1))),
              "--train-frac", repr(draw(st.floats(min_value=0.3, max_value=0.8)))]
    if draw(st.booleans()):
        flags.append("--stratified")
    return ds, flags


@given(small_data_and_flags())
@settings(max_examples=30, deadline=None)
def test_train_predict_eval_end_to_end(data_and_flags):
    """For accepted flags on small data: no command exits 3, predict writes
    the scores of classify_batch on the same rows, and eval repeats its
    report byte for byte."""
    ds, flags = data_and_flags
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        tmp = pathlib.Path(tmp)
        data, model, pred = tmp / "data.csv", tmp / "model.json", tmp / "pred.csv"
        save_csv(ds, data)
        code = main(["train", "--in", str(data), "--model", str(model), *flags])
        assert code in (0, 2)
        if code == 0:
            assert main(["predict", "--model", str(model), "--in", str(data),
                         "--out", str(pred)]) == 0
            rb = load_rulebase(model)
            preds, scores = classify_batch(load_csv(data, -1).features, rb)
            with open(pred, newline="") as fh:
                body = list(csv.reader(fh))[1:]
            assert [row[ds.num_features] for row in body] == [rb.class_names[k] for k in preds]
            assert [row[ds.num_features + 1:] for row in body] == [
                [repr(v) for v in row] for row in scores.tolist()]
        reports = []
        for i in range(2):
            out = tmp / f"report{i}.json"
            code = main(["eval", "--in", str(data), "--runs", "2", "--format", "json",
                         "--no-timestamp", "--out", str(out), *flags])
            assert code in (0, 2)
            reports.append(out.read_bytes() if out.exists() else None)
        assert reports[0] == reports[1]
