"""Every output file goes through one writer, dataset._spool: UTF-8 whatever
the locale, held in an unnamed temporary file in TMPDIR and copied to the
target only when its text is complete, so a refusal leaves the target as it
was. A command prints after its file is written. Its CSV rows are
csv.writer's (excel dialect)."""
import ast
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import it2frbc
from it2frbc import (DataError, Dataset, NormalizationParams, SubclustParams, classify_batch,
                     load_csv, load_features_csv, load_rulebase, save_csv, subtractive_cluster)
from it2frbc.cli import main

SRC = pathlib.Path(it2frbc.__file__).resolve().parent
NAMES = ["a,b", 'c"d', "café"]
# A quoted cell holding a line break, a leading space and an exponent, all
# read as numbers and echoed by predict as written.
CELLS = b'x,y\r\n"0.1\n", 0.5\r\n1e3,0.25\n0.9,"1.5"\r\n0.3,0.7\n'


def excel_bytes(rows) -> bytes:
    """What csv.writer (excel dialect) writes for ``rows``, as UTF-8."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def three_class_model():
    return {
        "format": "it2frbc-model",
        "format_version": 1,
        "num_classes": 3,
        "class_names": NAMES,
        "fuzzifiers": {"m1": 1.5, "m2": 2.5},
        "aggregation_p": 2.0,
        "normalization": {"min": [0.0, 0.0], "max": [1000.0, 2.0]},
        "rules": [
            {"center": [0.1, 0.2], "source_class": 0, "certainty": [0.8, 0.1, 0.1]},
            {"center": [0.5, 0.5], "source_class": 1, "certainty": [0.1, 0.7, 0.2]},
            {"center": [0.9, 0.8], "source_class": 2, "certainty": [0.2, 0.2, 0.6]},
        ],
    }


class TestCsvWriterBytes:
    def test_save_csv(self, tmp_path):
        X = np.array([[0.1, -2.5], [1e-300, 3.0], [1e3, 1 / 3]])
        path = tmp_path / "ds.csv"
        save_csv(Dataset(X, np.array([0, 1, 2]), NAMES), path)
        header = ["f1", "f2", "label"]
        want = excel_bytes([header] + [[*map(repr, x), n] for x, n in zip(X.tolist(), NAMES)])
        assert path.read_bytes() == want
        assert b'"a,b"' in want and b'"c""d"' in want and "café".encode() in want
        assert load_csv(path, -1).class_names == tuple(NAMES)

    def test_cluster(self, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_bytes(CELLS)
        out = tmp_path / "centers.csv"
        assert main(["cluster", "--in", str(data), "--ra", "0.5", "--out", str(out)]) == 0
        points = load_features_csv(data)
        norm = NormalizationParams(points.min(axis=0), points.max(axis=0))
        centers = norm.invert(subtractive_cluster(norm.apply(points), SubclustParams(0.5)))
        want = excel_bytes([["f1", "f2"]] + [list(map(repr, row)) for row in centers.tolist()])
        assert out.read_bytes() == want

    def test_predict(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(three_class_model()), encoding="utf-8")
        data = tmp_path / "data.csv"
        data.write_bytes(CELLS)
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model), "--in", str(data), "--out", str(out)]
        assert main(argv) == 0
        rb = load_rulebase(model)
        rows = list(csv.reader(io.StringIO(CELLS.decode(), newline="")))[1:]
        preds, scores = classify_batch(np.array(rows, dtype=float), rb)
        header = ["f1", "f2", "predicted"] + [f"score_{n}" for n in NAMES]
        want = excel_bytes([header] + [[*row, NAMES[k], *map(repr, s)]
                                       for row, k, s in zip(rows, preds.tolist(), scores.tolist())])
        got = out.read_bytes()
        assert got == want
        assert b'"0.1\n", 0.5,' in got and b"1e3,0.25," in got
        assert b'"score_a,b","score_c""d",score_caf\xc3\xa9\r\n' in got


def ascii_locale_env() -> dict:
    """The environment of a child Python under the C locale (ASCII)."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("PYTHONIOENCODING", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return env


def test_stdout_refuses_text_its_encoding_cannot_hold(tmp_path):
    # Standard output keeps the locale's encoding. export-rules on the class
    # 'café' under the C locale used to exit 3 with "internal error:
    # UnicodeEncodeError"; it is refused as files are, and nothing is printed.
    data = tmp_path / "data.csv"
    data.write_text("x,label\n0.1,café\n0.2,café\n0.8,tea\n0.9,tea\n", encoding="utf-8")
    assert main(["train", "--in", str(data), "--no-sc", "--train-frac", "0.5", "--stratified",
                 "--model", str(tmp_path / "m.json")]) == 0
    proc = subprocess.run([sys.executable, "-m", "it2frbc.cli", "export-rules", "--model",
                           "m.json"], env=ascii_locale_env(), capture_output=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == (b"error: cannot write standard output: '\\xe9' is not ascii text "
                           b"(ordinal not in range(128))\n")


def test_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale Python's default encoding is ASCII; predict used to
    # exit 3 with "internal error: UnicodeEncodeError" on the class 'café'.
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0.2, 0.05, (12, 2)), rng.normal(0.8, 0.05, (12, 2))])
    data = tmp_path / "data.csv"
    labels = ["café"] * 12 + ["tea"] * 12
    data.write_text("x,y,label\n" + "".join(f"{a!r},{b!r},{n}\n" for (a, b), n in
                                            zip(X.tolist(), labels)), encoding="utf-8")
    env = ascii_locale_env()

    def child(*argv):
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              timeout=120, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        return proc.stdout.decode("ascii")

    code = "import locale; print(locale.getpreferredencoding(False))"
    assert child("-c", code).strip().lower() in ("ascii", "ansi_x3.4-1968")
    child("-m", "it2frbc.cli", "train", "--in", "data.csv", "--no-sc", "--model", "m.json")
    child("-m", "it2frbc.cli", "predict", "--model", "m.json", "--in", "data.csv",
          "--out", "pred.csv")
    text = (tmp_path / "pred.csv").read_bytes().decode("utf-8")
    assert text.startswith("f1,f2,predicted,score_café,score_tea\r\n")
    assert set(load_csv(tmp_path / "pred.csv", 2).class_names) == {"café", "tea"}


class TestRefusalKeepsTheTarget:
    def test_save_csv(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(b"old bytes\n")
        ds = Dataset(np.array([[0.5]]), np.array([0]), ("\ud800",))
        with pytest.raises(DataError, match=rf"cannot write {path}: '\\ud800' is not UTF-8 text"):
            save_csv(ds, path)
        assert path.read_bytes() == b"old bytes\n"

    def test_eval_report(self, tmp_path, capsys):
        # A file name that is not UTF-8 reaches the report's source line as a
        # surrogate escape; eval --out used to exit 3 and leave the file empty.
        raw = os.fsencode(tmp_path) + b"/data\xff.csv"
        with open(raw, "wb") as fh:
            fh.write(b"x,label\n0.1,a\n0.2,a\n0.8,b\n0.9,b\n")
        out = tmp_path / "report.txt"
        out.write_bytes(b"old report\n")
        code = main(["eval", "--in", os.fsdecode(raw), "--no-sc", "--runs", "1",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: '\\udcff' is not UTF-8 text")
        assert out.read_bytes() == b"old report\n"


# The calls that make a temporary file, which the one writer does.
TEMPORARY_FILES = ("TemporaryFile", "NamedTemporaryFile", "SpooledTemporaryFile", "mkstemp")


def test_one_writer():
    """No open() in a write mode (nor a Path.write_*) in the package and no
    temporary file but the one of each in dataset._spool. A mode that is not
    a literal counts as a write."""
    writes, temporary, spool = [], [], None
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_spool":
                spool = (path.name, range(node.lineno, node.end_lineno + 1))
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open":
                mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                mode = mode[0] if mode else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                    writes.append((path.name, node.lineno))
            elif name in ("write_text", "write_bytes"):
                writes.append((path.name, node.lineno))
            elif name in TEMPORARY_FILES:
                temporary.append((path.name, node.lineno))
    module, lines = spool
    assert module == "dataset.py"
    for calls in (writes, temporary):
        assert len(calls) == 1 and calls[0][0] == module and calls[0][1] in lines, calls
