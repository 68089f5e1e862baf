"""One header rule and one set of input checks for every CSV entry point:
``load_csv`` (train/eval), ``load_features_csv`` (cluster) and ``predict``.

The first non-blank row is a header when none of its cells is a number or a
missing mark; every other row is data. Each file below has two feature
columns and a numeric label column, so the same text serves a labelled
reader (the third column is the label), the all-features reader (three
features) and ``predict`` with a two-feature model (a trailing label).
"""
import numpy as np
import pytest

from it2frbc import (
    DataError,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    load_csv,
    load_features_csv,
    save_rulebase,
)
from it2frbc.cli import main

# (id, file text, outcome for load_csv, outcome for the other entry points).
# Text is written as UTF-8. An int is the number of data rows read; a
# string is the start of the DataError message (exit 2 in predict), {path}
# the file's. A first row of missing marks is
# data: load_csv drops it as a row with missing values, the others refuse it.
CASES = [
    ("text-header", "x,y,label\n1,2,1\n3,4,2\n", 2, 2),
    ("no-header", "1,2,1\n3,4,2\n", 2, 2),
    ("mixed-first-row", "x,y,1\n3,4,2\n", "line 1: non-numeric", "line 1: non-numeric"),
    ("all-missing-first-row", "?,,?\n1,2,1\n3,4,2\n", 2, "line 1: non-numeric"),
    ("blank-lines", "x,y,label\n\n1,2,1\n\n\n3,4,2\n", 2, 2),
    ("ragged-row", "1,2,1\n\n3,4\n", "line 3: expected 3 fields, found 2",
     "line 3: expected 3 fields, found 2"),
    ("header-only", "x,y,label\n", "empty dataset", "empty dataset"),
    ("empty-file", "", "empty dataset", "empty dataset"),
    ("nan-cell", "1,2,1\n\nnan,4,2\n", "line 3: non-finite", "line 3: non-finite"),
    ("inf-cell", "1,2,1\n3,-inf,2\n", "line 2: non-finite", "line 2: non-finite"),
    # A leading byte-order mark is not part of the first cell: '\ufeff1' was
    # refused as non-numeric.
    ("byte-order-mark", "\ufeff1,2,1\n3,4,2\n", 2, 2),
    ("byte-order-mark-header", "\ufeffx,y,label\n1,2,1\n", 1, 1),
    # A quoted cell may hold line breaks; a row is named by the physical
    # line its record starts on. Records were counted: lines 3, 3 and 4.
    ("line-break-in-header", '"x\n",y,label\r\n1,2,1\r\n3,abc,2\r\n',
     "line 4: non-numeric feature value 'abc'", "line 4: non-numeric feature value 'abc'"),
    ("line-break-in-feature", 'x,y,label\r\n"0.1\n\n",0.5,1\r\n1e3,abc,2\r\n',
     "line 5: non-numeric feature value 'abc'", "line 5: non-numeric feature value 'abc'"),
    ("line-break-in-label", 'x,y,label\r\n0.1,0.5,"1\n"\r\n\r\n3,4\r\n',
     "line 5: expected 3 fields, found 2", "line 5: expected 3 fields, found 2"),
    # A Latin-1 'café' ended the CLI with exit 3 (UnicodeDecodeError).
    ("latin-1", b"x,y,label\n1,2,caf\xe9\n", "cannot read {path}: not UTF-8 text",
     "cannot read {path}: not UTF-8 text"),
]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_rulebase(
        RuleBase(
            prototypes=np.array([[0.2, 0.3], [0.8, 0.6]]),
            source_classes=np.array([0, 1]),
            certainty=np.array([[0.9, 0.1], [0.2, 0.8]]),
            fuzzifiers=Fuzzifiers(),
            normalization=NormalizationParams(np.zeros(2), np.full(2, 5.0)),
            class_names=("1", "2"),
        ),
        path,
    )
    return path


def rows_read(entry, path, model, capsys):
    """Data rows read through one entry point; DataError when it refuses the file."""
    if entry == "load_csv":
        return len(load_csv(path, -1))
    if entry == "load_features_csv":
        return len(load_features_csv(path))
    out = path.with_name("pred.csv")
    code = main(["predict", "--model", str(model), "--in", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert not out.exists()
        raise DataError(err.removeprefix("error: "))
    assert code == 0, err
    return len(out.read_text().splitlines()) - 1


@pytest.mark.parametrize("entry", ["load_csv", "load_features_csv", "predict"])
@pytest.mark.parametrize("text, labelled, unlabelled", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_header_rule_and_input_checks(tmp_path, capsys, model, entry, text, labelled,
                                      unlabelled):
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    want = labelled if entry == "load_csv" else unlabelled
    if isinstance(want, int):
        assert rows_read(entry, path, model, capsys) == want
    else:
        with pytest.raises(DataError) as exc:
            rows_read(entry, path, model, capsys)
        assert str(exc.value).startswith(want.format(path=path))
