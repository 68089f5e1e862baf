"""Dataset representation, the one CSV reader, the one UTF-8 writer of every
output file (_spool, which holds the bytes in an unnamed temporary file in
TMPDIR until the target is written whole), normalization, splitting, and two
synthetic benchmark generators.

Feature matrices are float64 numpy arrays of shape ``(n, num_features)``.
Labels are integer class indices ``0..num_classes-1``. NormalizationParams
builds its per-column divisors once, when it is constructed.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, _number
from .subclust import _row_blocks

MISSING_MARKS = ("", "?")
MISSING_POLICIES = ("drop_row", "error")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of arr; the caller's array stays writeable."""
    arr = np.array(arr, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """A labeled point set: features ``(n, num_features)``, labels ``(n,)``.

    ``labels`` holds one class index per pattern, stored as int64;
    ``class_names`` gives the display string per index. What a class index
    is (an integer, or a whole float, in 0..num_classes-1; never a bool or
    nan) is written once, in _class_indices, which RuleBase's source
    classes go through too; the shapes are this type's own rules.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2:
            raise DataError("features must be a 2-D array")
        if np.shape(self.labels) != (X.shape[0],):
            raise DataError("labels must be one per pattern")
        if not np.all(np.isfinite(X)):
            raise DataError("features must be finite")
        if len(self.class_names) < 1:
            raise DataError("at least one class name required")
        y = _class_indices("labels", self.labels, len(self.class_names))
        object.__setattr__(self, "features", _freeze(X))
        object.__setattr__(self, "labels", _freeze(y))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


def _class_indices(name: str, values, count: int) -> np.ndarray:
    """The one rule of a class index, for labels and source classes alike:
    ``values`` as int64 if each is an integer, or a float with a whole
    value, in 0..count-1; a bool or nan is refused. A DataError names
    ``name`` otherwise."""
    a = np.asarray(values)
    whole = a.dtype.kind in "iu" or a.dtype.kind == "f" and (a == np.trunc(a)).all()
    if not isinstance(values, np.ndarray):  # np.asarray makes [True, 0] an int array
        whole = whole and not any(isinstance(v, (bool, np.bool_)) for v in values)
    if not (whole and 0 <= a.min(initial=0) and a.max(initial=0) < count):
        raise DataError(f"{name} must be integers in 0..{count - 1}")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min/max fitted on training data; maps features to [0,1].

    Out-of-range values are NOT clamped (normalized test values may fall
    outside [0,1]) so distances keep their true geometry. A constant
    feature (min == max) maps to 0.5. Non-finite input is refused with
    DataError, and so are a span max - min that overflows and a value that
    overflows on the way (a huge input over a tiny span), naming the feature.

    The divisor of each column (its span, or 1 for a constant column) and
    the constant-column mask (None when no column is constant) are built
    once here, read-only, so apply() does no per-call work on the model.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=float)
        hi = np.asarray(self.maximum, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError("min/max must be 1-D vectors of equal length")
        if np.any(lo > hi):
            raise DataError("per-feature min must not exceed max")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(hi - lo)
        if not finite.all():
            k = int(np.argmin(finite))
            raise DataError(
                f"feature {k + 1}: span max - min is not finite "
                f"(min {float(lo[k])!r}, max {float(hi[k])!r})"
            )
        object.__setattr__(self, "minimum", _freeze(lo))
        object.__setattr__(self, "maximum", _freeze(hi))
        const = hi - lo == 0
        object.__setattr__(self, "_divisor", _freeze(np.where(const, 1.0, hi - lo)))
        object.__setattr__(self, "_constant", _freeze(const) if const.any() else None)

    @property
    def num_features(self) -> int:
        return self.minimum.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Normalize a feature matrix (or single feature vector)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.num_features:
            raise DataError(
                f"input has {X.shape[1]} features but normalizer expects {self.num_features}"
            )
        with np.errstate(over="ignore"):
            out = (X - self.minimum) / self._divisor
        if self._constant is not None:
            np.copyto(out, 0.5, where=self._constant)
        # A finite output proves finite input, except in a constant column,
        # which hides its input; only then is the input itself tested.
        if self._constant is not None or not np.isfinite(out).all():
            if not np.isfinite(X).all():
                raise DataError("input features must be finite (no nan or inf)")
            if not np.isfinite(out).all():
                k = int(np.argmin(np.isfinite(out).all(axis=0)))
                raise DataError(
                    f"feature {k + 1}: value does not normalize to a finite number "
                    f"(fitted min {float(self.minimum[k])!r}, max {float(self.maximum[k])!r})"
                )
        return out[0] if single else out

    def invert(self, X: np.ndarray) -> np.ndarray:
        """Map normalized coordinates back to original units."""
        X = np.asarray(X, dtype=float)
        return X * (self.maximum - self.minimum) + self.minimum


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic shuffled train/test split specification."""

    train_fraction: float = 0.5
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        try:
            inside = 0.0 < _number("train_fraction", self.train_fraction) < 1.0
        except ConfigError:  # not a number
            inside = False
        if not inside:
            raise ConfigError("train_fraction must lie in the open interval (0,1)")
        _check_seed(self.seed)
        if not isinstance(self.stratified, (bool, np.bool_)):
            raise ConfigError(f"stratified must be True or False, got {self.stratified!r}")


def _check_seed(seed: int) -> int:
    """The seed rule, for splits and generators alike: an integer (_number)
    of at least 0; returns ``seed``."""
    with contextlib.suppress(ConfigError):
        if _number("seed", seed, integer=True) >= 0:
            return seed
    raise ConfigError("seed must be a non-negative integer")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _has_missing(cells: list[str]) -> bool:
    """Whether a row holds a missing mark (an empty cell or "?")."""
    return any(c.strip() in MISSING_MARKS for c in cells)


def _is_header(cells: list[str]) -> bool:
    """The header rule: no cell is a number or a missing mark."""
    return not (_has_missing(cells) or any(map(_is_number, cells)))


def _read_csv(path, label_column=None, keep=None, block_width=None):
    """Read a CSV of numeric feature cells and at most one label column, in
    row blocks.

    The file is UTF-8 text, a leading byte-order mark skipped. Blank lines
    are skipped. A row's line number is the physical line its record starts
    on, so the lines of a quoted cell that holds a line break count. The
    first non-blank row is a header when it passes ``_is_header``; any other
    row is data, so a first row mixing numbers and text is refused with its
    line number. Every data row must be as wide as the first row.
    ``label_column`` is a column index (negative counts from the end), None
    for no label, or a function of the width giving either.
    ``keep(lineno, cells)`` may drop a row before its cells are converted.

    A generator: the file is read as the blocks are taken, and only one
    block's rows are held. The rows come in blocks of at most one slice of
    subclust._row_blocks at ``block_width`` values a row (default: the
    file's column count, so a block's features are one budget); blank and
    dropped rows count toward their block. Each block with a kept row is
    (features (rows, num_features), stripped label cells or None, resolved
    label column or None, each kept row's feature cells as read). A block
    is checked in three passes: every width, then ``keep``, then the cells.
    So a file with several defects is refused at its first block that has
    one, and within that block a width comes before a missing value and
    both before a cell. Every refusal is a DataError (a
    ConfigError for a label column that is not an integer or is out of
    range) raised by the block that reaches it; "empty dataset" when no
    row is kept.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            # line_num counts the lines read so far, and zip reads it before
            # it fetches each record: one more is the record's first line.
            records = zip(map(operator.attrgetter("line_num"), itertools.repeat(reader)), reader)
            first = next(((before + 1, row) for before, row in records if row), None)
            if first is None:
                raise DataError("empty dataset")
            width = len(first[1])
            block = [] if _is_header(first[1]) else [first]
            if callable(label_column):
                label_column = label_column(width)
            label_idx = label_column
            if label_column is not None:
                _number("label column", label_column, integer=True)
                label_idx = label_column if label_column >= 0 else width + label_column
                if not 0 <= label_idx < width:
                    raise ConfigError(
                        f"label column {label_column} out of range for {width} columns")
            empty = True
            # The blocks of an unbounded row count; the file's end ends them.
            for s in _row_blocks(sys.maxsize, block_width or width):
                read = list(itertools.islice(records, s.stop - s.start - len(block)))
                if not read and not block:
                    break
                block += [(before + 1, row) for before, row in read if row]
                for lineno, row in block:
                    if len(row) != width:
                        raise DataError(f"line {lineno}: expected {width} fields, found {len(row)}")
                if keep is not None:
                    block = [(lineno, row) for lineno, row in block if keep(lineno, row)]
                if block:
                    empty = False
                    rows = [row for _, row in block]
                    yield (*_convert(block, rows, label_idx), label_idx, rows)
                block = []
            if empty:
                raise DataError("empty dataset")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _convert(block, rows, label_idx):
    """(features, stripped label cells or None) of a block's (lineno, cells)
    rows of equal width, ``rows`` their cells; pops the label cell from each
    row."""
    labels = None if label_idx is None else [row.pop(label_idx).strip() for row in rows]
    shape = (len(rows), len(rows[0]))
    try:
        X = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float,
                        shape[0] * shape[1]).reshape(shape)
    except ValueError:
        lineno, cell = next((n, c) for n, row in block for c in row if not _is_number(c))
        raise DataError(f"line {lineno}: non-numeric feature value {cell!r}") from None
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        # Refused here, before normalization turns inf into nan with a warning.
        lineno = block[int(np.argmin(finite))][0]
        raise DataError(f"line {lineno}: non-finite value (nan or inf)")
    return X, labels


_QUOTE = csv.excel.quotechar
# The characters that make csv.writer quote a cell: ',', '"', '\r', '\n'.
_SPECIAL = csv.excel.delimiter + _QUOTE + csv.excel.lineterminator


def _csv_cell(cell: str) -> str:
    """``cell`` as csv.writer (excel dialect, minimal quoting) writes it in a row."""
    if any(ch in cell for ch in _SPECIAL):
        return _QUOTE + cell.replace(_QUOTE, _QUOTE + _QUOTE) + _QUOTE
    return cell


def _csv_text(cells, *columns) -> str:
    """Each row of ``cells`` and the next cell of each column, in
    csv.writer's excel dialect; a header is the first row. A column is any
    iterable, an iterator too, of cells that need no quoting (repr floats,
    or _csv_cell's results). The cells of ``cells``, rows of equal width,
    are quoted one by one only if a count over all rows finds a special
    character."""
    rows = list(map(",".join, cells))
    joined = "".join(rows)
    commas = len(rows) * (len(cells[0]) - 1) if rows else 0
    if [joined.count(ch) for ch in _SPECIAL] != [commas, 0, 0, 0]:
        rows = [",".join(map(_csv_cell, row)) for row in cells]
    # The last, empty line makes the join end the last row with a terminator too.
    return "\r\n".join([*map(",".join, zip(rows, *columns)), ""])


def _utf8(path, text: str) -> bytes:
    """``text`` as UTF-8. Text that UTF-8 cannot encode (a lone surrogate) is
    refused with a DataError that names ``path``, the file it is meant for."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise DataError(f"cannot write {path}: {bad!r} is not UTF-8 text ({exc.reason})") from None


@contextlib.contextmanager
def _spool(path):
    """The one writer of every output file. Yields ``write(text)``, which
    encodes ``text`` as UTF-8 (_utf8) and appends it, flushed, to an unnamed
    temporary file; when the block exits without an exception, ``path`` is
    opened and the bytes are copied in. So a refusal before then (text
    that UTF-8 cannot encode, a bad input row, a full disk) leaves the
    target as it was, and memory holds no more than one write's text. The
    file is made in the system temp dir (TMPDIR), with O_TMPFILE on Linux,
    so it never has a name and nothing is left behind, a crash included. A
    file that cannot be made (no usable temp dir) or written, or a target
    that cannot be opened or written, is refused with a DataError: cannot
    write ``path``: the OSError."""
    try:
        spool = tempfile.TemporaryFile()
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc

    def write(text: str) -> None:
        try:
            spool.write(_utf8(path, text))
            spool.flush()
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc

    with spool:
        yield write
        spool.seek(0)
        try:
            with open(path, "wb") as fh:
                shutil.copyfileobj(spool, fh)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, through _spool."""
    with _spool(path) as write:
        write(text)


def load_csv(path, label_column: int, missing_policy: str = "drop_row") -> Dataset:
    """Load a delimiter-separated file into a Dataset.

    The label column may hold strings; labels are mapped to indices in
    first-appearance order. A first row with no number or missing mark is a
    header. Missing values (empty field or "?") are handled per
    ``missing_policy``: "drop_row" removes the row, "error" raises.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ConfigError(f"unknown missing_policy {missing_policy!r}")

    def keep(lineno: int, cells: list[str]) -> bool:
        if not _has_missing(cells):
            return True
        if missing_policy == "error":
            raise DataError(f"line {lineno}: missing value")
        return False

    blocks, raw_labels = [], []
    for X, labels, _, _ in _read_csv(path, label_column, keep):
        blocks.append(X)
        raw_labels += labels
    X = np.concatenate(blocks)
    if X.shape[1] == 0:
        raise DataError("need at least one feature column and one label column")
    name_to_idx: dict[str, int] = {}
    for name in raw_labels:
        if name not in name_to_idx:
            name_to_idx[name] = len(name_to_idx)
    labels = np.array([name_to_idx[n] for n in raw_labels], dtype=np.int64)
    return Dataset(X, labels, tuple(name_to_idx))


def load_features_csv(path) -> np.ndarray:
    """Load an unlabeled CSV (all columns numeric features)."""
    return np.concatenate([X for X, *_ in _read_csv(path)])


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same CSV shape load_csv accepts (label last)."""
    rows = [[*map(repr, x), ds.class_names[y]]
            for x, y in zip(ds.features.tolist(), ds.labels.tolist())]
    _write_text(path, _csv_text([[f"f{i + 1}" for i in range(ds.num_features)] + ["label"], *rows]))


def fit_normalizer(ds: Dataset) -> NormalizationParams:
    """Per-feature min/max over the dataset."""
    if len(ds) == 0:
        raise DataError("cannot fit normalizer on an empty dataset")
    return NormalizationParams(ds.features.min(axis=0), ds.features.max(axis=0))


def normalize_dataset(params: NormalizationParams, ds: Dataset) -> Dataset:
    """Map a whole dataset into normalized feature space."""
    return Dataset(params.apply(ds.features), ds.labels, ds.class_names)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Shuffle and divide into train/test; deterministic in spec.seed."""
    n = len(ds)
    if n < 2:
        raise DataError("need at least 2 patterns to split")
    rng = np.random.default_rng(spec.seed)

    if spec.stratified:
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for j in range(ds.num_classes):
            members = np.flatnonzero(ds.labels == j)
            k = int(np.floor(len(members) * spec.train_fraction + 0.5))
            if len(members) and k == 0:
                raise DataError(
                    f"stratified split leaves class {ds.class_names[j]!r} absent from train"
                )
            perm = rng.permutation(members)
            train_idx.append(perm[:k])
            test_idx.append(perm[k:])
        tr = rng.permutation(np.concatenate(train_idx))
        te = rng.permutation(np.concatenate(test_idx))
    else:
        k = int(np.floor(n * spec.train_fraction + 0.5))
        k = min(max(k, 1), n - 1)
        perm = rng.permutation(n)
        tr, te = perm[:k], perm[k:]

    make = lambda idx: Dataset(ds.features[idx], ds.labels[idx], ds.class_names)
    return make(tr), make(te)


CIRCLE_CENTER = (10.0, 10.0)
INNER_RADIUS = 5.0
OUTER_RADIUS = 7.0
CIRCULAR_COUNTS = (63, 123)


def gen_circular(seed: int) -> Dataset:
    """Synthetic 2-feature problem: a disk of class 1 surrounded by class 2.

    Points are drawn uniformly in [0,20]^2 and labeled by distance d to
    (10,10): class 1 if d < 5, class 2 if d > 7; the annulus 5 <= d <= 7 is
    discarded. Drawing continues until the class totals reach 63 and 123.
    """
    rng = np.random.default_rng(_check_seed(seed))
    inner: list[np.ndarray] = []
    outer: list[np.ndarray] = []
    while len(inner) < CIRCULAR_COUNTS[0] or len(outer) < CIRCULAR_COUNTS[1]:
        x = rng.uniform(0.0, 20.0, size=2)
        d = float(np.hypot(x[0] - CIRCLE_CENTER[0], x[1] - CIRCLE_CENTER[1]))
        if d < INNER_RADIUS and len(inner) < CIRCULAR_COUNTS[0]:
            inner.append(x)
        elif d > OUTER_RADIUS and len(outer) < CIRCULAR_COUNTS[1]:
            outer.append(x)
    feats = np.array(inner + outer)
    labels = np.array([0] * CIRCULAR_COUNTS[0] + [1] * CIRCULAR_COUNTS[1])
    return Dataset(feats, labels, ("1", "2"))


# Irregular benchmark geometry: an elongated three-lobe blob (class 2) of
# different lobe sizes and sampling densities, surrounded by class 1 with a
# clear margin. Counts are fixed at 480/383; the shape itself is a
# documented convention of this package (see module docs).
IRREGULAR_LOBES = (
    ((6.5, 9.0), 2.2, 0.45),
    ((10.0, 11.5), 1.5, 0.30),
    ((13.5, 9.5), 1.0, 0.25),
)
IRREGULAR_GAP = 1.2
IRREGULAR_COUNTS = (480, 383)


def gen_irregular(seed: int) -> Dataset:
    """Synthetic 2-feature problem: 863 patterns, class 1 (480) surrounding
    an irregular multi-lobe class 2 (383); not linearly separable."""
    rng = np.random.default_rng(_check_seed(seed))
    blob: list[tuple[float, float]] = []
    while len(blob) < IRREGULAR_COUNTS[1]:
        u = rng.random()
        acc = 0.0
        for (cx, cy), radius, weight in IRREGULAR_LOBES:
            acc += weight
            if u <= acc:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                rad = radius * np.sqrt(rng.random())
                px, py = cx + rad * np.cos(ang), cy + rad * np.sin(ang)
                if 0.0 <= px <= 20.0 and 0.0 <= py <= 20.0:
                    blob.append((px, py))
                break

    surround: list[tuple[float, float]] = []
    while len(surround) < IRREGULAR_COUNTS[0]:
        px, py = rng.uniform(0.0, 20.0, size=2)
        if all(
            np.hypot(px - cx, py - cy) > radius + IRREGULAR_GAP
            for (cx, cy), radius, _ in IRREGULAR_LOBES
        ):
            surround.append((px, py))

    feats = np.array(surround + blob)
    labels = np.array([0] * IRREGULAR_COUNTS[0] + [1] * IRREGULAR_COUNTS[1])
    return Dataset(feats, labels, ("1", "2"))


GENERATORS = {"circular": gen_circular, "irregular": gen_irregular}
