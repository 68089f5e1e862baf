"""Repeated-experiment harness: shuffled splits, per-run metrics, and
best/average/worst/stddev aggregates in the three report formats.

Each run derives its own split seed from the master seed, fits the
normalizer on its training half only, builds a rule base, and classifies
the held-out half. Runs are independent and execute one after another in
index order, so a report is a function of the configuration alone. A report
holds its runs, and its aggregates are derived from them. Failed runs (e.g.
a class missing from a training half, or an empty held-out half) are
recorded and excluded from the aggregates; `it2frbc eval` exits 2 when no
run succeeded. One record (_document) carries every run field and every
aggregate; the json report prints it, and the text table and the CSV
report render it.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import (
    Dataset,
    GENERATORS,
    MISSING_POLICIES,
    SplitSpec,
    fit_normalizer,
    load_csv,
    normalize_dataset,
    split,
)
from .errors import ConfigError, DataError
from .inference import classify_batch
from .rulebase import Fuzzifiers, RuleBase, _check_aggregation_p, build_rulebase
from .subclust import SubclustParams, describe_params


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark protocol settings; defaults give 32 shuffled 50/50 runs."""

    generator: str | None = None
    data_path: str | None = None
    label_column: int = -1
    missing_policy: str = "drop_row"
    runs: int = 32
    train_fraction: float = 0.5
    stratified: bool = False
    master_seed: int = 0
    subclust: SubclustParams | None = None
    fuzzifiers: Fuzzifiers = field(default_factory=Fuzzifiers)
    aggregation_p: float = 2.0

    def __post_init__(self):
        if (self.generator is None) == (self.data_path is None):
            raise ConfigError("exactly one of generator/data_path must be set")
        if self.generator is not None and self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.missing_policy not in MISSING_POLICIES:
            raise ConfigError(f"unknown missing_policy {self.missing_policy!r}")
        for name in ("label_column", "runs"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        SplitSpec(self.train_fraction, self.master_seed, self.stratified)
        _check_aggregation_p(self.aggregation_p)

    def describe(self) -> dict[str, str]:
        """All settings materialized, for self-describing reports."""
        out: dict[str, str] = {}
        if self.generator is not None:
            out["source"] = f"generator:{self.generator}"
        else:
            out["source"] = str(self.data_path)
            out["label_column"] = str(self.label_column)
            out["missing_policy"] = self.missing_policy
        out["runs"] = str(self.runs)
        out["train_fraction"] = repr(self.train_fraction)
        out["stratified"] = str(self.stratified).lower()
        out["master_seed"] = str(self.master_seed)
        out.update(describe_params(self.subclust))
        out["m1"] = repr(self.fuzzifiers.m1)
        out["m2"] = repr(self.fuzzifiers.m2)
        out["aggregation_p"] = repr(self.aggregation_p)
        return out


@dataclass(frozen=True, eq=False)
class RunResult:
    """One run as measured: its held-out confusion matrix and rule count, or
    the error that stopped it. Runs, like reports, compare by identity (the
    confusion matrix is an array); compare reports through
    ``emit_report(report, "json")``."""

    index: int
    seed: int
    rule_count: int | None = None
    confusion: np.ndarray | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def accuracy(self) -> float | None:
        return None if self.confusion is None else accuracy(self.confusion)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """The runs of one configuration. Only they are given: the aggregates
    are derived from the runs that succeeded when the report is built (None
    when none did), so replacing the runs re-derives them. ``==`` is
    identity: two reports compare through ``emit_report(report, "json")``,
    which holds every run field and aggregate."""

    config: ExperimentConfig
    class_names: tuple[str, ...]
    runs: tuple[RunResult, ...]
    best: float | None = field(init=False)
    average: float | None = field(init=False)
    worst: float | None = field(init=False)
    stddev: float | None = field(init=False)
    rules_min: int | None = field(init=False)
    rules_max: int | None = field(init=False)
    failed_count: int = field(init=False)

    def __post_init__(self):
        ok = [r for r in self.runs if r.ok]
        accs = np.array([r.accuracy for r in ok])
        counts = [r.rule_count for r in ok]
        values = (float(accs.max()), float(accs.mean()), float(accs.min()), float(accs.std()),
                  min(counts), max(counts)) if ok else (None,) * 6
        # The derived fields, in declaration order after the three given ones.
        for f, value in zip(fields(self)[3:], (*values, len(self.runs) - len(ok))):
            object.__setattr__(self, f.name, value)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """Rows = true class, columns = predicted class."""
    cells = np.asarray(y_true, dtype=np.int64) * num_classes + np.asarray(y_pred, dtype=np.int64)
    return np.bincount(cells, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def accuracy(conf: np.ndarray) -> float:
    """Percentage of the confusion-matrix total that lies on the diagonal."""
    conf = np.asarray(conf)
    if conf.size == 0:
        raise DataError("empty confusion matrix")
    total = conf.sum()
    if total == 0:
        raise DataError("confusion matrix has no observations")
    return 100.0 * float(np.trace(conf)) / float(total)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Independent per-run split seed from the master seed."""
    return int(np.random.SeedSequence((master_seed, run_index)).generate_state(1)[0])


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.generator is not None:
        return GENERATORS[cfg.generator](cfg.master_seed)
    return load_csv(cfg.data_path, cfg.label_column, cfg.missing_policy)


def train_and_score(ds: Dataset, cfg: ExperimentConfig, seed: int) -> tuple[RuleBase, np.ndarray]:
    """One protocol run: split, fit normalizer on train only, build, score.

    Returns the rule base and the test confusion matrix, which has
    observations. Raises DataError for untrainable splits and for an empty
    held-out half, before any clustering.
    """
    train, test = split(ds, SplitSpec(cfg.train_fraction, seed, cfg.stratified))
    if len(test) == 0:
        raise DataError("the held-out half of the split is empty")
    norm = fit_normalizer(train)
    rb = build_rulebase(
        normalize_dataset(norm, train), cfg.subclust, cfg.fuzzifiers, cfg.aggregation_p, norm
    )
    predictions, _ = classify_batch(test.features, rb)
    return rb, confusion_matrix(test.labels, predictions, ds.num_classes)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.runs independent runs; deterministic in master_seed."""
    ds = resolve_dataset(cfg)

    def one(i: int) -> RunResult:
        seed = derive_run_seed(cfg.master_seed, i)
        try:
            rb, conf = train_and_score(ds, cfg, seed)
        except DataError as exc:
            return RunResult(index=i, seed=seed, error=str(exc))
        return RunResult(index=i, seed=seed, rule_count=rb.num_rules, confusion=conf)

    return ExperimentReport(cfg, ds.class_names, tuple(one(i) for i in range(cfg.runs)))


def emit_report(report: ExperimentReport, format: str, timestamp: str | None = None) -> str:
    """Render a report as 'text_table', 'csv', or 'json'.

    All three render one record, _document's, which json prints as it is.
    csv and json carry full-precision numbers; the text table shows them at
    display precision in the benchmark-table layout. A timestamp, when
    given, occupies a single header line (or one JSON field).
    """
    render = {"text_table": _text_table, "csv": _csv_report,
              "json": lambda doc: json.dumps(doc, indent=1) + "\n"}.get(format)
    if render is None:
        raise ConfigError(f"unknown report format {format!r}")
    return render(_document(report, timestamp))


def _document(report: ExperimentReport, timestamp: str | None) -> dict:
    """The report as one record: each per-run field and each aggregate is
    named here and only here, in the order every format shows them."""
    doc: dict = {} if timestamp is None else {"generated_at": timestamp}
    doc["config"] = report.config.describe()
    doc["class_names"] = list(report.class_names)
    doc["runs"] = [
        {
            "run": r.index,
            "seed": r.seed,
            "status": "ok" if r.ok else "failed",
            "accuracy_pct": r.accuracy,
            "rule_count": r.rule_count,
            "confusion": None if r.confusion is None else r.confusion.tolist(),
            "error": r.error,
        }
        for r in report.runs
    ]
    doc["aggregate"] = {
        "best": report.best,
        "average": report.average,
        "worst": report.worst,
        "stddev": report.stddev,
        "rules_min": report.rules_min,
        "rules_max": report.rules_max,
        "failed_runs": report.failed_count,
    }
    return doc


def _config_block(items: dict[str, str]) -> str:
    """The ``configuration:`` block of text reports and the CLI's stdout."""
    return "configuration:\n" + "".join(f"  {key}: {val}\n" for key, val in items.items())


def _text_table(doc: dict) -> str:
    lines = [] if "generated_at" not in doc else [f"# generated: {doc['generated_at']}"]
    lines.append(_config_block(doc["config"]))
    agg = doc["aggregate"]
    lo, hi = agg["rules_min"], agg["rules_max"]
    rules = "n/a" if lo is None else str(lo) if lo == hi else f"[{lo},{hi}]"
    # The four accuracy statistics lead the aggregate: its columns, and their widths.
    stats = list(zip(agg.items(), (8, 9, 8, 8)))
    head = "".join(f"{name:>{w}}" for (name, _), w in stats)
    row = "".join(f"{'n/a' if v is None else format(v, '.2f'):>{w}}" for (_, v), w in stats)
    lines.append(f"{'r_a':<8}{'clusters/rules':<16}{head}")
    lines.append(f"{doc['config']['r_a']:<8}{rules:<16}{row}")
    lines.append(f"\n{'run':>4} {'seed':>11} {'status':<8}{'accuracy':>9} {'rules':>6}")
    for r in doc["runs"]:
        lead = f"{r['run']:>4} {r['seed']:>11} {r['status']:<8}"
        lines.append(lead + (f" {r['error']}" if r["error"] is not None
                             else f"{r['accuracy_pct']:>9.2f} {r['rule_count']:>6}"))
    lines.append(f"\nfailed runs: {agg['failed_runs']}\n")
    return "\n".join(lines)


def _csv_report(doc: dict) -> str:
    """The eval CSV: ``# key=value`` header lines, then one row per run and
    one per aggregate under one header, each line ended by ``\\n``."""
    lines = [] if "generated_at" not in doc else [f"# generated: {doc['generated_at']}"]
    lines += [f"# {key}={val}" for key, val in doc["config"].items()]
    lines.append("record,run,seed,status,accuracy_pct,rule_count,detail")
    cell = lambda v: "" if v is None else repr(v)
    for r in doc["runs"]:
        detail = (r["error"] or "").replace(",", ";")  # the one cell that may hold text
        lines.append(f"run,{r['run']},{r['seed']},{r['status']},{cell(r['accuracy_pct'])},"
                     f"{cell(r['rule_count'])},{detail}")
    for name, value in doc["aggregate"].items():
        # Accuracies go in the accuracy_pct column, counts in rule_count.
        cells = (cell(value), "") if isinstance(value, float) else ("", cell(value))
        lines.append(f"aggregate_{name},,,,{cells[0]},{cells[1]},")
    return "\n".join(lines) + "\n"
