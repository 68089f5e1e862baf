"""Repeated-experiment harness: shuffled splits, per-run metrics, and
best/average/worst/stddev aggregates in the three report formats.

Each run derives its own split seed from the master seed, fits the
normalizer on its training half only, builds a rule base, and classifies
the held-out half. Runs are independent and execute one after another in
index order, so a report is a function of the configuration alone. Failed
runs (e.g. a class missing from a training half) are recorded and excluded
from the aggregates; `it2frbc eval` exits 2 when no run succeeded.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    Dataset,
    GENERATORS,
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


@dataclass(frozen=True)
class RunResult:
    index: int
    seed: int
    accuracy: float | None = None
    rule_count: int | None = None
    confusion: np.ndarray | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    class_names: tuple[str, ...]
    runs: tuple[RunResult, ...]
    best: float | None
    average: float | None
    worst: float | None
    stddev: float | None
    rules_min: int | None
    rules_max: int | None
    failed_count: int


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

    Returns the rule base and the test confusion matrix. Raises DataError
    for untrainable splits.
    """
    train, test = split(ds, SplitSpec(cfg.train_fraction, seed, cfg.stratified))
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
        return RunResult(
            index=i,
            seed=seed,
            accuracy=accuracy(conf),
            rule_count=rb.num_rules,
            confusion=conf,
        )

    results = [one(i) for i in range(cfg.runs)]

    ok = [r for r in results if r.ok]
    accs = np.array([r.accuracy for r in ok]) if ok else None
    counts = [r.rule_count for r in ok]
    return ExperimentReport(
        config=cfg,
        class_names=ds.class_names,
        runs=tuple(results),
        best=float(accs.max()) if ok else None,
        average=float(accs.mean()) if ok else None,
        worst=float(accs.min()) if ok else None,
        stddev=float(accs.std()) if ok else None,
        rules_min=min(counts) if ok else None,
        rules_max=max(counts) if ok else None,
        failed_count=len(results) - len(ok),
    )


def _rules_interval_text(report: ExperimentReport) -> str:
    if report.rules_min is None:
        return "n/a"
    if report.rules_min == report.rules_max:
        return str(report.rules_min)
    return f"[{report.rules_min},{report.rules_max}]"


def _fmt(v: float | None, digits: int = 2) -> str:
    return "n/a" if v is None else f"{v:.{digits}f}"


def emit_report(report: ExperimentReport, format: str, timestamp: str | None = None) -> str:
    """Render a report as 'text_table', 'csv', or 'json'.

    csv and json carry full-precision numbers; the text table shows them at
    display precision in the benchmark-table layout. A timestamp, when
    given, occupies a single header line (or one JSON field).
    """
    if format == "text_table":
        return _emit_text(report, timestamp)
    if format == "csv":
        return _emit_csv(report, timestamp)
    if format == "json":
        return _emit_json(report, timestamp)
    raise ConfigError(f"unknown report format {format!r}")


def _config_block(items: dict[str, str]) -> str:
    """The ``configuration:`` block of text reports and the CLI's stdout."""
    return "configuration:\n" + "".join(f"  {key}: {val}\n" for key, val in items.items())


def _emit_text(report: ExperimentReport, timestamp: str | None) -> str:
    out = io.StringIO()
    if timestamp is not None:
        out.write(f"# generated: {timestamp}\n")
    config = report.config.describe()
    out.write(_config_block(config) + "\n")
    ra = config["r_a"]
    header = f"{'r_a':<8}{'clusters/rules':<16}{'best':>8}{'average':>9}{'worst':>8}{'stddev':>8}"
    row = (
        f"{ra:<8}{_rules_interval_text(report):<16}{_fmt(report.best):>8}"
        f"{_fmt(report.average):>9}{_fmt(report.worst):>8}{_fmt(report.stddev):>8}"
    )
    out.write(header + "\n" + row + "\n\n")
    out.write(f"{'run':>4} {'seed':>11} {'status':<8}{'accuracy':>9} {'rules':>6}\n")
    for r in report.runs:
        if r.ok:
            out.write(f"{r.index:>4} {r.seed:>11} {'ok':<8}{r.accuracy:>9.2f} {r.rule_count:>6}\n")
        else:
            out.write(f"{r.index:>4} {r.seed:>11} {'failed':<8} {r.error}\n")
    out.write(f"\nfailed runs: {report.failed_count}\n")
    return out.getvalue()


def _emit_csv(report: ExperimentReport, timestamp: str | None) -> str:
    out = io.StringIO()
    if timestamp is not None:
        out.write(f"# generated: {timestamp}\n")
    for key, val in report.config.describe().items():
        out.write(f"# {key}={val}\n")
    out.write("record,run,seed,status,accuracy_pct,rule_count,detail\n")
    for r in report.runs:
        if r.ok:
            out.write(f"run,{r.index},{r.seed},ok,{r.accuracy!r},{r.rule_count},\n")
        else:
            detail = (r.error or "").replace(",", ";")
            out.write(f"run,{r.index},{r.seed},failed,,,{detail}\n")
    for name, value in (
        ("best", report.best),
        ("average", report.average),
        ("worst", report.worst),
        ("stddev", report.stddev),
    ):
        out.write(f"aggregate_{name},,,,{'' if value is None else repr(value)},,\n")
    out.write(f"aggregate_rules_min,,,,,{'' if report.rules_min is None else report.rules_min},\n")
    out.write(f"aggregate_rules_max,,,,,{'' if report.rules_max is None else report.rules_max},\n")
    out.write(f"aggregate_failed_runs,,,,,{report.failed_count},\n")
    return out.getvalue()


def _emit_json(report: ExperimentReport, timestamp: str | None) -> str:
    doc: dict = {}
    if timestamp is not None:
        doc["generated_at"] = timestamp
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
    return json.dumps(doc, indent=1) + "\n"
