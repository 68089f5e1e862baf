"""Command-line interface: data generation, clustering, training,
prediction, benchmarking, and rule export.

``train`` and ``eval`` share one set of protocol flags, each defaulting to
the library field it sets, and check them all as one ExperimentConfig before
any file is read; ``train`` is one protocol run (train_and_score, with its
seed as the split seed) that also saves its model.

Every output file is written by dataset._spool, the one writer: its text,
encoded as UTF-8, goes to an unnamed temporary file in TMPDIR (``predict``'s
block by block), and the target is opened only when the last text is in, so
a refusal leaves the target as it was. Each command prints after its file is
written, so a refusal prints nothing to standard output. Standard output
keeps Python's encoding, and a text it cannot encode is refused whole.

Exit codes: 0 success; 1 usage error, for a value given on the command line
that its parameter's rule refuses (a non-finite number, a radius with no
finite, positive alpha or beta, a negative seed); 2 data error, for a value
read from a file (a CSV cell, or a model file that fails validation) or an
output file that cannot be written (a target in a missing directory, no
usable temp dir, text that UTF-8 cannot encode; the message names its
path), or text that standard output's encoding cannot
encode (the message names standard output and its encoding); 3 internal
error.
"""
from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .dataset import (GENERATORS, MISSING_POLICIES, NormalizationParams, SplitSpec, _csv_cell,
                      _csv_text, _has_missing, _read_csv, _spool, _write_text, load_features_csv,
                      save_csv, split)
from .errors import ConfigError, DataError
from .evaluation import (ExperimentConfig, _config_block, accuracy, confusion_matrix,
                         emit_report, resolve_dataset, run_experiment, train_and_score)
from .inference import _block_width, classify_batch
from .rulebase import Fuzzifiers, export_rules_text, load_rulebase, save_rulebase
from .subclust import SubclustParams, describe_params, subtractive_cluster


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _subclust_from_args(args) -> SubclustParams | None:
    if getattr(args, "no_sc", False):
        return None
    return SubclustParams(
        r_a=args.ra,
        rb_ratio=args.rb_ratio,
        accept_ratio=args.accept,
        reject_ratio=args.reject,
    )


def _add_subclust_flags(p: argparse.ArgumentParser, require_choice: bool) -> None:
    if require_choice:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--ra", type=_finite_float, help="subtractive-clustering radius")
        group.add_argument("--no-sc", action="store_true",
                           help="single prototype per class (per-class mean)")
    else:
        p.add_argument("--ra", type=_finite_float, required=True,
                       help="subtractive-clustering radius")
    p.add_argument("--rb-ratio", type=_finite_float, default=SubclustParams.rb_ratio,
                   help="r_b = rb_ratio * r_a")
    p.add_argument("--accept", type=_finite_float, default=SubclustParams.accept_ratio,
                   help="accept ratio")
    p.add_argument("--reject", type=_finite_float, default=SubclustParams.reject_ratio,
                   help="reject ratio")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    """train's and eval's flags; each default is that of the field it sets."""
    cfg = ExperimentConfig  # its class attributes are the field defaults
    p.add_argument("--label-col", type=int, default=cfg.label_column)
    p.add_argument("--missing-policy", choices=MISSING_POLICIES, default=cfg.missing_policy)
    _add_subclust_flags(p, require_choice=True)
    p.add_argument("--m1", type=_finite_float, default=Fuzzifiers.m1, help="lower fuzzifier")
    p.add_argument("--m2", type=_finite_float, default=Fuzzifiers.m2, help="upper fuzzifier")
    p.add_argument("--p", type=_finite_float, default=cfg.aggregation_p,
                   help="aggregation exponent")
    p.add_argument("--seed", type=int, default=cfg.master_seed,
                   help="split seed (eval: master seed of the runs)")
    p.add_argument("--train-frac", type=_finite_float, default=cfg.train_fraction)
    p.add_argument("--stratified", action="store_true")


def _config_from_args(args) -> ExperimentConfig:
    """The protocol flags as one validated configuration, before any read."""
    return ExperimentConfig(
        generator=args.gen,
        data_path=args.input,
        label_column=args.label_col,
        missing_policy=args.missing_policy,
        runs=args.runs,
        train_fraction=args.train_frac,
        stratified=args.stratified,
        master_seed=args.seed,
        subclust=_subclust_from_args(args),
        fuzzifiers=Fuzzifiers(args.m1, args.m2),
        aggregation_p=args.p,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="it2frbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic benchmark dataset as CSV")
    g.add_argument("--which", choices=sorted(GENERATORS), required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    c = sub.add_parser("cluster", help="subtractive clustering of a point set")
    c.add_argument("--in", dest="input", required=True, help="CSV of points (all columns numeric)")
    _add_subclust_flags(c, require_choice=False)
    c.add_argument("--out", required=True, help="CSV file for the centers (original units)")
    c.set_defaults(func=cmd_cluster)

    t = sub.add_parser("train", help="one protocol run on a CSV; saves its model")
    t.add_argument("--in", dest="input", required=True)
    _add_protocol_flags(t)
    t.add_argument("--model", required=True, help="output model file (JSON)")
    t.set_defaults(func=cmd_train, gen=None, runs=1)

    pr = sub.add_parser("predict", help="classify a CSV with a saved model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--in", dest="input", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--label-col", type=int, default=None,
                    help="label column to score against (default: auto-detect a "
                         "trailing label when the file has one extra column)")
    pr.add_argument("--missing-policy", choices=MISSING_POLICIES, default="error",
                    help="drop_row: skip a row with an empty or '?' cell, its label "
                         "included, and print how many; error (default): refuse such a "
                         "feature cell")
    pr.set_defaults(func=cmd_predict)

    e = sub.add_parser("eval", help="repeated-split benchmark (the experiment protocol)")
    src = e.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="input", help="labeled CSV dataset")
    src.add_argument("--gen", choices=sorted(GENERATORS), help="synthetic dataset")
    e.add_argument("--runs", type=int, default=ExperimentConfig.runs)
    _add_protocol_flags(e)
    e.add_argument("--format", choices=("table", "csv", "json"), default="table")
    e.add_argument("--out", default=None, help="write the report here instead of stdout")
    e.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at header line")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export-rules", help="print the rules of a saved model")
    x.add_argument("--model", required=True)
    x.set_defaults(func=cmd_export_rules)
    return parser


def cmd_gen_data(args) -> int:
    ds = GENERATORS[args.which](args.seed)
    save_csv(ds, args.out)
    print(_config_block({"which": args.which, "seed": str(args.seed), "out": args.out}), end="")
    counts = ", ".join(
        f"{name}: {cnt}" for name, cnt in zip(ds.class_names, ds.class_counts())
    )
    print(f"wrote {len(ds)} patterns ({counts}) to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    params = _subclust_from_args(args)
    points = load_features_csv(args.input)
    norm = NormalizationParams(points.min(axis=0), points.max(axis=0))
    centers = norm.invert(subtractive_cluster(norm.apply(points), params))
    header = [f"f{i + 1}" for i in range(centers.shape[1])]
    _write_text(args.out, _csv_text([header, *(list(map(repr, row)) for row in centers.tolist())]))
    print(_config_block({
        "in": args.input,
        "points": str(points.shape[0]),
        **describe_params(params),
        "out": args.out,
    }), end="")
    print(f"found {centers.shape[0]} centers, wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    ds = resolve_dataset(cfg)
    rb, held_out = train_and_score(ds, cfg, cfg.master_seed)
    # split is pure: the same call gives back train_and_score's training half.
    train, _ = split(ds, SplitSpec(cfg.train_fraction, cfg.master_seed, cfg.stratified))
    train_pred, _ = classify_batch(train.features, rb)
    train_acc = accuracy(confusion_matrix(train.labels, train_pred, ds.num_classes))
    save_rulebase(rb, args.model)

    print(_config_block({
        "in": cfg.data_path,
        "label_col": str(cfg.label_column),
        "missing_policy": cfg.missing_policy,
        **describe_params(cfg.subclust),
        "m1": repr(cfg.fuzzifiers.m1),
        "m2": repr(cfg.fuzzifiers.m2),
        "aggregation_p": repr(cfg.aggregation_p),
        "seed": str(cfg.master_seed),
        "train_fraction": repr(cfg.train_fraction),
        "stratified": str(cfg.stratified).lower(),
        "model": args.model,
    }), end="")
    print(f"rules: {rb.num_rules}")
    print(f"train accuracy: {train_acc:.2f}")
    print(f"held-out accuracy: {accuracy(held_out):.2f}")
    print(f"model written to {args.model}")
    return 0


def cmd_predict(args) -> int:
    """Classify the input one row block at a time (subclust._row_blocks at
    classify_batch's width, so each block read is one kernel block). The
    header, then each block's output rows, go to the one writer
    (dataset._spool); labelled rows are added into confusion counts. The
    target is written, and then the configuration printed, only after the
    last row has been classified. So a refusal anywhere in the input prints
    nothing and leaves the target as it was, and memory holds one block."""
    rb = load_rulebase(args.model)
    n, M = rb.num_features, rb.num_classes

    def trailing_label(width: int) -> int | None:
        if width not in (n, n + 1):
            raise DataError(
                f"input has {width} columns but model expects {n} features "
                f"(or {n + 1} columns with a label)"
            )
        return -1 if width == n + 1 else None

    dropped = 0

    def keep(lineno: int, cells: list[str]) -> bool:
        nonlocal dropped
        missing = _has_missing(cells)
        dropped += missing
        return not missing

    blocks = _read_csv(args.input, trailing_label if args.label_col is None else args.label_col,
                       keep if args.missing_policy == "drop_row" else None, _block_width(rb))
    names = list(map(_csv_cell, rb.class_names))
    name_to_idx = {name: i for i, name in enumerate(rb.class_names)}
    confusion = np.zeros((M, M), dtype=np.int64)
    rows = 0
    with _spool(args.out) as write:
        write(_csv_text([[*(f"f{i + 1}" for i in range(n)), "predicted",
                          *("score_" + name for name in rb.class_names)]]))
        for X, labels, label_col, cells in blocks:
            predictions, scores = classify_batch(X, rb)
            predicted = map(names.__getitem__, predictions.tolist())
            score_cells = iter(map(repr, scores.ravel().tolist()))
            write(_csv_text(cells, predicted, *[score_cells] * M))
            rows += len(X)
            if labels is not None:
                truth = np.array([name_to_idx.get(name, -1) for name in labels], dtype=np.int64)
                known = truth >= 0
                confusion += confusion_matrix(truth[known], predictions[known], M)
    print(_config_block({
        "model": args.model,
        "in": args.input,
        "rows": str(rows),
        "label_col": "none" if label_col is None else str(label_col),
        "out": args.out,
    }), end="")
    print(f"wrote predictions for {rows} rows to {args.out}")
    if args.missing_policy == "drop_row":
        print(f"dropped {dropped} rows with a missing value")
    if confusion.any():
        print(f"accuracy against provided labels: {accuracy(confusion):.2f} "
              f"({confusion.sum()} labeled rows)")
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    fmt = {"table": "text_table", "csv": "csv", "json": "json"}[args.format]
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    text = emit_report(report, fmt, timestamp=stamp)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        print(f"report written to {args.out}")
    if report.failed_count == len(report.runs):
        raise DataError(f"all {report.failed_count} runs failed")
    return 0


def cmd_export_rules(args) -> int:
    rb = load_rulebase(args.model)
    sys.stdout.write(export_rules_text(rb))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    except UnicodeEncodeError as exc:  # files are UTF-8 (_spool); stdout is not
        bad = exc.object[exc.start:exc.end]
        print(f"error: cannot write standard output: {bad!r} is not {sys.stdout.encoding} text "
              f"({exc.reason})", file=sys.stderr)
        return 2
    except Exception as exc:  # last-resort guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
