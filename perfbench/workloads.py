"""Inputs, timed operations and output checks of the benchmark workloads.

Paths are relative to the repository root, which run.py makes the working
directory; the protocol reports name their data files by these relative
paths, so their bytes do not depend on where the checkout lives.

Four operations, one per workload:
  protocol         one ``it2frbc eval`` of an acceptance configuration
                   (32 shuffled-split runs), via ``cli.main`` in-process
  bulk_predict     one ``it2frbc predict`` over a 10k-row labelled CSV
  online_classify  ``classify()`` on one held-out pattern at a time
  fit_large        one ``build_rulebase`` on 4000 patterns at one r_a
Each operation type keeps the timing samples of its chunks (an eval
invocation, a predict invocation, a block of classify calls, a fit) as
(midpoint, seconds) pairs, so the window can scale each by the host's speed
at that moment, and checks every output it produces.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from it2frbc import cli, dataset, evaluation, inference, rulebase, subclust

import stats

DATA_WBCD = "data/wbcd.csv"
ORACLE_PATH = "tests/frm_reference.py"
EXPECTED_PATH = "perfbench/expected.json"

# The acceptance bands are defined at this master seed; at other master
# seeds some of them do not hold (the circular r_a=0.2 rule-count band
# fails for about half of them), so the protocol always runs at it and the
# workload seed only orders the configurations.
PROTOCOL_SEED = 1234
RUNS = 32
PROTOCOL_CONFIGS = {
    "circular-none": ["--gen", "circular", "--no-sc"],
    "circular-0.2": ["--gen", "circular", "--ra", "0.2"],
    "circular-0.6": ["--gen", "circular", "--ra", "0.6"],
    "irregular-none": ["--gen", "irregular", "--no-sc"],
    "irregular-0.2": ["--gen", "irregular", "--ra", "0.2"],
    "iris-none": ["--in", "data/iris.csv", "--no-sc"],
    "iris-0.3": ["--in", "data/iris.csv", "--ra", "0.3"],
    "wbcd-none": ["--in", DATA_WBCD, "--no-sc"],
    "wbcd-1.5": ["--in", DATA_WBCD, "--ra", "1.5"],
    "wbcd-0.4": ["--in", DATA_WBCD, "--ra", "0.4"],
}

# The model for bulk_predict and online_classify comes from one fixed 50/50
# WBCD split (128 rules), so the model size does not vary with the seed.
MODEL_SPLIT_SEED = 0
MODEL_RA = 0.4
PREDICT_ROWS = 10_000
FIT_POINTS = 4000
FIT_RADII = (0.4, 0.5, 0.6)
# Standard deviation of the noise added to resampled WBCD rows (features
# are scored 1-10), so resampled patterns are distinct points.
JITTER = 0.3
# Calls per block of online_classify. The latency percentiles are taken
# within each block, which lies inside one phase of the host's speed, scaled
# by that speed and summarised by their median over the blocks; a percentile
# over all calls of a run would jump between the host's fast and slow modes
# (see METRICS.md and speed.py). 128 calls leave more than
# stats.TAIL_SAMPLES calls above the block's 90th percentile.
CLASSIFY_BLOCK = 128
CLASSIFY_PERCENTILES = (50.0, 90.0)
ORACLE_ROWS = 16
SCORE_TOL = 1e-12
GAP_TOL = 1e-9
CENTER_TOL = 1e-9


def load_oracle(path=ORACLE_PATH):
    """The straight-line reference implementation, imported read-only."""
    spec = importlib.util.spec_from_file_location("frm_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _jittered(ds, rng, count):
    idx = rng.integers(0, len(ds), size=count)
    X = ds.features[idx] + rng.normal(0.0, JITTER, size=(count, ds.num_features))
    return X, ds.labels[idx]


@dataclass
class Inputs:
    seed: int
    model_path: str
    model: dict
    rb: rulebase.RuleBase
    predict_in: str
    predict_out: str
    held_out: np.ndarray
    fit_train: dataset.Dataset
    fit_norm: dataset.NormalizationParams
    protocol_order: list


def prepare(seed: int, work_dir: str) -> Inputs:
    """Generate every workload's inputs from the seed; train and save the model."""
    rng = np.random.default_rng(seed)
    wbcd = dataset.load_csv(DATA_WBCD, -1)
    train, test = dataset.split(wbcd, dataset.SplitSpec(0.5, MODEL_SPLIT_SEED))
    norm = dataset.fit_normalizer(train)
    rb = rulebase.build_rulebase(
        dataset.normalize_dataset(norm, train), subclust.SubclustParams(MODEL_RA),
        rulebase.Fuzzifiers(), 2.0, norm,
    )
    model_path = f"{work_dir}/model.json"
    rulebase.save_rulebase(rb, model_path)
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)

    predict_in = f"{work_dir}/predict-in.csv"
    X, y = _jittered(wbcd, rng, PREDICT_ROWS)
    with open(predict_in, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i + 1}" for i in range(wbcd.num_features)] + ["class"])
        for x, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in x] + [wbcd.class_names[label]])

    Xf, yf = _jittered(wbcd, rng, FIT_POINTS)
    fit_raw = dataset.Dataset(Xf, yf, wbcd.class_names)
    fit_norm = dataset.fit_normalizer(fit_raw)
    return Inputs(
        seed=seed,
        model_path=model_path,
        model=model,
        rb=rulebase.load_rulebase(model_path),
        predict_in=predict_in,
        predict_out=f"{work_dir}/predict-out.csv",
        held_out=test.features[rng.permutation(len(test))],
        fit_train=dataset.normalize_dataset(fit_norm, fit_raw),
        fit_norm=fit_norm,
        protocol_order=[str(k) for k in rng.permutation(list(PROTOCOL_CONFIGS))],
    )


# --- output checks: each returns a list of error strings, empty when fine ---

def normalize_row(x, model: dict) -> list[float]:
    """The model's min/max normalization, in plain floats."""
    out = []
    for v, lo, hi in zip(x, model["normalization"]["min"], model["normalization"]["max"]):
        out.append(0.5 if hi == lo else (v - lo) / (hi - lo))
    return out


def check_scores(oracle, model: dict, x_norm, scores, label: str) -> list[str]:
    """Scores within SCORE_TOL of the oracle; the label must match the
    oracle's wherever its top two scores differ by more than GAP_TOL."""
    protos = [r["center"] for r in model["rules"]]
    cert = [r["certainty"] for r in model["rules"]]
    fz = model["fuzzifiers"]
    want_idx, want = oracle.predict(list(x_norm), protos, cert, fz["m1"], fz["m2"],
                                    model["aggregation_p"])
    errors = []
    worst = max(abs(a - b) for a, b in zip(scores, want))
    if not worst <= SCORE_TOL:
        errors.append(f"scores deviate from the oracle by {worst:.3g}")
    top = sorted(want, reverse=True)
    gap = top[0] - top[1] if len(top) > 1 else math.inf
    if gap > GAP_TOL and label != model["class_names"][want_idx]:
        errors.append(f"label {label!r} but the oracle says {model['class_names'][want_idx]!r}")
    return errors


def band_errors(name: str, doc: dict) -> list[str]:
    """The acceptance band and rule-count interval of one configuration."""
    agg = doc["aggregate"]
    ok_runs = [r for r in doc["runs"] if r["status"] == "ok"]
    avg, lo, hi = agg["average"], agg["rules_min"], agg["rules_max"]
    if avg is None:
        return [f"{name}: no successful run"]
    checks = {
        "circular-none": (58.0 <= avg <= 74.0
                          and all(r["confusion"][0][0] == 0 for r in ok_runs)),
        "circular-0.2": avg >= 95.0 and sum(19 <= r["rule_count"] <= 25 for r in ok_runs) >= 25,
        "iris-none": lo == hi == 3 and 88.0 <= avg <= 96.0,
        "iris-0.3": 91.0 <= avg <= 98.0 and lo <= 16 and hi >= 8,
        "wbcd-none": lo == hi == 2 and 94.5 <= avg <= 98.0,
        "wbcd-1.5": 94.0 <= avg <= 98.0 and lo <= 5 and hi >= 4,
    }
    return [] if checks.get(name, True) else [f"{name}: outside its acceptance band"]


def cross_errors(docs: dict) -> list[str]:
    """Acceptance criteria that compare two configurations."""
    def avg(name):
        return docs[name]["aggregate"]["average"]

    def mean_rules(name):
        counts = [r["rule_count"] for r in docs[name]["runs"] if r["status"] == "ok"]
        return sum(counts) / len(counts)

    errors = []
    if not (avg("circular-0.2") > avg("circular-0.6")
            and mean_rules("circular-0.2") > mean_rules("circular-0.6")):
        errors.append("circular: r_a=0.2 does not beat r_a=0.6 in accuracy and rules")
    if not avg("irregular-0.2") - avg("irregular-none") >= 20.0:
        errors.append("irregular: r_a=0.2 gains less than 20 points over none")
    if not avg("wbcd-0.4") < avg("wbcd-none"):
        errors.append("wbcd: r_a=0.4 does not overfit below none")
    return errors


def check_report(name: str, text: str, want_sha256: str) -> list[str]:
    errors = []
    if hashlib.sha256(text.encode()).hexdigest() != want_sha256:
        errors.append(f"{name}: report bytes differ from the recorded report")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return errors + [f"{name}: report is not JSON ({exc})"]
    return errors + band_errors(name, doc)


def check_fit(prototypes: np.ndarray, recorded=None, first=None, points=None) -> list[str]:
    """Rule count and centers against the recorded fit, the run's first fit
    (bitwise) and the input (every center must be an input point)."""
    errors = []
    if recorded is not None:
        want = np.asarray(recorded["centers"], dtype=float)
        if prototypes.shape != want.shape:
            errors.append(f"{prototypes.shape[0]} rules, recorded {want.shape[0]}")
        elif not np.all(np.abs(prototypes - want) <= CENTER_TOL):
            errors.append("centers differ from the recorded fit")
    if first is not None and not np.array_equal(prototypes, first):
        errors.append("centers differ between repetitions")
    if points is not None and not all(tuple(row) in points for row in prototypes.tolist()):
        errors.append("a center is not one of the input points")
    return errors


# --- operations ---

class Operation:
    """Timing samples per chunk key, operation counts and check failures."""

    name = ""
    # Kernel parts (speed.py) doing the same kind of work as the operation;
    # its times are scaled by the host's speed as they read it.
    speed_parts: tuple = ("python", "small_numpy", "vector")

    def __init__(self, inputs: Inputs, expected: dict, oracle, clock=time.perf_counter):
        self.inputs = inputs
        self.expected = expected
        self.oracle = oracle
        self.clock = clock
        self.samples: dict = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def keys(self) -> list:
        """Chunk keys of one pass, in order."""
        raise NotImplementedError

    def run(self, key) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        for key in self.keys():
            self.run(key)

    def finish(self) -> None:
        """Checks that need the whole window's outputs."""

    def ready(self) -> bool:
        return all(key in self.samples for key in self.keys())

    def _record(self, key, start: float, end: float) -> None:
        self.samples[key].append(((start + end) / 2, end - start))

    def _fail(self, errors: list[str], count: int) -> None:
        if errors:
            self.errors.extend(errors)
            self.failed = min(self.attempted, self.failed + count)

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1


def _call_cli(argv: list[str], clock) -> tuple[int, str, str, float, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        code = cli.main(argv)
        end = clock()
    return code, out.getvalue(), err.getvalue(), start, end


class Protocol(Operation):
    name = "protocol"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.docs: dict = {}

    def keys(self):
        return self.inputs.protocol_order

    def run(self, key):
        self._next_op()
        argv = ["eval", *PROTOCOL_CONFIGS[key], "--seed", str(PROTOCOL_SEED),
                "--runs", str(RUNS), "--format", "json", "--no-timestamp"]
        code, text, err, start, end = _call_cli(argv, self.clock)
        self._record(key, start, end)
        self.attempted += RUNS
        if code != 0:
            self._fail([f"{key}: eval exited {code}: {err.strip()}"], RUNS)
            return
        errors = check_report(key, text, self.expected["protocol_sha256"][key])
        if errors:
            self._fail(errors, RUNS)
            return
        doc = json.loads(text)
        self.docs.setdefault(key, doc)
        failed_runs = doc["aggregate"]["failed_runs"]
        if failed_runs:
            self._fail([f"{key}: {failed_runs} runs failed"], failed_runs)

    def finish(self):
        if len(self.docs) == len(PROTOCOL_CONFIGS):
            errors = cross_errors(self.docs)
            self._fail(errors, 2 * RUNS * len(errors))

    def runs_per_s(self, scale=stats.unscaled) -> float:
        return RUNS * len(self.samples) / stats.pass_time(self.samples, scale)


class BulkPredict(Operation):
    name = "bulk_predict"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digest = None

    def keys(self):
        return ["predict"]

    def run(self, key):
        self._next_op()
        argv = ["predict", "--model", self.inputs.model_path, "--in", self.inputs.predict_in,
                "--out", self.inputs.predict_out]
        code, _, err, start, end = _call_cli(argv, self.clock)
        self._record(key, start, end)
        self.attempted += 1
        if code != 0:
            self._fail([f"predict exited {code}: {err.strip()}"], 1)
            return
        with open(self.inputs.predict_out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self._fail(["predict output differs between invocations"], 1)

    def finish(self):
        if self.digest is None:
            return
        with open(self.inputs.predict_out, newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        if len(body) != PREDICT_ROWS:
            self._fail([f"predict wrote {len(body)} rows, expected {PREDICT_ROWS}"], self.attempted)
            return
        model = self.inputs.model
        nf = len(model["normalization"]["min"])
        pick = np.random.default_rng(self.inputs.seed).choice(PREDICT_ROWS, ORACLE_ROWS,
                                                              replace=False)
        errors = []
        for i in pick:
            row = body[int(i)]
            x = [float(v) for v in row[:nf]]
            scores = [float(v) for v in row[nf + 1:]]
            errors += [f"predict row {i}: {e}" for e in
                       check_scores(self.oracle, model, normalize_row(x, model), scores, row[nf])]
        # Every invocation wrote the same bytes, so a wrong row fails them all.
        self._fail(errors, self.attempted)

    def patterns_per_s(self, scale=stats.unscaled) -> float:
        return PREDICT_ROWS / stats.scaled_median(self.samples["predict"], scale)


class OnlineClassify(Operation):
    name = "online_classify"
    speed_parts = ("python",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block_pcts: dict[float, list] = {q: [] for q in CLASSIFY_PERCENTILES}
        self.calls = np.zeros(len(self.inputs.held_out), dtype=np.int64)
        self.first_pred: dict[int, int] = {}
        self.sample_scores: dict[int, tuple[np.ndarray, int]] = {}

    def keys(self):
        """Blocks of one pass, which classifies every held-out row at least once."""
        return list(range(math.ceil(len(self.inputs.held_out) / CLASSIFY_BLOCK)))

    def run(self, key):
        n = len(self.inputs.held_out)
        classify, rb, X, clock = inference.classify, self.inputs.rb, self.inputs.held_out, self.clock
        latencies = []
        start = clock()
        for j in range(key * CLASSIFY_BLOCK, (key + 1) * CLASSIFY_BLOCK):
            i = j % n
            self._next_op()
            t0 = clock()
            res = classify(X[i], rb)
            latencies.append(clock() - t0)
            self.calls[i] += 1
            if self.first_pred.setdefault(i, res.predicted) != res.predicted:
                self._fail([f"classify row {i}: prediction changed between calls"], 1)
            if i < ORACLE_ROWS and i not in self.sample_scores:
                self.sample_scores[i] = (res.scores.copy(), res.predicted)
        end = clock()
        self._record(key, start, end)
        self.attempted += CLASSIFY_BLOCK
        for q, values in self.block_pcts.items():
            values.append(((start + end) / 2, stats.percentile(latencies, q)))

    def finish(self):
        model = self.inputs.model
        for i, (scores, pred) in sorted(self.sample_scores.items()):
            x = normalize_row(self.inputs.held_out[i].tolist(), model)
            errors = check_scores(self.oracle, model, x, scores.tolist(), model["class_names"][pred])
            self._fail([f"classify row {i}: {e}" for e in errors], int(self.calls[i]))

    def latency_us(self, q: float, scale=stats.unscaled) -> float:
        """Median over the run's blocks of the q-th percentile latency within a block."""
        return stats.scaled_median(self.block_pcts[q], scale) * 1e6


class FitLarge(Operation):
    name = "fit_large"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first: dict = {}
        self.points = None

    def keys(self):
        return list(FIT_RADII)

    def run(self, key):
        self._next_op()
        params = subclust.SubclustParams(key)
        start = self.clock()
        rb = rulebase.build_rulebase(self.inputs.fit_train, params, rulebase.Fuzzifiers(), 2.0,
                                     self.inputs.fit_norm)
        self._record(key, start, self.clock())
        self.attempted += 1
        if self.points is None:
            self.points = {tuple(r) for r in self.inputs.fit_train.features.tolist()}
        recorded = None
        if self.inputs.seed == self.expected["fit_seed"]:
            recorded = self.expected["fit"][repr(key)]
        errors = check_fit(rb.prototypes, recorded, self.first.get(key), self.points)
        self.first.setdefault(key, rb.prototypes)
        self._fail([f"fit r_a={key}: {e}" for e in errors], 1)

    def fit_s(self, scale=stats.unscaled) -> float:
        return stats.pass_time(self.samples, scale)


OPERATIONS = {op.name: op for op in (Protocol, BulkPredict, OnlineClassify, FitLarge)}


def record_expected(work_dir: str, seed: int) -> dict:
    """Protocol report digests and the seed's fit_large centers, as
    produced by the code in the working tree."""
    digests = {}
    for key, args in PROTOCOL_CONFIGS.items():
        argv = ["eval", *args, "--seed", str(PROTOCOL_SEED), "--runs", str(RUNS),
                "--format", "json", "--no-timestamp"]
        code, text, err, _, _ = _call_cli(argv, time.perf_counter)
        if code != 0:
            raise RuntimeError(f"{key}: eval exited {code}: {err}")
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    inputs = prepare(seed, work_dir)
    fits = {}
    for ra in FIT_RADII:
        rb = rulebase.build_rulebase(inputs.fit_train, subclust.SubclustParams(ra),
                                     rulebase.Fuzzifiers(), 2.0, inputs.fit_norm)
        fits[repr(ra)] = {"rules": rb.num_rules, "centers": rb.prototypes.tolist()}
    return {"protocol_seed": PROTOCOL_SEED, "protocol_sha256": digests,
            "fit_seed": seed, "fit": fits}


def install_spans(tracer) -> None:
    """Wrap the public functions of each layer at the attribute its caller uses."""
    def rows(x):
        shape = np.shape(x)
        return shape[0] if len(shape) == 2 else 1

    def add(deltas):
        def count(t, args, result):
            for key, fn in deltas.items():
                t.counts[key] += fn(args, result)
        return count

    experiment = add({"evaluation.runs": lambda a, r: len(r.runs),
                      "evaluation.runs_failed": lambda a, r: r.failed_count})
    loaded = add({"dataset.patterns": lambda a, r: len(r)})
    built = add({"rulebase.rules": lambda a, r: r.num_rules})
    batch = add({"inference.patterns": lambda a, r: rows(a[0])})
    cli_batch = add({"inference.patterns": lambda a, r: rows(a[0]),
                     "cli.rows": lambda a, r: rows(a[0])})

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_experiment", "evaluation.experiment", experiment)
    tracer.wrap(cli, "emit_report", "evaluation.report")
    tracer.wrap(cli, "load_rulebase", "rulebase.load")
    tracer.wrap(cli, "classify_batch", "inference.aggregate", cli_batch)
    tracer.wrap(evaluation, "train_and_score", "evaluation.run")
    tracer.wrap(evaluation, "load_csv", "dataset.load", loaded)
    for name in list(evaluation.GENERATORS):
        tracer.wrap(evaluation.GENERATORS, name, "dataset.gen", loaded)
    tracer.wrap(evaluation, "split", "dataset.split")
    tracer.wrap(evaluation, "fit_normalizer", "dataset.normalize")
    tracer.wrap(evaluation, "normalize_dataset", "dataset.normalize")
    tracer.wrap(evaluation, "build_rulebase", "rulebase.build", built)
    tracer.wrap(evaluation, "classify_batch", "inference.aggregate", batch)
    tracer.wrap(rulebase, "build_rulebase", "rulebase.build", built)
    tracer.wrap(rulebase, "certainty_degrees", "rulebase.certainty")
    tracer.wrap(rulebase, "membership_bounds", "rulebase.membership",
                add({"rulebase.membership_cells": lambda a, r: r[0].size}))
    tracer.wrap(rulebase, "subtractive_cluster", "subclust.select",
                add({"subclust.calls": lambda a, r: 1,
                     "subclust.points": lambda a, r: rows(a[0]),
                     "subclust.centers": lambda a, r: rows(r)}))
    tracer.wrap(subclust, "initial_potentials", "subclust.potentials")
    tracer.wrap(inference, "classify", "inference.classify",
                add({"inference.patterns": lambda a, r: 1}))
    tracer.wrap(inference, "membership_bounds", "inference.membership",
                add({"inference.membership_cells": lambda a, r: r[0].size}))
