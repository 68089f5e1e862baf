"""Tests of the benchmark's own helpers: span self time, percentiles and
the sample-count rule, nested memory peaks, the window scheduler and its speed scaling, and the
output checks rejecting perturbed outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import copy
import hashlib
import json
import pathlib
import sys
import tracemalloc
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
import speed as speed_mod  # noqa: E402
from spans import PeakStack, Span, Tracer, covered, self_times  # noqa: E402
from speed import SpeedLine  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- self time ---

def test_self_time_nested_and_repeated():
    spans = [
        Span("a", 0.0, 10.0, None, 1),
        Span("b", 1.0, 4.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 7.0, 0, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        Span("a", 0.0, 10.0, None, 1),
        Span("b", 1.0, 5.0, 0, 1),
        Span("b", 3.0, 8.0, 0, 1),
        Span("c", 9.0, 12.0, 0, 1),
    ]
    assert self_times(spans)["a"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tracer_wraps_caller_attribute_and_restores():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def inner(x):
        clock.now += 1.0
        return x

    def outer(x):
        clock.now += 2.0
        mod.inner(x)
        mod.inner(x)
        return x + 1

    mod.inner, mod.outer = inner, outer
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "outer", "layer.outer", lambda t, a, r: t.counts.__setitem__("n", a[0]))
    tracer.wrap(mod, "inner", "layer.inner")
    mod.outer(1)
    assert tracer.spans == []  # disabled until switched on
    tracer.enabled = True
    tracer.op = 7
    assert mod.outer(1) == 2
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("layer.outer", None, 7), ("layer.inner", 0, 7), ("layer.inner", 0, 7)]
    assert self_times(tracer.spans) == pytest.approx({"layer.outer": 2.0, "layer.inner": 2.0})
    assert tracer.root_time() == pytest.approx(4.0)
    assert tracer.counts["n"] == 1
    tracer.restore()
    assert mod.outer is outer and mod.inner is inner


def test_tracer_wraps_dict_entries():
    original = lambda seed: seed * 2  # noqa: E731
    table = {"gen": original}
    tracer = Tracer()
    tracer.wrap(table, "gen", "dataset.gen")
    tracer.enabled = True
    assert table["gen"](3) == 6
    assert [s.name for s in tracer.spans] == ["dataset.gen"]
    tracer.restore()
    assert table["gen"] is original


# --- percentiles and the sample-count rule ---

def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_count_rule():
    assert stats.samples_needed(50) == 20
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(99) == 1000
    assert stats.highest_reportable(19) is None
    assert stats.highest_reportable(20) == 50
    assert stats.highest_reportable(99) == 50
    assert stats.highest_reportable(100) == 90
    assert stats.highest_reportable(999) == 90
    assert stats.highest_reportable(1000) == 99
    # With n = samples_needed(q), exactly ten samples lie above the percentile.
    values = list(range(100))
    assert sum(v > stats.percentile(values, 90) for v in values) == 10


def test_pass_time_sums_scaled_medians():
    samples = {"a": [(0.0, 1.0), (1.0, 9.0), (2.0, 2.0)], "b": [(3.0, 4.0)]}
    assert stats.pass_time(samples) == pytest.approx(6.0)
    assert stats.pass_time(samples, lambda t: 0.5 if t < 1.5 else 2.0) == pytest.approx(12.0)


def test_classify_block_leaves_ten_calls_beyond_p90():
    assert stats.highest_reportable(workloads.CLASSIFY_BLOCK) >= max(workloads.CLASSIFY_PERCENTILES)


# --- memory peaks ---

def test_nested_peak_does_not_reset_enclosing_peak():
    tracemalloc.start()
    try:
        peaks = PeakStack()
        peaks.push()
        outer_block = bytearray(2_000_000)
        peaks.push()
        inner_block = bytearray(1_000_000)
        del inner_block
        inner = peaks.pop()
        after = bytearray(500_000)
        outer = peaks.pop()
        del outer_block, after
    finally:
        tracemalloc.stop()
    assert 1_000_000 <= inner < 1_100_000
    assert 3_000_000 <= outer < 3_200_000


def test_memory_tracer_records_span_peaks():
    mod = types.SimpleNamespace(alloc=lambda n: len(bytearray(n)))
    tracer = Tracer(memory=True)
    tracer.wrap(mod, "alloc", "layer.alloc")
    tracemalloc.start()
    try:
        tracer.enabled = True
        mod.alloc(1_500_000)
        mod.alloc(500_000)
    finally:
        tracemalloc.stop()
        tracer.restore()
    assert 1_500_000 <= tracer.peaks["layer.alloc"] < 1_600_000


# --- window scheduler ---

class FakeOp:
    def __init__(self, name, keys, cost, clock, log):
        self.name, self._keys, self.cost, self.clock, self.log = name, keys, cost, clock, log
        self.samples = {}

    def keys(self):
        return list(self._keys)

    def run(self, key):
        self.log.append((self.name, key, self.clock.now))
        self.samples.setdefault(key, []).append((self.clock.now + self.cost / 2, self.cost))
        self.clock.now += self.cost

    def ready(self):
        return all(k in self.samples for k in self._keys)


def test_window_shares_time_and_probes_between_chunks():
    clock, log = FakeClock(), []
    owned = FakeOp("protocol", ["x", "y"], 0.1, clock, log)
    guests = [FakeOp("fit_large", [0.4, 0.5], 0.3, clock, log),
              FakeOp("bulk_predict", ["p"], 0.2, clock, log)]

    def kernel(clock):
        clock.now += 0.01
        return {p: 0.01 / 3 for p in speed_mod.PARTS}

    speed = SpeedLine(clock, kernel)
    run.run_window(owned, guests, 10.0, speed, clock)
    assert len(speed.times) == len(log) + 1
    shares = run.window_shares(owned, guests)
    assert shares[owned] == run.OWN_SHARE
    assert shares[guests[0]] == pytest.approx((1 - run.OWN_SHARE) * 2.0 / 3.0)
    for op, share in shares.items():
        busy = op.cost * sum(name == op.name for name, _, _ in log)
        assert abs(busy - 10.0 * share) < 0.5
        assert op.ready()
    # Each op's chunks are spread over the whole window.
    for op in (owned, *guests):
        times = [t for name, _, t in log if name == op.name]
        assert times[0] < 1.0 and times[-1] > 9.0


def test_speed_factor_uses_the_probes_around_a_chunk():
    clock = FakeClock()
    ref = speed_mod.REFERENCE_S
    slowness = iter([1.0, 1.0, 3.0])

    def kernel(clock):
        k = next(slowness)
        parts = {p: k * t for p, t in ref.items()}
        parts["vector"] = ref["vector"]  # vectorized work does not slow down here
        clock.now += sum(parts.values())
        return parts

    line = SpeedLine(clock, kernel)
    line.probe()
    clock.now += 1.0
    line.probe()
    mid = (line.times[0] + line.times[1]) / 2
    assert line.factor(0.0, ("python",)) == pytest.approx(1.0)
    assert line.factor(mid, ("python",)) == pytest.approx(0.5)
    assert line.factor(5.0, ("python",)) == pytest.approx(1 / 3)
    assert line.factor(mid, ("vector",)) == pytest.approx(1.0)
    both = (ref["python"] + ref["vector"]) / (2 * ref["python"] + ref["vector"])
    assert line.scale(("python", "vector"))(mid) == pytest.approx(both)


# --- output checks reject perturbed outputs ---

MODEL = {
    "class_names": ["a", "b"],
    "fuzzifiers": {"m1": 1.5, "m2": 2.5},
    "aggregation_p": 2.0,
    "normalization": {"min": [0.0, 0.0], "max": [1.0, 2.0]},
    "rules": [
        {"center": [0.2, 0.3], "source_class": 0, "certainty": [0.9, 0.1]},
        {"center": [0.8, 0.7], "source_class": 1, "certainty": [0.2, 0.8]},
        {"center": [0.5, 0.9], "source_class": 1, "certainty": [0.4, 0.6]},
    ],
}


@pytest.fixture(scope="module")
def oracle():
    return workloads.load_oracle(ROOT / workloads.ORACLE_PATH)


def test_check_scores_accepts_oracle_and_rejects_perturbation(oracle):
    x = workloads.normalize_row([0.25, 0.5], MODEL)
    assert x == [0.25, 0.25]
    protos = [r["center"] for r in MODEL["rules"]]
    cert = [r["certainty"] for r in MODEL["rules"]]
    pred, scores = oracle.predict(x, protos, cert, 1.5, 2.5, 2.0)
    label = MODEL["class_names"][pred]
    assert workloads.check_scores(oracle, MODEL, x, scores, label) == []

    nudged = list(scores)
    nudged[1] += 1e-9
    assert workloads.check_scores(oracle, MODEL, x, nudged, label)
    other = MODEL["class_names"][1 - pred]
    assert workloads.check_scores(oracle, MODEL, x, scores, other)


def test_check_scores_ignores_label_on_near_tie(oracle):
    model = copy.deepcopy(MODEL)
    for rule in model["rules"]:
        rule["certainty"] = [0.5, 0.5]
    x = [0.3, 0.3]
    protos = [r["center"] for r in model["rules"]]
    cert = [r["certainty"] for r in model["rules"]]
    _, scores = oracle.predict(x, protos, cert, 1.5, 2.5, 2.0)
    assert workloads.check_scores(oracle, model, x, scores, "b") == []


def report(average, rules, runs=32):
    doc = {
        "config": {"runs": str(runs)},
        "runs": [{"run": i, "status": "ok", "accuracy_pct": average, "rule_count": rules,
                  "confusion": [[0, 3], [0, 5]], "error": None} for i in range(runs)],
        "aggregate": {"best": average, "average": average, "worst": average, "stddev": 0.0,
                      "rules_min": rules, "rules_max": rules, "failed_runs": 0},
    }
    return json.dumps(doc, indent=1) + "\n"


def test_check_report_rejects_a_changed_byte_and_an_out_of_band_report():
    text = report(93.0, 3)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert workloads.check_report("iris-none", text, digest) == []
    flipped = text.replace("93.0", "93.1", 1)
    assert len(flipped) == len(text)
    assert workloads.check_report("iris-none", flipped, digest)
    low = report(80.0, 3)
    errors = workloads.check_report("iris-none", low, hashlib.sha256(low.encode()).hexdigest())
    assert errors == ["iris-none: outside its acceptance band"]
    assert workloads.check_report("iris-none", "{", digest)


def test_band_errors_rule_count_interval():
    assert workloads.band_errors("wbcd-1.5", json.loads(report(96.0, 4))) == []
    assert workloads.band_errors("wbcd-1.5", json.loads(report(96.0, 7)))
    assert workloads.band_errors("circular-0.2", json.loads(report(97.0, 22))) == []
    assert workloads.band_errors("circular-0.2", json.loads(report(97.0, 30)))


def test_cross_errors():
    docs = {
        "circular-0.2": json.loads(report(97.0, 22)),
        "circular-0.6": json.loads(report(90.0, 5)),
        "irregular-none": json.loads(report(60.0, 2)),
        "irregular-0.2": json.loads(report(95.0, 30)),
        "wbcd-none": json.loads(report(96.5, 2)),
        "wbcd-0.4": json.loads(report(95.0, 120)),
    }
    assert workloads.cross_errors(docs) == []
    docs["wbcd-0.4"] = json.loads(report(97.0, 120))
    assert len(workloads.cross_errors(docs)) == 1


def test_check_fit_rejects_moved_center_changed_count_and_foreign_point():
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    centers = points[[0, 2]]
    recorded = {"rules": 2, "centers": centers.tolist()}
    point_set = {tuple(r) for r in points.tolist()}
    assert workloads.check_fit(centers, recorded, centers.copy(), point_set) == []

    moved = centers.copy()
    moved[1, 0] += 1e-6
    assert workloads.check_fit(moved, recorded)
    assert workloads.check_fit(moved, first=centers)
    assert workloads.check_fit(moved, points=point_set)
    assert workloads.check_fit(points, recorded)


# --- BENCHMARK.json agrees with what the benchmark prints ---

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    printed = (set(run.LAYER_TIMES) | set(run.LAYER_COUNTS) | set(run.LAYER_PEAKS)
               | set(run.TRACE_METRICS) | {"evaluation.workers"})
    assert per_layer == printed
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
