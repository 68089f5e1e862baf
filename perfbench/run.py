#!/usr/bin/env python3
"""Benchmark of the it2frbc classifier, run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each exists; METRICS.md defines every
metric and which end-to-end metric each per-layer metric should move):
  protocol         ``it2frbc eval`` over the 10 acceptance configurations
  bulk_predict     ``it2frbc predict`` over a 10k-row labelled CSV
  online_classify  ``classify()`` on one held-out pattern per call
  fit_large        ``build_rulebase`` at r_a 0.4/0.5/0.6 on 4000 patterns

Every run prepares the inputs of all four operations from --seed
(SETUP_REPEATS times; setup_s is the import time plus their median) and
checks every output it produces. With --trace 0 it measures one untimed
tracemalloc pass of the workload's operation (peak_alloc_mb), then a
window of --seconds in which all four operations take turns, chunk by
chunk: the workload's own operation gets OWN_SHARE of the window's time and
the other three share the rest (GUEST_WEIGHTS), so every end-to-end metric is read on every
workload. A reference kernel is timed between every two chunks, and each
chunk's time is scaled to the host's reference speed (speed.py); the times
as measured are printed in the metadata line.
With --trace 1 it runs the workload's operation alone in passes that
alternate untraced and traced, and reports per-layer self times and
counts per traced pass, the unwrapped remainder and the tracing overhead.

The last line of standard output is the result JSON; the line before it
holds the run's metadata, which is also written with the spans under
.perfbench/. Exit status: 0 when every check passed, 1 when one failed,
2 when the checkout is incomplete.

    python3 perfbench/run.py --record

rewrites perfbench/expected.json (protocol report digests and the seed-0
fit_large centers) from the working tree.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import stats
from spans import PeakStack, Tracer, self_times
from speed import REFERENCE_S, SpeedLine

ROOT = pathlib.Path(__file__).resolve().parent.parent
REQUIRED = ("src/it2frbc/__init__.py", "tests/frm_reference.py", "data/wbcd.csv",
            "data/iris.csv")
WORKLOADS = ("protocol", "bulk_predict", "online_classify", "fit_large")
WORK_DIR = ".perfbench"
SETUP_REPEATS = 5
# Share of the window's time that the workload's own operation runs. The
# other three split the rest by these weights: a fit or a predict chunk takes
# most of a second and a block of classify calls 50 ms, so the long chunks get
# more time, to have enough samples of their own.
OWN_SHARE = 0.34
GUEST_WEIGHTS = {"protocol": 1.0, "bulk_predict": 1.0, "online_classify": 0.5, "fit_large": 2.0}
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "protocol_runs_per_s": "runs/s",
    "predict_patterns_per_s": "patterns/s",
    "classify_p50_us": "us",
    "classify_p90_us": "us",
    "fit_s": "s",
    "peak_alloc_mb": "MB",
}
# Per-layer time metric -> span name (see workloads.install_spans).
LAYER_TIMES = {
    "subclust.potentials_s": "subclust.potentials",
    "subclust.select_s": "subclust.select",
    "rulebase.membership_s": "rulebase.membership",
    "rulebase.certainty_s": "rulebase.certainty",
    "rulebase.build_s": "rulebase.build",
    "rulebase.load_s": "rulebase.load",
    "inference.membership_s": "inference.membership",
    "inference.aggregate_s": "inference.aggregate",
    "inference.classify_s": "inference.classify",
    "dataset.load_s": "dataset.load",
    "dataset.gen_s": "dataset.gen",
    "dataset.split_s": "dataset.split",
    "dataset.normalize_s": "dataset.normalize",
    "evaluation.run_s": "evaluation.run",
    "evaluation.experiment_s": "evaluation.experiment",
    "evaluation.report_s": "evaluation.report",
    "cli.self_s": "cli.main",
}
LAYER_COUNTS = (
    "subclust.calls", "subclust.points", "subclust.centers", "rulebase.membership_cells",
    "rulebase.rules", "inference.patterns", "inference.membership_cells", "dataset.patterns",
    "evaluation.runs", "evaluation.runs_failed", "cli.rows",
)
# Per-layer peak metric -> spans whose peaks it takes the maximum of.
LAYER_PEAKS = {
    "subclust.peak_alloc_mb": ("subclust.select",),
    "inference.peak_alloc_mb": ("inference.aggregate", "inference.classify"),
}
TRACE_METRICS = ("trace.pass_s", "trace.unwrapped_s", "trace.overhead_pct", "trace.spans")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite perfbench/expected.json from the working tree and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def metadata(args) -> dict:
    import numpy as np

    try:
        # The ceiling keeps git from looking for a repository above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted(glob.glob("src/it2frbc/*.py")):
        with open(path, "rb") as fh:
            src.update(path.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                       os.environ.get("OMP_NUM_THREADS", "default")),
        "nproc": os.cpu_count(), "it2frbc_threads": os.environ.get("IT2FRBC_THREADS", "unset"),
    }


def window_shares(owned, guests) -> dict:
    """Operation -> share of the window's time."""
    total = sum(GUEST_WEIGHTS[op.name] for op in guests)
    return {owned: OWN_SHARE,
            **{op: (1.0 - OWN_SHARE) * GUEST_WEIGHTS[op.name] / total for op in guests}}


def run_window(owned, guests, seconds, speed, clock=time.perf_counter) -> None:
    """Run the operations chunk by chunk for ``seconds`` (and until each has
    timed every key), next always the one furthest behind its share of the
    time run so far; probe the host's speed before the first chunk and after
    every chunk."""
    shares = list(window_shares(owned, guests).items())
    used = [0.0] * len(shares)
    turns = [0] * len(shares)
    speed.probe()
    start = clock()
    while clock() - start < seconds or not all(op.ready() for op, _ in shares):
        i = min(range(len(shares)), key=lambda j: used[j] / shares[j][1])
        op = shares[i][0]
        keys = op.keys()
        t0 = clock()
        op.run(keys[turns[i] % len(keys)])
        used[i] += clock() - t0
        turns[i] += 1
        speed.probe()


def memory_pass(op, tracer=None) -> float:
    """tracemalloc peak (MB) above the starting size over one pass of op;
    with a memory tracer, also the peaks of the spans inside it."""
    peaks = tracer.peak_stack if tracer is not None else PeakStack()
    tracemalloc.start()
    try:
        peaks.push()
        if tracer is not None:
            tracer.enabled = True
        op.run_pass()
        return peaks.pop() / MB
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.restore()
        tracemalloc.stop()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, make, speed):
    """End-to-end metrics scaled to the reference speed, and as measured."""
    mem_op = make(args.workload)
    peak = memory_pass(mem_op)
    owned = make(args.workload)
    guests = [make(name) for name in WORKLOADS if name != args.workload]
    run_window(owned, guests, args.seconds, speed)
    timed = {op.name: op for op in (owned, *guests)}
    online = timed["online_classify"]

    def values(scale):
        return {
            "protocol_runs_per_s": timed["protocol"].runs_per_s(scale(timed["protocol"])),
            "predict_patterns_per_s":
                timed["bulk_predict"].patterns_per_s(scale(timed["bulk_predict"])),
            "classify_p50_us": online.latency_us(50, scale(online)),
            "classify_p90_us": online.latency_us(90, scale(online)),
            "fit_s": timed["fit_large"].fit_s(scale(timed["fit_large"])),
            "peak_alloc_mb": peak,
        }

    scaled = values(lambda op: speed.scale(op.speed_parts))
    metrics = {name: metric(value, END_TO_END[name]) for name, value in scaled.items()}
    return metrics, values(lambda op: stats.unscaled), [mem_op, owned, *guests], None


def per_layer(workloads, args, make):
    mem_op, mem_tracer = make(args.workload), Tracer(memory=True)
    workloads.install_spans(mem_tracer)
    memory_pass(mem_op, mem_tracer)

    op, tracer = make(args.workload), Tracer()
    workloads.install_spans(tracer)
    op.tracer = tracer
    traced, untraced = [], []
    clock = time.perf_counter
    start = clock()
    try:
        while clock() - start < args.seconds or len(traced) < 2 or len(untraced) < 2:
            tracer.enabled = len(untraced) > len(traced)
            t0 = clock()
            op.run_pass()
            (traced if tracer.enabled else untraced).append(clock() - t0)
    finally:
        tracer.enabled = False
        tracer.restore()

    n = len(traced)
    own = self_times(tracer.spans)
    metrics = {name: metric(own.get(span, 0.0) / n, "s") for name, span in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        metrics[name] = metric(tracer.counts.get(name, 0) / n, "count")
    metrics["evaluation.workers"] = metric(len(tracer.threads.get("evaluation.run", ())), "count")
    for name, spans in LAYER_PEAKS.items():
        metrics[name] = metric(max(mem_tracer.peaks.get(s, 0) for s in spans) / MB, "MB")
    pass_s, base_s = statistics.fmean(traced), statistics.fmean(untraced)
    metrics["trace.pass_s"] = metric(pass_s, "s")
    metrics["trace.unwrapped_s"] = metric((sum(traced) - tracer.root_time()) / n, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * (pass_s - base_s) / base_s, "%")
    metrics["trace.spans"] = metric(len(tracer.spans) / n, "count")
    return metrics, [mem_op, op], tracer


def run(args, import_s, work) -> tuple[dict, dict]:
    import workloads

    expected = workloads.load_expected()
    oracle = workloads.load_oracle()
    speed = SpeedLine()
    speed.probe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.prepare(args.seed, work)
        t1 = time.perf_counter()
        speed.probe()
        setup_times.append(((t0 + t1) / 2, t1 - t0))
    # The imports are scaled by the first probe, taken right after them.
    setup_raw = import_s + stats.scaled_median(setup_times)
    setup_s = import_s * speed.factor(0.0) + stats.scaled_median(setup_times, speed.factor)

    def make(name):
        return workloads.OPERATIONS[name](inputs, expected, oracle)

    raw = None
    if args.trace:
        metrics, ops, tracer = per_layer(workloads, args, make)
    else:
        metrics, raw, ops, tracer = end_to_end(args, make, speed)
        metrics["setup_s"] = metric(setup_s, END_TO_END["setup_s"])
        raw["setup_s"] = setup_raw
    for op in ops:
        op.finish()
    errors = [e for op in ops for e in op.errors]
    failed = sum(op.failed for op in ops)
    result = {
        "correct": not errors and failed == 0,
        "attempted": sum(op.attempted for op in ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "meta": metadata(args),
        "operations": {f"{op.name}#{i}": {"attempted": op.attempted, "failed": op.failed,
                                          "chunks": sum(len(v) for v in op.samples.values())}
                       for i, op in enumerate(ops)},
        "errors": errors[:50],
    }
    if raw is not None:
        record["as_measured"] = raw
        record["kernel_ms"] = {"reference": {p: t * 1e3 for p, t in REFERENCE_S.items()},
                               "median": speed.median_ms(), "probes": len(speed.kernel_s)}
    online = [op for op in ops if op.name == "online_classify" and op.attempted]
    if online:
        record["classify_calls"] = online[-1].attempted
        record["classify_blocks"] = online[-1].attempted // workloads.CLASSIFY_BLOCK
        record["classify_block_highest_percentile"] = stats.highest_reportable(
            workloads.CLASSIFY_BLOCK)
    stem = f"{WORK_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    # The chunk samples and probes go to the file only, not to standard output.
    detail = {"samples": {f"{op.name}#{i}": {str(k): v for k, v in op.samples.items()}
                          for i, op in enumerate(ops)}}
    if raw is not None:
        detail["probes"] = list(zip(speed.times, speed.kernel_s))
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result, **detail}, fh)
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and it2frbc

    import_s = time.perf_counter() - started
    work = f"{WORK_DIR}/tmp-{os.getpid()}"
    os.makedirs(work, exist_ok=True)
    try:
        if args.record:
            doc = workloads.record_expected(work, args.seed)
            with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"wrote {workloads.EXPECTED_PATH}")
            return 0
        result, record = run(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in record["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "errors"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
