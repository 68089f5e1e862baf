#!/usr/bin/env python3
"""Add in-process figures that no benchmark workload reports to a BENCH_*.json record.

    python3 scripts/bench_inprocess.py --parent ../parent --change . --pairs 10 \\
        --record BENCH_name.json

Each pair runs one child process per checkout, alternating which side goes
first; the child imports the it2frbc of its own checkout. On the
online_classify model (WBCD, split seed 0, r_a 0.4) and its held-out rows
it measures:
- classify_peak_bytes: the largest tracemalloc peak of one classify()
  call above the memory traced when it starts, over one call per held-out
  row, after one untraced pass;
- classify_us: the median time of one classify() call over ten passes;
- batch_n9_ms: the best of five classify_batch() calls over 10k rows
  resampled from the held-out rows;
- batch_n30_ms: the same over 10k random rows of a 178-rule, 30-feature
  model;
- batch_peak_bytes: the tracemalloc peak of one classify_batch() call over
  the held-out rows, as the protocol's wbcd-0.4 runs classify them, above
  the memory traced when it starts.
On 10k x 9 uniform points (seed 0, r_a 0.4), a size no workload runs, it
measures the potential field:
- potentials_peak_bytes: the tracemalloc peak of one initial_potentials()
  call;
- potentials_ms: the best of three initial_potentials() calls;
and on 222 x 9 uniform points (seed 0), the size of wbcd's largest
training class and so of the protocol's largest potential field:
- field222_peak_bytes: the tracemalloc peak of one initial_potentials()
  call.
The record gains an "in_process" entry with every run's figures and, per
figure, each side's median and quartiles and the pairs the change won
(lower is better for all eight).
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

from bench_pairs import quartiles

FIGURES = ("classify_peak_bytes", "classify_us", "batch_n9_ms", "batch_n30_ms",
           "batch_peak_bytes", "field222_peak_bytes", "potentials_peak_bytes", "potentials_ms")


def traced_peak(run) -> int:
    """The tracemalloc peak of run() above the memory traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def measure() -> dict:
    """The child: every figure, for the it2frbc on sys.path."""
    import numpy as np

    from it2frbc import dataset, inference, rulebase, subclust

    wbcd = dataset.load_csv("data/wbcd.csv", -1)
    train, test = dataset.split(wbcd, dataset.SplitSpec(0.5, 0))
    norm = dataset.fit_normalizer(train)
    rb = rulebase.build_rulebase(dataset.normalize_dataset(norm, train),
                                 subclust.SubclustParams(0.4), rulebase.Fuzzifiers(), 2.0, norm)
    held = test.features
    for x in held:
        inference.classify(x, rb)
    peak = 0
    tracemalloc.start()
    for x in held:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        inference.classify(x, rb)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
    tracemalloc.stop()
    times = []
    for _ in range(10):
        for x in held:
            start = time.perf_counter()
            inference.classify(x, rb)
            times.append(time.perf_counter() - start)

    rng = np.random.default_rng(0)
    identity = dataset.NormalizationParams(np.zeros(30), np.ones(30))
    wide = rulebase.RuleBase(rng.random((178, 30)), np.zeros(178, dtype=int), rng.random((178, 2)),
                             rulebase.Fuzzifiers(), identity, ("a", "b"))

    def best_ms(run, repeats):
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            runs.append(time.perf_counter() - start)
        return 1e3 * min(runs)

    batch_n9 = held[rng.integers(0, len(held), 10_000)]
    batch_n30 = rng.random((10_000, 30))
    points = np.random.default_rng(0).uniform(size=(10_000, 9))
    field222 = np.random.default_rng(0).uniform(size=(222, 9))
    params = subclust.SubclustParams(0.4)
    return {"rules": rb.num_rules, "held_out_rows": len(held), "classify_peak_bytes": peak,
            "classify_us": 1e6 * float(np.median(times)),
            "batch_n9_ms": best_ms(lambda: inference.classify_batch(batch_n9, rb), 5),
            "batch_n30_ms": best_ms(lambda: inference.classify_batch(batch_n30, wide), 5),
            "batch_peak_bytes": traced_peak(lambda: inference.classify_batch(held, rb)),
            "field222_peak_bytes": traced_peak(lambda: subclust.initial_potentials(field222,
                                                                                   params)),
            "potentials_peak_bytes": traced_peak(lambda: subclust.initial_potentials(points,
                                                                                     params)),
            "potentials_ms": best_ms(lambda: subclust.initial_potentials(points, params), 3)}


def run_child(checkout: pathlib.Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, __file__, "--measure"], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    values = json.loads(proc.stdout)
    print(f"{checkout.name}: {json.dumps(values)}", flush=True)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=pathlib.Path)
    ap.add_argument("--change", type=pathlib.Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", type=pathlib.Path)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pairs.append({"first": order[0], **{side: run_child(sides[side]) for side in order}})
    summary = {}
    for name in FIGURES:
        par, chg = ([p[side][name] for p in pairs] for side in ("parent", "change"))
        summary[name] = {"better": "lower", "parent": quartiles(par), "change": quartiles(chg),
                         "change_wins": sum(c < p for p, c in zip(par, chg)), "pairs": len(pairs)}
    doc = json.loads(args.record.read_text())
    doc["in_process"] = {"made_by": " ".join(["scripts/bench_inprocess.py",
                                              *(argv or sys.argv[1:])]),
                         "summary": summary, "pairs": pairs}
    args.record.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"updated {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
