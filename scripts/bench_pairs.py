#!/usr/bin/env python3
"""Compare two checkouts with the benchmark and write a BENCH_*.json record.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --run fit_large:0:10 --run protocol:1:5 --trace fit_large:0 \\
        --out BENCH_name.json

Each ``--run WORKLOAD:SEED:PAIRS`` runs ``perfbench/run.py --trace 0`` in
both checkouts PAIRS times, one at a time, alternating which side goes
first. Each ``--trace WORKLOAD:SEED`` adds one ``--trace 1`` run per side.
Every run uses the benchmark code of its own checkout and the same
``--seconds``. The record holds every run's result line, metadata and
unscaled ("as_measured") metrics and, per workload and end-to-end metric,
each side's median and quartiles and the number of pairs the change won
(ties count for neither side), for the scaled values and, under
"as_measured", for the unscaled ones. A workload's ``all_correct`` is false
when any of its runs reported ``correct: false`` or a failed operation.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(checkout: pathlib.Path, workload: str, seed: int, trace: int, seconds: float):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} printed no result\n{proc.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']} {json.dumps(values)}", flush=True)
    return {"meta": record["meta"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": values,
            "as_measured": record.get("as_measured")}


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def compare(pairs: list[dict], key: str, name: str, direction: str) -> dict:
    par = [p["parent"][key][name] for p in pairs]
    chg = [p["change"][key][name] for p in pairs]
    sign = -1.0 if direction == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    return {"parent": quartiles(par), "change": quartiles(chg), "change_wins": wins}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    return {name: {"better": direction, **compare(pairs, "metrics", name, direction),
                   "pairs": len(pairs),
                   "as_measured": compare(pairs, "as_measured", name, direction)}
            for name, direction in better.items()}


def spec(text: str, parts: int) -> tuple:
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} colon-separated fields: {text}")
    return (fields[0], *map(int, fields[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=pathlib.Path, required=True)
    ap.add_argument("--change", type=pathlib.Path, required=True)
    ap.add_argument("--run", type=lambda s: spec(s, 3), action="append", default=[],
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--trace", type=lambda s: spec(s, 2), action="append", default=[],
                    metavar="WORKLOAD:SEED")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {"made_by": " ".join(["scripts/bench_pairs.py", *(argv or sys.argv[1:])]),
           "command": f"perfbench/run.py --seconds {args.seconds:g}", "workloads": [],
           "trace": []}
    for workload, seed, n in args.run:
        pairs = []
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(sides[side], workload, seed, 0, args.seconds)
                    for side in order}
            pairs.append({"first": order[0], **runs})
        runs = [p[side] for p in pairs for side in sides]
        doc["workloads"].append({
            "workload": workload, "seed": seed, "trace": 0,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "summary": summarize(pairs, better), "pairs": pairs})
    for workload, seed in args.trace:
        doc["trace"].append({"workload": workload, "seed": seed, "trace": 1,
                             **{side: run_once(path, workload, seed, 1, args.seconds)
                                for side, path in sides.items()}})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
