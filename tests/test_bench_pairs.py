import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture()
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(p50, raw_p50, correct=True, failed=0):
    return {"meta": {}, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"classify_p50_us": p50, "setup_s": 0.3},
            "as_measured": {"classify_p50_us": raw_p50, "setup_s": 0.31}}


def test_summarize_counts_wins_and_ties(bench_pairs):
    # The unscaled values tell a different story: the change wins 3 pairs.
    pairs = [{"parent": result(p, rp), "change": result(c, rc)}
             for p, c, rp, rc in [(100.0, 80.0, 200.0, 150.0), (100.0, 100.0, 200.0, 190.0),
                                  (90.0, 95.0, 180.0, 170.0), (110.0, 70.0, 220.0, 220.0)]]
    got = bench_pairs.summarize(pairs, {"classify_p50_us": "lower", "setup_s": "lower"})
    p50 = got["classify_p50_us"]
    assert (p50["change_wins"], p50["pairs"]) == (2, 4)
    assert p50["parent"]["median"] == 100.0
    assert p50["change"]["median"] == 87.5
    assert got["setup_s"]["change_wins"] == 0
    raw = p50["as_measured"]
    assert raw["change_wins"] == 3
    assert raw["parent"] == {"median": 200.0, "q1": 195.0, "q3": 205.0}
    assert raw["change"]["median"] == 180.0
    assert got["setup_s"]["as_measured"]["change_wins"] == 0


def test_main_keeps_unscaled_values_and_flags_failures(bench_pairs, tmp_path, monkeypatch):
    sides = {name: tmp_path / name for name in ("parent", "change")}
    for path in sides.values():
        path.mkdir()
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "classify_p50_us", "better": "lower"},
        {"name": "setup_s", "better": "lower"}]}))
    calls = []

    def run_once(checkout, workload, seed, trace, seconds):
        calls.append((checkout.name, workload, seed, trace, seconds))
        p50 = 100.0 if checkout.name == "parent" else 80.0
        # One change run of bulk_predict fails an operation.
        failed = int(workload == "bulk_predict" and checkout.name == "change" and len(calls) == 6)
        return result(p50, 2 * p50, failed=failed)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        "--parent", str(sides["parent"]), "--change", str(sides["change"]),
        "--run", "online_classify:1:2", "--run", "bulk_predict:5:1",
        "--trace", "online_classify:1", "--seconds", "3", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    # Alternating order, then one traced run per side.
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change", "parent", "change"]
    assert [c[3] for c in calls] == [0] * 6 + [1] * 2
    assert all(c[4] == 3.0 for c in calls)
    online, bulk = doc["workloads"]
    assert [p["first"] for p in online["pairs"]] == ["parent", "change"]
    assert online["all_correct"] is True
    assert bulk["all_correct"] is False
    run = online["pairs"][0]["change"]
    assert run["metrics"]["classify_p50_us"] == 80.0
    assert run["as_measured"]["classify_p50_us"] == 160.0
    assert online["summary"]["classify_p50_us"]["change_wins"] == 2
    assert online["summary"]["classify_p50_us"]["as_measured"]["change"]["median"] == 160.0
    assert doc["trace"][0]["workload"] == "online_classify"
    assert doc["trace"][0]["parent"]["as_measured"]["classify_p50_us"] == 200.0


def test_run_once_reads_both_result_lines(bench_pairs, tmp_path, monkeypatch):
    record = {"meta": {"seed": 1}, "as_measured": {"classify_p50_us": 150.0}}
    line = {"correct": True, "attempted": 7, "failed": 0,
            "metrics": {"classify_p50_us": {"value": 120.0, "unit": "us"}}}

    class Done:
        stdout = "progress\n" + json.dumps(record) + "\n" + json.dumps(line) + "\n"
        stderr = ""

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done())
    got = bench_pairs.run_once(tmp_path, "online_classify", 1, 0, 2.0)
    assert got == {"meta": {"seed": 1}, "correct": True, "attempted": 7, "failed": 0,
                   "metrics": {"classify_p50_us": 120.0},
                   "as_measured": {"classify_p50_us": 150.0}}
