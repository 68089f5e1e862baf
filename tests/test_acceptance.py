"""Acceptance suite: the eight gate criteria with their stated tolerances.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success). Experiment reports are cached per configuration so criteria that
share a configuration do not recompute it; the runtime limits are measured
on the experiment runs themselves.
"""
import time

import numpy as np
import pytest

from it2frbc import (
    Dataset,
    ExperimentConfig,
    Fuzzifiers,
    NormalizationParams,
    RuleBase,
    SplitSpec,
    SubclustParams,
    certainty_degrees,
    classify,
    gen_circular,
    initial_potentials,
    run_experiment,
    split,
)
from it2frbc.rulebase import membership_bounds
from it2frbc.subclust import _revised

from frm_reference import predict as ref_predict
from test_inference import power_means

MASTER_SEED = 1234
_cache: dict = {}


def report_for(key, **cfg_kwargs):
    """Run (once) and time a 32-run experiment configuration."""
    if key not in _cache:
        cfg = ExperimentConfig(master_seed=MASTER_SEED, **cfg_kwargs)
        start = time.perf_counter()
        report = run_experiment(cfg)
        _cache[key] = (report, time.perf_counter() - start)
    return _cache[key]


def data_cfg(data_dir, name):
    return dict(data_path=str(data_dir / name), label_column=-1)


def verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_circular_baseline():
    report, elapsed = report_for("circ-none", generator="circular", subclust=None)
    mean = report.average
    class1_all_wrong = all(r.ok and r.confusion[0, 0] == 0 for r in report.runs)
    ok = 58.0 <= mean <= 74.0 and class1_all_wrong and elapsed < 5.0
    verdict(
        1,
        ok,
        f"single-prototype circular mean={mean:.2f} (band [58,74]), "
        f"class-1 fully misclassified in all 32 runs={class1_all_wrong}, "
        f"runtime={elapsed:.2f}s (<5s)",
    )
    assert 58.0 <= mean <= 74.0
    assert class1_all_wrong
    assert elapsed < 5.0


def test_criterion_2_circular_ra02():
    report, elapsed = report_for(
        "circ-0.2", generator="circular", subclust=SubclustParams(0.2)
    )
    mean = report.average
    in_band = sum(1 for r in report.runs if r.ok and 19 <= r.rule_count <= 25)
    ok = mean >= 95.0 and in_band >= 25 and elapsed < 30.0
    verdict(
        2,
        ok,
        f"circular r_a=0.2 mean={mean:.2f} (>=95), rule counts in [19,25] for "
        f"{in_band}/32 runs (>=25), runtime={elapsed:.2f}s (<30s)",
    )
    assert mean >= 95.0
    assert in_band >= 25
    assert elapsed < 30.0


def test_criterion_3_circular_monotone_trend():
    fine, _ = report_for("circ-0.2", generator="circular", subclust=SubclustParams(0.2))
    coarse, _ = report_for("circ-0.6", generator="circular", subclust=SubclustParams(0.6))
    mean_rules_fine = np.mean([r.rule_count for r in fine.runs if r.ok])
    mean_rules_coarse = np.mean([r.rule_count for r in coarse.runs if r.ok])
    ok = fine.average > coarse.average and mean_rules_fine > mean_rules_coarse
    verdict(
        3,
        ok,
        f"accuracy {fine.average:.2f} (r_a=0.2) > {coarse.average:.2f} (r_a=0.6); "
        f"mean rules {mean_rules_fine:.1f} > {mean_rules_coarse:.1f}",
    )
    assert fine.average > coarse.average
    assert mean_rules_fine > mean_rules_coarse


def test_criterion_4_irregular_multi_cluster_gain():
    baseline, _ = report_for("irr-none", generator="irregular", subclust=None)
    clustered, _ = report_for("irr-0.2", generator="irregular", subclust=SubclustParams(0.2))
    gain = clustered.average - baseline.average
    ok = gain >= 20.0
    verdict(
        4,
        ok,
        f"irregular r_a=0.2 mean={clustered.average:.2f} vs baseline "
        f"{baseline.average:.2f}, gain={gain:.2f} (>=20)",
    )
    assert gain >= 20.0


def test_criterion_5_iris(data_dir):
    baseline, t1 = report_for("iris-none", subclust=None, **data_cfg(data_dir, "iris.csv"))
    tuned, t2 = report_for(
        "iris-0.3", subclust=SubclustParams(0.3), **data_cfg(data_dir, "iris.csv")
    )
    elapsed = t1 + t2
    rules_overlap = tuned.rules_min <= 16 and tuned.rules_max >= 8
    ok = (
        baseline.rules_min == baseline.rules_max == 3
        and 88.0 <= baseline.average <= 96.0
        and 91.0 <= tuned.average <= 98.0
        and rules_overlap
        and elapsed < 10.0
    )
    verdict(
        5,
        ok,
        f"iris none mean={baseline.average:.2f} (band [88,96], 3 rules), "
        f"r_a=0.3 mean={tuned.average:.2f} (band [91,98]), rule interval "
        f"[{tuned.rules_min},{tuned.rules_max}] overlaps [8,16]={rules_overlap}, "
        f"runtime={elapsed:.2f}s (<10s)",
    )
    assert baseline.rules_min == baseline.rules_max == 3
    assert 88.0 <= baseline.average <= 96.0
    assert 91.0 <= tuned.average <= 98.0
    assert rules_overlap
    assert elapsed < 10.0


def test_criterion_6_wbcd(data_dir):
    baseline, t1 = report_for("wbcd-none", subclust=None, **data_cfg(data_dir, "wbcd.csv"))
    coarse, t2 = report_for(
        "wbcd-1.5", subclust=SubclustParams(1.5), **data_cfg(data_dir, "wbcd.csv")
    )
    fine, t3 = report_for(
        "wbcd-0.4", subclust=SubclustParams(0.4), **data_cfg(data_dir, "wbcd.csv")
    )
    elapsed = t1 + t2 + t3
    rules_overlap = coarse.rules_min <= 5 and coarse.rules_max >= 4
    overfit = fine.average < baseline.average
    ok = (
        baseline.rules_min == baseline.rules_max == 2
        and 94.5 <= baseline.average <= 98.0
        and 94.0 <= coarse.average <= 98.0
        and rules_overlap
        and overfit
        and elapsed < 60.0
    )
    verdict(
        6,
        ok,
        f"wbcd none mean={baseline.average:.2f} (band [94.5,98], 2 rules), "
        f"r_a=1.5 mean={coarse.average:.2f} (band [94,98]) with rule interval "
        f"[{coarse.rules_min},{coarse.rules_max}] overlapping [4,5]={rules_overlap}, "
        f"overfitting r_a=0.4 mean={fine.average:.2f} < none={overfit}, "
        f"runtime={elapsed:.2f}s (<60s)",
    )
    assert baseline.rules_min == baseline.rules_max == 2
    assert 94.5 <= baseline.average <= 98.0
    assert 94.0 <= coarse.average <= 98.0
    assert rules_overlap
    assert overfit
    assert elapsed < 60.0


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(20240808)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(1, 5))
        M = int(rng.integers(2, 4))
        N = int(rng.integers(1, 4))
        protos = rng.uniform(size=(c, N))
        cert = rng.dirichlet(np.ones(M), size=c)
        m1 = float(rng.uniform(1.1, 3.0))
        m2 = float(m1 + rng.uniform(0.0, 2.0))
        p = float(rng.choice([-1.0, 1.0, 2.0, 3.5]) * rng.uniform(0.3, 1.5))
        rb = RuleBase(
            prototypes=protos,
            source_classes=np.zeros(c, dtype=int),
            certainty=cert,
            fuzzifiers=Fuzzifiers(m1, m2),
            normalization=NormalizationParams(np.zeros(N), np.ones(N)),
            class_names=tuple(str(j) for j in range(M)),
            aggregation_p=p,
        )
        for _ in range(3):
            if rng.random() < 0.2:
                x = protos[rng.integers(0, c)].copy()
            else:
                x = rng.uniform(size=N)
            res = classify(x, rb)
            want_pred, want_scores = ref_predict(
                x.tolist(), protos.tolist(), cert.tolist(), m1, m2, p
            )
            diff = float(np.abs(res.scores - np.array(want_scores)).max())
            worst = max(worst, diff)
            assert diff <= 1e-12, (diff, c, M, N, m1, m2, p)
            assert res.predicted == want_pred
    verdict(7, True, f"200 random small instances agree with the straight-line "
                     f"oracle; worst score deviation {worst:.2e} (<=1e-12)")


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(11)
    cases = 0

    # Membership normalization per fuzzifier (1e-12).
    for _ in range(250):
        c, N = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        protos, x = rng.uniform(size=(c, N)), rng.uniform(size=N)
        m = float(rng.uniform(1.05, 5.0))
        mu = membership_bounds(x[None, :], protos, Fuzzifiers(m, m))[0][0]
        assert abs(mu.sum() - 1.0) <= 1e-12
        cases += 1

    # Interval ordering at every pipeline stage.
    for _ in range(150):
        c, M, N = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
        protos = rng.uniform(size=(c, N))
        cert = rng.dirichlet(np.ones(M), size=c)
        fz = Fuzzifiers(float(rng.uniform(1.05, 2.5)), float(rng.uniform(2.5, 5.0)))
        rb = RuleBase(
            prototypes=protos,
            source_classes=np.zeros(c, dtype=int),
            certainty=cert,
            fuzzifiers=fz,
            normalization=NormalizationParams(np.zeros(N), np.ones(N)),
            class_names=tuple(str(j) for j in range(M)),
        )
        res = classify(rng.uniform(size=N), rb)
        lower, upper = membership_bounds(rng.uniform(size=(1, N)), protos, fz)
        assert np.all(lower <= upper)
        for iv in res.soundness:
            assert iv.lower <= iv.upper
        cases += 1

    # Certainty simplex (1e-9).
    for _ in range(150):
        n, M, N = int(rng.integers(2, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ds = Dataset(
            rng.uniform(size=(n, N)),
            rng.integers(0, M, size=n),
            tuple(str(j) for j in range(M)),
        )
        r = certainty_degrees(ds, rng.uniform(size=(int(rng.integers(1, 5)), N)), Fuzzifiers())
        assert np.all(np.abs(r.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all((r >= 0.0) & (r <= 1.0 + 1e-12))
        cases += 1

    # Power-mean bounds, idempotence, monotonicity in p.
    for _ in range(200):
        vals = rng.uniform(0.001, 1.0, size=int(rng.integers(1, 8)))
        p1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 6.0))
        p2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 6.0))
        lo, hi = min(p1, p2), max(p1, p2)
        for f_lo, f_hi in zip(power_means(vals, lo), power_means(vals, hi)):
            assert vals.min() - 1e-9 <= f_lo <= vals.max() + 1e-9
            assert f_lo <= f_hi + 1e-9
        a = float(rng.uniform(0.001, 1.0))
        for got in power_means([a] * 4, p1):
            assert got == pytest.approx(a, rel=1e-9)
        cases += 1

    # Potential revision never increases any potential.
    for _ in range(100):
        pts = rng.uniform(size=(int(rng.integers(2, 25)), 2))
        params = SubclustParams(float(rng.uniform(0.1, 1.5)))
        f0 = initial_potentials(pts, params)
        f1, _ = _revised(f0, pts, int(f0.argmax()), params.beta)
        assert np.all(f1 <= f0 + 1e-12)
        cases += 1

    # Degenerate type-1: m1 == m2 gives zero interval width end to end.
    for _ in range(100):
        c, N = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        protos = rng.uniform(size=(c, N))
        m = float(rng.uniform(1.1, 4.0))
        rb = RuleBase(
            prototypes=protos,
            source_classes=np.zeros(c, dtype=int),
            certainty=rng.dirichlet(np.ones(2), size=c),
            fuzzifiers=Fuzzifiers(m, m),
            normalization=NormalizationParams(np.zeros(N), np.ones(N)),
            class_names=("0", "1"),
        )
        res = classify(rng.uniform(size=N), rb)
        for iv in res.soundness:
            assert iv.upper - iv.lower <= 1e-15
        cases += 1

    # Split and experiment determinism under fixed seeds.
    ds = gen_circular(17)
    for _ in range(50):
        seed = int(rng.integers(0, 2**31))
        a = split(ds, SplitSpec(0.5, seed))
        b = split(ds, SplitSpec(0.5, seed))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)
        cases += 1
    cfg = ExperimentConfig(generator="circular", runs=2, master_seed=7, subclust=None)
    r1, r2 = run_experiment(cfg), run_experiment(cfg)
    assert [r.accuracy for r in r1.runs] == [r.accuracy for r in r2.runs]
    cases += 2

    verdict(8, cases >= 1000, f"invariant suite passed on {cases} generated cases (>=1000)")
    assert cases >= 1000
