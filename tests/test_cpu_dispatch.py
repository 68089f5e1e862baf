"""Reports, predictions and centers do not depend on numpy's SIMD dispatch level.

The transcendental ufuncs (exp, pow, log, expm1, log1p) give other last bits
under the AVX-512 group (X86_V4) than under AVX2 (X86_V3) or the SSE
baseline, so scores and potentials differ between such hosts. No decision
lies that close to a tie: eval reports, predicted classes and the centers
clustered from a large point set stay the same.
NPY_DISABLE_CPU_FEATURES acts only on the process that imports numpy under
it, so each cut level runs the job below in a child process of its own and
compares its digests with this process's. Scores are not compared.

    python tests/test_cpu_dispatch.py   # prints the job's result as JSON
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import it2frbc
from it2frbc import (Dataset, Fuzzifiers, SplitSpec, SubclustParams, build_rulebase,
                     classify_batch, cli, fit_normalizer, load_csv, normalize_dataset, split)

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
REPORTS = {
    "circular-0.2": ["--gen", "circular", "--ra", "0.2"],
    "wbcd-0.4": ["--in", str(DATA_DIR / "wbcd.csv"), "--ra", "0.4"],
}
LEVELS = {"no-X86_V4": ("X86_V4",), "no-X86_V3-X86_V4": ("X86_V3", "X86_V4")}


def _features() -> tuple[dict, list]:
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return umath.__cpu_features__, list(umath.__cpu_baseline__)


def job() -> dict:
    """Report digests of two eval configurations (--runs 4), the classes
    predicted for a fixed batch of WBCD patterns at three scales, and the
    digest of the centers clustered from 1500 jittered WBCD patterns."""
    out = {}
    for name, args in REPORTS.items():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["eval", *args, "--seed", "1234", "--runs", "4", "--format", "json",
                             "--no-timestamp"])
        out[name] = (code, hashlib.sha256(text.getvalue().encode()).hexdigest())
    wbcd = load_csv(DATA_DIR / "wbcd.csv", label_column=-1, missing_policy="drop_row")
    train, test = split(wbcd, SplitSpec(0.5, 0))
    norm = fit_normalizer(train)
    rb = build_rulebase(normalize_dataset(norm, train), SubclustParams(0.4), Fuzzifiers(), 2.0,
                        norm)
    rng = np.random.default_rng(5)
    X = test.features[rng.integers(0, len(test), 341)] + rng.normal(0.0, 0.3, (341, 9))
    for scale in (1.0, 1e-170, 1e200):
        out[f"predictions x {scale:g}"] = classify_batch(X * scale, rb)[0].tolist()
    # Classes of about 1000 and 500 points: each potential field takes many tiles.
    idx = rng.integers(0, len(wbcd), 1500)
    jittered = Dataset(wbcd.features[idx] + rng.normal(0.0, 0.3, (1500, 9)), wbcd.labels[idx],
                       wbcd.class_names)
    norm = fit_normalizer(jittered)
    fit = build_rulebase(normalize_dataset(norm, jittered), SubclustParams(0.4), Fuzzifiers(), 2.0,
                         norm)
    out["centers of 1500 jittered rows"] = hashlib.sha256(fit.prototypes.tobytes()).hexdigest()
    features, _ = _features()
    out["cpu"] = {name: bool(features.get(name)) for name in ("X86_V3", "X86_V4")}
    return out


@pytest.fixture(scope="module")
def here() -> dict:
    """This process's job result, computed once for every level."""
    out = job()
    out.pop("cpu")
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("level", list(LEVELS))
def test_reports_and_predictions_hold_at_each_simd_level(level, here):
    features, baseline = _features()
    cut = LEVELS[level]
    if not all(name in features for name in cut):
        pytest.skip("not an x86 host, or this numpy does not know the X86_V* group names")
    if any(name in baseline for name in cut):
        pytest.skip(f"{cut} is part of this numpy build's baseline and cannot be cut")
    src = str(pathlib.Path(it2frbc.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(cut),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    cpu = child.pop("cpu")
    assert not any(cpu[name] for name in cut)  # the cut took effect
    assert here == child


if __name__ == "__main__":
    print(json.dumps(job()))
