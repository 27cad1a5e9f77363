"""The benchmark's traced replay wraps package functions by owner and name
(``perfbench/spans.py``); these tests check that every hook it installs
still binds and records a span, so a rename in the package cannot silently
zero a per-layer metric."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causaluplift import classify, discovery, forest, logistic
from causaluplift.classify import ClassifierSpec, predict_cctm, train_cctm
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.discovery import DiscoveryConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_dataset(n=300):
    rng = np.random.default_rng(9)
    t, a, b = (rng.integers(0, 2, n) for _ in range(3))
    y = (rng.random(n) < 0.2 + 0.3 * a + 0.2 * t * b).astype(int)
    specs = [
        ColumnSpec("T", "binary", "treatment"),
        ColumnSpec("Y", "binary", "outcome"),
        ColumnSpec("A", "binary", "covariate"),
        ColumnSpec("B", "binary", "covariate"),
    ]
    return Dataset(specs, {"T": t, "Y": y, "A": a, "B": b})


def test_every_patch_target_exists(spans):
    for owner, attr, name, _ in spans.layer_patches():
        assert attr in vars(owner), f"{name}: {owner!r} has no attribute {attr!r}"


def test_model_layer_spans_recorded_and_restored(spans):
    originals = {
        "fit_forest": classify.fit_forest,
        "fit_logistic": classify.fit_logistic,
        "encode": vars(classify.FeatureEncoder)["encode"],
        "predict_proba": vars(forest.ForestModel)["predict_proba"],
    }
    data = small_dataset()
    nodes = 0
    with spans.Tracer() as tracer:
        for spec in (
            ClassifierSpec("forest", {"seed": 1, "n_trees": 3}),
            ClassifierSpec("logistic"),
        ):
            pair = train_cctm(data, "T", "Y", parents=["A", "B"], spec=spec)
            predict_cctm(pair, data)
            nodes += sum(t[0].size for m in (pair.m1, pair.m0) for t in getattr(m, "trees", ()))
    recorded = {span[0] for span in tracer.spans}
    for name in (
        "forest.fit_forest",
        "logistic.fit_logistic",
        "classify.encode",
        "forest.predict_proba",
    ):
        assert name in recorded, name
    assert tracer.counts["forest.nodes"] == nodes > 0
    assert classify.fit_forest is originals["fit_forest"] is forest.fit_forest
    assert classify.fit_logistic is originals["fit_logistic"] is logistic.fit_logistic
    assert vars(classify.FeatureEncoder)["encode"] is originals["encode"]
    assert vars(forest.ForestModel)["predict_proba"] is originals["predict_proba"]


def backward_dataset(n=65):
    """An 8-level X and a binary Z that both drive Y, and a noise column B.
    X enters first; its backward test given Z has 14 degrees of freedom, too
    many for 65 rows, so it is unreliable and X leaves."""
    rng = np.random.default_rng(8)
    x = rng.integers(0, 8, n)
    z = rng.integers(0, 2, n)
    b = rng.integers(0, 2, n)
    y = np.where(rng.random(n) < 0.7, x >= 4, np.where(rng.random(n) < 0.8, z, 0))
    specs = [
        ColumnSpec("X", "categorical", categories=tuple("01234567")),
        ColumnSpec("Z", "binary"),
        ColumnSpec("B", "binary"),
        ColumnSpec("Y", "binary", "outcome"),
    ]
    return Dataset(specs, {"X": x, "Z": z, "B": b, "Y": y.astype(int)})


def test_g2_test_spans_count_the_backward_tests(spans):
    # forward rounds run through g2_batch, the backward phase through
    # discovery.g2_test: its span counts one test per backward record whose
    # test the forward phase of the search did not run
    with spans.Tracer() as tracer:
        found = discovery.mmpc(backward_dataset(), "Y", DiscoveryConfig(alpha=0.05))
    forward = {(r.x, r.given) for r in found.trace if r.phase == "forward"}
    backward = [r for r in found.trace if r.phase == "backward"]
    evaluated = [r for r in backward if (r.x, r.given) not in forward]
    unreliable = sum(not r.reliable for r in evaluated)
    assert len(found.trace) > len(backward) > len(evaluated) and unreliable > 0
    assert sum(span[0] == "stats.g2_test" for span in tracer.spans) == len(evaluated)
    assert tracer.counts["stats.g2_test.unreliable"] == unreliable


def test_benchmark_selftest_passes():
    # the benchmark's smoke test, at tiny sizes; it writes under .perfbench/
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for line in ("ok wide-forest", "ok qini-cv", "ok without sources"):
        assert line in lines
