"""The benchmark's traced replay wraps package functions by owner and name
(``perfbench/spans.py``); these tests check that every hook it installs
still binds and records a span, so a rename in the package cannot silently
zero a per-layer metric."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from causaluplift import classify, forest, logistic
from causaluplift.classify import ClassifierSpec, predict_cctm, train_cctm
from causaluplift.data import ColumnSpec, Dataset

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
