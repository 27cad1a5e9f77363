"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from causaluplift import cli
from causaluplift.classify import (
    ClassifierSpec,
    load_model,
    predict_cctm,
    train_cctm,
)
from causaluplift.data import Dataset
from causaluplift.datagen import SynthConfig, generate_group, sample
from causaluplift.discovery import DiscoveryConfig, discover_parents
from causaluplift.evaluation import (
    causal_accuracy,
    paired_t_test,
    prf,
    qini_coefficient,
    qini_curve,
)
from causaluplift.graph import Dag, d_separated, verify_uplift_conditions
from causaluplift.logistic import log_likelihood, log_likelihood_grad
from causaluplift.stats import ContingencyTable, g2_from_table, g2_test
from conftest import (
    d_separated_oracle,
    enumerate_all_dags,
    random_dag,
    random_setting_dag,
)

mpmath.mp.dps = 50

FOREST_SPEC = ClassifierSpec("forest", {"seed": 11, "n_trees": 60, "max_depth": 12})


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {name}  ({time.perf_counter() - start:.1f}s)")


@pytest.fixture(scope="module")
def clinic20():
    import importlib.resources as resources

    from causaluplift.bif import parse_bif

    text = resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
    return parse_bif(text)


def test_criterion_01_dseparation_oracle_equivalence():
    with criterion(1, "d-separation matches path-enumeration oracle"):
        start = time.perf_counter()
        checks = 0
        for k in (1, 2, 3, 4, 5):
            for g in enumerate_all_dags(k):
                desc = {v: g.descendants(v) for v in g.nodes}
                cache = {}
                for a, b in itertools.combinations(g.nodes, 2):
                    rest = [v for v in g.nodes if v not in (a, b)]
                    for r in range(len(rest) + 1):
                        for z in itertools.combinations(rest, r):
                            want = d_separated_oracle(g, {a}, {b}, set(z), desc, cache)
                            assert d_separated(g, {a}, {b}, set(z)) == want
                            checks += 1
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g = random_dag(rng, 10, 0.25)
            desc = {v: g.descendants(v) for v in g.nodes}
            cache = {}
            nodes = list(g.nodes)
            for _ in range(5):
                picks = rng.choice(10, size=5, replace=False)
                x = {nodes[picks[0]]}
                y = {nodes[picks[1]], nodes[picks[2]]}
                z = set(nodes[p] for p in picks[3:]) if rng.random() < 0.8 else set()
                want = d_separated_oracle(g, x, y, z, desc, cache)
                assert d_separated(g, x, y, z) == want
                checks += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert checks > 2_300_000


def test_criterion_02_structural_check():
    with criterion(2, "setting implies both do-calculus rules; violations flagged"):
        rng = np.random.default_rng(77)
        for _ in range(500):
            g = random_setting_dag(rng, n_pre=int(rng.integers(3, 9)))
            report = verify_uplift_conditions(g, "T", "Y")
            assert report.setting_ok
            assert report.rule1_holds and report.rule2_holds

        for i in range(500):
            g = random_setting_dag(rng, n_pre=int(rng.integers(3, 9)))
            mode = i % 3
            nodes = list(g.nodes)
            edges = list(g.edges)
            if mode == 0:  # outcome gains a descendant
                nodes.append("W")
                edges.append(("Y", "W"))
            elif mode == 1:  # a non-outcome node becomes a descendant of T
                nodes.append("W")
                edges.append(("T", "W"))
            else:  # treatment is no longer a parent of the outcome
                edges.remove(("T", "Y"))
            broken = Dag(nodes, edges)
            report = verify_uplift_conditions(broken, "T", "Y")
            assert not (
                report.t_is_parent_of_y
                and report.y_has_no_descendants
                and report.all_others_pretreatment
            )
            if mode == 0:
                assert not report.y_has_no_descendants
            elif mode == 1:
                assert not report.all_others_pretreatment
            else:
                assert not report.t_is_parent_of_y
            assert report.violations


def _g2_oracle_mp(counts):
    total = mpmath.mpf(0)
    for s in range(counts.shape[2]):
        slab = counts[:, :, s]
        n = int(slab.sum())
        if n == 0:
            continue
        for i in range(slab.shape[0]):
            for j in range(slab.shape[1]):
                o = int(slab[i, j])
                if o > 0:
                    e = mpmath.mpf(int(slab[i, :].sum())) * int(slab[:, j].sum()) / n
                    total += 2 * o * mpmath.log(o / e)
    return float(total)


def test_criterion_03_g2_correctness():
    with criterion(3, "G^2 statistic exact vs oracle; null calibration in band"):
        rng = np.random.default_rng(321)
        shapes = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 4), (4, 3, 2)]
        for i in range(50):
            shape = shapes[i % len(shapes)]
            counts = rng.integers(0, 40, size=shape)
            table = ContingencyTable(
                dims=shape, counts=counts, total=int(counts.sum())
            )
            res = g2_from_table(table, alpha=0.05)
            want = _g2_oracle_mp(counts)
            assert abs(res.statistic - want) <= 1e-10 * max(want, 1e-10)

        from causaluplift.data import ColumnSpec

        rejections = 0
        sims = 2000
        for _ in range(sims):
            n = 250
            z = rng.integers(0, 2, n)
            x = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
            y = (rng.random(n) < 0.6 - 0.3 * z).astype(int)
            data = Dataset(
                [ColumnSpec(c, "binary") for c in ("x", "y", "z")],
                {"x": x, "y": y, "z": z},
            )
            res = g2_test(data, "x", "y", ["z"], alpha=0.05)
            rejections += 0 if res.p_value > 0.05 else 1
        rate = rejections / sims
        assert 0.03 <= rate <= 0.07, f"rejection rate {rate}"


def test_criterion_04_parent_discovery_quality(clinic20):
    with criterion(4, "benchmark-net discovery: F1 >= 0.95 at n=5000, >= 0.70 at n=500"):
        truth = clinic20.dag.parents("Referral")
        for n, bar in ((5000, 0.95), (500, 0.70)):
            f1s = []
            for seed in range(10):
                data = sample(clinic20, n, seed)
                start = time.perf_counter()
                found = discover_parents(data, "Referral", DiscoveryConfig())
                elapsed = time.perf_counter() - start
                assert elapsed < 30.0, f"run took {elapsed:.1f}s"
                f1s.append(prf(found.members, truth).f1)
            mean_f1 = float(np.mean(f1s))
            assert mean_f1 >= bar, f"n={n}: mean F1 {mean_f1:.3f} < {bar}"


def test_criterion_05_scalability():
    with criterion(5, "MMPC on 100 variables: n=10000 < 60s; sub-quadratic in n"):
        from causaluplift.stats import discretize_dataset

        times = {}
        for n in (5000, 10000, 15000, 25000):
            data, _, _ = generate_group(SynthConfig(group="group1", seed=42, n_samples=n))
            prepared = discretize_dataset(data, 3)
            start = time.perf_counter()
            found = discover_parents(prepared, "Y", DiscoveryConfig(symmetric=False))
            times[n] = time.perf_counter() - start
            assert "X8" in found.members and "X9" in found.members
        assert times[10000] < 60.0, f"n=10000 took {times[10000]:.1f}s"
        ratio = times[25000] / max(times[5000], 1e-9)
        assert ratio < 25.0, f"t(25k)/t(5k) = {ratio:.1f}"


def _half_split(data, truth, seed):
    perm = np.random.default_rng([seed, 1]).permutation(data.n_rows)
    half = data.n_rows // 2
    tr, te = np.sort(perm[:half]), np.sort(perm[half:])
    return data.take(tr), data.take(te), truth.take(te)


def test_criterion_06_cctm_efficacy():
    with criterion(6, "discovered parents beat all covariates (forest, 10 datasets)"):
        for group, min_gap in (("group1", 0.05), ("group2", 0.0)):
            acc_parents, acc_all = [], []
            for seed in range(10):
                data, truth, _ = generate_group(
                    SynthConfig(group=group, seed=seed, n_samples=10000)
                )
                train, test, test_truth = _half_split(data, truth, seed)
                pair = train_cctm(train, "T", "Y", spec=FOREST_SPEC)
                acc_parents.append(
                    causal_accuracy(predict_cctm(pair, test, 0.0).assign, test_truth, 0.0)
                )
                covariates = [c for c in data.columns if c not in ("T", "Y")]
                pair_all = train_cctm(train, "T", "Y", parents=covariates, spec=FOREST_SPEC)
                acc_all.append(
                    causal_accuracy(predict_cctm(pair_all, test, 0.0).assign, test_truth, 0.0)
                )
            gap = float(np.mean(acc_parents) - np.mean(acc_all))
            _, p_value = paired_t_test(acc_parents, acc_all)
            assert gap > min_gap, f"{group}: gap {gap:.3f} <= {min_gap}"
            assert p_value < 0.05, f"{group}: p {p_value:.3g}"


def test_criterion_07_qini_exactness():
    with criterion(7, "Qini formula exact on fixture; per-row curve equals prefix oracle"):
        outcomes = np.array([1] * 30 + [0] * 70 + [1] * 10 + [0] * 90)
        treatments = np.array([1] * 100 + [0] * 100)
        assert qini_coefficient(outcomes, treatments) == 20.0

        rng = np.random.default_rng(404)
        n = 300
        effects = rng.normal(size=n)
        out = rng.integers(0, 2, n)
        trt = rng.integers(0, 2, n)
        curve = qini_curve(effects, out, trt, n_points=n)
        order = np.argsort(-effects, kind="stable")
        for k in range(1, n + 1):
            sl = order[:k]
            frac, uplift = curve.points[k]
            n_t1 = int((trt[sl] == 1).sum())
            n_t0 = k - n_t1
            if n_t0 == 0:
                assert uplift is None
                continue
            n11 = int(((out[sl] == 1) & (trt[sl] == 1)).sum())
            n10 = int(((out[sl] == 1) & (trt[sl] == 0)).sum())
            assert uplift == n11 - n10 * n_t1 / n_t0


def test_criterion_08_ordering_dominance():
    with criterion(8, "truth ordering dominates 100 random; model >= 80% of oracle area"):
        ratios = []
        for seed in range(10):
            data, truth, _ = generate_group(
                SynthConfig(group="group1", seed=100 + seed, n_samples=10000)
            )
            train, test, test_truth = _half_split(data, truth, seed)
            out = test.values("Y")
            trt = test.values("T")
            oracle_area = qini_curve(test_truth.effect, out, trt).coefficient_area
            assert oracle_area > 0
            if seed < 2:
                rng = np.random.default_rng(7000 + seed)
                for _ in range(100):
                    shuffled = qini_curve(rng.normal(size=test.n_rows), out, trt)
                    assert oracle_area >= shuffled.coefficient_area
            pair = train_cctm(train, "T", "Y", spec=FOREST_SPEC)
            model_area = qini_curve(
                predict_cctm(pair, test, 0.0).effect, out, trt
            ).coefficient_area
            ratios.append(model_area / oracle_area)
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio >= 0.8, f"mean area ratio {mean_ratio:.3f}"


def _run_cli_pipeline(root):
    gen = root / "gen"
    assert cli.main([
        "generate", "--group", "group1", "--samples", "3000", "--noise-vars", "8",
        "--seed", "17", "--split", "0.5", "--out", str(gen),
    ]) == 0
    assert cli.main([
        "discover", "--data", str(gen / "train.csv"), "--schema", str(gen / "schema.json"),
        "--target", "Y", "--explain", "--out", str(root / "parents.json"),
    ]) == 0
    assert cli.main([
        "train", "--data", str(gen / "train.csv"), "--schema", str(gen / "schema.json"),
        "--treatment", "T", "--outcome", "Y", "--classifier", "forest",
        "--seed", "3", "--n-trees", "20", "--max-depth", "8",
        "--out", str(root / "model.json"),
    ]) == 0
    assert cli.main([
        "predict", "--model", str(root / "model.json"), "--data", str(gen / "test.csv"),
        "--schema", str(gen / "schema.json"), "--theta", "0.0",
        "--out", str(root / "preds.csv"),
    ]) == 0
    assert cli.main([
        "eval", "--predictions", str(root / "preds.csv"),
        "--ground-truth", str(gen / "test_truth.csv"),
        "--data", str(gen / "test.csv"), "--schema", str(gen / "schema.json"),
        "--curve-out", str(root / "curve.csv"), "--out", str(root / "metrics.json"),
    ]) == 0
    assert cli.main([
        "qini", "--data", str(gen / "data.csv"), "--schema", str(gen / "schema.json"),
        "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
        "--folds", "3", "--points", "5", "--seed", "2",
        "--classifier", "forest", "--n-trees", "10",
        "--out-dir", str(root / "qini"),
    ]) == 0
    files = [
        gen / "data.csv", gen / "schema.json", gen / "ground_truth.csv",
        gen / "net.json", gen / "train.csv", gen / "test.csv",
        gen / "train_truth.csv", gen / "test_truth.csv",
        root / "parents.json", root / "model.json", root / "preds.csv",
        root / "curve.csv", root / "metrics.json",
        root / "qini" / "folds.csv", root / "qini" / "mean_curve.csv",
        root / "qini" / "metrics.json",
    ]
    return {f.relative_to(root): f.read_bytes() for f in files}


def test_criterion_09_determinism_and_persistence(tmp_path):
    with criterion(9, "CLI re-runs byte-identical; save/load prediction drift <= 1e-12"):
        first = _run_cli_pipeline(tmp_path / "a")
        second = _run_cli_pipeline(tmp_path / "b")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

        gen = tmp_path / "a" / "gen"
        test = Dataset.read_csv(gen / "test.csv", gen / "schema.json")
        pair = load_model(tmp_path / "a" / "model.json")
        in_memory = predict_cctm(pair, test, 0.0).effect
        reloaded = predict_cctm(load_model(tmp_path / "b" / "model.json"), test, 0.0).effect
        assert np.max(np.abs(in_memory - reloaded)) <= 1e-12


def test_criterion_10_logistic_gradient_check():
    with criterion(10, "analytic gradient matches central differences at 100 points"):
        rng = np.random.default_rng(555)
        X = rng.standard_normal((80, 4))
        y = (rng.random(80) < 0.5).astype(int)
        l2 = 0.01
        h = 1e-6
        for _ in range(100):
            w = rng.standard_normal(5) * 1.5
            grad = log_likelihood_grad(w, X, y, l2)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd = (log_likelihood(w + e, X, y, l2) - log_likelihood(w - e, X, y, l2)) / (2 * h)
                rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-8)
                assert rel <= 1e-5
