import json
import os

import numpy as np
import pytest

from causaluplift import cli
from causaluplift.classify import load_model, predict_cctm
from causaluplift.data import Dataset
from causaluplift.errors import EmptyParentSetWarning

TINY_BIF = """
network tiny {
}
variable T {
  type discrete [ 2 ] { 0, 1 };
}
variable Y {
  type discrete [ 2 ] { 0, 1 };
}
probability ( T ) {
  table 0.5, 0.5;
}
probability ( Y | T ) {
  ( 0 ) 0.7, 0.3;
  ( 1 ) 0.2, 0.8;
}
"""


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset reused across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "gen"
    code = run(
        "generate",
        "--group", "group1",
        "--samples", 4000,
        "--noise-vars", 8,
        "--seed", 5,
        "--split", 0.5,
        "--out", out,
    )
    assert code == 0
    return out


class TestGenerate:
    def test_outputs_exist(self, workspace):
        for name in (
            "data.csv",
            "schema.json",
            "ground_truth.csv",
            "net.json",
            "train.csv",
            "test.csv",
            "train_truth.csv",
            "test_truth.csv",
        ):
            assert (workspace / name).exists(), name

    def test_column_count_and_split_sizes(self, workspace):
        data = Dataset.read_csv(workspace / "data.csv", workspace / "schema.json")
        assert len(data.columns) == 20  # T, Y, X1..X10, 8 noise
        train = Dataset.read_csv(workspace / "train.csv", workspace / "schema.json")
        test = Dataset.read_csv(workspace / "test.csv", workspace / "schema.json")
        assert train.n_rows == test.n_rows == 2000

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert run(
            "generate", "--group", "group1", "--samples", 4000,
            "--noise-vars", 8, "--seed", 5, "--split", 0.5, "--out", out,
        ) == 0
        for name in ("data.csv", "schema.json", "ground_truth.csv", "net.json"):
            assert (out / name).read_bytes() == (workspace / name).read_bytes()

    def test_different_seed_differs(self, workspace, tmp_path):
        out = tmp_path / "other"
        run(
            "generate", "--group", "group1", "--samples", 4000,
            "--noise-vars", 8, "--seed", 6, "--out", out,
        )
        assert (out / "data.csv").read_bytes() != (workspace / "data.csv").read_bytes()

    def test_bif_source(self, tmp_path):
        bif = tmp_path / "tiny.bif"
        bif.write_text(TINY_BIF)
        out = tmp_path / "bifgen"
        code = run(
            "generate", "--bif", bif, "--treatment", "T", "--outcome", "Y",
            "--samples", 500, "--seed", 1, "--out", out,
        )
        assert code == 0
        data = Dataset.read_csv(out / "data.csv", out / "schema.json")
        assert data.columns == ["T", "Y"]
        assert data.spec("T").role == "treatment"
        from causaluplift.datagen import GroundTruth, response_labels

        truth = GroundTruth.read_csv(out / "ground_truth.csv")
        assert all(v == pytest.approx(0.5, abs=1e-12) for v in truth.effect)
        assert np.array_equal(
            truth.response, response_labels(truth.potential_y0, truth.potential_y1)
        )
        want = np.where(data.values("T") == 1, truth.potential_y1, truth.potential_y0)
        assert np.array_equal(data.values("Y"), want)

    @pytest.mark.parametrize("split", [1.5, 0, 1, -0.2])
    def test_bad_split_writes_nothing(self, tmp_path, capsys, split):
        out = tmp_path / "g"
        assert run(
            "generate", "--samples", 50, "--seed", 1, "--split", split, "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "given, missing", [(("--treatment", "T"), "--outcome"), (("--outcome", "Y"), "--treatment")]
    )
    def test_bif_needs_treatment_and_outcome_together(self, tmp_path, capsys, given, missing):
        bif = tmp_path / "tiny.bif"
        bif.write_text(TINY_BIF)
        out = tmp_path / "g"
        assert run("generate", "--bif", bif, *given, "--seed", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "given",
        [("--treatment", "Q", "--outcome", "Z"), ("--treatment", "T"), ("--outcome", "Y")],
        ids=["both", "treatment", "outcome"],
    )
    def test_treatment_and_outcome_need_bif(self, tmp_path, capsys, given):
        out = tmp_path / "g"
        assert run(
            "generate", "--group", "group1", *given, "--samples", 50,
            "--noise-vars", 1, "--seed", 1, "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--bif" in err
        assert not out.exists()

    def test_bif_long_chain(self, tmp_path):
        n = 1200
        lines = ["network chain {", "}"]
        for i in range(n):
            lines.append(f"variable V{i} {{ type discrete [ 2 ] {{ 0, 1 }}; }}")
        lines.append("probability ( V0 ) { table 0.5, 0.5; }")
        for i in range(1, n):
            lines.append(f"probability ( V{i} | V{i - 1} ) {{ ( 0 ) 0.9, 0.1; ( 1 ) 0.1, 0.9; }}")
        bif = tmp_path / "chain.bif"
        bif.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g"
        assert run(
            "generate", "--bif", bif, "--treatment", f"V{n - 2}", "--outcome", f"V{n - 1}",
            "--samples", 20, "--seed", 1, "--out", out,
        ) == 0
        data = Dataset.read_csv(out / "data.csv", out / "schema.json")
        assert data.columns == [f"V{i}" for i in range(n)]

    def test_tool_stamp_embedded(self, workspace):
        first_line = (workspace / "data.csv").read_text().splitlines()[0]
        assert first_line.startswith("# causaluplift=")
        assert "config=" in first_line
        schema = json.loads((workspace / "schema.json").read_text())
        assert schema["tool"]["name"] == "causaluplift"


class TestDiscover:
    def test_finds_parents(self, workspace, tmp_path, capsys):
        out = tmp_path / "parents.json"
        code = run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--target", "Y", "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["members"]) == {"T", "X8", "X9"}
        assert "trace" not in payload

    def test_explain_includes_trace(self, workspace, tmp_path):
        out = tmp_path / "parents.json"
        run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--target", "Y", "--explain", "--out", out,
        )
        payload = json.loads(out.read_text())
        assert payload["trace"]
        record = payload["trace"][0]
        assert {"x", "y", "given", "p_value", "phase"} <= set(record)

    def test_missing_target_exits_2(self, workspace, capsys):
        assert run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json", "--target", "ZZZ",
        ) == 2


@pytest.fixture(scope="module")
def model_path(workspace, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = run(
        "train", "--data", workspace / "train.csv",
        "--schema", workspace / "schema.json",
        "--treatment", "T", "--outcome", "Y",
        "--classifier", "forest", "--seed", 3,
        "--n-trees", 25, "--max-depth", 10,
        "--out", path,
    )
    assert code == 0
    return path


class TestTrainPredictEval:
    def test_model_records_parents(self, model_path):
        payload = json.loads(model_path.read_text())
        assert set(payload["parents_excl_t"]) == {"X8", "X9"}
        assert payload["tool"]["version"]

    def test_missing_treatment_exits_2(self, workspace, tmp_path):
        assert run(
            "train", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "ZZZ", "--outcome", "Y",
            "--out", tmp_path / "m.json",
        ) == 2

    def test_empty_arm_exits_3(self, tmp_path):
        (tmp_path / "flat.csv").write_text(
            "T,Y,A\n" + "\n".join("0,1,0" for _ in range(20)) + "\n"
        )
        schema = {
            "columns": [
                {"name": "T", "kind": "binary", "role": "treatment"},
                {"name": "Y", "kind": "binary", "role": "outcome"},
                {"name": "A", "kind": "binary", "role": "covariate"},
            ]
        }
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        assert run(
            "train", "--data", tmp_path / "flat.csv",
            "--schema", tmp_path / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "A",
            "--out", tmp_path / "m.json",
        ) == 3

    @pytest.mark.parametrize(
        "kind, flag, value",
        [("logistic", "--n-trees", 5), ("forest", "--l2-penalty", 1)],
    )
    def test_flag_of_other_classifier_exits_2(
        self, workspace, tmp_path, capsys, kind, flag, value
    ):
        out = tmp_path / "m.json"
        assert run(
            "train", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
            "--classifier", kind, flag, value, "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown hyperparameters" in err
        assert not out.exists()

    def test_non_finite_hyperparameter_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(
            "train", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
            "--l2-penalty", "inf", "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --l2-penalty ") and "finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_parents_skip_discovery(self, workspace, tmp_path):
        out, out_dir = tmp_path / "m.json", tmp_path / "qini"
        common = (
            "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "",
        )
        with pytest.warns(EmptyParentSetWarning):
            assert run("train", *common, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["parents_excl_t"] == []
        assert "discovery" not in payload["metadata"]
        assert payload["tool"]["config"]["parents"] == []
        with pytest.warns(EmptyParentSetWarning):
            assert run("qini", *common, "--folds", 3, "--out-dir", out_dir) == 0
        assert json.loads((out_dir / "metrics.json").read_text())["tool"]["config"]["parents"] == []

    def test_predict_matches_library(self, workspace, model_path, tmp_path):
        preds_path = tmp_path / "preds.csv"
        code = run(
            "predict", "--model", model_path,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--theta", 0.0, "--out", preds_path,
        )
        assert code == 0
        preds = cli.read_predictions(preds_path)
        pair = load_model(model_path)
        test = Dataset.read_csv(workspace / "test.csv", workspace / "schema.json")
        want = predict_cctm(pair, test, theta=0.0).effect
        assert np.max(np.abs(preds.effect - want)) <= 1e-12

    def test_theta_sweep_monotone(self, workspace, model_path, tmp_path):
        counts = []
        for theta in (0.0, 0.2, 0.5, 1.0):
            path = tmp_path / f"p{theta}.csv"
            run(
                "predict", "--model", model_path,
                "--data", workspace / "test.csv",
                "--schema", workspace / "schema.json",
                "--theta", theta, "--out", path,
            )
            counts.append(int(cli.read_predictions(path).assign.sum()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_predict_other_model_version_exits_2(self, workspace, model_path, tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        payload["version"] = 99
        future = tmp_path / "future.json"
        future.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", future,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 99" in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "preds.csv").exists()

    def test_predict_empty_input_header_only(self, workspace, model_path, tmp_path):
        empty_csv = tmp_path / "empty.csv"
        header = (workspace / "test.csv").read_text().splitlines()[1]
        empty_csv.write_text(header + "\n")
        out = tmp_path / "preds.csv"
        assert run(
            "predict", "--model", model_path, "--data", empty_csv,
            "--schema", workspace / "schema.json", "--out", out,
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "row_id,p1,p0,effect,assign"
        assert len(lines) == 2

    def test_eval_ground_truth_and_qini(self, workspace, model_path, tmp_path):
        preds_path = tmp_path / "preds.csv"
        run(
            "predict", "--model", model_path,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json", "--out", preds_path,
        )
        metrics_path = tmp_path / "metrics.json"
        code = run(
            "eval", "--predictions", preds_path,
            "--ground-truth", workspace / "test_truth.csv",
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--curve-out", tmp_path / "curve.csv",
            "--out", metrics_path,
        )
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert 0.5 <= payload["causal_accuracy"] <= 1.0
        assert "qini_coefficient" in payload
        assert (tmp_path / "curve.csv").exists()

    def test_eval_oracle_accuracy_is_one(self, workspace, tmp_path):
        from causaluplift.datagen import GroundTruth

        truth = GroundTruth.read_csv(workspace / "test_truth.csv")
        preds_path = tmp_path / "oracle.csv"
        with open(preds_path, "w") as fh:
            fh.write("row_id,p1,p0,effect,assign\n")
            for i, e in enumerate(truth.effect):
                fh.write(f"{i},0.0,0.0,{float(e)!r},{int(e > 0)}\n")
        metrics = tmp_path / "m.json"
        run(
            "eval", "--predictions", preds_path,
            "--ground-truth", workspace / "test_truth.csv", "--out", metrics,
        )
        assert json.loads(metrics.read_text())["causal_accuracy"] == 1.0

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exits_2(self, workspace, model_path, tmp_path, capsys, theta):
        preds_path = tmp_path / "preds.csv"
        assert run(
            "predict", "--model", model_path,
            "--data", workspace / "test.csv", "--schema", workspace / "schema.json",
            f"--theta={theta}", "--out", preds_path,
        ) == 2
        assert not preds_path.exists()
        run(
            "predict", "--model", model_path,
            "--data", workspace / "test.csv", "--schema", workspace / "schema.json",
            "--out", preds_path,
        )
        capsys.readouterr()
        for reference in (
            ["--ground-truth", workspace / "test_truth.csv"],
            ["--data", workspace / "test.csv", "--schema", workspace / "schema.json"],
        ):
            metrics = tmp_path / "m.json"
            assert run(
                "eval", "--predictions", preds_path, *reference,
                f"--theta={theta}", "--out", metrics,
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "finite" in err
            assert err.count("\n") == 1
            assert not metrics.exists()

    def test_eval_needs_some_reference(self, workspace, tmp_path):
        preds_path = tmp_path / "p.csv"
        preds_path.write_text("row_id,p1,p0,effect,assign\n0,0.5,0.5,0.0,0\n")
        assert run("eval", "--predictions", preds_path) == 2


class TestQiniFormulaPipeline:
    def test_fixture_coefficient_is_twenty(self, tmp_path):
        rows = (
            [(1, 1)] * 30 + [(0, 1)] * 70 + [(1, 0)] * 10 + [(0, 0)] * 90
        )  # (y, t): n11=30, n10=10, nT1=100, nT0=100
        (tmp_path / "d.csv").write_text(
            "T,Y\n" + "\n".join(f"{t},{y}" for y, t in rows) + "\n"
        )
        (tmp_path / "schema.json").write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "T", "kind": "binary", "role": "treatment"},
                        {"name": "Y", "kind": "binary", "role": "outcome"},
                    ]
                }
            )
        )
        preds = tmp_path / "p.csv"
        preds.write_text(
            "row_id,p1,p0,effect,assign\n"
            + "\n".join(f"{i},0.5,0.5,0.0,0" for i in range(200))
            + "\n"
        )
        out = tmp_path / "m.json"
        code = run(
            "eval", "--predictions", preds, "--data", tmp_path / "d.csv",
            "--schema", tmp_path / "schema.json", "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())["qini_coefficient"] == 20.0


class TestQiniCv:
    def test_fold_outputs(self, workspace, tmp_path):
        out_dir = tmp_path / "qini"
        code = run(
            "qini", "--data", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y",
            "--parents", "X8,X9",
            "--folds", 3, "--points", 5, "--seed", 2,
            "--classifier", "forest", "--n-trees", 10,
            "--out-dir", out_dir,
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert len(metrics["areas"]) == 3
        folds_lines = (out_dir / "folds.csv").read_text().splitlines()
        assert folds_lines[1] == "fold,fraction,uplift"
        assert sum(1 for ln in folds_lines if ln.startswith("0,")) == 6  # origin + 5
        assert (out_dir / "mean_curve.csv").exists()

    def test_deterministic(self, workspace, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run(
                "qini", "--data", workspace / "data.csv",
                "--schema", workspace / "schema.json",
                "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
                "--folds", 3, "--points", 5, "--seed", 2,
                "--out-dir", out_dir,
            )
            dirs.append(out_dir)
        for name in ("metrics.json", "folds.csv", "mean_curve.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_symmetric_in_config(self, workspace, tmp_path):
        stamps = {}
        for flags in ((), ("--no-symmetric",)):
            out_dir = tmp_path / ("no-symmetric" if flags else "default")
            assert run(
                "qini", "--data", workspace / "data.csv",
                "--schema", workspace / "schema.json",
                "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
                "--folds", 3, "--points", 5, "--seed", 2, *flags,
                "--out-dir", out_dir,
            ) == 0
            tool = json.loads((out_dir / "metrics.json").read_text())["tool"]
            stamps[flags] = tool["config_hash"]
            assert tool["config"]["symmetric"] is not bool(flags)
            first_line = (out_dir / "folds.csv").read_text().splitlines()[0]
            assert first_line.endswith(f"config={tool['config_hash']}")
        assert stamps[()] != stamps[("--no-symmetric",)]


# defaults.json texts that must exit 2, each with the key or command its error names
BAD_DEFAULTS = {
    "unknown-command": ('{"trian": {"alpha": 0.2}}', "trian"),
    "unknown-key": ('{"discover": {"alpah": 0.2}}', "alpah"),
    "dispatch-key": ('{"train": {"func": "cmd_qini"}}', "func"),
    "key-of-other-command": ('{"discover": {"n_trees": 5}}', "n_trees"),
    "required-flag": ('{"train": {"out": "elsewhere.json"}}', "out"),
    "list-for-int": ('{"train": {"classifier": "forest", "n_trees": [5]}}', "n_trees"),
    "list-for-float": ('{"discover": {"alpha": [0.2]}}', "alpha"),
    "null-for-float": ('{"discover": {"alpha": null}}', "alpha"),
    "float-for-int": ('{"train": {"bins": 2.7}}', "bins"),
    "string-for-switch": ('{"discover": {"no-symmetric": "no"}}', "no-symmetric"),
    "string-for-float": ('{"eval": {"theta": "0.1"}}', "theta"),
    "nan-for-float": ('{"predict": {"theta": NaN}}', "theta"),
    "bool-for-int": ('{"qini": {"folds": true}}', "folds"),
    "unknown-choice": ('{"train": {"classifier": "tree"}}', "classifier"),
}


class TestConfigDir:
    def test_defaults_from_env(self, workspace, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "defaults.json").write_text(json.dumps({"discover": {"alpha": 0.2}}))
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        out = tmp_path / "parents.json"
        run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json", "--target", "Y", "--out", out,
        )
        payload = json.loads(out.read_text())
        assert payload["tool"]["config"]["alpha"] == 0.2

    def test_malformed_defaults_exit_2(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "defaults.json").write_text('{"discover": {"alpha": 0.2,')
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        assert run("generate", "--seed", 1, "--out", tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "defaults.json" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_defaults_not_an_object_exit_2(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "defaults.json").write_text('["discover"]')
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        assert run("generate", "--seed", 1, "--out", tmp_path / "g") == 2

    def test_dashed_key_applies(self, workspace, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "defaults.json").write_text(json.dumps({"discover": {"max-cond-size": 1}}))
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        out = tmp_path / "parents.json"
        assert run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json", "--target", "Y", "--out", out,
        ) == 0
        assert json.loads(out.read_text())["tool"]["config"]["max_cond_size"] == 1

    @pytest.mark.parametrize("text, named", BAD_DEFAULTS.values(), ids=list(BAD_DEFAULTS))
    def test_bad_defaults_exit_2(self, workspace, tmp_path, monkeypatch, capsys, text, named):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "defaults.json").write_text(text)
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        out = tmp_path / "m.json"
        assert run(
            "train", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9", "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "defaults.json" in err and named in err
        assert not out.exists()


class TestNonFiniteInput:
    def test_nan_training_cell_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [
            f"{t},{y},{v!r}"
            for t, y, v in zip(
                rng.integers(0, 2, 400), rng.integers(0, 2, 400),
                rng.normal(size=400).tolist(),
            )
        ]
        rows[17] = rows[17].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "d.csv").write_text("T,Y,V\n" + "\n".join(rows) + "\n")
        schema = {
            "columns": [
                {"name": "T", "kind": "binary", "role": "treatment"},
                {"name": "Y", "kind": "binary", "role": "outcome"},
                {"name": "V", "kind": "continuous", "role": "covariate"},
            ]
        }
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        assert run(
            "train", "--data", tmp_path / "d.csv", "--treatment", "T",
            "--outcome", "Y", "--parents", "V", "--out", tmp_path / "m.json",
        ) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_infinite_prediction_exits_2(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("row_id,p1,p0,effect,assign\n0,0.5,0.5,inf,1\n")
        truth = tmp_path / "t.csv"
        truth.write_text(
            "row,effect,response,potential_y0,potential_y1\n0,0.1,positive,0,1\n"
        )
        assert run("eval", "--predictions", preds, "--ground-truth", truth) == 2
