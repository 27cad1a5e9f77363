import json
import os

import numpy as np
import pytest

from causaluplift import classify, cli
from causaluplift.classify import load_model, predict_cctm
from causaluplift.data import ColumnSpec, Dataset, write_schema
from causaluplift.errors import DegenerateLabelsWarning, EmptyParentSetWarning

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


# T -> Y -> Z, and T -> C with three labels
FOUR_NODE_BIF = """
variable T { type discrete [ 2 ] { 0, 1 }; }
variable Y { type discrete [ 2 ] { 0, 1 }; }
variable C { type discrete [ 3 ] { a, b, c }; }
variable Z { type discrete [ 2 ] { 0, 1 }; }
probability ( T ) { table 0.5, 0.5; }
probability ( Y | T ) { ( 0 ) 0.7, 0.3; ( 1 ) 0.2, 0.8; }
probability ( C | T ) { ( 0 ) 0.2, 0.3, 0.5; ( 1 ) 0.5, 0.3, 0.2; }
probability ( Z | Y ) { ( 0 ) 0.9, 0.1; ( 1 ) 0.1, 0.9; }
"""


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_tya_schema(directory):
    """A ``schema.json`` of binary columns T (treatment), Y (outcome) and A."""
    columns = [
        {"name": "T", "kind": "binary", "role": "treatment"},
        {"name": "Y", "kind": "binary", "role": "outcome"},
        {"name": "A", "kind": "binary", "role": "covariate"},
    ]
    (directory / "schema.json").write_text(json.dumps({"columns": columns}))


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

    def test_bif_repeated_label_exits_2(self, tmp_path, capsys):
        # a repeated label would write a code that reads back as another label
        bif = tmp_path / "tiny.bif"
        bif.write_text(TINY_BIF.replace("[ 2 ] { 0, 1 }", "[ 3 ] { 0, 1, 0 }", 1))
        out = tmp_path / "g"
        assert run("generate", "--bif", bif, "--seed", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: line 5, col 31: expected a new category label, found '0'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "treatment, outcome, says",
        [
            ("Z", "Y", "'Z' is not a parent of 'Y' in the generating network"),
            ("T", "C", "column 'C' is not binary 0/1"),
            ("T", "Y", "outcome 'Y' has descendants; ground truth undefined"),
        ],
        ids=["not-a-parent", "outcome-not-binary", "outcome-has-descendants"],
    )
    def test_bif_without_ground_truth_exits_2(self, tmp_path, capsys, treatment, outcome, says):
        bif = tmp_path / "four.bif"
        bif.write_text(FOUR_NODE_BIF)
        out = tmp_path / "g"
        assert run(
            "generate", "--bif", bif, "--treatment", treatment, "--outcome", outcome,
            "--samples", 50, "--seed", 1, "--out", out,
        ) == 2
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not out.exists()

    def test_negative_noise_vars_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run("generate", "--noise-vars", -1, "--seed", 1, "--out", out) == 2
        assert capsys.readouterr().err == "error: n_noise_vars must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "given", [(), ("--treatment", "T", "--outcome", "Y")], ids=["sample", "ground-truth"]
    )
    def test_bif_negative_samples_exits_2(self, tmp_path, capsys, given):
        bif = tmp_path / "tiny.bif"
        bif.write_text(TINY_BIF)
        out = tmp_path / "g"
        assert run(
            "generate", "--bif", bif, *given, "--samples", -5, "--seed", 1, "--out", out
        ) == 2
        assert capsys.readouterr().err == "error: --samples must be >= 1, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "source",
        [
            ("--group", "group1"),
            ("--bif", "BIF"),
            ("--bif", "BIF", "--treatment", "T", "--outcome", "Y"),
        ],
        ids=["group", "bif-sample", "bif-ground-truth"],
    )
    def test_zero_samples_exits_2(self, tmp_path, capsys, source):
        """Refused on every path, before anything is written."""
        bif = tmp_path / "tiny.bif"
        bif.write_text(TINY_BIF)
        source = [bif if arg == "BIF" else arg for arg in source]
        out = tmp_path / "g"
        assert run("generate", *source, "--samples", 0, "--seed", 1, "--out", out) == 2
        assert capsys.readouterr().err == "error: --samples must be >= 1, got 0\n"
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

    def test_n_tests_counts_records_with_a_p_value(self, tmp_path):
        gen = tmp_path / "gen"
        run(
            "generate", "--group", "group2", "--samples", 300, "--noise-vars", 4,
            "--seed", 7, "--split", 0.4, "--out", gen,
        )
        out = tmp_path / "parents.json"
        run(
            "discover", "--data", gen / "test.csv", "--target", "Y", "--alpha", 0.5,
            "--explain", "--out", out,
        )
        payload = json.loads(out.read_text())
        phases = [record["phase"] for record in payload["trace"]]
        assert "symmetry-removed" in phases  # a record that is no test
        tests = [record for record in payload["trace"] if record["p_value"] is not None]
        assert payload["n_tests"] == len(tests)
        assert len(tests) == len(phases) - phases.count("symmetry-removed")

    @pytest.mark.parametrize(
        "schema, says",
        [
            ([1, 2], "expected an object, got list"),
            ({"cols": []}, "'columns' must be a list"),
            ("no kind", "columns[1]: 'kind' must be a string"),
            ("ordinal kind", "column 'X1': bad column kind 'ordinal'"),
            ("instrument role", "column 'T': bad column role 'instrument'"),
            ("repeated category", "column 'X1': category '0' is repeated"),
            ("binary reordered", "column 'X1': a binary column's categories are '0', '1'"),
            ("continuous labelled", "column 'X1': a continuous column has no categories"),
        ],
    )
    def test_malformed_schema_exits_2(self, workspace, tmp_path, capsys, schema, says):
        edits = {  # each a change to the workspace schema's columns
            "no kind": lambda cols: cols[1].pop("kind"),
            "ordinal kind": lambda cols: cols[2].update(kind="ordinal"),
            "instrument role": lambda cols: cols[0].update(role="instrument"),
            "repeated category": lambda cols: cols[2].update(
                kind="categorical", categories=["0", "1", "0"]
            ),
            "binary reordered": lambda cols: cols[2].update(categories=["1", "0"]),
            "continuous labelled": lambda cols: cols[2].update(
                kind="continuous", categories=["a"]
            ),
        }
        if isinstance(schema, str):
            edit, schema = edits[schema], json.loads((workspace / "schema.json").read_text())
            assert [c["name"] for c in schema["columns"][:3]] == ["T", "Y", "X1"]
            edit(schema["columns"])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(schema))
        assert run(
            "discover", "--data", workspace / "train.csv", "--schema", path, "--target", "Y",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert says in err

    def test_missing_target_exits_2(self, workspace, capsys):
        assert run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json", "--target", "ZZZ",
        ) == 2

    def test_header_only_data_finds_no_parents(self, tmp_path, capsys):
        write_tya_schema(tmp_path)
        (tmp_path / "d.csv").write_text("T,Y,A\n")
        assert run("discover", "--data", tmp_path / "d.csv", "--target", "Y") == 0
        assert capsys.readouterr().out == '{"target": "Y", "members": []}\n'

    @pytest.mark.parametrize("bins", [1, 0, -4])
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("discover", ("--target", "Y", "--out", "out")),
            ("train", ("--treatment", "T", "--outcome", "Y", "--out", "out")),
            ("qini", ("--treatment", "T", "--outcome", "Y", "--out-dir", "out")),
        ],
        ids=["discover", "train", "qini"],
    )
    def test_bins_below_two_exit_2_on_discrete_data(self, tmp_path, capsys, command, flags, bins):
        """Refused whatever the data, though all-discrete data never bins."""
        gen = tmp_path / "gen"
        bif = tmp_path / "four.bif"
        bif.write_text(FOUR_NODE_BIF)
        assert run("generate", "--bif", bif, "--samples", 200, "--seed", 1, "--out", gen) == 0
        capsys.readouterr()
        flags = [tmp_path / "out" if flag == "out" else flag for flag in flags]
        assert run(command, "--data", gen / "data.csv", *flags, "--bins", bins) == 2
        assert capsys.readouterr().err == f"error: --bins must be >= 2, got {bins}\n"
        assert not (tmp_path / "out").exists()

    def test_internal_error_exits_1(self, workspace, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(cli, "discover_parents", fail)
        assert run(
            "discover", "--data", workspace / "train.csv", "--target", "Y",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: not an input error" in err


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
        write_tya_schema(tmp_path)
        assert run(
            "train", "--data", tmp_path / "flat.csv",
            "--schema", tmp_path / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "A",
            "--out", tmp_path / "m.json",
        ) == 3

    def test_empty_control_arm_exits_3(self, tmp_path, capsys):
        (tmp_path / "treated.csv").write_text(
            "T,Y,A\n" + "\n".join(f"1,{i % 2},{i // 2 % 2}" for i in range(20)) + "\n"
        )
        write_tya_schema(tmp_path)
        out = tmp_path / "m.json"
        assert run(
            "train", "--data", tmp_path / "treated.csv",
            "--treatment", "T", "--outcome", "Y", "--parents", "A", "--out", out,
        ) == 3
        assert capsys.readouterr().err == (
            "error: arm T=0 has no rows (treated=20, control=0)\n"
        )
        assert not out.exists()

    def test_forest_feature_subsample(self, workspace, tmp_path):
        # mtry is the rounded share of the 10 features: 1.0 tries all of them
        # at every split, so a tree of depth 1 splits on the best one
        models = {}
        for share in (0.1, 1.0):
            path = tmp_path / f"forest{share}.json"
            assert run(
                "train", "--data", workspace / "train.csv",
                "--schema", workspace / "schema.json",
                "--treatment", "T", "--outcome", "Y", "--parents", ",".join(
                    ["X8", "X9", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "N1"]
                ),
                "--classifier", "forest", "--seed", 3, "--n-trees", 12, "--max-depth", 1,
                "--feature-subsample", share, "--out", path,
            ) == 0
            models[share] = load_model(path)
        for share, pair in models.items():
            assert pair.m1.params["feature_subsample"] == share
        roots = {
            share: {int(tree[0][0]) for tree in pair.m1.trees} for share, pair in models.items()
        }
        assert len(roots[1.0]) == 1 and len(roots[0.1]) > 1

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

    def test_predictions_round_trip(self, workspace, model_path, tmp_path):
        path = tmp_path / "preds.csv"
        assert run(
            "predict", "--model", model_path,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--theta", 0.1, "--out", path,
        ) == 0
        test = Dataset.read_csv(workspace / "test.csv", workspace / "schema.json")
        want = predict_cctm(load_model(model_path), test, theta=0.1)
        got = cli.read_predictions(path)
        for name in ("p1", "p0", "effect", "assign"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert path.read_text().splitlines()[1] == "row_id,p1,p0,effect,assign"

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

    def test_predict_other_file_format_exits_2(self, workspace, model_path, tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        payload["format"] = "other-model"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", other,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        assert capsys.readouterr().err == f"error: {other} is not a causaluplift-model file\n"
        assert not (tmp_path / "preds.csv").exists()

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

    @pytest.mark.parametrize(
        "node, key, value, says",
        [
            # the last node in level order is a leaf; the root is a split
            (-1, "split_feat", 0, "its nodes are not one tree"),
            (0, "split_feat", 99, "split feature is out of range"),
        ],
    )
    def test_predict_tampered_tree_exits_2(
        self, workspace, model_path, tmp_path, capsys, node, key, value, says
    ):
        payload = json.loads(model_path.read_text())
        tree = payload["m1"]["trees"][0]
        assert (tree["split_feat"][node] >= 0) == (node == 0)
        tree[key][node] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", tampered,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tampered}: model arm m1: forest tree 0: ") and says in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize(
        "classifier, arm, tamper, says",
        [
            ("forest", "m1", lambda m: m["cuts"].append([0.5]), "cut lists for"),
            ("forest", "m0", lambda m: m["cuts"][0].insert(0, float("nan")), "cut list 0"),
            ("forest", "m1", lambda m: m["cuts"][0].append(m["cuts"][0][-1]), "cut list 0"),
            ("logistic", "m0", lambda m: m["weights"].append(0.5), "weights for"),
            ("logistic", "m1", lambda m: m["weights"].__setitem__(1, float("nan")), "not finite"),
            ("logistic", "m1", lambda m: m.update(weights=m["weights"][:1]), "weights for"),
            ("constant", "m1", lambda m: m.update(p=1.5), "outside [0, 1]"),
            ("constant", "m0", lambda m: m.update(p=float("nan")), "outside [0, 1]"),
            ("constant", "m1", lambda m: m.__delitem__("p"), "missing key 'p'"),
            ("forest", "m1", lambda m: m.update(cuts=5), "forest cuts must be a list, got int"),
            ("forest", "m0", lambda m: m.update(trees=5), "forest trees must be a list, got int"),
            ("forest", "m1", lambda m: m.update(trees=[]), "forest has no trees"),
            ("logistic", "m0", lambda m: m.update(weights={"w": 1.0}), "dict"),
            ("forest", "m0", lambda m: m.update(type="svm"), "unknown model type 'svm'"),
            ("forest", "m1", lambda m: m.clear(), "unknown model type None"),
            ("logistic", "m0", lambda m: [m], "expected an object, got list"),
        ],
        ids=[
            "extra-cut-list", "nan-cut", "repeated-cut", "extra-weight", "nan-weight",
            "missing-weights", "p-above-1", "nan-p", "missing-p", "cuts-not-a-list",
            "trees-not-a-list", "no-trees", "weights-not-a-list", "unknown-type", "no-type",
            "arm-not-an-object",
        ],
    )
    def test_predict_tampered_arm_exits_2(
        self, workspace, model_path, tmp_path, capsys, classifier, arm, tamper, says
    ):
        if classifier == "forest":
            payload = json.loads(model_path.read_text())
        else:
            logistic_path = tmp_path / "logistic.json"
            assert run(
                "train", "--data", workspace / "train.csv",
                "--schema", workspace / "schema.json",
                "--treatment", "T", "--outcome", "Y", "--out", logistic_path,
            ) == 0
            payload = json.loads(logistic_path.read_text())
        if classifier == "constant":
            payload[arm] = {"type": "constant", "p": 0.5}
        assert payload[arm]["type"] == classifier
        replaced = tamper(payload[arm])  # a new arm, or None for an arm edited in place
        if replaced is not None:
            payload[arm] = replaced
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", tampered,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tampered}: model arm {arm}: ") and says in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize(
        "tamper, says",
        [
            (lambda p: p.__delitem__("treatment"), "missing key 'treatment'"),
            (lambda p: p.__delitem__("outcome"), "missing key 'outcome'"),
            (lambda p: p.__delitem__("parents_excl_t"), "missing key 'parents_excl_t'"),
            (lambda p: p.__delitem__("encoder"), "missing key 'encoder'"),
            (lambda p: p.__delitem__("m0"), "missing key 'm0'"),
            (lambda p: p.update(encoder={"entries": 5}), "encoder must be an object holding"),
            (lambda p: p.update(encoder=[]), "encoder must be an object holding"),
            (lambda p: p["encoder"]["entries"].__setitem__(0, 5),
             "encoder: entries[0] is not an object"),
            (lambda p: p["encoder"]["entries"][1].update(name=7),
             "encoder: entries[1]: 'name' must be a string"),
            (lambda p: p["encoder"]["entries"][0].update(kind="ordinal"),
             "encoder: column 'X9': bad column kind 'ordinal'"),
            (lambda p: p["encoder"]["entries"][0].update(kind="categorical"),
             "encoder: column 'X9': 'categories' must be listed"),
            (lambda p: p["encoder"]["entries"][0].update(kind="categorical", categories=[0, 1]),
             "encoder: column 'X9': 'categories' must be a list of strings"),
            (lambda p: p["encoder"]["entries"][0].update(kind="categorical", categories=["1", "1"]),
             "encoder: column 'X9': category '1' is repeated"),
            (lambda p: p["encoder"]["entries"].append(p["encoder"]["entries"][0]),
             "encoder: column 'X9': the column is listed twice"),
            (lambda p: p["encoder"]["entries"][0].update(categories=["1", "0"]),
             "encoder: column 'X9': a binary column's categories are '0', '1'"),
            (lambda p: p["parents_excl_t"].reverse(), "parents_excl_t must list the encoder's"),
            (lambda p: p.update(parents_excl_t="X8"), "parents_excl_t must list the encoder's"),
        ],
        ids=[
            "no-treatment", "no-outcome", "no-parents", "no-encoder", "no-m0",
            "entries-not-a-list", "encoder-a-list",
            "entry-not-an-object", "name-not-a-string", "unknown-kind", "no-categories",
            "categories-not-strings", "repeated-category", "repeated-name",
            "binary-reordered", "parents-reordered", "parents-not-a-list",
        ],
    )
    def test_predict_tampered_header_exits_2(
        self, workspace, model_path, tmp_path, capsys, tamper, says
    ):
        payload = json.loads(model_path.read_text())
        tamper(payload)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", tampered,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tampered}: {says}")
        assert err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize(
        "column, kind, trained",
        [("N1", "categorical", "continuous"), ("X8", "continuous", "binary")],
        ids=["continuous-read-as-categorical", "binary-read-as-continuous"],
    )
    def test_predict_column_of_another_kind_exits_2(
        self, workspace, tmp_path, capsys, column, kind, trained
    ):
        model = tmp_path / "model.json"
        assert run(
            "train", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9,N1", "--out", model,
        ) == 0
        schema = json.loads((workspace / "schema.json").read_text())
        entry = next(c for c in schema["columns"] if c["name"] == column)
        assert entry["kind"] == trained
        entry["kind"] = kind
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        capsys.readouterr()
        assert run(
            "predict", "--model", model,
            "--data", workspace / "test.csv",
            "--schema", tmp_path / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        says = f"column {column!r} is {kind}, but the model was trained on it as {trained}"
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize("command", ["train", "qini"])
    @pytest.mark.parametrize(
        "outcome, parents, says",
        [
            ("Y", ["--parents", "Y,X8"], "the parents list the outcome 'Y'"),
            ("T", [], "the treatment 'T' is also the outcome"),
            ("Y", ["--parents", "X8,X8"], "the parents list 'X8' twice"),
        ],
        ids=["outcome-as-parent", "treatment-is-outcome", "repeated-parent"],
    )
    def test_invalid_parent_set_exits_2(
        self, workspace, tmp_path, capsys, command, outcome, parents, says
    ):
        out = tmp_path / "out"
        assert run(
            command, "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", outcome, *parents,
            "--out" if command == "train" else "--out-dir", out,
        ) == 2
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload", [[], 5, "model", None], ids=["list", "int", "str", "null"])
    def test_predict_model_not_an_object_exits_2(self, workspace, tmp_path, capsys, payload):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert run(
            "predict", "--model", tampered,
            "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--out", tmp_path / "preds.csv",
        ) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tampered}: expected a JSON object, got {type(payload).__name__}\n"
        assert not (tmp_path / "preds.csv").exists()

    def test_eval_empty_predictions_exits_2(self, workspace, tmp_path, capsys):
        preds_path = tmp_path / "p.csv"
        preds_path.write_text("row_id,p1,p0,effect,assign\n")
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("row,effect,response,potential_y0,potential_y1\n")
        metrics = tmp_path / "m.json"
        assert run(
            "eval", "--predictions", preds_path, "--ground-truth", truth_path,
            "--out", metrics,
        ) == 2
        err = capsys.readouterr().err
        assert err == "error: empty input\n"
        assert not metrics.exists()

    def test_eval_needs_some_reference(self, workspace, tmp_path):
        preds_path = tmp_path / "p.csv"
        preds_path.write_text("row_id,p1,p0,effect,assign\n0,0.5,0.5,0.0,0\n")
        assert run("eval", "--predictions", preds_path) == 2

    def test_eval_reference_checked_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert run("eval", "--predictions", missing) == 2
        assert capsys.readouterr().err == "error: eval needs --ground-truth or --data\n"

    def test_eval_curve_out_needs_data(self, tmp_path, capsys):
        preds_path = tmp_path / "p.csv"
        preds_path.write_text("row_id,p1,p0,effect,assign\n0,0.5,0.5,0.0,0\n")
        truth_path = tmp_path / "t.csv"
        truth_path.write_text("row,effect,response,potential_y0,potential_y1\n0,0.1,positive,0,1\n")
        assert run(
            "eval", "--predictions", preds_path, "--ground-truth", truth_path,
            "--curve-out", tmp_path / "c.csv",
        ) == 2
        assert capsys.readouterr().err == "error: eval --curve-out needs --data\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flag", ["--outcome", "--treatment"])
    def test_eval_data_column_must_be_binary(self, workspace, model_path, tmp_path, capsys, flag):
        preds_path = tmp_path / "preds.csv"
        assert run(
            "predict", "--model", model_path, "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json", "--out", preds_path,
        ) == 0
        capsys.readouterr()
        metrics = tmp_path / "m.json"
        assert run(  # N1 is a continuous noise column
            "eval", "--predictions", preds_path, "--data", workspace / "test.csv",
            "--schema", workspace / "schema.json", flag, "N1", "--out", metrics,
        ) == 2
        assert capsys.readouterr().err == "error: column 'N1' is not binary 0/1\n"
        assert not metrics.exists()

    @pytest.mark.parametrize(
        "cell, column",
        [
            ("7", "assign"),
            ("99999999999999999999", "assign"),
            ("2", "potential_y0"),
            ("-1", "potential_y1"),
        ],
    )
    def test_eval_side_file_bits(self, tmp_path, capsys, cell, column):
        cells = {"assign": "1", "potential_y0": "0", "potential_y1": "1"}
        cells[column] = cell
        preds = tmp_path / "p.csv"
        preds.write_text(f"row_id,p1,p0,effect,assign\n0,0.5,0.5,0.0,{cells['assign']}\n")
        truth = tmp_path / "t.csv"
        truth.write_text(
            "row,effect,response,potential_y0,potential_y1\n"
            f"0,0.1,positive,{cells['potential_y0']},{cells['potential_y1']}\n"
        )
        assert run("eval", "--predictions", preds, "--ground-truth", truth) == 2
        assert capsys.readouterr().err == f"error: column {column!r} is not binary 0/1\n"


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

    def test_bad_folds_leave_no_out_dir(self, workspace, tmp_path):
        out_dir = tmp_path / "qq"
        assert run(
            "qini", "--data", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--treatment", "T", "--outcome", "Y", "--parents", "X8,X9",
            "--folds", 1, "--out-dir", out_dir,
        ) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("n_folds", [300, 151])
    def test_folds_with_one_row_named(self, tmp_path, capsys, monkeypatch, n_folds):
        rng = np.random.default_rng(5)
        data = Dataset(
            [ColumnSpec("T", "binary", "treatment"), ColumnSpec("Y", "binary", "outcome"),
             ColumnSpec("A", "binary")],
            {name: rng.integers(0, 2, 300) for name in ("T", "Y", "A")},
        )
        data.write_csv(tmp_path / "d.csv")
        write_schema(tmp_path / "schema.json", data)
        out_dir = tmp_path / "qq"
        with monkeypatch.context() as patch:  # refused before any arm is fitted
            patch.setattr(classify, "_fit", None)
            assert run(
                "qini", "--data", tmp_path / "d.csv", "--treatment", "T", "--outcome", "Y",
                "--parents", "A", "--folds", n_folds, "--out-dir", out_dir,
            ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --folds {n_folds} leaves a test fold of 1 row of 300;")
        assert "--folds must be at most 150" in err and "--points" not in err
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_points_outside_a_test_fold_exit_2(self, tmp_path, capsys, monkeypatch):
        # 300 rows in 10 folds: each test fold has 30 rows, too few for 50 points
        rng = np.random.default_rng(5)
        data = Dataset(
            [ColumnSpec("T", "binary", "treatment"), ColumnSpec("Y", "binary", "outcome"),
             ColumnSpec("A", "binary")],
            {name: rng.integers(0, 2, 300) for name in ("T", "Y", "A")},
        )
        data.write_csv(tmp_path / "d.csv")
        write_schema(tmp_path / "schema.json", data)
        common = ("qini", "--data", tmp_path / "d.csv", "--treatment", "T", "--outcome", "Y",
                  "--parents", "A", "--folds", 10)
        out_dir = tmp_path / "qq"
        for points in (50, 1):
            with monkeypatch.context() as patch:  # refused before any arm is fitted
                patch.setattr(classify, "_fit", None)
                assert run(*common, "--points", points, "--out-dir", out_dir) == 2
            assert "smallest test fold" in capsys.readouterr().err
            assert not out_dir.exists()
        assert run(*common, "--points", 30, "--out-dir", out_dir) == 0
        last = (out_dir / "mean_curve.csv").read_text().splitlines()[-1]
        assert last.startswith("1.0,")

    def test_empty_arm_in_a_fold_leaves_no_out_dir(self, tmp_path):
        # one treated row: the fold that tests it trains without a treated arm
        rng = np.random.default_rng(4)
        data = Dataset(
            [ColumnSpec("T", "binary", "treatment"), ColumnSpec("Y", "binary", "outcome"),
             ColumnSpec("A", "binary")],
            {"T": np.eye(1, 30, dtype=int)[0], "Y": rng.integers(0, 2, 30),
             "A": rng.integers(0, 2, 30)},
        )
        data.write_csv(tmp_path / "d.csv")
        write_schema(tmp_path / "schema.json", data)
        out_dir = tmp_path / "qq"
        with pytest.warns(DegenerateLabelsWarning):  # the folds that train on it
            assert run(
                "qini", "--data", tmp_path / "d.csv", "--treatment", "T", "--outcome", "Y",
                "--parents", "A", "--folds", 3, "--out-dir", out_dir,
            ) == 3
        assert not out_dir.exists()


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

    def test_directory_without_defaults_changes_nothing(self, workspace, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
        out = tmp_path / "parents.json"
        assert run(
            "discover", "--data", workspace / "train.csv",
            "--schema", workspace / "schema.json", "--target", "Y", "--out", out,
        ) == 0
        config = json.loads(out.read_text())["tool"]["config"]
        assert (config["alpha"], config["max_cond_size"], config["bins"]) == (0.01, 3, 3)

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

    @pytest.mark.parametrize("first", ["0", '"0"'], ids=["quote-free", "quoted"])
    def test_non_numeric_training_cell_exits_2(self, tmp_path, capsys, first):
        # a quoted cell sends the file down the cells pass
        (tmp_path / "d.csv").write_text(f"T,Y,V\n{first},1,0.5\n1,0,0.25\n1,1,abc\n0,0,1\n")
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
        err = capsys.readouterr().err
        says = f"{tmp_path / 'd.csv'}: column 'V', data row 3: 'abc' is not a number"
        assert err == f"error: {says}\n"
        assert not (tmp_path / "m.json").exists()

    def test_infinite_prediction_exits_2(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("row_id,p1,p0,effect,assign\n0,0.5,0.5,inf,1\n")
        truth = tmp_path / "t.csv"
        truth.write_text(
            "row,effect,response,potential_y0,potential_y1\n0,0.1,positive,0,1\n"
        )
        assert run("eval", "--predictions", preds, "--ground-truth", truth) == 2


def _truncated_model(tmp_path, workspace, model_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_bytes(model_path.read_bytes()[:11])
    return path, [
        "predict", "--model", path, "--data", workspace / "test.csv",
        "--schema", workspace / "schema.json", "--out", tmp_path / "preds.csv",
    ]


def _schema_with_bad_byte(tmp_path, workspace, model_path, monkeypatch):
    path = tmp_path / "schema.json"
    path.write_bytes(b'{"columns": ["\xff"]}')
    return path, [
        "discover", "--data", workspace / "train.csv", "--schema", path, "--target", "Y",
    ]


def _bif_with_bad_byte(tmp_path, workspace, model_path, monkeypatch):
    path = tmp_path / "tiny.bif"
    path.write_bytes(b"// \xff\n" + TINY_BIF.encode())
    return path, ["generate", "--bif", path, "--seed", 1, "--out", tmp_path / "g"]


def _csv_body_with_bad_byte(tmp_path, workspace, model_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"T,Y,A\n1,0,1\n0,1,\xff\n")
    write_tya_schema(tmp_path)
    return path, [
        "train", "--data", path, "--treatment", "T", "--outcome", "Y", "--parents", "A",
        "--out", tmp_path / "m.json",
    ]


def _defaults_with_bad_byte(tmp_path, workspace, model_path, monkeypatch):
    conf = tmp_path / "conf"
    conf.mkdir()
    path = conf / "defaults.json"
    path.write_bytes(b'{"generate": {"seed": "\xff"}}')
    monkeypatch.setenv("CAUSALUPLIFT_CONFIG_DIR", str(conf))
    return path, ["generate", "--seed", 1, "--out", tmp_path / "g"]


@pytest.mark.parametrize(
    "make, says",
    [
        (_truncated_model, "line 1 column 11"),
        (_schema_with_bad_byte, "can't decode byte 0xff"),
        (_bif_with_bad_byte, "can't decode byte 0xff"),
        (_csv_body_with_bad_byte, "can't decode byte 0xff"),
        (_defaults_with_bad_byte, "can't decode byte 0xff"),
    ],
    ids=["truncated-model", "schema", "bif", "csv-body", "defaults"],
)
def test_decode_error_names_the_file(
    workspace, model_path, tmp_path, capsys, monkeypatch, make, says
):
    path, argv = make(tmp_path, workspace, model_path, monkeypatch)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and says in err
    assert err.count("\n") == 1  # one line, no traceback
