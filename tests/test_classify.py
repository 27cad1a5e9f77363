import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift.classify import (
    ClassifierSpec,
    FeatureEncoder,
    TwoModelPair,
    UpliftPrediction,
    load_model,
    model_payload,
    predict_cctm,
    rank_by_effect,
    save_model,
    train_cctm,
)
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.datagen import SynthConfig, generate_group
from causaluplift.errors import (
    DataError,
    DegenerateLabelsWarning,
    EmptyArm,
    EmptyParentSetWarning,
    MissingColumn,
    NonBinary,
    SchemaError,
    UnknownColumn,
    UnseenCategoryWarning,
)
from causaluplift.forest import fit_forest
from causaluplift.logistic import ConstantModel, fit_logistic


def binary_dataset(**cols):
    specs = []
    for name in cols:
        role = "treatment" if name == "T" else "outcome" if name == "Y" else "covariate"
        specs.append(ColumnSpec(name, "binary", role))
    return Dataset(specs, {k: np.asarray(v) for k, v in cols.items()})


def uplift_data(seed, n=4000):
    """T randomized; Y depends on (T, A, B) with heterogeneous effects."""
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    b = rng.integers(0, 2, n)
    p = 0.2 + 0.3 * a + 0.15 * b + t * (0.35 - 0.25 * a)
    y = (rng.random(n) < p).astype(int)
    noise = rng.integers(0, 2, n)
    return binary_dataset(T=t, Y=y, A=a, B=b, R=noise)


BAD_HYPERPARAMETERS = [
    ("logistic", {"l2_penalty": -1.0}),
    ("logistic", {"l2_penalty": float("nan")}),
    ("logistic", {"l2_penalty": float("inf")}),
    ("logistic", {"max_iterations": float("inf")}),
    ("logistic", {"max_iterations": 0}),
    ("logistic", {"seed": 1}),
    ("logistic", {"n_trees": 5}),
    ("forest", {}),
    ("forest", {"seed": None}),
    ("forest", {"seed": 1, "n_trees": 0}),
    ("forest", {"seed": 1, "n_trees": 0.5}),
    ("forest", {"seed": 1, "min_leaf": 0}),
    ("forest", {"seed": 1, "min_leaf": 0.5}),
    ("forest", {"seed": 1, "feature_subsample": 0.0}),
    ("forest", {"seed": 1, "feature_subsample": 1.5}),
    ("forest", {"seed": 1, "max_depth": -2}),
    ("forest", {"seed": 1, "l2_penalty": 1.0}),
    # integer hyperparameters refuse floats and bools
    ("logistic", {"max_iterations": 0.5}),
    ("logistic", {"max_iterations": 5.0}),
    ("logistic", {"max_iterations": True}),
    ("forest", {"seed": 1, "n_trees": 2.5}),
    ("forest", {"seed": 1, "n_trees": True}),
    ("forest", {"seed": 1, "max_depth": 3.5}),
    ("forest", {"seed": 1, "min_leaf": 2.0}),
    ("forest", {"seed": 1.5}),
    ("forest", {"seed": True}),
    # None only where the default is None
    ("logistic", {"l2_penalty": None}),
    ("logistic", {"max_iterations": None}),
    ("logistic", {"convergence_tol": None}),
    ("forest", {"seed": 0, "n_trees": None}),
    ("forest", {"seed": 0, "min_leaf": None}),
]


class TestSpec:
    @pytest.mark.parametrize(
        "kind, hp",
        BAD_HYPERPARAMETERS,
        ids=[
            "-".join([kind] + [f"{k}={v}" for k, v in hp.items()])
            for kind, hp in BAD_HYPERPARAMETERS
        ],
    )
    def test_spec_and_fit_refuse_alike(self, kind, hp):
        rng = np.random.default_rng(0)
        X, y = rng.random((20, 2)), np.array([0, 1] * 10)
        fit = fit_logistic if kind == "logistic" else fit_forest
        with pytest.raises(ValueError) as from_spec:
            ClassifierSpec(kind, hp)
        with pytest.raises(ValueError) as from_fit:
            fit(X, y, hp)
        assert str(from_fit.value) == str(from_spec.value)

    def test_forest_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ClassifierSpec("forest")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ClassifierSpec("svm")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError):
            ClassifierSpec("logistic", {"n_trees": 5})

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("logistic", "max_iterations", 0.5),
            ("forest", "n_trees", 2.5),
            ("forest", "max_depth", 4.0),
            ("forest", "min_leaf", False),
            ("forest", "seed", 1.0),
        ],
    )
    def test_integer_hyperparameters_refuse_non_integers(self, kind, key, value):
        hp = {"seed": 1, key: value} if kind == "forest" else {key: value}
        with pytest.raises(ValueError, match=f"^hyperparameter {key} must be an integer$"):
            ClassifierSpec(kind, hp)
        ok = {**hp, key: np.int64(2)}  # any integer type is an integer
        assert ClassifierSpec(kind, ok).resolved()[key] == 2

    def test_positivity(self):
        with pytest.raises(ValueError):
            ClassifierSpec("logistic", {"l2_penalty": -1.0})

    def test_none_only_where_the_default_is_none(self):
        rng = np.random.default_rng(0)
        X, y = rng.random((20, 2)), np.array([0, 1] * 10)
        hp = {"n_trees": None, "seed": 0}
        for refuse in (lambda: ClassifierSpec("forest", hp), lambda: fit_forest(X, y, hp)):
            with pytest.raises(ValueError, match="^hyperparameter n_trees must not be None$"):
                refuse()
        kept = {"n_trees": 2, "max_depth": None, "feature_subsample": None, "seed": 0}
        assert ClassifierSpec("forest", kept).resolved() == {**kept, "min_leaf": 1}
        assert fit_forest(X, y, kept).predict_proba(X).shape == (20,)


class TestTrain:
    def test_outcome_equals_treatment(self):
        t = np.array([0, 1] * 50)
        data = binary_dataset(T=t, Y=t.copy(), A=np.zeros(100, dtype=int))
        with pytest.warns(DegenerateLabelsWarning):
            pair = train_cctm(data, "T", "Y", parents=["A"])
        preds = predict_cctm(pair, data)
        effects = preds.effect
        assert np.all(effects > 0.9)
        assert np.all(preds.assign == 1)

    def test_empty_parent_set_constant_models(self):
        rng = np.random.default_rng(71)
        t = rng.integers(0, 2, 400)
        y = (rng.random(400) < 0.3 + 0.4 * t).astype(int)
        data = binary_dataset(T=t, Y=y)
        with pytest.warns(EmptyParentSetWarning):
            pair = train_cctm(data, "T", "Y", parents=[])
        assert isinstance(pair.m1, ConstantModel)
        preds = predict_cctm(pair, data)
        effects = preds.effect
        assert np.ptp(effects) == 0.0
        p1_hat = (y[t == 1].sum() + 1) / ((t == 1).sum() + 2)
        p0_hat = (y[t == 0].sum() + 1) / ((t == 0).sum() + 2)
        assert effects[0] == pytest.approx(p1_hat - p0_hat, abs=1e-12)

    def test_internal_discovery_removes_treatment(self):
        data = uplift_data(seed=72)
        pair = train_cctm(data, "T", "Y")
        assert set(pair.parents_excl_t) == {"A", "B"}
        assert pair.metadata["discovery"]["members"]

    def test_explicit_parents_drop_treatment(self):
        data = uplift_data(seed=73, n=800)
        pair = train_cctm(data, "T", "Y", parents=["T", "A", "B"])
        assert pair.parents_excl_t == ["A", "B"]

    def test_empty_arm(self):
        data = binary_dataset(
            T=np.zeros(50, dtype=int), Y=np.zeros(50, dtype=int), A=np.zeros(50, dtype=int)
        )
        with pytest.raises(EmptyArm):
            train_cctm(data, "T", "Y", parents=["A"])

    def test_non_binary_treatment(self):
        data = Dataset(
            [
                ColumnSpec("T", "categorical", "treatment", ("a", "b", "c")),
                ColumnSpec("Y", "binary", "outcome"),
            ],
            {"T": np.array([0, 1, 2, 0]), "Y": np.array([0, 1, 0, 1])},
        )
        with pytest.raises(NonBinary):
            train_cctm(data, "T", "Y", parents=[])

    @pytest.mark.parametrize(
        "t, y, parents, says",
        [
            ("T", "Y", ["A", "Y"], "the parents list the outcome 'Y'"),
            ("T", "T", ["A"], "the treatment 'T' is also the outcome"),
            ("T", "Y", ["A", "B", "A"], "the parents list 'A' twice"),
        ],
    )
    def test_invalid_parent_set_refused(self, t, y, parents, says):
        data = uplift_data(seed=75, n=200)
        with pytest.raises(ValueError, match=f"^{says}$"):
            train_cctm(data, t, y, parents=parents)

    @pytest.mark.parametrize(
        "spec, parents",
        [
            (ClassifierSpec("logistic"), None),
            (ClassifierSpec("forest", {"seed": 4, "n_trees": 5}), None),
            (ClassifierSpec("forest", {"seed": 4, "n_trees": 5}), ["X9", "N1", "N2", "N4"]),
        ],
        ids=["logistic-discovered", "forest-discovered", "forest-continuous-parents"],
    )
    def test_rows_fit_as_take(self, spec, parents):
        """The fold path (rows given) discretizes and encodes the rows
        straight from the dataset, and fits the pair ``take`` would."""
        config = SynthConfig(group="group2", seed=3, n_samples=1200, n_noise_vars=6)
        data, _, _ = generate_group(config)
        rows = np.random.default_rng(0).permutation(data.n_rows)[:900]
        got = train_cctm(data, "T", "Y", parents=parents, spec=spec, rows=rows)
        want = train_cctm(data.take(rows), "T", "Y", parents=parents, spec=spec)
        assert json.dumps(model_payload(got)) == json.dumps(model_payload(want))
        assert got.metadata["n_treated"] + got.metadata["n_control"] == 900

    def test_unknown_columns(self):
        data = uplift_data(seed=74, n=200)
        with pytest.raises(UnknownColumn):
            train_cctm(data, "nope", "Y", parents=[])
        with pytest.raises(UnknownColumn):
            train_cctm(data, "T", "Y", parents=["ghost"])


class TestPredict:
    def constant_pair(self, p1, p0):
        return TwoModelPair(
            m1=ConstantModel(p1),
            m0=ConstantModel(p0),
            parents_excl_t=[],
            encoder=FeatureEncoder([]),
            treatment="T",
            outcome="Y",
        )

    def probe(self, n=5):
        return binary_dataset(T=np.zeros(n, dtype=int), Y=np.zeros(n, dtype=int))

    def test_identical_models_strict_threshold(self):
        pair = self.constant_pair(0.4, 0.4)
        preds = predict_cctm(pair, self.probe(), theta=0.0)
        assert np.all(preds.effect == 0.0) and np.all(preds.assign == 0)

    def test_known_probability_gap(self):
        pair = self.constant_pair(0.9, 0.2)
        preds = predict_cctm(pair, self.probe(), theta=0.5)
        assert all(e == pytest.approx(0.7, abs=1e-12) for e in preds.effect)
        assert np.all(preds.assign == 1)
        at_boundary = predict_cctm(pair, self.probe(), theta=0.7)
        assert np.all(at_boundary.assign == 0)  # strict inequality

    def test_theta_above_max_effect(self):
        data = uplift_data(seed=75, n=1000)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"])
        preds = predict_cctm(pair, data, theta=0.99)
        assert np.all(preds.assign == 0)

    def test_theta_monotonicity(self):
        data = uplift_data(seed=76, n=1500)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"])
        counts = [
            int(predict_cctm(pair, data, theta=th).assign.sum())
            for th in (0.0, 0.1, 0.25, 0.5, 1.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_prediction_is_one_record_of_arrays(self):
        data = uplift_data(seed=84, n=300)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"])
        preds = predict_cctm(pair, data, theta=0.1)
        assert isinstance(preds, UpliftPrediction)
        for column in (preds.p1, preds.p0, preds.effect, preds.assign):
            assert column.shape == (300,)
        assert preds.assign.dtype == np.uint8
        assert np.array_equal(preds.effect, preds.p1 - preds.p0)
        assert np.array_equal(preds.assign, (preds.effect > 0.1).astype(np.uint8))

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            predict_cctm(self.constant_pair(0.5, 0.5), self.probe(), theta=-0.1)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            predict_cctm(self.constant_pair(0.5, 0.5), self.probe(), theta=theta)

    def test_missing_column(self):
        data = uplift_data(seed=77, n=500)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"])
        missing = data.select(["T", "Y", "A"])
        with pytest.raises(MissingColumn):
            predict_cctm(pair, missing)

    def test_projection_invariance(self):
        data = uplift_data(seed=78, n=1500)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"])
        full = predict_cctm(pair, data).effect
        trimmed = predict_cctm(pair, data.select(["A", "B"])).effect
        assert np.array_equal(full, trimmed)

    def test_effect_bounds(self):
        data = uplift_data(seed=79, n=1500)
        for spec in (
            ClassifierSpec("logistic"),
            ClassifierSpec("forest", {"seed": 3, "n_trees": 15}),
        ):
            pair = train_cctm(data, "T", "Y", parents=["A", "B"], spec=spec)
            preds = predict_cctm(pair, data)
            for p1, p0, effect in zip(preds.p1, preds.p0, preds.effect):
                assert 0.0 <= p1 <= 1.0 and 0.0 <= p0 <= 1.0
                assert -1.0 <= effect <= 1.0


class TestArmSymmetry:
    def swap(self, data):
        arrays = {c: data.values(c).copy() for c in data.columns}
        arrays["T"] = 1 - arrays["T"]
        return Dataset([data.spec(c) for c in data.columns], arrays)

    @pytest.mark.parametrize(
        "spec",
        [
            ClassifierSpec("logistic"),
            ClassifierSpec("forest", {"seed": 21, "n_trees": 25}),
        ],
        ids=["logistic", "forest"],
    )
    def test_swapping_arms_negates_effects(self, spec):
        data = uplift_data(seed=80, n=2000)
        pair = train_cctm(data, "T", "Y", parents=["A", "B"], spec=spec)
        flipped = train_cctm(self.swap(data), "T", "Y", parents=["A", "B"], spec=spec)
        e = predict_cctm(pair, data).effect
        e_flip = predict_cctm(flipped, data).effect
        assert np.max(np.abs(e + e_flip)) <= 1e-12


class TestRanking:
    def test_distinct(self):
        order = rank_by_effect(np.array([0.1, 0.9, 0.5]))
        assert order.tolist() == [1, 2, 0]

    def test_ties_keep_input_order(self):
        order = rank_by_effect(np.array([0.3, 0.9, 0.3]))
        assert order.tolist() == [1, 0, 2]

    def test_all_equal_is_identity(self):
        order = rank_by_effect(np.array([0.2, 0.2, 0.2]))
        assert order.tolist() == [0, 1, 2]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rank_by_effect(np.array([0.1, np.nan]))


class TestEncoderAndPersistence:
    def categorical_data(self, labels, n=300, seed=81):
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 2, n)
        c = rng.integers(0, len(labels), n)
        y = (rng.random(n) < 0.2 + 0.2 * t + 0.1 * c).astype(int)
        specs = [
            ColumnSpec("T", "binary", "treatment"),
            ColumnSpec("Y", "binary", "outcome"),
            ColumnSpec("c", "categorical", "covariate", tuple(labels)),
        ]
        return Dataset(specs, {"T": t, "Y": y, "c": c})

    def test_one_hot_width(self):
        data = self.categorical_data(["a", "b", "c"])
        enc = FeatureEncoder.build(data, ["c"])
        assert enc.width == 3
        X = enc.encode(data)
        assert X.shape == (300, 3)
        assert np.array_equal(X.sum(axis=1), np.ones(300))

    def test_unseen_category_warns_and_zero_encodes(self):
        train = self.categorical_data(["a", "b"])
        enc = FeatureEncoder.build(train, ["c"])
        probe = Dataset(
            [ColumnSpec("c", "categorical", "covariate", ("a", "b", "zz"))],
            {"c": np.array([0, 2])},
        )
        with pytest.warns(UnseenCategoryWarning):
            X = enc.encode(probe)
        assert X[0].tolist() == [1.0, 0.0]
        assert X[1].tolist() == [0.0, 0.0]

    def test_column_kind_must_match_entry(self):
        codes = np.arange(6) % 2
        columns = {
            "binary": Dataset([ColumnSpec("c", "binary")], {"c": codes}),
            "categorical": Dataset([ColumnSpec("c", "categorical", categories="01")], {"c": codes}),
            "continuous": Dataset([ColumnSpec("c", "continuous")], {"c": codes / 2}),
        }
        # a categorical entry reads a binary column's codes as its labels
        enc = FeatureEncoder.build(columns["categorical"], ["c"])
        assert np.array_equal(enc.encode(columns["binary"]), enc.encode(columns["categorical"]))
        for trained, kind in [
            ("categorical", "continuous"), ("binary", "categorical"), ("continuous", "binary")
        ]:
            enc = FeatureEncoder.build(columns[trained], ["c"])
            with pytest.raises(DataError, match=f"is {kind}, but .* trained on it as {trained}$"):
                enc.encode(columns[kind])

    def test_encoder_holds_the_specs_its_file_reads_back(self):
        data = self.categorical_data(["a", "b", "c"])
        enc = FeatureEncoder.build(data, ["c", "T"])
        assert enc.specs == [
            ColumnSpec("c", "categorical", categories=("a", "b", "c")), ColumnSpec("T", "binary")
        ]
        assert enc.to_dict() == {"entries": [
            {"name": "c", "kind": "categorical", "categories": ["a", "b", "c"]},
            {"name": "T", "kind": "binary"},
        ]}
        assert FeatureEncoder.from_dict(json.loads(json.dumps(enc.to_dict()))).specs == enc.specs

    @pytest.mark.parametrize(
        "entries, says",
        [
            (["a"], "[0] is not an object"),
            ([{"name": 3, "kind": "binary"}], "[0]: 'name' must be a string"),
            ([{"name": "a", "kind": "ordinal"}], "column 'a': bad column kind 'ordinal'"),
            (
                [{"name": "a", "kind": "categorical", "categories": [0, 1]}],
                "column 'a': 'categories' must be a list of strings",
            ),
            (
                [{"name": "a", "kind": "categorical", "categories": ["1", "1"]}],
                "column 'a': category '1' is repeated",
            ),
            (
                [{"name": "a", "kind": "binary"}, {"name": "a", "kind": "binary"}],
                "column 'a': the column is listed twice",
            ),
            (
                [{"name": "a", "kind": "binary", "categories": ["no", "yes"]}],
                "column 'a': a binary column's categories are '0', '1', not ['no', 'yes']",
            ),
            (
                [{"name": "a", "kind": "binary", "categories": ["1", "0"]}],
                "column 'a': a binary column's categories are '0', '1', not ['1', '0']",
            ),
            (
                [{"name": "a", "kind": "continuous", "categories": ["a"]}],
                "column 'a': a continuous column has no categories",
            ),
        ],
        ids=[
            "not-an-object", "name-not-a-string", "unknown-kind", "categories-not-strings",
            "repeated-category", "repeated-name", "binary-other-labels", "binary-reordered",
            "continuous-with-categories",
        ],
    )
    def test_schema_and_encoder_refuse_an_entry_alike(self, tmp_path, entries, says):
        (tmp_path / "d.csv").write_text("a\n1\n")
        with pytest.raises(SchemaError) as schema_refused:
            Dataset.read_csv(tmp_path / "d.csv", {"columns": entries})
        assert str(schema_refused.value).startswith("schema: column")
        assert says in str(schema_refused.value)
        payload = model_payload(train_cctm(uplift_data(seed=83, n=300), "T", "Y", parents=["A"]))
        payload["encoder"]["entries"] = entries
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as model_refused:
            load_model(path)
        assert str(model_refused.value).startswith(f"{path}: encoder: ")
        assert says in str(model_refused.value)

    def test_binary_entry_may_list_its_bits(self, tmp_path):
        entries = [{"name": "A", "kind": "binary", "categories": ["0", "1"]}]
        (tmp_path / "d.csv").write_text("A\n1\n0\n")
        data = Dataset.read_csv(tmp_path / "d.csv", {"columns": entries})
        assert data.spec("A") == ColumnSpec("A", "binary", categories=("0", "1"))
        assert data.values("A").tolist() == [1, 0]
        pair = train_cctm(uplift_data(seed=83, n=300), "T", "Y", parents=["A"])
        payload = model_payload(pair)
        payload["encoder"]["entries"] = entries
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert load_model(path).encoder.specs == pair.encoder.specs

    def test_save_load_round_trip(self, tmp_path):
        for spec in (
            ClassifierSpec("logistic"),
            ClassifierSpec("forest", {"seed": 5, "n_trees": 10}),
        ):
            data = uplift_data(seed=82, n=800)
            pair = train_cctm(data, "T", "Y", parents=["A", "B"], spec=spec)
            path = tmp_path / f"{spec.kind}.json"
            save_model(pair, path)
            again = load_model(path)
            e0 = predict_cctm(pair, data).effect
            e1 = predict_cctm(again, data).effect
            assert np.max(np.abs(e0 - e1)) <= 1e-12
            assert again.parents_excl_t == pair.parents_excl_t

    def test_payload_versioned(self):
        data = uplift_data(seed=83, n=300)
        pair = train_cctm(data, "T", "Y", parents=["A"])
        payload = model_payload(pair)
        assert payload["format"] == "causaluplift-model"
        assert payload["version"] == 3

    @pytest.mark.parametrize("version", [99, 0, None, 1, 2, 3.0, True, "3"])
    def test_other_version_refused(self, tmp_path, version):
        pair = train_cctm(uplift_data(seed=83, n=300), "T", "Y", parents=["A"])
        payload = model_payload(pair)
        if version is None:
            del payload["version"]
        else:
            payload["version"] = version
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load_model(path)
        message = str(info.value)
        assert str(path) in message
        assert f"version {version!r}" in message and "reads version 3" in message


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(40, 200),
    forest=st.booleans(),
    parents=st.sampled_from([["A"], ["A", "B"], ["A", "B", "R"]]),
)
def test_save_load_round_trip_property(tmp_path_factory, seed, n, forest, parents):
    data = uplift_data(seed=seed, n=n)
    spec = (
        ClassifierSpec("forest", {"seed": seed, "n_trees": 3, "max_depth": 4})
        if forest
        else ClassifierSpec("logistic")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class arms and slow convergence
        pair = train_cctm(data, "T", "Y", parents=parents, spec=spec)
    path = tmp_path_factory.mktemp("prop") / "model.json"
    save_model(pair, path, extra={"tool": {"seed": seed}})
    # written an entry at a time, as one compact json.dumps of the payload
    text = json.dumps(model_payload(pair, {"tool": {"seed": seed}}), separators=(",", ":"))
    assert path.read_text() == text + "\n"
    json.loads(path.read_text(), parse_constant=_refuse_constant)  # strict JSON
    again = load_model(path)
    want, got = predict_cctm(pair, data), predict_cctm(again, data)
    for name in ("p1", "p0", "effect", "assign"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert again.parents_excl_t == pair.parents_excl_t
