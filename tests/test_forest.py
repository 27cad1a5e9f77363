import numpy as np
import pytest

from causaluplift.errors import DegenerateLabelsWarning
from causaluplift.forest import ForestModel, fit_forest
from causaluplift.logistic import ConstantModel


class TestValidation:
    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            fit_forest(np.zeros((4, 1)), np.array([0, 1, 0, 1]))

    def test_feature_subsample_range(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.array([0, 1] * 10)
        with pytest.raises(ValueError):
            fit_forest(X, y, {"seed": 1, "feature_subsample": 1.5})

    def test_min_leaf_positive(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.array([0, 1] * 10)
        with pytest.raises(ValueError):
            fit_forest(X, y, {"seed": 1, "min_leaf": 0})

    def test_single_class_constant(self):
        with pytest.warns(DegenerateLabelsWarning):
            model = fit_forest(np.zeros((5, 2)), np.ones(5, dtype=int), {"seed": 3})
        assert isinstance(model, ConstantModel)
        assert model.p == pytest.approx(6 / 7)


class TestBehaviour:
    def test_pure_noise_near_majority(self):
        rng = np.random.default_rng(61)
        X = rng.random((2000, 4))
        y = (rng.random(2000) < 0.6).astype(int)
        model = fit_forest(
            X[:1000], y[:1000], {"seed": 5, "n_trees": 40, "max_depth": 6}
        )
        held_p = model.predict_proba(X[1000:])
        acc = ((held_p > 0.5).astype(int) == y[1000:]).mean()
        majority = max(y[1000:].mean(), 1 - y[1000:].mean())
        assert abs(acc - majority) <= 0.05

    def test_xor_learned(self):
        rng = np.random.default_rng(62)
        X = rng.integers(0, 2, size=(2000, 2)).astype(float)
        y = (X[:, 0].astype(int) ^ X[:, 1].astype(int)).astype(int)
        model = fit_forest(
            X[:1500], y[:1500], {"seed": 7, "n_trees": 30}
        )
        acc = ((model.predict_proba(X[1500:]) > 0.5).astype(int) == y[1500:]).mean()
        assert acc >= 0.95

    def test_seed_determinism(self):
        rng = np.random.default_rng(63)
        X = rng.random((500, 5))
        y = (X[:, 0] + X[:, 1] > 1).astype(int)
        probe = rng.random((100, 5))
        a = fit_forest(X, y, {"seed": 11, "n_trees": 20}).predict_proba(probe)
        b = fit_forest(X, y, {"seed": 11, "n_trees": 20}).predict_proba(probe)
        c = fit_forest(X, y, {"seed": 12, "n_trees": 20}).predict_proba(probe)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_probabilities_smoothed_into_open_interval(self):
        rng = np.random.default_rng(64)
        X = rng.random((200, 2))
        y = (X[:, 0] > 0.5).astype(int)
        model = fit_forest(X, y, {"seed": 2, "n_trees": 15})
        p = model.predict_proba(X)
        assert np.all(p > 0) and np.all(p < 1)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(65)
        X = rng.random((300, 3))
        y = (rng.random(300) < 0.5).astype(int)
        model = fit_forest(X, y, {"seed": 4, "n_trees": 10, "min_leaf": 25})
        for tree in model.trees:
            leaf_sizes = tree[4][tree[1] < 0]
            assert leaf_sizes.min() >= 25

    def test_tree_arrays_own_exactly_their_nodes(self):
        rng = np.random.default_rng(68)
        X = rng.random((400, 5))
        y = (X[:, 0] + 0.3 * rng.random(400) > 0.6).astype(int)
        model = fit_forest(X, y, {"seed": 6, "n_trees": 8})
        for tree in model.trees:
            n_nodes = 1 + 2 * int(np.count_nonzero(tree[1] >= 0))
            for array in tree:
                assert array.flags.owndata
                assert array.shape == (n_nodes,)

    def test_continuous_split_quantization(self):
        # >64 distinct values collapse to quantile cuts; monotone signal
        # must still be learnable
        rng = np.random.default_rng(66)
        X = rng.standard_normal((3000, 1))
        y = (X[:, 0] > 0.3).astype(int)
        model = fit_forest(X[:2000], y[:2000], {"seed": 9, "n_trees": 20})
        acc = ((model.predict_proba(X[2000:]) > 0.5).astype(int) == y[2000:]).mean()
        assert acc >= 0.97
        assert all(len(c) <= 63 for c in model.cuts)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(67)
        X = rng.random((400, 4))
        y = (X[:, 2] > 0.4).astype(int)
        model = fit_forest(X, y, {"seed": 13, "n_trees": 12, "max_depth": 6})
        again = ForestModel.from_dict(model.to_dict())
        probe = rng.random((150, 4))
        assert np.array_equal(model.predict_proba(probe), again.predict_proba(probe))


def _stump(**changes):
    """A one-split forest over one feature, as its model file holds it."""
    tree = {
        "child_left": [1, -1, -1],
        "split_feat": [0, -1, -1],
        "split_bin": [0, -1, -1],
        "leaf_pos": [3, 1, 2],
        "leaf_n": [5, 2, 3],
    }
    tree.update(changes)
    params = {"n_trees": 1, "max_depth": None, "min_leaf": 1, "feature_subsample": None, "seed": 1}
    return {"type": "forest", "params": params, "cuts": [[0.5]], "trees": [tree]}


class TestLoadChecksTrees:
    def test_valid_stump(self):
        model = ForestModel.from_dict(_stump())
        assert np.allclose(model.predict_proba([[0.2], [0.9]]), [2 / 4, 3 / 5])

    @pytest.mark.parametrize(
        "changes, says",
        [
            ({"leaf_n": [5, 2]}, "equal length"),
            ({key: [] for key in ("child_left", "split_feat", "split_bin", "leaf_pos", "leaf_n")},
             "non-empty"),
            ({"child_left": [1, 2, -1]}, "leaf has a child"),
            ({"child_left": [0, -1, -1]}, "child is out of range"),
            ({"child_left": [2, -1, -1]}, "child is out of range"),
            ({"split_feat": [1, -1, -1]}, "split feature is out of range"),
            ({"split_feat": [-2, -1, -1]}, "split feature is out of range"),
            ({"split_bin": [-1, -1, -1]}, "split bin is negative"),
            ({"leaf_pos": [3, 3, 2]}, "leaf count is out of range"),
            ({"leaf_pos": [3, -1, 2]}, "leaf count is out of range"),
            ({"leaf_n": [5, 2, [3]]}, "forest tree 0"),
        ],
    )
    def test_bad_tree_refused(self, changes, says):
        with pytest.raises(ValueError, match=says):
            ForestModel.from_dict(_stump(**changes))
