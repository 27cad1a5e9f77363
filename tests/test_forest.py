import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causaluplift import _kernels as K
from causaluplift.classify import ClassifierSpec, load_model, predict_cctm, save_model, train_cctm
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.errors import DegenerateLabelsWarning
from causaluplift.forest import MAX_BINS, TREE_KEYS, ForestModel, _feature_cuts, fit_forest
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

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="at least one training row"):
            fit_forest(np.zeros((0, 2)), np.zeros(0), {"seed": 1})

    def test_min_leaf_positive(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.array([0, 1] * 10)
        with pytest.raises(ValueError, match="min_leaf must be positive"):
            fit_forest(X, y, {"seed": 1, "min_leaf": 0})
        with pytest.raises(ValueError, match="n_trees must be positive"):
            fit_forest(X, y, {"seed": 1, "n_trees": 0})

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
            assert tree[3].min() >= 25

    def test_tree_arrays_own_exactly_their_nodes(self):
        rng = np.random.default_rng(68)
        X = rng.random((400, 5))
        y = (X[:, 0] + 0.3 * rng.random(400) > 0.6).astype(int)
        model = fit_forest(X, y, {"seed": 6, "n_trees": 8})
        for tree in model.trees:
            splits = int(np.count_nonzero(tree[0] >= 0))
            for array, size in zip(tree, (2 * splits + 1, splits, splits + 1, splits + 1)):
                assert array.flags.owndata
                assert array.shape == (size,)

    def test_constant_feature_has_no_cuts_and_never_splits(self):
        # every feature is tried at every split, so the forest is the one
        # grown on the informative column alone
        rng = np.random.default_rng(69)
        signal = rng.random(500)
        y = (signal + 0.3 * rng.random(500) > 0.6).astype(int)
        X = np.column_stack([np.full(500, 5.0), signal])
        hp = {"seed": 4, "n_trees": 6, "feature_subsample": 1.0}
        model = fit_forest(X, y, hp)
        alone = fit_forest(X[:, 1:], y, hp)
        assert model.cuts[0].size == 0
        for tree, want in zip(model.trees, alone.trees):
            assert np.array_equal(tree[0], np.where(want[0] >= 0, want[0] + 1, -1))
            for got, expected in zip(tree[1:], want[1:]):
                assert np.array_equal(got, expected)
        assert np.array_equal(model.predict_proba(X), alone.predict_proba(X[:, 1:]))

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

    def test_neighbours_past_the_largest_float_cut_between(self, tmp_path):
        # two clusters whose neighbours are further apart than the largest
        # float: np.quantile's inf * 0 made a NaN cut there, and the model
        # file that fit wrote was refused on load
        low = np.linspace(-1.7e308, -1.6e308, 64)
        high = np.linspace(1.6e308, 1.7e308, 63)
        x = np.tile(np.random.default_rng(68).permutation(np.concatenate([low, high])), 2)
        t = np.repeat([0, 1], x.size // 2)
        data = Dataset(
            [ColumnSpec("T", "binary"), ColumnSpec("Y", "binary"), ColumnSpec("X", "continuous")],
            {"T": t, "Y": (x > 0).astype(int), "X": x},
        )
        spec = ClassifierSpec("forest", {"seed": 3, "n_trees": 5})
        pair = train_cctm(data, "T", "Y", parents=["X"], spec=spec)
        path = tmp_path / "model.json"
        save_model(pair, path)
        again = load_model(path)
        for arm in (again.m0, again.m1):
            assert np.isfinite(arm.cuts[0]).all() and low[-1] in arm.cuts[0]
        pred = predict_cctm(again, data)
        assert (pred.p1[x < 0] < 0.5).all() and (pred.p1[x > 0] > 0.5).all()
        assert np.array_equal(pred.effect, predict_cctm(pair, data).effect)

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
    tree = {"split_feat": [0, -1, -1], "split_bin": [0], "leaf_pos": [1, 2], "leaf_n": [2, 3]}
    tree.update(changes)
    params = {"n_trees": 1, "max_depth": None, "min_leaf": 1, "feature_subsample": None, "seed": 1}
    return {"type": "forest", "params": params, "cuts": [[0.5]], "trees": [tree]}


# node 3 is a split no split leads to: 2 splits and 3 leaves, but not one tree
_ORPHANED = {
    "split_feat": [0, -1, -1, 0, -1],
    "split_bin": [0, 0],
    "leaf_pos": [1, 1, 1],
    "leaf_n": [2, 2, 2],
}


class TestLoadChecksTrees:
    def test_valid_stump(self):
        model = ForestModel.from_dict(_stump())
        assert np.allclose(model.predict_proba([[0.2], [0.9]]), [2 / 4, 3 / 5])

    @pytest.mark.parametrize(
        "changes, says",
        [
            ({key: [] for key in TREE_KEYS}, "not one tree"),
            ({"leaf_n": [2]}, "leaf_n must be a list of length 2"),
            ({"split_feat": [0, 0, -1]}, "not one tree"),
            (_ORPHANED, "not one tree"),
            ({"split_feat": [-1, -1, -1]}, "not one tree"),
            ({"split_feat": [1, -1, -1]}, "split feature is out of range"),
            ({"split_feat": [-2, -1, -1]}, "split feature is out of range"),
            ({"split_bin": [-1]}, "split bin is negative"),
            ({"leaf_pos": [3, 2]}, "leaf count is out of range"),
            ({"leaf_pos": [-1, 2]}, "leaf count is out of range"),
            ({"leaf_n": [2, [3]]}, "forest tree 0"),
            ({"split_feat": [[0, -1, -1]]}, "not one tree"),
            ({"split_bin": [0, 0]}, "split_bin must be a list of length 1"),
            ({"split_bin": 0}, "split_bin must be a list of length 1"),
            ({"leaf_pos": [1, 2, 0]}, "leaf_pos must be a list of length 2"),
            ({"split_bin": [64]}, "split bin is past the last bin"),
            ({"split_bin": [2**32]}, "split bin is past the last bin"),
        ],
    )
    def test_bad_tree_refused(self, changes, says):
        with pytest.raises(ValueError, match=says):
            ForestModel.from_dict(_stump(**changes))


def _flipped(tree, j):
    """``tree`` with node ``j`` turned from a leaf into a split on feature 0,
    or from a split into a leaf, its per-split and per-leaf arrays given one
    entry more or less at the node's place."""
    split_feat, split_bin, leaf_pos, leaf_n = (a.tolist() for a in tree)
    k = sum(f >= 0 for f in split_feat[:j])  # splits before node j
    if split_feat[j] >= 0:
        split_feat[j] = -1
        del split_bin[k]
        leaf_pos.insert(j - k, 0)
        leaf_n.insert(j - k, 1)
    else:
        split_feat[j] = 0
        split_bin.insert(k, 0)
        del leaf_pos[j - k]
        del leaf_n[j - k]
    return dict(zip(TREE_KEYS, (split_feat, split_bin, leaf_pos, leaf_n)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 120), depth=st.integers(0, 6))
def test_one_node_flip_refused(seed, rows, depth):
    # every tree grown passes; every tree one node away from it is refused
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(rows, 3)).astype(np.uint8)
    labels = (rng.random(rows) < 0.5).astype(np.uint8)
    bootstraps = [rng.integers(0, rows, rows) for _ in range(3)]
    trees = K.grow_forest(codes, labels, bootstraps, [seed + 1, seed + 2, seed + 3], 2, 4, depth, 1)
    payload = {"cuts": [[0.5, 1.5, 2.5]] * 3, "params": {}, "trees": []}
    for tree in trees:
        payload["trees"] = [dict(zip(TREE_KEYS, (a.tolist() for a in tree)))]
        ForestModel.from_dict(payload)
        for j in range(tree[0].size):
            payload["trees"] = [_flipped(tree, j)]
            with pytest.raises(ValueError, match="not one tree"):
                ForestModel.from_dict(payload)


def _unique_quantile_cuts(column):
    """The cuts as they were made before ``_feature_cuts`` sorted each
    column once: ``np.unique`` and ``np.quantile``."""
    uniq = np.unique(column)
    if uniq.size <= 1:
        return np.empty(0, dtype=np.float64)
    if uniq.size <= MAX_BINS:
        return uniq[:-1].astype(np.float64)
    qs = np.arange(1, MAX_BINS) / MAX_BINS
    return np.unique(np.quantile(column, qs)).astype(np.float64)


@st.composite
def cut_columns(draw):
    """A column of 1 to 150 distinct values, up to 300 rows, so some hold
    at most ``MAX_BINS`` distinct values and some more, with heavy ties,
    and zeros of both signs. Values stay within 1e300, so the distance
    between two, which a quantile interpolates, is finite."""
    finite = st.floats(-1e300, 1e300, allow_nan=False)
    values = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-3, 3).map(float), finite),
            min_size=1,
            max_size=150,
            unique_by=lambda v: v.hex(),
        )
    )
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=300))
    return np.array([values[i] for i in picks] + values)


@settings(max_examples=300, deadline=None)
@given(column=cut_columns())
@example(column=np.full(7, 2.5))  # constant
@example(column=np.repeat(np.arange(64.0), 40))  # MAX_BINS distinct, heavy ties
@example(column=np.repeat(np.arange(65.0), 40))  # one more
@example(column=np.concatenate([[-0.0, 0.0] * 50, np.arange(-40.0, 40.0)]))
def test_feature_cuts_are_the_unique_quantile_cuts(column):
    got, want = _feature_cuts(column), _unique_quantile_cuts(column)
    assert got.dtype == want.dtype == np.float64
    zeros = np.signbit(column[column == 0])
    if zeros.any() and not zeros.all() and np.unique(column).size > MAX_BINS:
        # np.quantile's partition leaves equal zeros in an order of its own,
        # so there a zero cut may take either sign; all else is bit for bit
        got, want = got + 0.0, want + 0.0
    assert got.tobytes() == want.tobytes()
