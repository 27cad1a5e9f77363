"""Bagged CART forest with Gini splits on histogram-binned features.

Continuous features are quantized to at most 64 bins (63 quantile cuts)
before growing; categorical and binary inputs keep their exact codes, so
splits on them are exact. Candidate features per split follow the usual
mtry rule (default: square root of the feature count). Leaf probabilities
are Laplace-smoothed as (positives + 1) / (samples + 2) and averaged over
trees. Everything is deterministic given the seed: bootstraps come from a
seeded generator and per-node feature draws from a counter-based xorshift,
so repeated fits are byte-identical.

All trees grow in one call of ``_kernels.grow_forest``, one level at a
time: every node of a depth, across all trees, is scored with one array
operation per step. A node's feature draw depends only on its own tree's
seed and its path from the root, so every tree is the one it would be if
grown alone. A tree is the arrays ``TREE_KEYS``, in memory and on file:
``split_feat`` per node in level order (-1 for a leaf), ``split_bin`` per
split, ``leaf_pos`` and ``leaf_n`` per leaf. The k-th split's children are
nodes ``2k + 1`` and ``2k + 2``.
"""

import numpy as np

from ._kernels import first_of_runs, grow_forest, quantile_cuts, tree_leaves
from .logistic import merge_hyperparameters, single_class_model

MAX_BINS = 64

# A tree's arrays, in the order of its tuple and its model-file keys.
TREE_KEYS = ("split_feat", "split_bin", "leaf_pos", "leaf_n")

FOREST_DEFAULTS = {
    "n_trees": 100,
    "max_depth": None,
    "min_leaf": 1,
    "feature_subsample": None,  # None -> sqrt(n_features) per split
    "seed": None,  # required
}


def forest_hyperparameters(hyperparameters=None):
    """The forest defaults updated with ``hyperparameters``, every value checked."""
    hp = merge_hyperparameters(
        FOREST_DEFAULTS, hyperparameters, integers=("n_trees", "max_depth", "min_leaf", "seed")
    )
    if hp["seed"] is None:
        raise ValueError("forest classifier requires a seed")
    if hp["feature_subsample"] is not None and hp["feature_subsample"] > 1:
        raise ValueError("feature_subsample must be in (0, 1]")
    return hp


def _feature_cuts(column):
    """Cut points such that code(v) = #cuts < v (ties go to the lower bin):
    every distinct value but the last, or past ``MAX_BINS`` of them, the
    distinct ``1/MAX_BINS .. (MAX_BINS-1)/MAX_BINS`` quantiles. One sort
    gives both, the bits ``np.unique`` and ``np.quantile`` would give, save
    the sign of a zero quantile and a cut between neighbours further apart
    than the largest float, which ``np.quantile`` makes NaN or infinite (see
    ``_kernels.quantile_cuts``)."""
    ordered = np.sort(column)
    uniq = ordered[first_of_runs(ordered)]
    if uniq.size <= MAX_BINS:
        return uniq[:-1]
    return quantile_cuts(ordered, np.arange(1, MAX_BINS) / MAX_BINS)


def _encode(X, cuts):
    codes = np.empty(X.shape, dtype=np.uint8)
    for j, c in enumerate(cuts):
        codes[:, j] = np.searchsorted(c, X[:, j], side="left").astype(np.uint8)
    return codes


class ForestModel:
    def __init__(self, cuts, trees, params):
        self.cuts = cuts
        self.trees = trees
        self.params = params

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        codes = _encode(X, self.cuts)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            leaves = tree_leaves(codes, *tree[:2])
            total += (tree[2][leaves] + 1.0) / (tree[3][leaves] + 2.0)
        return total / len(self.trees)

    def to_dict(self):
        return {**self.head_dict(), "trees": list(self.tree_dicts())}

    def head_dict(self):
        """The model-file object's entries before its last, ``"trees"``."""
        return {
            "type": "forest",
            "params": {k: self.params[k] for k in FOREST_DEFAULTS},
            "cuts": [[float(v) for v in c] for c in self.cuts],
        }

    def tree_dicts(self):
        """Each tree's model-file object, made only as it is reached."""
        return ({key: column.tolist() for key, column in zip(TREE_KEYS, t)} for t in self.trees)

    def check(self, width):
        """Raise a ValueError unless the model has trees and reads ``width``
        features, each through at most ``MAX_BINS - 1`` finite, strictly
        increasing cuts."""
        if not self.trees:
            raise ValueError("forest has no trees")
        if len(self.cuts) != width:
            raise ValueError(f"forest has {len(self.cuts)} cut lists for {width} features")
        for j, c in enumerate(self.cuts):
            if not (
                c.ndim == 1
                and c.size < MAX_BINS
                and np.isfinite(c).all()
                and (c[1:] > c[:-1]).all()  # np.diff may overflow
            ):
                raise ValueError(
                    f"forest cut list {j} is not at most {MAX_BINS - 1} finite,"
                    " strictly increasing values"
                )

    @classmethod
    def from_dict(cls, payload):
        for key in ("cuts", "trees"):
            if not isinstance(payload[key], list):
                raise ValueError(f"forest {key} must be a list, got {type(payload[key]).__name__}")
        cuts = [np.asarray(c, dtype=np.float64) for c in payload["cuts"]]
        trees = [_checked_tree(i, t, len(cuts)) for i, t in enumerate(payload["trees"])]
        return cls(cuts, trees, dict(payload["params"]))


def _checked_tree(i, payload, n_feats):
    """Tree ``i``'s arrays from its model-file object, refused with a
    ValueError unless they form one tree with every index in range. The
    nodes form one tree when there are ``2 * splits + 1`` and each node
    ``j`` has at least ``j / 2`` splits before it, one of them its parent."""
    try:
        tree = tuple(np.asarray(payload[key], dtype=np.int64) for key in TREE_KEYS)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"forest tree {i}: {exc}") from None
    split_feat, split_bin, leaf_pos, leaf_n = tree
    split = split_feat != -1
    splits = int(split.sum())
    before = np.cumsum(split) - split
    if split_feat.shape != (2 * splits + 1,) or (np.arange(split_feat.size) > 2 * before).any():
        raise ValueError(f"forest tree {i}: its nodes are not one tree")
    for key, a, size in zip(TREE_KEYS[1:], tree[1:], (splits, splits + 1, splits + 1)):
        if a.shape != (size,):
            raise ValueError(f"forest tree {i}: {key} must be a list of length {size}")
    problems = {
        "a split feature is out of range": (split_feat < -1) | (split_feat >= n_feats),
        "a split bin is negative": split_bin < 0,
        "a split bin is past the last bin": split_bin >= MAX_BINS,
        "a leaf count is out of range": (leaf_pos < 0) | (leaf_pos > leaf_n),
    }
    for problem, bad in problems.items():
        if bad.any():
            raise ValueError(f"forest tree {i}: {problem}")
    return tuple(a.astype(np.int32) for a in tree[:2]) + tree[2:]


def fit_forest(X, y, hyperparameters=None):
    """Grow a seeded bagged forest; single-class labels give a constant model."""
    hp = forest_hyperparameters(hyperparameters)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, n_feats = X.shape
    if n < 1:
        raise ValueError("need at least one training row")
    constant = single_class_model(y)
    if constant is not None:
        return constant

    cuts = [_feature_cuts(X[:, j]) for j in range(n_feats)]
    n_bins = max(2, max(c.size for c in cuts) + 1)
    codes = _encode(X, cuts)
    labels = (y == 1).astype(np.uint8)

    if hp["feature_subsample"] is None:
        mtry = max(1, int(round(n_feats**0.5)))
    else:
        mtry = max(1, int(round(float(hp["feature_subsample"]) * n_feats)))
    mtry = min(mtry, n_feats)
    max_depth = hp["max_depth"]
    if max_depth is None:
        max_depth = 10**9
    min_leaf = int(hp["min_leaf"])

    rng = np.random.default_rng(int(hp["seed"]))
    bootstraps, tree_seeds = [], []
    for _ in range(int(hp["n_trees"])):
        bootstraps.append(rng.integers(0, n, size=n))
        tree_seeds.append(int(rng.integers(1, 2**32 - 1)))
    trees = grow_forest(
        codes, labels, bootstraps, tree_seeds, mtry, n_bins, max_depth, min_leaf
    )
    return ForestModel(cuts, trees, dict(hp))
