"""Bagged CART forest with Gini splits on histogram-binned features.

Continuous features are quantized to at most 64 quantile cuts before
growing; categorical and binary inputs keep their exact codes, so splits on
them are exact. Candidate features per split follow the usual mtry rule
(default: square root of the feature count). Leaf probabilities are
Laplace-smoothed as (positives + 1) / (samples + 2) and averaged over
trees. Everything is deterministic given the seed: bootstraps come from a
seeded generator and per-node feature draws from a counter-based xorshift,
so repeated fits are byte-identical.

All trees grow in one call of ``_kernels.grow_forest``: each round scores
the newly numbered nodes of every tree with one array operation per step,
then each tree moves on in depth-first order. Since a node's feature draw
depends only on its own tree's seed and node id, every tree is the one it
would be if grown alone.
"""

import numpy as np

from ._kernels import grow_forest, tree_leaves
from .logistic import merge_hyperparameters, single_class_model

MAX_BINS = 64

FOREST_DEFAULTS = {
    "n_trees": 100,
    "max_depth": None,
    "min_leaf": 1,
    "feature_subsample": None,  # None -> sqrt(n_features) per split
    "seed": None,  # required
}


def forest_hyperparameters(hyperparameters=None):
    """The forest defaults updated with ``hyperparameters``, every value checked."""
    hp = merge_hyperparameters(FOREST_DEFAULTS, hyperparameters)
    if hp["seed"] is None:
        raise ValueError("forest classifier requires a seed")
    if hp["feature_subsample"] is not None and hp["feature_subsample"] > 1:
        raise ValueError("feature_subsample must be in (0, 1]")
    for key in ("n_trees", "min_leaf"):
        if hp[key] < 1:
            raise ValueError(f"{key} must be >= 1")
    return hp


def _feature_cuts(column):
    """Cut points such that code(v) = #cuts < v (ties go to the lower bin)."""
    uniq = np.unique(column)
    if uniq.size <= 1:
        return np.empty(0, dtype=np.float64)
    if uniq.size <= MAX_BINS:
        return uniq[:-1].astype(np.float64)
    qs = np.arange(1, MAX_BINS) / MAX_BINS
    return np.unique(np.quantile(column, qs)).astype(np.float64)


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
            leaves = tree_leaves(codes, *tree[:4])
            total += (tree[4][leaves] + 1.0) / (tree[5][leaves] + 2.0)
        return total / len(self.trees)

    def to_dict(self):
        return {
            "type": "forest",
            "params": {k: self.params[k] for k in FOREST_DEFAULTS},
            "cuts": [[float(v) for v in c] for c in self.cuts],
            "trees": [
                {
                    "child_left": t[0].tolist(),
                    "child_right": t[1].tolist(),
                    "split_feat": t[2].tolist(),
                    "split_bin": t[3].tolist(),
                    "leaf_pos": t[4].tolist(),
                    "leaf_n": t[5].tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, payload):
        cuts = [np.asarray(c, dtype=np.float64) for c in payload["cuts"]]
        trees = [
            (
                np.asarray(t["child_left"], dtype=np.int32),
                np.asarray(t["child_right"], dtype=np.int32),
                np.asarray(t["split_feat"], dtype=np.int32),
                np.asarray(t["split_bin"], dtype=np.int32),
                np.asarray(t["leaf_pos"], dtype=np.int64),
                np.asarray(t["leaf_n"], dtype=np.int64),
            )
            for t in payload["trees"]
        ]
        return cls(cuts, trees, dict(payload["params"]))


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
