"""The numpy kernels against scalar oracles written here as explicit loops.

The oracles share no code with the kernels: counts and positives are summed
as Python ints, the feature draw is re-derived from its definition, and
trees are walked one row at a time. Results must match exactly (integer
counts, identical trees).
"""

import numpy as np
import pytest

from causaluplift import _kernels as K

MASK32 = 0xFFFFFFFF


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def joint_counts_oracle(xc, yc, zf, nx, ny, nz):
    out = [[[0] * nz for _ in range(ny)] for _ in range(nx)]
    for x, y, z in zip(xc.tolist(), yc.tolist(), zf.tolist()):
        out[x][y][z] += 1
    return np.array(out, dtype=np.int64)


def xorshift(s):
    s = (s ^ (s << 13)) & MASK32
    s ^= s >> 17
    return (s ^ (s << 5)) & MASK32


def candidate_features(tree_seed, node, n_feats, mtry):
    """Partial Fisher-Yates draw of ``mtry`` features for one node."""
    s = (tree_seed + node * 2654435761) & MASK32 or 0x9E3779B9
    s = xorshift(xorshift(s))
    pool = list(range(n_feats))
    for j in range(mtry):
        s = xorshift(s)
        r = j + s % (n_feats - j)
        pool[j], pool[r] = pool[r], pool[j]
    return pool[:mtry]


def grow_tree_oracle(codes, labels, rows, mtry, n_bins, max_depth, min_leaf, tree_seed):
    """Depth-first histogram CART, one row and one candidate split at a time."""
    codes = codes.tolist()
    labels = labels.tolist()  # Python ints, so sums never wrap
    n_feats = len(codes[0])
    tree = [[-1, -1, -1, -1, 0, 0]]  # left, right, feature, bin, positives, rows
    stack = [(0, rows.tolist(), 0)]
    while stack:
        node, members, depth = stack.pop()
        m = len(members)
        pos_total = 0
        for r in members:
            pos_total += labels[r]
        tree[node][4:] = [pos_total, m]
        if pos_total in (0, m) or depth >= max_depth or m < 2 * min_leaf:
            continue

        best, best_feat, best_bin = -1.0, -1, -1
        for f in candidate_features(tree_seed, node, n_feats, mtry):
            cnt = [0] * n_bins
            pos = [0] * n_bins
            for r in members:
                cnt[codes[r][f]] += 1
                pos[codes[r][f]] += labels[r]
            acc_n = acc_p = 0
            for b in range(n_bins - 1):
                acc_n += cnt[b]
                acc_p += pos[b]
                if acc_n < min_leaf or m - acc_n < min_leaf:
                    continue
                lp, lq = float(acc_p), float(acc_n - acc_p)
                rp, rq = float(pos_total - acc_p), float(m - acc_n - pos_total + acc_p)
                score = (lp * lp + lq * lq) / acc_n + (rp * rp + rq * rq) / (m - acc_n)
                if score > best:
                    best, best_feat, best_bin = score, f, b
        pf, qf = float(pos_total), float(m - pos_total)
        if best_feat < 0 or best <= (pf * pf + qf * qf) / m:
            continue

        child = len(tree)
        tree[node][:4] = [child, child + 1, best_feat, best_bin]
        tree += [[-1, -1, -1, -1, 0, 0], [-1, -1, -1, -1, 0, 0]]
        stack.append((child + 1, [r for r in members if codes[r][best_feat] > best_bin], depth + 1))
        stack.append((child, [r for r in members if codes[r][best_feat] <= best_bin], depth + 1))
    return tuple(map(list, zip(*tree)))


def tree_leaves_oracle(codes, child_left, child_right, split_feat, split_bin):
    out = []
    for row in codes.tolist():
        node = 0
        while split_feat[node] >= 0:
            node = child_left[node] if row[split_feat[node]] <= split_bin[node] else child_right[node]
        out.append(int(node))
    return np.array(out, dtype=np.int64)


def assert_same_tree(got, want):
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def test_joint_counts_paths_agree(rng):
    for _ in range(10):
        n = int(rng.integers(1, 2000))
        nx, ny, nz = (int(v) for v in rng.integers(2, 5, 3))
        xc = rng.integers(0, nx, n)
        yc = rng.integers(0, ny, n)
        zf = rng.integers(0, nz, n)
        a = K.joint_counts(xc, yc, zf, nx, ny, nz)
        b = joint_counts_oracle(xc, yc, zf, nx, ny, nz)
        assert np.array_equal(a, b)
        assert a.sum() == n


def test_grow_tree_paths_agree(rng):
    for trial in range(8):
        n = int(rng.integers(50, 800))
        n_feats = int(rng.integers(2, 10))
        n_bins = int(rng.integers(2, 16))
        codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        rows = rng.integers(0, n, n).astype(np.int64)
        mtry = int(rng.integers(1, n_feats + 1))
        depth = int(rng.integers(1, 12))
        seed = int(rng.integers(1, 2**31))
        (a,) = K.grow_forest(codes, labels, [rows], [seed], mtry, n_bins, depth, 1)
        b = grow_tree_oracle(codes, labels, rows, mtry, n_bins, depth, 1, seed)
        assert_same_tree(a, b)


def test_grow_tree_counts_past_uint8():
    # uint8 labels, as the forest passes them: nodes holding more than 255
    # positive rows catch an accumulator that wraps at 256
    rng = np.random.default_rng(255)
    n, n_feats, n_bins = 1200, 5, 6
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.6).astype(np.uint8)
    rows = rng.integers(0, n, n).astype(np.int64)
    (a,) = K.grow_forest(codes, labels, [rows], [77], 2, n_bins, 6, 3)
    b = grow_tree_oracle(codes, labels, rows, 2, n_bins, 6, 3, 77)
    assert (np.asarray(b[4]) > 255).sum() >= 3
    assert_same_tree(a, b)


def test_grow_forest_trees_as_grown_alone():
    # one call grows trees of very different sizes: a pure bootstrap that
    # stops at the root, tiny ones, depth-limited and unlimited ones, with
    # min_leaf above 1
    rng = np.random.default_rng(600)
    n, n_feats, n_bins = 600, 7, 9
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.5).astype(np.uint8)
    negatives = np.flatnonzero(labels == 0)
    bootstraps = [
        rng.integers(0, n, n).astype(np.int64),
        negatives[:40],
        rng.integers(0, n, 3).astype(np.int64),
        rng.integers(0, n, 2 * n).astype(np.int64),
        np.arange(n, dtype=np.int64),
        rng.integers(0, n, 50).astype(np.int64),
    ]
    seeds = [int(s) for s in rng.integers(1, 2**32 - 1, len(bootstraps))]
    for max_depth, min_leaf in [(10**9, 1), (4, 1), (10**9, 5)]:
        trees = K.grow_forest(codes, labels, bootstraps, seeds, 3, n_bins, max_depth, min_leaf)
        assert len(trees) == len(bootstraps)
        for rows, seed, tree in zip(bootstraps, seeds, trees):
            want = grow_tree_oracle(codes, labels, rows, 3, n_bins, max_depth, min_leaf, seed)
            assert_same_tree(tree, want)
        assert trees[1][0].size == 1  # all negatives: a leaf at the root
        sizes = [t[0].size for t in trees]
        assert max(sizes) > 10 * min(sizes)


def test_grow_forest_past_round_budget(monkeypatch):
    # more trees than one round's row budget holds, so a round scores only
    # some of the numbered nodes; at this budget some right children are
    # left unscored and then buried under their left sibling's children.
    # uint8 labels with more than 255 positives per node; one-id draw blocks
    monkeypatch.setattr(K, "ROUND_ROWS", 600)
    monkeypatch.setattr(K, "DRAW_CELLS", 64)
    rng = np.random.default_rng(256)
    n, n_feats, n_bins = 500, 6, 5
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.7).astype(np.uint8)
    bootstraps = [rng.integers(0, n, n).astype(np.int64) for _ in range(9)]
    seeds = [int(s) for s in rng.integers(1, 2**32 - 1, 9)]
    trees = K.grow_forest(codes, labels, bootstraps, seeds, 2, n_bins, 7, 2)
    for rows, seed, tree in zip(bootstraps, seeds, trees):
        want = grow_tree_oracle(codes, labels, rows, 2, n_bins, 7, 2, seed)
        assert (np.asarray(want[4]) > 255).sum() >= 1
        assert_same_tree(tree, want)


def test_tree_leaves_paths_agree(rng):
    n, n_feats, n_bins = 500, 6, 8
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.4).astype(np.uint8)
    rows = np.arange(n, dtype=np.int64)
    (tree,) = K.grow_forest(codes, labels, [rows], [99], 3, n_bins, 8, 2)
    fresh = rng.integers(0, n_bins, size=(300, n_feats)).astype(np.uint8)
    a = K.tree_leaves(fresh, *tree[:4])
    b = tree_leaves_oracle(fresh, *tree[:4])
    assert np.array_equal(a, b)
    # every reached node is a leaf
    assert (tree[2][a] < 0).all()


def test_use_numba_is_false():
    assert K.USE_NUMBA is False
