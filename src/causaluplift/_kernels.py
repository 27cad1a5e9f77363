"""Hot numeric kernels in numpy: contingency counting, histogram-CART tree
growth and tree traversal.

Counting returns exact int64 counts. Tree growth scores splits from integer
(count, positives) histograms and draws each node's candidate features from
a 32-bit xorshift stream, so a tree depends only on its inputs and seed.
"""

import numpy as np

# Always False: the package has one numpy kernel path. Kept because the
# benchmark's machine probe reports it.
USE_NUMBA = False

_MASK32 = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# contingency counting (the inner loop of every G^2 test)
# ---------------------------------------------------------------------------


def joint_counts(xc, yc, zf, nx, ny, nz):
    """Count of each (x, y, z) code triple, as an (nx, ny, nz) int64 array."""
    flat = (xc.astype(np.int64) * ny + yc) * nz + zf
    return np.bincount(flat, minlength=nx * ny * nz).reshape(nx, ny, nz)


# ---------------------------------------------------------------------------
# histogram-CART tree growth
# ---------------------------------------------------------------------------
#
# Features are pre-binned to small integer codes (quantile cuts for
# continuous columns, category codes otherwise); a split sends "code <= b"
# left. Split scores come from integer (count, positives) histograms, so
# the only floats are the per-split Gini terms. Candidate features at each
# node are a partial Fisher-Yates draw from a 32-bit xorshift stream seeded
# by (tree_seed, node id); every shift is masked to 32 bits, since Python
# integers do not wrap.


def _node_rng_seed(tree_seed, node):
    s = (tree_seed + node * 2654435761) & _MASK32
    if s == 0:
        s = 0x9E3779B9
    for _ in range(2):
        s ^= (s << 13) & _MASK32
        s ^= s >> 17
        s ^= (s << 5) & _MASK32
    return s


def grow_tree(codes, labels, rows, mtry, n_bins, max_depth, min_leaf, tree_seed):
    """Grow one tree depth-first on ``rows`` (indices into ``codes``).

    Returns per-node arrays ``(child_left, child_right, split_feat,
    split_bin, leaf_pos, leaf_n)``; a leaf has ``split_feat == -1``.
    """
    n_rows = rows.shape[0]
    n_feats = codes.shape[1]
    cap = 2 * n_rows + 3
    child_left = np.full(cap, -1, dtype=np.int32)
    child_right = np.full(cap, -1, dtype=np.int32)
    split_feat = np.full(cap, -1, dtype=np.int32)
    split_bin = np.full(cap, -1, dtype=np.int32)
    leaf_pos = np.zeros(cap, dtype=np.int64)
    leaf_n = np.zeros(cap, dtype=np.int64)

    work = rows.copy()
    pool = np.empty(n_feats, dtype=np.int64)
    n_nodes = 1
    stack = [(0, 0, n_rows, 0)]
    while stack:
        node, lo, hi, depth = stack.pop()
        m = hi - lo
        sub = work[lo:hi]
        pos_total = int(labels[sub].sum())
        leaf_pos[node] = pos_total
        leaf_n[node] = m
        if pos_total == 0 or pos_total == m or depth >= max_depth or m < 2 * min_leaf:
            continue

        s = _node_rng_seed(tree_seed, node)
        pool[:] = np.arange(n_feats)
        for j in range(mtry):
            s ^= (s << 13) & _MASK32
            s ^= s >> 17
            s ^= (s << 5) & _MASK32
            r = j + s % (n_feats - j)
            pool[j], pool[r] = pool[r], pool[j]
        feats = pool[:mtry]

        sub_codes = codes[sub][:, feats]
        offsets = sub_codes.astype(np.int64) + np.arange(mtry) * n_bins
        sub_labels = labels[sub]
        cnt = np.bincount(offsets.ravel(), minlength=mtry * n_bins)
        pos = np.bincount(offsets[sub_labels == 1].ravel(), minlength=mtry * n_bins)
        cnt = cnt.reshape(mtry, n_bins)
        pos = pos.reshape(mtry, n_bins)

        left_n = np.cumsum(cnt, axis=1)[:, :-1]
        left_pos = np.cumsum(pos, axis=1)[:, :-1]
        right_n = m - left_n
        right_pos = pos_total - left_pos

        ln = left_n.astype(np.float64)
        lp = left_pos.astype(np.float64)
        lq = ln - lp
        rn = right_n.astype(np.float64)
        rp = right_pos.astype(np.float64)
        rq = rn - rp
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (lp * lp + lq * lq) / ln + (rp * rp + rq * rq) / rn
        score[(left_n < min_leaf) | (right_n < min_leaf)] = -1.0

        flat = int(np.argmax(score))
        best = score.ravel()[flat]
        mf = float(m)
        pf = float(pos_total)
        qf = mf - pf
        parent_score = (pf * pf + qf * qf) / mf
        if best <= parent_score:
            continue
        j, b = divmod(flat, n_bins - 1)

        feat = int(feats[j])
        mask = codes[sub, feat] <= b
        work[lo:hi] = np.concatenate([sub[mask], sub[~mask]])
        mid = lo + int(mask.sum())

        split_feat[node] = feat
        split_bin[node] = b
        id_left = n_nodes
        id_right = n_nodes + 1
        n_nodes += 2
        child_left[node] = id_left
        child_right[node] = id_right
        stack.append((id_right, mid, hi, depth + 1))
        stack.append((id_left, lo, mid, depth + 1))

    return (
        child_left[:n_nodes],
        child_right[:n_nodes],
        split_feat[:n_nodes],
        split_bin[:n_nodes],
        leaf_pos[:n_nodes],
        leaf_n[:n_nodes],
    )


# ---------------------------------------------------------------------------
# tree traversal
# ---------------------------------------------------------------------------


def tree_leaves(codes, child_left, child_right, split_feat, split_bin):
    """Id of the leaf each row of ``codes`` reaches."""
    n = codes.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = split_feat[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        cur = node[idx]
        go_left = codes[idx, split_feat[cur]] <= split_bin[cur]
        node[idx] = np.where(go_left, child_left[cur], child_right[cur])
        active[idx] = split_feat[node[idx]] >= 0
    return node
