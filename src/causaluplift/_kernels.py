"""Hot numeric kernels in numpy: contingency counting, histogram-CART forest
growth and tree traversal.

Counting returns exact int64 counts. A small table is counted from packed
level bitsets (one popcount of ANDed bitsets per cell), any other by one
``bincount`` over the rows; both are exact, so the path never shows in a
count.

Forest growth advances all trees of a forest together, in depth-first
order, and scores splits from integer (count, positives) histograms. Each
node draws its candidate features from a 32-bit xorshift stream keyed by
its tree's seed and its own node id, so a tree depends only on its inputs
and seed, never on the trees grown beside it.
"""

import math

import numpy as np

# Always False: the package has one numpy kernel path. Kept because the
# benchmark's machine probe reports it.
USE_NUMBA = False

_MASK32 = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# contingency counting (the inner loop of every G^2 test)
# ---------------------------------------------------------------------------


# Tables of at most this many cells are counted from packed level bitsets.
# Bitset work grows with cells times words, bincount's with the rows alone.
# On a 2-core x86-64 host (NumPy 2.4), at 18k rows, a 6-cell table takes
# 12 us by bitsets against 48 us by bincount, 54 cells 34-53 against
# 55-59 us, and 162 cells 96 against 76 us.
BITS_MAX_CELLS = 64


def pack_levels(codes, arity):
    """Packed level bitsets of a code column, as an ``(arity, ceil(n / 64))``
    uint64 array: bit ``i`` of row ``l`` is set when ``codes[i] == l``.

    None for a column of more than ``BITS_MAX_CELLS`` levels, which no
    bitset count would use.
    """
    if arity > BITS_MAX_CELLS:
        return None
    n = codes.shape[0]
    packed = np.zeros((arity, -(-n // 64) * 8), dtype=np.uint8)
    levels = np.arange(arity)[:, None]
    packed[:, : -(-n // 8)] = np.packbits(codes == levels, axis=1, bitorder="little")
    return packed.view(np.uint64)


def joint_counts(columns, arities, bits=None):
    """Count of each (x, y, z_1, ..., z_k) code tuple, as an ``(nx, ny, nz)``
    int64 array whose last axis runs over the z strata, row-major.

    ``columns`` holds the code arrays of x, y and each z_i, ``arities`` their
    arities, and ``bits`` (optional) their ``pack_levels`` bitsets. A table
    of at most ``BITS_MAX_CELLS`` cells whose columns all have bitsets is
    counted by popcounts; any other by one ``bincount``.
    """
    nx, ny, *z_arities = arities
    nz = math.prod(z_arities)
    if (
        bits is not None
        and nx * ny * nz <= BITS_MAX_CELLS
        and all(b is not None for b in bits)
    ):
        bx, by, *bz = bits
        words = bx.shape[1]
        table = (bx[:, None] & by[None]).reshape(nx * ny, 1, words)
        if bz:
            strata = bz[0]
            for b in bz[1:]:
                strata = (strata[:, None] & b[None]).reshape(-1, words)
            table = table & strata
        # popcounts are uint8: sum them in int64
        return np.bitwise_count(table).sum(axis=2, dtype=np.int64).reshape(nx, ny, nz)
    flat = columns[0].astype(np.int64)
    for codes, arity in zip(columns[1:], arities[1:]):
        flat *= arity
        flat += codes
    return np.bincount(flat, minlength=nx * ny * nz).reshape(nx, ny, nz)


# ---------------------------------------------------------------------------
# histogram-CART forest growth
# ---------------------------------------------------------------------------
#
# Features are pre-binned to small integer codes (quantile cuts for
# continuous columns, category codes otherwise); a split sends "code <= b"
# left. Split scores come from integer (count, positives) histograms, so
# the only floats are the per-split Gini terms. Candidate features at each
# node are a partial Fisher-Yates draw from a 32-bit xorshift stream seeded
# by (tree_seed, node id), run in uint64 with every left shift masked to 32
# bits.
#
# A tree grows depth-first and numbers the two children of a split when its
# depth-first walk reaches that split, so a node's id, and with it its
# feature draw, depends on its own tree alone. All trees of a forest
# therefore grow together, in rounds. A round scores every node that has an
# id but no score yet (the root, or the two children of its tree's last
# split), each step one array operation over all of those nodes. Then each
# tree walks its depth-first stack past scored nodes up to the next split,
# whose children get their ids.

# Rows one round may score across all trees (a round always scores at least
# one node); bounds the round's (rows, mtry) temporaries.
ROUND_ROWS = 1 << 14
# Pool cells (node ids x features) of one block of feature draws.
DRAW_CELLS = 1 << 18


def _xorshift(s):
    s ^= (s << 13) & _MASK32
    s ^= s >> 17
    s ^= (s << 5) & _MASK32
    return s


def _draw_features(seeds, first, count, n_feats, mtry):
    """Candidate features of node ids ``first .. first + count - 1`` of every
    tree, as an ``(n_trees, count, mtry)`` array."""
    nodes = np.arange(first, first + count, dtype=np.uint64)
    s = (seeds[:, None] + nodes * np.uint64(2654435761)) & _MASK32
    s[s == 0] = 0x9E3779B9
    s = _xorshift(_xorshift(s.ravel()))
    pool = np.tile(np.arange(n_feats, dtype=np.int32), (s.size, 1))
    every = np.arange(s.size)
    for j in range(mtry):
        s = _xorshift(s)
        r = j + (s % np.uint64(n_feats - j)).astype(np.intp)
        drawn = pool[every, r]
        pool[every, r] = pool[:, j]
        pool[:, j] = drawn
    return pool[:, :mtry].reshape(seeds.size, count, mtry)


class _FeatureDraws:
    """Candidate features by (tree, node id), drawn ahead in blocks of ids."""

    def __init__(self, tree_seeds, n_feats, mtry):
        self.seeds = np.asarray(tree_seeds, dtype=np.uint64)
        self.n_feats = n_feats
        self.mtry = mtry
        self.block = max(1, DRAW_CELLS // (self.seeds.size * n_feats))
        self.table = np.empty((self.seeds.size, 0, mtry), dtype=np.int32)

    def __call__(self, tree, node):
        while node.max() >= self.table.shape[1]:
            more = _draw_features(
                self.seeds, self.table.shape[1], self.block, self.n_feats, self.mtry
            )
            self.table = np.concatenate([self.table, more], axis=1)
        return self.table[tree, node].astype(np.intp)


def _segments(lo, m):
    """Positions ``lo[i] .. lo[i] + m[i] - 1`` for every i, concatenated, and
    the i each position belongs to."""
    seg = np.repeat(np.arange(m.size), m)
    return np.repeat(lo - (np.cumsum(m) - m), m) + np.arange(seg.size), seg


def _best_splits(coded, rows, seg, feats, m, pos_total, n_bins, min_leaf):
    """Each node's first best split, as ``(splits, feature, bin)``.

    Node ``i`` holds the ``m[i]`` rows ``rows[seg == i]`` with ``pos_total[i]``
    positives and draws the candidates ``feats[i]``; ``coded`` holds
    ``2 * code + label`` per (row, feature). The best split is the first
    maximum of the (candidate, bin) score table, as ``np.argmax`` finds it,
    and ``splits[i]`` says whether it beats not splitting.
    """
    k, mtry = feats.shape
    # histogram key: ((node, candidate) group, bin, label)
    cell = feats[seg]
    cell += (rows * coded.shape[1])[:, None]
    key = (seg * (mtry * 2 * n_bins))[:, None] + np.arange(mtry) * (2 * n_bins)
    key += coded.ravel().take(cell)
    hist = np.bincount(key.ravel(), minlength=k * mtry * 2 * n_bins).reshape(-1, 2)

    # Score only non-empty bins: an empty bin scores as the last non-empty
    # one before it, or has no left rows, so it is never the first best.
    # Bins are (group, bin) = divmod(cells, n_bins); every group has rows.
    cnt = hist[:, 0] + hist[:, 1]
    cells = np.flatnonzero(cnt > 0)
    group = cells // n_bins
    first = np.searchsorted(group, np.arange(k * mtry))
    n_c = cnt[cells]
    p_c = hist[cells, 1]
    left_n = np.cumsum(n_c)
    left_pos = np.cumsum(p_c)
    left_n -= (left_n[first] - n_c[first])[group]
    left_pos -= (left_pos[first] - p_c[first])[group]
    owner = group // mtry
    right_n = m[owner] - left_n
    right_pos = pos_total[owner] - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    # integer Gini numerators, exact in float64 (they stay below 2**53)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (left_pos * left_pos + left_neg * left_neg) / left_n + (
            right_pos * right_pos + right_neg * right_neg
        ) / right_n
    score[(left_n < min_leaf) | (right_n < min_leaf)] = -1.0

    node_first = first[::mtry]
    best = np.maximum.reduceat(score, node_first)
    hit = np.where(score == best[owner], np.arange(score.size), score.size)
    group, split_bin = np.divmod(cells[np.minimum.reduceat(hit, node_first)], n_bins)
    mf = m.astype(np.float64)
    pf = pos_total.astype(np.float64)
    qf = mf - pf
    splits = best > (pf * pf + qf * qf) / mf
    return splits, feats[np.arange(k), group % mtry], split_bin


def grow_forest(codes, labels, bootstraps, tree_seeds, mtry, n_bins, max_depth, min_leaf):
    """Grow tree ``i`` depth-first on ``bootstraps[i]`` (a non-empty array of
    row indices into ``codes``, with 0/1 ``labels``) and ``tree_seeds[i]``,
    all trees at once.

    Each tree is the one it would be if grown alone. Returns, per tree, the
    per-node arrays ``(child_left, child_right, split_feat, split_bin,
    leaf_pos, leaf_n)``, each exactly as long as the tree has nodes; a leaf
    has ``split_feat == -1``.
    """
    codes = np.ascontiguousarray(codes)
    labels = np.asarray(labels, dtype=np.intp)
    coded = 2 * codes.astype(np.int16) + labels.astype(np.int16)[:, None]
    draws = _FeatureDraws(tree_seeds, codes.shape[1], mtry)
    work = np.concatenate(bootstraps).astype(np.intp, copy=False)
    ends = np.cumsum([len(rows) for rows in bootstraps]).tolist()
    # Per tree, the depth-first stack of [node, lo, hi, depth, split]: the
    # node's rows are work[lo:hi], and split is None until the node is
    # scored, then () for a leaf or (feature, bin, mid) once work[lo:mid]
    # holds its left rows.
    stacks = [[[0, end - len(rows), end, 0, None]] for rows, end in zip(bootstraps, ends)]
    n_nodes = [1] * len(bootstraps)
    visited = []  # per round: tree, node, positives, rows
    splits = []  # per split: tree, node, feature, bin, left child

    while True:
        taken, room = [], ROUND_ROWS
        for t, stack in enumerate(stacks):
            for entry in stack[-2:]:
                size = entry[2] - entry[1]
                if entry[4] is None and (not taken or size <= room):
                    taken.append((t, entry))
                    room -= size
        if not taken:
            break
        tree, node, lo, hi, depth = np.array(
            [(t, *entry[:4]) for t, entry in taken], dtype=np.int64
        ).T
        m = hi - lo
        at, seg = _segments(lo, m)
        rows = work[at]
        pos_total = np.add.reduceat(labels[rows], np.cumsum(m) - m)
        visited.append((tree, node, pos_total, m))
        outcome = [()] * len(taken)

        grow = (pos_total > 0) & (pos_total < m) & (depth < max_depth) & (m >= 2 * min_leaf)
        if grow.any():
            keep = grow[seg]
            at, rows = at[keep], rows[keep]
            index = np.flatnonzero(grow)
            node, lo, m, pos_total = (v[grow] for v in (node, lo, m, pos_total))
            seg = np.repeat(np.arange(index.size), m)
            split, feat, split_bin = _best_splits(
                coded, rows, seg, draws(tree[grow], node), m, pos_total, n_bins, min_leaf
            )
            if split.any():
                moved = split[seg]
                at, rows, seg = at[moved], rows[moved], seg[moved]
                right = codes.ravel().take(rows * codes.shape[1] + feat[seg]) > split_bin[seg]
                # stable partition of each split node's rows: left, then right
                work[at] = rows[np.argsort(seg * 2 + right, kind="stable")]
                mid = lo + m - np.bincount(seg[right], minlength=index.size)
                for i, f, b, c in zip(
                    *(v[split].tolist() for v in (index, feat, split_bin, mid))
                ):
                    outcome[i] = (f, b, c)
        for (_, entry), result in zip(taken, outcome):
            entry[4] = result

        for t, stack in enumerate(stacks):
            while stack and stack[-1][4] is not None:
                node, lo, hi, depth, result = stack.pop()
                if result:
                    f, b, mid = result
                    left = n_nodes[t]
                    n_nodes[t] += 2
                    splits.append((t, node, f, b, left))
                    stack.append([left + 1, mid, hi, depth + 1, None])
                    stack.append([left, lo, mid, depth + 1, None])
                    break

    return _tree_arrays(n_nodes, visited, splits)


def _tree_arrays(n_nodes, visited, splits):
    """Scatter the node records into one owned array set per tree."""
    n_nodes = np.array(n_nodes, dtype=np.int64)
    first = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    child_left = np.full(total, -1, dtype=np.int32)
    child_right = np.full(total, -1, dtype=np.int32)
    split_feat = np.full(total, -1, dtype=np.int32)
    split_bin = np.full(total, -1, dtype=np.int32)
    leaf_pos = np.zeros(total, dtype=np.int64)
    leaf_n = np.zeros(total, dtype=np.int64)

    tree, node, pos, n = (np.concatenate(v) for v in zip(*visited))
    at = first[tree] + node
    leaf_pos[at] = pos
    leaf_n[at] = n
    if splits:
        tree, node, feat, bin_, left = (np.array(v, dtype=np.int64) for v in zip(*splits))
        at = first[tree] + node
        split_feat[at] = feat
        split_bin[at] = bin_
        child_left[at] = left
        child_right[at] = left + 1

    bounds = np.cumsum(n_nodes)[:-1]
    columns = (child_left, child_right, split_feat, split_bin, leaf_pos, leaf_n)
    return [
        tuple(part.copy() for part in parts)
        for parts in zip(*(np.split(column, bounds) for column in columns))
    ]


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
