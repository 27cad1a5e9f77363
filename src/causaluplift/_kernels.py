"""Hot numeric kernels in numpy: quantile cuts of a sorted column and the
codes they bin, contingency counting, histogram-CART forest growth and tree
traversal.

Counting returns the exact int64 counts of several x columns' tables
against the same other columns, those ANDed or flattened once for all x:
``stacked_bit_counts`` from each column's packed level bitsets
(``pack_levels``), one popcount per cell, and ``stacked_counts`` by one
``bincount`` over the rows. The caller picks one by table size
(``BITS_MAX_CELLS``); the counts are the same either way.

Forest growth advances all trees of a forest together, one level at a
time, and scores splits from integer (count, positives) histograms. Each
node draws its candidate features from a 32-bit xorshift stream keyed by
its tree's seed and its path from the root, so a tree depends only on its
inputs and seed, never on the trees grown beside it or on the order in
which nodes are scored. Traversal steps every row one level at a time, a
leaf sending its rows back to itself.
"""

import math

import numpy as np

# Always False: the package has one numpy kernel path. Kept because the
# benchmark's machine probe reports it.
USE_NUMBA = False

_MASK32 = 0xFFFFFFFF


def first_of_runs(ordered):
    """A mask of each sorted value's first occurrence."""
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def quantile_cuts(ordered, qs):
    """The distinct values of ``np.quantile(ordered, qs)``, in increasing
    order, of a column already sorted: read at the linear rule's virtual
    indices without partitioning the column again. Bit for bit, save two
    cases. The sign of a zero quantile of a column that holds both ``-0.0``
    and ``0.0`` may differ: ``np.quantile``'s partition leaves equal values
    in an order of its own. And where two neighbours are further apart than
    the largest float, their difference overflows and ``np.quantile``
    returns NaN or an infinity; here such a quantile weighs each neighbour
    alone, so it lies between them."""
    n = ordered.size
    virtual = (n - 1) * qs
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    # np.quantile takes the last value for an index at or past the end
    last = virtual >= n - 1
    below[last] = -1
    above[last] = -1
    gamma = virtual - below
    lo = ordered[below]
    hi = ordered[above]
    upper = gamma >= 0.5  # interpolated from the upper neighbour, as np.quantile does
    with np.errstate(over="ignore", invalid="ignore"):  # wide neighbours, redone below
        diff = hi - lo
        cuts = lo + diff * gamma
        cuts[upper] = (hi - diff * (1 - gamma))[upper]
    wide = ~np.isfinite(diff)  # finite neighbours of opposite signs: no term overflows
    if wide.any():
        cuts[wide] = lo[wide] * (1 - gamma[wide]) + hi[wide] * gamma[wide]
    cuts.sort()
    return cuts[first_of_runs(cuts)]


def bin_codes(values, cuts, dtype):
    """The number of ``cuts`` below each value, as ``dtype``: for increasing
    cuts, ``np.searchsorted(cuts, values, side="left")``. One comparison pass
    per cut, over a contiguous copy of strided values (passes over a strided
    column run slower than ``np.searchsorted``)."""
    values = np.ascontiguousarray(values)
    codes = np.zeros(values.shape, dtype)
    for cut in cuts:
        codes += values > cut
    return codes


# ---------------------------------------------------------------------------
# contingency counting (the inner loop of every G^2 test)
# ---------------------------------------------------------------------------


# Tables of at most this many cells are counted from packed level bitsets
# (``stats._count_tables`` compares). Bitset work grows with cells times
# words, bincount's with the rows alone.
# On a 2-core x86-64 host (NumPy 2.4), at 18k rows, a 6-cell table takes
# 12 us by bitsets against 48 us by bincount, 54 cells 34-53 against
# 55-59 us, and 162 cells 96 against 76 us.
BITS_MAX_CELLS = 64

# Words one AND of x levels against the strata may hold at once (2 MB).
COUNT_CHUNK_WORDS = 1 << 18


def pack_levels(codes, arity):
    """One code column's packed level bitsets, ``(arity, ceil(n / 64))``
    uint64: bit ``i`` of row ``l`` is set when ``codes[i] == l``, and no bit
    past ``n`` is set. The scratch is the column's one-hot rows."""
    codes = np.asarray(codes)
    onehot = codes == np.arange(arity, dtype=codes.dtype)[:, None]
    bits = np.zeros((arity, -(-codes.size // 64) * 8), dtype=np.uint8)
    bits[:, : -(-codes.size // 8)] = np.packbits(onehot, axis=1, bitorder="little")
    return bits.view(np.uint64)


def stacked_bit_counts(x_bits, bits):
    """``stacked_counts`` from the ``pack_levels`` bitsets of each x (at
    least one) and of each other column: the other columns' joint levels
    are ANDed once, row-major, and each cell is one popcount of an x level
    ANDed with a joint level, ``COUNT_CHUNK_WORDS`` words at a time."""
    strata = bits[0]
    for b in bits[1:]:
        strata = (strata[:, None] & b[None]).reshape(len(strata) * len(b), -1)
    strata = strata[None]
    x_bits = np.concatenate(x_bits)
    step = max(1, COUNT_CHUNK_WORDS // max(1, strata.size))
    # popcounts are uint8: sum them in int64
    return np.concatenate([
        np.bitwise_count(x_bits[i : i + step, None] & strata).sum(axis=2, dtype=np.int64)
        for i in range(0, max(1, x_bits.shape[0]), step)
    ])


def stacked_counts(x_columns, x_arities, columns, arities):
    """Count of each (x, c_1, ..., c_k) code tuple for every x of
    ``x_columns``, stacked: an ``(sum x_arities, prod arities)`` int64 array
    whose rows are the x levels, x after x, and whose columns are the joint
    levels of ``columns``, row-major. The joint levels are flattened to one
    code per row once for all x, then each x is one ``bincount``.
    """
    cells = math.prod(arities)
    flat = columns[0].astype(np.int64)
    for codes, arity in zip(columns[1:], arities[1:]):
        flat *= arity
        flat += codes
    # widened first: under NEP 50 narrow codes times an int stay narrow and wrap
    out = [
        np.bincount(x.astype(np.intp) * cells + flat, minlength=nx * cells).reshape(nx, cells)
        for x, nx in zip(x_columns, x_arities)
    ]
    return np.concatenate(out) if out else np.empty((0, cells), dtype=np.int64)


# ---------------------------------------------------------------------------
# histogram-CART forest growth
# ---------------------------------------------------------------------------
#
# Features are pre-binned to small integer codes (quantile cuts for
# continuous columns, category codes otherwise); a split sends "code <= b"
# left. Split scores come from integer (count, positives) histograms, so
# the only floats are the per-split Gini terms. Candidate features at each
# node are a partial Fisher-Yates draw from a 32-bit xorshift stream seeded
# by (tree_seed, heap key), run in uint64 with every left shift masked to
# 32 bits. A root's heap key is 0 and the children of key h get 2h + 1 and
# 2h + 2 (wrapping in uint64), so a node's draw depends on its path from
# the root alone.
#
# All trees of a forest therefore grow together, one level at a time. The
# frontier holds every node of the current depth, sorted by tree, and is
# scored in chunks, each step one array operation over all of a chunk's
# nodes.

# Cells one chunk may use, counted as rows x mtry for the histogram keys
# plus nodes x mtry x 2 x n_bins for the histograms (a chunk always scores
# at least one node).
CHUNK_CELLS = 1 << 18


def _xorshift(s):
    s ^= (s << 13) & _MASK32
    s ^= s >> 17
    s ^= (s << 5) & _MASK32
    return s


def _draw_features(seeds, heaps, n_feats, mtry):
    """Candidate features of the nodes with tree seeds ``seeds`` and heap
    keys ``heaps`` (uint64 arrays), as a ``(nodes, mtry)`` array."""
    s = (seeds + heaps * np.uint64(2654435761)) & _MASK32
    s[s == 0] = 0x9E3779B9
    s = _xorshift(_xorshift(s))
    pool = np.tile(np.arange(n_feats), (s.size, 1))
    every = np.arange(s.size)
    for j in range(mtry):
        s = _xorshift(s)
        r = j + (s % np.uint64(n_feats - j)).astype(np.intp)
        drawn = pool[every, r]
        pool[every, r] = pool[:, j]
        pool[:, j] = drawn
    return pool[:, :mtry]


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
    del cell, key  # freed before the scores are built

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
    """Grow tree ``i`` on ``bootstraps[i]`` (a non-empty array of row indices
    into ``codes``, with 0/1 ``labels``) and ``tree_seeds[i]``, all trees at
    once, one level at a time.

    Each tree is the one it would be if grown alone. Returns, per tree, the
    arrays ``(split_feat, split_bin, leaf_pos, leaf_n)``: ``split_feat``
    has one entry per node in level order, -1 for a leaf, ``split_bin`` one
    per split and the two leaf counts one per leaf, each in level order.
    The k-th split's children are nodes ``2k + 1`` and ``2k + 2``.
    """
    codes = np.ascontiguousarray(codes)
    labels = np.asarray(labels, dtype=np.intp)
    coded = 2 * codes.astype(np.int16) + labels.astype(np.int16)[:, None]
    seeds = np.asarray(tree_seeds, dtype=np.uint64)
    work = np.concatenate(bootstraps).astype(np.intp, copy=False)
    # the frontier: node i of the current depth holds the rows
    # work[lo[i] : lo[i] + m[i]] of tree tree[i]
    m = np.array([len(rows) for rows in bootstraps])
    lo = np.cumsum(m) - m
    tree = np.arange(m.size)
    heap = np.zeros(m.size, dtype=np.uint64)
    levels = []  # per depth: tree, feature, bin, positives, rows
    depth = 0

    while tree.size:
        below = np.concatenate(([0], np.cumsum(labels[work])))
        pos_total = below[lo + m] - below[lo]
        feat = np.full(tree.size, -1, dtype=np.int32)
        split_bin = np.full(tree.size, -1, dtype=np.int32)
        mid = lo + m
        grow = (pos_total > 0) & (pos_total < m) & (m >= 2 * min_leaf) & (depth < max_depth)
        todo = np.flatnonzero(grow)
        cost = np.cumsum(m[todo] * mtry + mtry * 2 * n_bins)
        start = 0
        while start < todo.size:
            done = cost[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(cost, done + CHUNK_CELLS, "right")))
            sel = todo[start:stop]
            start = stop
            at, seg = _segments(lo[sel], m[sel])
            rows = work[at]
            feats = _draw_features(seeds[tree[sel]], heap[sel], codes.shape[1], mtry)
            split, f, b = _best_splits(
                coded, rows, seg, feats, m[sel], pos_total[sel], n_bins, min_leaf
            )
            moved = split[seg]
            at, rows, seg = at[moved], rows[moved], seg[moved]
            right = codes.ravel().take(rows * codes.shape[1] + f[seg]) > b[seg]
            # stable partition of each split node's rows: left, then right
            work[at] = rows[np.argsort(seg * 2 + right, kind="stable")]
            mid[sel] -= np.bincount(seg[right], minlength=sel.size)
            sel = sel[split]
            feat[sel] = f[split]
            split_bin[sel] = b[split]

        levels.append((tree, feat, split_bin, pos_total, m))
        split = feat >= 0
        tree = np.repeat(tree[split], 2)
        heap = (heap[split, None] * np.uint64(2) + np.array([1, 2], dtype=np.uint64)).ravel()
        bounds = np.stack([lo, mid, lo + m], 1)[split]  # per split: lo, mid, hi
        lo = bounds[:, :2].ravel()
        m = np.diff(bounds, axis=1).ravel()
        depth += 1

    # each tree's nodes in level order: the levels, stably sorted by tree
    tree, feat, split_bin, pos, n = (np.concatenate(v) for v in zip(*levels))
    order = np.argsort(tree, kind="stable")
    tree, feat, split_bin, pos, n = (v[order] for v in (tree, feat, split_bin, pos, n))
    split = feat >= 0
    parts = [  # per column, its per-node, per-split or per-leaf entries of each tree
        np.split(v[keep], np.cumsum(np.bincount(tree[keep], minlength=len(bootstraps)))[:-1])
        for v, keep in ((feat, slice(None)), (split_bin, split), (pos, ~split), (n, ~split))
    ]
    return [tuple(a.copy() for a in arrays) for arrays in zip(*parts)]


# ---------------------------------------------------------------------------
# tree traversal
# ---------------------------------------------------------------------------


def tree_leaves(codes, split_feat, split_bin):
    """Rank among the leaves of the leaf each row of ``codes`` reaches: the
    k-th split sends a row to node ``2k + 1`` if its code is at most
    ``split_bin[k]``, else to ``2k + 2``.

    Every row takes one step a level, all rows at once, until none moves:
    a leaf is its own left child on a bin no code exceeds, so a row that
    reached one stays there."""
    split = split_feat >= 0
    before = np.cumsum(split) - split  # split nodes before each node
    left = np.where(split, 2 * before + 1, np.arange(split.size))
    feat = np.where(split, split_feat, 0)
    cut = np.full(split.size, np.iinfo(codes.dtype).max, dtype=np.int64)
    cut[split] = split_bin
    flat = codes.ravel()
    first = np.arange(codes.shape[0]) * codes.shape[1]
    node = np.zeros(codes.shape[0], dtype=np.intp)
    moved = split[0]  # a one-leaf tree sends every row to its root
    while moved:
        child = left[node] + (flat.take(first + feat[node]) > cut[node])
        moved = (child != node).any()
        node = child
    return node - before[node]
