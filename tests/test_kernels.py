"""The numpy kernels against scalar oracles written here as explicit loops.

The oracles share no code with the kernels: counts and positives are summed
as Python ints, the feature draw is re-derived from its definition, and
trees are walked one row at a time. Results must match exactly (integer
counts, identical trees).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def candidate_features(tree_seed, heap, n_feats, mtry):
    """Partial Fisher-Yates draw of ``mtry`` features for the node with heap
    key ``heap``."""
    s = (tree_seed + heap * 2654435761) & MASK32 or 0x9E3779B9
    s = xorshift(xorshift(s))
    pool = list(range(n_feats))
    for j in range(mtry):
        s = xorshift(s)
        r = j + s % (n_feats - j)
        pool[j], pool[r] = pool[r], pool[j]
    return pool[:mtry]


def grow_tree_oracle(codes, labels, rows, mtry, n_bins, max_depth, min_leaf, tree_seed):
    """Breadth-first histogram CART, one row and one candidate split at a
    time. Nodes are numbered in the order they are queued; the root's heap
    key is 0 and the children of key h get 2h + 1 and 2h + 2 mod 2**64."""
    codes = codes.tolist()
    labels = labels.tolist()  # Python ints, so sums never wrap
    n_feats = len(codes[0])
    tree = [[-1, -1, -1, 0, 0]]  # left, feature, bin, positives, rows
    queue = [(0, 0, rows.tolist(), 0)]  # node, heap key, rows, depth
    for node, heap, members, depth in queue:
        m = len(members)
        pos_total = 0
        for r in members:
            pos_total += labels[r]
        tree[node][3:] = [pos_total, m]
        if pos_total in (0, m) or depth >= max_depth or m < 2 * min_leaf:
            continue

        best, best_feat, best_bin = -1.0, -1, -1
        for f in candidate_features(tree_seed, heap, n_feats, mtry):
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
        tree[node][:3] = [child, best_feat, best_bin]
        tree += [[-1, -1, -1, 0, 0], [-1, -1, -1, 0, 0]]
        left = [r for r in members if codes[r][best_feat] <= best_bin]
        right = [r for r in members if codes[r][best_feat] > best_bin]
        queue.append((child, (2 * heap + 1) % 2**64, left, depth + 1))
        queue.append((child + 1, (2 * heap + 2) % 2**64, right, depth + 1))
    return tuple(map(list, zip(*tree)))


def tree_leaves_oracle(codes, child_left, split_feat, split_bin):
    out = []
    for row in codes.tolist():
        node = 0
        while split_feat[node] >= 0:
            node = child_left[node] + (1 if row[split_feat[node]] > split_bin[node] else 0)
        out.append(int(node))
    return np.array(out, dtype=np.int64)


def assert_same_tree(got, want):
    """``got``, a kernel tree, is the oracle's tree ``want``: the oracle's
    explicit left child of the k-th split is ``2k + 1``, its per-split
    entries are ``got``'s split bins and its per-leaf entries ``got``'s leaf
    counts."""
    child_left, split_feat, split_bin, leaf_pos, leaf_n = (np.asarray(a) for a in want)
    split = split_feat >= 0
    assert np.array_equal(child_left, np.where(split, 2 * (np.cumsum(split) - split) + 1, -1))
    assert len(got) == 4
    for x, y in zip(got, (split_feat, split_bin[split], leaf_pos[~split], leaf_n[~split])):
        assert np.array_equal(x, y)


def one_x_counts(columns, arities, bits=None):
    """``stacked_counts`` of the one x ``columns[0]`` against the other
    columns, by bitsets when ``bits`` (every column's) are given, shaped as
    the ``(nx, ny, nz)`` table."""
    x_bits, rest = (None, None) if bits is None else (bits[0], bits[1:])
    counts = K.stacked_counts(columns[:1], arities[:1], columns[1:], arities[1:], x_bits, rest)
    return counts.reshape(arities[0], arities[1], int(np.prod(arities[2:])))


def test_joint_counts_paths_agree(rng):
    for _ in range(10):
        n = int(rng.integers(1, 2000))
        nx, ny, nz = (int(v) for v in rng.integers(2, 5, 3))
        xc = rng.integers(0, nx, n)
        yc = rng.integers(0, ny, n)
        zf = rng.integers(0, nz, n)
        a = one_x_counts([xc, yc, zf], [nx, ny, nz])
        b = joint_counts_oracle(xc, yc, zf, nx, ny, nz)
        assert np.array_equal(a, b)
        assert a.sum() == n


def strata_oracle(zs, arities, n):
    """Row-major stratum number of each row, in Python ints."""
    zf = [0] * n
    for codes, arity in zip(zs, arities):
        zf = [f * arity + c for f, c in zip(zf, codes.tolist())]
    return np.array(zf, dtype=np.int64)


def packed(columns, arities):
    """Each column's level bitsets, as rows of one ``pack_level_block``
    (None for a column too wide to pack)."""
    block, start = K.pack_level_block(columns, arities)
    return [None if s < 0 else block[s : s + a] for s, a in zip(start.tolist(), arities)]


def counts_both_ways(columns, arities):
    """The table by packed bitsets and by bincount, and the oracle's."""
    bits = packed(columns, arities)
    assert all(b is not None for b in bits)
    by_bits = one_x_counts(columns, arities, bits)
    by_bincount = one_x_counts(columns, arities)
    nz = int(np.prod(arities[2:]))
    zf = strata_oracle(columns[2:], arities[2:], columns[0].size)
    want = joint_counts_oracle(columns[0], columns[1], zf, *arities[:2], nz)
    return by_bits, by_bincount, want


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 18000])
def test_bit_counts_match_oracle(n):
    rng = np.random.default_rng(n)
    for arities in ([2, 2], [3, 2], [2, 3, 2], [3, 2, 3], [2, 2, 2, 2], [3, 2, 2, 3]):
        columns = [rng.integers(0, a, n) for a in arities]
        by_bits, by_bincount, want = counts_both_ways(columns, arities)
        assert by_bits.dtype == by_bincount.dtype == np.int64
        assert np.array_equal(by_bits, want)
        assert np.array_equal(by_bincount, want)


def test_bit_counts_past_uint8():
    # popcounts are uint8 per word; a cell's sum over 282 words must not wrap
    n = 18000
    x = np.zeros(n, dtype=np.int64)
    x[::97] = 1
    y = np.zeros(n, dtype=np.int64)
    by_bits, by_bincount, want = counts_both_ways([x, y, x], [2, 2, 2])
    assert want[0, 0, 0] == n - x.sum() > 255
    assert np.array_equal(by_bits, want)
    assert np.array_equal(by_bincount, want)


def test_bincount_key_of_narrow_codes_not_wrapped():
    # uint8 codes times the cell count stay uint8 under NEP 50 and would
    # wrap: here the key x * cells + stratum reaches 3 * 90 + 89 = 359
    rng = np.random.default_rng(8)
    n = 2000
    arities = [4, 9, 10]
    wide = [rng.integers(0, a, n) for a in arities]
    narrow = [c.astype(np.uint8) for c in wide]
    got = one_x_counts(narrow, arities)
    want = one_x_counts(wide, arities)
    assert got.size > 255 and got.sum() == n
    assert np.array_equal(got, want)
    zf = strata_oracle(wide[2:], arities[2:], n)
    assert np.array_equal(want, joint_counts_oracle(wide[0], wide[1], zf, 4, 9, 10))


def test_bit_counts_keep_empty_strata():
    rng = np.random.default_rng(5)
    n = 700
    z1 = rng.choice([0, 2], n)  # level 1 never occurs
    z2 = np.full(n, 1)  # levels 0 and 2 never occur
    columns = [rng.integers(0, 3, n), rng.integers(0, 2, n), z1, z2]
    by_bits, by_bincount, want = counts_both_ways(columns, [3, 2, 3, 3])
    assert (want.sum(axis=(0, 1)) == 0).sum() == 7
    assert np.array_equal(by_bits, want)
    assert np.array_equal(by_bincount, want)


@pytest.mark.parametrize(
    "arities, bits_path",
    [([3, 3, 7], True), ([2, 2, 16], True), ([2, 2, 4, 4], True), ([5, 13], False), ([2, 3, 11], False)],
)
def test_crossover_picks_the_path(arities, bits_path, monkeypatch):
    # tables just below, at and just above BITS_MAX_CELLS cells
    cells = int(np.prod(arities))
    assert (cells <= K.BITS_MAX_CELLS) == bits_path
    assert abs(cells - K.BITS_MAX_CELLS) <= 2
    rng = np.random.default_rng(cells)
    columns = [rng.integers(0, a, 6149) for a in arities]
    bits = packed(columns, arities)
    calls = []
    real_bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(a) or real_bincount(*a, **k))
    got = one_x_counts(columns, arities, bits)
    assert bool(calls) != bits_path
    assert np.array_equal(got, counts_both_ways(columns, arities)[2])


def test_pack_levels_layout():
    # binary and ternary columns interleaved with a one-level and an
    # unpacked column
    rng = np.random.default_rng(9)
    n = 2085
    arities = [2, 3, K.BITS_MAX_CELLS + 1, 1, 4] + [2, 2, 3] * 8 + [2]
    columns = [rng.integers(0, a, n) for a in arities]
    block, start = K.pack_level_block(columns, arities)
    assert block.dtype == np.uint64 and block.shape == (68, -(-n // 64))
    # a column no bitset count would use is not packed
    assert start.tolist()[:8] == [0, 2, -1, 5, 6, 10, 12, 14]
    assert start.tolist()[-1] == 66
    rows = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
    for codes, arity, first in zip(columns, arities, start.tolist()):
        if first >= 0:
            for level in range(arity):
                assert rows[first + level, :n].tolist() == (codes == level).tolist()
    assert not rows[:, n:].any()


def pack_in_one_group(columns, arities):
    """``pack_level_block`` as it was when each arity was one-hot encoded in
    one step, all its columns at once."""
    n = len(columns[0]) if columns else 0
    arities = np.asarray(arities, dtype=np.intp).reshape(-1)
    sizes = np.where(arities <= K.BITS_MAX_CELLS, arities, 0)
    start = np.where(sizes > 0, np.cumsum(sizes) - sizes, -1)
    block = np.zeros((int(sizes.sum()), -(-n // 64) * 8), dtype=np.uint8)
    for arity in sorted(set(sizes[sizes > 0].tolist())):
        group = np.flatnonzero(sizes == arity)
        codes = np.array([columns[c] for c in group], dtype=np.uint8)
        onehot = codes[:, None, :] == np.arange(arity, dtype=np.uint8)[:, None]
        rows = (start[group][:, None] + np.arange(arity)).ravel()
        block[rows, : -(-n // 8)] = np.packbits(
            onehot.reshape(group.size * arity, n), axis=1, bitorder="little"
        )
    return block.view(np.uint64), start


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    arities=st.lists(st.sampled_from([1, 2, 2, 2, 3, 3, 5, 64, 65, 200]), max_size=40),
)
def test_pack_level_block_is_the_one_group_pack(seed, n, arities):
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, a, n).astype(np.uint8) for a in arities]
    block, start = K.pack_level_block(columns, arities)
    want_block, want_start = pack_in_one_group(columns, arities)
    assert block.dtype == want_block.dtype and block.shape == want_block.shape
    assert block.tobytes() == want_block.tobytes()
    assert start.tolist() == want_start.tolist()


def test_pack_level_block_scratch_budget():
    """Memory guard: packing a qini-cv fold's code columns, 57 binary and
    45 ternary of 18,000 rows, holds at most 0.25 MB beside the block it
    returns, one column's one-hot rows (about 1 MB when eight columns of
    one arity were encoded at once, 5 MB when all were)."""
    rng = np.random.default_rng(57)
    arities = [2] * 57 + [3] * 45
    rng.shuffle(arities)
    columns = [rng.integers(0, a, 18000).astype(np.uint8) for a in arities]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        block, _ = K.pack_level_block(columns, arities)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - block.nbytes < 1 << 18


@pytest.mark.parametrize("chunk_words", [1, 400, 1 << 18])
def test_stacked_counts_match_oracle(chunk_words, monkeypatch):
    # several x columns against the same y and z, by bitsets in chunks of
    # every size and by bincount, each row block the oracle's table
    monkeypatch.setattr(K, "COUNT_CHUNK_WORDS", chunk_words)
    rng = np.random.default_rng(chunk_words)
    n = 700
    x_arities = [2, 3, 1, 3]
    arities = [2, 3, 2]
    xs = [rng.integers(0, a, n) for a in x_arities]
    columns = [rng.integers(0, a, n) for a in arities]
    block, start = K.pack_level_block(xs + columns, x_arities + arities)
    x_bits = block[: sum(x_arities)]
    bits = [block[s : s + a] for s, a in zip(start[len(xs):].tolist(), arities)]
    zf = strata_oracle(columns[1:], arities[1:], n)
    want = np.concatenate([
        joint_counts_oracle(x, columns[0], zf, a, 2, 6).reshape(a, 12)
        for x, a in zip(xs, x_arities)
    ])
    by_bits = K.stacked_counts(xs, x_arities, columns, arities, x_bits, bits)
    by_bincount = K.stacked_counts(xs, x_arities, columns, arities)
    assert by_bits.dtype == by_bincount.dtype == np.int64
    assert np.array_equal(by_bits, want)
    assert np.array_equal(by_bincount, want)


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
    assert (np.asarray(b[3]) > 255).sum() >= 3
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


@pytest.mark.parametrize("chunk_cells", [64, 3000])
def test_grow_forest_past_chunk_budget(monkeypatch, chunk_cells):
    # a level takes several chunks: one node per chunk at 64 cells, a few
    # nodes (and chunks that end mid-tree) at 3000; uint8 labels with more
    # than 255 positives per node
    monkeypatch.setattr(K, "CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(256)
    n, n_feats, n_bins = 500, 6, 5
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.7).astype(np.uint8)
    bootstraps = [rng.integers(0, n, n).astype(np.int64) for _ in range(9)]
    seeds = [int(s) for s in rng.integers(1, 2**32 - 1, 9)]
    trees = K.grow_forest(codes, labels, bootstraps, seeds, 2, n_bins, 7, 2)
    for rows, seed, tree in zip(bootstraps, seeds, trees):
        want = grow_tree_oracle(codes, labels, rows, 2, n_bins, 7, 2, seed)
        assert (np.asarray(want[3]) > 255).sum() >= 1
        assert_same_tree(tree, want)


def test_tree_leaves_paths_agree(rng):
    n, n_feats, n_bins = 500, 6, 8
    codes = rng.integers(0, n_bins, size=(n, n_feats)).astype(np.uint8)
    labels = (rng.random(n) < 0.4).astype(np.uint8)
    rows = np.arange(n, dtype=np.int64)
    (tree,) = K.grow_forest(codes, labels, [rows], [99], 3, n_bins, 8, 2)
    want = grow_tree_oracle(codes, labels, rows, 3, n_bins, 8, 2, 99)
    assert_same_tree(tree, want)
    fresh = rng.integers(0, n_bins, size=(300, n_feats)).astype(np.uint8)
    ranks = K.tree_leaves(fresh, *tree[:2])
    nodes = tree_leaves_oracle(fresh, *want[:3])
    # every reached node is a leaf, and the kernel gives its rank among them
    leaf = np.asarray(want[1]) < 0
    assert leaf[nodes].all()
    assert np.array_equal(ranks, (np.cumsum(leaf) - 1)[nodes])
    assert np.unique(ranks).size > 10


def tree_leaves_by_compaction(codes, split_feat, split_bin):
    """``tree_leaves`` as it was when each level selected the rows still at
    a split and stepped only those."""
    split = split_feat >= 0
    before = np.cumsum(split) - split
    node = np.zeros(codes.shape[0], dtype=np.int64)
    active = split[node]
    while active.any():
        idx = np.nonzero(active)[0]
        cur = node[idx]
        k = before[cur]
        node[idx] = 2 * k + 1 + (codes[idx, split_feat[cur]] > split_bin[k])
        active[idx] = split[node[idx]]
    return node - before[node]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_feats=st.integers(1, 6),
    n_bins=st.integers(2, 64),
    depth=st.integers(0, 12),
    rows=st.integers(0, 300),
)
def test_tree_leaves_is_the_compacting_walk(seed, n_feats, n_bins, depth, rows):
    # trees of every depth from a one-leaf root up, walked by rows whose
    # codes reach the widest uint8 code, past every split bin
    rng = np.random.default_rng(seed)
    train = rng.integers(0, n_bins, size=(200, n_feats)).astype(np.uint8)
    labels = (rng.random(200) < 0.5).astype(np.uint8)
    bootstrap = rng.integers(0, 200, 200)
    (tree,) = K.grow_forest(train, labels, [bootstrap], [seed + 1], n_feats, n_bins, depth, 1)
    codes = rng.integers(0, 256, size=(rows, n_feats)).astype(np.uint8)
    codes[: rows // 2] %= n_bins
    got = K.tree_leaves(codes, *tree[:2])
    assert np.array_equal(got, tree_leaves_by_compaction(codes, *tree[:2]))
    assert got.shape == (rows,) and ((0 <= got) & (got < tree[2].size)).all()


def test_use_numba_is_false():
    assert K.USE_NUMBA is False
