import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift.data import ColumnSpec, Dataset
from causaluplift.errors import ContinuousColumn, DegenerateColumnWarning, EmptyColumn
from causaluplift.special import chi_square_sf
from causaluplift.stats import (
    CITestResult,
    contingency,
    discretize,
    discretize_dataset,
    g2_batch,
    g2_from_table,
    g2_test,
    ContingencyTable,
)
from causaluplift import _kernels


def binary_dataset(**cols):
    specs = [ColumnSpec(name, "binary") for name in cols]
    return Dataset(specs, {k: np.asarray(v) for k, v in cols.items()})


def categorical_dataset(arities, **cols):
    specs = [
        ColumnSpec(name, "categorical", categories=tuple(str(i) for i in range(arities[name])))
        for name in cols
    ]
    return Dataset(specs, {k: np.asarray(v) for k, v in cols.items()})


def g2_oracle(counts):
    """Hand evaluation of 2 * sum O ln(O/E) per stratum, written naively."""
    counts = np.asarray(counts, dtype=float)
    total = 0.0
    for s in range(counts.shape[2]):
        slab = counts[:, :, s]
        n = slab.sum()
        if n == 0:
            continue
        for i in range(slab.shape[0]):
            for j in range(slab.shape[1]):
                o = slab[i, j]
                if o > 0:
                    e = slab[i, :].sum() * slab[:, j].sum() / n
                    total += 2.0 * o * math.log(o / e)
    return total


class TestDiscretize:
    def test_median_split(self):
        disc = discretize(np.arange(1.0, 11.0), bins=2)
        assert disc.codes.tolist() == [0] * 5 + [1] * 5
        assert disc.n_bins == 2
        assert not disc.degenerate

    def test_constant_column_flagged(self):
        with pytest.warns(DegenerateColumnWarning):
            disc = discretize(np.full(20, 3.5), bins=3)
        assert disc.degenerate
        assert disc.n_bins == 1
        assert set(disc.codes.tolist()) == {0}

    def test_normal_draws_balanced(self):
        values = np.random.default_rng(3).standard_normal(1000)
        disc = discretize(values, bins=3)
        counts = np.bincount(disc.codes, minlength=3)
        assert all(abs(c - 1000 / 3) <= 1 for c in counts)

    def test_ties_go_to_lower_bin(self):
        values = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        disc = discretize(values, bins=2)
        # median is 1.0; the tied values land in the lower bin
        assert disc.codes.tolist() == [0, 0, 0, 0, 1, 1]

    def test_one_bin_refused(self):
        with pytest.raises(ValueError, match="bins must be >= 2"):
            discretize(np.arange(4.0), bins=1)

    def test_empty_column(self):
        with pytest.raises(EmptyColumn):
            discretize(np.empty(0), bins=2)

    def test_arity_bounded_by_bins(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        disc = discretize(values, bins=4)
        assert disc.n_bins <= 4

    def test_codes_past_uint8(self):
        values = np.random.default_rng(4).permutation(1000).astype(np.float64)
        disc = discretize(values, bins=300)
        codes, n_bins, _ = discretize_reference(values, 300)
        assert disc.codes.max() == 299 and disc.n_bins == n_bins == 300
        assert disc.codes.tolist() == codes.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="NaN or infinity"):
            discretize(np.array([0.0, bad, 1.0]), bins=2)

    def test_deterministic(self):
        values = np.random.default_rng(9).normal(size=500)
        a = discretize(values, bins=3)
        b = discretize(values, bins=3)
        assert np.array_equal(a.codes, b.codes)

    def test_neighbours_past_the_largest_float_split(self):
        # the median's neighbours are further apart than the largest float:
        # np.quantile's inf * 0 made the edge NaN and put both clusters in
        # one bin
        low = np.linspace(-1.7e308, -1.6e308, 64)
        high = np.linspace(1.6e308, 1.7e308, 63)
        values = np.random.default_rng(10).permutation(np.concatenate([low, high]))
        disc = discretize(values, bins=2)
        assert disc.edges.tolist() == [low[-1]]
        assert disc.codes.tolist() == (values > 0).astype(int).tolist()
        assert disc.n_bins == 2 and not disc.degenerate


class TestDiscretizeDataset:
    def test_continuous_replaced(self):
        data = Dataset(
            [ColumnSpec("a", "continuous"), ColumnSpec("b", "binary")],
            {"a": np.linspace(0, 1, 30), "b": np.zeros(30, dtype=int)},
        )
        out = discretize_dataset(data, bins=3)
        assert out.spec("a").kind == "categorical"
        assert out.arity("a") == 3
        assert out.spec("b").kind == "binary"
        # original untouched
        assert data.spec("a").kind == "continuous"

    def test_fold_rows_binned_in_place(self):
        """Memory guard: binning 45 columns at 18,000 of their 20,000 rows
        holds the codes it returns plus under three float columns of the
        rows (one column's rows, their sort and the comparison mask), not
        blocks of several columns at once."""
        rng = np.random.default_rng(45)
        names = [f"c{i}" for i in range(45)]
        data = Dataset(
            [ColumnSpec(name, "continuous") for name in names],
            {name: rng.standard_normal(20000) for name in names},
        )
        rows = np.sort(rng.permutation(20000)[:18000])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = discretize_dataset(data, 3, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column = 8 * rows.size
        assert peak - sum(out.values(name).nbytes for name in names) < 3 * column
        want = discretize_dataset(data.take(rows), 3)
        for name in names:
            assert out.spec(name) == want.spec(name)
            assert out.values(name).dtype == want.values(name).dtype
            assert np.array_equal(out.values(name), want.values(name))

    def test_degenerate_warning_names_the_caller(self):
        data = Dataset([ColumnSpec("a", "continuous")], {"a": np.full(10, 2.0)})
        with pytest.warns(DegenerateColumnWarning) as alone:
            discretize(data.values("a"), 3)
        with pytest.warns(DegenerateColumnWarning) as dataset_wide:
            discretize_dataset(data, 3)
        assert [w.filename for w in alone] == [__file__]
        assert [w.filename for w in dataset_wide] == [__file__]


def discretize_reference(values, bins):
    """One column at a time: np.quantile edges, np.unique, np.searchsorted."""
    if np.unique(values).size < 2:
        return np.zeros(values.size, dtype=np.int64), 1, np.empty(0)
    edges = np.unique(np.quantile(values, np.arange(1, bins) / bins))
    return np.searchsorted(edges, values, side="left"), edges.size + 1, edges


# ties, signed zeros, constant columns and spreads wide enough to round
POOLED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, -1e300, 1e300, 3.0])
SPREAD = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def continuous_columns(draw):
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["pooled", "spread", "constant"]))
        if shape == "constant":
            values = [draw(POOLED)] * n
        else:
            values = draw(st.lists(POOLED if shape == "pooled" else SPREAD, min_size=n, max_size=n))
        columns.append(np.array(values, dtype=np.float64))
    return columns


@settings(max_examples=150, deadline=None)
@given(continuous_columns(), st.one_of(st.integers(2, 6), st.integers(2, 300)))
def test_discretize_dataset_matches_per_column_reference(columns, bins):
    n = columns[0].size
    names = [f"c{i}" for i in range(len(columns))]
    data = Dataset(
        [ColumnSpec("b", "binary")] + [ColumnSpec(name, "continuous") for name in names],
        {"b": np.arange(n) % 2, **dict(zip(names, columns))},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = discretize_dataset(data, bins)
    degenerate = 0
    for name, values in zip(names, columns):
        codes, n_bins, edges = discretize_reference(values, bins)
        degenerate += n_bins == 1
        assert out.values(name).dtype == np.min_scalar_type(n_bins - 1)
        assert out.values(name).tolist() == codes.tolist()
        assert out.arity(name) == n_bins
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            disc = discretize(values, bins)
        assert disc.codes.tolist() == codes.tolist()
        assert (disc.n_bins, disc.degenerate) == (n_bins, n_bins == 1)
        assert np.array_equal(disc.edges, edges)
        assert len(alone) == (n_bins == 1)
    assert [w.category for w in caught] == [DegenerateColumnWarning] * degenerate


class TestContingency:
    def test_two_by_two_all_ones(self):
        data = binary_dataset(x=[0, 0, 1, 1], y=[0, 1, 0, 1])
        table = contingency(data, "x", "y")
        assert table.counts.shape == (2, 2, 1)
        assert np.array_equal(table.counts[:, :, 0], np.ones((2, 2), dtype=int))
        assert table.total == 4

    def test_z_slices(self):
        data = binary_dataset(
            x=[0, 0, 1, 1, 0, 0, 1, 1],
            y=[0, 1, 0, 1, 0, 1, 0, 1],
            z=[0, 0, 0, 0, 1, 1, 1, 1],
        )
        table = contingency(data, "x", "y", ["z"])
        assert table.counts.shape == (2, 2, 2)
        assert table.counts.sum() == 8
        assert np.array_equal(table.counts[:, :, 0], table.counts[:, :, 1])

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(17)
        data = binary_dataset(
            x=rng.integers(0, 2, 500),
            y=rng.integers(0, 2, 500),
            z=rng.integers(0, 2, 500),
        )
        table = contingency(data, "x", "y", ["z"])
        naive = {}
        xv, yv, zv = data.values("x"), data.values("y"), data.values("z")
        for i in range(500):
            key = (xv[i], yv[i], zv[i])
            naive[key] = naive.get(key, 0) + 1
        for (i, j, s), count in naive.items():
            assert table.counts[i, j, s] == count
        assert table.counts.sum() == 500

    def test_continuous_rejected(self):
        data = Dataset(
            [ColumnSpec("x", "continuous"), ColumnSpec("y", "binary")],
            {"x": np.linspace(0, 1, 10), "y": np.zeros(10, dtype=int)},
        )
        with pytest.raises(ContinuousColumn):
            contingency(data, "x", "y")

    def test_arity_from_full_dataset(self):
        # category 2 of z never co-occurs with x=1; its slot must still exist
        data = categorical_dataset(
            {"x": 2, "y": 2, "z": 3},
            x=[0, 0, 1, 1],
            y=[0, 1, 0, 1],
            z=[2, 2, 0, 1],
        )
        table = contingency(data, "x", "y", ["z"])
        assert table.counts.shape == (2, 2, 3)


class TestG2:
    def test_perfectly_independent_table(self):
        table = ContingencyTable(
            dims=(2, 2), counts=np.array([[25, 25], [25, 25]]).reshape(2, 2, 1), total=100
        )
        res = g2_from_table(table, alpha=0.01)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.independent

    def test_hand_computed_dependent_table(self):
        # 2 * (30 ln(30/20) + 10 ln(10/20)) * 2 = 20.9299...
        table = ContingencyTable(
            dims=(2, 2), counts=np.array([[30, 10], [10, 30]]).reshape(2, 2, 1), total=80
        )
        res = g2_from_table(table, alpha=0.01)
        want = 2 * (30 * math.log(30 / 20) + 10 * math.log(10 / 20)) * 2
        assert res.statistic == pytest.approx(want, rel=1e-12)
        assert res.statistic == pytest.approx(20.929925750581913, rel=1e-10)
        assert res.dof == 1
        assert not res.independent

    def test_copy_column(self):
        half = 50
        data = binary_dataset(x=[0] * half + [1] * half, y=[0] * half + [1] * half)
        res = g2_test(data, "x", "y", alpha=0.01)
        assert res.statistic == pytest.approx(2 * 100 * math.log(2), rel=1e-12)
        assert res.p_value < 1e-6

    def test_statistic_matches_oracle_random_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            counts = rng.integers(0, 12, size=(3, 2, 4))
            table = ContingencyTable(dims=(3, 2, 2, 2), counts=counts, total=int(counts.sum()))
            res = g2_from_table(table, alpha=0.05)
            assert res.statistic == pytest.approx(g2_oracle(counts), rel=1e-12, abs=1e-12)

    def test_swap_xy_invariant(self):
        rng = np.random.default_rng(29)
        data = binary_dataset(
            x=rng.integers(0, 2, 400), y=rng.integers(0, 2, 400), z=rng.integers(0, 2, 400)
        )
        a = g2_test(data, "x", "y", ["z"])
        b = g2_test(data, "y", "x", ["z"])
        assert a.statistic == pytest.approx(b.statistic, rel=1e-15)
        assert a.dof == b.dof

    def test_empty_stratum_reduces_dof_not_stat(self):
        counts = np.array([[[12, 0], [3, 0]], [[5, 0], [9, 0]]])  # stratum 1 empty
        with_empty = ContingencyTable(dims=(2, 2, 2), counts=counts, total=29)
        res = g2_from_table(with_empty, alpha=0.05)
        squeezed = ContingencyTable(
            dims=(2, 2, 1), counts=counts[:, :, :1], total=29
        )
        base = g2_from_table(squeezed, alpha=0.05)
        assert res.statistic == pytest.approx(base.statistic, rel=1e-15)
        assert res.dof == base.dof == 1

    def test_dof_zero_is_independent_unreliable(self):
        counts = np.array([[5], [7]]).reshape(2, 1, 1)  # y has a single category
        table = ContingencyTable(dims=(2, 1), counts=counts, total=12)
        res = g2_from_table(table, alpha=0.05)
        assert res.independent and not res.reliable
        assert res.dof == 0 and res.p_value == 1.0

    @pytest.mark.parametrize("z", [[], ["z"], ["z", "w"]])
    def test_empty_dataset_is_independent_unreliable(self, z):
        data = categorical_dataset({"x": 2, "y": 3, "z": 3, "w": 2}, x=[], y=[], z=[], w=[])
        assert g2_test(data, "x", "y", z) == CITestResult(0.0, 0, 1.0, True, False)

    def test_unreliable_counts_as_independent(self):
        # 12 rows, dof 4 after conditioning -> needs 20; verdict forced to
        # independent with the flag down
        data = categorical_dataset(
            {"x": 2, "y": 2, "z": 4},
            x=[0, 1] * 6,
            y=[0, 0, 1, 1] * 3,
            z=[0, 1, 2, 3] * 3,
        )
        res = g2_test(data, "x", "y", ["z"], alpha=0.5)
        assert not res.reliable
        assert res.independent

    def test_statistic_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(2, 3, 2))
            table = ContingencyTable(dims=(2, 3, 2), counts=counts, total=int(counts.sum()))
            assert g2_from_table(table, alpha=0.05).statistic >= 0

    def test_p_value_monotone_in_statistic(self):
        from causaluplift.special import chi_square_sf

        stats = np.linspace(0, 40, 50)
        ps = [chi_square_sf(float(s), 3) for s in stats]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_null_calibration(self):
        # X indep Y given Z by construction; rejection rate at alpha=.05
        # stays in the calibration band
        rng = np.random.default_rng(37)
        n, sims = 250, 2000
        rejections = 0
        for _ in range(sims):
            z = rng.integers(0, 2, n)
            x = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
            y = (rng.random(n) < 0.6 - 0.3 * z).astype(int)
            data = binary_dataset(x=x, y=y, z=z)
            res = g2_test(data, "x", "y", ["z"], alpha=0.05)
            rejections += 0 if res.p_value > 0.05 else 1
        rate = rejections / sims
        assert 0.03 <= rate <= 0.07

    def test_alpha_validated(self):
        data = binary_dataset(x=[0, 1], y=[0, 1])
        with pytest.raises(ValueError):
            g2_test(data, "x", "y", alpha=1.5)


def batch_dataset(seed, n, arities, used, copy):
    """Categorical columns c0, c1, ... of the given arities over ``n`` rows.
    Column i takes only ``used[i]`` of its levels (the rest stay empty), and
    where ``copy[i]`` it repeats the previous column's code on most rows, so
    some tests find dependence."""
    rng = np.random.default_rng(seed)
    arrays = {}
    prev = None
    for i, (arity, k) in enumerate(zip(arities, used)):
        levels = rng.permutation(arity)[:k]
        codes = levels[rng.integers(0, k, n)]
        if copy[i] and prev is not None:
            keep = rng.random(n) < 0.8
            codes = np.where(keep & (prev < arity) & np.isin(prev, levels), prev, codes)
        arrays[f"c{i}"] = codes
        prev = codes
    return categorical_dataset(dict(zip(arrays, arities)), **arrays)


def g2_scalar_oracle(table, alpha):
    """The G-squared test of one table evaluated alone, as a lone scalar
    evaluation does it: the cell terms in the table's C order over its
    non-empty cells, added with ``.sum()``. Every batched result must have
    its bits."""
    counts = table.counts
    nx, ny, nz = counts.shape
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    tot = col.sum(axis=0)
    i, j, k = np.nonzero(counts)
    observed = counts[i, j, k].astype(np.float64)
    expected = row[i, k].astype(np.float64) * col[j, k] / tot[k]
    stat = 2.0 * float((observed * np.log(observed / expected)).sum())
    dof = (nx - 1) * (ny - 1) * int(np.count_nonzero(tot))
    if dof <= 0:
        return CITestResult(0.0, 0, 1.0, independent=True, reliable=False)
    p_value = chi_square_sf(stat, dof)
    reliable = table.total >= 5 * dof
    independent = (p_value > alpha) if reliable else True
    return CITestResult(stat, dof, p_value, independent, reliable)


def result_bits(res):
    """Every field of a test result, floats by their bits."""
    return (res.statistic.hex(), res.dof, res.p_value.hex(), res.independent, res.reliable)


@st.composite
def batch_cases(draw):
    n_x = draw(st.integers(1, 5))
    n_z = draw(st.integers(0, 3))
    arities = [draw(st.integers(1, 5)) for _ in range(n_x + 1 + n_z)]
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 300)),
        n_x,
        arities,
        [draw(st.integers(1, a)) for a in arities],
        [draw(st.booleans()) for _ in arities],
        draw(st.sampled_from([0.01, 0.05, 0.5])),
    )


def batch_against_scalar(case):
    """``g2_batch`` of a case's x columns, ``g2_test`` of each, and the
    scalar oracle of each x's table, as bits, with those tables."""
    seed, n, n_x, arities, used, copy, alpha = case
    data = batch_dataset(seed, n, arities, used, copy)
    names = data.columns
    xs, y, z = names[:n_x], names[n_x], names[n_x + 1 :]
    batch = [result_bits(r) for r in g2_batch(data, xs, y, z, alpha)]
    alone = [result_bits(g2_test(data, x, y, z, alpha)) for x in xs]
    tables = [contingency(data, x, y, z) for x in xs]
    scalar = [result_bits(g2_scalar_oracle(t, alpha)) for t in tables]
    return batch, alone, scalar, tables


class TestG2Batch:
    @settings(max_examples=300, deadline=None)
    @given(batch_cases())
    def test_each_result_is_g2_test_bit_for_bit(self, case):
        batch, alone, scalar, _ = batch_against_scalar(case)
        assert batch == alone == scalar

    # (seed, rows, x columns, arities, used levels, copies, alpha)
    COVERING = [
        # unconditional, many binary and ternary candidates
        (1, 300, 5, [2, 3, 2, 3, 3, 2], [2, 3, 2, 3, 3, 2], [0, 1, 1, 0, 1, 0], 0.01),
        # one to three conditioning columns, tables of 8 or more non-empty cells
        (2, 300, 3, [3, 3, 3, 3, 2], [3, 3, 3, 3, 2], [0, 1, 1, 1, 0], 0.05),
        (3, 300, 2, [3, 2, 2, 2, 2, 2], [3, 2, 2, 2, 2, 2], [0, 1, 1, 0, 0, 1], 0.05),
        # tables over 64 cells, counted by bincount
        (4, 300, 3, [5, 5, 3, 5], [5, 5, 3, 5], [0, 1, 1, 0], 0.05),
        # empty levels and strata
        (5, 200, 2, [4, 4, 3, 5, 4], [2, 3, 3, 2, 3], [0, 1, 0, 1, 0], 0.05),
        # a constant candidate (dof 0) beside others
        (6, 100, 3, [1, 2, 3, 2], [1, 2, 3, 2], [0, 0, 1, 0], 0.05),
        # too few rows per degree of freedom: unreliable
        (7, 30, 2, [3, 3, 3, 3, 2], [3, 3, 3, 3, 2], [0, 1, 0, 0, 0], 0.5),
    ]

    def test_covering_cases(self):
        seen = set()
        for case in self.COVERING:
            batch, alone, scalar, tables = batch_against_scalar(case)
            assert batch == alone == scalar
            for bits, table in zip(scalar, tables):
                seen.add(f"z{len(table.dims) - 2}")
                if np.count_nonzero(table.counts) >= 8:
                    seen.add(">=8 terms")
                if table.counts.size > _kernels.BITS_MAX_CELLS:
                    seen.add("bincount")
                if (table.counts.sum(axis=(0, 1)) == 0).any():
                    seen.add("empty stratum")
                if bits[1] == 0:
                    seen.add("dof 0")
                elif not bits[4]:
                    seen.add("unreliable")
                elif not bits[3]:
                    seen.add("dependent")
        assert seen == {
            "z0", "z1", "z2", "z3", ">=8 terms", "bincount", "empty stratum",
            "dof 0", "unreliable", "dependent",
        }

    def test_checks_like_g2_test(self):
        data = Dataset(
            [ColumnSpec("a", "binary"), ColumnSpec("b", "binary"), ColumnSpec("v", "continuous")],
            {"a": [0, 1, 1], "b": [1, 0, 1], "v": [0.5, 1.5, 2.5]},
        )
        with pytest.raises(ContinuousColumn):
            g2_batch(data, ["a", "v"], "b")
        with pytest.raises(ValueError, match="alpha"):
            g2_batch(data, ["a", "b"], "b", alpha=1.0)
        assert g2_batch(data, [], "b") == []
