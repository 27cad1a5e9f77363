"""Contingency tables, the G-squared conditional independence test, and
equal-frequency discretization of continuous columns.

The test statistic is 2 * sum O * ln(O / E) over non-empty cells, with the
independence expectation computed separately inside every stratum of the
conditioning configuration. Strata with no rows contribute nothing and
reduce the effective degrees of freedom.

Every test runs through one path. ``_count_tables`` counts the tables of
several x against one y and z together. It is the one place that picks the
counter, by table size: a table of at most ``_kernels.BITS_MAX_CELLS``
cells is counted from the packed level bitsets a ``Dataset`` keeps per
column (``Dataset.level_bits``), any other by ``bincount``. The counts, and
so every statistic and p-value bit, are the same either way.
``_g2_tables`` evaluates the terms of all of them together and sums each
table's own slice of terms, so a table's result does not depend on the
tables counted beside it: ``g2_test`` is ``g2_batch`` of one x, and
``g2_from_table`` is ``_g2_tables`` of one table.

Discretization bins one continuous column at a time: one sort of the
column, the distinct edges read from it where ``np.quantile`` would
interpolate them, and each code as the number of edges below a value
(``_kernels.bin_codes``), stored in the narrowest dtype of the column's
arity.
"""

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import BITS_MAX_CELLS, bin_codes, quantile_cuts, stacked_bit_counts, stacked_counts
from .csvio import code_dtype
from .data import ColumnSpec, Dataset
from .errors import ContinuousColumn, DegenerateColumnWarning, EmptyColumn
from .special import chi_square_sf

DiscretizedColumn = namedtuple("DiscretizedColumn", "codes n_bins degenerate edges")


def discretize(values, bins):
    """Equal-frequency binning of a continuous column.

    Bin edges are the distinct 1/bins ... (bins-1)/bins quantiles, read from
    one sort of the column (``_kernels.quantile_cuts``); a value's code is
    the number of edges below it (``_kernels.bin_codes``), so a value equal
    to an edge goes to the lower bin, and the codes are stored as
    ``code_dtype(n_bins)``. Columns with fewer than two distinct values
    collapse to a single category and are flagged (with a warning).
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyColumn("cannot discretize an empty column")
    ordered = np.sort(values)
    if not np.isfinite(ordered[[0, -1]]).all():
        raise ValueError("column contains NaN or infinity")
    if ordered[0] == ordered[-1]:
        # at the caller's line, also when discretize_dataset bins the column
        nested = sys._getframe(1).f_code is discretize_dataset.__code__
        warnings.warn(
            "constant column collapses to a single category",
            DegenerateColumnWarning,
            stacklevel=2 + nested,
        )
        return DiscretizedColumn(np.zeros(values.size, code_dtype(1)), 1, True, np.empty(0))
    edges = quantile_cuts(ordered, np.arange(1, bins) / bins)
    del ordered
    codes = bin_codes(values, edges, code_dtype(edges.size + 1))
    return DiscretizedColumn(codes, edges.size + 1, False, edges)


def discretize_dataset(data, bins=3, rows=None):
    """Replace every continuous column by its equal-frequency code column.

    Applied once, dataset-wide, so category arities do not depend on the
    stratum a test later conditions on. Each continuous column is binned
    alone by ``discretize``. ``rows`` (an index array), when given, gives
    ``discretize_dataset(data.take(rows))`` while holding only one column's
    rows at a time.
    """
    specs = []
    arrays = {}
    for name in data.columns:
        spec = data.spec(name)
        values = data.values(name) if rows is None else data.values(name)[rows]
        if spec.kind == "continuous":
            column = discretize(values, bins)
            labels = tuple(f"q{k}" for k in range(column.n_bins))
            spec = ColumnSpec(name, "categorical", spec.role, labels)
            values = column.codes
        specs.append(spec)
        arrays[name] = values
    # the other columns are the dataset's (or their rows), and every code
    # indexes its labels
    return Dataset.of_valid(specs, arrays)


@dataclass(frozen=True)
class ContingencyTable:
    dims: tuple  # (|X|, |Y|, |Z_1|, ..., |Z_k|)
    counts: np.ndarray  # shape (|X|, |Y|, prod |Z_i|)
    total: int


class CITestResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float
    independent: bool
    reliable: bool


def _count_tables(data, xs, y, z):
    """The count table of every x of ``xs`` against y within each
    configuration of z, stacked: an ``(sum |x|, |y|, prod |z_i|)`` int64
    array whose rows are the x levels, x after x, and the list of x
    arities. Tables of at most ``BITS_MAX_CELLS`` cells are counted from
    the dataset's packed level bitsets, any other by ``bincount``.
    """
    names = [y, *z]
    for name in [*xs, *names]:
        if data.spec(name).kind == "continuous":
            raise ContinuousColumn(name)
    nxs = [data.arity(x) for x in xs]
    arities = [data.arity(name) for name in names]
    if xs and max(nxs) * math.prod(arities) <= BITS_MAX_CELLS:
        counts = stacked_bit_counts(
            [data.level_bits(x) for x in xs], [data.level_bits(name) for name in names]
        )
    else:
        counts = stacked_counts(
            [data.values(x) for x in xs], nxs, [data.values(name) for name in names], arities
        )
    return counts.reshape(sum(nxs), arities[0], math.prod(arities[1:])), nxs


def contingency(data, x, y, z=()):
    """Joint count table of (x, y) within each configuration of z.

    Arities come from the full dataset, not the stratum, so empty categories
    keep their slots.
    """
    counts, _ = _count_tables(data, [x], y, z)
    dims = tuple(data.arity(name) for name in [x, y, *z])
    return ContingencyTable(dims=dims, counts=counts, total=data.n_rows)


def _g2_tables(counts, nxs, total, alpha):
    """The G-squared test of every table stacked in ``counts``.

    ``counts`` is ``(sum nxs, ny, nz)``: table ``t`` is the next ``nxs[t]``
    rows, and every table counts the same ``total`` rows, so all share their
    (y, z) margins. The terms O ln(O / E) of all tables' non-empty cells are
    evaluated in one pass, in each table's C order; each table's terms are
    then one contiguous slice, summed alone with ``.sum()``, so a table gets
    the same bits whatever is stacked beside it.
    """
    _, ny, nz = counts.shape
    # integer margins, exact in any order
    col = counts[: nxs[0]].sum(axis=0)
    tot = col.sum(axis=0)
    row = counts.sum(axis=1)
    flat = counts.reshape(-1)
    cell = np.flatnonzero(flat)
    r, jk = np.divmod(cell, ny * nz)
    j, k = np.divmod(jk, nz)
    observed = flat[cell].astype(np.float64)
    expected = row[r, k].astype(np.float64) * col[j, k] / tot[k]
    terms = observed * np.log(observed / expected)
    ends = np.searchsorted(r, np.cumsum(nxs)).tolist()
    strata = int(np.count_nonzero(tot))

    results = []
    lo = 0
    for nx, hi in zip(nxs, ends):
        stat = 2.0 * float(terms[lo:hi].sum())
        lo = hi
        dof = (nx - 1) * (ny - 1) * strata
        if dof <= 0:
            results.append(CITestResult(0.0, 0, 1.0, independent=True, reliable=False))
            continue
        p_value = chi_square_sf(stat, dof)
        reliable = total >= 5 * dof
        independent = (p_value > alpha) if reliable else True
        results.append(CITestResult(stat, dof, p_value, independent, reliable))
    return results


def g2_from_table(table, alpha):
    """Evaluate the G-squared statistic and verdict on a prepared table."""
    counts = np.asarray(table.counts)
    return _g2_tables(counts, [counts.shape[0]], table.total, alpha)[0]


def g2_batch(data, xs, y, z=(), alpha=0.01):
    """The G-squared test of each x of ``xs`` against y given z, in one
    pass: the joint levels of y and z are ANDed (or flattened) once, every
    x's table is counted against them in one array operation, and the
    G-squared terms of all tables are evaluated together. Only the p-values
    are computed one test at a time. Each result is the one ``x`` gets
    alone.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    counts, nxs = _count_tables(data, xs, y, z)
    return _g2_tables(counts, nxs, data.n_rows, alpha) if xs else []


def g2_test(data, x, y, z=(), alpha=0.01):
    """G-squared conditional independence test of x and y given z.

    Unreliable tests (fewer than five samples per degree of freedom) return
    ``independent=True`` with ``reliable=False`` so callers can stay
    conservative about adding edges while still auditing the verdict.
    """
    return g2_batch(data, [x], y, z, alpha)[0]
