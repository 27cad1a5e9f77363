"""Contingency tables, the G-squared conditional independence test, and
equal-frequency discretization of continuous columns.

The test statistic is 2 * sum O * ln(O / E) over non-empty cells, with the
independence expectation computed separately inside every stratum of the
conditioning configuration. Strata with no rows contribute nothing and
reduce the effective degrees of freedom.

Tables are counted by ``_kernels.joint_counts``, from the packed level
bitsets a ``Dataset`` keeps for all its columns in one block
(``Dataset.level_block``) when the table is small, by ``bincount``
otherwise; the counts, and so every statistic and p-value bit, are the same
either way. ``g2_batch`` runs the tests of several x against one y and z in
one pass, each result bit for bit what ``g2_test`` gives. Discretization
bins all continuous columns of a dataset in one pass: one sort of their
stack, the edges read from it where ``np.quantile`` would interpolate them,
and each code as the number of distinct edges below a value.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._kernels import joint_counts, stacked_counts
from .data import ColumnSpec, Dataset
from .errors import ContinuousColumn, DegenerateColumnWarning, EmptyColumn
from .special import chi_square_sf

DiscretizedColumn = namedtuple("DiscretizedColumn", "codes n_bins degenerate edges")


def _sorted_quantiles(ordered, qs):
    """``np.quantile(ordered, qs, axis=1).T`` of rows already sorted, bit
    for bit, read at the linear rule's virtual indices without partitioning
    the rows again."""
    n = ordered.shape[1]
    virtual = (n - 1) * qs
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    # np.quantile takes the last value for an index at or past the end
    last = virtual >= n - 1
    below[last] = -1
    above[last] = -1
    gamma = virtual - below
    lo = ordered[:, below]
    hi = ordered[:, above]
    diff = hi - lo
    edges = lo + diff * gamma
    upper = gamma >= 0.5  # interpolated from the upper neighbour, as np.quantile does
    edges[:, upper] = (hi - diff * (1 - gamma))[:, upper]
    return edges


def _discretize_rows(columns, bins):
    """Equal-frequency codes of every column of ``columns`` (equal-length
    1-D float arrays).

    Returns the int64 codes (one row per column), the sorted ``(columns,
    bins - 1)`` edges, a mask of each edge's first occurrence, and each
    column's degenerate flag. A value's code is the number of distinct edges
    below it, which is ``np.searchsorted(np.unique(edges), value)``.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(columns[0]) == 0:
        raise EmptyColumn("cannot discretize an empty column")
    ordered = np.stack(columns)
    ordered.sort(axis=1)
    if not np.isfinite(ordered[:, [0, -1]]).all():
        raise ValueError("column contains NaN or infinity")
    degenerate = ordered[:, 0] == ordered[:, -1]
    edges = _sorted_quantiles(ordered, np.arange(1, bins) / bins)
    edges.sort(axis=1)
    distinct = np.ones(edges.shape, dtype=bool)
    distinct[:, 1:] = edges[:, 1:] != edges[:, :-1]
    counted = np.where(distinct, edges, np.inf)  # no value exceeds a repeat
    codes = np.empty(ordered.shape, dtype=np.int64)
    # eight columns at a time, so each edge's pass stays in cache: on 45
    # columns of 18k rows (2-core host), 300 bins took 90-118 ms this way
    # against 170-183 ms in one pass over the whole stack
    for lo in range(0, len(columns), 8):
        block = np.stack(columns[lo : lo + 8])
        code = np.zeros(block.shape, dtype=np.min_scalar_type(bins - 1))
        for j in range(bins - 1):
            code += block > counted[lo : lo + 8, j, None]
        codes[lo : lo + 8] = code
    return codes, edges, distinct, degenerate


def _warn_degenerate():
    warnings.warn(
        "constant column collapses to a single category",
        DegenerateColumnWarning,
        stacklevel=3,
    )


def discretize(values, bins):
    """Equal-frequency binning of a continuous column.

    Bin edges are the 1/bins ... (bins-1)/bins quantiles; a value equal to
    an edge goes to the lower bin. Columns with fewer than two distinct
    values collapse to a single category and are flagged (with a warning).
    """
    values = np.asarray(values, dtype=np.float64)
    codes, edges, distinct, degenerate = _discretize_rows([values], bins)
    if degenerate[0]:
        _warn_degenerate()
        return DiscretizedColumn(codes[0], 1, True, np.empty(0))
    edges = edges[0][distinct[0]]
    return DiscretizedColumn(codes[0], edges.size + 1, False, edges)


def discretize_dataset(data, bins=3):
    """Replace every continuous column by its equal-frequency code column.

    Applied once, dataset-wide, so category arities do not depend on the
    stratum a test later conditions on. The continuous columns are binned
    together in one pass, each exactly as ``discretize`` bins it alone.
    """
    continuous = [n for n in data.columns if data.spec(n).kind == "continuous"]
    row = {name: i for i, name in enumerate(continuous)}
    if continuous:
        codes, _, distinct, degenerate = _discretize_rows(
            [data.values(n) for n in continuous], bins
        )
        n_bins = np.where(degenerate, 1, distinct.sum(axis=1) + 1)
    specs = []
    arrays = {}
    for name in data.columns:
        spec = data.spec(name)
        values = data.values(name)
        if spec.kind == "continuous":
            i = row[name]
            if degenerate[i]:
                _warn_degenerate()
            labels = tuple(f"q{k}" for k in range(n_bins[i]))
            spec = ColumnSpec(name, "categorical", spec.role, labels)
            values = codes[i]
        specs.append(spec)
        arrays[name] = values
    # the other columns are the dataset's own, and every code indexes its labels
    return Dataset.of_valid(specs, arrays)


@dataclass(frozen=True)
class ContingencyTable:
    dims: tuple  # (|X|, |Y|, |Z_1|, ..., |Z_k|)
    counts: np.ndarray  # shape (|X|, |Y|, prod |Z_i|)
    total: int


def _require_categorical(data, name):
    if data.spec(name).kind == "continuous":
        raise ContinuousColumn(name)


def contingency(data, x, y, z=()):
    """Joint count table of (x, y) within each configuration of z.

    Arities come from the full dataset, not the stratum, so empty categories
    keep their slots.
    """
    names = [x, y, *z]
    for name in names:
        _require_categorical(data, name)
    arities = [data.arity(name) for name in names]
    counts = joint_counts(
        [data.values(name) for name in names],
        arities,
        [data.level_bits(name) for name in names],
    )
    return ContingencyTable(dims=tuple(arities), counts=counts, total=data.n_rows)


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool
    reliable: bool

    def to_dict(self):
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "independent": self.independent,
            "reliable": self.reliable,
        }


def g2_from_table(table, alpha):
    """Evaluate the G-squared statistic and verdict on a prepared table."""
    counts = table.counts
    nx, ny, nz = counts.shape
    # integer margins, exact in any order; the cell terms are summed in the
    # table's C order over its non-empty cells
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


def g2_test(data, x, y, z=(), alpha=0.01):
    """G-squared conditional independence test of x and y given z.

    Unreliable tests (fewer than five samples per degree of freedom) return
    ``independent=True`` with ``reliable=False`` so callers can stay
    conservative about adding edges while still auditing the verdict.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return g2_from_table(contingency(data, x, y, z), alpha)


def _g2_tables(counts, nxs, total, alpha):
    """``g2_from_table`` of every table stacked in ``counts``, bit for bit.

    ``counts`` is ``(sum nxs, ny, nz)``: table ``t`` is the next ``nxs[t]``
    rows, and every table counts the same ``total`` rows, so all share their
    (y, z) margins. The G-squared terms of all tables are evaluated in one
    pass, in each table's C order. ``g2_from_table`` adds a table's terms
    with ``.sum()``, whose pairwise scheme depends on how many there are, so
    tables with the same number of terms are summed together, each along
    one contiguous row.
    """
    _, ny, nz = counts.shape
    owner = np.repeat(np.arange(len(nxs)), nxs)
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
    size = np.bincount(owner[r], minlength=len(nxs))
    first = np.cumsum(size) - size
    sums = np.zeros(len(nxs))
    for m in np.unique(size[size > 0]).tolist():
        tables = np.flatnonzero(size == m)
        sums[tables] = terms[first[tables, None] + np.arange(m)].sum(axis=1)
    stats = (2.0 * sums).tolist()
    dofs = ((nxs - 1) * (ny - 1) * int(np.count_nonzero(tot))).tolist()

    results = []
    for stat, dof in zip(stats, dofs):
        if dof <= 0:
            results.append(CITestResult(0.0, 0, 1.0, independent=True, reliable=False))
            continue
        p_value = chi_square_sf(stat, dof)
        reliable = total >= 5 * dof
        independent = (p_value > alpha) if reliable else True
        results.append(CITestResult(stat, dof, p_value, independent, reliable))
    return results


def g2_batch(data, xs, y, z=(), alpha=0.01):
    """``[g2_test(data, x, y, z, alpha) for x in xs]``, bit for bit, in one
    pass: the joint levels of y and z are ANDed (or flattened) once, every
    x's table is counted against them in one array operation, and the
    G-squared terms of all tables are evaluated together. Only the p-values
    are computed one test at a time.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    names = [y, *z]
    for name in [*xs, *names]:
        _require_categorical(data, name)
    if not xs:
        return []
    nxs = np.array([data.arity(x) for x in xs])
    arities = [data.arity(name) for name in names]
    block, start = data.level_block()
    x_bits = None
    bits = None
    if all(name in start for name in [*xs, *names]):
        first = np.array([start[x] for x in xs])
        rows = np.repeat(first - (np.cumsum(nxs) - nxs), nxs) + np.arange(nxs.sum())
        x_bits = block[rows]
        bits = [block[start[n] : start[n] + a] for n, a in zip(names, arities)]
    counts = stacked_counts(
        (data.values(x) for x in xs),  # read by the bincount path only
        nxs.tolist(),
        [data.values(name) for name in names],
        arities,
        x_bits,
        bits,
    )
    counts = counts.reshape(-1, arities[0], math.prod(arities[1:]))
    return _g2_tables(counts, nxs, data.n_rows, alpha)
