"""Contingency tables, the G-squared conditional independence test, and
equal-frequency discretization of continuous columns.

The test statistic is 2 * sum O * ln(O / E) over non-empty cells, with the
independence expectation computed separately inside every stratum of the
conditioning configuration. Strata with no rows contribute nothing and
reduce the effective degrees of freedom.

Tables are counted by ``_kernels.joint_counts``, from the packed level
bitsets a ``Dataset`` keeps per column (``Dataset.level_bits``) when the
table is small, by ``bincount`` otherwise; the counts, and so every
statistic and p-value bit, are the same either way. Discretization bins all
continuous columns of a dataset in one pass: one ``np.quantile`` over their
sorted stack, and each code as the number of distinct edges below a value.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._kernels import joint_counts
from .data import ColumnSpec, Dataset
from .errors import ContinuousColumn, DegenerateColumnWarning, EmptyColumn
from .special import chi_square_sf

DiscretizedColumn = namedtuple("DiscretizedColumn", "codes n_bins degenerate edges")


def _discretize_rows(X, bins):
    """Equal-frequency codes of every row of ``X`` (one column per row).

    Returns the int64 codes, the sorted ``(rows, bins - 1)`` edges, a mask
    of each edge's first occurrence, and each row's degenerate flag. A
    value's code is the number of distinct edges below it, which is
    ``np.searchsorted(np.unique(edges), value)``.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if X.shape[1] == 0:
        raise EmptyColumn("cannot discretize an empty column")
    # A sorted copy holds the same order statistics, and np.quantile finds
    # them in it about twice as fast as it partitions an unsorted one.
    ordered = np.sort(X, axis=1)
    if not np.isfinite(ordered[:, [0, -1]]).all():
        raise ValueError("column contains NaN or infinity")
    degenerate = ordered[:, 0] == ordered[:, -1]
    qs = np.arange(1, bins) / bins
    edges = np.quantile(ordered, qs, axis=1, overwrite_input=True).T
    edges.sort(axis=1)
    distinct = np.ones(edges.shape, dtype=bool)
    distinct[:, 1:] = edges[:, 1:] != edges[:, :-1]
    counted = np.where(distinct, edges, np.inf)  # no value exceeds a repeat
    codes = np.zeros(X.shape, dtype=np.min_scalar_type(bins - 1))
    for j in range(bins - 1):
        codes += X > counted[:, j, None]
    return codes.astype(np.int64), edges, distinct, degenerate


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
    codes, edges, distinct, degenerate = _discretize_rows(values[None], bins)
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
        X = np.stack([data.values(n) for n in continuous])
        codes, _, distinct, degenerate = _discretize_rows(X, bins)
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
    return Dataset(specs, arrays)


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
