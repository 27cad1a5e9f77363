"""Contingency tables, the G-squared conditional independence test, and
equal-frequency discretization of continuous columns.

The test statistic is 2 * sum O * ln(O / E) over non-empty cells, with the
independence expectation computed separately inside every stratum of the
conditioning configuration. Strata with no rows contribute nothing and
reduce the effective degrees of freedom.
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


def discretize(values, bins):
    """Equal-frequency binning of a continuous column.

    Bin edges are the 1/bins ... (bins-1)/bins quantiles; a value equal to
    an edge goes to the lower bin. Columns with fewer than two distinct
    values collapse to a single category and are flagged (with a warning).
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyColumn("cannot discretize an empty column")
    if np.isnan(values).any():
        raise ValueError("column contains NaN")
    if np.unique(values).size < 2:
        warnings.warn(
            "constant column collapses to a single category",
            DegenerateColumnWarning,
            stacklevel=2,
        )
        return DiscretizedColumn(
            np.zeros(values.shape[0], dtype=np.int64), 1, True, np.empty(0)
        )
    qs = np.arange(1, bins) / bins
    edges = np.unique(np.quantile(values, qs))
    codes = np.searchsorted(edges, values, side="left").astype(np.int64)
    return DiscretizedColumn(codes, len(edges) + 1, False, edges)


def discretize_dataset(data, bins=3):
    """Replace every continuous column by its equal-frequency code column.

    Applied once, dataset-wide, so category arities do not depend on the
    stratum a test later conditions on.
    """
    specs = []
    arrays = {}
    for name in data.columns:
        spec = data.spec(name)
        values = data.values(name)
        if spec.kind == "continuous":
            disc = discretize(values, bins)
            labels = tuple(f"q{i}" for i in range(disc.n_bins))
            spec = ColumnSpec(name, "categorical", spec.role, labels)
            values = disc.codes
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
    z = list(z)
    for name in [x, y, *z]:
        _require_categorical(data, name)
    nx = data.arity(x)
    ny = data.arity(y)
    z_arities = [data.arity(name) for name in z]
    nz = 1
    for a in z_arities:
        nz *= a

    xc = data.values(x)
    yc = data.values(y)
    zf = np.zeros(data.n_rows, dtype=np.int64)
    for name, arity in zip(z, z_arities):
        zf = zf * arity + data.values(name)

    counts = joint_counts(xc, yc, zf, nx, ny, nz)
    return ContingencyTable(
        dims=tuple([nx, ny, *z_arities]),
        counts=counts,
        total=int(counts.sum()),
    )


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
    counts = table.counts.astype(np.float64)
    nx, ny, nz = counts.shape
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    tot = counts.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row * col / tot
        terms = counts * np.log(counts / expected)
    stat = 2.0 * float(terms[counts > 0].sum())

    n_empty = int((tot == 0).sum())
    dof = (nx - 1) * (ny - 1) * (nz - n_empty)
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
