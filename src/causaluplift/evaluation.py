"""Evaluation: parent-set precision/recall/F1, causal-classification
accuracy against ground truth, the Qini coefficient and curve, a paired
t-test, and deterministic k-fold splits.

The Qini coefficient of a subset is n_{Y=1,T=1} - n_{Y=1,T=0} * n_{T=1} /
n_{T=0}. The curve evaluates it on growing prefixes of the rows sorted by
predicted effect (descending, stable); its area is measured relative to the
straight line from (0, 0) to (1, final uplift), i.e. against random
targeting. Prefixes with an empty control group are emitted as gaps rather
than interpolated. Every point is read from one cumulative sum per count
over the sorted rows; the coefficient of a set is the one-prefix case.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classify import check_theta, rank_by_effect
from .errors import (
    EmptyControl,
    InvalidK,
    LengthMismatch,
    TooFewSamples,
    ZeroVarianceWarning,
)
from .special import student_t_sf


@dataclass(frozen=True)
class PrfScore:
    precision: float
    recall: float
    f1: float


def prf(found, truth):
    """Set-overlap precision/recall/F1.

    Empty conventions: precision is 1 when nothing was found (no false
    positives); recall is 1 when there was nothing to find; F1 is 0 when
    precision + recall is 0.
    """
    found = set(found)
    truth = set(truth)
    hits = len(found & truth)
    precision = hits / len(found) if found else 1.0
    recall = hits / len(truth) if truth else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return PrfScore(precision, recall, f1)


def causal_accuracy(assign, truth, theta=0.0):
    """Fraction of rows whose 0/1 assignment matches ``truth.effect > theta``."""
    check_theta(theta)
    assign = np.asarray(assign, dtype=np.int64)
    true_effect = np.asarray(truth.effect if hasattr(truth, "effect") else truth)
    if assign.shape[0] != true_effect.shape[0]:
        raise LengthMismatch(
            f"{assign.shape[0]} predictions vs {true_effect.shape[0]} truth rows"
        )
    if assign.shape[0] == 0:
        raise LengthMismatch("empty input")
    should_treat = (true_effect > theta).astype(np.int64)
    return float((assign == should_treat).mean())


def _prefix_uplifts(outcomes, treatments, ends):
    """The coefficient of the rows before each of ``ends``, or None where
    they hold no control row; the counts are Python ints, as one prefix's."""
    hit, treated, control = outcomes == 1, treatments == 1, treatments == 0
    n11, n10, n_t1, n_t0 = (
        np.concatenate(([0], np.cumsum(flags)))[ends].tolist()
        for flags in (hit & treated, hit & control, treated, control)
    )
    return [a - b * c / d if d else None for a, b, c, d in zip(n11, n10, n_t1, n_t0)]


def qini_coefficient(outcomes, treatments):
    """n11 - n10 * nT1 / nT0 over the supplied rows."""
    outcomes = np.asarray(outcomes)
    treatments = np.asarray(treatments)
    if outcomes.shape[0] != treatments.shape[0]:
        raise LengthMismatch("outcomes and treatments differ in length")
    (uplift,) = _prefix_uplifts(outcomes, treatments, [outcomes.shape[0]])
    if uplift is None:
        raise EmptyControl("no control rows in this subset")
    return uplift


@dataclass
class QiniCurve:
    points: list  # (fraction_treated, cumulative_uplift or None for a gap)
    coefficient_area: float
    gaps: list


def qini_curve(effects, outcomes, treatments, n_points=10):
    """Cumulative uplift against fraction treated, in predicted-effect order.

    ``coefficient_area`` is the trapezoidal area between the curve and the
    random-targeting diagonal to the final point. Prefixes whose control
    group is empty appear as gaps and are skipped by the area integral.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    outcomes = np.asarray(outcomes)
    treatments = np.asarray(treatments)
    effects = np.asarray(effects, dtype=np.float64)
    n = effects.shape[0]
    if outcomes.shape[0] != n or treatments.shape[0] != n:
        raise LengthMismatch("predictions, outcomes and treatments must align")
    if n == 0:
        raise LengthMismatch("empty input")
    n_points = min(n_points, n)

    order = rank_by_effect(effects)
    ends = [(k * n) // n_points for k in range(1, n_points + 1)]
    uplifts = _prefix_uplifts(outcomes[order], treatments[order], ends)
    points = [(0.0, 0.0), *((end / n, u) for end, u in zip(ends, uplifts))]
    gaps = [f for f, u in points if u is None]

    defined = [(f, u) for f, u in points if u is not None]
    xs = np.array([f for f, _ in defined])
    ys = np.array([u for _, u in defined])
    final_f, final_u = defined[-1]
    area = 0.0
    if len(defined) >= 2 and final_f > 0:
        slope = final_u / final_f
        area = float(np.trapezoid(ys - slope * xs, xs))
    return QiniCurve(points=points, coefficient_area=area, gaps=gaps)


def paired_t_test(a, b):
    """Two-sided paired t-test; returns (t_statistic, p_value).

    All-zero differences give (0, 1); a nonzero constant shift has no
    variance to test against and degenerates to p = 0 (flagged).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch("paired samples must have equal length")
    n = a.shape[0]
    if n < 2:
        raise TooFewSamples("need at least two pairs")
    diff = a - b
    if np.all(diff == 0.0):
        return 0.0, 1.0
    sd = float(diff.std(ddof=1))
    mean = float(diff.mean())
    if sd == 0.0:
        warnings.warn(
            "paired differences have zero variance; returning p=0",
            ZeroVarianceWarning,
            stacklevel=2,
        )
        return math.copysign(math.inf, mean), 0.0
    t_stat = mean / (sd / math.sqrt(n))
    p_value = 2.0 * student_t_sf(abs(t_stat), n - 1)
    return t_stat, min(1.0, p_value)


def kfold_split(n, k, seed):
    """Disjoint, exhaustive, size-balanced folds of range(n); deterministic."""
    if not 2 <= k <= n:
        raise InvalidK(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    out = []
    for fold in np.array_split(perm, k):
        train = np.ones(n, dtype=bool)
        train[fold] = False
        out.append((np.flatnonzero(train), np.sort(fold)))
    return out
