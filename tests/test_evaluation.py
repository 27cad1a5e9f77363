import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift.datagen import GroundTruth
from causaluplift.errors import (
    EmptyControl,
    InvalidK,
    LengthMismatch,
    TooFewSamples,
    ZeroVarianceWarning,
)
from causaluplift.evaluation import (
    causal_accuracy,
    kfold_split,
    paired_t_test,
    prf,
    qini_coefficient,
    qini_curve,
)


def truth_of(effects):
    effects = np.asarray(effects, dtype=float)
    n = effects.shape[0]
    return GroundTruth(
        effect=effects,
        response=np.full(n, "", dtype=object),
        potential_y0=np.zeros(n, dtype=np.int64),
        potential_y1=np.zeros(n, dtype=np.int64),
    )


class TestPrf:
    def test_perfect(self):
        score = prf({"A", "B"}, {"A", "B"})
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_partial(self):
        score = prf({"A"}, {"A", "B"})
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f1 == pytest.approx(2 / 3)

    def test_empty_found_convention(self):
        score = prf(set(), {"A"})
        assert (score.precision, score.recall, score.f1) == (1.0, 0.0, 0.0)

    def test_both_empty(self):
        score = prf(set(), set())
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_no_hit_convention(self):
        score = prf({"A"}, {"B"})
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_relabeling_symmetry(self):
        a = prf({"A", "B"}, {"B", "C"})
        b = prf({"X", "Y"}, {"Y", "Z"})
        assert a == b


class TestCausalAccuracy:
    def test_oracle_assignments(self):
        truth = truth_of([0.3, -0.2, 0.1, -0.4])
        preds = (np.asarray(truth.effect) > 0).astype(int)
        assert causal_accuracy(preds, truth, theta=0.0) == 1.0

    def test_all_zero_on_30_percent_positive(self):
        effects = np.array([0.5] * 3 + [-0.5] * 7)
        assert causal_accuracy(np.zeros(10, dtype=int), truth_of(effects)) == 0.7

    def test_flip_complement(self):
        rng = np.random.default_rng(91)
        effects = rng.normal(size=200)  # no exact zeros a.s.
        preds = rng.integers(0, 2, 200)
        a = causal_accuracy(preds, truth_of(effects), theta=0.0)
        b = causal_accuracy(1 - preds, truth_of(effects), theta=0.0)
        assert a + b == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            causal_accuracy(np.zeros(3, dtype=int), truth_of([0.1, 0.2]))

    def test_empty_input(self):
        with pytest.raises(LengthMismatch, match="empty input"):
            causal_accuracy(np.zeros(0, dtype=int), truth_of([]))

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            causal_accuracy(np.zeros(2, dtype=int), truth_of([0.1, -0.2]), theta=theta)


class TestQiniCoefficient:
    def test_known_counts_fixture(self):
        outcomes = np.array([1] * 30 + [0] * 70 + [1] * 10 + [0] * 90)
        treatments = np.array([1] * 100 + [0] * 100)
        assert qini_coefficient(outcomes, treatments) == 20.0

    def test_balanced_identical_rates(self):
        outcomes = np.array([1, 0, 1, 0])
        treatments = np.array([1, 1, 0, 0])
        assert qini_coefficient(outcomes, treatments) == 0.0

    def test_empty_control(self):
        with pytest.raises(EmptyControl):
            qini_coefficient(np.array([1, 0]), np.array([1, 1]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            qini_coefficient(np.array([1]), np.array([1, 0]))

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(92)
        outcomes = rng.integers(0, 2, 300)
        treatments = rng.integers(0, 2, 300)
        base = qini_coefficient(outcomes, treatments)
        perm = rng.permutation(300)
        assert qini_coefficient(outcomes[perm], treatments[perm]) == base


class TestQiniCurve:
    def test_starts_at_origin_ends_at_one(self):
        rng = np.random.default_rng(93)
        curve = qini_curve(
            rng.normal(size=200), rng.integers(0, 2, 200), rng.integers(0, 2, 200)
        )
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1][0] == 1.0
        fractions = [f for f, _ in curve.points]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))

    def test_per_row_resolution_matches_prefix_oracle(self):
        rng = np.random.default_rng(94)
        n = 120
        effects = rng.normal(size=n)
        outcomes = rng.integers(0, 2, n)
        treatments = rng.integers(0, 2, n)
        curve = qini_curve(effects, outcomes, treatments, n_points=n)
        order = np.argsort(-effects, kind="stable")
        for k in range(1, n + 1):
            sl = order[:k]
            n_t0 = (treatments[sl] == 0).sum()
            frac, uplift = curve.points[k]
            assert frac == k / n
            if n_t0 == 0:
                assert uplift is None
                assert frac in curve.gaps
            else:
                n11 = ((outcomes[sl] == 1) & (treatments[sl] == 1)).sum()
                n10 = ((outcomes[sl] == 1) & (treatments[sl] == 0)).sum()
                want = n11 - n10 * (treatments[sl] == 1).sum() / n_t0
                assert uplift == pytest.approx(want, abs=1e-12)

    def test_single_uniform_effect_final_point(self):
        rng = np.random.default_rng(95)
        outcomes = rng.integers(0, 2, 400)
        treatments = rng.integers(0, 2, 400)
        curve = qini_curve(np.zeros(400), outcomes, treatments)
        assert curve.points[-1][1] == pytest.approx(
            qini_coefficient(outcomes, treatments)
        )

    def test_null_data_stays_near_diagonal(self):
        # uplift-free data: the curve area has mean ~0 over resamples; check
        # the observed areas stay inside a generous +-2 sigma band
        rng = np.random.default_rng(96)
        n = 400
        areas = []
        for _ in range(100):
            outcomes = rng.integers(0, 2, n)
            treatments = rng.integers(0, 2, n)
            preds = rng.normal(size=n)
            areas.append(qini_curve(preds, outcomes, treatments).coefficient_area)
        areas = np.asarray(areas)
        assert abs(areas.mean()) <= 2 * areas.std() / np.sqrt(len(areas)) * 2

    def test_oracle_ordering_dominates_random(self):
        rng = np.random.default_rng(97)
        n = 600
        segment = rng.integers(0, 3, n)
        true_effect = np.array([0.4, 0.0, -0.3])[segment]
        treatments = rng.integers(0, 2, n)
        u = rng.random(n)
        p0 = 0.3
        outcomes = np.where(
            treatments == 1, (u < p0 + true_effect).astype(int), (u < p0).astype(int)
        )
        oracle = qini_curve(true_effect, outcomes, treatments).coefficient_area
        beaten = sum(
            qini_curve(rng.normal(size=n), outcomes, treatments).coefficient_area > oracle
            for _ in range(100)
        )
        assert beaten == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            qini_curve(np.zeros(3), np.zeros(2, dtype=int), np.zeros(3, dtype=int))

    def test_empty_input(self):
        with pytest.raises(LengthMismatch, match="empty input"):
            qini_curve(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    def test_n_points_validated(self):
        with pytest.raises(ValueError):
            qini_curve(np.zeros(5), np.zeros(5, dtype=int), np.ones(5, dtype=int), n_points=1)


def prefix_uplift(outcomes, treatments):
    """n11 - n10 * nT1 / nT0 counted row by row in Python; None with no
    control row."""
    n11 = n10 = n_t1 = n_t0 = 0
    for y, t in zip(outcomes.tolist(), treatments.tolist()):
        n11 += y == 1 and t == 1
        n10 += y == 1 and t == 0
        n_t1 += t == 1
        n_t0 += t == 0
    return n11 - n10 * n_t1 / n_t0 if n_t0 else None


@st.composite
def qini_inputs(draw):
    n = draw(st.integers(1, 300))
    # few distinct effects, so most rows tie; codes outside {0, 1} count in
    # neither arm, and a run of treated rows leaves prefixes with no control
    effect = st.one_of(st.integers(-2, 2).map(float), st.floats(-5, 5))
    column = lambda values: st.lists(values, min_size=n, max_size=n).map(np.array)  # noqa: E731
    return (
        draw(column(effect)),
        draw(column(st.sampled_from([0, 1, 1, 2]))),
        draw(column(st.sampled_from([-1, 0, 1, 1, 1, 2]))),
        draw(st.integers(2, n + 3)),
    )


@settings(max_examples=100, deadline=None)
@given(qini_inputs())
def test_qini_curve_matches_row_by_row_prefix_counts(inputs):
    effects, outcomes, treatments, n_points = inputs
    n = len(effects)
    order = sorted(range(n), key=lambda i: -effects[i])  # stable, descending
    counts = [(k * n) // min(n_points, n) for k in range(1, min(n_points, n) + 1)]
    want = [(0.0, 0.0)] + [
        (c / n, prefix_uplift(outcomes[order[:c]], treatments[order[:c]])) for c in counts
    ]
    curve = qini_curve(effects, outcomes, treatments, n_points=n_points)
    assert curve.points == want
    assert curve.gaps == [f for f, u in want if u is None]
    whole = prefix_uplift(outcomes, treatments)
    if whole is None:
        with pytest.raises(EmptyControl):
            qini_coefficient(outcomes, treatments)
    else:
        assert qini_coefficient(outcomes, treatments) == whole


def test_qini_coefficient_of_no_rows_is_empty_control():
    with pytest.raises(EmptyControl):
        qini_coefficient(np.array([], dtype=int), np.array([], dtype=int))


class TestPairedT:
    def test_identical_samples(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_constant_shift_degenerates(self):
        with pytest.warns(ZeroVarianceWarning):
            t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert p == 0.0
        assert t == np.inf

    def test_matches_reference_computation(self):
        import mpmath

        a = np.array([0.83, 0.78, 0.91, 0.69, 0.88, 0.75])
        b = np.array([0.80, 0.72, 0.90, 0.71, 0.84, 0.70])
        t, p = paired_t_test(a, b)
        d = a - b
        t_want = d.mean() / (d.std(ddof=1) / np.sqrt(6))
        assert t == pytest.approx(t_want, rel=1e-12)
        nu = mpmath.mpf(5)
        c = mpmath.gamma(3) / (mpmath.sqrt(5 * mpmath.pi) * mpmath.gamma(mpmath.mpf(5) / 2))
        pdf = lambda u: c * (1 + u * u / nu) ** (-3)
        p_want = 2 * float(mpmath.quad(pdf, [abs(t_want), mpmath.inf]))
        assert p == pytest.approx(p_want, abs=1e-8)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            paired_t_test([1.0], [1.0, 2.0])
        with pytest.raises(TooFewSamples):
            paired_t_test([1.0], [2.0])


class TestKfold:
    def test_singleton_folds(self):
        folds = kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(test) == 1 for _, test in folds)

    def test_balanced_sizes(self):
        folds = kfold_split(7, 3, seed=1)
        sizes = sorted(len(test) for _, test in folds)
        assert sizes == [2, 2, 3]

    def test_disjoint_exhaustive(self):
        folds = kfold_split(23, 4, seed=2)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen.tolist()) == list(range(23))
        for train, test in folds:
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 23

    def test_deterministic(self):
        a = kfold_split(50, 5, seed=3)
        b = kfold_split(50, 5, seed=3)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            kfold_split(5, 1, seed=0)
        with pytest.raises(InvalidK):
            kfold_split(5, 6, seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 120), k_draw=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_kfold_split_property(n, k_draw, seed):
    k = 2 + int(k_draw * (n - 2))
    folds = kfold_split(n, k, seed)
    assert len(folds) == k
    tests = [test for _, test in folds]
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(n))  # disjoint, exhaustive
    sizes = [len(test) for test in tests]
    assert max(sizes) - min(sizes) <= 1
    for train, test in folds:
        assert np.array_equal(np.union1d(train, test), np.arange(n))
        assert len(train) + len(test) == n
    for (train_a, test_a), (train_b, test_b) in zip(folds, kfold_split(n, k, seed)):
        assert np.array_equal(train_a, train_b) and np.array_equal(test_a, test_b)
