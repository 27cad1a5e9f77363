import numpy as np
import pytest

from causaluplift.errors import DegenerateLabelsWarning
from causaluplift.logistic import (
    ConstantModel,
    LogisticModel,
    _sigmoid,
    fit_logistic,
    log_likelihood,
    log_likelihood_grad,
)


def logistic_sample(rng, weights, n):
    d = len(weights) - 1
    X = rng.standard_normal((n, d))
    z = weights[0] + X @ np.asarray(weights[1:])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    return X, y


class TestDegenerate:
    def test_all_positive_labels(self):
        X = np.zeros((9, 2))
        with pytest.warns(DegenerateLabelsWarning):
            model = fit_logistic(X, np.ones(9, dtype=int))
        assert isinstance(model, ConstantModel)
        assert model.p == pytest.approx(10 / 11)
        assert model.predict_proba(np.zeros((3, 2))).tolist() == [10 / 11] * 3

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="at least one training row"):
            fit_logistic(np.zeros((0, 2)), np.zeros(0))

    def test_all_negative_labels(self):
        with pytest.warns(DegenerateLabelsWarning):
            model = fit_logistic(np.zeros((4, 1)), np.zeros(4, dtype=int))
        assert model.p == pytest.approx(1 / 6)


class TestFit:
    def test_separable_toy_perfect_accuracy(self):
        X = np.array([[0.0, 0.0], [0.2, 0.1], [1.0, 1.0], [0.8, 1.1]])
        y = np.array([0, 0, 1, 1])
        model = fit_logistic(X, y)
        preds = (model.predict_proba(X) > 0.5).astype(int)
        assert np.array_equal(preds, y)

    def test_weight_recovery_within_two_se(self):
        rng = np.random.default_rng(51)
        true = np.array([-0.4, 1.2, -0.8])
        X, y = logistic_sample(rng, true, 5000)
        model = fit_logistic(X, y, {"l2_penalty": 1e-6})
        Xd = np.hstack([np.ones((5000, 1)), X])
        p = model.predict_proba(X)
        info = (Xd * (p * (1 - p))[:, None]).T @ Xd
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(model.weights - true) <= 2 * se)

    def test_convergence_flag(self):
        rng = np.random.default_rng(52)
        X, y = logistic_sample(rng, [0.0, 1.0], 500)
        model = fit_logistic(X, y)
        assert model.converged
        with pytest.warns(UserWarning, match="max_iterations"):
            lazy = fit_logistic(X, y, {"max_iterations": 1})
        assert not lazy.converged

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(53)
        X, y = logistic_sample(rng, [0.5, 2.0, -3.0], 800)
        model = fit_logistic(X, y)
        p = model.predict_proba(rng.standard_normal((200, 2)) * 10)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_round_trip(self):
        rng = np.random.default_rng(54)
        X, y = logistic_sample(rng, [0.1, -1.0], 300)
        model = fit_logistic(X, y)
        again = LogisticModel.from_dict(model.to_dict())
        assert np.array_equal(again.weights, model.weights)
        probe = rng.standard_normal((50, 1))
        assert np.array_equal(model.predict_proba(probe), again.predict_proba(probe))


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(55)
        X = rng.standard_normal((60, 3))
        y = (rng.random(60) < 0.5).astype(int)
        h = 1e-6
        for _ in range(20):
            w = rng.standard_normal(4)
            grad = log_likelihood_grad(w, X, y, l2_penalty=0.01)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (
                    log_likelihood(w + e, X, y, 0.01)
                    - log_likelihood(w - e, X, y, 0.01)
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_gradient_zero_at_optimum(self):
        rng = np.random.default_rng(56)
        X, y = logistic_sample(rng, [0.3, -0.7, 1.1], 1000)
        model = fit_logistic(X, y, {"l2_penalty": 1e-3, "convergence_tol": 1e-12})
        grad = log_likelihood_grad(model.weights, X, y, 1e-3)
        assert np.max(np.abs(grad)) < 1e-6


def masked_sigmoid(z):
    """The logistic link as two masked branches, each stable on its side."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    745.0, -745.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan,
])


@pytest.mark.parametrize("n", [*range(1, 65), 10_007])
def test_sigmoid_bits_match_the_masked_branches(n):
    # lengths 1-64 take every SIMD remainder lane; edge values sit anywhere
    rng = np.random.default_rng(n)
    z = np.concatenate([
        rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n),
        rng.uniform(-800.0, 800.0, n),
        np.where(rng.random(n) < 0.5, -1.0, 1.0) * 2.0 ** rng.uniform(-1074, 1023, n),
        rng.choice(SIGMOID_EDGES, n),
    ])
    rng.shuffle(z)
    for part in np.split(z, 4):
        got, want = _sigmoid(part), masked_sigmoid(part)
        nan = np.isnan(part)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
