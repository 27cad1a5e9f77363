"""L2-regularized logistic regression fitted by Newton/IRLS.

The penalized log-likelihood and its gradient are module-level functions so
the analytic gradient can be checked against finite differences. The
intercept is unpenalized.
"""

import math
import numbers
import warnings

import numpy as np

from .errors import DegenerateLabelsWarning

LOGISTIC_DEFAULTS = {
    "max_iterations": 100,
    "l2_penalty": 1e-4,
    "convergence_tol": 1e-8,
}


def merge_hyperparameters(defaults, hyperparameters, integers=()):
    """``defaults`` updated with ``hyperparameters``, refusing unknown names,
    ``None`` for a key whose default is not ``None``, values of the keys in
    ``integers`` that are not integers (a bool is not), and values that are
    not positive and finite (``seed`` is exempt from this last check, and
    ``None`` from both)."""
    hyperparameters = hyperparameters or {}
    unknown = set(hyperparameters) - set(defaults)
    if unknown:
        raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
    hp = dict(defaults)
    hp.update(hyperparameters)
    for key, value in hp.items():
        if value is None:
            if defaults[key] is not None:
                raise ValueError(f"hyperparameter {key} must not be None")
            continue
        if key in integers and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"hyperparameter {key} must be an integer")
        if key != "seed" and not 0 < value < math.inf:
            raise ValueError(f"hyperparameter {key} must be positive and finite")
    return hp


def logistic_hyperparameters(hyperparameters=None):
    """The logistic defaults updated with ``hyperparameters``, every value checked."""
    return merge_hyperparameters(LOGISTIC_DEFAULTS, hyperparameters, integers=("max_iterations",))


class ConstantModel:
    """Degenerate model predicting a fixed smoothed probability."""

    def __init__(self, p):
        self.p = float(p)

    @classmethod
    def smoothed(cls, positives, rows):
        """The Laplace-smoothed rate (positives + 1) / (rows + 2)."""
        return cls((positives + 1) / (rows + 2))

    def predict_proba(self, X):
        return np.full(np.asarray(X).shape[0], self.p)

    def to_dict(self):
        return {"type": "constant", "p": self.p}

    def check(self, width):
        """Raise a ValueError unless the probability is in [0, 1]."""
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"constant model probability {self.p} is outside [0, 1]")

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["p"])


def _design(X):
    X = np.asarray(X, dtype=np.float64)
    return np.hstack([np.ones((X.shape[0], 1)), X])


def _sigmoid(z):
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so this is
    # 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) on each side, bit for bit,
    # and neither side can overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def log_likelihood(weights, X, y, l2_penalty):
    """Penalized Bernoulli log-likelihood; ``weights[0]`` is the intercept."""
    z = _design(X) @ weights
    y = np.asarray(y, dtype=np.float64)
    ll = -np.logaddexp(0.0, -z) @ y - np.logaddexp(0.0, z) @ (1.0 - y)
    return float(ll - 0.5 * l2_penalty * np.sum(weights[1:] ** 2))


def _score(Xd, y, weights, l2_penalty):
    """Penalized log-likelihood gradient and probabilities for design ``Xd``."""
    p = _sigmoid(Xd @ weights)
    grad = Xd.T @ (y - p)
    grad[1:] -= l2_penalty * weights[1:]
    return grad, p


def log_likelihood_grad(weights, X, y, l2_penalty):
    return _score(_design(X), np.asarray(y, dtype=np.float64), weights, l2_penalty)[0]


def single_class_model(y):
    """The smoothed constant, with a warning, when ``y`` holds one class;
    otherwise None."""
    n_pos = int(y.sum())
    if 0 < n_pos < y.shape[0]:
        return None
    warnings.warn(
        f"labels are single-class ({n_pos}/{y.shape[0]} positive); "
        "fitting a constant-probability model",
        DegenerateLabelsWarning,
        stacklevel=3,
    )
    return ConstantModel.smoothed(n_pos, y.shape[0])


class LogisticModel:
    def __init__(self, weights, converged):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.converged = bool(converged)

    def predict_proba(self, X):
        return _sigmoid(_design(X) @ self.weights)

    def to_dict(self):
        return {
            "type": "logistic",
            "weights": [float(w) for w in self.weights],
            "converged": self.converged,
        }

    def check(self, width):
        """Raise a ValueError unless the model holds an intercept and one
        finite weight per each of ``width`` features."""
        if self.weights.shape != (width + 1,):
            raise ValueError(
                f"logistic model has {self.weights.size} weights for {width} features"
                f" (expected {width + 1})"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("logistic model has a weight that is not finite")

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["weights"], payload["converged"])


def fit_logistic(X, y, hyperparameters=None):
    """Newton/IRLS fit; falls back to a smoothed constant on one-class labels."""
    hp = logistic_hyperparameters(hyperparameters)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    constant = single_class_model(y)
    if constant is not None:
        return constant

    Xd = _design(X)
    l2 = float(hp["l2_penalty"])
    penalty_mask = np.ones(Xd.shape[1])
    penalty_mask[0] = 0.0
    w = np.zeros(Xd.shape[1])
    converged = False
    for _ in range(int(hp["max_iterations"])):
        grad, p = _score(Xd, y, w, l2)
        wdiag = np.maximum(p * (1.0 - p), 1e-12)
        hess = (Xd * wdiag[:, None]).T @ Xd + np.diag(l2 * penalty_mask + 1e-12)
        step = np.linalg.solve(hess, grad)
        w = w + step
        if np.max(np.abs(step)) < hp["convergence_tol"]:
            converged = True
            break
    if not converged:
        warnings.warn(
            "Newton iteration hit max_iterations without converging",
            UserWarning,
            stacklevel=2,
        )
    return LogisticModel(w, converged)
