"""Two-model causal classification.

Training discovers the outcome's parents (unless a parent set is supplied),
drops the treatment from it, projects the data onto those covariates, and
fits one probabilistic classifier per treatment arm. Prediction scores each
row under both models; the effect estimate is the probability difference
and the assignment thresholds it strictly.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .discovery import DiscoveryConfig, discover_parents
from .errors import (
    EmptyArm,
    EmptyParentSetWarning,
    MissingColumn,
    NonBinary,
    UnknownColumn,
    UnseenCategoryWarning,
)
from .forest import ForestModel, fit_forest, forest_hyperparameters
from .logistic import ConstantModel, LogisticModel, fit_logistic, logistic_hyperparameters
from .stats import discretize_dataset

MODEL_FORMAT = "causaluplift-model"
MODEL_FORMAT_VERSION = 1

_HYPERPARAMETERS = {"logistic": logistic_hyperparameters, "forest": forest_hyperparameters}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "logistic"
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        self.resolved()

    def resolved(self):
        """The kind's defaults updated with the hyperparameters, each checked
        as the kind's fit function checks it."""
        if self.kind not in _HYPERPARAMETERS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        return _HYPERPARAMETERS[self.kind](self.hyperparameters)


class FeatureEncoder:
    """Maps named dataset columns to the numeric training matrix.

    Categorical columns one-hot encode against the vocabulary frozen at
    training time; unseen labels at prediction map to all-zero indicators
    (with a warning). Binary and continuous columns pass through.
    """

    def __init__(self, entries):
        self.entries = entries

    @classmethod
    def build(cls, data, names):
        entries = []
        for name in names:
            spec = data.spec(name)
            entry = {"name": name, "kind": spec.kind}
            if spec.kind == "categorical":
                entry["categories"] = list(_labels(data, name))
            entries.append(entry)
        return cls(entries)

    @property
    def width(self):
        return sum(
            len(e["categories"]) if e["kind"] == "categorical" else 1
            for e in self.entries
        )

    def encode(self, data):
        cols = []
        for entry in self.entries:
            name = entry["name"]
            if name not in data:
                raise MissingColumn(name)
            values = data.values(name)
            if entry["kind"] == "categorical":
                vocab = {c: i for i, c in enumerate(entry["categories"])}
                if data.spec(name).kind == "continuous":
                    raise NonBinary(name)
                labels = _labels(data, name)
                mapped = np.array([vocab.get(c, -1) for c in labels], dtype=np.int64)
                idx = mapped[values]
                if (idx < 0).any():
                    warnings.warn(
                        f"column {name!r} has categories unseen at training time",
                        UnseenCategoryWarning,
                        stacklevel=3,
                    )
                block = np.zeros((data.n_rows, len(entry["categories"])))
                seen = idx >= 0
                block[np.nonzero(seen)[0], idx[seen]] = 1.0
                cols.append(block)
            else:
                cols.append(values.astype(np.float64).reshape(-1, 1))
        if not cols:
            return np.zeros((data.n_rows, 0))
        return np.hstack(cols)

    def to_dict(self):
        return {"entries": self.entries}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["entries"])


def _labels(data, name):
    """A discrete column's labels: its declared categories, else its codes as text."""
    cats = data.spec(name).categories
    return cats if cats is not None else tuple(str(i) for i in range(data.arity(name)))


@dataclass(frozen=True)
class UpliftPrediction:
    """Per-row arm probabilities, their difference and the 0/1 assignment,
    as equal-length arrays."""

    p1: np.ndarray
    p0: np.ndarray
    effect: np.ndarray
    assign: np.ndarray


@dataclass
class TwoModelPair:
    m1: object
    m0: object
    parents_excl_t: list
    encoder: FeatureEncoder
    treatment: str
    outcome: str
    metadata: dict = field(default_factory=dict)


def _binary_values(data, name):
    kind = data.spec(name).kind
    if kind == "binary" or (kind == "categorical" and data.arity(name) == 2):
        return data.values(name)
    raise NonBinary(name)


def _fit(spec, X, y):
    # looked up at each call, so a wrapper installed at the module global is used
    fit = fit_logistic if spec.kind == "logistic" else fit_forest
    return fit(X, y, spec.hyperparameters)


def train_cctm(
    data,
    t,
    y,
    parents=None,
    spec=ClassifierSpec(),
    cfg=DiscoveryConfig(),
    bins=3,
):
    """Fit the per-arm model pair over the outcome's non-treatment parents.

    When ``parents`` is omitted the parent set is discovered from the data
    (continuous columns discretized once beforehand) and the treatment is
    removed from the result.
    """
    for name in (t, y):
        if name not in data:
            raise UnknownColumn(name)
    t_values = _binary_values(data, t)
    y_values = _binary_values(data, y)

    discovery_info = None
    if parents is None:
        found = discover_parents(discretize_dataset(data, bins), y, cfg)
        members = found.members
        discovery_info = found.to_dict(include_trace=False)
    else:
        members = list(parents)
    parents_excl_t = [m for m in members if m != t]
    for name in parents_excl_t:
        if name not in data:
            raise UnknownColumn(name)
    if not parents_excl_t:
        warnings.warn(
            "no parents besides the treatment; both models are constants",
            EmptyParentSetWarning,
            stacklevel=2,
        )

    treated = t_values == 1
    n1 = int(treated.sum())
    n0 = int(data.n_rows - n1)
    if n1 == 0:
        raise EmptyArm(1, n1, n0)
    if n0 == 0:
        raise EmptyArm(0, n1, n0)

    encoder = FeatureEncoder.build(data, parents_excl_t)
    X = encoder.encode(data)
    if encoder.width == 0:
        # no covariates to model; each arm collapses to its smoothed rate
        m1 = ConstantModel.smoothed(int(y_values[treated].sum()), n1)
        m0 = ConstantModel.smoothed(int(y_values[~treated].sum()), n0)
    else:
        m1 = _fit(spec, X[treated], y_values[treated])
        m0 = _fit(spec, X[~treated], y_values[~treated])

    metadata = {
        "n_treated": n1,
        "n_control": n0,
        "classifier": {"kind": spec.kind, "hyperparameters": spec.resolved()},
    }
    if discovery_info is not None:
        metadata["discovery"] = discovery_info
    return TwoModelPair(
        m1=m1,
        m0=m0,
        parents_excl_t=parents_excl_t,
        encoder=encoder,
        treatment=t,
        outcome=y,
        metadata=metadata,
    )


def check_theta(theta):
    """Refuse an assignment threshold that is negative or not finite."""
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")


def predict_cctm(pair, rows, theta=0.0):
    """Score rows under both arm models; assign treatment iff effect > theta."""
    check_theta(theta)
    X = pair.encoder.encode(rows)
    p1 = pair.m1.predict_proba(X)
    p0 = pair.m0.predict_proba(X)
    effect = p1 - p0
    return UpliftPrediction(p1, p0, effect, (effect > theta).astype(np.int64))


def rank_by_effect(effects):
    """Stable descending order of predicted effects (indices into input)."""
    effects = np.asarray(effects, dtype=np.float64)
    if not np.isfinite(effects).all():
        raise ValueError("effects must be finite")
    return np.argsort(-effects, kind="stable")


# ------------------------------------------------------------- persistence

_MODEL_TYPES = {
    "logistic": LogisticModel,
    "forest": ForestModel,
    "constant": ConstantModel,
}


def model_payload(pair, extra=None):
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "treatment": pair.treatment,
        "outcome": pair.outcome,
        "parents_excl_t": list(pair.parents_excl_t),
        "encoder": pair.encoder.to_dict(),
        "metadata": pair.metadata,
        "m1": pair.m1.to_dict(),
        "m0": pair.m0.to_dict(),
    }
    if extra:
        payload.update(extra)
    return payload


def save_model(pair, path, extra=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_payload(pair, extra), fh, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path} is {MODEL_FORMAT} version {payload.get('version')!r};"
            f" this build reads version {MODEL_FORMAT_VERSION}"
        )
    return TwoModelPair(
        m1=_MODEL_TYPES[payload["m1"]["type"]].from_dict(payload["m1"]),
        m0=_MODEL_TYPES[payload["m0"]["type"]].from_dict(payload["m0"]),
        parents_excl_t=payload["parents_excl_t"],
        encoder=FeatureEncoder.from_dict(payload["encoder"]),
        treatment=payload["treatment"],
        outcome=payload["outcome"],
        metadata=payload.get("metadata", {}),
    )
