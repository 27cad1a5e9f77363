"""Two-model causal classification.

Training discovers the outcome's parents (unless a parent set is supplied),
drops the treatment from it, projects the data onto those covariates, and
fits one probabilistic classifier per treatment arm. Prediction scores each
row under both models; the effect estimate is the probability difference
and the assignment thresholds it strictly.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .discovery import DiscoveryConfig, ParentSet, discover_parents
from .errors import (
    EmptyArm,
    EmptyParentSetWarning,
    MissingColumn,
    NonBinary,
    UnknownColumn,
    UnseenCategoryWarning,
)
from .forest import FOREST_DEFAULTS, ForestModel, fit_forest
from .logistic import LOGISTIC_DEFAULTS, ConstantModel, LogisticModel, fit_logistic
from .stats import discretize_dataset

MODEL_FORMAT = "causaluplift-model"
MODEL_FORMAT_VERSION = 1

_KINDS = {"logistic", "forest"}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "logistic"
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        defaults = LOGISTIC_DEFAULTS if self.kind == "logistic" else FOREST_DEFAULTS
        unknown = set(self.hyperparameters) - set(defaults) - {"seed"}
        if unknown:
            raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
        for key, value in self.hyperparameters.items():
            if key == "seed" or value is None:
                continue
            if value <= 0:
                raise ValueError(f"hyperparameter {key} must be positive")
        if self.kind == "forest" and self.hyperparameters.get("seed") is None:
            raise ValueError("forest classifier requires a seed")

    def resolved(self):
        out = dict(LOGISTIC_DEFAULTS if self.kind == "logistic" else FOREST_DEFAULTS)
        out.update(self.hyperparameters)
        return out


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
                cats = spec.categories
                if cats is None:
                    cats = tuple(str(i) for i in range(data.arity(name)))
                entry["categories"] = list(cats)
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
                spec = data.spec(name)
                if spec.kind == "continuous":
                    raise NonBinary(name)
                cats = spec.categories or tuple(
                    str(i) for i in range(int(values.max()) + 1 if values.size else 0)
                )
                mapped = np.array([vocab.get(c, -1) for c in cats], dtype=np.int64)
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
    spec = data.spec(name)
    if spec.kind == "binary":
        return data.values(name)
    if spec.kind == "categorical" and data.arity(name) == 2:
        return data.values(name)
    raise NonBinary(name)


def _fit(spec, X, y):
    hp = spec.resolved()
    if spec.kind == "logistic":
        return fit_logistic(X, y, hp)
    return fit_forest(X, y, hp)


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
    elif isinstance(parents, ParentSet):
        members = parents.members
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
        m1 = ConstantModel((int(y_values[treated].sum()) + 1) / (n1 + 2))
        m0 = ConstantModel((int(y_values[~treated].sum()) + 1) / (n0 + 2))
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


def predict_cctm(pair, rows, theta=0.0):
    """Score rows under both arm models; assign treatment iff effect > theta."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
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
