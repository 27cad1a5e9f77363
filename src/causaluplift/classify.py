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
from dataclasses import dataclass, field, replace

import numpy as np

from .data import column_specs, read_json
from .discovery import DiscoveryConfig, discover_parents
from .errors import (
    DataError,
    EmptyArm,
    EmptyParentSetWarning,
    MissingColumn,
    NonBinary,
    SchemaError,
    UnseenCategoryWarning,
)
from .forest import ForestModel, fit_forest, forest_hyperparameters
from .logistic import ConstantModel, LogisticModel, fit_logistic, logistic_hyperparameters
from .stats import discretize_dataset

MODEL_FORMAT = "causaluplift-model"
MODEL_FORMAT_VERSION = 3

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
    """Maps the columns of its training-time ``ColumnSpec``s to a numeric matrix.

    Categorical columns one-hot encode against the vocabulary frozen at
    training time; unseen labels at prediction map to all-zero indicators
    (with a warning). Binary and continuous columns pass through. A column
    must have the kind it was trained as, except that a categorical entry
    also reads a binary column; any other kind is a ``DataError``.
    """

    def __init__(self, specs):
        self.specs = specs

    @classmethod
    def build(cls, data, names):
        return cls([replace(data.spec(name), role="covariate") for name in names])

    @property
    def width(self):
        return sum(
            len(spec.categories) if spec.kind == "categorical" else 1 for spec in self.specs
        )

    def encode(self, data):
        """The float matrix of ``data``'s rows, filled column by column."""
        X = np.zeros((data.n_rows, self.width))
        at = 0
        for spec in self.specs:
            name = spec.name
            if name not in data:
                raise MissingColumn(name)
            values = data.values(name)
            kind = data.spec(name).kind
            if kind != spec.kind and (kind, spec.kind) != ("binary", "categorical"):
                raise DataError(
                    f"column {name!r} is {kind}, but the model was trained on it as {spec.kind}"
                )
            if spec.kind == "categorical":
                vocab = {c: i for i, c in enumerate(spec.categories)}
                labels = data.spec(name).categories
                mapped = np.array([vocab.get(c, -1) for c in labels], dtype=np.int64)
                idx = mapped[values]
                if (idx < 0).any():
                    warnings.warn(
                        f"column {name!r} has categories unseen at training time",
                        UnseenCategoryWarning,
                        stacklevel=3,
                    )
                seen = idx >= 0
                X[np.nonzero(seen)[0], at + idx[seen]] = 1.0
                at += len(spec.categories)
            else:
                X[:, at] = values
                at += 1
        return X

    def to_dict(self):
        return {"entries": [spec.to_dict(role=False) for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload):
        """The encoder of a model file's ``encoder`` object, read as a schema
        is (``data.column_specs``); a categorical entry must list categories."""
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            raise ValueError("encoder must be an object holding a list of entries")
        specs = column_specs(entries, "encoder", "entries")
        for spec in specs:
            if spec.kind == "categorical" and spec.categories is None:
                raise SchemaError(f"encoder: column {spec.name!r}: 'categories' must be listed")
        return cls(specs)


@dataclass(frozen=True)
class UpliftPrediction:
    """Per-row arm probabilities, their difference and the 0/1 assignment
    (uint8, as a predictions file reads back), as equal-length arrays."""

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


def binary_values(data, name):
    """The codes of a binary column, or a categorical one of two labels."""
    if data.spec(name).kind == "continuous" or data.arity(name) != 2:
        raise NonBinary(name)
    return data.values(name)


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
    rows=None,
):
    """Fit the per-arm model pair over the outcome's non-treatment parents.

    When ``parents`` is omitted the parent set is discovered from the data
    (continuous columns discretized once beforehand) and the treatment is
    removed from the result. A given parent set may list the treatment,
    which is dropped, but not the outcome, nor any column twice.

    ``rows`` (an index array), when given, fits on those rows alone, as
    ``train_cctm(data.take(rows), ...)`` would: they are discretized
    straight from ``data``, and only the treatment, the outcome and the
    parents are copied for the fit.
    """
    if t == y:
        raise ValueError(f"the treatment {t!r} is also the outcome")
    binary_values(data, t)
    binary_values(data, y)

    discovery_info = None
    if parents is None:
        found = discover_parents(discretize_dataset(data, bins, rows), y, cfg)
        members = found.members
        discovery_info = found.to_dict()
    else:
        members = list(parents)
        for i, name in enumerate(members):
            if name == y:
                raise ValueError(f"the parents list the outcome {y!r}")
            if name in members[:i]:
                raise ValueError(f"the parents list {name!r} twice")
    parents_excl_t = [m for m in members if m != t]
    if not parents_excl_t:
        warnings.warn(
            "no parents besides the treatment; both models are constants",
            EmptyParentSetWarning,
            stacklevel=2,
        )

    data = data.select([t, y, *parents_excl_t])
    if rows is not None:
        data = data.take(rows)
    y_values = data.values(y)
    treated = data.values(t) == 1
    n1 = int(treated.sum())
    n0 = int(data.n_rows - n1)
    if n1 == 0 or n0 == 0:
        raise EmptyArm(int(n1 == 0), n1, n0)

    encoder = FeatureEncoder.build(data, parents_excl_t)
    if encoder.width == 0:
        # no covariates to model; each arm collapses to its smoothed rate
        m1 = ConstantModel.smoothed(int(y_values[treated].sum()), n1)
        m0 = ConstantModel.smoothed(int(y_values[~treated].sum()), n0)
    else:
        # each arm's matrix is encoded from its own rows and freed after its fit
        m1 = _fit(spec, encoder.encode(data.take(treated)), y_values[treated])
        m0 = _fit(spec, encoder.encode(data.take(~treated)), y_values[~treated])

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
    return UpliftPrediction(p1, p0, effect, (effect > theta).view(np.uint8))


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


def _entries(pair, extra):
    """The model file's entries in order; each arm's holds its model."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "treatment": pair.treatment,
        "outcome": pair.outcome,
        "parents_excl_t": list(pair.parents_excl_t),
        "encoder": pair.encoder.to_dict(),
        "metadata": pair.metadata,
        "m1": pair.m1,
        "m0": pair.m0,
    }
    if extra:
        payload.update(extra)
    return payload


def model_payload(pair, extra=None):
    payload = _entries(pair, extra)
    for arm in ("m1", "m0"):
        payload[arm] = payload[arm].to_dict()
    return payload


def _json(value):
    # json.dumps encodes in C; json.dump would encode in Python, chunk by chunk
    return json.dumps(value, separators=(",", ":"))


def save_model(pair, path, extra=None):
    """Write ``model_payload(pair, extra)`` as one compact ``json.dumps``
    would, an entry at a time: each arm's object is made as it is written,
    and a forest's one tree at a time, so the Python lists of the whole
    payload never exist at once."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (key, value) in enumerate(_entries(pair, extra).items()):
            fh.write(("," if i else "{") + _json(key) + ":")
            if key not in ("m1", "m0"):
                fh.write(_json(value))
            elif isinstance(value, ForestModel):
                # the head's closing brace cut off; "trees", its last entry,
                # written tree by tree
                fh.write(_json(value.head_dict())[:-1] + ',"trees":[')
                for j, tree in enumerate(value.tree_dicts()):
                    fh.write(("," if j else "") + _json(tree))
                fh.write("]}")
            else:
                fh.write(_json(value.to_dict()))
        fh.write("}\n")


def load_model(path):
    """The model pair saved at ``path``. The keys and the encoder are checked
    first, then each arm is read by its model class and checked against the
    encoder (``check``), so a malformed or tampered file is a ValueError
    naming the file and the key or arm, never a wrong or failed prediction."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not 3.0, not True
        raise ValueError(
            f"{path} is {MODEL_FORMAT} version {version!r};"
            f" this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        for key in ("treatment", "outcome", "parents_excl_t", "encoder", "m1", "m0"):
            if key not in payload:
                raise ValueError(f"missing key {key!r}")
        for key in ("treatment", "outcome"):
            if not isinstance(payload[key], str) or not payload[key]:
                raise ValueError(f"{key!r} must be a non-empty string")
        if not isinstance(payload.get("metadata", {}), dict):
            raise ValueError("'metadata' must be an object")
        encoder = FeatureEncoder.from_dict(payload["encoder"])
        if payload["parents_excl_t"] != [spec.name for spec in encoder.specs]:
            raise ValueError("parents_excl_t must list the encoder's entry names, in order")
    except (ValueError, SchemaError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    arms = {}
    for arm in ("m1", "m0"):
        entry = payload[arm]
        try:
            if not isinstance(entry, dict):
                raise ValueError(f"expected an object, got {type(entry).__name__}")
            kind = entry.get("type")
            if kind not in _MODEL_TYPES:
                raise ValueError(
                    f"unknown model type {kind!r}; expected one of {', '.join(_MODEL_TYPES)}"
                )
            model = _MODEL_TYPES[kind].from_dict(entry)
            model.check(encoder.width)
        except KeyError as exc:
            raise ValueError(f"{path}: model arm {arm}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: model arm {arm}: {exc}") from None
        arms[arm] = model
    return TwoModelPair(
        **arms,
        parents_excl_t=payload["parents_excl_t"],
        encoder=encoder,
        treatment=payload["treatment"],
        outcome=payload["outcome"],
        metadata=payload.get("metadata", {}),
    )
