"""Bayesian networks: forward sampling, exact effect oracles, and the two
bundled synthetic benchmark generators.

Group 1 data comes from a fully observed net where the treatment has
observed causes and the outcome depends on the treatment and two binary
covariates, with effect heterogeneity spanning positive, zero and negative
cells. Group 2 adds three hidden variables feeding the outcome side only
(one of them proxied by an observed covariate); their columns are dropped
from the emitted dataset. Both generators append noise columns independent
of everything, half continuous and half binary by default, and report
per-row ground truth: the exact conditional effect given the observed
pretreatment values, and potential outcomes sampled under both arms from a
shared exogenous draw.
"""

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import csvio
from .data import ColumnSpec, Dataset
from .errors import (
    MissingCptRow,
    NonBinary,
    RowSumViolation,
    TNotParent,
    UnknownNode,
)
from .graph import Dag

_ROW_SUM_TOL = 1e-9

RESPONSE_LABELS = ("nonresponse0", "positive", "negative", "nonresponse1")

# the cells of each ground-truth field, written after a ``row`` index
_TRUTH_KINDS = {
    "effect": "float", "response": "text", "potential_y0": csvio.BITS, "potential_y1": csvio.BITS
}


class BayesNet:
    """DAG plus one conditional probability table per node.

    CPTs are dense arrays of shape (#parent configurations, arity), indexed
    by the row-major flat code over ``cpt_parents[node]`` (a fixed parent
    ordering). ``hidden`` marks nodes that generators sample but do not
    emit as dataset columns.
    """

    def __init__(self, dag, categories, cpts, cpt_parents, hidden=()):
        self.dag = dag
        self.categories = {v: tuple(categories[v]) for v in dag.nodes}
        self.hidden = frozenset(hidden)
        for v in self.hidden:
            if v not in categories:
                raise UnknownNode(v)
        self.cpt_parents = {}
        self.cpts = {}
        for v in dag.nodes:
            if v not in cpts:
                raise MissingCptRow(v)
            order = tuple(cpt_parents.get(v, ()))
            if set(order) != dag.parents(v):
                raise ValueError(
                    f"cpt parent order for {v!r} does not match the graph"
                )
            table = np.asarray(cpts[v], dtype=np.float64)
            n_rows = 1
            for p in order:
                n_rows *= len(self.categories[p])
            if table.shape != (n_rows, len(self.categories[v])):
                raise MissingCptRow(v)
            missing = np.nonzero(np.isnan(table).any(axis=1))[0]
            if missing.size:
                raise MissingCptRow(v, self._unflatten(order, int(missing[0])))
            sums = table.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]
            if bad.size:
                config = self._unflatten(order, int(bad[0]))
                raise RowSumViolation(v, config, float(sums[bad[0]]))
            if (table < 0).any():
                raise ValueError(f"negative probability in CPT of {v!r}")
            self.cpt_parents[v] = order
            self.cpts[v] = table

    def arity(self, v):
        return len(self.categories[v])

    def _unflatten(self, order, flat):
        codes = []
        for p in reversed(order):
            a = self.arity(p)
            codes.append(flat % a)
            flat //= a
        return tuple(
            self.categories[p][c] for p, c in zip(order, reversed(codes))
        )

    def flat_index(self, v, code_of):
        """Row-major flat CPT row index; ``code_of`` maps parent name to
        an int or int array. Codes are widened to ``intp`` first: under
        NEP 50, uint8 codes times an int stay uint8, and would wrap past
        256 rows."""
        idx = 0
        for p in self.cpt_parents[v]:
            idx = idx * self.arity(p) + np.asarray(code_of[p], dtype=np.intp)
        return idx

    def __eq__(self, other):
        return (
            isinstance(other, BayesNet)
            and self.dag == other.dag
            and self.categories == other.categories
            and self.hidden == other.hidden
            and self.cpt_parents == other.cpt_parents
            and all(np.array_equal(self.cpts[v], other.cpts[v]) for v in self.dag.nodes)
        )

    # ------------------------------------------------------------------ json

    def to_json(self):
        payload = {
            "nodes": list(self.dag.nodes),
            "edges": [list(e) for e in self.dag.edges],
            "hidden": sorted(self.hidden),
            "categories": {v: list(self.categories[v]) for v in self.dag.nodes},
            "cpt_parents": {v: list(self.cpt_parents[v]) for v in self.dag.nodes},
            "cpts": {v: self.cpts[v].tolist() for v in self.dag.nodes},
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        dag = Dag(payload["nodes"], [tuple(e) for e in payload["edges"]])
        return cls(
            dag,
            payload["categories"],
            payload["cpts"],
            payload["cpt_parents"],
            payload.get("hidden", ()),
        )


def dataset_from_codes(net, codes, roles=None):
    """Wrap sampled code arrays as a Dataset, skipping hidden nodes."""
    roles = roles or {}
    specs = []
    arrays = {}
    for v in net.dag.nodes:
        if v in net.hidden:
            continue
        cats = net.categories[v]
        kind = "binary" if cats == csvio.BITS else "categorical"
        specs.append(ColumnSpec(v, kind, roles.get(v, "covariate"), cats))
        arrays[v] = codes[v]
    return Dataset(specs, arrays)


def sample(net, n, seed):
    """Forward-sample ``n`` rows in topological order; deterministic per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    return dataset_from_codes(net, _forward_sample(net, n, rng))


def _forward_sample(net, n, rng, skip=()):
    """Sample every node except ``skip``, in topological order."""
    codes = {}
    for v in net.dag.topological_order():
        if v in skip:
            continue
        cdf = np.cumsum(net.cpts[v], axis=1)
        rows = np.broadcast_to(cdf[net.flat_index(v, codes)], (n, cdf.shape[1]))
        u = rng.random(n)
        codes[v] = (rows[:, :-1] <= u[:, None]).sum(axis=1).astype(csvio.code_dtype(net.arity(v)))
    return codes


def _arm_probabilities(net, t, y, code_of):
    """P(y=1 | t=1, ...) and P(y=1 | t=0, ...) at the other parents' codes."""
    with_t = dict(code_of)
    with_t[t] = 1
    p1 = net.cpts[y][net.flat_index(y, with_t), 1]
    with_t[t] = 0
    return p1, net.cpts[y][net.flat_index(y, with_t), 1]


def _conditional_effects(net, t, y, codes, n):
    """Exact conditional effect of ``t`` on ``y`` given the observed
    pretreatment codes in ``codes``, marginalizing hidden nodes by
    enumeration."""
    if t not in net.dag.parents(y):
        raise TNotParent(t, y)
    if net.arity(y) != 2:
        raise NonBinary(y)
    pre_nodes = [v for v in net.dag.nodes if v not in (t, y)]
    hidden = [v for v in pre_nodes if v in net.hidden]
    observed = {}
    for v in pre_nodes:
        if v not in hidden:
            if v not in codes:
                raise UnknownNode(v)
            observed[v] = codes[v]

    def delta(code_of):
        p1, p0 = _arm_probabilities(net, t, y, code_of)
        return p1 - p0

    if not hidden:
        out = np.asarray(delta(observed), dtype=np.float64)
        return out if out.shape == (n,) else np.full(n, float(out))

    num = np.zeros(n)
    den = np.zeros(n)
    for config in product(*(range(net.arity(h)) for h in hidden)):
        code_of = dict(observed)
        for h, c in zip(hidden, config):
            code_of[h] = c
        w = np.ones(n)
        for v in pre_nodes:
            w = w * np.asarray(net.cpts[v][net.flat_index(v, code_of), code_of[v]])
        num += w * delta(code_of)
        den += w
    return num / den


def true_effect(net, t, y, row):
    """Conditional effect for one row (a mapping of node name to code)."""
    codes = {v: np.asarray([c], dtype=np.int64) for v, c in row.items()}
    return float(_conditional_effects(net, t, y, codes, 1)[0])


def true_effects(net, t, y, data):
    """Vectorized conditional effects for every row of a dataset."""
    codes = {v: data.values(v) for v in data.columns}
    return _conditional_effects(net, t, y, codes, data.n_rows)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


@dataclass
class GroundTruth:
    effect: np.ndarray
    response: np.ndarray
    potential_y0: np.ndarray
    potential_y1: np.ndarray

    def __len__(self):
        return len(self.effect)

    def take(self, idx):
        idx = np.asarray(idx)
        return GroundTruth(
            self.effect[idx],
            self.response[idx],
            self.potential_y0[idx],
            self.potential_y1[idx],
        )

    def write_csv(self, path, meta=None):
        columns = {name: (kind, getattr(self, name)) for name, kind in _TRUTH_KINDS.items()}
        csvio.write_typed(path, {"row": ("int", np.arange(len(self))), **columns}, meta)

    @classmethod
    def read_csv(cls, path):
        return cls(**csvio.read_typed(path, lambda header: _TRUTH_KINDS))


def response_labels(y0, y1):
    """Map joint potential outcomes to the four response classes."""
    idx = 2 * np.asarray(y0, dtype=np.int64) + np.asarray(y1, dtype=np.int64)
    return np.array(RESPONSE_LABELS, dtype=object)[idx]


# ---------------------------------------------------------------------------
# bundled synthetic networks
# ---------------------------------------------------------------------------


def _bernoulli_cpt(parent_arities, p_of):
    """Rows [1-p, p] for every parent configuration (row-major)."""
    rows = []
    for config in product(*(range(a) for a in parent_arities)):
        p = p_of(*config)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} out of range")
        rows.append([1.0 - p, p])
    return np.array(rows)


def _binary_net(nodes, spec, hidden=()):
    """BayesNet over binary ``nodes`` from ``(node, parents, p_of)``
    triples, ``p_of`` giving P(node=1) from the parent codes. The edges are
    read off the parents."""
    cpts, cpt_parents = {}, {}
    for v, parents, p_of in spec:
        cpts[v] = _bernoulli_cpt((2,) * len(parents), p_of)
        cpt_parents[v] = parents
    dag = Dag(nodes, [(u, v) for v, parents, _ in spec for u in parents])
    return BayesNet(dag, {v: ("0", "1") for v in nodes}, cpts, cpt_parents, hidden)


# the roots and the treatment side both groups share
_TREATMENT_SIDE = (
    ("X1", (), lambda: 0.45),
    ("X2", (), lambda: 0.55),
    ("X3", (), lambda: 0.5),
    ("X7", (), lambda: 0.5),
    ("X5", ("X1", "X7"), lambda x1, x7: 0.2 + 0.35 * x1 + 0.3 * x7),
    ("X6", ("X3",), lambda x3: 0.3 + 0.4 * x3),
    ("T", ("X5", "X6"), lambda x5, x6: 0.25 + 0.3 * x5 + 0.2 * x6),
)


def group1_network():
    """Fully observed generator: T has observed causes, Y depends on
    (T, X8, X9) with cell effects +0.18 / +0.50 / -0.37 / -0.05."""

    # cell effects by (x8, x9): +0.18 / +0.50 / -0.37 / -0.05; heterogeneous
    # signs, no knife-edge zero atom, and margins large enough that no
    # parent's marginal association with Y cancels out (faithfulness would
    # fail otherwise)
    def outcome_p(t, x8, x9):
        base = 0.2 + 0.38 * x8 + 0.2 * x9
        lift = 0.18 + 0.32 * x9 - 0.55 * x8
        return base + t * lift

    return _binary_net(
        ["T", "Y"] + [f"X{i}" for i in range(1, 11)],
        _TREATMENT_SIDE + (
            ("X4", (), lambda: 0.4),
            ("X10", (), lambda: 0.6),
            ("X8", ("X4", "X10"), lambda x4, x10: 0.15 + 0.35 * x4 + 0.35 * x10),
            ("X9", ("X2",), lambda x2: 0.3 + 0.45 * x2),
            ("Y", ("T", "X8", "X9"), outcome_p),
        ),
    )


def group2_network():
    """Hidden-variable generator: U1 confounds X8/X10, U2 and U3 are hidden
    parents of Y, X4 is a strong proxy of U3. The hidden paths never touch
    T, so its propensity stays unconfounded."""

    def outcome_p(t, x8, x9, u2, u3):
        base = 0.12 + 0.22 * x8 + 0.14 * u2 + 0.10 * u3
        lift = 0.04 + 0.30 * x9 - 0.26 * x8 + 0.08 * u3
        return base + t * lift

    return _binary_net(
        ["T", "Y"] + [f"X{i}" for i in range(1, 11)] + ["U1", "U2", "U3"],
        _TREATMENT_SIDE + (
            ("U1", (), lambda: 0.5),
            ("U2", (), lambda: 0.45),
            ("U3", (), lambda: 0.55),
            ("X4", ("U3",), lambda u3: 0.15 + 0.7 * u3),
            ("X8", ("U1",), lambda u1: 0.25 + 0.5 * u1),
            ("X9", ("X2", "U2"), lambda x2, u2: 0.1 + 0.3 * x2 + 0.4 * u2),
            ("X10", ("U1",), lambda u1: 0.3 + 0.4 * u1),
            ("Y", ("T", "X8", "X9", "U2", "U3"), outcome_p),
        ),
        hidden=("U1", "U2", "U3"),
    )


@dataclass(frozen=True)
class SynthConfig:
    group: str
    seed: int
    n_samples: int = 10000
    n_noise_vars: int = 90
    continuous_fraction: float = 0.5

    def __post_init__(self):
        if self.group not in ("group1", "group2"):
            raise ValueError(f"unknown group {self.group!r}")
        if self.seed is None:
            raise ValueError("seed is required")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.n_noise_vars < 0:
            raise ValueError("n_noise_vars must be >= 0")
        if not 0.0 <= self.continuous_fraction <= 1.0:
            raise ValueError("continuous_fraction must be in [0, 1]")


def sample_with_ground_truth(net, t, y, n, rng):
    """Forward-sample every node while tracking exact ground truth for the
    effect of ``t`` on ``y``.

    Potential outcomes for both arms share one exogenous uniform per row,
    so the four response classes are jointly coherent with the factual
    outcome. Requires a childless outcome (otherwise its descendants would
    be inconsistent with the counterfactual draw).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if t not in net.dag.parents(y):
        raise TNotParent(t, y)
    if net.arity(y) != 2 or net.arity(t) != 2:
        raise NonBinary(y if net.arity(y) != 2 else t)
    if net.dag.descendants(y):
        raise ValueError(f"outcome {y!r} has descendants; ground truth undefined")
    codes = _forward_sample(net, n, rng, skip=(y,))
    p1, p0 = _arm_probabilities(net, t, y, codes)
    u_y = rng.random(n)
    y1 = (u_y < p1).view(np.uint8)
    y0 = (u_y < p0).view(np.uint8)
    codes[y] = np.where(codes[t] == 1, y1, y0)

    truth = GroundTruth(
        effect=_conditional_effects(net, t, y, codes, n),
        response=response_labels(y0, y1),
        potential_y0=y0,
        potential_y1=y1,
    )
    return codes, truth


def generate_group(cfg):
    """Sample a benchmark dataset with ground truth.

    Returns (dataset, ground_truth, net). Hidden columns (group2) are
    sampled but not emitted.
    """
    net = group1_network() if cfg.group == "group1" else group2_network()
    n = cfg.n_samples
    rng = np.random.default_rng(cfg.seed)
    codes, truth = sample_with_ground_truth(net, "T", "Y", n, rng)

    observed = dataset_from_codes(net, codes, {"T": "treatment", "Y": "outcome"})
    specs = [observed.spec(v) for v in observed.columns]
    arrays = {v: observed.values(v) for v in observed.columns}
    n_cont = int(round(cfg.continuous_fraction * cfg.n_noise_vars))
    for i in range(1, cfg.n_noise_vars + 1):
        name = f"N{i}"
        if i <= n_cont:
            specs.append(ColumnSpec(name, "continuous", "noise"))
            arrays[name] = rng.standard_normal(n)
        else:
            specs.append(ColumnSpec(name, "binary", "noise"))
            arrays[name] = rng.integers(0, 2, size=n).astype(np.uint8)
    return Dataset(specs, arrays), truth, net
