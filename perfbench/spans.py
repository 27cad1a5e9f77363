"""Span tracer for the traced replay, and the per-layer metrics made from it.

Wrappers are installed from here, never inside the program: each one goes at
the name its caller binds (``from .forest import fit_forest`` copies the
function into ``classify``, so ``classify.fit_forest`` is what gets replaced),
and ``Tracer.restore`` puts every original object back. Spans stay in memory
as ``[name, start_ns, end_ns, parent_index]`` until the caller writes them.
Counts come from the objects a call returns or the files it wrote.
"""

import os
import statistics
from collections import Counter
from time import perf_counter_ns

CLI_STAGES = ("generate", "train", "predict", "eval", "qini")

# name: (unit, better). Every traced run prints all of them; a layer the
# workload does not reach reads 0.
PER_LAYER = {}
for _stage in CLI_STAGES:
    PER_LAYER[f"cli.{_stage}.s"] = ("s", "lower")
    PER_LAYER[f"cli.{_stage}.self_ms"] = ("ms", "lower")
PER_LAYER.update(
    {
        "data.read_csv.ms": ("ms", "lower"),
        "data.read_csv.cells": ("count", "lower"),
        "data.write_csv.ms": ("ms", "lower"),
        "data.write_csv.bytes": ("bytes", "lower"),
        "data.take.ms": ("ms", "lower"),
        "data.take.calls": ("count", "lower"),
        "data.replace.calls": ("count", "lower"),
        "datagen.generate_group.ms": ("ms", "lower"),
        "datagen.truth_csv.ms": ("ms", "lower"),
        "stats.discretize_dataset.ms": ("ms", "lower"),
        "stats.discretize_dataset.calls": ("count", "lower"),
        "stats.g2_test.ms": ("ms", "lower"),
        "stats.g2_test.calls": ("count", "lower"),
        "stats.g2_test.unreliable": ("count", "lower"),
        "discovery.discover_parents.ms": ("ms", "lower"),
        "discovery.discover_parents.calls": ("count", "lower"),
        "discovery.mmpc.calls": ("count", "lower"),
        "discovery.self_ms": ("ms", "lower"),
        "forest.fit_forest.ms": ("ms", "lower"),
        "forest.fit_forest.calls": ("count", "lower"),
        "forest.nodes": ("count", "lower"),
        "forest.us_per_node": ("us", "lower"),
        "forest.predict_proba.ms": ("ms", "lower"),
        "forest.row_trees": ("count", "lower"),
        "logistic.fit_logistic.first_ms": ("ms", "lower"),
        "logistic.fit_logistic.ms": ("ms", "lower"),
        "logistic.fit_logistic.calls": ("count", "lower"),
        "logistic.converged_share": ("share", "higher"),
        "classify.encode.ms": ("ms", "lower"),
        "classify.train_cctm.self_ms": ("ms", "lower"),
        "classify.predict_cctm.self_ms": ("ms", "lower"),
        "classify.save_model.ms": ("ms", "lower"),
        "classify.load_model.ms": ("ms", "lower"),
        "classify.model_bytes": ("bytes", "lower"),
        "evaluation.qini_curve.ms": ("ms", "lower"),
        "evaluation.kfold_split.ms": ("ms", "lower"),
        "evaluation.causal_accuracy.ms": ("ms", "lower"),
        "quality.causal_accuracy": ("share", "higher"),
        "quality.qini_area": ("area", "higher"),
        "trace.replay_ms": ("ms", "lower"),
        "trace.overhead_ms": ("ms", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.span_cost_ms": ("ms", "lower"),
    }
)


def _cells(counts, out, args):
    counts["data.read_csv.cells"] += out.n_rows * len(out.columns)


def _csv_bytes(counts, out, args):
    counts["data.write_csv.bytes"] += os.path.getsize(args[1])


def _unreliable(counts, out, args):
    counts["stats.g2_test.unreliable"] += not out.reliable


def _nodes(counts, out, args):
    counts["forest.nodes"] += sum(tree[0].size for tree in getattr(out, "trees", ()))


def _row_trees(counts, out, args):
    counts["forest.row_trees"] += len(args[1]) * len(args[0].trees)


def _converged(counts, out, args):
    counts["logistic.converged"] += bool(getattr(out, "converged", False))


def _model_bytes(counts, out, args):
    counts["classify.model_bytes"] += os.path.getsize(args[1])


def layer_patches():
    """(owner, attribute, span name, counter) for every wrapped boundary."""
    from causaluplift import classify, cli, data, datagen, discovery, forest

    return [
        (data.Dataset, "read_csv", "data.read_csv", _cells),
        (data.Dataset, "write_csv", "data.write_csv", _csv_bytes),
        (data.Dataset, "take", "data.take", None),
        (data.Dataset, "replace", "data.replace", None),
        (cli, "generate_group", "datagen.generate_group", None),
        (datagen.GroundTruth, "write_csv", "datagen.truth_csv", None),
        (datagen.GroundTruth, "read_csv", "datagen.truth_csv", None),
        (classify, "discretize_dataset", "stats.discretize_dataset", None),
        (discovery, "g2_test", "stats.g2_test", _unreliable),
        (classify, "discover_parents", "discovery.discover_parents", None),
        (discovery, "mmpc", "discovery.mmpc", None),
        (classify, "fit_forest", "forest.fit_forest", _nodes),
        (forest.ForestModel, "predict_proba", "forest.predict_proba", _row_trees),
        (classify, "fit_logistic", "logistic.fit_logistic", _converged),
        (classify.FeatureEncoder, "encode", "classify.encode", None),
        (cli, "train_cctm", "classify.train_cctm", None),
        (cli, "predict_cctm", "classify.predict_cctm", None),
        (cli, "save_model", "classify.save_model", _model_bytes),
        (cli, "load_model", "classify.load_model", None),
        (cli, "qini_curve", "evaluation.qini_curve", None),
        (cli, "kfold_split", "evaluation.kfold_split", None),
        (cli, "causal_accuracy", "evaluation.causal_accuracy", None),
    ]


class Tracer:
    """Records nested spans around wrapped calls; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, out, args)
            return out

        return traced

    def install(self, patches):
        for owner, attr, name, count in patches:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, count))
            else:
                replacement = self.wrap(name, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install(layer_patches())
        return self

    def __exit__(self, *exc):
        self.restore()


def span_table(spans):
    """Per span name: [calls, total_ns, self_ns], plus the first duration."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for (name, start, end, parent), inner in zip(spans, child_ns):
        row = table.setdefault(name, [0, 0, 0, end - start])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - inner
    return table


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced replay (everything but trace.* and
    quality.*, which the caller adds)."""
    table = span_table(spans)

    def calls(name):
        return table.get(name, (0, 0, 0))[0]

    def ms(name):
        return table.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(name):
        return table.get(name, (0, 0, 0))[2] / 1e6

    out = {}
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = ms(f"cli.{stage}") / 1e3
        out[f"cli.{stage}.self_ms"] = self_ms(f"cli.{stage}")
    for name in (
        "data.read_csv",
        "data.write_csv",
        "data.take",
        "datagen.generate_group",
        "datagen.truth_csv",
        "stats.discretize_dataset",
        "stats.g2_test",
        "discovery.discover_parents",
        "forest.fit_forest",
        "forest.predict_proba",
        "logistic.fit_logistic",
        "classify.encode",
        "classify.save_model",
        "classify.load_model",
        "evaluation.qini_curve",
        "evaluation.kfold_split",
        "evaluation.causal_accuracy",
    ):
        out[f"{name}.ms"] = ms(name)
    for name in (
        "data.take",
        "data.replace",
        "stats.discretize_dataset",
        "stats.g2_test",
        "discovery.discover_parents",
        "discovery.mmpc",
        "forest.fit_forest",
        "logistic.fit_logistic",
    ):
        out[f"{name}.calls"] = calls(name)
    for name in (
        "data.read_csv.cells",
        "data.write_csv.bytes",
        "stats.g2_test.unreliable",
        "forest.nodes",
        "forest.row_trees",
        "classify.model_bytes",
    ):
        out[name] = counts.get(name, 0)
    out["discovery.self_ms"] = sum(
        self_ms(name) for name in table if name.startswith("discovery.")
    )
    out["classify.train_cctm.self_ms"] = self_ms("classify.train_cctm")
    out["classify.predict_cctm.self_ms"] = self_ms("classify.predict_cctm")
    nodes = out["forest.nodes"]
    out["forest.us_per_node"] = out["forest.fit_forest.ms"] * 1e3 / nodes if nodes else 0.0
    fits = out["logistic.fit_logistic.calls"]
    out["logistic.converged_share"] = counts.get("logistic.converged", 0) / fits if fits else 0.0
    first = table.get("logistic.fit_logistic")
    out["logistic.fit_logistic.first_ms"] = first[3] / 1e6 if first else 0.0
    out["trace.spans"] = len(spans)
    return out


def check_nesting(spans):
    """Raise unless every span lies inside its parent and has self time >= 0."""
    child_ns = [0] * len(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            raise AssertionError(f"span {index} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not (parent < index and p_start <= start and end <= p_end):
                raise AssertionError(f"span {index} ({name}) is not inside its parent")
            child_ns[parent] += end - start
    for index, ((name, start, end, _), inner) in enumerate(zip(spans, child_ns)):
        if end - start < inner:
            raise AssertionError(f"span {index} ({name}) has negative self time")


def wrapper_cost_ns(calls=20000):
    """Added cost of one traced call: a wrapped no-op timed against a bare one."""

    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter_ns() - start)
    return max(0, elapsed[1] - elapsed[0]) / calls


def median_metrics(samples):
    """Metric-wise median over a list of metric dicts."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
