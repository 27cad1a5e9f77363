"""Causal classification toolkit: discover the outcome's parents, check the
graphical validity conditions, estimate per-individual effects with paired
arm models, and evaluate against ground truth or Qini curves.

Each exported name's module is imported on first use (PEP 562), so
``import causaluplift`` loads no numpy; the CLI relies on this to set its
BLAS thread count before numpy starts."""

import importlib

__version__ = "0.1.0"

# each exported name's home module
_EXPORTS = {
    "ConditionReport": "graph",
    "Dag": "graph",
    "MutilationSpec": "graph",
    "build_dag": "graph",
    "d_separated": "graph",
    "verify_uplift_conditions": "graph",
    "ColumnSpec": "data",
    "Dataset": "data",
    "CITestResult": "stats",
    "ContingencyTable": "stats",
    "contingency": "stats",
    "discretize": "stats",
    "discretize_dataset": "stats",
    "g2_test": "stats",
    "chi_square_sf": "special",
    "student_t_sf": "special",
    "DiscoveryConfig": "discovery",
    "ParentSet": "discovery",
    "discover_parents": "discovery",
    "mmpc": "discovery",
    "symmetric_correction": "discovery",
    "fit_logistic": "logistic",
    "fit_forest": "forest",
    "ClassifierSpec": "classify",
    "TwoModelPair": "classify",
    "UpliftPrediction": "classify",
    "load_model": "classify",
    "predict_cctm": "classify",
    "rank_by_effect": "classify",
    "save_model": "classify",
    "train_cctm": "classify",
    "BayesNet": "datagen",
    "GroundTruth": "datagen",
    "SynthConfig": "datagen",
    "generate_group": "datagen",
    "sample": "datagen",
    "true_effect": "datagen",
    "emit_bif": "bif",
    "parse_bif": "bif",
    "PrfScore": "evaluation",
    "QiniCurve": "evaluation",
    "causal_accuracy": "evaluation",
    "kfold_split": "evaluation",
    "paired_t_test": "evaluation",
    "prf": "evaluation",
    "qini_coefficient": "evaluation",
    "qini_curve": "evaluation",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # a name outside the table raises, so ``from causaluplift import <submodule>``
    # falls through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
