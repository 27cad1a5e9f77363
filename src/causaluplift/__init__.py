"""Causal classification toolkit: discover the outcome's parents, check the
graphical validity conditions, estimate per-individual effects with paired
arm models, and evaluate against ground truth or Qini curves."""

__version__ = "0.1.0"

from . import errors
from .graph import (
    ConditionReport,
    Dag,
    MutilationSpec,
    build_dag,
    d_separated,
    verify_uplift_conditions,
)
from .data import ColumnSpec, Dataset
from .stats import (
    CITestResult,
    ContingencyTable,
    contingency,
    discretize,
    discretize_dataset,
    g2_test,
)
from .special import chi_square_sf, student_t_sf
from .discovery import (
    DiscoveryConfig,
    ParentSet,
    discover_parents,
    mmpc,
    symmetric_correction,
)
from .logistic import fit_logistic
from .forest import fit_forest
from .classify import (
    ClassifierSpec,
    TwoModelPair,
    UpliftPrediction,
    load_model,
    predict_cctm,
    rank_by_effect,
    save_model,
    train_cctm,
)
from .datagen import (
    BayesNet,
    GroundTruth,
    SynthConfig,
    generate_group,
    sample,
    true_effect,
)
from .bif import emit_bif, parse_bif
from .evaluation import (
    PrfScore,
    QiniCurve,
    causal_accuracy,
    kfold_split,
    paired_t_test,
    prf,
    qini_coefficient,
    qini_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
