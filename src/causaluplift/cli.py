"""Command-line pipeline: generate, discover, train, predict, eval, qini.

Every run resolves its full configuration (defaults expanded), derives a
stable hash from it, and stamps tool version plus hash into each output
file, so re-running a command with the same inputs is byte-identical.
Exit codes: 0 success, 2 input/validation error, 3 statistical degeneracy
(an empty treatment arm), 1 internal error.

``CAUSALUPLIFT_CONFIG_DIR`` may point to a directory whose ``defaults.json``
maps subcommand names to flag defaults, each checked against ``_FLAGS``.
"""

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import sys
import traceback

import numpy as np

from . import __version__, csvio
from .classify import (
    ClassifierSpec,
    UpliftPrediction,
    binary_values,
    load_model,
    predict_cctm,
    save_model,
    train_cctm,
)
from .data import Dataset, read_json, write_json, write_schema
from .datagen import (
    GroundTruth,
    SynthConfig,
    dataset_from_codes,
    generate_group,
    sample,
    sample_with_ground_truth,
)
from .bif import parse_bif
from .discovery import DiscoveryConfig, discover_parents
from .errors import CausalUpliftError, EmptyArm
from .evaluation import causal_accuracy, kfold_split, qini_coefficient, qini_curve


def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _tool_block(config):
    return {
        "name": "causaluplift",
        "version": __version__,
        "config_hash": _config_hash(config),
        "config": config,
    }


def _meta_line(config):
    return f"causaluplift={__version__} config={_config_hash(config)}"


def _load_dataset(args):
    schema = args.schema
    if schema is None:
        schema = os.path.join(os.path.dirname(os.path.abspath(args.data)), "schema.json")
    return Dataset.read_csv(args.data, schema)


def _classifier_spec(args):
    # a flag of the other classifier kind reaches ClassifierSpec, which refuses it
    hp = {"seed": args.seed} if args.classifier == "forest" else {}
    for flag in _CLASSIFIER_GROUP[2:]:
        if getattr(args, flag.name) is not None:
            hp[flag.name] = getattr(args, flag.name)
    return ClassifierSpec(args.classifier, hp)


def _discovery(args):
    """The discovery config of ``args``, and the entries that every command
    which discovers parents stamps into its config."""
    if args.bins < 2:
        raise ValueError(f"--bins must be >= 2, got {args.bins}")
    cfg = DiscoveryConfig(args.alpha, args.max_cond_size, symmetric=not args.no_symmetric)
    return cfg, {**dataclasses.asdict(cfg), "bins": args.bins}


def _training(args, command, **entries):
    """The config that ``train`` and ``qini`` stamp (``entries`` go between
    the model entries and the discovery entries), and a function that trains
    the pair that ``args`` asks for on a dataset."""
    spec = _classifier_spec(args)
    cfg, discovery_entries = _discovery(args)
    # no --parents asks for discovery; an empty one is the empty parent set
    parents = None if args.parents is None else [p for p in args.parents.split(",") if p]
    config = {
        "command": command,
        "treatment": args.treatment,
        "outcome": args.outcome,
        "classifier": spec.kind,
        "hyperparameters": spec.resolved(),
        "parents": parents,
        **entries,
        **discovery_entries,
    }

    def fit_pair(data, rows=None):
        return train_cctm(
            data,
            args.treatment,
            args.outcome,
            parents=parents,
            spec=spec,
            cfg=cfg,
            bins=args.bins,
            rows=rows,
        )

    return config, fit_pair


def cmd_generate(args):
    """synthesize benchmark data with ground truth"""
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.split is not None and not 0.0 < args.split < 1.0:
        raise ValueError("--split must be in (0, 1)")
    if (args.treatment or args.outcome) and not args.bif:
        raise ValueError("--treatment and --outcome are only for --bif")
    if bool(args.treatment) != bool(args.outcome):
        missing = "--outcome" if args.treatment else "--treatment"
        raise ValueError(
            f"--treatment and --outcome go together with --bif; {missing} is missing"
        )
    if args.bif:
        with open(args.bif, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeError as exc:
                raise ValueError(f"{args.bif}: {exc}") from None
        net = parse_bif(text)
        if args.treatment:
            rng = np.random.default_rng(args.seed)
            codes, truth = sample_with_ground_truth(
                net, args.treatment, args.outcome, args.samples, rng
            )
            dataset = dataset_from_codes(
                net, codes, {args.treatment: "treatment", args.outcome: "outcome"}
            )
        else:
            dataset = sample(net, args.samples, args.seed)
            truth = None
        config = {
            "command": "generate",
            "bif": os.path.basename(args.bif),
            "samples": args.samples,
            "seed": args.seed,
            "split": args.split,
        }
    else:
        cfg = SynthConfig(
            group=args.group,
            seed=args.seed,
            n_samples=args.samples,
            n_noise_vars=args.noise_vars,
            continuous_fraction=args.continuous_fraction,
        )
        dataset, truth, net = generate_group(cfg)
        config = {
            "command": "generate",
            "group": cfg.group,
            "samples": cfg.n_samples,
            "noise_vars": cfg.n_noise_vars,
            "continuous_fraction": cfg.continuous_fraction,
            "seed": cfg.seed,
            "split": args.split,
        }

    parts = []
    if args.split is not None:
        rng = np.random.default_rng([args.seed, 1])
        perm = rng.permutation(dataset.n_rows)
        n_train = int(round(args.split * dataset.n_rows))
        parts = [("train", np.sort(perm[:n_train])), ("test", np.sort(perm[n_train:]))]

    os.makedirs(args.out, exist_ok=True)
    meta = _meta_line(config)
    dataset.write_csv(
        os.path.join(args.out, "data.csv"),
        meta,
        [(os.path.join(args.out, f"{part}.csv"), idx) for part, idx in parts],
    )
    write_schema(
        os.path.join(args.out, "schema.json"), dataset, extra={"tool": _tool_block(config)}
    )
    with open(os.path.join(args.out, "net.json"), "w", encoding="utf-8") as fh:
        fh.write(net.to_json())
    if truth is not None:
        truth.write_csv(os.path.join(args.out, "ground_truth.csv"), meta=meta)
        for part, idx in parts:
            truth.take(idx).write_csv(os.path.join(args.out, f"{part}_truth.csv"), meta=meta)
    print(f"wrote {dataset.n_rows} rows x {len(dataset.columns)} columns to {args.out}")
    return 0


def cmd_discover(args):
    """find the outcome's parent set"""
    from .stats import discretize_dataset

    cfg, entries = _discovery(args)
    data = _load_dataset(args)
    config = {"command": "discover", "target": args.target, **entries}
    found = discover_parents(discretize_dataset(data, args.bins), args.target, cfg)
    payload = {
        "tool": _tool_block(config),
        "target": found.target,
        "members": list(found.members),
        # a symmetry-removed record has no p-value: it is no test
        "n_tests": sum(r.p_value is not None for r in found.trace),
    }
    if args.explain:
        payload["trace"] = [r.to_dict() for r in found.trace]
    if args.out:
        write_json(args.out, payload)
    print(json.dumps({"target": found.target, "members": list(found.members)}))
    return 0


def cmd_train(args):
    """fit the two-model pair"""
    config, fit_pair = _training(args, "train")
    data = _load_dataset(args)
    pair = fit_pair(data)
    save_model(pair, args.out, extra={"tool": _tool_block(config)})
    print(
        json.dumps(
            {
                "model": args.out,
                "parents_excl_t": pair.parents_excl_t,
                "n_treated": pair.metadata["n_treated"],
                "n_control": pair.metadata["n_control"],
            }
        )
    )
    return 0


# the cells of each prediction field, written after a ``row_id`` index
_PREDICTION_KINDS = {"p1": "float", "p0": "float", "effect": "float", "assign": csvio.BITS}


def cmd_predict(args):
    """score rows with a trained model"""
    data = _load_dataset(args)
    pair = load_model(args.model)
    preds = predict_cctm(pair, data, theta=args.theta)
    config = {
        "command": "predict",
        "model": os.path.basename(args.model),
        "theta": args.theta,
    }
    n = len(preds.effect)
    columns = {name: (kind, getattr(preds, name)) for name, kind in _PREDICTION_KINDS.items()}
    csvio.write_typed(args.out, {"row_id": ("int", np.arange(n)), **columns}, _meta_line(config))
    print(f"wrote {n} predictions to {args.out}")
    return 0


def read_predictions(path):
    """Load a predictions CSV back into the record ``predict_cctm`` returns."""
    return UpliftPrediction(**csvio.read_typed(path, lambda header: _PREDICTION_KINDS))


def cmd_eval(args):
    """score predictions against truth or outcomes"""
    if args.ground_truth is None and args.data is None:
        raise ValueError("eval needs --ground-truth or --data")
    if args.curve_out and args.data is None:
        raise ValueError("eval --curve-out needs --data")
    preds = read_predictions(args.predictions)
    config = {
        "command": "eval",
        "predictions": os.path.basename(args.predictions),
        "theta": args.theta,
        "points": args.points,
    }
    payload = {"tool": _tool_block(config), "n_rows": len(preds.effect)}
    if args.ground_truth is not None:
        truth = GroundTruth.read_csv(args.ground_truth)
        payload["causal_accuracy"] = causal_accuracy(preds.assign, truth, theta=args.theta)
        payload["theta"] = args.theta
    if args.data is not None:
        data = _load_dataset(args)
        outcomes = binary_values(data, args.outcome)
        treatments = binary_values(data, args.treatment)
        curve = qini_curve(preds.effect, outcomes, treatments, n_points=args.points)
        payload["qini_coefficient"] = qini_coefficient(outcomes, treatments)
        payload["coefficient_area"] = curve.coefficient_area
        payload["curve"] = [[f, u] for f, u in curve.points]
        if args.curve_out:
            _write_curve_csv(args.curve_out, curve.points, config)
    if args.out:
        write_json(args.out, payload)
    summary = {k: v for k, v in payload.items() if k in ("causal_accuracy", "qini_coefficient", "coefficient_area")}
    print(json.dumps(summary))
    return 0


def _write_curve_csv(path, points, config, fold=None):
    header = ["fraction", "uplift"] if fold is None else ["fold", "fraction", "uplift"]
    columns = list(zip(*points)) or [()] * len(header)
    cells = {
        name: ("text", ["" if v is None else str(v) for v in column])
        for name, column in zip(header, columns)
    }
    csvio.write_typed(path, cells, _meta_line(config))


def _fold_curve(args, data, fit_pair, train_idx, test_idx):
    """One fold's Qini curve. The fold copies only the columns it reads,
    and its copies and predictions are freed on return, so no two folds'
    copies are ever held at once."""
    pair = fit_pair(data, train_idx)
    test = data.select([args.treatment, args.outcome, *pair.parents_excl_t]).take(test_idx)
    preds = predict_cctm(pair, test, theta=0.0)
    return qini_curve(
        preds.effect,
        test.values(args.outcome),
        test.values(args.treatment),
        n_points=args.points,
    )


def cmd_qini(args):
    """cross-validated Qini curves"""
    config, fit_pair = _training(
        args, "qini", folds=args.folds, points=args.points, seed=args.seed
    )
    data = _load_dataset(args)
    folds = kfold_split(data.n_rows, args.folds, args.seed)
    smallest = min(len(test_idx) for _, test_idx in folds)
    if smallest < 2:
        # a curve needs two points, so a fold of one row fits no --points
        raise ValueError(
            f"--folds {args.folds} leaves a test fold of {smallest} row of {data.n_rows};"
            f" every fold needs at least 2, so --folds must be at most {data.n_rows // 2}"
        )
    if not 2 <= args.points <= smallest:
        # past the smallest fold, its curve would stop short, and the mean curve with it
        raise ValueError(
            f"--points must be in [2, {smallest}] (the smallest test fold), got {args.points}"
        )
    rows = []
    per_point = {}
    areas = []
    for fold_id, (train_idx, test_idx) in enumerate(folds):
        curve = _fold_curve(args, data, fit_pair, train_idx, test_idx)
        areas.append(curve.coefficient_area)
        for j, (frac, uplift) in enumerate(curve.points):
            rows.append((fold_id, frac, uplift))
            if uplift is not None:
                per_point.setdefault(j, []).append(uplift)

    # only now, so a run that fails leaves no directory behind
    os.makedirs(args.out_dir, exist_ok=True)
    _write_curve_csv(os.path.join(args.out_dir, "folds.csv"), rows, config, fold=True)
    mean_points = [
        (j / args.points, float(np.mean(per_point[j]))) for j in sorted(per_point)
    ]
    _write_curve_csv(os.path.join(args.out_dir, "mean_curve.csv"), mean_points, config)
    payload = {
        "tool": _tool_block(config),
        "folds": args.folds,
        "areas": areas,
        "mean_area": float(np.mean(areas)),
    }
    write_json(os.path.join(args.out_dir, "metrics.json"), payload)
    print(json.dumps({"mean_area": payload["mean_area"]}))
    return 0


# ---------------------------------------------------------------- parser

_REQUIRED = object()  # the default of a flag that must be given on the command line
_DISCOVERING = ("discover", "train", "qini")
_TRAINING = ("train", "qini")
_Flag = collections.namedtuple("_Flag", "name option kind defaults help")


def _flag(name, kind=None, help=None, **defaults):
    if kind is None:
        kind = next((type(d) for d in defaults.values() if d not in (None, _REQUIRED)), str)
    return _Flag(name, "--" + name.replace("_", "-"), kind, defaults, help)


# the classifier kind, its seed, then the hyperparameters handed to it
_CLASSIFIER_GROUP = (
    _flag("classifier", ("logistic", "forest"), **dict.fromkeys(_TRAINING, "logistic")),
    _flag("seed", generate=_REQUIRED, **dict.fromkeys(_TRAINING, 0)),
    _flag("n_trees", int, **dict.fromkeys(_TRAINING)),
    _flag("max_depth", int, **dict.fromkeys(_TRAINING)),
    _flag("min_leaf", int, **dict.fromkeys(_TRAINING)),
    _flag("feature_subsample", float, **dict.fromkeys(_TRAINING)),
    _flag("max_iterations", int, **dict.fromkeys(_TRAINING)),
    _flag("l2_penalty", float, **dict.fromkeys(_TRAINING)),
)

# Every command flag, once. Its keyword arguments map each command that takes
# it to its default or ``_REQUIRED``. ``kind`` is a type (``bool`` is a
# switch) or a tuple of choices; when left out it is the type of the defaults
# that are set, else ``str``. A command lists its flags in this order.
_FLAGS = (
    _flag("model", predict=_REQUIRED),
    _flag("predictions", eval=_REQUIRED),
    _flag("ground_truth", eval=None),
    _flag("group", ("group1", "group2"), generate="group1"),
    _flag("bif", help="sample from a BIF network instead of a bundled group", generate=None),
    _flag("data", **dict.fromkeys(_DISCOVERING + ("predict",), _REQUIRED), eval=None),
    _flag("schema", **dict.fromkeys(_DISCOVERING + ("predict", "eval"))),
    _flag("target", discover=_REQUIRED),
    _flag("theta", predict=0.0, eval=0.0),
    _flag("treatment", generate=None, **dict.fromkeys(_TRAINING, _REQUIRED), eval="T"),
    _flag("outcome", generate=None, **dict.fromkeys(_TRAINING, _REQUIRED), eval="Y"),
    _flag("parents", help="comma-separated; skips discovery", **dict.fromkeys(_TRAINING)),
    _flag("samples", generate=10000),
    _flag("noise_vars", generate=90),
    _flag("continuous_fraction", generate=0.5),
    _flag("folds", qini=10),
    _flag("points", eval=10, qini=10),
    _flag("curve_out", eval=None),
    _flag("alpha", **dict.fromkeys(_DISCOVERING, 0.01)),
    _flag("max_cond_size", **dict.fromkeys(_DISCOVERING, 3)),
    _flag("no_symmetric", **dict.fromkeys(_DISCOVERING, False)),
    _flag("bins", help="bins for continuous columns", **dict.fromkeys(_DISCOVERING, 3)),
    _flag("explain", help="include all CI test records", discover=False),
    *_CLASSIFIER_GROUP,
    _flag("split", float, generate=None),
    _flag("out", generate=_REQUIRED, discover=None, train=_REQUIRED, predict=_REQUIRED, eval=None),
    _flag("out_dir", qini=_REQUIRED),
)
_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _flags_of(command):
    return [flag for flag in _FLAGS if command in flag.defaults]


def _checked(flag, value, where, nullable):
    """``value`` if it is of the flag's kind (a float must be finite, and is
    returned as one) or None where ``nullable``; else a ValueError."""
    kind = flag.kind
    if value is None and nullable:
        return None
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif isinstance(kind, tuple):
        ok = value in kind
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = _EXPECTED.get(kind) or "one of " + ", ".join(kind)
        raise ValueError(f"{where} must be {expected}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="causaluplift",
        description="Causal classification: parent discovery, paired arm models, Qini evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for func in (cmd_generate, cmd_discover, cmd_train, cmd_predict, cmd_eval, cmd_qini):
        command = func.__name__.removeprefix("cmd_")
        sp = sub.add_parser(command, help=func.__doc__)
        for flag in _flags_of(command):
            default = flag.defaults[command]
            spec = {"required": True} if default is _REQUIRED else {"default": default}
            if flag.kind is bool:
                spec["action"] = "store_true"
            elif isinstance(flag.kind, tuple):
                spec["choices"] = flag.kind
            else:
                spec["type"] = flag.kind
            sp.add_argument(flag.option, help=flag.help, **spec)
        sp.set_defaults(func=func)
    _apply_config_dir(sub)
    return parser


def _apply_config_dir(sub):
    """Install ``defaults.json``'s values as command defaults, each checked
    against the flag table."""
    config_dir = os.environ.get("CAUSALUPLIFT_CONFIG_DIR")
    if not config_dir:
        return
    path = os.path.join(config_dir, "defaults.json")
    if not os.path.exists(path):
        return
    defaults = read_json(path)
    if not isinstance(defaults, dict) or not all(
        isinstance(v, dict) for v in defaults.values()
    ):
        raise ValueError(f"{path}: expected an object of per-command objects")
    for command, overrides in defaults.items():
        if command not in sub.choices:
            raise ValueError(f"{path}: unknown command {command!r}")
        flags = {flag.name: flag for flag in _flags_of(command)}
        values = {}
        for key, value in overrides.items():
            flag = flags.get(key.replace("-", "_"))
            if flag is None:
                raise ValueError(f"{path}: {command}: {key!r} is not a flag of {command}")
            default = flag.defaults[command]
            if default is _REQUIRED:
                raise ValueError(f"{path}: {command}: {key} is required on the command line")
            values[flag.name] = _checked(flag, value, f"{path}: {command}: {key}", default is None)
        sub.choices[command].set_defaults(**values)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag in _flags_of(args.command):  # argparse knows no finite floats
            _checked(flag, getattr(args, flag.name), flag.option, nullable=True)
        return args.func(args)
    except EmptyArm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CausalUpliftError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
