"""Command-line pipeline: generate, discover, train, predict, eval, qini.

Every run resolves its full configuration (defaults expanded), derives a
stable hash from it, and stamps tool version plus hash into each output
file, so re-running a command with the same inputs is byte-identical.
Exit codes: 0 success, 2 input/validation error, 3 statistical degeneracy
(an empty treatment arm), 1 internal error.

``CAUSALUPLIFT_CONFIG_DIR`` may point to a directory whose ``defaults.json``
maps subcommand names to flag defaults.
"""

import argparse
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
    load_model,
    predict_cctm,
    save_model,
    train_cctm,
)
from .data import Dataset, write_schema
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


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_dataset(args):
    schema = args.schema
    if schema is None:
        schema = os.path.join(os.path.dirname(os.path.abspath(args.data)), "schema.json")
    return Dataset.read_csv(args.data, schema)


_CLASSIFIER_FLAGS = (
    "n_trees", "max_depth", "min_leaf", "feature_subsample",  # forest
    "max_iterations", "l2_penalty",  # logistic
)


def _classifier_spec(args):
    # a flag of the other classifier kind reaches ClassifierSpec, which refuses it
    hp = {"seed": args.seed} if args.classifier == "forest" else {}
    for name in _CLASSIFIER_FLAGS:
        if getattr(args, name) is not None:
            hp[name] = getattr(args, name)
    return ClassifierSpec(args.classifier, hp)


def _discovery(args):
    """The discovery config of ``args``, and the entries that every command
    which discovers parents stamps into its config."""
    cfg = DiscoveryConfig(
        alpha=args.alpha,
        max_cond_size=args.max_cond_size,
        symmetric=not args.no_symmetric,
    )
    entries = {
        "alpha": cfg.alpha,
        "max_cond_size": cfg.max_cond_size,
        "symmetric": cfg.symmetric,
        "bins": args.bins,
    }
    return cfg, entries


def _training(args, command, **entries):
    """The config that ``train`` and ``qini`` stamp (``entries`` go between
    the model entries and the discovery entries), and a function that trains
    the pair that ``args`` asks for on a dataset."""
    spec = _classifier_spec(args)
    cfg, discovery_entries = _discovery(args)
    parents = args.parents.split(",") if args.parents else None
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

    def fit_pair(data):
        return train_cctm(
            data,
            args.treatment,
            args.outcome,
            parents=parents,
            spec=spec,
            cfg=cfg,
            bins=args.bins,
        )

    return config, fit_pair


# ---------------------------------------------------------------- generate


def cmd_generate(args):
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
            net = parse_bif(fh.read())
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

    os.makedirs(args.out, exist_ok=True)
    meta = _meta_line(config)
    lines = dataset.write_csv(os.path.join(args.out, "data.csv"), meta)
    write_schema(
        os.path.join(args.out, "schema.json"), dataset, extra={"tool": _tool_block(config)}
    )
    with open(os.path.join(args.out, "net.json"), "w", encoding="utf-8") as fh:
        fh.write(net.to_json())
    if truth is not None:
        truth.write_csv(os.path.join(args.out, "ground_truth.csv"), meta=meta)

    if args.split is not None:
        rng = np.random.default_rng([args.seed, 1])
        perm = rng.permutation(dataset.n_rows)
        n_train = int(round(args.split * dataset.n_rows))
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        for part, idx in (("train", train_idx), ("test", test_idx)):
            dataset.write_csv(
                os.path.join(args.out, f"{part}.csv"), meta, [lines[i] for i in idx]
            )
            if truth is not None:
                truth.take(idx).write_csv(
                    os.path.join(args.out, f"{part}_truth.csv"), meta=meta
                )
    print(f"wrote {dataset.n_rows} rows x {len(dataset.columns)} columns to {args.out}")
    return 0


# ---------------------------------------------------------------- discover


def cmd_discover(args):
    from .stats import discretize_dataset

    data = _load_dataset(args)
    cfg, entries = _discovery(args)
    config = {"command": "discover", "target": args.target, **entries}
    found = discover_parents(discretize_dataset(data, args.bins), args.target, cfg)
    payload = {
        "tool": _tool_block(config),
        "target": found.target,
        "members": list(found.members),
        "n_tests": len(found.trace),
    }
    if args.explain:
        payload["trace"] = [r.to_dict() for r in found.trace]
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps({"target": found.target, "members": list(found.members)}))
    return 0


# ---------------------------------------------------------------- train


def cmd_train(args):
    data = _load_dataset(args)
    config, fit_pair = _training(args, "train")
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


# ---------------------------------------------------------------- predict


def cmd_predict(args):
    data = _load_dataset(args)
    pair = load_model(args.model)
    preds = predict_cctm(pair, data, theta=args.theta)
    config = {
        "command": "predict",
        "model": os.path.basename(args.model),
        "theta": args.theta,
    }
    n = len(preds.effect)
    columns = [
        (csvio.int_cells, np.arange(n)),
        (csvio.float_cells, preds.p1),
        (csvio.float_cells, preds.p0),
        (csvio.float_cells, preds.effect),
        (csvio.int_cells, preds.assign),
    ]
    csvio.write(
        args.out,
        ["row_id", "p1", "p0", "effect", "assign"],
        csvio.encode_lines(columns, n),
        _meta_line(config),
    )
    print(f"wrote {n} predictions to {args.out}")
    return 0


def read_predictions(path):
    """Load a predictions CSV back into the record ``predict_cctm`` returns."""
    columns = csvio.read(path)
    return UpliftPrediction(
        csvio.floats(columns, "p1"),
        csvio.floats(columns, "p0"),
        csvio.floats(columns, "effect"),
        csvio.ints(columns, "assign"),
    )


# ---------------------------------------------------------------- eval


def cmd_eval(args):
    preds = read_predictions(args.predictions)
    if args.ground_truth is None and args.data is None:
        raise ValueError("eval needs --ground-truth or --data")
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
        outcomes = data.values(args.outcome)
        treatments = data.values(args.treatment)
        curve = qini_curve(preds.effect, outcomes, treatments, n_points=args.points)
        payload["qini_coefficient"] = qini_coefficient(outcomes, treatments)
        payload["coefficient_area"] = curve.coefficient_area
        payload["curve"] = [[f, u] for f, u in curve.points]
        if args.curve_out:
            _write_curve_csv(args.curve_out, curve.points, config)
    if args.out:
        _write_json(args.out, payload)
    summary = {k: v for k, v in payload.items() if k in ("causal_accuracy", "qini_coefficient", "coefficient_area")}
    print(json.dumps(summary))
    return 0


def _write_curve_csv(path, points, config, fold=None):
    header = ["fraction", "uplift"] if fold is None else ["fold", "fraction", "uplift"]
    columns = [list(map(_fmt, column)) for column in zip(*points)]
    csvio.write(path, header, csvio.join_rows(columns), _meta_line(config))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------- qini (CV)


def cmd_qini(args):
    data = _load_dataset(args)
    config, fit_pair = _training(
        args, "qini", folds=args.folds, points=args.points, seed=args.seed
    )
    os.makedirs(args.out_dir, exist_ok=True)
    folds = kfold_split(data.n_rows, args.folds, args.seed)
    rows = []
    per_point = {}
    areas = []
    for fold_id, (train_idx, test_idx) in enumerate(folds):
        train = data.take(train_idx)
        test = data.take(test_idx)
        preds = predict_cctm(fit_pair(train), test, theta=0.0)
        curve = qini_curve(
            preds.effect,
            test.values(args.outcome),
            test.values(args.treatment),
            n_points=args.points,
        )
        areas.append(curve.coefficient_area)
        for j, (frac, uplift) in enumerate(curve.points):
            rows.append((fold_id, frac, uplift))
            if uplift is not None:
                per_point.setdefault(j, []).append(uplift)

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
    _write_json(os.path.join(args.out_dir, "metrics.json"), payload)
    print(json.dumps({"mean_area": payload["mean_area"]}))
    return 0


# ---------------------------------------------------------------- parser


def _add_discovery_flags(sp):
    sp.add_argument("--alpha", type=float, default=0.01)
    sp.add_argument("--max-cond-size", type=int, default=3)
    sp.add_argument("--no-symmetric", action="store_true")
    sp.add_argument("--bins", type=int, default=3, help="bins for continuous columns")


def _add_classifier_flags(sp):
    sp.add_argument("--classifier", choices=["logistic", "forest"], default="logistic")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-trees", type=int)
    sp.add_argument("--max-depth", type=int)
    sp.add_argument("--min-leaf", type=int)
    sp.add_argument("--feature-subsample", type=float)
    sp.add_argument("--max-iterations", type=int)
    sp.add_argument("--l2-penalty", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="causaluplift",
        description="Causal classification: parent discovery, paired arm models, Qini evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="synthesize benchmark data with ground truth")
    sp.add_argument("--group", choices=["group1", "group2"], default="group1")
    sp.add_argument("--bif", help="sample from a BIF network instead of a bundled group")
    sp.add_argument("--treatment")
    sp.add_argument("--outcome")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--noise-vars", type=int, default=90)
    sp.add_argument("--continuous-fraction", type=float, default=0.5)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--split", type=float)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("discover", help="find the outcome's parent set")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema")
    sp.add_argument("--target", required=True)
    _add_discovery_flags(sp)
    sp.add_argument("--explain", action="store_true", help="include all CI test records")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_discover)

    sp = sub.add_parser("train", help="fit the two-model pair")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema")
    sp.add_argument("--treatment", required=True)
    sp.add_argument("--outcome", required=True)
    sp.add_argument("--parents", help="comma-separated; skips discovery")
    _add_discovery_flags(sp)
    _add_classifier_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="score rows with a trained model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("eval", help="score predictions against truth or outcomes")
    sp.add_argument("--predictions", required=True)
    sp.add_argument("--ground-truth")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--data")
    sp.add_argument("--schema")
    sp.add_argument("--treatment", default="T")
    sp.add_argument("--outcome", default="Y")
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--curve-out")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("qini", help="cross-validated Qini curves")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema")
    sp.add_argument("--treatment", required=True)
    sp.add_argument("--outcome", required=True)
    sp.add_argument("--parents")
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--points", type=int, default=10)
    _add_discovery_flags(sp)
    _add_classifier_flags(sp)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_qini)

    _apply_config_dir(parser, sub)
    return parser


def _apply_config_dir(parser, sub):
    config_dir = os.environ.get("CAUSALUPLIFT_CONFIG_DIR")
    if not config_dir:
        return
    path = os.path.join(config_dir, "defaults.json")
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            defaults = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(defaults, dict) or not all(
        isinstance(v, dict) for v in defaults.values()
    ):
        raise ValueError(f"{path}: expected an object of per-command objects")
    for name, overrides in defaults.items():
        if name in sub.choices:
            sub.choices[name].set_defaults(
                **{k.replace("-", "_"): v for k, v in overrides.items()}
            )


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
