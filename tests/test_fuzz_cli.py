"""A seeded fuzzer at the CLI boundary.

A small group1 run is made once: its data, schema, two trained models (a
forest and a logistic pair) and the forest's predictions. Each case then changes one thing, a value
in a model file, a value in the schema or one CSV cell, and runs
``predict``, ``train`` or ``eval`` on it through the parsed command's own function,
so an error's traceback is at hand. Every run must end as the CLI would
exit 0, 2 or 3, never 1; every exit 2 must come from an explicit ``raise``
in the package, not from an error Python or numpy raised on its own; and
every prediction of a run that succeeds must be finite.
"""

import ast
import copy
import csv
import functools
import json
import math
import random
import warnings
from pathlib import Path

import pytest

import causaluplift
from causaluplift import cli
from causaluplift.errors import CausalUpliftError, EmptyArm

PACKAGE = Path(causaluplift.__file__).parent
PARENTS = "X1,X2,X3,N1,N2"

# JSON values a model or schema value is replaced by
VALUES = [
    None, True, False, 0, 1, -1, 2, 3.0, 0.5, 2**31, 2**64, -(2**63), 1e308, -1e308,
    math.nan, math.inf, -math.inf, "", "0", "x", "T", "X1", "continuous", "binary",
    [], [1], [[0.5]], ["0", "1"], {}, {"type": "forest"}, {"name": "X1"},
]
# cells one CSV cell is replaced by
CELLS = [
    "", "nan", "inf", "-Infinity", "1_0", "\uff13", "\u0661", "abc", "2", "-1", "0.5",
    "1e400", "1e-400", '"', '""', '"1"', '"0,1"', "1,2", " 1", "1 ", "0x1", "\x00", "#",
    "\xa01", "1\r", " ", "True", "-0", "+1", "01", "\ufeff1", "1e5",
]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    argv = ["generate", "--group", "group1", "--samples", "240", "--seed", "3",
            "--split", "0.5", "--out", data]
    assert cli.main([str(a) for a in argv]) == 0
    for classifier, extra in (("forest", ["--n-trees", "3", "--max-depth", "3"]),
                              ("logistic", [])):
        argv = ["train", "--data", data / "train.csv", "--treatment", "T", "--outcome", "Y",
                "--parents", PARENTS, "--classifier", classifier, *extra,
                "--out", root / f"{classifier}.json"]
        assert cli.main([str(a) for a in argv]) == 0
    assert cli.main([str(a) for a in predict_argv(root, data / "preds.csv")]) == 0
    return root


@functools.cache
def raise_lines(filename):
    """The lines of every ``raise`` statement in a source file."""
    tree = ast.parse(Path(filename).read_text(encoding="utf-8"))
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def exit_code(case, argv):
    """The code ``cli.main`` would exit with, running ``argv``'s command
    function directly; an exit 2 must come from an explicit ``raise`` in
    the package."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except EmptyArm:
        return 3
    except (CausalUpliftError, ValueError, OSError, KeyError) as exc:
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        filename, line = tb.tb_frame.f_code.co_filename, tb.tb_lineno
        assert Path(filename).parent == PACKAGE and line in raise_lines(filename), (
            f"{case}: {exc!r} raised at {filename}:{line}, not by a raise of the package"
        )
        return 2
    except Exception as exc:  # main would exit 1
        pytest.fail(f"{case}: exit 1: {exc!r}")


def assert_finite_predictions(case, path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    for row in rows:
        for name, cell in zip(header, row):
            if name in ("p1", "p0", "effect"):
                assert math.isfinite(float(cell)), f"{case}: {name} {cell!r}"


def random_path(rng, value):
    """Keys from ``value`` to one of its values, at any depth."""
    path = []
    while isinstance(value, (dict, list)) and value and rng.random() < 0.85:
        key = rng.choice(list(value)) if isinstance(value, dict) else rng.randrange(len(value))
        path.append(key)
        value = value[key]
    return path


def mutated(rng, payload, start=()):
    """A copy of ``payload`` with one value below ``start`` replaced,
    nudged or deleted, and the change's description."""
    payload = copy.deepcopy(payload)

    def at(path):
        return functools.reduce(lambda value, key: value[key], path, payload)

    path = [*start, *random_path(rng, at(start))]
    if not path:
        return rng.choice(VALUES), "the whole file replaced"
    parent = at(path[:-1])
    key, old = path[-1], parent[path[-1]]
    roll = rng.random()
    if roll < 0.15:
        del parent[key]
        return payload, f"{path} deleted"
    if roll < 0.35 and isinstance(old, (int, float)) and not isinstance(old, bool):
        parent[key] = old + rng.choice([-1, 1]) if isinstance(old, int) else -old
        return payload, f"{path} nudged from {old!r}"
    parent[key] = rng.choice(VALUES)
    return payload, f"{path} = {parent[key]!r}"


def predict_argv(run_dir, out, model="forest.json", data=None, schema=None):
    data = data or run_dir / "data" / "test.csv"
    schema = schema or run_dir / "data" / "schema.json"
    return ["predict", "--model", run_dir / model, "--data", data, "--schema", schema,
            "--out", out]


def run_case(case, argv, out, seen):
    code = exit_code(case, argv)
    assert code in (0, 2, 3), f"{case}: exit {code}"
    if code == 0 and argv[0] == "predict":
        assert_finite_predictions(case, out)
    seen.add(code)


def test_fuzz_model_values(run_dir, tmp_path):
    rng = random.Random(11)
    seen = set()
    for model in ("forest.json", "logistic.json"):
        payload = json.loads((run_dir / model).read_text())
        for i in range(90):
            changed, what = mutated(rng, payload, () if rng.random() < 0.3 else ("m1",))
            path = tmp_path / f"{i}-{model}"
            path.write_text(json.dumps(changed))
            out = tmp_path / "preds.csv"
            run_case(f"{model} {what}", predict_argv(run_dir, out, model=path), out, seen)
    assert seen == {0, 2}


def test_fuzz_schema_values(run_dir, tmp_path):
    rng = random.Random(12)
    schema = json.loads((run_dir / "data" / "schema.json").read_text())
    seen = set()
    for i in range(80):
        changed, what = mutated(rng, schema, () if rng.random() < 0.2 else ("columns",))
        path = tmp_path / f"{i}-schema.json"
        path.write_text(json.dumps(changed))
        out = tmp_path / f"{i}.out"
        if i % 4:
            argv = predict_argv(run_dir, out, schema=path)
        else:
            argv = ["train", "--data", run_dir / "data" / "train.csv", "--schema", path,
                    "--treatment", "T", "--outcome", "Y", "--parents", PARENTS, "--out", out]
        run_case(f"schema {what}", argv, out, seen)
    assert {0, 2} <= seen


def test_fuzz_csv_cells(run_dir, tmp_path):
    rng = random.Random(13)
    seen = set()
    for name in ("test.csv", "train.csv", "preds.csv"):
        lines = (run_dir / "data" / name).read_text(encoding="utf-8").split("\n")
        for i in range(60):
            row = rng.choice([1, *range(2, len(lines) - 1)])  # the header, or a data row
            cells = lines[row].split(",")
            column = rng.randrange(len(cells))
            cells[column] = rng.choice(CELLS)
            changed = [*lines[:row], ",".join(cells), *lines[row + 1 :]]
            path = tmp_path / f"{i}-{name}"
            path.write_bytes("\n".join(changed).encode("utf-8"))
            out = tmp_path / f"{i}.out"
            case = f"{name} line {row} cell {column} = {cells[column]!r}"
            if name == "test.csv":
                argv = predict_argv(run_dir, out, data=path)
            elif name == "train.csv":
                argv = ["train", "--data", path, "--schema", run_dir / "data" / "schema.json",
                        "--treatment", "T", "--outcome", "Y", "--parents", PARENTS,
                        "--out", out]
            else:
                argv = ["eval", "--predictions", path,
                        "--ground-truth", run_dir / "data" / "test_truth.csv", "--out", out]
            run_case(case, argv, out, seen)
    assert {0, 2} <= seen
