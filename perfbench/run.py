"""End-to-end and per-layer benchmark of the causaluplift CLI pipeline.

Run from the root of a checkout (no install needed; ``src`` goes on
``PYTHONPATH``):

    python3 perfbench/run.py --workload wide-forest --seed 1 --seconds 45 --trace 0

``--trace 0`` runs each CLI stage as a fresh ``python -m causaluplift.cli``
process, one at a time, in a closed loop with one client, for as many
repetitions as fit in ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` replays the same stages in this process through ``causaluplift.cli.main``,
alternating traced and untraced replays, and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
describe the machine and every figure with its sample count. See README.md
for the workloads and the layer-to-metric map.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from spans import (
    PER_LAYER,
    Tracer,
    check_nesting,
    layer_metrics,
    median_metrics,
    wrapper_cost_ns,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

STAGE_TIMEOUT_S = 60
SETUP_BURST = 3  # --version runs before the first repetition and after each
MIN_REPS = 2
COVARIATES = [f"X{i}" for i in range(1, 11)] + [f"N{i}" for i in range(1, 91)]
# generated rows; selftest.py shrinks these
SIZES = {"group1": 10000, "group2": 20000}
# 20 rather than the forest spec's 60, so that a 45 s run holds about six
# repetitions of wide-forest; the work per tree is the same
WIDE_TREES = 20

# The reference job: a fixed pure-Python loop, timed in this process between
# stage processes. The host's speed drifts by half over minutes and this loop
# drifts with the stages (see README.md, Steadiness), so end-to-end times are
# scaled to a machine on which the loop takes REF_NOMINAL_S, about its time
# on the machine in README.md in a fast spell.
REF_LOOPS = 400_000
REF_NOMINAL_S = 0.045

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "CAUSALUPLIFT_NO_NUMBA",
)

MACHINE_PROBE = """
import json, platform, numpy
from causaluplift import _kernels
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "use_numba": _kernels.USE_NUMBA,
}))
"""


# ------------------------------------------------------------------ workloads
#
# A workload is a set-up (untimed CLI runs that make its inputs) and a stage
# generator. The generator yields (stage, argv, outputs) one stage at a time,
# so a later stage can read an earlier one's output; outputs are the files
# the stage writes, checked byte for byte against the first repetition.


def _cli_generate(group, samples, seed, out, split=None):
    argv = ["generate", "--group", group, "--samples", str(samples), "--seed", str(seed)]
    if split is not None:
        argv += ["--split", str(split)]
    return argv + ["--out", out]


def wide_forest_setup(inp, seed):
    return []


def wide_forest_stages(inp, out, seed):
    """Generate, then a depth-12 forest pair on all 100 non-treatment
    covariates, its predictions and their causal accuracy."""
    yield (
        "generate",
        _cli_generate("group1", SIZES["group1"], seed, out, split=0.5),
        ["data.csv", "schema.json", "net.json", "ground_truth.csv", "train.csv",
         "test.csv", "train_truth.csv", "test_truth.csv"],
    )
    model, preds = os.path.join(out, "model.json"), os.path.join(out, "preds.csv")
    yield (
        "train",
        ["train", "--data", os.path.join(out, "train.csv"), "--treatment", "T",
         "--outcome", "Y", "--classifier", "forest", "--n-trees", str(WIDE_TREES),
         "--max-depth", "12", "--parents", ",".join(COVARIATES), "--out", model],
        ["model.json"],
    )
    yield (
        "predict",
        ["predict", "--model", model, "--data", os.path.join(out, "test.csv"), "--out", preds],
        ["preds.csv"],
    )
    yield (
        "eval",
        ["eval", "--predictions", preds, "--ground-truth",
         os.path.join(out, "test_truth.csv"), "--out", os.path.join(out, "truth_metrics.json")],
        ["truth_metrics.json"],
    )


def qini_cv_setup(inp, seed):
    return [_cli_generate("group2", SIZES["group2"], seed, inp)]


def qini_cv_stages(inp, out, seed):
    """Ten-fold cross-validated Qini with in-fold discovery and logistic arms."""
    yield (
        "qini",
        ["qini", "--data", os.path.join(inp, "data.csv"), "--treatment", "T",
         "--outcome", "Y", "--folds", "10", "--classifier", "logistic",
         "--out-dir", os.path.join(out, "qini")],
        ["qini/folds.csv", "qini/mean_curve.csv", "qini/metrics.json"],
    )


# ------------------------------------------------------- correctness checks


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_predictions(preds_path, truth_path, metrics_path):
    """Recompute causal accuracy from the predictions and the ground truth and
    compare it with the CLI's own figure; returns that figure."""
    preds = _csv_rows(preds_path)
    truth = _csv_rows(truth_path)
    if len(preds) != len(truth) or not preds:
        raise ValueError(f"{len(preds)} predictions for {len(truth)} truth rows")
    hits = 0
    for row, true in zip(preds, truth):
        p1, p0, effect = float(row["p1"]), float(row["p0"]), float(row["effect"])
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0) or effect != p1 - p0:
            raise ValueError(f"prediction row {row['row_id']} is inconsistent")
        if int(row["assign"]) != int(effect > 0.0):
            raise ValueError(f"prediction row {row['row_id']} assigns against its effect")
        hits += int(row["assign"]) == int(float(true["effect"]) > 0.0)
    reported = _load_json(metrics_path)["causal_accuracy"]
    if abs(reported - hits / len(preds)) > 1e-12:
        raise ValueError(f"causal_accuracy {reported} != recomputed {hits / len(preds)}")
    return reported


def wide_forest_check(inp, out):
    accuracy = check_predictions(
        os.path.join(out, "preds.csv"),
        os.path.join(out, "test_truth.csv"),
        os.path.join(out, "truth_metrics.json"),
    )
    return {"causal_accuracy": accuracy}


def qini_cv_check(inp, out):
    payload = _load_json(os.path.join(out, "qini", "metrics.json"))
    areas = payload["areas"]
    if len(areas) != 10 or not all(math.isfinite(a) for a in areas):
        raise ValueError("qini metrics need ten finite fold areas")
    if abs(payload["mean_area"] - statistics.fmean(areas)) > 1e-9 * max(1.0, abs(payload["mean_area"])):
        raise ValueError("mean_area is not the mean of the fold areas")
    if len(_csv_rows(os.path.join(out, "qini", "folds.csv"))) != 10 * 11:
        raise ValueError("folds.csv needs 11 points for each of 10 folds")
    return {"qini_area": payload["mean_area"]}


WORKLOADS = {
    "wide-forest": (wide_forest_setup, wide_forest_stages, wide_forest_check),
    "qini-cv": (qini_cv_setup, qini_cv_stages, qini_cv_check),
}


# ---------------------------------------------------------------- executors


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class StageResult:
    rc: int
    seconds: float
    stdout: bytes
    stderr: str
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    ref_s: float = REF_NOMINAL_S  # reference job time around the stage

    @property
    def scaled_s(self):
        """``seconds`` at the reference speed."""
        return self.seconds * REF_NOMINAL_S / self.ref_s


def run_process(argv, log_dir):
    """One CLI process; waits for it and returns its status and rusage."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "causaluplift.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=cli_env(),
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return StageResult(
        proc.returncode, seconds, stdout, stderr,
        cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss,
    )


def reference_seconds():
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(REF_LOOPS):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - start


class ReferenceClock:
    """Runs CLI processes with the reference job between them; each result
    carries the mean of the reference times just before and just after it."""

    def __init__(self, log_dir):
        self.log_dir = log_dir
        self.last = reference_seconds()

    def run(self, argv):
        result = run_process(argv, self.log_dir)
        after = reference_seconds()
        result.ref_s = (self.last + after) / 2
        self.last = after
        return result


def run_inprocess(argv, tracer=None, stage=None):
    """One stage through ``causaluplift.cli.main`` in this process."""
    from causaluplift import cli

    main = cli.main if tracer is None else tracer.wrap(f"cli.{stage}", cli.main)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return StageResult(rc, seconds, stdout.getvalue().encode(), stderr.getvalue())


# -------------------------------------------------------------- repetitions


def file_digests(out, names):
    digests = {}
    for name in names:
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            digests[name] = None
            continue
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Loop:
    """Closed loop over repetitions of one workload; one stage at a time."""

    def __init__(self, workload, inp, out, seed):
        self.stages, self.check = WORKLOADS[workload][1], WORKLOADS[workload][2]
        self.inp, self.out, self.seed = inp, out, seed
        self.first_digests = None  # per-stage, of the first repetition
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.quality = None

    def repetition(self, execute):
        """Run every stage once; returns the list of (stage, StageResult), or
        None if a stage failed (the rest of the repetition is skipped)."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        results, digests = [], []
        stages = self.stages(self.inp, self.out, self.seed)
        try:
            for index, (stage, argv, outputs) in enumerate(stages):
                self.attempted += 1
                result = execute(stage, argv)
                digest = file_digests(self.out, outputs)
                digest["stdout"] = hashlib.sha256(result.stdout).hexdigest()
                problem = None
                if result.seconds >= STAGE_TIMEOUT_S:
                    problem = f"timed out after {STAGE_TIMEOUT_S} s"
                elif result.rc != 0:
                    problem = f"exit code {result.rc}: {result.stderr.strip()[-300:]}"
                elif None in digest.values():
                    problem = "missing output"
                elif self.first_digests is not None and digest != self.first_digests[index]:
                    problem = "output differs from the first repetition"
                if problem:
                    self.failed += 1
                    self.errors.append(f"{stage}: {problem}")
                    return None
                results.append((stage, result))
                digests.append(digest)
        finally:
            stages.close()
        if self.first_digests is None:
            try:
                self.quality = self.check(self.inp, self.out)
            except (ValueError, KeyError, OSError) as exc:
                self.errors.append(f"output check: {exc}")
                return None
            self.first_digests = digests
        return results


def setup_inputs(workload, inp, seed, log_dir):
    os.makedirs(inp, exist_ok=True)
    for argv in WORKLOADS[workload][0](inp, seed):
        result = run_process(argv, log_dir)
        if result.rc != 0:
            raise SystemExit(f"set-up `{argv[0]}` failed: {result.stderr.strip()[-500:]}")


def compile_sources():
    """Byte-compile the package once, as installing it would, so stages load
    cached bytecode even where ``PYTHONDONTWRITEBYTECODE`` is set (it only
    stops writing, not reading); otherwise every stage process would pay
    about 75 ms of compiling that an installed package never pays."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "causaluplift")],
        capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"cannot compile {SRC}: {(proc.stdout + proc.stderr).strip()[-500:]}")


def machine_info():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_total_mb": None,
        "thread_vars": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["mem_total_mb"] = round(int(line.split()[1]) / 1024)
                    break
    proc = subprocess.run(
        [sys.executable, "-c", MACHINE_PROBE], capture_output=True, text=True,
        env=cli_env(), timeout=STAGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"cannot import causaluplift from {SRC}: {proc.stderr.strip()[-500:]}")
    info.update(json.loads(proc.stdout))
    return info


def measure_setup(clock, results):
    """Interpreter start, ``import causaluplift`` and parser build, as every
    CLI stage pays them: ``--version`` runs, appended to ``results``."""
    for _ in range(SETUP_BURST):
        result = clock.run(["--version"])
        if result.rc != 0 or not result.stdout.strip():
            raise SystemExit(f"`causaluplift.cli --version` failed: {result.stderr.strip()[-500:]}")
        results.append(result)


def describe(name, values, unit):
    values = sorted(values)
    return (
        f"{name:<22} median {statistics.median(values):10.4f} {unit:<5} "
        f"min {values[0]:.4f} max {values[-1]:.4f} n={len(values)}"
    )


# ------------------------------------------------------------------- modes


def end_to_end(loop, seconds, log_dir):
    """Untraced: every stage is a fresh CLI process."""
    clock = ReferenceClock(log_dir)
    setup, reps, tries, last = [], [], 0, 0.0
    measure_setup(clock, setup)
    start = time.perf_counter()
    # a repetition starts only if one as long as the last still ends in time,
    # so a run lasts about --seconds however slow the machine is
    while tries < MIN_REPS or time.perf_counter() - start + last < seconds:
        tries += 1
        began = time.perf_counter()
        results = loop.repetition(lambda stage, argv: clock.run(argv))
        if results is not None:
            reps.append(results)
        # spread over the run, so a slow spell of the machine does not
        # catch every sample
        measure_setup(clock, setup)
        last = time.perf_counter() - began
    if not reps:
        return None
    stage_times = {}
    for results in reps:
        per_stage = {}
        for stage, result in results:
            per_stage[stage] = per_stage.get(stage, 0.0) + result.seconds
        for stage, value in per_stage.items():
            stage_times.setdefault(f"{stage}_s", []).append(value)
    samples = {
        "wall_s": [sum(r.seconds for _, r in results) for results in reps],
        "setup_s": [r.seconds for r in setup],
        "cpu_s": [sum(r.cpu_s for _, r in results) for results in reps],
        "peak_rss_mb": [max(r.maxrss_kb for _, r in results) / 1024 for results in reps],
        "reference_ms": [r.ref_s * 1e3 for results in reps for _, r in results],
        "scaled wall_s": [sum(r.scaled_s for _, r in results) for results in reps],
        "scaled setup_s": [r.scaled_s for r in setup],
    }
    for name, values in {**stage_times, **samples}.items():
        unit = "ms" if name.endswith("_ms") else "MB" if name.endswith("_mb") else "s"
        print(describe(name, values, unit))
    # Scaling by the reference removes the drift over minutes, not the
    # noise of single samples (about 10% either way), so each time is a
    # median: wall_s adds up each stage's median scaled time.
    medians = [statistics.median(times)
               for times in zip(*([r.scaled_s for _, r in results] for results in reps))]
    metrics = {
        "wall_s": math.fsum(medians),
        "setup_s": statistics.median(samples["scaled setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    print(f"reported: wall_s = sum of each stage's median scaled time over {len(reps)} "
          f"repetitions = {metrics['wall_s']:.4f} s; setup_s = median scaled time of "
          f"{len(setup)} = {metrics['setup_s']:.4f} s; peak_rss_mb = median; scaled = "
          f"seconds x {REF_NOMINAL_S * 1e3:.0f} ms / the reference job's time around the stage")
    return metrics


def traced(loop, seconds, workload, seed):
    """Alternate traced and untraced in-process replays. The first traced
    replay is cold (first calls, BLAS start-up) and only gives
    ``logistic.fit_logistic.first_ms``, unless it is the only one. Tracing
    overhead is the median over the later rounds of traced minus untraced
    wall time, each pair run back to back."""
    sys.path.insert(0, SRC)

    traced_runs, plain_walls = [], []  # one of each per round
    last_spans = None
    start = time.perf_counter()
    while len(plain_walls) < MIN_REPS or time.perf_counter() - start < seconds:
        tracer = Tracer()
        with tracer:
            results = loop.repetition(
                lambda stage, argv: run_inprocess(argv, tracer, stage)
            )
        if results is None:
            break
        check_nesting(tracer.spans)
        wall = sum(r.seconds for _, r in results)
        traced_runs.append((wall, layer_metrics(tracer.spans, tracer.counts)))
        last_spans = tracer.spans
        results = loop.repetition(lambda stage, argv: run_inprocess(argv))
        if results is None:
            break
        plain_walls.append(sum(r.seconds for _, r in results))
    if not plain_walls:
        return None
    cold = traced_runs[0][1]
    warm = traced_runs[1:] or traced_runs
    metrics = median_metrics([m for _, m in warm])
    metrics["logistic.fit_logistic.first_ms"] = cold["logistic.fit_logistic.first_ms"]
    replay_ms = statistics.median(plain_walls) * 1e3
    metrics["trace.replay_ms"] = replay_ms
    pairs = list(zip(traced_runs, plain_walls))
    metrics["trace.overhead_ms"] = statistics.median(t - u for (t, _), u in pairs[1:] or pairs) * 1e3
    metrics["trace.span_cost_ms"] = wrapper_cost_ns() * metrics["trace.spans"] / 1e6
    metrics["quality.causal_accuracy"] = loop.quality.get("causal_accuracy", 0.0)
    metrics["quality.qini_area"] = loop.quality.get("qini_area", 0.0)

    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": last_spans}, fh)
    print(f"traced replays {len(traced_runs)} (first is cold), untraced replays "
          f"{len(plain_walls)}; spans of the last traced replay in {path}")
    print(describe("untraced replay", [w * 1e3 for w in plain_walls], "ms"))
    print(describe("traced replay", [w * 1e3 for w, _ in traced_runs], "ms"))
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_process, which kills its child


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(SRC, "causaluplift", "cli.py")):
        print(f"error: no causaluplift sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    inp, out = os.path.join(run_dir, "in"), os.path.join(run_dir, "out")
    os.makedirs(run_dir)
    try:
        compile_sources()
        machine = machine_info()
        print("machine " + json.dumps(machine, sort_keys=True))
        setup_inputs(args.workload, inp, args.seed, run_dir)
        loop = Loop(args.workload, inp, out, args.seed)
        if args.trace:
            metrics = traced(loop, args.seconds, args.workload, args.seed)
            units = PER_LAYER
        else:
            metrics = end_to_end(loop, args.seconds, run_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in loop.errors:
        print(f"error: {error}", file=sys.stderr)
    if metrics is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(f"quality {json.dumps(loop.quality, sort_keys=True)}")
    print(f"failed_ops {loop.failed}/{loop.attempted} stage invocations")
    print(json.dumps({
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
