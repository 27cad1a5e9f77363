"""Smoke test of the benchmark at tiny input sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the last output line
names every metric BENCHMARK.json declares, with its unit, and that no stage
failed. For the traced runs it also checks that the written spans nest with
self times >= 0 and that every wrapped function is restored afterwards.
Finally it checks that the benchmark refuses to run, without printing a
result, when the program's sources are absent. Exits 0 on success.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
import spans


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def check_result(result, declared, label):
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: {result['failed']}/{result['attempted']} stages failed")
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise AssertionError(f"{label}: {entry['name']} missing or not in {entry['unit']}")


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    return out.getvalue()


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    run.SIZES.update(group1=400, group2=600)
    sys.path.insert(0, run.SRC)
    originals = [(o, a, vars(o)[a]) for o, a, _, _ in spans.layer_patches()]

    for workload in bench["workloads"]:
        name = workload["name"]
        base = ["--workload", name, "--seed", "3", "--seconds", "0"]
        check_result(last_json(run_main(base + ["--trace", "0"])), bench["end_to_end"], name)
        check_result(last_json(run_main(base + ["--trace", "1"])), bench["per_layer"], name + " traced")
        with open(os.path.join(run.WORK, f"trace-{name}-seed3.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)["spans"]
        spans.check_nesting(recorded)
        stages = {s[0] for s in recorded if s[3] == -1}
        if not stages or not stages <= {f"cli.{s}" for s in spans.CLI_STAGES}:
            raise AssertionError(f"{name}: top-level spans are not CLI stages: {stages}")
        for owner, attr, original in originals:
            if vars(owner)[attr] is not original:
                raise AssertionError(f"{owner.__name__}.{attr} was not restored")
        print(f"ok {name}")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *base, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("run.py without the program's sources did not fail cleanly")
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
