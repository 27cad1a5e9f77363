"""The latest ``BENCH_<n>.json`` at the repository root is the record the
README's figures are read from. It holds every ``BENCHMARK.json`` workload's
last ``perfbench/run.py`` line at ``--trace 0`` and ``--trace 1``, the
machine they ran on, and the sha256 of each stage's output files at the run's
seed. Only its layout is checked here: no timing is asserted."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def record():
    numbered = {
        int(m.group(1)): path
        for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    }
    assert numbered, "no BENCH_<n>.json at the repository root"
    return json.loads(numbered[max(numbered)].read_text(encoding="utf-8"))


def test_every_workload_at_both_trace_settings(record):
    assert isinstance(record["seed"], int)
    for name in WORKLOADS:
        runs = record["runs"][name]
        assert sorted(runs) == ["trace0", "trace1"], name
        for line in runs.values():
            assert line["correct"] is True and line["failed"] == 0, name
            assert line["attempted"] > 0, name


@pytest.mark.parametrize("setting, metrics", [("trace0", "end_to_end"), ("trace1", "per_layer")])
def test_each_metric_recorded_with_its_unit(record, setting, metrics):
    for name in WORKLOADS:
        recorded = record["runs"][name][setting]["metrics"]
        for metric in BENCHMARK[metrics]:
            entry = recorded[metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(entry["value"], (int, float)), (name, metric["name"])


def test_machine_line(record):
    machine = record["machine"]
    for key in ("nproc", "cpu_model", "python", "numpy"):
        assert machine[key], key


def test_every_output_file_hashed(record):
    for name in WORKLOADS:
        stages = record["outputs"][name]
        assert stages, name
        for files in stages.values():
            assert files
            for path, digest in files.items():
                assert re.fullmatch(r"[0-9a-f]{64}", digest), (name, path)
