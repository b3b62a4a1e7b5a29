"""Smoke test of the benchmark at a tiny q-order.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from run import SMOKE_QCAP, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--qcap", str(SMOKE_QCAP)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def checkout_copy(tmp_path, with_src=True):
    """The files a checkout of the repository holds that the benchmark needs."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
def test_gate_trips_on_an_altered_expected_report(tmp_path, trace):
    checkout = checkout_copy(tmp_path)
    path = checkout / "perfbench" / "expected" / f"suite-q{SMOKE_QCAP}.json"
    recorded = json.loads(path.read_text())
    report = next(r for r in recorded["reports"] if r["k"] is None)
    report["passed"] = not report["passed"]
    path.write_text(json.dumps(recorded))

    result = result_of(bench("suite-serial", trace, cwd=checkout))
    assert result["correct"] is False
    assert result["failed"] > 0
    if trace == 0:
        assert result["metrics"]["checks_passed_ratio"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("suite-serial", 0, cwd=checkout_copy(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
