"""Harness checks on tiny inputs; a minute in all.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "refs.json").read_text())


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec[name]
        assert metric["value"] > 0


def test_smoke_traced_counts_repeat():
    runs = [result_of(bench("--workload", "mc-relax", "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--smoke")) for _ in range(2)]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(runs[0]["metrics"]) == set(units)
    assert all(m["unit"] == units[k] for k, m in runs[0]["metrics"].items())
    counts = [{k: v["value"] for k, v in r["metrics"].items() if units[k] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["simulate.run.events"] > 0


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mc-relax", "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_theorem_gate_holds_the_test_tolerance():
    key = next(k for k in REFS["theorems"] if k.startswith("check_convex"))
    refs = REFS["theorems"][key]
    near = copy.deepcopy(refs)
    near[0]["lhs"] += 0.5 * workloads.GALERKIN_TOL
    assert all(ok for ok, _, _ in workloads.judge_theorem_records(near, refs))
    far = copy.deepcopy(refs)
    far[0]["lhs"] += 2.0 * workloads.GALERKIN_TOL
    assert not any(ok for ok, _, _ in workloads.judge_theorem_records(far, refs))


def test_appendix_gate_keeps_by_design_failures():
    records = REFS["appendix"]["records"]
    by_design = [r for r in records if not r["pass"]]
    assert len(by_design) == 6
    assert all(r["claim"] == "kappa-tilde-bracket" for r in by_design)
    flipped = dict(by_design[0], **{"pass": True})
    assert workloads._judge_appendix_record(flipped, by_design[0])
    assert not workloads._judge_appendix_record(dict(by_design[0]), by_design[0])
