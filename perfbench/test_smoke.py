"""Smoke test of the benchmark runner on tiny instances.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload of the runner once untraced and once traced at tiny
size, and checks the result line against BENCHMARK.json: its keys, every
metric name and unit, and that the per-layer self times plus unattributed_s
add up to the traced solve time. Also checks that a renamed span target is reported as
missing, and that the runner fails without a result where lapra's sources
are absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["pipeline-sampled", "rotation-many-robots", "rotation-planar"]
NOT_SELF_TIMES = {"unattributed_s", "traced_solve_s", "untraced_solve_s"}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_spec(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["trace.missing_targets"] == 0
    self_times = [v for k, v in values.items()
                  if k.endswith("_s") and k not in NOT_SELF_TIMES]
    assert all(v >= 0 for v in self_times)
    assert values["unattributed_s"] >= 0
    assert math.isclose(sum(self_times) + values["unattributed_s"], values["traced_solve_s"],
                        rel_tol=1e-9)
    assert values["laplacians.resistances_s"] == 0  # tiny instances never sample
    assert "sparsify stage.rotation robot 0:" in proc.stdout
    assert "check: ok" in proc.stdout


def test_spec_names_runner_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_renamed_target_is_reported_missing():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.wrap("lapra.rotation:_no_such_function", "rotation.gradient")
    tracer.wrap("lapra.no_such_module:solve", "decomposition.split_solve")
    tracer.wrap("lapra.decomposition:RobotBlock.no_such_method", "decomposition.schur_elim")
    tracer.restore()
    assert tracer.missing == ["lapra.rotation:_no_such_function", "lapra.no_such_module:solve",
                              "lapra.decomposition:RobotBlock.no_such_method"]


def test_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "rotation-planar", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
