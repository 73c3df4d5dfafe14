"""Smoke test of the benchmark: every workload at tiny size in both modes,
exact repeat of traced counts, restoration of traced functions, and
refusal to run without the sources.

usage: PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".nodes", ".loose", ".tight", ".evals", ".misses", ".substeps")


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def result_of(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run_bench("closed-loop-blackout", 1))["metrics"] for _ in range(2))
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def _bindings():
    """Every function-valued attribute of the ospkit modules and
    scipy.linalg, plus SystemModel.discretize."""
    import ospkit
    import scipy.linalg

    modules = [m for n, m in sys.modules.items() if n == "ospkit" or n.startswith("ospkit.")]
    out = {("SystemModel", "discretize"): ospkit.SystemModel.discretize}
    for module in modules + [scipy.linalg]:
        for name, value in vars(module).items():
            if callable(value):
                out[(module.__name__, name)] = value
    return out


def test_tracer_restores_wrapped_functions():
    import ospkit
    import spans

    before = _bindings()
    with spans.Tracer() as tracer:
        assert ospkit.scheduler.g_step is not before[("ospkit.scheduler", "g_step")]
        assert ospkit.kalman.g_step is not before[("ospkit.kalman", "g_step")]
        ospkit.preset_config("rate-fast")
    assert [s[0] for s in tracer.spans] == ["config.preset_config"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    out = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
