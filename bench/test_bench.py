"""Self-test of the benchmark: every workload at toy sizes, both modes.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    assert "fail_ratio" in proc.stdout and "ops_attempted" in proc.stdout
    env = json.loads(proc.stdout.splitlines()[0].removeprefix("env "))
    for key in ("nproc", "cpu_affinity", "python", "numpy", "blas",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "git_commit", "seed"):
        assert key in env


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_gives_same_inputs():
    import workloads

    assert workloads.derive_seed(7, "op", 3) == workloads.derive_seed(7, "op", 3)
    assert workloads.derive_seed(7, "op", 3) != workloads.derive_seed(8, "op", 3)


def test_covered_merges_overlapping_children():
    import spans

    def child(start, end):
        return spans.Span(0, "c", start, end, None, 0, 0)

    kids = [child(1.0, 3.0), child(2.0, 4.0), child(6.0, 12.0), child(-1.0, 0.5)]
    assert spans._covered((0.0, 10.0), kids) == pytest.approx(3.0 + 4.0 + 0.5)


def test_tracer_restores_the_original_functions():
    import spans

    before = [getattr(mod, attr) for mod, attr, *_ in spans.PATCH_POINTS]
    tracer = spans.Tracer()
    tracer.install(0)
    assert all(getattr(mod, attr) is not orig
               for (mod, attr, *_), orig in zip(spans.PATCH_POINTS, before))
    tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr, *_ in spans.PATCH_POINTS] == before
