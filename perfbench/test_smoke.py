"""Smoke tests of the benchmark at the unit-test cohort shape.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_FOLDS = 4


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"), *args],
                          cwd=checkout, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--smoke", "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in specs}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "predict-stream":
        # requests classify with a trained bundle and never fit
        assert values["pca.eigen_symmetric_calls"] == 0
        assert values["train.pca.eigen_symmetric_calls"] == 2
        assert values["features.block_features_calls"] == 1
    else:
        # one PCA fit per fold for each of PCA-SVM and PCA-ANN
        assert values["pca.eigen_symmetric_calls"] == 2 * SMOKE_FOLDS
        assert values["train.pca.eigen_symmetric_calls"] == 0


def test_traced_loop_repeats_each_input_untraced_then_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    assert list(workloads._ops(0, 2, trace=True)) == [
        (0, False), (0, True), (1, False), (1, True)]
    assert list(workloads._ops(0, 2, trace=False)) == [(0, False), (1, False)]


def test_tracer_refuses_a_missing_wrap_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing
    import voxelcad.pipeline
    monkeypatch.delattr(voxelcad.pipeline, "fit_pca")
    with pytest.raises(tracing.TraceTargetError, match="voxelcad.pipeline.fit_pca"):
        tracing.Tracer()


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "cv-grayscale", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
