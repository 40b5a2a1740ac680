import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxelcad
from voxelcad import __version__
from voxelcad.cli import build_parser, dispatch
from voxelcad.evaluation import strip_timing
from voxelcad.features import FeatureKind, build_feature_matrix
from voxelcad.manifest import read_manifest
from voxelcad.pipeline import BUNDLE_VERSION, PipelineModel


def _extract_values(path) -> np.ndarray:
    """The feature values of an extract CSV (subject_id,label,f0..)."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header[:2] == ["subject_id", "label"]
    return np.array([[float(x) for x in rec[2:]] for rec in records])


@pytest.fixture(scope="module")
def svm_bundle(tmp_path_factory, small_dataset):
    manifest, _ = small_dataset
    out = tmp_path_factory.mktemp("bundle") / "model.json"
    code = dispatch(["train", "--manifest", str(manifest),
                     "--model", "svm", "--model-out", str(out)])
    assert code == 0
    return out


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process that imports this checkout's package."""
    src = str(Path(voxelcad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "voxelcad.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_version_subprocess():
    proc = _run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"voxelcad {__version__}"


def test_synth_writes_cohort(tmp_path, capsys):
    out = tmp_path / "cohort"
    code = dispatch(["synth", "--out", str(out), "--n-ad", "3", "--n-hc", "2",
                     "--dims", "6x5x4", "--seed", "3"])
    assert code == 0
    manifest = out / "manifest.csv"
    assert capsys.readouterr().out.strip() == str(manifest)
    rows = read_manifest(manifest)
    assert len(rows) == 5
    assert all(r.path.exists() for r in rows)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert dispatch(["synth", "--out", str(tmp_path), "--frobnicate"]) == 2
    assert dispatch(["synth", "--out", str(tmp_path), "--dims", "4x4"]) == 2
    assert dispatch(["bogus-command"]) == 2
    assert dispatch(["synth"]) == 2  # --out is required
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    # invalid configuration value
    code = dispatch(["train", "--manifest", str(manifest),
                     "--model-out", str(tmp_path / "m.json"),
                     "--kernel-scale", "-1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # missing input file
    code = dispatch(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.csv")])
    assert code == 1
    # unsupported pipeline combination
    code = dispatch(["train", "--manifest", str(manifest), "--model", "ann",
                     "--no-pca", "--model-out", str(tmp_path / "m.json")])
    assert code == 1
    assert "--pca" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["1e-170", "1e160"])
def test_a_kernel_scale_whose_square_is_not_a_positive_finite_float_exits_1(
        scale, tmp_path, small_dataset, capsys):
    # 1e-170 squares to 0.0 (a 0/0 kernel diagonal, which SMO reported as
    # a stalled pair) and 1e160 to inf (a kernel of ones, silently)
    manifest, _ = small_dataset
    code = dispatch(["train", "--manifest", str(manifest), "--model", "svm", "--no-pca",
                     "--model-out", str(tmp_path / "m.json"), "--kernel-scale", scale])
    assert code == 1
    err = capsys.readouterr().err
    assert "square a positive finite float (about 1.6e-162 to 1.3e154)" in err
    assert not (tmp_path / "m.json").exists()


def test_extract_flags_override_config(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bins": 8, "block_grid": [2, 2, 2]}))
    out = tmp_path / "features.csv"
    code = dispatch(["extract", "--manifest", str(manifest),
                     "--out", str(out), "--config", str(cfg_path),
                     "--bins", "4"])
    assert code == 0
    capsys.readouterr()
    got = _extract_values(out)
    want = build_feature_matrix(manifest, FeatureKind.GRAYSCALE,
                                block_grid=(2, 2, 2), bins=4)
    assert np.array_equal(got, want.values)
    assert got.shape == (20, 2 * 2 * 2 * 6)


def test_extract_vaf_features(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    out = tmp_path / "vaf.csv"
    code = dispatch(["extract", "--manifest", str(manifest),
                     "--out", str(out), "--features", "vaf"])
    assert code == 0
    capsys.readouterr()
    assert _extract_values(out).shape == (20, 8 * 9 * 7)


def test_train_then_predict(svm_bundle, small_dataset, capsys):
    manifest, _ = small_dataset
    row = read_manifest(manifest)[0]
    code = dispatch(["predict", "--model", str(svm_bundle),
                     "--volume", str(row.path)])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"(AD|HC) -?\d+\.\d{6}", out)


@pytest.mark.parametrize("flags", [["--pca", "--svm-tol", "3"], ["--no-pca", "--svm-tol", "3"],
                                   ["--C", "1e-9"]], ids=["pca", "no-pca", "tiny-C"])
def test_a_bundle_with_no_support_vector_loads_and_scores_its_bias(flags, small_dataset,
                                                                   tmp_path, capsys):
    manifest, _ = small_dataset
    out = tmp_path / "model.json"
    assert dispatch(["train", "--manifest", str(manifest), "--model", "svm", *flags,
                     "--model-out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    svm_fields, (k,) = bundle["classifier"]["model"], bundle["affine"]["offset"]["shape"]
    assert k == (8 * 9 * 7 if "--no-pca" in flags else bundle["affine"]["weight"]["shape"][1])
    # the empty support vectors keep the width of the classifier's inputs
    assert svm_fields["support_vectors"] == {"shape": [0, k], "data": ""}
    assert svm_fields["alphas"] == svm_fields["labels"] == {"shape": [0], "data": ""}
    capsys.readouterr()
    row = read_manifest(manifest)[0]
    assert dispatch(["predict", "--model", str(out), "--volume", str(row.path)]) == 0
    assert capsys.readouterr().out.split()[1] == f"{svm_fields['bias']:.6f}"
    PipelineModel.load(out).save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()


def test_a_non_finite_flag_is_refused(small_dataset, tmp_path, capsys):
    manifest, _ = small_dataset
    out = tmp_path / "model.json"
    assert dispatch(["train", "--manifest", str(manifest), "--C", "inf",
                     "--model-out", str(out)]) == 1
    assert "config override 'C' must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_predict_missing_volume_exits_1(svm_bundle, tmp_path, capsys):
    code = dispatch(["predict", "--model", str(svm_bundle),
                     "--volume", str(tmp_path / "ghost.rvol")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("version", [1, 2, 99, float(BUNDLE_VERSION), True])
def test_predict_refuses_other_bundle_versions(version, svm_bundle, small_dataset,
                                               tmp_path, capsys):
    manifest, _ = small_dataset
    bundle = json.loads(svm_bundle.read_text())
    bundle["version"] = version
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(bundle))
    code = dispatch(["predict", "--model", str(path),
                     "--volume", str(read_manifest(manifest)[0].path)])
    assert code == 1
    assert f"unsupported bundle version {version}" in capsys.readouterr().err


_DELETED = object()


@pytest.mark.parametrize("field, value, message", [
    ("classifier", [1], "bundle field 'classifier' must be a JSON object"),
    ("affine", [1], "bundle field 'affine' must be a JSON object"),
    # one NaN weight, and a one-entry offset that does not compose with W
    ("affine.weight", {"shape": [1, 1], "data": "AAAAAAAA+H8="},
     "bundle field 'affine.weight' must be a numeric array"),
    ("affine.offset", {"shape": [1], "data": "AAAAAAAA8D8="}, "bundle field 'affine' has a"),
    ("bins", "x", "bundle field 'bins' must be an integer >= 1, got 'x'"),
    ("bins", "3", "bundle field 'bins' must be an integer >= 1, got '3'"),
    ("bins", None, "bundle field 'bins' must be an integer >= 1, got None"),
    ("bins", 0, "bundle field 'bins' must be an integer >= 1, got 0"),
    ("block_grid", None, "bundle field 'block_grid' must be three integers >= 1"),
    ("block_grid", [4, 4], "bundle field 'block_grid' must be three integers >= 1"),
    ("block_grid", [4, 0, 4], "bundle field 'block_grid' must be three integers >= 1"),
    ("affine", _DELETED, "bundle field 'affine' is missing"),
    ("classifier.model.alphas", _DELETED, "bundle field 'classifier.model.alphas' is missing"),
    ("feature_kind", "TEXT", "bundle field 'feature_kind': 'TEXT' is not a valid FeatureKind"),
    ("classifier.model.kernel", "POLY",
     "bundle field 'classifier.model.kernel': 'POLY' is not a valid KernelKind"),
    ("bins", _DELETED, "bundle field 'bins' is missing"),
    ("pipeline", "PCA-KNN", "bundle field 'pipeline': unknown pipeline 'PCA-KNN'"),
], ids=["classifier", "affine", "affine.weight", "affine.offset", "bins-x", "bins-str",
        "bins-null", "bins-zero", "block_grid-null", "block_grid-pair", "block_grid-zero",
        "affine-missing", "alphas-missing", "feature_kind-text", "kernel-poly",
        "bins-missing", "pipeline-knn"])
def test_predict_refuses_a_malformed_bundle(field, value, message, svm_bundle,
                                            small_dataset, tmp_path):
    manifest, _ = small_dataset
    bundle = json.loads(svm_bundle.read_text())
    *parents, key = field.split(".")
    target = bundle
    for name in parents:
        target = target[name]
    if value is _DELETED:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    proc = _run_cli("predict", "--model", str(path),
                    "--volume", str(read_manifest(manifest)[0].path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {message}")


@pytest.mark.parametrize("key, value, want", [
    ("block_grid", None, "a list of three integers"),
    ("block_grid", [2, 2, 2.0], "a list of three integers"),
    ("n_ad", "x", "an integer"),
    ("n_hc", True, "an integer"),
    ("C", "1", "a number"),
    ("folds", None, "an integer"),
    ("seed", "x", "an integer"),
    ("kernel", 1, "a string"),
], ids=["block_grid-null", "block_grid-float", "n_ad-str", "n_hc-bool", "C-str",
        "folds-null", "seed-str", "kernel-int"])
def test_config_file_refuses_a_mistyped_value(key, value, want, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    proc = _run_cli("synth", "--out", str(tmp_path / "cohort"), "--n-ad", "2",
                    "--n-hc", "2", "--dims", "6x5x4", "--config", str(cfg_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"error: config key {key!r} in {cfg_path} must be {want}, got {value!r}")
    assert not (tmp_path / "cohort").exists()


def test_threads_config_key_is_refused(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 2}))
    code = dispatch(["extract", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_the_removed_pca_prescale_option_is_refused(tmp_path, small_dataset, capsys):
    # unit-variance scaling before PCA is not part of the paper's pipelines
    manifest, _ = small_dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pca_prescale": True}))
    out = tmp_path / "model.json"
    assert dispatch(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--model-out", str(out)]) == 1
    assert f"unknown config key 'pca_prescale' in {cfg_path}" in capsys.readouterr().err
    assert dispatch(["train", "--manifest", str(manifest), "--pca-prescale",
                     "--model-out", str(out)]) == 2
    assert "unrecognized arguments: --pca-prescale" in capsys.readouterr().err
    assert not out.exists()


def test_eval_writes_reports(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    report = tmp_path / "report.json"
    csv_path = tmp_path / "folds.csv"
    code = dispatch(["eval", "--manifest", str(manifest),
                     "--pipelines", "pca-svm,vaf-svm",
                     "--report", str(report), "--csv", str(csv_path),
                     "--folds", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PCA-SVM: accuracy" in out and "VAF-SVM: accuracy" in out
    payload = json.loads(report.read_text())
    assert [r["pipeline"] for r in payload["reports"]] == ["PCA-SVM", "VAF-SVM"]
    assert len(payload["reports"][0]["folds"]) == 4
    assert len(csv_path.read_text().splitlines()) == 1 + 2 * 4


def test_report_files_of_identical_runs_are_equal_after_strip_timing(tmp_path,
                                                                     small_dataset):
    manifest, _ = small_dataset
    payloads = []
    for name in ("first.json", "second.json"):
        assert dispatch(["eval", "--manifest", str(manifest), "--pipelines",
                         "pca-svm,pca-ann", "--folds", "4",
                         "--report", str(tmp_path / name)]) == 0
        payloads.append(json.loads((tmp_path / name).read_text()))
    first, second = (strip_timing(p) for p in payloads)
    assert first == second
    for report in first["reports"]:
        assert "timing" not in report
        assert all("train_time_s" not in fold for fold in report["folds"])
    # the payloads themselves still carry their timings
    assert all("timing" in r for r in payloads[0]["reports"])


def test_eval_rejects_unknown_pipeline(tmp_path, small_dataset, capsys):
    manifest, _ = small_dataset
    code = dispatch(["eval", "--manifest", str(manifest),
                     "--pipelines", "pca-knn",
                     "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "unknown pipeline" in capsys.readouterr().err


def test_the_reused_parser_carries_no_state_between_calls(tmp_path, small_dataset,
                                                          capsys):
    manifest, _ = small_dataset
    assert build_parser() is build_parser()
    assert dispatch(["train", "--manifest", str(manifest), "--bins", "x"]) == 2
    assert "argument --bins: invalid int value: 'x'" in capsys.readouterr().err
    assert dispatch(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    other = tmp_path / "other.json"
    assert dispatch(["train", "--manifest", str(manifest), "--C", "2",
                     "--model-out", str(other)]) == 0
    plain = tmp_path / "plain.json"
    assert dispatch(["train", "--manifest", str(manifest),
                     "--model-out", str(plain)]) == 0
    capsys.readouterr()
    child = tmp_path / "child.json"
    proc = _run_cli("train", "--manifest", str(manifest), "--model-out", str(child))
    assert proc.returncode == 0, proc.stderr
    assert plain.read_bytes() == child.read_bytes()
    assert other.read_bytes() != child.read_bytes()

    volume = str(read_manifest(manifest)[0].path)
    assert dispatch(["predict", "--model", str(plain), "--volume", volume]) == 0
    proc = _run_cli("predict", "--model", str(child), "--volume", volume)
    assert proc.returncode == 0, proc.stderr
    assert capsys.readouterr().out == proc.stdout
