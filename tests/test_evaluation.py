import dataclasses
import json

import numpy as np
import pytest

from oracles import naive_metrics
from voxelcad import evaluation
from voxelcad.evaluation import (ConfusionMatrix, EvalError, Metrics,
                                 _csv_num, _fold_seed, confusion,
                                 cross_validate, metrics, strip_timing,
                                 stratified_split, write_report_csv,
                                 write_report_json)
from voxelcad.pipeline import PIPELINES
from voxelcad.svm import KernelSpec


@pytest.fixture(scope="module")
def small_reports(small_dataset, small_runconfig):
    manifest, _ = small_dataset
    return cross_validate(manifest, PIPELINES, small_runconfig)


def test_confusion_hand_examples():
    same = ["AD", "AD", "HC"]
    cm = confusion(same, same)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 0, 0, 1)
    flipped = confusion(same, ["HC", "HC", "AD"])
    assert (flipped.tp, flipped.tn) == (0, 0)
    assert (flipped.fn, flipped.fp) == (2, 1)
    mixed = confusion(["AD", "AD", "HC", "HC"], ["AD", "HC", "HC", "AD"])
    assert (mixed.tp, mixed.fn, mixed.fp, mixed.tn) == (1, 1, 1, 1)


def test_confusion_validation():
    with pytest.raises(ValueError, match="zero samples"):
        confusion([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        confusion(["AD"], ["AD", "HC"])
    with pytest.raises(ValueError, match="labels"):
        confusion(["AD"], ["MCI"])


def test_confusion_matches_naive_recount(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        y_true = [("AD" if b else "HC") for b in rng.random(n) < 0.6]
        y_pred = [("AD" if b else "HC") for b in rng.random(n) < 0.5]
        cm = confusion(y_true, y_pred)
        (tp, fn, fp, tn), (acc, sens, spec) = naive_metrics(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (tp, fn, fp, tn)
        m = metrics(cm)
        assert m.accuracy == acc
        assert m.sensitivity == sens
        assert m.specificity == spec


def test_confusion_matrix_invariants():
    cm = ConfusionMatrix(tp=2, fn=1, fp=3, tn=4)
    assert cm.total == 10
    assert cm.misclassified == 4
    both = cm + ConfusionMatrix(1, 1, 1, 1)
    assert (both.tp, both.fn, both.fp, both.tn) == (3, 2, 4, 5)
    with pytest.raises(ValueError):
        ConfusionMatrix(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        ConfusionMatrix(1.5, 0, 0, 0)


def test_metrics_hand_examples():
    m = metrics(ConfusionMatrix(tp=9, fn=1, fp=2, tn=8))
    assert (m.accuracy, m.sensitivity, m.specificity) == (0.85, 0.9, 0.8)
    perfect = metrics(ConfusionMatrix(tp=5, fn=0, fp=0, tn=5))
    assert perfect == Metrics(1.0, 1.0, 1.0)
    no_pos = metrics(ConfusionMatrix(tp=0, fn=0, fp=1, tn=3))
    assert no_pos.sensitivity is None
    assert no_pos.specificity == 0.75
    with pytest.raises(ValueError):
        metrics(ConfusionMatrix(0, 0, 0, 0))


def test_stratified_split_on_imbalanced_cohort():
    labels = ["AD"] * 210 + ["HC"] * 90
    splits = stratified_split(labels, k=5, val_fraction=0.10, seed=3)
    assert len(splits) == 5
    lab = np.asarray(labels, dtype=object)
    seen_test = []
    for sp in splits:
        assert sp.test.size == 60
        assert np.sum(lab[sp.test] == "AD") == 42
        assert np.sum(lab[sp.test] == "HC") == 18
        assert sp.val.size == 30
        assert np.sum(lab[sp.val] == "AD") == 21
        assert sp.train.size == 210
        merged = np.concatenate([sp.train, sp.val, sp.test])
        assert np.array_equal(np.sort(merged), np.arange(300))
        seen_test.append(sp.test)
    # the five test chunks tile the cohort exactly once
    assert np.array_equal(np.sort(np.concatenate(seen_test)), np.arange(300))


def test_stratified_split_small_balanced():
    labels = ["AD", "HC"] * 5
    for sp in stratified_split(labels, k=5, seed=0):
        assert sp.test.size == 2
        assert {labels[i] for i in sp.test} == {"AD", "HC"}
        assert sp.val.size == 2 and sp.train.size == 6


def test_stratified_split_errors():
    with pytest.raises(ValueError, match="k must be"):
        stratified_split(["AD", "HC"] * 3, k=1)
    with pytest.raises(ValueError, match="needs >= 5"):
        stratified_split(["AD"] * 3 + ["HC"] * 9, k=5)
    with pytest.raises(ValueError, match="val_fraction"):
        stratified_split(["AD", "HC"] * 3, k=2, val_fraction=1.0)
    with pytest.raises(ValueError, match="without training data"):
        stratified_split(["AD", "HC"] * 4, k=2, val_fraction=0.9)


def test_stratified_split_is_seeded():
    labels = ["AD"] * 20 + ["HC"] * 12
    a = stratified_split(labels, k=4, seed=5)
    b = stratified_split(labels, k=4, seed=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train, sb.train)
        assert np.array_equal(sa.val, sb.val)
        assert np.array_equal(sa.test, sb.test)
    c = stratified_split(labels, k=4, seed=6)
    assert any(not np.array_equal(sa.test, sc.test) for sa, sc in zip(a, c))


def test_fold_seeds_are_distinct_and_stable():
    seeds = [_fold_seed(0, pid, f) for pid in PIPELINES for f in range(5)]
    assert len(set(seeds)) == len(seeds)
    assert _fold_seed(0, "PCA-ANN", 2) == _fold_seed(0, "PCA-ANN", 2)
    assert _fold_seed(1, "PCA-ANN", 2) != _fold_seed(0, "PCA-ANN", 2)


def test_cross_validate_report_shapes(small_reports, small_runconfig):
    assert [r.pipeline for r in small_reports] == list(PIPELINES)
    for report in small_reports:
        assert report.seed == small_runconfig.seed
        assert len(report.fold_results) == small_runconfig.folds
        agg = ConfusionMatrix(0, 0, 0, 0)
        for fr in report.fold_results:
            assert (fr.n_train, fr.n_val, fr.n_test) == (13, 2, 5)
            assert fr.cm.total == 5
            assert fr.scores == metrics(fr.cm)
            if report.pipeline == "PCA-ANN":
                assert isinstance(fr.early_stop_epoch, int) and fr.early_stop_epoch >= 0
            else:
                assert fr.early_stop_epoch is None
            agg = agg + fr.cm
        assert report.aggregate == agg
        assert report.aggregate.total == 20
        assert report.mean_scores == metrics(report.aggregate)
        assert report.notes
        assert report.config == small_runconfig.to_dict()
        d = report.to_dict()
        assert len(d["folds"]) == small_runconfig.folds
        assert d["mean_accuracy"] == report.mean_scores.accuracy
        assert "timing" in d and "train_time_s" in d["folds"][0]
        stripped = strip_timing(d)
        assert "timing" not in stripped
        assert "train_time_s" not in stripped["folds"][0]
        assert ([f["early_stop_epoch"] for f in stripped["folds"]]
                == [fr.early_stop_epoch for fr in report.fold_results])
        fallback = [n for n in report.notes if "mean-target network" in n]
        if report.pipeline == "PCA-ANN":
            kept = sum(fr.early_stop_epoch == 0 for fr in report.fold_results)
            assert fallback == [
                f"{kept} of {small_runconfig.folds} early-stopped folds kept the "
                "mean-target network (early_stop_epoch 0), which predicts the "
                "training majority"]
        else:
            assert fallback == []
        assert "timing" in d  # the original is untouched


@pytest.mark.parametrize("scale, identity", [(KernelSpec.scale, 0), (0.01, 4)])
def test_vaf_svm_notes_count_the_folds_with_an_identity_kernel(scale, identity, small_dataset,
                                                              small_runconfig):
    # at the default scale the 504-voxel kernel is only nearly the identity
    # (off-diagonal entries about 1e-56); at 0.01 it is the identity exactly
    cfg = dataclasses.replace(small_runconfig, kernel_scale=scale)
    (report,) = cross_validate(small_dataset[0], ["VAF-SVM"], cfg)
    assert [fr.identity_kernel for fr in report.fold_results].count(True) == identity
    assert (f"{identity} of {cfg.folds} folds fit a training kernel that is exactly the "
            "identity, on which VAF-SVM scores every test row at its bias and predicts "
            "the training majority") in report.notes
    if identity:
        # every fold predicts AD, the majority of its training rows
        assert (report.aggregate.tp, report.aggregate.fp) == (12, 8)
    assert "identity_kernel" not in report.to_dict()["folds"][0]


def test_pca_folds_report_what_the_pca_kept(small_reports, small_runconfig):
    kept = {}
    for report in small_reports:
        # deterministic fields: strip_timing keeps them
        folds = strip_timing(report.to_dict())["folds"]
        kept[report.pipeline] = [(f["pca_retained"], f["pca_cumulative_variance"])
                                 for f in folds]
        for retained, share in kept[report.pipeline]:
            if report.pipeline == "VAF-SVM":
                assert retained is None and share is None
            else:
                assert isinstance(retained, int) and retained >= 1
                assert small_runconfig.pca_threshold - 1e-12 <= share <= 1.0 + 1e-12
    # both PCA pipelines fit the same PCA on the same fold
    assert kept["PCA-SVM"] == kept["PCA-ANN"]


def test_cross_validate_is_deterministic(small_dataset, small_runconfig,
                                         small_reports):
    manifest, _ = small_dataset
    again = cross_validate(manifest, PIPELINES, small_runconfig)
    for first, second in zip(small_reports, again):
        assert strip_timing(first.to_dict()) == strip_timing(second.to_dict())


def test_cross_validate_never_writes_into_the_feature_matrices(
        monkeypatch, small_dataset, small_runconfig, small_reports):
    build = evaluation.build_feature_matrix

    def read_only(*args, **kwargs):
        fm = build(*args, **kwargs)
        fm.values.flags.writeable = False
        return fm

    monkeypatch.setattr(evaluation, "build_feature_matrix", read_only)
    manifest, _ = small_dataset
    again = cross_validate(manifest, PIPELINES, small_runconfig)
    for first, second in zip(small_reports, again):
        assert strip_timing(first.to_dict()) == strip_timing(second.to_dict())


def test_cross_validate_canonicalizes_names(small_dataset, small_runconfig):
    manifest, _ = small_dataset
    reports = cross_validate(manifest, [" pca-svm "], small_runconfig)
    assert [r.pipeline for r in reports] == ["PCA-SVM"]


def test_cross_validate_rejects_bad_requests(small_dataset, small_runconfig):
    manifest, _ = small_dataset
    with pytest.raises(ValueError, match="no pipelines"):
        cross_validate(manifest, [], small_runconfig)
    with pytest.raises(ValueError, match="unknown pipeline"):
        cross_validate(manifest, ["PCA-KNN"], small_runconfig)


def test_cross_validate_wraps_fold_failures(small_dataset, small_runconfig):
    manifest, _ = small_dataset
    cfg = dataclasses.replace(small_runconfig, trainer="gdm", lr=1e6)
    with pytest.raises(EvalError, match=r"pipeline PCA-ANN fold 0"):
        cross_validate(manifest, ["PCA-ANN"], cfg)


def test_report_writers(tmp_path, small_reports, small_runconfig):
    jpath = tmp_path / "report.json"
    write_report_json(small_reports, jpath)
    payload = json.loads(jpath.read_text())
    assert set(payload) == {"reports"}
    assert [r["pipeline"] for r in payload["reports"]] == list(PIPELINES)

    cpath = tmp_path / "report.csv"
    write_report_csv(small_reports, cpath)
    lines = cpath.read_text().splitlines()
    header = "pipeline,fold,tp,fn,fp,tn,accuracy,sensitivity,specificity"
    assert lines[0] == header
    assert len(lines) == 1 + len(PIPELINES) * small_runconfig.folds
    assert _csv_num(None) == ""
    assert float(_csv_num(0.85)) == 0.85  # 17 significant digits round-trip
