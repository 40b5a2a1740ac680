import dataclasses
import json

import numpy as np
import pytest

from voxelcad.ann import AnnModel, forward_batch
from voxelcad.features import FeatureKind
from voxelcad.labels import from_sign
from voxelcad.manifest import read_manifest
from voxelcad.pca import fit_pca, project
from voxelcad.pipeline import (PIPELINES, PipelineModel, apply_standardization,
                               canonical_pipeline, fit_pipeline,
                               fit_standardization, pipeline_feature_kind,
                               predict_matrix, predict_volume)
from voxelcad.svm import SvmModel, decision_batch
from voxelcad.volume import load_volume


def test_canonical_pipeline_names():
    assert canonical_pipeline(" pca-svm ") == "PCA-SVM"
    assert canonical_pipeline("VAF-SVM") == "VAF-SVM"
    with pytest.raises(ValueError, match="unknown pipeline"):
        canonical_pipeline("PCA-KNN")


def test_pipeline_feature_kind_rules(small_runconfig):
    assert pipeline_feature_kind("PCA-SVM", small_runconfig) is FeatureKind.GRAYSCALE
    assert pipeline_feature_kind("PCA-ANN", small_runconfig) is FeatureKind.GRAYSCALE
    assert pipeline_feature_kind("VAF-SVM", small_runconfig) is FeatureKind.VAF
    vaf_cfg = dataclasses.replace(small_runconfig, feature_kind="vaf")
    assert pipeline_feature_kind("PCA-SVM", vaf_cfg) is FeatureKind.VAF
    assert pipeline_feature_kind("VAF-SVM", vaf_cfg) is FeatureKind.VAF


def test_standardization_hand_example():
    X = np.array([[1.0, 3.0], [3.0, 7.0]])
    means, sigmas = fit_standardization(X)
    assert np.array_equal(means, [2.0, 5.0])
    assert np.allclose(sigmas, [np.sqrt(2.0), np.sqrt(8.0)], atol=1e-15)
    Z = apply_standardization(X, (means, sigmas))
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-15)
    assert np.allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardization_degenerate_columns():
    X = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
    means, sigmas = fit_standardization(X)
    assert sigmas[0] == 1.0  # constant column passes through unscaled
    single_means, single_sigmas = fit_standardization(np.array([[7.0, -1.0]]))
    assert np.array_equal(single_means, [7.0, -1.0])
    assert np.array_equal(single_sigmas, [1.0, 1.0])


def _fit(pid, fm, cfg, **kw):
    return fit_pipeline(pid, fm.values, fm.labels, cfg, **kw)


def test_fit_pipeline_bundles(small_grayscale, small_vaf, small_runconfig):
    cfg = small_runconfig
    m = small_grayscale.values.shape[1]
    svm_model = _fit("PCA-SVM", small_grayscale, cfg)
    k = svm_model.classifier.support_vectors.shape[1]
    assert svm_model.weight.shape == (m, k) and svm_model.offset.shape == (k,)
    assert isinstance(svm_model.classifier, SvmModel)
    assert svm_model.feature_kind is FeatureKind.GRAYSCALE
    assert svm_model.block_grid == tuple(cfg.block_grid)
    assert svm_model.bins == cfg.bins

    ann_model = _fit("PCA-ANN", small_grayscale, cfg, ann_seed=1)
    assert isinstance(ann_model.classifier, AnnModel)
    assert ann_model.weight.shape == (m, ann_model.classifier.n_inputs)

    vaf_model = _fit("VAF-SVM", small_vaf, cfg)
    m_vaf = small_vaf.values.shape[1]
    assert vaf_model.weight.shape == vaf_model.offset.shape == (m_vaf,)
    assert vaf_model.feature_kind is FeatureKind.VAF
    assert vaf_model.block_grid is None and vaf_model.bins is None

    for model, fm in ((svm_model, small_grayscale), (ann_model, small_grayscale),
                      (vaf_model, small_vaf)):
        labels, scores = predict_matrix(model, fm.values)
        assert scores.shape == (fm.values.shape[0],)
        assert labels == [("AD" if s > 0 else "HC") for s in scores]


def test_fit_pipeline_validation(small_grayscale, small_runconfig):
    with pytest.raises(ValueError, match="labels length"):
        fit_pipeline("PCA-SVM", small_grayscale.values,
                     small_grayscale.labels[:-1], small_runconfig)
    with pytest.raises(ValueError, match="unknown pipeline"):
        fit_pipeline("VAF-ANN", small_grayscale.values,
                     small_grayscale.labels, small_runconfig)


def test_ann_seed_controls_initialization(small_grayscale, small_runconfig):
    a = _fit("PCA-ANN", small_grayscale, small_runconfig, ann_seed=1)
    b = _fit("PCA-ANN", small_grayscale, small_runconfig, ann_seed=1)
    assert a.to_dict() == b.to_dict()
    c = _fit("PCA-ANN", small_grayscale, small_runconfig, ann_seed=2)
    _, sa = predict_matrix(a, small_grayscale.values)
    _, sc = predict_matrix(c, small_grayscale.values)
    assert not np.array_equal(sa, sc)


def test_validation_slice_feeds_ann_early_stopping(small_grayscale,
                                                   small_runconfig):
    fm = small_grayscale
    model = _fit("PCA-ANN", fm, small_runconfig, ann_seed=3,
                 val_X=fm.values[:4], val_labels=fm.labels[:4])
    assert model.classifier.history["val_sse"] is not None
    plain = _fit("PCA-ANN", fm, small_runconfig, ann_seed=3)
    assert plain.classifier.history["val_sse"] is None


def test_prescale_is_carried_in_the_bundle(small_grayscale, small_runconfig):
    cfg = dataclasses.replace(small_runconfig, pca_prescale=True)
    model = _fit("PCA-SVM", small_grayscale, cfg)
    plain = _fit("PCA-SVM", small_grayscale, small_runconfig)
    assert not np.array_equal(model.weight, plain.weight)
    labels, _ = predict_matrix(model, small_grayscale.values)
    assert set(labels) <= {"AD", "HC"}


def test_bundle_round_trip_preserves_predictions(tmp_path, small_grayscale,
                                                 small_vaf, small_runconfig):
    for pid in PIPELINES:
        fm = small_vaf if pid == "VAF-SVM" else small_grayscale
        model = _fit(pid, fm, small_runconfig, ann_seed=5)
        path = tmp_path / f"{pid}.json"
        model.save(path)
        back = PipelineModel.load(path)
        assert back.pipeline == pid
        assert back.feature_kind is model.feature_kind
        labels_a, scores_a = predict_matrix(model, fm.values)
        labels_b, scores_b = predict_matrix(back, fm.values)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)
        d = json.loads(path.read_text())
        assert d["version"] == 2
        assert set(d) == {"version", "pipeline", "feature_kind", "block_grid",
                          "bins", "affine", "classifier"}
        assert not set(d["classifier"]["model"]) & {"standardization", "version"}


@pytest.mark.parametrize("pid, prescale", [("PCA-SVM", False), ("PCA-ANN", False),
                                           ("VAF-SVM", False), ("PCA-SVM", True)])
def test_composed_front_end_matches_the_staged_one(pid, prescale, small_grayscale,
                                                   small_vaf, small_runconfig):
    cfg = dataclasses.replace(small_runconfig, pca_prescale=prescale)
    fm = small_vaf if pid == "VAF-SVM" else small_grayscale
    model = _fit(pid, fm, cfg)
    X = fm.values
    if pid != "VAF-SVM":
        if prescale:
            X = apply_standardization(X, fit_standardization(X))
        X = project(fit_pca(X, cum_threshold=cfg.pca_threshold), X)
    Z = apply_standardization(X, fit_standardization(X))
    clf = model.classifier
    want = decision_batch(clf, Z) if isinstance(clf, SvmModel) else forward_batch(clf, Z)
    labels, scores = predict_matrix(model, fm.values)
    assert np.max(np.abs(scores - want)) <= 1e-12 * np.max(np.abs(want))
    assert labels == [from_sign(s) for s in want]
    if pid == "VAF-SVM":
        assert model.weight.shape == (fm.values.shape[1],)


def test_from_dict_rejects_unknown_classifier(small_grayscale, small_runconfig):
    d = _fit("PCA-SVM", small_grayscale, small_runconfig).to_dict()
    d["classifier"]["type"] = "TREE"
    with pytest.raises(ValueError, match="classifier type"):
        PipelineModel.from_dict(d)


def test_from_dict_rejects_a_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        PipelineModel.from_dict([1, 2])


def test_predict_matrix_checks_width(small_grayscale, small_vaf,
                                     small_runconfig):
    model = _fit("PCA-SVM", small_grayscale, small_runconfig)
    with pytest.raises(ValueError):
        predict_matrix(model, small_vaf.values)


def test_predict_volume_matches_matrix_path(small_dataset, small_grayscale,
                                            small_vaf, small_runconfig):
    manifest, _ = small_dataset
    rows = read_manifest(manifest)
    row = rows[0]
    vol = load_volume(row.path, subject_id=row.subject_id)
    idx = small_grayscale.subject_ids.index(row.subject_id)
    for pid, fm in (("PCA-SVM", small_grayscale), ("VAF-SVM", small_vaf)):
        model = _fit(pid, fm, small_runconfig)
        label, score = predict_volume(model, vol)
        labels, scores = predict_matrix(model, fm.values[idx][None, :])
        assert label == labels[0]
        assert score == float(scores[0])
