import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from voxelcad.ann import AnnModel, forward_batch
from voxelcad.evaluation import stratified_split
from voxelcad.features import FeatureKind
from voxelcad.labels import from_sign, to_sign
from voxelcad.manifest import read_manifest
from voxelcad.pca import fit_pca, project
from voxelcad.pipeline import (PIPELINES, PipelineModel,
                               canonical_pipeline, fit_pipeline,
                               pipeline_feature_kind, predict_matrix,
                               predict_volume, standardize)
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
    Z, means, sigmas = standardize(X)
    assert np.array_equal(means, [2.0, 5.0])
    assert np.allclose(sigmas, [np.sqrt(2.0), np.sqrt(8.0)], atol=1e-15)
    assert np.array_equal(Z, (X - means) / sigmas)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-15)
    assert np.allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardization_degenerate_columns():
    X = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
    Z, means, sigmas = standardize(X)
    assert sigmas[0] == 1.0  # constant column passes through unscaled
    assert np.array_equal(Z[:, 0], [0.0, 0.0, 0.0])
    Z, single_means, single_sigmas = standardize(np.array([[7.0, -1.0]]))
    assert np.array_equal(single_means, [7.0, -1.0])
    assert np.array_equal(single_sigmas, [1.0, 1.0])
    assert np.array_equal(Z, [[0.0, 0.0]])


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
    train, val = np.arange(4, fm.values.shape[0]), np.arange(4)
    model = _fit("PCA-ANN", fm, small_runconfig, ann_seed=3, rows=train, val_rows=val)
    history = model.classifier.history
    assert history["val_sse"] is not None
    # the validation rows go through the same composed front end as test
    # rows, so the kept network's SSE on them is the one early stopping saw
    _, scores = predict_matrix(model, fm.values, rows=val)
    targets = np.array([to_sign(l) for l in fm.labels[:4]])
    sse = float(np.sum((scores - targets) ** 2))
    assert np.isclose(sse, history["val_sse"][history["early_stop_epoch"]],
                      rtol=1e-12, atol=0.0)
    plain = _fit("PCA-ANN", fm, small_runconfig, ann_seed=3, rows=train)
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
        # X @ W can differ in the last bits between F- and C-order weights
        assert back.weight.flags.f_contiguous == model.weight.flags.f_contiguous
        assert back.weight.flags.c_contiguous == model.weight.flags.c_contiguous
        if pid.endswith("SVM"):
            # a model that keeps every training row holds them in C order,
            # the layout of its JSON round trip
            sv = model.classifier.support_vectors
            assert sv.flags.c_contiguous
            if pid == "VAF-SVM":
                assert sv.shape[0] == fm.values.shape[0]  # support-vector ratio 1
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
            X = standardize(X)[0]
        X = project(fit_pca(X, cum_threshold=cfg.pca_threshold), X)
    Z = standardize(X)[0]
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


@pytest.fixture(scope="module")
def bundles(small_grayscale, small_runconfig):
    """One PCA-SVM and one PCA-ANN bundle as JSON-ready dicts."""
    return {pid: _fit(pid, small_grayscale, small_runconfig).to_dict()
            for pid in ("PCA-SVM", "PCA-ANN")}


_MISTYPED = [
    ("PCA-SVM", "bias", None, "must be a finite number"),
    ("PCA-SVM", "bias", [1], "must be a finite number"),
    ("PCA-SVM", "C", None, "must be a finite number"),
    ("PCA-SVM", "C", [1], "must be a finite number"),
    ("PCA-SVM", "scale", "x", "must be a finite number"),
    ("PCA-SVM", "alphas", 7, "must be a numeric array of rank 1"),
    ("PCA-SVM", "alphas", [None], "must be a numeric array of rank 1"),
    ("PCA-SVM", "support_vectors", [[1.0], [1.0, 2.0]], "must be a numeric array of rank 2"),
    ("PCA-ANN", "b2", None, "must be a finite number"),
    ("PCA-ANN", "b2", [1], "must be a finite number"),
    ("PCA-ANN", "w1", "x", "must be a numeric array of rank 2"),
]


@pytest.mark.parametrize("pid, key, value, message", _MISTYPED,
                         ids=[f"{p}-{k}={json.dumps(v)}" for p, k, v, _ in _MISTYPED])
def test_from_dict_names_a_mistyped_model_field(bundles, pid, key, value, message):
    d = json.loads(json.dumps(bundles[pid]))
    d["classifier"]["model"][key] = value
    with pytest.raises(ValueError, match=f"bundle field 'classifier.model.{key}' {message}"):
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


def _fold(fm):
    """One cross-validation fold's (train rows, validation rows) of fm."""
    sp = stratified_split(fm.labels, 4, 0.10, seed=0)[1]
    return sp.train, sp.val


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


_FITS = [(pid, kind, prescale)
         for pid in PIPELINES
         for kind in (("vaf",) if pid == "VAF-SVM" else ("grayscale", "vaf"))
         for prescale in (False, True)]


@pytest.mark.parametrize("pid, kind, prescale", _FITS,
                         ids=[f"{p}-{k}-prescale{int(s)}" for p, k, s in _FITS])
def test_a_fit_on_rows_equals_a_fit_on_the_sliced_rows(pid, kind, prescale,
                                                       small_grayscale, small_vaf,
                                                       small_runconfig):
    # every input is read-only, so a fit that writes into its caller's
    # arrays (the session-wide feature fixtures among them) raises here
    cfg = dataclasses.replace(small_runconfig, feature_kind=kind, pca_prescale=prescale)
    fm = small_vaf if kind == "vaf" else small_grayscale
    X = _read_only(fm.values)
    train, val = _fold(fm)
    labels = np.asarray(fm.labels, dtype=object)
    on_rows = fit_pipeline(pid, X, labels, cfg, ann_seed=6, rows=_read_only(train),
                           val_rows=_read_only(val))
    # the same rows and validation rows, as indices into X[train ∪ val]
    both = np.concatenate([train, val])
    sliced = fit_pipeline(pid, _read_only(X[both]), labels[both], cfg, ann_seed=6,
                          rows=np.arange(train.size),
                          val_rows=np.arange(train.size, both.size))
    assert on_rows.to_dict() == sliced.to_dict()
    _, scores = predict_matrix(on_rows, X)
    assert np.all(np.isfinite(scores))


def test_fit_pipeline_rejects_rows_that_are_not_indices(small_grayscale, small_runconfig):
    fm = small_grayscale
    mask = np.zeros(fm.values.shape[0], dtype=bool)
    mask[:10] = True
    model = _fit("PCA-SVM", fm, small_runconfig)
    for bad in (mask, np.arange(10.0), np.arange(10).reshape(2, 5)):
        with pytest.raises(ValueError, match="integer row indices"):
            fit_pipeline("PCA-SVM", fm.values, fm.labels, small_runconfig, rows=bad)
        for pid in ("PCA-SVM", "PCA-ANN"):
            with pytest.raises(ValueError, match="integer row indices"):
                fit_pipeline(pid, fm.values, fm.labels, small_runconfig,
                             rows=np.arange(10, 20), val_rows=bad)
        with pytest.raises(ValueError, match="integer row indices"):
            predict_matrix(model, fm.values, rows=bad)


@pytest.mark.parametrize("pid", PIPELINES)
def test_predict_matrix_on_rows_equals_predict_on_the_sliced_rows(pid, small_grayscale,
                                                                  small_vaf,
                                                                  small_runconfig):
    fm = small_vaf if pid == "VAF-SVM" else small_grayscale
    model = _fit(pid, fm, small_runconfig, ann_seed=2)
    X = _read_only(fm.values)
    idx = np.array([7, 0, 3, 3, X.shape[0] - 1])
    labels_a, scores_a = predict_matrix(model, X, rows=_read_only(idx))
    labels_b, scores_b = predict_matrix(model, X[idx])
    assert labels_a == labels_b
    assert np.array_equal(scores_a, scores_b)


def _wide_fold_fit(pid, cfg, rng, val_rows=None):
    """Fit pid on 40 of 50 rows 20,000 wide, like a VAF fold: (model, the
    tracemalloc peak over the fold's training-row bytes). numpy reports its
    array buffers to tracemalloc, so the traced peak counts every copy of
    the training rows, independent of the C heap's layout. A narrow fit
    runs first, untraced, so that one-off lazy imports do not count."""
    n, m = 50, 20_000
    X = rng.normal(size=(n, m))
    labels = ["AD"] * 35 + ["HC"] * 15
    rows = np.arange(5, 45)
    kw = dict(ann_seed=3, rows=rows, val_rows=val_rows)
    fit_pipeline(pid, X[:, :100], labels, cfg, **kw)
    tracemalloc.start()
    try:
        model = fit_pipeline(pid, X, labels, cfg, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return model, peak / (rows.size * m * X.itemsize)


def test_vaf_svm_fold_fit_allocates_one_working_copy(rng, small_runconfig):
    model, peak = _wide_fold_fit("VAF-SVM", small_runconfig, rng)
    # the Gaussian preset keeps every row of such a fold as a support vector
    assert model.classifier.support_vectors.shape[0] == 40
    assert peak <= 1.25, peak


@pytest.mark.parametrize("pid", ["PCA-SVM", "PCA-ANN"])
def test_pca_fold_fit_allocates_one_working_copy(pid, rng, small_runconfig):
    # the components are mapped back into the centred copy's own rows and
    # W is a view of them, so the fold's rows are copied once; PCA-ANN's
    # validation rows (5 here, like a fold's 8 beside 56 training rows) are
    # gathered once, into the composed front end
    cfg = dataclasses.replace(small_runconfig, pca_prescale=False)
    val_rows = np.arange(45, 50) if pid == "PCA-ANN" else None
    model, peak = _wide_fold_fit(pid, cfg, rng, val_rows)
    assert model.weight.shape[0] == 20_000
    if val_rows is not None:
        assert model.classifier.history["val_sse"] is not None
    assert peak <= 1.25, peak
