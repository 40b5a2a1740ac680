import base64
import dataclasses
import hashlib
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from oracles import map_back
from voxelcad.ann import AnnModel, forward_batch
from voxelcad.evaluation import _fold_seed, stratified_split
from voxelcad.features import FeatureKind, build_feature_matrix
from voxelcad.labels import from_sign, to_sign
from voxelcad.manifest import read_manifest
from voxelcad.pca import (_fix_signs, center, contribution_rates, fit_pca, project,
                          raw_gram, select_components)
from voxelcad.pca import map_back as pca_map_back
from voxelcad import pipeline
from voxelcad.pipeline import (BUNDLE_VERSION, PIPELINES, PipelineModel,
                               canonical_pipeline, fit_pipeline,
                               pipeline_feature_kind, predict_matrix,
                               predict_volume, standardize)
from voxelcad.svm import SvmModel, decision_batch, gram_matrix, kernel_values, train_svm
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


def _encoded(a) -> dict:
    """An array as a version-3 bundle stores it, written out here as the
    format says: its shape and the base64 of its little-endian float64
    bytes in C order."""
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes(order="C")).decode("ascii")}


def _decoded(stored: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(stored["data"]), "<f8").reshape(stored["shape"])


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
    _, scores = predict_matrix(model, fm.values[val])
    targets = np.array([to_sign(l) for l in fm.labels[:4]])
    sse = float(np.sum((scores - targets) ** 2))
    assert np.isclose(sse, history["val_sse"][history["early_stop_epoch"]],
                      rtol=1e-12, atol=0.0)
    plain = _fit("PCA-ANN", fm, small_runconfig, ann_seed=3, rows=train)
    assert plain.classifier.history["val_sse"] is None


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
            # the layout of the bundle's bytes
            sv = model.classifier.support_vectors
            assert sv.flags.c_contiguous
            if pid == "VAF-SVM":
                assert sv.shape[0] == fm.values.shape[0]  # support-vector ratio 1
        d = json.loads(path.read_text())
        assert d["version"] == BUNDLE_VERSION == 3
        assert set(d) == {"version", "pipeline", "feature_kind", "block_grid",
                          "bins", "affine", "classifier"}
        # each array is its exact float64 bytes
        assert _same_bits(_decoded(d["affine"]["weight"]), model.weight)
        assert not set(d["classifier"]["model"]) & {"standardization", "version"}


@pytest.fixture(scope="module")
def one_block_grayscale(small_dataset):
    """The small cohort's grayscale features on a 1x1x1 block grid: 6
    features for 20 subjects, so PCA has fewer features than rows."""
    return build_feature_matrix(small_dataset[0], FeatureKind.GRAYSCALE, (1, 1, 1))


_STAGED = [(pid, False) for pid in PIPELINES] + [(pid, True) for pid in ("PCA-SVM", "PCA-ANN")]


# the "-False" in the ids is the spelling these cases had beside the
# pca_prescale cases that were removed with that option
@pytest.mark.parametrize("pid, one_block", _STAGED,
                         ids=[f"{p}-False" + ("-grid1x1x1" if b else "") for p, b in _STAGED])
def test_composed_front_end_matches_the_staged_one(pid, one_block, small_grayscale,
                                                   one_block_grayscale, small_vaf,
                                                   small_runconfig):
    # on the 1x1x1 grid the staged reference takes fit_pca's direct route,
    # while the fit takes the Gram route as on every shape
    cfg = small_runconfig
    fm = small_vaf if pid == "VAF-SVM" else small_grayscale
    if one_block:
        cfg = dataclasses.replace(cfg, block_grid=(1, 1, 1))
        fm = one_block_grayscale
        assert fm.values.shape == (20, 6)
    model = _fit(pid, fm, cfg)
    X = fm.values
    if pid != "VAF-SVM":
        X = project(fit_pca(X, cum_threshold=cfg.pca_threshold), X)
    Z = standardize(X)[0]
    clf = model.classifier
    want = decision_batch(clf, Z) if isinstance(clf, SvmModel) else forward_batch(clf, Z)
    labels, scores = predict_matrix(model, fm.values)
    assert np.max(np.abs(scores - want)) <= 1e-12 * np.max(np.abs(want))
    assert labels == [from_sign(s) for s in want]
    if pid == "VAF-SVM":
        assert model.weight.shape == (fm.values.shape[1],)


@pytest.mark.parametrize("pid", PIPELINES)
@pytest.mark.parametrize("kind", ["grayscale", "vaf"])
def test_save_streams_the_bytes_of_the_bundle_dict(pid, kind, tmp_path, small_grayscale,
                                                   small_vaf, small_runconfig, monkeypatch):
    cfg = dataclasses.replace(small_runconfig, feature_kind=kind)
    fm = small_vaf if pipeline_feature_kind(pid, cfg) is FeatureKind.VAF else small_grayscale
    model = _fit(pid, fm, cfg, ann_seed=4)
    path = tmp_path / "bundle.json"
    model.save(path)
    want = json.dumps(model.to_dict()).encode("utf-8")
    assert path.read_bytes() == want
    # save -> load -> save gives the same bytes
    PipelineModel.load(path).save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == want
    # with chunks of 3 values (24 bytes), every array goes out in many
    # chunks, and the extra ones hold 5 values (40 bytes: neither a multiple
    # of 3 nor of the chunk) and a 3 x 2 array in F order
    monkeypatch.setattr(pipeline, "_CHUNK", 3)
    model.save(tmp_path / "chunked.json")
    assert (tmp_path / "chunked.json").read_bytes() == want
    extra = {"odd": np.arange(5.0) / 3.0, "fortran": np.asfortranarray(np.arange(6.0).reshape(3, 2))}
    out = io.StringIO()
    pipeline._write_json(out, extra)
    assert out.getvalue() == json.dumps({key: _encoded(a) for key, a in extra.items()})
    assert np.array_equal(_decoded(json.loads(out.getvalue())["fortran"]), extra["fortran"])


@pytest.mark.parametrize("kind", ["vaf", "grayscale"])
def test_fold_front_ends_from_the_cohort_gram_match_a_staged_reference(
        kind, small_grayscale, small_vaf, small_runconfig):
    # the reference centres each fold's gathered training rows, eigendecomposes
    # their centred Gram and maps the components back explicitly; the fit reads
    # only the raw Gram of the whole cohort, for training, validation and test
    # rows alike
    cfg = dataclasses.replace(small_runconfig, feature_kind=kind)
    fm = small_vaf if kind == "vaf" else small_grayscale
    X, labels = fm.values, np.asarray(fm.labels, dtype=object)
    y = np.array([to_sign(l) for l in labels])
    G = raw_gram(X)
    for i, sp in enumerate(stratified_split(labels, cfg.folds, cfg.val_fraction, cfg.seed)):
        n = sp.train.size
        Xc, means = center(X[sp.train])
        lam, U = np.linalg.eigh(Xc @ Xc.T / (n - 1))
        lam, U = lam[::-1][:n - 1], U[:, ::-1][:, :n - 1]
        k = select_components(contribution_rates(lam), cfg.pca_threshold)
        V = map_back(Xc, U[:, :k] / np.sqrt((n - 1) * lam[:k]))
        train_scores = Xc @ V
        V *= _fix_signs(train_scores)
        mu, sd = train_scores.mean(axis=0), train_scores.std(axis=0, ddof=1)
        want = {name: ((X[r] - means) @ V - mu) / sd
                for name, r in (("val", sp.val), ("test", sp.test))}
        # training rows, through the PCA fit's scores
        pca = fit_pca(X[sp.train], cfg.pca_threshold, gram=G[np.ix_(sp.train, sp.train)])
        assert pca.retained == k
        assert np.max(np.abs(pca.scores - train_scores)) <= 1e-9 * np.max(np.abs(train_scores))
        # validation rows, through the SSE that early stopping kept
        ann_model = fit_pipeline("PCA-ANN", X, labels, cfg,
                                 ann_seed=_fold_seed(cfg.seed, "PCA-ANN", i),
                                 rows=sp.train, val_rows=sp.val, gram=G)
        history = ann_model.classifier.history
        sse = float(np.sum((forward_batch(ann_model.classifier, want["val"]) - y[sp.val]) ** 2))
        assert abs(sse - history["val_sse"][history["early_stop_epoch"]]) <= 1e-9 * sse
        # test rows, through the scores that the fit gave them
        model = fit_pipeline("PCA-SVM", X, labels, cfg, rows=sp.train, val_rows=sp.val,
                             gram=G)
        got = model.held_out[0]
        ref = decision_batch(model.classifier, want["test"])
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert [from_sign(s) for s in got] == predict_matrix(model, X[sp.test])[0]


def _digest(model) -> str:
    return hashlib.sha256(json.dumps(model.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("pid", PIPELINES)
def test_test_rows_do_not_reach_a_vaf_fold_model(pid, small_vaf, small_runconfig):
    # as acceptance criterion 6 checks on grayscale features, at voxel width:
    # the PCA fits read the cohort's raw Gram, whose test-row entries change,
    # and the VAF-SVM fit forms the test rows' kernel rows
    cfg = dataclasses.replace(small_runconfig, feature_kind="vaf")
    X, labels = small_vaf.values, np.asarray(small_vaf.labels, dtype=object)
    sp = stratified_split(labels, cfg.folds, cfg.val_fraction, cfg.seed)[0]
    X_bad = X.copy()
    X_bad[sp.test] = np.random.default_rng(606).normal(size=(sp.test.size, X.shape[1])) * 5.0 + 1.0
    digests = []
    for data in (X, X_bad):
        model = fit_pipeline(pid, data, labels, cfg, ann_seed=_fold_seed(cfg.seed, pid, 0),
                             rows=sp.train, val_rows=sp.val, gram=raw_gram(data))
        assert callable(model.affine) and model.n_features == X.shape[1]
        digests.append(_digest(model))
    assert digests[0] == digests[1]


def test_from_dict_rejects_unknown_classifier(small_grayscale, small_runconfig):
    d = _fit("PCA-SVM", small_grayscale, small_runconfig).to_dict()
    d["classifier"]["type"] = "TREE"
    with pytest.raises(ValueError, match="bundle field 'classifier.type' must be 'SVM' or "
                                         "'ANN', got 'TREE'"):
        PipelineModel.from_dict(d)


@pytest.fixture(scope="module")
def bundles(small_grayscale, small_runconfig):
    """One PCA-SVM and one PCA-ANN bundle as JSON-ready dicts."""
    return {pid: _fit(pid, small_grayscale, small_runconfig).to_dict()
            for pid in ("PCA-SVM", "PCA-ANN")}


_HUGE = 10 ** 400     # a JSON integer too large for a float

_MISTYPED = [
    ("PCA-SVM", "bias", None, "must be a finite number"),
    ("PCA-SVM", "bias", _HUGE, "must be a finite number"),
    ("PCA-SVM", "scale", _HUGE, "must be a finite number"),
    ("PCA-SVM", "bias", [1], "must be a finite number"),
    ("PCA-SVM", "C", None, "must be a finite number"),
    ("PCA-SVM", "C", [1], "must be a finite number"),
    ("PCA-SVM", "scale", "x", "must be a finite number"),
    ("PCA-SVM", "scale", None, "must be a finite number"),
    # an array is a {"shape", "data"} object: a number, a string or a
    # nested list of the version-2 text form is refused
    ("PCA-SVM", "alphas", 7, "must be a JSON object, got int"),
    ("PCA-SVM", "alphas", [None], "must be a JSON object, got list"),
    ("PCA-SVM", "alphas", ["0.5"], "must be a JSON object, got list"),
    ("PCA-SVM", "support_vectors", [[1.0], [1.0, 2.0]], "must be a JSON object, got list"),
    ("PCA-SVM", "support_vectors", [[1.0, "2"]], "must be a JSON object, got list"),
    ("PCA-ANN", "b2", None, "must be a finite number"),
    ("PCA-ANN", "b2", [1], "must be a finite number"),
    ("PCA-ANN", "b2", _HUGE, "must be a finite number"),
    ("PCA-ANN", "w1", "x", "must be a JSON object, got str"),
    ("PCA-ANN", "w1", [[1.0, "2"]], "must be a JSON object, got list"),
]


@pytest.mark.parametrize("pid, key, value, message", _MISTYPED,
                         ids=[f"{p}-{k}=" + ("10**400" if v is _HUGE else json.dumps(v))
                              for p, k, v, _ in _MISTYPED])
def test_from_dict_names_a_mistyped_model_field(bundles, pid, key, value, message):
    d = json.loads(json.dumps(bundles[pid]))
    d["classifier"]["model"][key] = value
    with pytest.raises(ValueError, match=f"bundle field 'classifier.model.{key}' {message}"):
        PipelineModel.from_dict(d)


_RANK_1 = "' must be a numeric array of rank 1, all finite"
_RANK_2 = "' must be a numeric array of rank 2, all finite"

# (id, pid, array field, edit of its stored object in place, message after the field)
_MALFORMED_ARRAYS = [
    ("alphas-no-shape", "PCA-SVM", "alphas", lambda a: a.pop("shape"), ".shape' is missing"),
    ("w1-no-data", "PCA-ANN", "w1", lambda a: a.pop("data"), ".data' is missing"),
    ("labels-shape-true", "PCA-SVM", "labels", lambda a: a.update(_encoded([1.0]), shape=[True]),
     _RANK_1),
    ("b1-shape-negative", "PCA-ANN", "b1", lambda a: a.update(shape=[-1]), _RANK_1),
    ("w2-shape-float", "PCA-ANN", "w2", lambda a: a.update(shape=[float(a["shape"][0])]),
     _RANK_1),
    ("w2-shape-int", "PCA-ANN", "w2", lambda a: a.update(shape=a["shape"][0]), _RANK_1),
    ("sv-rank-1", "PCA-SVM", "support_vectors",
     lambda a: a.update(shape=[a["shape"][0] * a["shape"][1]]), _RANK_2),
    ("w1-data-number", "PCA-ANN", "w1", lambda a: a.update(data=7), _RANK_2),
    ("w1-data-not-base64", "PCA-ANN", "w1", lambda a: a.update(data="*" + a["data"][1:]),
     _RANK_2),
    # a decoder that is not strict would skip the newline
    ("alphas-data-newline", "PCA-SVM", "alphas",
     lambda a: a.update(data=a["data"][:4] + "\n" + a["data"][4:]), _RANK_1),
    ("labels-8-bytes-short", "PCA-SVM", "labels",
     lambda a: a.update(data=_encoded(_decoded(a)[:-1])["data"]), _RANK_1),
    ("b1-one-byte-over", "PCA-ANN", "b1",
     lambda a: a.update(data=base64.b64encode(base64.b64decode(a["data"]) + b"\0").decode()),
     _RANK_1),
    ("alphas-nan", "PCA-SVM", "alphas", lambda a: a.update(_encoded([np.nan])), _RANK_1),
    ("sv-inf", "PCA-SVM", "support_vectors", lambda a: a.update(_encoded([[-np.inf]])), _RANK_2),
]


@pytest.mark.parametrize("pid, key, edit, message", [case[1:] for case in _MALFORMED_ARRAYS],
                         ids=[case[0] for case in _MALFORMED_ARRAYS])
def test_from_dict_refuses_a_malformed_array(bundles, pid, key, edit, message):
    d = json.loads(json.dumps(bundles[pid]))
    edit(d["classifier"]["model"][key])
    with pytest.raises(ValueError, match=re.escape(f"bundle field 'classifier.model.{key}{message}")):
        PipelineModel.from_dict(d)


def test_reading_an_array_field_makes_no_copy_of_its_text(rng):
    # like a VAF bundle's support vectors (40 rows of 62,322 voxels), at a
    # third of their width: the base64 str is decoded in place, so the
    # traced peak is the decoded bytes and the finite check's booleans; a
    # decoder that first copies the str to bytes peaks at about 2.33x
    a = rng.normal(size=(40, 20_000))
    stored = {"support_vectors": _encoded(a)}
    tracemalloc.start()
    try:
        got = pipeline._array_field(stored, "support_vectors", (2,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, a)
    assert peak <= 1.5 * a.nbytes, peak / a.nbytes


@pytest.mark.parametrize("key, value, message", [
    ("b2", None, "bundle field 'classifier.model.b2' is missing"),
    ("activation", [1], "bundle field 'classifier.model.activation': [1] is not a valid "
                        "Activation"),
], ids=["b2-missing", "activation-list"])
def test_from_dict_names_a_missing_or_unknown_ann_field(bundles, key, value, message):
    # the CLI's malformed-bundle test covers the other fields on an SVM bundle
    d = json.loads(json.dumps(bundles["PCA-ANN"]))
    if value is None:
        del d["classifier"]["model"][key]
    else:
        d["classifier"]["model"][key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineModel.from_dict(d)


@pytest.mark.parametrize("pid", ["PCA-SVM", "PCA-ANN"])
def test_from_dict_refuses_a_front_end_that_does_not_fit_its_classifier(bundles, pid):
    # W and b gain a column that the classifier has no input for: they
    # still compose, and only scoring a row would fail, without naming
    # the field
    d = json.loads(json.dumps(bundles[pid]))
    affine = d["affine"]
    weight, offset = _decoded(affine["weight"]), _decoded(affine["offset"])
    k = offset.size
    affine["weight"] = _encoded(np.hstack([weight, np.zeros((weight.shape[0], 1))]))
    affine["offset"] = _encoded(np.append(offset, 0.0))
    with pytest.raises(ValueError, match=f"bundle field 'affine' has {k + 1} outputs, "
                                         f"but the classifier takes {k} inputs"):
        PipelineModel.from_dict(d)


_MODEL_KEYS = {
    "PCA-SVM": ["kernel", "scale", "C", "bias", "support_vectors", "alphas", "labels"],
    "PCA-ANN": ["activation", "w1", "b1", "w2", "b2"],
}


@pytest.mark.parametrize("pid", sorted(_MODEL_KEYS))
def test_bundle_keys_keep_their_order(bundles, pid):
    # the bundle's bytes follow this order, so a change to it changes the format
    d = bundles[pid]
    assert list(d) == ["version", "pipeline", "feature_kind", "block_grid", "bins",
                       "affine", "classifier"]
    assert list(d["affine"]) == ["weight", "offset"]
    assert list(d["classifier"]) == ["type", "model"]
    assert list(d["classifier"]["model"]) == _MODEL_KEYS[pid]
    arrays = [d["affine"]["weight"], d["affine"]["offset"]] + [
        value for value in d["classifier"]["model"].values() if isinstance(value, dict)]
    assert len(arrays) == {"PCA-SVM": 5, "PCA-ANN": 5}[pid]
    for stored in arrays:
        assert list(stored) == ["shape", "data"]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_ROUND_TRIPS = [("PCA-SVM", "kernel", "gaussian"), ("PCA-SVM", "kernel", "linear"),
                ("PCA-ANN", "activation", "tansig"), ("PCA-ANN", "activation", "relu"),
                ("VAF-SVM", "kernel", "gaussian")]


@pytest.mark.parametrize("pid, knob, value", _ROUND_TRIPS,
                         ids=[f"{p}-{v}" for p, _, v in _ROUND_TRIPS])
def test_the_classifier_survives_the_bundle_round_trip(pid, knob, value, rng, small_grayscale,
                                                       small_vaf, small_runconfig):
    cfg = dataclasses.replace(small_runconfig, **{knob: value})
    fm = small_vaf if pid == "VAF-SVM" else small_grayscale
    model = _fit(pid, fm, cfg, ann_seed=6)
    clf = model.classifier
    d = json.loads(json.dumps(model.to_dict()))
    back = PipelineModel.from_dict(d).classifier
    if pid.endswith("SVM"):
        assert back.kernel == clf.kernel and back.kernel.kind.value == value.upper()
        assert _same_bits(back.C, clf.C) and _same_bits(back.bias, clf.bias)
        for key in ("support_vectors", "alphas", "labels"):
            assert _same_bits(getattr(back, key), getattr(clf, key))
        probe = rng.normal(size=(3, clf.support_vectors.shape[1]))
        assert np.array_equal(decision_batch(back, probe), decision_batch(clf, probe))
    else:
        assert back.activation is clf.activation and back.activation.value == value.upper()
        for key in ("w1", "b1", "w2", "b2"):
            assert _same_bits(getattr(back, key), getattr(clf, key))
        probe = rng.normal(size=(3, clf.n_inputs))
        assert np.array_equal(forward_batch(back, probe), forward_batch(clf, probe))
    # the bundle has one version, at its top level
    assert "version" not in d["classifier"] and "version" not in d["classifier"]["model"]


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


def _median_scale(X):
    """The median heuristic's Gaussian kernel scale: the median distance
    between two z-scored rows of X."""
    Z = standardize(X)[0]
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
    return float(np.sqrt(np.median(d2[np.triu_indices(Z.shape[0], 1)])))


def test_a_vaf_fold_fit_matches_the_staged_fit_on_a_kernel_that_is_not_the_identity(
        small_vaf, small_runconfig):
    # at the default scale the kernel on voxel rows is (nearly) the identity,
    # so every test row scores at the bias and the comparison shows little
    X, labels = small_vaf.values, np.asarray(small_vaf.labels, dtype=object)
    cfg = dataclasses.replace(small_runconfig, kernel_scale=_median_scale(X))
    kernel = cfg.kernel_spec()
    y = np.array([to_sign(l) for l in labels])
    for sp in stratified_split(labels, cfg.folds, cfg.val_fraction, cfg.seed):
        Z, means, sigmas = standardize(X[sp.train])
        K = gram_matrix(kernel, Z)
        assert np.max(K - np.eye(sp.train.size)) > 0.1
        ref = train_svm(Z, y[sp.train], C=cfg.C, kernel=kernel, tol=cfg.svm_tol)
        want = decision_batch(ref, (X[sp.test] - means) / sigmas)
        model = fit_pipeline("VAF-SVM", X, labels, cfg, rows=sp.train, val_rows=sp.val)
        assert model.identity_kernel is False
        got = model.held_out[0]
        assert [from_sign(s) for s in got] == [from_sign(s) for s in want]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# the -own-gram cases pass no gram, so the PCA fit builds its own
_SCORED = [pytest.param(pid, True, id=pid) for pid in PIPELINES] + [
    pytest.param(pid, False, id=f"{pid}-own-gram") for pid in ("PCA-SVM", "PCA-ANN")]


@pytest.mark.parametrize("pid, cohort_gram", _SCORED)
def test_only_the_rows_that_a_fit_scored_skip_the_bundle_path(pid, cohort_gram,
                                                              small_grayscale, small_vaf,
                                                              small_runconfig):
    # a fold fit scores its test rows itself, in ascending row order,
    # whether it reads the cohort Gram or builds its own, and
    # cross_validate labels them from those scores instead of sending them
    # through the bundle path; the two must agree
    fm = small_vaf if pid == "VAF-SVM" else small_grayscale
    X, labels = fm.values, np.asarray(fm.labels, dtype=object)
    cfg = dataclasses.replace(small_runconfig, kernel_scale=_median_scale(X))
    sp = stratified_split(labels, 4, 0.10, seed=0)[1]
    model = fit_pipeline(pid, X, labels, cfg, ann_seed=2, rows=sp.train, val_rows=sp.val,
                         gram=raw_gram(X) if cohort_gram else None)
    held_scores, seconds = model.held_out
    assert seconds > 0.0      # the time the fit spent scoring them
    want_labels, want = predict_matrix(model, X[sp.test])
    assert held_scores.shape == want.shape
    assert [from_sign(s) for s in held_scores] == want_labels
    assert np.max(np.abs(held_scores - want)) <= 1e-9 * np.max(np.abs(want))
    # a fit with no held-out rows, as `train` makes, keeps no scores
    assert fit_pipeline(pid, X, labels, cfg, ann_seed=2).held_out is None


def _fold(fm):
    """One cross-validation fold's (train rows, validation rows) of fm."""
    sp = stratified_split(fm.labels, 4, 0.10, seed=0)[1]
    return sp.train, sp.val


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


_FITS = [(pid, kind, False)
         for pid in PIPELINES
         for kind in (("vaf",) if pid == "VAF-SVM" else ("grayscale", "vaf"))] + [
    ("VAF-SVM", "vaf", True)]


@pytest.mark.parametrize("pid, kind, median_scale", _FITS,
                         ids=[f"{p}-{k}" + ("-median-scale" if m else "") for p, k, m in _FITS])
def test_a_fit_on_rows_equals_a_fit_on_the_sliced_rows(pid, kind, median_scale,
                                                       small_grayscale, small_vaf,
                                                       small_runconfig):
    # every input is read-only, so a fit that writes into its caller's
    # arrays (the session-wide feature fixtures among them) raises here
    fm = small_vaf if kind == "vaf" else small_grayscale
    cfg = dataclasses.replace(small_runconfig, feature_kind=kind)
    if median_scale:
        cfg = dataclasses.replace(cfg, kernel_scale=_median_scale(fm.values))
    X = _read_only(fm.values)
    train, val = _fold(fm)
    labels = np.asarray(fm.labels, dtype=object)
    # the PCA fits read the raw Gram of their X's rows, as cross_validate
    # passes it
    both = np.concatenate([train, val])
    gram = None if pid == "VAF-SVM" else _read_only(raw_gram(X))
    on_rows = fit_pipeline(pid, X, labels, cfg, ann_seed=6, rows=_read_only(train),
                           val_rows=_read_only(val), gram=gram)
    # the same rows and validation rows, as indices into X[train ∪ val]
    sliced = fit_pipeline(pid, _read_only(X[both]), labels[both], cfg, ann_seed=6,
                          rows=np.arange(train.size),
                          val_rows=np.arange(train.size, both.size),
                          gram=None if gram is None else gram[np.ix_(both, both)])
    assert on_rows.to_dict() == sliced.to_dict()
    _, scores = predict_matrix(on_rows, X)
    assert np.all(np.isfinite(scores))


@pytest.mark.parametrize("fold", [False, True], ids=["all-rows", "fold"])
@pytest.mark.parametrize("kind", ["grayscale", "vaf"])
@pytest.mark.parametrize("pid", ["PCA-SVM", "PCA-ANN"])
def test_a_pca_fit_without_a_gram_equals_the_fit_given_the_raw_gram(
        pid, kind, fold, small_grayscale, small_vaf, small_runconfig):
    # a PCA fit has one source of inner products: given no gram, it builds
    # raw_gram(X) itself, as `train` does, and then fits as if given it
    fm = small_vaf if kind == "vaf" else small_grayscale
    cfg = dataclasses.replace(small_runconfig, feature_kind=kind)
    X, labels = fm.values, np.asarray(fm.labels, dtype=object)
    kw = dict(zip(("rows", "val_rows"), _fold(fm))) if fold else {}
    own = fit_pipeline(pid, X, labels, cfg, ann_seed=6, **kw)
    given = fit_pipeline(pid, X, labels, cfg, ann_seed=6, gram=raw_gram(X), **kw)
    assert own.to_dict() == given.to_dict()
    assert (own.held_out is None) == (given.held_out is None) == (not fold)
    if fold:
        assert _same_bits(own.held_out[0], given.held_out[0])


def test_fit_pipeline_rejects_rows_that_are_not_indices(small_grayscale, small_runconfig):
    fm = small_grayscale
    mask = np.zeros(fm.values.shape[0], dtype=bool)
    mask[:10] = True
    for bad in (mask, np.arange(10.0), np.arange(10).reshape(2, 5)):
        with pytest.raises(ValueError, match="integer row indices"):
            fit_pipeline("PCA-SVM", fm.values, fm.labels, small_runconfig, rows=bad)
        for pid in ("PCA-SVM", "PCA-ANN"):
            with pytest.raises(ValueError, match="integer row indices"):
                fit_pipeline(pid, fm.values, fm.labels, small_runconfig,
                             rows=np.arange(10, 20), val_rows=bad)


def _wide_fold_fit(pid, cfg, rng, dtype, val_rows=None):
    """Fit pid on 40 of 50 rows 20,000 wide of the given dtype, like a VAF
    fold: (model, the tracemalloc peak over the fold's training-row bytes
    as float64, so one bound holds for float32 rows too). numpy reports
    its array buffers to tracemalloc, so the traced peak counts every copy
    of the training rows, independent of the C heap's layout. A narrow fit
    runs first, untraced, so that one-off lazy imports do not count."""
    n, m = 50, 20_000
    X = rng.normal(size=(n, m)).astype(dtype)
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
    return model, peak / (rows.size * m * 8)


def test_vaf_svm_fold_fit_makes_no_copy_of_its_rows(rng, small_runconfig):
    # the fit z-scores one gathered column block at a time and keeps only
    # kernel rows; the support vectors are formed when first read, after
    # the traced fit. float32 rows are upcast into one reused block buffer,
    # so they are not copied whole either.
    for dtype in (np.float64, np.float32):
        model, peak = _wide_fold_fit("VAF-SVM", small_runconfig, rng, dtype)
        assert peak <= 0.25, (dtype, peak)
        # the Gaussian preset keeps every row of such a fold as a support vector
        assert model.classifier.support_vectors.shape[0] == 40


@pytest.mark.parametrize("pid", ["PCA-SVM", "PCA-ANN"])
def test_pca_fold_fit_allocates_one_working_copy(pid, rng, small_runconfig):
    # the fit reads the fold's rows through their raw Gram, built one
    # column block at a time, so no copy of the training rows is made: not
    # even the one working copy of a fit that centres them (about 1.1x).
    # W is mapped back only when it is read.
    # PCA-ANN's validation rows (5 here, like a fold's 8 beside 56 training
    # rows) are scored from the same Gram. float32 rows are upcast one
    # reused block at a time.
    val_rows = np.arange(45, 50) if pid == "PCA-ANN" else None
    for dtype in (np.float64, np.float32):
        model, peak = _wide_fold_fit(pid, small_runconfig, rng, dtype, val_rows)
        assert model.weight.shape[0] == 20_000
        if val_rows is not None:
            assert model.classifier.history["val_sse"] is not None
        assert peak <= 0.5, (dtype, peak)


def _wide_float32_fold(rng):
    """float32 rows 3,500 wide (three column blocks, the last wider), their
    exact float64 upcast, labels and one cross-validation fold."""
    X32 = rng.normal(size=(40, 3_500)).astype(np.float32)
    labels = np.array(["AD"] * 28 + ["HC"] * 12, dtype=object)
    return X32, X32.astype(np.float64), labels, stratified_split(labels, 4, 0.10, seed=0)[1]


def test_float32_rows_give_the_raw_gram_and_map_back_of_their_float64_upcast(rng):
    X32, X64, _, sp = _wide_float32_fold(rng)
    for rows in (None, sp.train):
        picked = slice(None) if rows is None else rows
        G = raw_gram(X32[picked])
        assert np.array_equal(G, raw_gram(X64[picked])) and np.array_equal(G, G.T)
        coef = rng.normal(size=(X32.shape[0] if rows is None else rows.size, 5))
        W32, means32 = pca_map_back(X32, rows, coef)
        W64, means64 = pca_map_back(X64, rows, coef)
        assert np.array_equal(W32, W64) and np.array_equal(means32, means64)


@pytest.mark.parametrize("pid, cohort_gram", _SCORED)
def test_a_fit_on_float32_rows_equals_the_fit_on_their_float64_upcast(
        pid, cohort_gram, rng, small_runconfig):
    # float32 -> float64 is exact and every reader of the rows upcasts
    # them before any arithmetic, so the fit, its held-out scores, its
    # bundle and its bundle-path scores are the same bits
    X32, X64, labels, sp = _wide_float32_fold(rng)
    cfg = dataclasses.replace(small_runconfig, feature_kind="vaf",
                              kernel_scale=_median_scale(X64))
    models = [fit_pipeline(pid, X, labels, cfg, ann_seed=2, rows=sp.train,
                           val_rows=sp.val, gram=raw_gram(X) if cohort_gram else None)
              for X in (X32, X64)]
    assert np.array_equal(models[0].held_out[0], models[1].held_out[0])
    assert models[0].to_dict() == models[1].to_dict()
    for rows in (sp.train, sp.val):
        got = [predict_matrix(model, X[rows])[1] for model, X in zip(models, (X32, X64))]
        assert np.array_equal(*got)


@pytest.mark.parametrize("scale", [1e-170, 1e160, -2.8])
def test_from_dict_refuses_a_gaussian_scale_whose_square_is_not_a_positive_float(
        bundles, scale):
    # 1e-170 squares to 0.0, so the kernel's diagonal would be 0/0, and
    # 1e160 squares to inf, which would make every kernel entry 1
    d = json.loads(json.dumps(bundles["PCA-SVM"]))
    d["classifier"]["model"]["scale"] = scale
    with pytest.raises(ValueError, match="bundle field 'classifier.model.scale': Gaussian "
                                         "kernel scale must be > 0 and its square a positive "
                                         "finite float"):
        PipelineModel.from_dict(d)


_PASS_BLOCKS = 3    # column blocks of the rows of _wide_float32_fold


@pytest.mark.parametrize("case", ["stops", "never stops", "some pairs underflow"])
def test_the_vaf_svm_pass_stops_early_only_where_the_fit_keeps_every_bit(
        case, rng, small_runconfig, monkeypatch):
    # the pass may stop once every kernel entry off the training diagonal
    # is proven to underflow to 0.0: the fit must then equal the full
    # pass's bit for bit, with the unread columns' means and sigmas formed
    # for the bundle. Where only some entries underflow it must not stop.
    # One held-out row has a norm far past every training row's, which
    # the test's rounding allowance must cover.
    X, _, labels, sp = _wide_float32_fold(rng)
    X[sp.test[0]] *= 1e6
    Z, means, sigmas = standardize(X[sp.train])
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = (sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T))[np.triu_indices(sp.train.size, 1)]
    scale = {"stops": 2.0, "never stops": np.sqrt(np.median(d2)),
             "some pairs underflow": np.sqrt(np.median(d2) / 746.0)}[case]
    cfg = dataclasses.replace(small_runconfig, kernel_scale=float(scale))

    read = []
    blocks = pipeline.column_blocks

    def counted(*args, **kw):
        for a, b, Xb in blocks(*args, **kw):
            read.append((a, b))
            yield a, b, Xb
    monkeypatch.setattr(pipeline, "column_blocks", counted)
    model = fit_pipeline("VAF-SVM", X, labels, cfg, rows=sp.train, val_rows=sp.val)
    stopped = len(read) < _PASS_BLOCKS
    model.to_dict()     # forms the unread columns' means and sigmas
    assert sorted(read) == sorted(set(read)) and len(read) == _PASS_BLOCKS
    assert stopped == (case == "stops")

    # the reference: the same fit with the pass never stopped
    monkeypatch.setattr(pipeline, "_kernel_underflows", lambda *args: False)
    full = fit_pipeline("VAF-SVM", X, labels, cfg, rows=sp.train, val_rows=sp.val)
    assert len(read) == 2 * _PASS_BLOCKS
    assert _same_bits(model.held_out[0], full.held_out[0])
    assert _same_bits(model.classifier.alphas, full.classifier.alphas)
    assert _same_bits(model.classifier.bias, full.classifier.bias)
    assert model.identity_kernel is full.identity_kernel is (case == "stops")
    assert _digest(model) == _digest(full)
    # the lazily formed columns are standardize's too
    assert _same_bits(model.weight, 1.0 / sigmas) and _same_bits(model.offset, -(means / sigmas))

    # what each scale means for the full pass's kernel off the diagonal,
    # over every row, and over the training rows (the huge row's entries
    # are 0 at any of these scales)
    t = sp.train.size
    G, norms, _ = pipeline._row_products(X, sp.train, np.sort(sp.test))
    K = kernel_values(cfg.kernel_spec(), G, norms, norms[:t])
    off, off_train = K[~np.eye(*K.shape, dtype=bool)], K[:t][~np.eye(t, dtype=bool)]
    zeros = np.count_nonzero(off_train == 0.0)
    assert {"stops": not off.any(), "never stops": zeros == 0,
            "some pairs underflow": 0 < zeros < off_train.size}[case]
