"""End-to-end pipelines: features -> (PCA) -> z-score -> classifier.

Three presets mirror the comparison table:

  PCA-SVM  blocked grayscale statistics -> PCA projection -> SVM
  PCA-ANN  blocked grayscale statistics -> PCA projection -> ANN
  VAF-SVM  raw voxel intensities -> SVM (no PCA), same kernel preset

Every stage is fit on training data only: optional unit-variance scaling
(pca_prescale), PCA, then a z-score of the projected columns. The
classifier trains on the staged rows. Together the stages form one affine
map, so the bundle stores only its composition, x -> x W + b with W of
shape m x k for the PCA pipelines and a per-feature scale w (x * w + b)
for VAF-SVM, and prediction applies it in a single step.

Without pca_prescale a fit makes one working copy as large as its
training rows. The first stage (the PCA centring or the VAF-SVM z-score)
gathers the rows, all of X or the indices a cross-validation fold passes
as rows, and centres and scales that copy in place; later stages see only
the n x k PCA scores. With pca_prescale the prescale z-score makes that
copy and fit_pca centres it into a second one (X - means in pca.center),
so the fit holds two: a traced peak of 2.16x the training-row bytes
against 1.11x without (PCA-SVM, a 40-row fold 20,000 wide). PCA writes
its components over the centred copy's leading rows, and the PCA bundles'
W is the kept columns of that view (F order), scaled in place. When
VAF-SVM keeps every row as a support vector, its model holds the z-scored
copy itself. No stage writes into the caller's X. predict_matrix takes
the same rows argument, so scoring a fold's test rows gathers them once.
PCA-ANN's validation rows are indices into the same X too: once W and b
are composed, they go through the same map as test rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ann, svm
from .bundlefields import array_field, object_field
from .config import RunConfig
from .features import FeatureKind, block_features, check_recipe, vaf_features
from .labels import from_sign, to_sign
from .pca import center, fit_pca
from .pca import project  # not called here; perfbench/tracing.py wraps this name
from .volume import Volume

PIPELINES = ("PCA-SVM", "PCA-ANN", "VAF-SVM")


def canonical_pipeline(name: str) -> str:
    pid = str(name).strip().upper()
    if pid not in PIPELINES:
        raise ValueError(
            f"unknown pipeline {name!r}; choose from {', '.join(p.lower() for p in PIPELINES)}"
        )
    return pid


def pipeline_feature_kind(pipeline: str, cfg: RunConfig) -> FeatureKind:
    """The voxel baseline always takes raw intensities; PCA pipelines follow cfg."""
    if canonical_pipeline(pipeline) == "VAF-SVM":
        return FeatureKind.VAF
    return cfg.feature_kind_enum()


def standardize(X: np.ndarray, rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score the columns of X, or of the rows that the integer indices
    rows select: (scaled rows, means, sigmas), with sigma 1 for
    zero-variance columns. The centred working copy from pca.center gives
    both the sigmas and, scaled in place, the returned rows."""
    Xs, means = center(np.atleast_2d(np.asarray(X, dtype=np.float64)), rows)
    sigmas = np.ones_like(means)
    n = Xs.shape[0]
    if n > 1:
        np.einsum("ij,ij->j", Xs, Xs, out=sigmas)
        sigmas /= n - 1
        np.sqrt(sigmas, out=sigmas)
        sigmas[~(sigmas > 0.0)] = 1.0
    Xs /= sigmas
    return Xs, means, sigmas


BUNDLE_VERSION = 2


@dataclass(frozen=True)
class PipelineModel:
    """Self-contained bundle: feature recipe + affine front end + classifier.

    weight is m x k in F order (PCA pipelines) or a length-m scale
    (VAF-SVM); offset has one entry per classifier input.
    """

    pipeline: str
    feature_kind: FeatureKind
    block_grid: tuple[int, int, int] | None
    bins: int | None
    weight: np.ndarray
    offset: np.ndarray
    classifier: svm.SvmModel | ann.AnnModel

    def to_dict(self) -> dict:
        if isinstance(self.classifier, svm.SvmModel):
            clf = {"type": "SVM", "model": self.classifier.to_dict()}
        else:
            clf = {"type": "ANN", "model": self.classifier.to_dict()}
        return {
            "version": BUNDLE_VERSION,
            "pipeline": self.pipeline,
            "feature_kind": self.feature_kind.value,
            "block_grid": list(self.block_grid) if self.block_grid else None,
            "bins": self.bins,
            "affine": {"weight": self.weight.tolist(), "offset": self.offset.tolist()},
            "classifier": clf,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineModel":
        if not isinstance(d, dict):
            raise ValueError("a bundle must be a JSON object")
        version = d.get("version")
        if version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle version {version!r}: this voxelcad reads "
                f"version {BUNDLE_VERSION} only; train the model again"
            )
        clf = object_field(d["classifier"], "classifier")
        model = object_field(clf["model"], "classifier.model")
        if clf["type"] == "SVM":
            classifier = svm.SvmModel.from_dict(model, "classifier.model")
        elif clf["type"] == "ANN":
            classifier = ann.AnnModel.from_dict(model, "classifier.model")
        else:
            raise ValueError(f"unknown classifier type {clf['type']!r}")
        affine = object_field(d["affine"], "affine")
        weight = array_field(affine["weight"], "affine.weight", (1, 2))
        offset = array_field(affine["offset"], "affine.offset", (1,))
        if offset.shape != weight.shape[-1:]:
            raise ValueError(f"bundle field 'affine' has a {weight.shape} weight "
                             f"and a {offset.shape} offset that do not compose")
        # the layout of a fitted W: X @ W on F- and C-order weights can
        # differ in the last bits, and a loaded bundle must score as fitted
        weight = np.asfortranarray(weight)
        kind = FeatureKind(d["feature_kind"])
        block_grid = bins = None
        if kind is FeatureKind.GRAYSCALE:
            try:
                block_grid, bins = check_recipe(d["block_grid"], d["bins"])
            except ValueError as err:
                raise ValueError(f"bundle field {err}") from None
        return cls(
            pipeline=canonical_pipeline(d["pipeline"]),
            feature_kind=kind,
            block_grid=block_grid,
            bins=bins,
            weight=weight,
            offset=offset,
            classifier=classifier,
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "PipelineModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _row_indices(rows) -> np.ndarray | None:
    """rows as a 1-D integer index array (None stays None); anything else
    is refused."""
    if rows is None:
        return None
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-D array of integer row indices")
    return rows


def _affine(X: np.ndarray, W: np.ndarray, offset: np.ndarray,
            rows: np.ndarray | None) -> np.ndarray:
    """The composed front end, x W + b (x * w + b for VAF-SVM), on the rows
    of X that the integer indices rows select, or on every row; X is never
    written."""
    if rows is not None:
        X = np.take(X, rows, axis=0)
    if W.ndim == 2:
        Z = X @ W
    else:
        # a gather is our own copy, so VAF-SVM scales it in place
        Z = X * W if rows is None else np.multiply(X, W, out=X)
    Z += offset
    return Z


def fit_pipeline(pipeline: str, X: np.ndarray, labels, cfg: RunConfig,
                 ann_seed: int | None = None,
                 rows: np.ndarray | None = None,
                 val_rows: np.ndarray | None = None) -> PipelineModel:
    """Fit one preset on already-extracted features.

    X rows must match pipeline_feature_kind(pipeline, cfg), with one label
    per row. rows, integer indices into X and labels, restricts the fit to
    those rows (a cross-validation fold); None fits every row. The first
    front-end stage (the pca_prescale z-score, the PCA centring, or the
    VAF-SVM z-score) gathers the rows and centres them in place, and X
    itself is never written. Without pca_prescale that copy is the fit's
    only working array as large as the training rows; with it, fit_pca
    centres the z-scored copy into a second one. val_rows, integer indices
    into the same X and labels, are the validation rows: they drive ANN
    early stopping only, through the composed front end like test rows;
    SVM training ignores them.
    """
    pid = canonical_pipeline(pipeline)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    signs = np.array([to_sign(l) for l in labels], dtype=np.float64)
    if signs.shape[0] != X.shape[0]:
        raise ValueError("labels length does not match X rows")
    rows, val_rows = _row_indices(rows), _row_indices(val_rows)
    targets = signs if rows is None else signs[rows]
    kind = pipeline_feature_kind(pid, cfg)

    # F, fit_rows: the rows the next stage fits; X stays the caller's matrix
    F, fit_rows = X, rows
    prescale = None
    if pid in ("PCA-SVM", "PCA-ANN"):
        if cfg.pca_prescale:
            F, *prescale = standardize(X, rows)
            fit_rows = None     # F is now the fold's own z-scored copy
        pca_model = fit_pca(F, cum_threshold=cfg.pca_threshold, rows=fit_rows)
        F, fit_rows = pca_model.scores, None
        # the kept basis columns, a view that is scaled in place below
        weight = pca_model.components[:, :pca_model.retained]
        shift = pca_model.means
        if prescale is not None:
            shift = prescale[0] / prescale[1] + shift
        offset = -(shift @ weight)
        if prescale is not None:
            weight /= prescale[1][:, None]
        del pca_model

    Xs, means, sigmas = standardize(F, fit_rows)
    if pid == "VAF-SVM":
        # composed in place in standardize's means and sigmas, which the fit
        # no longer needs: two fewer m-wide allocations per fit
        offset = np.negative(np.divide(means, sigmas, out=means), out=means)
        weight = np.divide(1.0, sigmas, out=sigmas)
    else:
        weight /= sigmas
        offset = (offset - means) / sigmas

    if pid.endswith("SVM"):
        # on VAF-SVM the model may keep Xs itself as its support vectors
        classifier = svm.train_svm(Xs, targets, C=cfg.C, kernel=cfg.kernel_spec(),
                                   tol=cfg.svm_tol)
    else:
        vXs = vt = None
        if val_rows is not None:
            vXs = _affine(X, weight, offset, val_rows)
            vt = signs[val_rows]
        train_cfg = cfg.train_config(seed=ann_seed)
        classifier = ann.train_ann(Xs, targets, train_cfg, val_X=vXs, val_targets=vt)

    grayscale = kind is FeatureKind.GRAYSCALE
    return PipelineModel(
        pipeline=pid,
        feature_kind=kind,
        block_grid=tuple(cfg.block_grid) if grayscale else None,
        bins=cfg.bins if grayscale else None,
        weight=weight,
        offset=offset,
        classifier=classifier,
    )


def predict_matrix(model: PipelineModel, X: np.ndarray,
                   rows: np.ndarray | None = None) -> tuple[list[str], np.ndarray]:
    """Labels and decision scores for raw feature rows (pre-PCA space), or
    for the rows of X that the integer indices rows select; X is never
    written."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.weight.shape[0]:
        raise ValueError(
            f"X has {X.shape[1]} features, the bundle expects {model.weight.shape[0]}"
        )
    Z = _affine(X, model.weight, model.offset, _row_indices(rows))
    if isinstance(model.classifier, svm.SvmModel):
        scores = svm.decision_batch(model.classifier, Z)
    else:
        scores = ann.forward_batch(model.classifier, Z)
    return [from_sign(s) for s in scores], scores


def predict_volume(model: PipelineModel, vol: Volume) -> tuple[str, float]:
    """Extract this bundle's features from one volume and classify it."""
    if model.feature_kind is FeatureKind.GRAYSCALE:
        feats = block_features(vol, model.block_grid, model.bins)
    else:
        feats = vaf_features(vol)
    labels_out, scores = predict_matrix(model, feats[None, :])
    return labels_out[0], float(scores[0])
