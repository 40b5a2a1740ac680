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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ann, svm
from .config import RunConfig
from .features import FeatureKind, block_features, vaf_features
from .labels import from_sign, to_sign
from .pca import fit_pca, project
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


def fit_standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, sigma); zero-variance columns get sigma 1."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    means = X.mean(axis=0)
    sigmas = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
    sigmas = np.where(sigmas > 0.0, sigmas, 1.0)
    return means, sigmas


def apply_standardization(X: np.ndarray, std) -> np.ndarray:
    means, sigmas = std
    return (np.asarray(X, dtype=np.float64) - means) / sigmas


BUNDLE_VERSION = 2


def _json_object(value, field: str) -> dict:
    """A bundle field that must be a JSON object; a ValueError names it."""
    if not isinstance(value, dict):
        raise ValueError(f"bundle field '{field}' must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def _json_floats(value, field: str) -> np.ndarray:
    """A bundle field read as a float64 array; a ValueError names it."""
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"bundle field '{field}' must be a numeric array") from None


@dataclass(frozen=True)
class PipelineModel:
    """Self-contained bundle: feature recipe + affine front end + classifier.

    weight is m x k (PCA pipelines) or a length-m scale (VAF-SVM); offset
    has one entry per classifier input.
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
        clf = _json_object(d["classifier"], "classifier")
        model = _json_object(clf["model"], "classifier.model")
        if clf["type"] == "SVM":
            classifier = svm.SvmModel.from_dict(model)
        elif clf["type"] == "ANN":
            classifier = ann.AnnModel.from_dict(model)
        else:
            raise ValueError(f"unknown classifier type {clf['type']!r}")
        affine = _json_object(d["affine"], "affine")
        weight = _json_floats(affine["weight"], "affine.weight")
        offset = _json_floats(affine["offset"], "affine.offset")
        if weight.ndim not in (1, 2) or offset.shape != weight.shape[-1:]:
            raise ValueError(f"bundle field 'affine' has a {weight.shape} weight "
                             f"and a {offset.shape} offset that do not compose")
        return cls(
            pipeline=canonical_pipeline(d["pipeline"]),
            feature_kind=FeatureKind(d["feature_kind"]),
            block_grid=tuple(d["block_grid"]) if d.get("block_grid") else None,
            bins=d.get("bins"),
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


def fit_pipeline(pipeline: str, X: np.ndarray, labels, cfg: RunConfig,
                 ann_seed: int | None = None,
                 val_X: np.ndarray | None = None,
                 val_labels=None) -> PipelineModel:
    """Fit one preset on already-extracted features.

    X rows must match pipeline_feature_kind(pipeline, cfg). The validation
    set drives ANN early stopping only; SVM training ignores it.
    """
    pid = canonical_pipeline(pipeline)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    targets = np.array([to_sign(l) for l in labels], dtype=np.float64)
    if targets.shape[0] != X.shape[0]:
        raise ValueError("labels length does not match X rows")
    kind = pipeline_feature_kind(pid, cfg)

    prescale = None
    if pid in ("PCA-SVM", "PCA-ANN"):
        if cfg.pca_prescale:
            prescale = fit_standardization(X)
            X = apply_standardization(X, prescale)
            if val_X is not None:
                val_X = apply_standardization(val_X, prescale)
        pca_model = fit_pca(X, cum_threshold=cfg.pca_threshold)
        X = project(pca_model, X)
        if val_X is not None:
            val_X = project(pca_model, val_X)
        # W is scaled in place in the buffer of the kept basis columns, so no
        # second m x k array is made and the PcaModel itself is dropped here
        weight = pca_model.components[:, :pca_model.retained]
        shift = pca_model.means
        if prescale is not None:
            shift = prescale[0] / prescale[1] + shift
        offset = -(shift @ weight)
        if prescale is not None:
            weight /= prescale[1][:, None]
        del pca_model

    means, sigmas = fit_standardization(X)
    # compose before Xs exists: the kept (weight, offset) then do not sit
    # above Xs in the heap and hold its freed pages (peak RSS of VAF-SVM)
    if pid == "VAF-SVM":
        weight, offset = 1.0 / sigmas, -means / sigmas
    else:
        weight /= sigmas
        offset = (offset - means) / sigmas
    Xs = apply_standardization(X, (means, sigmas))

    if pid.endswith("SVM"):
        classifier = svm.train_svm(Xs, targets, C=cfg.C, kernel=cfg.kernel_spec(),
                                   tol=cfg.svm_tol)
    else:
        vXs = vt = None
        if val_X is not None:
            vXs = apply_standardization(val_X, (means, sigmas))
            vt = np.array([to_sign(l) for l in val_labels], dtype=np.float64)
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


def predict_matrix(model: PipelineModel, X: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Labels and decision scores for raw feature rows (pre-PCA space)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.weight.shape[0]:
        raise ValueError(
            f"X has {X.shape[1]} features, the bundle expects {model.weight.shape[0]}"
        )
    W = model.weight
    Z = (X @ W if W.ndim == 2 else X * W) + model.offset
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
