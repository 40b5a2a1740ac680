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

The PCA pipelines fit from a raw Gram matrix (pca.raw_gram): the one
cross-validation builds once over every row of X and passes as gram, or
else one the fit builds over its training and validation rows (with
pca_prescale, of X diag(1/sigma), sigma from the training rows). On the
Gram route (more features than training rows) no fit gathers, centres or
multiplies the m-wide rows: validation rows, and test rows scored with the
same gram, go through the composed map in n-space (GramFront). W is mapped
back from the training rows only when read, to write a bundle or to score
rows the gram does not cover. On the direct route (m <= n) PCA centres a
gathered copy of the training rows and W is formed at once.

VAF-SVM's z-score gathers its training rows and scales that copy in place;
its model may keep that copy as its support vectors. No stage writes into
the caller's X. predict_matrix takes the same rows argument, so scoring a
fold's test rows gathers them at most once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ann, svm
from .bundlefields import array_field, object_field
from .config import RunConfig
from .features import FeatureKind, block_features, check_recipe, vaf_features
from .labels import from_sign, to_sign
from .pca import center, column_blocks, fit_pca, map_back, raw_gram
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


@dataclass(frozen=True, eq=False)
class GramFront:
    """The composed front end of a Gram-route PCA fit, in n-space.

    For a row x whose raw Gram row over the training rows is g (entries
    x diag(scale^2) x_i), x W + b = (g - mean(g)) coef + b. gram is the raw
    Gram the fit read, and pos holds the training rows' positions in it.
    W = diag(scale^2) (X[train] - means)^T coef is formed only by weight().
    """

    X: np.ndarray
    train: np.ndarray | None     # training rows of X; None is every row
    scale: np.ndarray | None     # pca_prescale's 1/sigma, or None
    coef: np.ndarray             # n x k
    gram: np.ndarray
    pos: np.ndarray

    def apply(self, rows: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """x W + b for the rows at the positions rows of gram."""
        C = self.gram[np.ix_(rows, self.pos)]
        C -= C.mean(axis=1, keepdims=True)
        Z = C @ self.coef
        Z += offset
        return Z

    def weight(self) -> np.ndarray:
        scale = None if self.scale is None else self.scale * self.scale
        return map_back(self.X, self.train, self.coef, scale)[0]


@dataclass(frozen=True, eq=False)
class PipelineModel:
    """Self-contained bundle: feature recipe + affine front end + classifier.

    weight is m x k in F order (PCA pipelines) or a length-m scale
    (VAF-SVM); offset has one entry per classifier input. front is W
    itself, or the Gram-route fit that W is mapped back from when weight is
    first read. pca_retained and pca_cumulative_variance describe a PCA fit
    (None for VAF-SVM and for loaded bundles); they are not in the bundle.
    """

    pipeline: str
    feature_kind: FeatureKind
    block_grid: tuple[int, int, int] | None
    bins: int | None
    front: np.ndarray | GramFront
    offset: np.ndarray
    classifier: svm.SvmModel | ann.AnnModel
    pca_retained: int | None = None
    pca_cumulative_variance: float | None = None

    @cached_property
    def weight(self) -> np.ndarray:
        return self.front.weight() if isinstance(self.front, GramFront) else self.front

    @property
    def n_features(self) -> int:
        front = self.front
        return front.X.shape[1] if isinstance(front, GramFront) else front.shape[0]

    def to_dict(self, arrays: bool = False) -> dict:
        """The bundle as JSON-ready values; arrays=True leaves the numpy
        arrays as they are (for the streamed writer in save)."""
        kind = "SVM" if isinstance(self.classifier, svm.SvmModel) else "ANN"
        affine = {"weight": self.weight, "offset": self.offset}
        if not arrays:
            affine = {key: value.tolist() for key, value in affine.items()}
        return {
            "version": BUNDLE_VERSION,
            "pipeline": self.pipeline,
            "feature_kind": self.feature_kind.value,
            "block_grid": list(self.block_grid) if self.block_grid else None,
            "bins": self.bins,
            "affine": affine,
            "classifier": {"type": kind, "model": self.classifier.to_dict(arrays)},
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
            front=weight,
            offset=offset,
            classifier=classifier,
        )

    def save(self, path) -> None:
        """Write the bundle, byte for byte json.dumps(self.to_dict()), one
        array row at a time."""
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(fh, self.to_dict(arrays=True))

    @classmethod
    def load(cls, path) -> "PipelineModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _write_json(fh, value) -> None:
    """Write value as json.dumps(value) spells it, where value may hold
    numpy arrays (spelled as their tolist()); a 2-D array goes out one row
    at a time, so no nested list of the whole array is built."""
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        fh.write("[")
        for i, row in enumerate(value):
            fh.write(f"{', ' if i else ''}{json.dumps(row.tolist())}")
        fh.write("]")
    else:
        fh.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


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


def _prescale(X: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """pca_prescale's column factors 1/sigma, sigma as standardize gives it
    on the training rows, read one column block at a time."""
    return 1.0 / np.concatenate([standardize(Xb)[2] for _, _, Xb in column_blocks(X, rows)])


def fit_pipeline(pipeline: str, X: np.ndarray, labels, cfg: RunConfig,
                 ann_seed: int | None = None,
                 rows: np.ndarray | None = None,
                 val_rows: np.ndarray | None = None,
                 gram: np.ndarray | None = None) -> PipelineModel:
    """Fit one preset on already-extracted features.

    X rows must match pipeline_feature_kind(pipeline, cfg), with one label
    per row. rows, integer indices into X and labels, restricts the fit to
    those rows (a cross-validation fold); None fits every row. val_rows,
    integer indices into the same X and labels, are the validation rows:
    they drive ANN early stopping only, through the composed front end like
    test rows; SVM training ignores them. gram, if given, is raw_gram(X),
    the raw Gram of every row of X; the PCA pipelines read it in place of
    building their own (ignored with pca_prescale). X itself is never
    written.
    """
    pid = canonical_pipeline(pipeline)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    signs = np.array([to_sign(l) for l in labels], dtype=np.float64)
    if signs.shape[0] != X.shape[0]:
        raise ValueError("labels length does not match X rows")
    rows, val_rows = _row_indices(rows), _row_indices(val_rows)
    targets = signs if rows is None else signs[rows]
    kind = pipeline_feature_kind(pid, cfg)
    retained = cum_variance = None
    val_pos = val_rows      # the validation rows' positions in G, if one is read

    if pid == "VAF-SVM":
        Xs, means, sigmas = standardize(X, rows)
        # composed in place in standardize's means and sigmas, which the fit
        # no longer needs: two fewer m-wide allocations per fit
        offset = np.negative(np.divide(means, sigmas, out=means), out=means)
        front = np.divide(1.0, sigmas, out=sigmas)
    else:
        scale = _prescale(X, rows) if cfg.pca_prescale else None
        n = X.shape[0] if rows is None else rows.size
        G = Gtt = pos = None
        if X.shape[1] > n:
            if gram is None or scale is not None:
                # the raw Gram of the rows this fit reads: training rows
                # first, then validation rows
                fit_rows = rows
                if val_rows is not None:
                    fit_rows = np.concatenate([np.arange(n) if rows is None else rows,
                                               val_rows])
                G = raw_gram(X, fit_rows, scale)
                pos, val_pos = np.arange(n), np.arange(n, G.shape[0])
                Gtt = G[:n, :n]
            else:
                G = gram
                pos = np.arange(n) if rows is None else rows
                Gtt = G if rows is None else G[np.ix_(rows, rows)]
        pca_model = fit_pca(X, cum_threshold=cfg.pca_threshold, rows=rows,
                            scale=scale, gram=Gtt)
        retained = pca_model.retained
        cum_variance = float(np.cumsum(pca_model.contribution)[retained - 1])
        Xs, means, sigmas = standardize(pca_model.scores)
        offset = (pca_model.origin[:retained] - means) / sigmas
        if pca_model.coef is None:
            front = pca_model.components[:, :retained] / sigmas
            if scale is not None:
                front *= scale[:, None]
        else:
            front = GramFront(X, rows, scale, pca_model.coef[:, :retained] / sigmas,
                              G, pos)
        del pca_model

    if pid.endswith("SVM"):
        # on VAF-SVM the model may keep Xs itself as its support vectors
        classifier = svm.train_svm(Xs, targets, C=cfg.C, kernel=cfg.kernel_spec(),
                                   tol=cfg.svm_tol)
    else:
        vXs = vt = None
        if val_rows is not None:
            vXs = (front.apply(val_pos, offset) if isinstance(front, GramFront)
                   else _affine(X, front, offset, val_rows))
            vt = signs[val_rows]
        train_cfg = cfg.train_config(seed=ann_seed)
        classifier = ann.train_ann(Xs, targets, train_cfg, val_X=vXs, val_targets=vt)

    grayscale = kind is FeatureKind.GRAYSCALE
    return PipelineModel(
        pipeline=pid,
        feature_kind=kind,
        block_grid=tuple(cfg.block_grid) if grayscale else None,
        bins=cfg.bins if grayscale else None,
        offset=offset,
        classifier=classifier,
        front=front,
        pca_retained=retained,
        pca_cumulative_variance=cum_variance,
    )


def predict_matrix(model: PipelineModel, X: np.ndarray,
                   rows: np.ndarray | None = None,
                   gram: np.ndarray | None = None) -> tuple[list[str], np.ndarray]:
    """Labels and decision scores for raw feature rows (pre-PCA space), or
    for the rows of X that the integer indices rows select; X is never
    written. gram, if given, is the raw_gram(X) the model was fit from;
    the rows are then scored from their Gram rows, without reading X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, the bundle expects {model.n_features}"
        )
    rows = _row_indices(rows)
    if rows is not None and isinstance(model.front, GramFront) and model.front.gram is gram:
        Z = model.front.apply(rows, model.offset)
    else:
        Z = _affine(X, model.weight, model.offset, rows)
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
