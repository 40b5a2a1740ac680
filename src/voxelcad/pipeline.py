"""End-to-end pipelines: features -> (PCA) -> z-score -> classifier.

Three presets mirror the comparison table:

  PCA-SVM  blocked grayscale statistics -> PCA projection -> SVM
  PCA-ANN  blocked grayscale statistics -> PCA projection -> ANN
  VAF-SVM  raw voxel intensities -> SVM (no PCA), same kernel preset

Every stage is fit on training data only: PCA, then a z-score of the
projected columns. The classifier trains on the staged rows. Together
the stages form one affine map, so the bundle stores only its
composition, x -> x W + b with W of shape m x k for the PCA pipelines
and a per-feature scale w (x * w + b) for VAF-SVM, and prediction
applies it in a single step.

A fit reads the m-wide rows of X at most once. Every PCA fit takes
pca.fit_pca's Gram route, which is exact for any shape (kernel PCA with a
linear kernel), and VAF-SVM needs only the kernel of its z-scored rows;
so both need only inner products of the rows. A PCA fit reads them from
one raw Gram of every row of X (pca.raw_gram): the one that
cross-validation builds once and passes as gram, or else its own. VAF-SVM
reads its z-scored rows' products from one blocked pass over X
(_row_products), which gathers one pca.column_blocks block at a time,
training rows first, z-scores it in place to (x - mu) / sigma with mu and
sigma from the training rows, and sums only the products with the
training rows and the other rows' squared norms. It skips the validation
rows, which SVM training ignores. With a Gaussian kernel the pass stops
early once the partial distances prove that every kernel entry off the
training diagonal underflows to exactly 0.0, as at the paper's scale:
the kernel, and so the whole fit, is then the full pass's bit for bit,
and the unread columns' mu and sigma are formed from the training rows
only if a bundle needs them. This speeds up only an identity kernel, a
vacuous fit. VAF rows are float32, the volumes' own type, and
column_blocks upcasts each block into one reused float64 buffer, so no
fit holds an m-wide float64 copy of them; the upcast is exact, so every
number is the one float64 rows would give. No fit keeps a copy of the
rows: PCA's W is mapped back from the training rows, and VAF-SVM's scale,
offset and z-scored support vectors are formed from X, only when read,
to write a bundle or to score rows that the fit did not.

So every fit ends its n-space work itself: it scores the rows of X that
are neither training nor validation rows, the held-out rows, inside the
fit in one batch, in ascending row order, and the model keeps their scores
(held_out), with the time that scoring took. For a cross-validation fold
those are its test rows, and cross_validate reads their scores there.
predict_matrix is the bundle path only: it sends the rows it is given
through the bundle's one affine front end and its classifier.

No stage writes into the caller's X, and a fit that refers to X needs it
unchanged until its model is dropped.

This module alone knows the bundle format. PipelineModel.to_dict and
from_dict write and read every field, the classifier's too (svm.py and
ann.py hold numerics only). Each array is stored exactly, as its shape
and the base64 of its little-endian float64 bytes. The typed field
readers refuse a missing or malformed field with a ValueError that names
it by its dotted path, so `voxelcad predict` reports it as a domain error.
"""

from __future__ import annotations

import base64
import binascii
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ann, svm
from .config import RunConfig
from .features import FeatureKind, block_features, check_recipe, vaf_features
from .labels import from_sign, to_sign
from .pca import center, column_blocks, feature_rows, fit_pca, map_back, raw_gram
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


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score the columns of X: (scaled rows, means, sigmas), with sigma 1
    for zero-variance columns. The centred copy from pca.center gives both
    the sigmas and, scaled in place, the returned rows."""
    Xs, means = center(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    sigmas = _sigmas(Xs)
    Xs /= sigmas
    return Xs, means, sigmas


def _sigmas(Xc: np.ndarray) -> np.ndarray:
    """Column standard deviations (divisor n - 1) of the centred rows Xc,
    with 1 for zero-variance columns and for a single row."""
    sigmas = np.ones(Xc.shape[1])
    n = Xc.shape[0]
    if n > 1:
        np.einsum("ij,ij->j", Xc, Xc, out=sigmas)
        sigmas /= n - 1
        np.sqrt(sigmas, out=sigmas)
        sigmas[~(sigmas > 0.0)] = 1.0
    return sigmas


BUNDLE_VERSION = 3
_CHUNK = 3 << 13     # values per base64 chunk in save; a multiple of 3


@dataclass(frozen=True, eq=False)
class PipelineModel:
    """Self-contained bundle: feature recipe + affine front end + classifier.

    The front end is x W + b on rows of n_features (m) features: its weight
    W is m x k in F order for the PCA pipelines, and a length-m scale w,
    applied as x * w + b, for VAF-SVM; its offset b has one entry per
    classifier input. affine is the pair (W, b), or a zero-argument
    callable that forms them when first read, as a fit passes it.

    pca_retained and pca_cumulative_variance describe a PCA fit,
    identity_kernel says whether a VAF-SVM fit's training kernel was
    exactly the identity, and held_out is (scores, seconds): the decision
    scores, in ascending row order, of the rows of the fit's X that it read
    and scored although it neither trained nor validated on them, and the
    wall time of that scoring. They are None where they do not apply (a fit
    with no held-out rows, as `train` makes) and for loaded bundles, and
    they are not in the bundle.
    """

    pipeline: str
    feature_kind: FeatureKind
    block_grid: tuple[int, int, int] | None
    bins: int | None
    n_features: int
    affine: tuple[np.ndarray, np.ndarray] | Callable[[], tuple[np.ndarray, np.ndarray]]
    classifier: svm.SvmModel | ann.AnnModel
    pca_retained: int | None = None
    pca_cumulative_variance: float | None = None
    identity_kernel: bool | None = None
    held_out: tuple[np.ndarray, float] | None = None

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.affine() if callable(self.affine) else self.affine

    @property
    def weight(self) -> np.ndarray:
        return self._pair[0]

    @property
    def offset(self) -> np.ndarray:
        return self._pair[1]

    def to_dict(self, arrays: bool = False) -> dict:
        """The bundle as JSON-ready values, each array as the object
        {"shape": [d0, ...], "data": _base64(array)}; arrays=True leaves the
        numpy arrays as they are (for the streamed writer in save)."""
        plain = (lambda a: a) if arrays else (lambda a: {"shape": list(a.shape),
                                                         "data": _base64(a)})
        clf = self.classifier
        if isinstance(clf, svm.SvmModel):
            gaussian = clf.kernel.kind is svm.KernelKind.GAUSSIAN
            kind, fields = "SVM", {
                "kernel": clf.kernel.kind.value,
                "scale": clf.kernel.scale if gaussian else None,
                "C": clf.C,
                "bias": clf.bias,
                "support_vectors": plain(clf.support_vectors),
                "alphas": plain(clf.alphas),
                "labels": plain(clf.labels),
            }
        else:
            kind, fields = "ANN", {
                "activation": clf.activation.value,
                "w1": plain(clf.w1),
                "b1": plain(clf.b1),
                "w2": plain(clf.w2),
                "b2": clf.b2,
            }
        return {
            "version": BUNDLE_VERSION,
            "pipeline": self.pipeline,
            "feature_kind": self.feature_kind.value,
            "block_grid": list(self.block_grid) if self.block_grid else None,
            "bins": self.bins,
            "affine": {"weight": plain(self.weight), "offset": plain(self.offset)},
            "classifier": {"type": kind, "model": fields},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineModel":
        if not isinstance(d, dict):
            raise ValueError("a bundle must be a JSON object")
        version = d.get("version")
        # JSON's 3.0 is a float equal to 3; a version is an integer
        if type(version) is not int or version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle version {version!r}: this voxelcad reads "
                f"version {BUNDLE_VERSION} only; train the model again"
            )
        classifier = _read_classifier(_object_field(d, "classifier"))
        affine = _object_field(d, "affine")
        weight = _array_field(affine, "affine.weight", (1, 2))
        offset = _array_field(affine, "affine.offset", (1,))
        if offset.shape != weight.shape[-1:]:
            raise ValueError(f"bundle field 'affine' has a {weight.shape} weight "
                             f"and a {offset.shape} offset that do not compose")
        width = (classifier.n_inputs if isinstance(classifier, ann.AnnModel)
                 else classifier.support_vectors.shape[1])
        if offset.size != width:
            raise ValueError(f"bundle field 'affine' has {offset.size} outputs, "
                             f"but the classifier takes {width} inputs")
        # the layout of a fitted W: X @ W on F- and C-order weights can
        # differ in the last bits, and a loaded bundle must score as fitted
        weight = np.asfortranarray(weight)
        kind = _parsed("feature_kind", FeatureKind, _member(d, "feature_kind"))
        block_grid = bins = None
        if kind is FeatureKind.GRAYSCALE:
            recipe = _member(d, "block_grid"), _member(d, "bins")
            try:
                block_grid, bins = check_recipe(*recipe)
            except ValueError as err:
                raise ValueError(f"bundle field {err}") from None
        return cls(
            pipeline=_parsed("pipeline", canonical_pipeline, _member(d, "pipeline")),
            feature_kind=kind,
            block_grid=block_grid,
            bins=bins,
            n_features=weight.shape[0],
            affine=(weight, offset),
            classifier=classifier,
        )

    def save(self, path) -> None:
        """Write the bundle, byte for byte json.dumps(self.to_dict()), with
        each array's base64 streamed in chunks (_write_json)."""
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(fh, self.to_dict(arrays=True))

    @classmethod
    def load(cls, path) -> "PipelineModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _read_classifier(clf: dict) -> svm.SvmModel | ann.AnnModel:
    """The classifier of a bundle from its parsed "classifier" object."""
    path = "classifier.model"
    model = _object_field(clf, path)
    array = lambda key, ndims: _array_field(model, f"{path}.{key}", ndims)
    number = lambda key: _number_field(model, f"{path}.{key}")
    choice = lambda key, enum: _parsed(f"{path}.{key}", enum, _member(model, f"{path}.{key}"))
    kind = _member(clf, "classifier.type")
    if kind == "SVM":
        kernel = choice("kernel", svm.KernelKind)
        # only a linear kernel has no scale
        scale = (svm.KernelSpec.scale if kernel is svm.KernelKind.LINEAR
                 and _member(model, f"{path}.scale") is None else number("scale"))
        # with no support vector, of shape [0, k], a model scores its bias
        return svm.SvmModel(
            support_vectors=array("support_vectors", (2,)), alphas=array("alphas", (1,)),
            labels=array("labels", (1,)), bias=number("bias"), C=number("C"),
            kernel=_parsed(f"{path}.scale", svm.KernelSpec, kernel, scale))
    if kind == "ANN":
        return ann.AnnModel(w1=array("w1", (2,)), b1=array("b1", (1,)), w2=array("w2", (1,)),
                            b2=number("b2"), activation=choice("activation", ann.Activation))
    raise ValueError(f"bundle field 'classifier.type' must be 'SVM' or 'ANN', got {kind!r}")


def _member(obj: dict, field: str):
    """The member of the bundle object obj at the dotted path field."""
    key = field.rpartition(".")[2]
    if key not in obj:
        raise ValueError(f"bundle field '{field}' is missing")
    return obj[key]


def _object_field(obj: dict, field: str) -> dict:
    """A member that must be a JSON object."""
    value = _member(obj, field)
    if not isinstance(value, dict):
        raise ValueError(f"bundle field '{field}' must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def _parsed(field: str, parse: Callable, *args):
    """parse(*args), where a ValueError names the bundle field it reads."""
    try:
        return parse(*args)
    except ValueError as err:
        raise ValueError(f"bundle field '{field}': {err}") from None


def _array_field(obj: dict, field: str, ndims: tuple[int, ...]) -> np.ndarray:
    """A member stored as to_dict stores an array, read as a finite float64
    array with one of the given ranks: valid base64 of 8 bytes per entry of
    a shape of integers >= 0 (numpy would infer a negative entry)."""
    stored = _object_field(obj, field)
    shape, data = _member(stored, f"{field}.shape"), _member(stored, f"{field}.data")
    arr = None
    if isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape):
        try:
            # reads the str in place: b64decode would first copy it to bytes
            arr = np.frombuffer(binascii.a2b_base64(data, strict_mode=True),
                                "<f8").reshape(shape)
        except (TypeError, ValueError):     # binascii.Error is a ValueError
            pass
    if arr is None or arr.ndim not in ndims or not np.isfinite(arr).all():
        raise ValueError(f"bundle field '{field}' must be a numeric array of rank "
                         f"{' or '.join(map(str, ndims))}, all finite")
    return arr


def _number_field(obj: dict, field: str) -> float:
    """A member that must be a finite JSON number."""
    value = _member(obj, field)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:       # an integer too large for a float
            number = np.inf
        if np.isfinite(number):
            return number
    raise ValueError(f"bundle field '{field}' must be a finite number, got {value!r}")


def _base64(a: np.ndarray) -> str:
    """The base64 of a's little-endian float64 bytes, in C order."""
    return base64.b64encode(np.ascontiguousarray(a, "<f8")).decode("ascii")


def _write_json(fh, value) -> None:
    """Write value as json.dumps(value) spells it, where value may hold numpy
    arrays, spelled as to_dict spells them. An array's base64 goes out _CHUNK
    values (whole base64 groups) at a time, so no copy of the array is made."""
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, np.ndarray):
        fh.write(f'{{"shape": {json.dumps(value.shape)}, "data": "')
        for i in range(0, value.size, _CHUNK):
            fh.write(_base64(value.flat[i:i + _CHUNK]))
        fh.write('"}')
    else:
        fh.write(json.dumps(value))


def _row_indices(rows) -> np.ndarray | None:
    """rows as a 1-D integer index array (None stays None); anything else
    is refused."""
    if rows is None:
        return None
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-D array of integer row indices")
    return rows


_UNDERFLOW = 746.0    # np.exp(-x) is exactly 0.0 for every x past 745.14


def _row_products(X: np.ndarray, train: np.ndarray, others: np.ndarray,
                  underflow_scale: float | None = None):
    """VAF-SVM's one pass over the columns of X: (G, norms, stats).

    The rows of X that the integer indices train select, then those that
    others select, are gathered one pca.column_blocks block at a time, and
    each block is transformed in place, column by column, to
    (x - means) / sigmas, where means and sigmas are standardize's on the
    training rows, bit for bit (the product with 1/sigmas may differ from
    standardize's quotient in the last bits). With z the rows so
    transformed, G[i, j] = z_i . z_j over every gathered row i and
    training row j, and norms[i] = z_i . z_i. The training rows' G is
    summed as its own product (numpy's syrk, so exactly symmetric), and
    does not depend on the other rows. stats() returns (means, sigmas).

    underflow_scale s, given for a Gaussian kernel on the z-scored rows,
    lets the pass stop early. After blocks 1, 2, 4, 8, ... it takes the
    partial squared distance d_k = n_i + n_j - 2 G_ij, as
    svm.kernel_values computes it, for every training pair i != j and
    every other row i against every training row j. The remaining blocks
    only add non-negative terms, so once every d_k is past
    _UNDERFLOW * s^2 with room for rounding, every such exp(-d / s^2) of
    the full pass is exactly 0.0, and the pass stops. G and norms then
    hold the partial sums; the training norms are still G's diagonal, so
    kernel_values gives the same kernel as the full pass, bit for bit:
    the identity on the training rows and 0 for every other row. The
    unread columns' means and sigmas are formed when stats() is first
    called, by the same arithmetic on blocks of the training rows alone
    (column_blocks has the same bounds for any rows), so they are the full
    pass's bits too. This speeds up only a kernel that is exactly the
    identity; it does not make such a fit any less vacuous.

    The room for rounding, with m columns, t training rows, u = 2^-53 and
    e = 4 (m + 1) u. For any rows i, j with exact norms a, b and exact
    squared distance D, the computed n_i + n_j - 2 G_ij is within
    e (a + b)^2 of D: each of its sums has m products, added over at most
    m blocks in any order, and the three-term sum adds two roundings. So
    the partial sums bound the exact partial distance D_k from below by
    d_k - e_i, where e_i = e (sqrt(n_i (1 + 2e)) + sqrt(B))^2 takes the
    computed partial norm n_i, and B = m t bounds every training norm:
    each z-scored training column's squares sum to t - 1, to within
    rounding, unless the squares of its deviations from the mean underflow
    (float32 rows' nonzero deviations exceed 1e-100). A held-out row's
    norm a has no such bound. If a <= 3 sqrt(B), the full pass errs by at
    most 16 e B; otherwise D >= (a - b)^2 >= 4 a^2 / 9, so its error
    e (a + b)^2 is at most 4 e D. Either way the full pass computes at
    least (1 - 4 e) d_k - e_i - 16 e B, and the pass stops once that is at
    least _UNDERFLOW * s^2 for every pair. The gap between 745.14 and
    _UNDERFLOW absorbs the rounding of the test itself and of d / s^2."""
    m, t = X.shape[1], train.size
    order = np.concatenate([train, others])
    means, sigmas = np.empty(m), np.empty(m)
    G = np.zeros((order.size, t))
    norms = np.zeros(order.size)
    read = m
    for k, (a, b, Xb) in enumerate(column_blocks(X, order), 1):
        _standardize_block(Xb, t, a, b, means, sigmas)
        # only Xb refers to the block, so it is freed once the next one
        # is gathered
        G[:t] += Xb[:t] @ Xb[:t].T
        G[t:] += Xb[t:] @ Xb[:t].T
        norms[t:] += np.einsum("ij,ij->i", Xb[t:], Xb[t:])
        if (underflow_scale is not None and k & (k - 1) == 0 and b < m
                and _kernel_underflows(G, norms, m, underflow_scale)):
            read = b
            break
    # the training norms are the Gram's diagonal, so every k(z, z) is exact
    norms[:t] = G.diagonal()

    def stats():
        nonlocal read
        if read < m:
            for a, b, Xb in column_blocks(X, train, start=read):
                _standardize_block(Xb, t, a, b, means, sigmas)
            read = m
        return means, sigmas
    return G, norms, stats


def _standardize_block(Xb: np.ndarray, t: int, a: int, b: int,
                       means: np.ndarray, sigmas: np.ndarray) -> None:
    """Set means[a:b] and sigmas[a:b] from the first t rows of the gathered
    block Xb of columns [a, b), and transform Xb in place to
    (x - means) / sigmas."""
    means[a:b] = mu = Xb[:t].mean(axis=0)
    Xb -= mu
    sigmas[a:b] = sd = _sigmas(Xb[:t])
    Xb *= 1.0 / sd


def _kernel_underflows(G: np.ndarray, norms: np.ndarray, m: int, scale: float) -> bool:
    """Whether the partial sums G and norms[t:] of _row_products prove that
    every Gaussian kernel entry off the training diagonal underflows to 0.0
    on the full pass (see _row_products for the argument). It may set
    norms[:t] to G's diagonal, as the pass does at its end."""
    t = G.shape[1]
    limit = _UNDERFLOW * (scale * scale)
    # one training pair first: the usual answer, cheaply
    if t > 1 and not G[0, 0] + G[1, 1] - 2.0 * G[1, 0] >= limit:
        return False
    norms[:t] = G.diagonal()
    sq = norms[:, None] + norms[None, :t] - 2.0 * G
    np.fill_diagonal(sq[:t], np.inf)
    nearest = sq.min(axis=1, initial=np.inf)
    e, bound = 4.0 * (m + 1) * 2.0 ** -53, float(m * t)
    room = e * (np.sqrt(norms * (1.0 + 2.0 * e)) + np.sqrt(bound)) ** 2 + 16.0 * e * bound
    return bool(np.all((1.0 - 4.0 * e) * nearest - room >= limit))


def _zscored(X: np.ndarray, rows: np.ndarray, means: np.ndarray,
             sigmas: np.ndarray) -> np.ndarray:
    """(X[rows] - means) / sigmas as a C-order float64 array, scaled as
    standardize scales the training rows. Each row is upcast as it is
    copied, so float32 rows leave no float32 copy of them behind."""
    Z = np.empty((rows.size, X.shape[1]))
    for i, r in enumerate(rows):
        Z[i] = X[r]
    Z -= means
    Z /= sigmas
    return Z


def _gram_front(G: np.ndarray, coef: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """A Gram-route PCA fit's x W + b in n-space, for the rows whose raw
    Gram rows over the training rows are the rows of G: with g such a row,
    x W + b = (g - mean(g)) coef + b."""
    C = G - G.mean(axis=1, keepdims=True)
    Z = C @ coef
    Z += offset
    return Z


def _decision(clf: svm.SvmModel | ann.AnnModel, Z: np.ndarray) -> np.ndarray:
    """The classifier's decision scores for rows Z in its input space."""
    if isinstance(clf, svm.SvmModel):
        return svm.decision_batch(clf, Z)
    return ann.forward_batch(clf, Z)


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
    the raw Gram of every row of X, which the PCA pipelines read; without
    it they build that Gram themselves. X itself is never written.

    The fit scores the other rows of X, the held-out rows, from the inner
    products it has read. The model keeps those scores, in ascending row
    order, and the time that scoring took, as held_out.
    """
    pid = canonical_pipeline(pipeline)
    X = np.atleast_2d(feature_rows(X))
    signs = np.array([to_sign(l) for l in labels], dtype=np.float64)
    if signs.shape[0] != X.shape[0]:
        raise ValueError("labels length does not match X rows")
    rows, val_rows = _row_indices(rows), _row_indices(val_rows)
    targets = signs if rows is None else signs[rows]
    kind = pipeline_feature_kind(pid, cfg)
    train = np.arange(X.shape[0]) if rows is None else rows
    held = np.ones(X.shape[0], dtype=bool)
    held[train] = False
    if val_rows is not None:
        held[val_rows] = False
    held = np.flatnonzero(held)     # the held-out rows, ascending
    retained = cum_variance = identity = None

    if pid == "VAF-SVM":
        kernel = cfg.kernel_spec()
        scale = kernel.scale if kernel.kind is svm.KernelKind.GAUSSIAN else None
        G, norms, stats = _row_products(X, train, held, underflow_scale=scale)
        K = svm.kernel_values(kernel, G, norms, norms[:train.size])
        K_train = K[:train.size]
        alpha, bias = svm.smo(K_train, targets, cfg.C, cfg.svm_tol)
        identity = bool(np.array_equal(K_train, np.eye(train.size)))
        keep = alpha > svm.SV_EPS
        sv = train[keep]

        def affine():
            means, sigmas = stats()
            return 1.0 / sigmas, -(means / sigmas)
        classifier = svm.SvmModel(support_vectors=lambda: _zscored(X, sv, *stats()),
                                  alphas=alpha[keep], labels=targets[keep], bias=bias,
                                  kernel=kernel, C=cfg.C)
        score_held = lambda: svm.decision_kernel(classifier, K[train.size:, keep])
    else:
        # G: the raw Gram rows, over the training rows, of the training
        # rows, then of the validation rows (up to v), then of the held-out rows
        n = train.size
        v = n if val_rows is None else n + val_rows.size
        others = held if val_rows is None else np.concatenate([val_rows, held])
        if gram is None:
            gram = raw_gram(X)
        G = gram[np.ix_(np.concatenate([train, others]), train)]
        pca_model = fit_pca(X, cum_threshold=cfg.pca_threshold, gram=G[:n])
        retained = pca_model.retained
        cum_variance = float(np.cumsum(pca_model.contribution)[retained - 1])
        Xs, means, sigmas = standardize(pca_model.scores)
        offset = (pca_model.origin[:retained] - means) / sigmas
        coef = pca_model.coef[:, :retained] / sigmas
        # W = (X[train] - means)^T coef, mapped back when read
        affine = lambda: (map_back(X, rows, coef)[0], offset)

        if pid == "PCA-SVM":
            classifier = svm.train_svm(Xs, targets, C=cfg.C, kernel=cfg.kernel_spec(),
                                       tol=cfg.svm_tol)
        else:
            vXs = vt = None
            if val_rows is not None:
                vXs = _gram_front(G[n:v], coef, offset)
                vt = signs[val_rows]
            train_cfg = cfg.train_config(seed=ann_seed)
            classifier = ann.train_ann(Xs, targets, train_cfg, val_X=vXs, val_targets=vt)
        score_held = lambda: _decision(classifier, _gram_front(G[v:], coef, offset))
    held_out = None
    if held.size:
        t0 = time.perf_counter()
        held_out = (score_held(), time.perf_counter() - t0)

    grayscale = kind is FeatureKind.GRAYSCALE
    return PipelineModel(
        pipeline=pid,
        feature_kind=kind,
        block_grid=tuple(cfg.block_grid) if grayscale else None,
        bins=cfg.bins if grayscale else None,
        n_features=X.shape[1],
        affine=affine,
        classifier=classifier,
        pca_retained=retained,
        pca_cumulative_variance=cum_variance,
        identity_kernel=identity,
        held_out=held_out,
    )


def predict_matrix(model: PipelineModel, X: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Labels and decision scores for raw feature rows (pre-PCA space),
    through the bundle's front end, x W + b (x * w + b for VAF-SVM), and its
    classifier; X is never written. The float64 W makes the product float64
    for float32 rows."""
    X = np.atleast_2d(feature_rows(X))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, the bundle expects {model.n_features}"
        )
    W = model.weight
    Z = X @ W if W.ndim == 2 else X * W
    Z += model.offset
    scores = _decision(model.classifier, Z)
    return [from_sign(s) for s in scores], scores


def predict_volume(model: PipelineModel, vol: Volume) -> tuple[str, float]:
    """Extract this bundle's features from one volume and classify it."""
    if model.feature_kind is FeatureKind.GRAYSCALE:
        feats = block_features(vol, model.block_grid, model.bins)
    else:
        feats = vaf_features(vol)
    labels_out, scores = predict_matrix(model, feats[None, :])
    return labels_out[0], float(scores[0])
