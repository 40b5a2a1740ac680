"""Stratified k-fold cross-validation, confusion matrices, and reports.

Fold layout reconciles "k-fold" with a 70/10/20 split: each fold's test
set is one stratified 1/k chunk; the remaining subjects are split so the
validation slice holds about val_fraction of the total cohort and the rest
trains. With k=5 and val_fraction 0.10 that is 70/10/20. The validation
slice only drives ANN early stopping; SVM training ignores it.

Every fold refits standardization, PCA, and the classifier on its own
training rows, so no test information leaks into fitted parameters.
cross_validate hands fit_pipeline the whole feature matrix and the fold's
training and validation row indices. For the PCA pipelines it also builds
one raw Gram X X^T per feature matrix (pca.raw_gram, without
pca_prescale) and passes it to every fold's fit: each fold's PCA fit, and
its validation and test rows, are read from that n x n matrix, so no fold
gathers, centres or multiplies the m-wide rows. Its entry (i, j) depends
on rows i and j only, so the fits stay independent of the test rows.
VAF-SVM, and with pca_prescale the PCA pipelines, fit each fold in one
blocked pass over X whose training-row products do not depend on the test
rows either.

Every fit scores its fold's test rows itself, as its held-out rows, and
keeps their scores in ascending row order, the order of the fold's sorted
test indices. cross_validate labels the test rows from those scores, so
no fold scores them again through the bundle path (predict_matrix). So a
fold's train_time_s includes its test-row scoring, and
prediction_obs_per_s divides the test rows by the time the fits spent
scoring them from the inner products they had read (the pass that read
those counts as fit time).

Each PCA fold reports the components it kept and the share of the
training variance they explain; each PCA-ANN fold reports the
early-stopping epoch whose weights it kept (0 is the mean-target network,
which predicts the training majority), and the notes count those
fallbacks. The VAF-SVM notes count the folds whose training kernel is
exactly the identity, where every test row scores at the bias.

A report's mean metrics are micro-averages: they are recomputed from the
summed confusion counts, which makes "mean equals aggregate" an identity
rather than an approximation. Undefined ratios (zero denominator) are
reported as None/null, never 0 or NaN. Timing fields are wall-clock and
excluded from determinism comparisons (see strip_timing).
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .features import FeatureKind, build_feature_matrix
from .labels import VALID_LABELS, AD, HC, from_sign
from .pca import raw_gram
from .pipeline import PIPELINES, canonical_pipeline, fit_pipeline, pipeline_feature_kind
from .pipeline import predict_matrix  # not called here; perfbench/tracing.py wraps this name


class EvalError(Exception):
    """A fold failed; the message carries pipeline and fold index."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary counts with AD as the positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def misclassified(self) -> int:
        return self.fn + self.fp

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fn + other.fn,
                               self.fp + other.fp, self.tn + other.tn)


@dataclass(frozen=True)
class Metrics:
    """accuracy/sensitivity/specificity; None marks an undefined ratio."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = list(y_true)
    y_pred = list(y_pred)
    if not y_true:
        raise ValueError("cannot build a confusion matrix from zero samples")
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
    for t, p in zip(y_true, y_pred):
        if t not in VALID_LABELS or p not in VALID_LABELS:
            raise ValueError(f"labels must be {AD!r} or {HC!r}, got ({t!r}, {p!r})")
        if t == AD:
            counts["tp" if p == AD else "fn"] += 1
        else:
            counts["fp" if p == AD else "tn"] += 1
    return ConfusionMatrix(**counts)


def metrics(cm: ConfusionMatrix) -> Metrics:
    if cm.total == 0:
        raise ValueError("metrics need at least one evaluated sample")
    pos = cm.tp + cm.fn
    neg = cm.tn + cm.fp
    return Metrics(
        accuracy=(cm.tp + cm.tn) / cm.total,
        sensitivity=cm.tp / pos if pos else None,
        specificity=cm.tn / neg if neg else None,
    )


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint index sets into the sample axis."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def stratified_split(labels, k: int, val_fraction: float = 0.10,
                     seed: int = 0) -> list[FoldSplit]:
    """k stratified folds; test chunks partition the indices exactly once."""
    lab = np.asarray(list(labels), dtype=object)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    classes = sorted(set(lab.tolist()))
    rng = np.random.default_rng(seed)
    chunks: dict = {}
    val_counts: dict = {}
    for c in classes:
        idx = np.flatnonzero(lab == c)
        if idx.size < k:
            raise ValueError(f"class {c!r} has {idx.size} members, needs >= {k}")
        perm = idx[rng.permutation(idx.size)]
        base, extra = divmod(perm.size, k)
        parts, start = [], 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            parts.append(perm[start:start + size])
            start += size
        chunks[c] = parts
        val_counts[c] = int(val_fraction * idx.size + 0.5)

    splits = []
    for f in range(k):
        test = np.concatenate([chunks[c][f] for c in classes])
        train_parts, val_parts = [], []
        for c in classes:
            rest = np.concatenate([chunks[c][g] for g in range(k) if g != f])
            vc = val_counts[c]
            if rest.size - vc < 1:
                raise ValueError(
                    f"val_fraction {val_fraction} leaves class {c!r} without training data"
                )
            val_parts.append(rest[:vc])
            train_parts.append(rest[vc:])
        splits.append(FoldSplit(train=np.sort(np.concatenate(train_parts)),
                                val=np.sort(np.concatenate(val_parts)),
                                test=np.sort(test)))
    return splits


@dataclass(frozen=True)
class FoldResult:
    fold: int
    cm: ConfusionMatrix
    scores: Metrics
    n_train: int
    n_val: int
    n_test: int
    train_time_s: float
    # ANN only: the validation epoch whose weights early stopping kept, 0
    # being the mean-target network; None when no early stopping ran
    early_stop_epoch: int | None = None
    # PCA pipelines only: components kept and the cumulative share of the
    # training variance they explain; None for VAF-SVM
    pca_retained: int | None = None
    pca_cumulative_variance: float | None = None
    # VAF-SVM only: whether the training kernel was exactly the identity;
    # the notes count such folds, and the fold report does not carry it
    identity_kernel: bool | None = None


@dataclass(frozen=True)
class EvalReport:
    """One pipeline's cross-validation outcome in comparison-table shape."""

    pipeline: str
    seed: int
    fold_results: tuple[FoldResult, ...]
    aggregate: ConfusionMatrix
    mean_scores: Metrics          # micro-average of the summed counts
    notes: tuple[str, ...]
    config: dict
    train_time_s_total: float
    prediction_obs_per_s: float

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "seed": self.seed,
            "folds": [
                {
                    "fold": fr.fold,
                    "tp": fr.cm.tp, "fn": fr.cm.fn,
                    "fp": fr.cm.fp, "tn": fr.cm.tn,
                    "accuracy": fr.scores.accuracy,
                    "sensitivity": fr.scores.sensitivity,
                    "specificity": fr.scores.specificity,
                    "n_train": fr.n_train, "n_val": fr.n_val, "n_test": fr.n_test,
                    "early_stop_epoch": fr.early_stop_epoch,
                    "pca_retained": fr.pca_retained,
                    "pca_cumulative_variance": fr.pca_cumulative_variance,
                    "train_time_s": fr.train_time_s,
                }
                for fr in self.fold_results
            ],
            "aggregate": {
                "tp": self.aggregate.tp, "fn": self.aggregate.fn,
                "fp": self.aggregate.fp, "tn": self.aggregate.tn,
                "misclassified": self.aggregate.misclassified,
            },
            "mean_accuracy": self.mean_scores.accuracy,
            "mean_sensitivity": self.mean_scores.sensitivity,
            "mean_specificity": self.mean_scores.specificity,
            "notes": list(self.notes),
            "config": self.config,
            "timing": {
                "train_time_s_total": self.train_time_s_total,
                "prediction_obs_per_s": self.prediction_obs_per_s,
            },
        }


def strip_timing(report_dict: dict) -> dict:
    """Copy of a serialized report, or of a {"reports": [...]} payload as
    write_report_json writes it, without wall-clock fields."""
    out = copy.deepcopy(report_dict)
    for report in out.get("reports", [out]):
        report.pop("timing", None)
        for fold in report.get("folds", []):
            fold.pop("train_time_s", None)
    return out


def _pipeline_notes(pid: str, cfg: RunConfig, fold_results) -> tuple[str, ...]:
    notes = [
        f"fold layout: test = 1/{cfg.folds} stratified chunk; remainder split so "
        f"validation holds ~{cfg.val_fraction:.0%} of the cohort",
    ]
    if pid.endswith("SVM"):
        notes.append("validation slice is not used by SVM training")
    else:
        notes.append(
            f"ANN trained with {cfg.trainer.upper()} / {cfg.activation.upper()}, "
            "early-stopped on the validation slice"
        )
        epochs = [fr.early_stop_epoch for fr in fold_results
                  if fr.early_stop_epoch is not None]
        if epochs:
            notes.append(
                f"{epochs.count(0)} of {len(epochs)} early-stopped folds kept the "
                "mean-target network (early_stop_epoch 0), which predicts the "
                "training majority"
            )
    if pid == "VAF-SVM":
        notes.append("kernel and box-constraint preset reused from the PCA-SVM configuration")
        identity = [fr.identity_kernel for fr in fold_results]
        notes.append(
            f"{identity.count(True)} of {len(identity)} folds fit a training kernel that "
            "is exactly the identity, on which VAF-SVM scores every test row at its "
            "bias and predicts the training majority"
        )
    return tuple(notes)


def _fold_seed(master_seed: int, pid: str, fold: int) -> int:
    ordinal = PIPELINES.index(pid)
    ss = np.random.SeedSequence(master_seed, spawn_key=(ordinal, fold))
    return int(ss.generate_state(1)[0])


def cross_validate(manifest_path, pipelines, cfg: RunConfig) -> list[EvalReport]:
    """Fit and score each requested pipeline across stratified folds."""
    cfg.validate()
    ids = [canonical_pipeline(p) for p in pipelines]
    if not ids:
        raise ValueError("no pipelines requested")

    matrices: dict[FeatureKind, object] = {}
    for pid in ids:
        kind = pipeline_feature_kind(pid, cfg)
        if kind not in matrices:
            matrices[kind] = build_feature_matrix(manifest_path, kind,
                                                  cfg.block_grid, cfg.bins)
    first = next(iter(matrices.values()))
    lab = np.asarray(first.labels, dtype=object)
    splits = stratified_split(first.labels, cfg.folds, cfg.val_fraction, cfg.seed)

    # one raw Gram per feature matrix that a PCA pipeline reads
    grams = {}
    for pid in ids:
        kind = pipeline_feature_kind(pid, cfg)
        if pid != "VAF-SVM" and not cfg.pca_prescale and kind not in grams:
            grams[kind] = raw_gram(matrices[kind].values)

    reports = []
    for pid in ids:
        kind = pipeline_feature_kind(pid, cfg)
        X = matrices[kind].values
        gram = grams.get(kind) if pid != "VAF-SVM" else None
        fold_results: list[FoldResult] = []
        agg = ConfusionMatrix(0, 0, 0, 0)
        train_total = 0.0
        pred_time = 0.0
        n_pred = 0
        for i, sp in enumerate(splits):
            try:
                t0 = time.perf_counter()
                model = fit_pipeline(
                    pid, X, lab, cfg,
                    ann_seed=_fold_seed(cfg.seed, pid, i),
                    rows=sp.train,
                    val_rows=sp.val if sp.val.size else None,
                    gram=gram,
                )
                t_train = time.perf_counter() - t0
                history = getattr(model.classifier, "history", None) or {}
                stop_epoch = history.get("early_stop_epoch")
                pca_retained = model.pca_retained
                pca_variance = model.pca_cumulative_variance
                identity = model.identity_kernel
                # the test rows are the fit's held-out rows, which it
                # scored in ascending order, the order of sp.test
                test_scores, seconds = model.held_out
                predicted = [from_sign(s) for s in test_scores]
                pred_time += seconds
                # drop the fold's model now; on VAF features its m-wide
                # arrays would otherwise stay live through the next fit
                del model
            except Exception as err:
                raise EvalError(f"pipeline {pid} fold {i}: {err}") from err
            n_pred += sp.test.size
            cm = confusion(lab[sp.test].tolist(), predicted)
            agg = agg + cm
            train_total += t_train
            fold_results.append(FoldResult(
                fold=i, cm=cm, scores=metrics(cm),
                n_train=int(sp.train.size), n_val=int(sp.val.size),
                n_test=int(sp.test.size), train_time_s=t_train,
                early_stop_epoch=stop_epoch,
                pca_retained=pca_retained, pca_cumulative_variance=pca_variance,
                identity_kernel=identity,
            ))
        reports.append(EvalReport(
            pipeline=pid,
            seed=cfg.seed,
            fold_results=tuple(fold_results),
            aggregate=agg,
            mean_scores=metrics(agg),
            notes=_pipeline_notes(pid, cfg, fold_results),
            config=cfg.to_dict(),
            train_time_s_total=train_total,
            prediction_obs_per_s=n_pred / pred_time if pred_time > 0 else float(n_pred),
        ))
    return reports


def write_report_json(reports, path) -> None:
    payload = {"reports": [r.to_dict() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report_csv(reports, path) -> None:
    """Per-fold rows for external plotting; absent metrics stay empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pipeline", "fold", "tp", "fn", "fp", "tn",
                         "accuracy", "sensitivity", "specificity"])
        for r in reports:
            for fr in r.fold_results:
                writer.writerow([
                    r.pipeline, fr.fold, fr.cm.tp, fr.cm.fn, fr.cm.fp, fr.cm.tn,
                    _csv_num(fr.scores.accuracy),
                    _csv_num(fr.scores.sensitivity),
                    _csv_num(fr.scores.specificity),
                ])


def _csv_num(value) -> str:
    return "" if value is None else format(value, ".17g")
