"""Span tracing of voxelcad layers from outside the package.

The package keeps no timers of its own, so the benchmark wraps the layer
functions where they are looked up: every module imports its collaborators
by name, so `voxelcad.evaluation.fit_pipeline` must be patched, not
`voxelcad.pipeline.fit_pipeline`. A target that no longer exists raises
TraceTargetError before any work runs, so a refactor cannot silently drop a
layer metric.

Spans (name, start, end, parent, phase, op) are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field


class TraceTargetError(RuntimeError):
    """A function the tracer wraps is missing from the package."""


def _volume_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _bundle_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}  # args[0] is the class


def _eigen_order(args, kwargs, result):
    return {"order": len(args[0])}


def _pca_retained(args, kwargs, result):
    return {"retained": result.retained}


def _svm_support(args, kwargs, result):
    return {"n": len(args[1]), "sv": int(result.support_vectors.shape[0])}


def _lm_accepted(args, kwargs, result):
    history = result.history or {}
    return {"accepted": len(history.get("train_sse", [None])) - 1}


# (module, attribute, span name, attribute extractor). The same layer
# function appears once per module that looks it up.
TARGETS = (
    ("voxelcad.cli", "dispatch", "cli.dispatch", None),
    ("voxelcad.cli", "generate_dataset", "synth.generate_dataset", None),
    ("voxelcad.cli", "cross_validate", "evaluation.cross_validate", None),
    ("voxelcad.cli", "write_report_json", "evaluation.write_report", None),
    ("voxelcad.cli", "build_feature_matrix", "features.build_feature_matrix", None),
    ("voxelcad.evaluation", "build_feature_matrix", "features.build_feature_matrix", None),
    ("voxelcad.cli", "fit_pipeline", "pipeline.fit_pipeline", None),
    ("voxelcad.evaluation", "fit_pipeline", "pipeline.fit_pipeline", None),
    ("voxelcad.evaluation", "predict_matrix", "pipeline.predict_matrix", None),
    ("voxelcad.cli", "predict_volume", "pipeline.predict_volume", None),
    ("voxelcad.cli", "load_volume", "volume.load_volume", _volume_bytes),
    ("voxelcad.features", "load_volume", "volume.load_volume", _volume_bytes),
    ("voxelcad.features", "block_features", "features.block_features", None),
    ("voxelcad.pipeline", "block_features", "features.block_features", None),
    ("voxelcad.pipeline", "fit_pca", "pca.fit_pca", _pca_retained),
    ("voxelcad.pipeline", "project", "pca.project", None),
    ("voxelcad.pca", "eigen_symmetric", "pca.eigen_symmetric", _eigen_order),
    ("voxelcad.svm", "train_svm", "svm.train_svm", _svm_support),
    ("voxelcad.svm", "solve_dual", "svm.solve_dual", None),
    ("voxelcad.svm", "gram_matrix", "svm.gram_matrix", None),
    ("voxelcad.svm", "decision_batch", "svm.decision_batch", None),
    ("voxelcad.ann", "train_lm", "ann.train_lm", _lm_accepted),
    ("voxelcad.ann", "_lm_step", "ann.lm_step", None),
)
# classmethods are patched on the class itself
CLASS_TARGETS = (
    ("voxelcad.pipeline", "PipelineModel", "load", "pipeline.bundle_load", _bundle_bytes),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers while a `span_scope` is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._phase = ""
        self._op = -1
        self._patches = []
        for mod_name, attr, span_name, extract in TARGETS:
            owner = self._resolve(mod_name, attr)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original,
                                  self._wrap(original, span_name, extract)))
        for mod_name, cls_name, attr, span_name, extract in CLASS_TARGETS:
            cls = getattr(self._resolve(mod_name, cls_name), cls_name)
            original = cls.__dict__.get(attr)
            if not isinstance(original, classmethod):
                raise TraceTargetError(f"{mod_name}.{cls_name}.{attr} is not a classmethod")
            wrapped = classmethod(self._wrap(original.__func__, span_name, extract))
            self._patches.append((cls, attr, original, wrapped))

    @staticmethod
    def _resolve(mod_name: str, attr: str):
        try:
            module = importlib.import_module(mod_name)
        except ImportError as err:
            raise TraceTargetError(f"cannot import {mod_name}: {err}") from err
        if not hasattr(module, attr):
            raise TraceTargetError(f"trace target {mod_name}.{attr} no longer exists")
        return module

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, time.perf_counter(), 0.0, parent,
                        self._phase, self._op)
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span_scope(self, phase: str, op: int):
        """Trace every call into the package made inside the block."""
        self._phase, self._op = phase, op
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "phase": s.phase, "op": s.op,
                                     "attrs": s.attrs}) + "\n")


class _Totals:
    """Per-name sums over a set of spans."""

    def __init__(self, spans):
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        for s in spans:
            self.time[s.name] = self.time.get(s.name, 0.0) + s.duration
            self.self_time[s.name] = (self.self_time.get(s.name, 0.0)
                                      + s.duration - child_time.get(s.id, 0.0))
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            sums = self.attrs.setdefault(s.name, {})
            for key, value in s.attrs.items():
                sums[key] = sums.get(key, 0.0) + value

    def attr(self, name, key) -> float:
        return self.attrs.get(name, {}).get(key, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_ops: int, fit_rounds: int) -> dict[str, float]:
    """Per-layer figures: 'op' phase sums per traced operation, 'fit' phase
    sums per training round, 'setup' per synthesis call."""
    op = _Totals([s for s in tracer.spans if s.phase == "op"])
    fit = _Totals([s for s in tracer.spans if s.phase == "fit"])
    setup = _Totals([s for s in tracer.spans if s.phase == "setup"])
    per_op = lambda v: _ratio(v, traced_ops)
    per_fit = lambda v: _ratio(v, fit_rounds)
    eig_calls = op.calls.get("pca.eigen_symmetric", 0)
    lm_calls = op.calls.get("ann.lm_step", 0)
    out = {
        "features.block_features_s": per_op(op.time.get("features.block_features", 0.0)),
        "features.block_features_calls": per_op(op.calls.get("features.block_features", 0)),
        "features.build_feature_matrix_s":
            per_op(op.time.get("features.build_feature_matrix", 0.0)),
        "volume.load_volume_s": per_op(op.time.get("volume.load_volume", 0.0)),
        "volume.bytes_read": per_op(op.attr("volume.load_volume", "bytes")),
        "pca.eigen_symmetric_s": per_op(op.time.get("pca.eigen_symmetric", 0.0)),
        "pca.eigen_symmetric_calls": per_op(eig_calls),
        "pca.eigen_order": _ratio(op.attr("pca.eigen_symmetric", "order"), eig_calls),
        "pca.fit_pca_self_s": per_op(op.self_time.get("pca.fit_pca", 0.0)),
        "pca.project_s": per_op(op.time.get("pca.project", 0.0)),
        "pca.retained": _ratio(op.attr("pca.fit_pca", "retained"),
                               op.calls.get("pca.fit_pca", 0)),
        "svm.solve_dual_s": per_op(op.time.get("svm.solve_dual", 0.0)),
        "svm.gram_matrix_s": per_op(op.time.get("svm.gram_matrix", 0.0)),
        "svm.smo_self_s": per_op(op.self_time.get("svm.solve_dual", 0.0)),
        "svm.support_vector_ratio": _ratio(op.attr("svm.train_svm", "sv"),
                                           op.attr("svm.train_svm", "n")),
        "svm.decision_batch_s": per_op(op.time.get("svm.decision_batch", 0.0)),
        "ann.train_lm_s": per_op(op.time.get("ann.train_lm", 0.0)),
        "ann.lm_solves": per_op(lm_calls),
        "ann.lm_steps_accepted": per_op(op.attr("ann.train_lm", "accepted")),
        "ann.lm_accept_ratio": _ratio(op.attr("ann.train_lm", "accepted"), lm_calls),
        "pipeline.fit_pipeline_self_s": per_op(op.self_time.get("pipeline.fit_pipeline", 0.0)),
        "pipeline.bundle_load_s": per_op(op.time.get("pipeline.bundle_load", 0.0)),
        "pipeline.bundle_bytes": _ratio(op.attr("pipeline.bundle_load", "bytes"),
                                        op.calls.get("pipeline.bundle_load", 0)),
        "cli.dispatch_self_s": per_op(op.self_time.get("cli.dispatch", 0.0)),
        "evaluation.cross_validate_self_s":
            per_op(op.self_time.get("evaluation.cross_validate", 0.0)),
        "evaluation.write_report_s": per_op(op.time.get("evaluation.write_report", 0.0)),
        "synth.generate_dataset_s": _ratio(setup.time.get("synth.generate_dataset", 0.0),
                                           setup.calls.get("synth.generate_dataset", 0)),
        "train.pca.eigen_symmetric_s": per_fit(fit.time.get("pca.eigen_symmetric", 0.0)),
        "train.pca.eigen_symmetric_calls": per_fit(fit.calls.get("pca.eigen_symmetric", 0)),
        "train.features.block_features_s":
            per_fit(fit.time.get("features.block_features", 0.0)),
        "train.svm.solve_dual_s": per_fit(fit.time.get("svm.solve_dual", 0.0)),
        "train.ann.train_lm_s": per_fit(fit.time.get("ann.train_lm", 0.0)),
        "trace.spans_per_op": per_op(sum(op.calls.values())),
    }
    return out


def overhead_ms(traced_ms: list[float], untraced_ms: list[float]) -> float:
    """Median over inputs of the traced minus the untraced operation.

    Each pair runs back to back on the same input, so a slow drift of the
    host's speed cancels out of the difference.
    """
    pairs = [t - u for t, u in zip(traced_ms, untraced_ms)]
    return statistics.median(pairs) if pairs else 0.0
