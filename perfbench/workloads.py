"""The three benchmark workloads and their output checks.

Every workload is one process, one client and a closed loop: the next
command starts only after the previous one returned. Commands go through
`voxelcad.cli.dispatch`, the same entry point as the `voxelcad` program, so
the benchmark sees what a user of the CLI sees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Size:
    """Cohort shape and loop lengths of one benchmark mode."""

    n_ad: int
    n_hc: int
    heldout_ad: int
    heldout_hc: int
    dims: str | None          # None keeps the package default (34x47x39)
    synth_flags: tuple[str, ...]
    model_flags: tuple[str, ...]
    eval_flags: tuple[str, ...]
    min_evals: int
    min_requests: int
    synth_interval_s: float   # least time between timed re-syntheses
    requests_per_round: int   # predict-stream retrains both bundles this often


# 80 subjects keep the default 70/30 class mix and default volume size, and
# let one eval finish in about 5 s on 2 cores, so the eigensolver still
# dominates while a run measures several evals. A training round of both
# bundles takes about as long as 100 requests, so predict-stream spends
# about half its loop on each.
FULL = Size(n_ad=56, n_hc=24, heldout_ad=28, heldout_hc=12, dims=None, synth_flags=(),
            model_flags=(), eval_flags=(), min_evals=4, min_requests=200,
            synth_interval_s=4.0, requests_per_round=100)
# the cohort shape of the unit tests (tests/conftest.py SMALL); 504-voxel
# volumes need a stronger class difference for every held-out subject to be
# classified right
SMOKE = Size(n_ad=12, n_hc=8, heldout_ad=6, heldout_hc=4, dims="8x9x7",
             synth_flags=("--separation", "10"),
             model_flags=("--block-grid", "2x2x2", "--max-iters", "40"),
             eval_flags=("--folds", "4"), min_evals=2, min_requests=20,
             synth_interval_s=0.2, requests_per_round=10)

PCA_BUNDLES = (("PCA-SVM", "svm"), ("PCA-ANN", "ann"))


@dataclass
class Result:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    # one row per eval or training round: the time of each fit in it, in a
    # fixed order (pipeline by fold on the cv workloads, bundle on predict-stream)
    fit_parts: list[list[float]] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)         # untraced operations
    traced_op_ms: list[float] = field(default_factory=list)
    fit_rounds: int = 0
    obs_per_s: dict[str, list[float]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Runner:
    """Runs CLI commands, traced or not, and counts their failures."""

    def __init__(self, cli, tracer, result: Result):
        self.cli = cli
        self.tracer = tracer
        self.result = result

    def call(self, argv, phase: str, op: int = -1, traced: bool = False):
        """(return code, stdout, seconds); an exception counts as code -1."""
        out, err = io.StringIO(), io.StringIO()
        scope = (self.tracer.span_scope(phase, op) if traced and self.tracer
                 else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.dispatch(list(argv))
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if rc != 0:
            print(f"voxelcad {argv[0]} exited {rc}: {err.getvalue().strip()}",
                  file=sys.stderr)
        return rc, out.getvalue(), elapsed

    def synth(self, out_dir: Path, seed: int, n_ad: int, n_hc: int, size: Size) -> float:
        argv = ["synth", "--out", str(out_dir), "--n-ad", str(n_ad),
                "--n-hc", str(n_hc), "--seed", str(seed)]
        if size.dims:
            argv += ["--dims", size.dims]
        argv += size.synth_flags
        rc, _, elapsed = self.call(argv, "setup", traced=True)
        self.result.attempted += 1
        if rc != 0:
            self.result.fail(f"synth into {out_dir} exited {rc}")
        return elapsed


def _synth_all(runner: Runner, work: Path, cohorts, size: Size, tag: str) -> list[Path]:
    """Synthesize every cohort once; their total time is one setup_s sample.
    Returns the manifests."""
    total = 0.0
    manifests = []
    for name, seed, n_ad, n_hc in cohorts:
        out_dir = work / f"{name}-{tag}"
        total += runner.synth(out_dir, seed, n_ad, n_hc, size)
        manifests.append(out_dir / "manifest.csv")
    runner.result.setup_s.append(total)
    return manifests


class _Resynth:
    """Times the set-up again at intervals and throws its cohorts away.

    The loops call `due` before each untraced operation, so setup_s samples
    the host over the whole run, as the other metrics do, and not only in
    its first second or two.
    """

    def __init__(self, runner: Runner, work: Path, cohorts, size: Size):
        self.args = (runner, work, cohorts, size)
        self.last = time.perf_counter()

    def due(self) -> None:
        runner, work, cohorts, size = self.args
        if time.perf_counter() - self.last < size.synth_interval_s:
            return
        _synth_all(runner, work, cohorts, size, "again")
        for name, *_ in cohorts:
            shutil.rmtree(work / f"{name}-again", ignore_errors=True)
        self.last = time.perf_counter()


def _ops(seconds: float, minimum: int, trace: bool):
    """Input indices of the closed loop and whether each operation is traced.

    With tracing, every input runs twice, untraced then traced, so the
    overhead is measured on the same inputs; the minimum then applies to
    each kind.
    """
    start = time.perf_counter()
    i = 0
    while True:
        op, traced = (i // 2, i % 2 == 1) if trace else (i, False)
        if not traced and op >= minimum and time.perf_counter() - start >= seconds:
            return
        yield op, traced
        i += 1


# ---------------------------------------------------------------- cv workloads

def run_cv(vc, runner: Runner, work: Path, seed: int, seconds: float, size: Size,
           feature_kind: str, reference: dict, trace: bool) -> None:
    """Repeated `voxelcad eval` of all three pipelines on one cohort."""
    res = runner.result
    cohorts = [("cohort", seed, size.n_ad, size.n_hc)]
    (manifest,) = _synth_all(runner, work, cohorts, size, "0")
    if res.failed:
        return
    resynth = _Resynth(runner, work, cohorts, size)
    report_path = work / "report.json"
    argv = ["eval", "--manifest", str(manifest), "--report", str(report_path),
            "--features", feature_kind, "--seed", str(seed), *size.model_flags,
            *size.eval_flags]
    first = None
    for op, traced in _ops(seconds, size.min_evals, trace):
        if not traced:
            resynth.due()
        rc, _, elapsed = runner.call(argv, "op", op, traced)
        res.attempted += 1
        if rc != 0:
            res.fail(f"eval {op} exited {rc}")
            continue
        (res.traced_op_ms if traced else res.op_ms).append(1000.0 * elapsed)
        with open(report_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        reports = payload["reports"]
        if not traced:
            res.fit_parts.append([f["train_time_s"] for r in reports for f in r["folds"]])
            for r in reports:
                res.obs_per_s.setdefault(r["pipeline"], []).append(
                    r["timing"]["prediction_obs_per_s"])
        stripped = {"reports": [vc.evaluation.strip_timing(r) for r in reports]}
        if first is None:
            first = stripped
            problems = _check_cv_report(vc, manifest, reports, reference)
        else:
            problems = [] if stripped == first else [
                f"eval {op} report differs from eval 0 after strip_timing"]
        if problems:
            res.fail("; ".join(problems))
    res.detail["aggregate"] = {r["pipeline"]: r["aggregate"]
                               for r in (first or {"reports": []})["reports"]}
    res.detail["accuracy"] = {r["pipeline"]: r["mean_accuracy"]
                              for r in (first or {"reports": []})["reports"]}


def _check_cv_report(vc, manifest, reports, reference) -> list[str]:
    problems = []
    labels = [row.label for row in vc.manifest.read_manifest(manifest)]
    n = len(labels)
    cfg = reports[0]["config"]
    splits = vc.evaluation.stratified_split(labels, cfg["folds"], cfg["val_fraction"],
                                            cfg["seed"])
    tests = np.concatenate([sp.test for sp in splits])
    if sorted(tests.tolist()) != list(range(n)):
        problems.append("fold test sets do not partition the cohort")
    for i, sp in enumerate(splits):
        parts = np.concatenate([sp.train, sp.val, sp.test])
        if sorted(parts.tolist()) != list(range(n)):
            problems.append(f"fold {i}: train/val/test do not partition the cohort")
    for r in reports:
        pid = r["pipeline"]
        sizes = [(f["n_train"], f["n_val"], f["n_test"]) for f in r["folds"]]
        expected = [(sp.train.size, sp.val.size, sp.test.size) for sp in splits]
        if sizes != expected:
            problems.append(f"{pid}: fold sizes {sizes} differ from the split {expected}")
        agg = {k: r["aggregate"][k] for k in ("tp", "fn", "fp", "tn")}
        if sum(agg.values()) != n:
            problems.append(f"{pid}: aggregate counts {agg} do not cover {n} subjects")
        want = reference["confusion"].get(pid)
        if want is not None and agg != want:
            problems.append(f"{pid}: aggregate {agg} differs from the recorded {want}")
        floor = reference["min_accuracy"].get(pid)
        if floor is not None and not r["mean_accuracy"] >= floor:
            problems.append(f"{pid}: accuracy {r['mean_accuracy']} below the floor {floor}")
    missing = set(reference["confusion"]) | set(reference["min_accuracy"])
    missing -= {r["pipeline"] for r in reports}
    if missing:
        problems.append(f"report lacks pipelines {sorted(missing)}")
    return problems


# -------------------------------------------------------------- predict-stream

def run_predict(vc, runner: Runner, work: Path, seed: int, seconds: float, size: Size,
                trace: bool) -> None:
    """A closed loop of `voxelcad predict` on trained PCA bundles.

    Both bundles are trained before the first request and again after every
    `requests_per_round` inputs, so the training rounds and the requests
    are spread over the same stretch of time.
    """
    res = runner.result
    cohorts = [("train", seed, size.n_ad, size.n_hc),
               ("heldout", derived_seed(seed, 1), size.heldout_ad, size.heldout_hc)]
    train_manifest, heldout_manifest = _synth_all(runner, work, cohorts, size, "0")
    if res.failed:
        return
    resynth = _Resynth(runner, work, cohorts, size)

    bundles = {pid: work / f"{model}.json" for pid, model in PCA_BUNDLES}
    digests = {}

    def train_round() -> bool:
        rnd, parts = res.fit_rounds, []
        for pid, model in PCA_BUNDLES:
            rc, _, elapsed = runner.call(
                ["train", "--manifest", str(train_manifest), "--model", model,
                 "--model-out", str(bundles[pid]), "--seed", str(seed),
                 *size.model_flags], "fit", traced=True)
            res.attempted += 1
            parts.append(elapsed)
            if rc != 0:
                res.fail(f"train {pid} round {rnd} exited {rc}")
                return False
        res.fit_parts.append(parts)
        res.fit_rounds += 1
        now = {pid: hashlib.sha256(p.read_bytes()).hexdigest() for pid, p in bundles.items()}
        if digests and now != digests:
            res.fail(f"training round {rnd} wrote bundles that differ from round 0")
        digests.update(now)
        return True

    if not train_round():
        return
    res.detail["bundle_bytes"] = {pid: p.stat().st_size for pid, p in bundles.items()}

    rows = vc.manifest.read_manifest(heldout_manifest)
    answers: list[tuple[int, int, str]] = []
    pids = [pid for pid, _ in PCA_BUNDLES]
    for op, traced in _ops(seconds, size.min_requests, trace):
        if not traced:
            resynth.due()
        if op and op % size.requests_per_round == 0 and not traced:
            if not train_round():
                return
        b, v = op % len(pids), (op // len(pids)) % len(rows)
        rc, out, elapsed = runner.call(
            ["predict", "--model", str(bundles[pids[b]]), "--volume", str(rows[v].path)],
            "op", op, traced)
        res.attempted += 1
        if rc != 0:
            res.fail(f"predict request {op} exited {rc}")
            continue
        (res.traced_op_ms if traced else res.op_ms).append(1000.0 * elapsed)
        answers.append((b, v, out))

    # reference predictions: predict_matrix on the same bundles and volumes
    expected = []
    for pid in pids:
        model = vc.pipeline.PipelineModel.load(bundles[pid])
        fm = vc.features.build_feature_matrix(
            heldout_manifest, vc.features.FeatureKind.GRAYSCALE, model.block_grid, model.bins)
        expected.append(vc.pipeline.predict_matrix(model, fm.values))
    for b, v, out in answers:
        pid, row = pids[b], rows[v]
        labels, scores = expected[b]
        parts = out.split()
        if len(parts) != 2 or parts[0] != row.label:
            res.fail(f"{pid} on {row.subject_id}: printed {out.strip()!r}, "
                     f"true label {row.label}")
        elif parts[0] != labels[v] or abs(float(parts[1]) - scores[v]) > 1e-6:
            res.fail(f"{pid} on {row.subject_id}: printed {out.strip()!r}, "
                     f"predict_matrix gives {labels[v]} {scores[v]:.6f}")
