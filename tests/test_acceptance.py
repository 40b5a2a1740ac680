"""Release gate: eight numbered checks over solvers, protocol and end to end.

Each test prints one `criterion N: PASS/FAIL - detail` line (run with -s to
see them all live; without -s pytest still shows the lines of failing
tests). The checks pit every hand-written solver against an independent
oracle, then exercise the full cohort pipeline at calibrated and null
signal levels.
"""

import hashlib
import json
import shutil
import time

import numpy as np
import pytest

from oracles import (dual_objective_ref, eigenvalues_bisect, fd_gradient,
                     fd_jacobian, naive_metrics, oracle_bias, solve_dual_enum)
from voxelcad.ann import (Activation, TrainConfig, _forward_parts, _j_v,
                          _jt_v, _unpack, gradient, jacobian, train_lm)
from voxelcad.config import RunConfig
from voxelcad.evaluation import (_fold_seed, confusion, cross_validate,
                                 metrics, strip_timing, stratified_split)
from voxelcad.features import build_feature_matrix
from voxelcad.pca import center, covariance, fit_pca, project
from voxelcad.pipeline import PIPELINES, fit_pipeline, pipeline_feature_kind
from voxelcad.svm import (KernelKind, KernelSpec, dual_objective, gram_matrix,
                          solve_dual)
from voxelcad.synth import generate_dataset


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cohort300(tmp_path_factory):
    """Default 300-subject cohort at the calibrated separation."""
    cfg = RunConfig()
    manifest = generate_dataset(cfg.synth_config(), tmp_path_factory.mktemp("cohort300"))
    return manifest, cfg


@pytest.fixture(scope="module")
def full_reports(cohort300):
    """One canonical 5-fold comparison run plus its wall time."""
    manifest, cfg = cohort300
    t0 = time.perf_counter()
    reports = cross_validate(manifest, PIPELINES, cfg)
    return reports, time.perf_counter() - t0


def test_criterion_1_pca_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"residual": 0.0, "ortho": 0.0, "trace": 0.0,
             "variance": 0.0, "oracle": 0.0}
    oracle_cases = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 21))
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m)
        model = fit_pca(X, method="direct")
        P = covariance(center(X)[0])
        lam = model.eigenvalues
        V = model.components
        worst["residual"] = max(worst["residual"], float(
            np.max(np.abs(P @ V - V * lam) / (1.0 + lam))))
        worst["ortho"] = max(worst["ortho"], float(
            np.max(np.abs(V.T @ V - np.eye(m)))))
        tr = float(np.trace(P))
        worst["trace"] = max(worst["trace"],
                             abs(float(lam.sum()) - tr) / max(1.0, abs(tr)))
        Y = project(model, X, n_components=m)
        var = (Y * Y).sum(axis=0) / (n - 1)
        worst["variance"] = max(worst["variance"], float(
            np.max(np.abs(var - lam) / (1.0 + lam))))
        if m <= 6:
            ref = eigenvalues_bisect(P)
            worst["oracle"] = max(worst["oracle"], float(
                np.max(np.abs(lam - ref)) / (1.0 + float(np.max(np.abs(ref))))))
            oracle_cases += 1
    elapsed = time.perf_counter() - t0
    ok = (worst["residual"] <= 1e-8 and worst["ortho"] <= 1e-8
          and worst["trace"] <= 1e-9 and worst["variance"] <= 1e-8
          and worst["oracle"] <= 1e-6 and elapsed < 30.0)
    _verdict(1, ok, (
        f"200 matrices: residual {worst['residual']:.2e}, "
        f"orthonormality {worst['ortho']:.2e}, trace {worst['trace']:.2e}, "
        f"projected variance {worst['variance']:.2e}, "
        f"bisection oracle {worst['oracle']:.2e} over {oracle_cases} cases, "
        f"{elapsed:.1f}s"))


def test_criterion_2_gram_route_equivalence():
    rng = np.random.default_rng(202)
    worst_wide = worst_spec = worst_tail = worst_proj = 0.0
    ranks = []
    for _ in range(5):
        X = rng.normal(size=(20, 500)) * rng.uniform(0.5, 2.0, size=500)
        wide = fit_pca(X, method="gram")
        r_wide = wide.eigenvalues.size
        ranks.append(r_wide)
        worst_wide = max(worst_wide, float(np.max(np.abs(
            wide.components.T @ wide.components - np.eye(r_wide)))))
        Yw = project(wide, X, n_components=r_wide)
        var = (Yw * Yw).sum(axis=0) / 19.0
        worst_wide = max(worst_wide, float(np.max(
            np.abs(var - wide.eigenvalues) / (1.0 + wide.eigenvalues))))

        # the 40-column slice keeps the direct route feasible for comparison
        sl = X[:, :40]
        g = fit_pca(sl, method="gram")
        d = fit_pca(sl, method="direct")
        r = g.eigenvalues.size
        worst_spec = max(worst_spec, float(
            np.max(np.abs(g.eigenvalues - d.eigenvalues[:r]))))
        worst_tail = max(worst_tail, float(
            np.max(d.eigenvalues[r:], initial=0.0)))
        Yg = project(g, sl, n_components=r)
        Yd = project(d, sl, n_components=r)
        worst_proj = max(worst_proj, float(np.max(np.abs(Yg - Yd))))
    ok = (worst_spec <= 1e-6 and worst_tail <= 1e-6
          and worst_proj <= 1e-6 and worst_wide <= 1e-6)
    _verdict(2, ok, (
        f"5 draws of 20x500 (nonzero ranks {sorted(set(ranks))}): "
        f"wide-model basis/variance {worst_wide:.2e}, spectrum gap "
        f"{worst_spec:.2e}, direct tail {worst_tail:.2e}, "
        f"projection gap {worst_proj:.2e}"))


def test_criterion_3_svm_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_obj = worst_probe = worst_kkt = 0.0
    for case in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 2.0))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        while np.all(y == y[0]):
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if case % 2 == 0:
            kernel = KernelSpec(KernelKind.LINEAR, 1.0)
        else:
            kernel = KernelSpec(KernelKind.GAUSSIAN, float(rng.uniform(0.8, 3.0)))
        C = float(10.0 ** rng.uniform(np.log10(0.3), 1.0))

        alpha, bias = solve_dual(X, y, C, kernel, tol=1e-6)
        K = gram_matrix(kernel, X)
        a_star = solve_dual_enum(K, y, C)
        obj_star = dual_objective_ref(K, y, a_star)
        worst_obj = max(worst_obj, abs(dual_objective(K, y, alpha) - obj_star)
                        / max(1.0, abs(obj_star)))

        b_star = oracle_bias(K, y, a_star, C)
        probes = rng.normal(size=(20, d))
        Kp = gram_matrix(kernel, probes, X)
        worst_probe = max(worst_probe, float(np.max(np.abs(
            (Kp @ (alpha * y) + bias) - (Kp @ (a_star * y) + b_star)))))

        margin = y * (K @ (alpha * y) + bias)
        snap = 1e-10 * C
        at_low = alpha <= snap
        at_up = alpha >= C - snap
        free = ~at_low & ~at_up
        viol = max(
            float(np.max(1.0 - margin[at_low], initial=0.0)),
            float(np.max(np.abs(margin[free] - 1.0), initial=0.0)),
            float(np.max(margin[at_up] - 1.0, initial=0.0)),
            abs(float(alpha @ y)),
            float(np.max(-alpha, initial=0.0)),
            float(np.max(alpha - C, initial=0.0)),
        )
        worst_kkt = max(worst_kkt, viol)

    two_x = np.array([[0.0, 0.0], [2.0, 0.0]])
    two_alpha, two_bias = solve_dual(two_x, np.array([-1.0, 1.0]), 10.0,
                                     KernelSpec(KernelKind.LINEAR, 1.0))
    two_gap = max(float(np.max(np.abs(two_alpha - 0.5))), abs(two_bias + 1.0))

    elapsed = time.perf_counter() - t0
    ok = (worst_obj <= 1e-3 and worst_probe <= 2e-3 and worst_kkt <= 1e-3
          and two_gap <= 1e-6 and elapsed < 60.0)
    _verdict(3, ok, (
        f"100 problems vs enumeration oracle: objective {worst_obj:.2e}, "
        f"probe decisions {worst_probe:.2e}, KKT {worst_kkt:.2e}, "
        f"2-point instance {two_gap:.2e}, {elapsed:.1f}s"))


def test_criterion_4_ann_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_grad = worst_jac = worst_prod = 0.0
    for case in range(50):
        activation = Activation.TANSIG if case % 2 == 0 else Activation.RELU
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        lam = 0.1 if case % 4 >= 2 else 0.0
        p = h * d + 2 * h + 1
        while True:
            X = rng.normal(size=(n, d))
            targets = rng.normal(size=n)
            theta = rng.uniform(-1.0, 1.0, size=p)
            if activation is Activation.TANSIG:
                break
            w1, b1, _, _ = _unpack(theta, d, h)
            if float(np.min(np.abs(X @ w1.T + b1))) > 1e-3:
                break  # all preactivations clear of the RELU kink

        got = gradient(theta, X, targets, d, h, activation, lam)

        def energy(t, X=X, targets=targets, d=d, h=h,
                   activation=activation, lam=lam):
            out, _, _ = _forward_parts(t, X, d, h, activation)
            r = out - targets
            return float(r @ r) + lam * float(t @ t)

        want = fd_gradient(energy, theta)
        worst_grad = max(worst_grad, float(
            np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))

        J = jacobian(theta, X, d, h, activation)

        def residuals(t, X=X, d=d, h=h, activation=activation):
            out, _, _ = _forward_parts(t, X, d, h, activation)
            return out

        J_fd = fd_jacobian(residuals, theta)
        worst_jac = max(worst_jac, float(
            np.max(np.abs(J - J_fd) / np.maximum(np.abs(J_fd), 1.0))))

        _, A, D = _forward_parts(theta, X, d, h, activation)
        v = rng.normal(size=n)
        w = rng.normal(size=p)
        worst_prod = max(worst_prod,
                         float(np.max(np.abs(_jt_v(v, X, A, D) - J.T @ v))),
                         float(np.max(np.abs(_j_v(w, X, A, D, d, h) - J @ w))))

    mono_ok = True
    for k in range(20):
        rr = np.random.default_rng(1000 + k)
        X = rr.normal(size=(int(rr.integers(4, 12)), int(rr.integers(1, 4))))
        t = rr.normal(size=X.shape[0])
        cfg = TrainConfig(hidden=int(rr.integers(1, 5)), max_iters=40, seed=k)
        sse = train_lm(X, t, cfg).history["train_sse"]
        mono_ok = mono_ok and all(b <= a for a, b in zip(sse, sse[1:]))

    line_x = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    line_fit = train_lm(line_x, 0.5 * line_x[:, 0],
                        TrainConfig(hidden=2, max_iters=200, seed=0))
    line_sse = line_fit.history["train_sse"][-1]

    elapsed = time.perf_counter() - t0
    ok = (worst_grad <= 1e-4 and worst_jac <= 1e-4 and worst_prod <= 1e-10
          and mono_ok and line_sse < 1e-4 and elapsed < 60.0)
    _verdict(4, ok, (
        f"50 nets: gradient {worst_grad:.2e}, Jacobian {worst_jac:.2e}, "
        f"matrix-free products {worst_prod:.2e}; accepted-step SSE "
        f"{'monotone' if mono_ok else 'NOT monotone'} on 20 tasks; "
        f"line task SSE {line_sse:.2e}, {elapsed:.1f}s"))


def test_criterion_5_metrics_oracle():
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y_true = [("AD" if b else "HC") for b in rng.random(n) < 0.7]
        y_pred = [("AD" if b else "HC") for b in rng.random(n) < 0.5]
        cm = confusion(y_true, y_pred)
        m = metrics(cm)
        (tp, fn, fp, tn), (acc, sens, spec) = naive_metrics(y_true, y_pred)
        if ((cm.tp, cm.fn, cm.fp, cm.tn) != (tp, fn, fp, tn)
                or m.accuracy != acc or m.sensitivity != sens
                or m.specificity != spec):
            mismatches += 1
    _verdict(5, mismatches == 0,
             f"1000 random label vectors, {mismatches} recount mismatches")


def _model_digest(model) -> str:
    payload = json.dumps(model.to_dict(), sort_keys=True).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def test_criterion_6_cross_validation_protocol(cohort300, full_reports):
    manifest, cfg = cohort300
    matrices = {}
    for pid in PIPELINES:
        kind = pipeline_feature_kind(pid, cfg)
        if kind not in matrices:
            matrices[kind] = build_feature_matrix(manifest, kind,
                                                  cfg.block_grid, cfg.bins)
    first = next(iter(matrices.values()))
    lab = np.asarray(first.labels, dtype=object)
    splits = stratified_split(first.labels, cfg.folds, cfg.val_fraction, cfg.seed)

    strat_ok = True
    seen_test = []
    for sp in splits:
        strat_ok &= int(np.sum(lab[sp.test] == "AD")) == 42
        strat_ok &= int(np.sum(lab[sp.test] == "HC")) == 18
        merged = np.concatenate([sp.train, sp.val, sp.test])
        strat_ok &= bool(np.array_equal(np.sort(merged), np.arange(300)))
        seen_test.append(sp.test)
    strat_ok &= bool(np.array_equal(np.sort(np.concatenate(seen_test)),
                                    np.arange(300)))

    # mutating test rows must leave the fitted, serialized model untouched
    rng = np.random.default_rng(606)
    leak_ok = True
    sp = splits[0]
    for pid in PIPELINES:
        fm = matrices[pipeline_feature_kind(pid, cfg)]
        X = fm.values
        X_bad = X.copy()
        X_bad[sp.test] = rng.normal(size=(sp.test.size, X.shape[1])) * 5.0 + 1.0
        digests = []
        for data in (X, X_bad):
            model = fit_pipeline(pid, data, lab, cfg,
                                 ann_seed=_fold_seed(cfg.seed, pid, 0),
                                 rows=sp.train, val_rows=sp.val)
            digests.append(_model_digest(model))
            del model
        leak_ok &= digests[0] == digests[1]
        del X_bad

    reports, _ = full_reports
    again = cross_validate(manifest, PIPELINES, cfg)
    det_ok = all(strip_timing(a.to_dict()) == strip_timing(b.to_dict())
                 for a, b in zip(reports, again))

    ok = bool(strat_ok and leak_ok and det_ok)
    _verdict(6, ok, (
        f"stratification 42 AD + 18 HC per fold and exact partition: "
        f"{'ok' if strat_ok else 'BROKEN'}; test-row mutation left all "
        f"{len(PIPELINES)} serialized models byte-identical: "
        f"{'ok' if leak_ok else 'BROKEN'}; repeat run reports identical "
        f"modulo timing: {'ok' if det_ok else 'BROKEN'}"))


def test_criterion_7_end_to_end_ordering(full_reports):
    reports, elapsed = full_reports
    acc = {r.pipeline: r.mean_scores.accuracy for r in reports}
    ok = (acc["PCA-SVM"] >= acc["PCA-ANN"]
          and acc["PCA-SVM"] > acc["VAF-SVM"] - 0.02
          and elapsed < 600.0)
    _verdict(7, ok, (
        f"mean 5-fold accuracy PCA-SVM {acc['PCA-SVM']:.4f}, "
        f"PCA-ANN {acc['PCA-ANN']:.4f}, VAF-SVM {acc['VAF-SVM']:.4f}; "
        f"ordering PCA-SVM >= PCA-ANN and > VAF-SVM - 0.02; {elapsed:.1f}s"))


def test_criterion_8_null_signal_sanity(tmp_path_factory):
    accs = {pid: [] for pid in PIPELINES}
    for seed in range(10):
        cfg = RunConfig(separation=0.0, seed=seed)
        out = tmp_path_factory.mktemp(f"null{seed}")
        manifest = generate_dataset(cfg.synth_config(), out)
        for report in cross_validate(manifest, PIPELINES, cfg):
            accs[report.pipeline].append(report.mean_scores.accuracy)
        shutil.rmtree(out, ignore_errors=True)

    parts = []
    ok = True
    for pid in PIPELINES:
        vals = np.array(accs[pid])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(vals.size))
        inside = abs(mean - 0.70) <= 3.0 * se + 1e-12
        ok = ok and inside
        parts.append(f"{pid} mean {mean:.4f} se {se:.4f} "
                     f"{'within' if inside else 'OUTSIDE'} 3 SE of 0.70")
    _verdict(8, ok, "10 null-signal seeds: " + "; ".join(parts))
