import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxelcad
from oracles import decision, kernel_eval
from voxelcad.labels import from_sign
from voxelcad.svm import (KernelKind, KernelSpec, SvmError, SvmModel,
                          _bias_from_state, decision_batch, dual_objective,
                          gram_matrix, solve_dual, train_svm)

LIN = KernelSpec(KernelKind.LINEAR, 1.0)
GAUSS = KernelSpec(KernelKind.GAUSSIAN, 2.8)


def _two_point_model():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([-1.0, 1.0])
    return train_svm(X, y, C=10.0, kernel=LIN)


def test_kernel_eval_examples():
    assert kernel_eval(LIN, [1.0, 2.0], [3.0, 4.0]) == 11.0
    assert kernel_eval(GAUSS, [0.3, -0.7], [0.3, -0.7]) == 1.0
    # squared distance 2.8^2 puts the exponent at exactly -1
    assert kernel_eval(GAUSS, [2.8], [0.0]) == np.exp(-1.0)
    with pytest.raises(ValueError):
        kernel_eval(LIN, [1.0], [1.0, 2.0])


def test_kernel_scale_validation():
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.GAUSSIAN, -2.8)
    # the kernel divides by s^2, which must be a positive finite float
    for scale in (1e-170, 1e160, float("inf")):
        with pytest.raises(ValueError, match="square a positive finite float"):
            KernelSpec(KernelKind.GAUSSIAN, scale)
    assert KernelSpec(KernelKind.GAUSSIAN, 1e-160).scale == 1e-160
    assert KernelSpec(KernelKind.LINEAR, 1e-170).scale == 1e-170


def test_gram_matrix_agrees_with_kernel_eval(rng):
    A = rng.normal(size=(5, 3))
    B = rng.normal(size=(4, 3))
    for spec in (LIN, GAUSS):
        K = gram_matrix(spec, A, B)
        want = [[kernel_eval(spec, a, b) for b in B] for a in A]
        assert np.allclose(K, want, atol=1e-12)
    with pytest.raises(ValueError):
        gram_matrix(LIN, A, rng.normal(size=(4, 2)))


def test_gram_matrices_are_positive_semidefinite(rng):
    for spec in (LIN, GAUSS, KernelSpec(KernelKind.GAUSSIAN, 0.4)):
        for _ in range(10):
            A = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 4)))
            K = gram_matrix(spec, A)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_two_point_analytic_solution():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([-1.0, 1.0])
    alpha, bias = solve_dual(X, y, C=10.0, kernel=LIN, tol=1e-3)
    assert np.max(np.abs(alpha - 0.5)) <= 1e-6
    assert abs(bias - (-1.0)) <= 1e-6
    model = _two_point_model()
    # f(x) = x[0] - 1
    f = decision_batch(model, [[2.0, 0.0], [0.0, 0.0], [1.0, 5.0]])
    assert np.max(np.abs(f - [1.0, -1.0, 0.0])) <= 1e-6


def test_separable_with_huge_C_leaves_no_bound_alphas(rng):
    X = np.vstack([rng.normal(size=(4, 2)) + [5.0, 0.0],
                   rng.normal(size=(4, 2)) - [5.0, 0.0]])
    y = np.array([1.0] * 4 + [-1.0] * 4)
    C = 1e6
    alpha, _ = solve_dual(X, y, C=C, kernel=LIN, tol=1e-3)
    assert alpha.max() < C * (1 - 1e-6)


def test_input_validation():
    X = np.zeros((2, 1))
    with pytest.raises(ValueError, match="single-class"):
        solve_dual(X, np.array([1.0, 1.0]), 1.0, LIN)
    with pytest.raises(ValueError, match="single-class"):
        solve_dual(X, np.array([-1.0, -1.0]), 1.0, LIN)
    with pytest.raises(ValueError):
        solve_dual(X, np.array([1.0, 0.5]), 1.0, LIN)
    with pytest.raises(ValueError):
        solve_dual(X[:1], np.array([1.0]), 1.0, LIN)
    with pytest.raises(ValueError):
        solve_dual(X, np.array([1.0, -1.0]), 0.0, LIN)


def test_iteration_budget_reports_violation(rng):
    X = rng.normal(size=(30, 2))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    with pytest.raises(SvmError, match="violation"):
        solve_dual(X, y, C=1.0, kernel=GAUSS, tol=1e-12, max_iter=2)


def test_kkt_conditions_hold_at_solution(rng):
    tol = 1e-3
    for spec in (LIN, KernelSpec(KernelKind.GAUSSIAN, 1.5)):
        X = rng.normal(size=(20, 2))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=20) > 0, 1.0, -1.0)
        if abs(y.sum()) == 20:
            y[0] = -y[0]
        C = 1.0
        alpha, bias = solve_dual(X, y, C=C, kernel=spec, tol=tol)
        assert alpha.min() >= 0.0 and alpha.max() <= C
        assert abs(alpha @ y) <= 1e-9 * 20 * C
        f = gram_matrix(spec, X) @ (alpha * y) + bias
        margin = y * f
        snap = 1e-10 * C
        assert np.all(margin[alpha <= snap] >= 1 - tol - 1e-9)
        free = (alpha > snap) & (alpha < C - snap)
        assert np.all(np.abs(margin[free] - 1) <= tol + 1e-9)
        assert np.all(margin[alpha >= C - snap] <= 1 + tol + 1e-9)


def test_more_bound_vectors_as_C_shrinks(rng):
    # overlapping classes: the box constraint binds more as it tightens
    X = rng.normal(size=(24, 1))
    y = np.where(X[:, 0] + rng.normal(size=24) > 0, 1.0, -1.0)
    if abs(y.sum()) == 24:
        y[0] = -y[0]

    def bound_count(C):
        alpha, _ = solve_dual(X, y, C=C, kernel=LIN, tol=1e-4)
        return int(np.sum(alpha >= C * (1 - 1e-7)))

    counts = [bound_count(C) for C in (10.0, 1.0, 0.1, 0.01)]
    assert counts == sorted(counts)
    assert counts[-1] > 0


def test_linear_scale_invariance(rng):
    X = rng.normal(size=(12, 2))
    y = np.where(X @ [1.0, -0.5] + 0.4 * rng.normal(size=12) > 0, 1.0, -1.0)
    if abs(y.sum()) == 12:
        y[0] = -y[0]
    probes = rng.normal(size=(15, 2))
    a = 3.0
    base = train_svm(X, y, C=1.0, kernel=LIN, tol=1e-6)
    scaled = train_svm(a * X, y, C=1.0 / a**2, kernel=LIN, tol=1e-6)
    got = [from_sign(s) for s in decision_batch(scaled, a * probes)]
    want = [from_sign(s) for s in decision_batch(base, probes)]
    assert got == want


def test_train_filters_support_vectors(rng):
    X = np.vstack([rng.normal(size=(10, 2)) + [3.0, 0.0],
                   rng.normal(size=(10, 2)) - [3.0, 0.0]])
    y = np.array([1.0] * 10 + [-1.0] * 10)
    model = train_svm(X, y, C=1.0, kernel=LIN)
    assert model.support_vectors.shape[0] < 20
    assert np.all(model.alphas > 1e-8)
    # batch decisions match the scalar path
    got = decision_batch(model, X)
    want = [decision(model, x) for x in X]
    assert np.allclose(got, want, atol=1e-12)


def test_bias_is_the_median_of_the_free_vectors_bit_for_bit(rng):
    # all alphas free, so the bias is the median of -F, for odd and even
    # counts, with and without ties
    for n in (1, 2, 3, 4, 7, 10, 33, 64):
        for F in (rng.normal(size=n) * 10.0 ** rng.integers(-8, 8),
                  rng.integers(-2, 3, size=n).astype(float)):
            alpha = np.full(n, 0.5)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            got = _bias_from_state(F, alpha, y, 1.0, 1e-12)
            assert got == float(np.median(-F)), (n, F)


def test_svm_fit_does_not_import_numpy_ma():
    # np.median imports numpy.ma on first use; the bias must not pay that
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from voxelcad.svm import KernelKind, KernelSpec, train_svm\n"
        "rng = np.random.default_rng(0)\n"
        "X = np.vstack([rng.normal(size=(10, 2)) + 1, rng.normal(size=(10, 2)) - 1])\n"
        "y = np.array([1.0] * 10 + [-1.0] * 10)\n"
        "m = train_svm(X, y, C=1.0, kernel=KernelSpec(KernelKind.LINEAR, 1.0))\n"
        "assert np.any(m.alphas < m.C * (1 - 1e-9)), 'no free support vector'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(voxelcad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sign_rule_ties_go_to_hc():
    empty = dict(support_vectors=np.zeros((0, 2)), alphas=np.zeros(0),
                 labels=np.zeros(0), kernel=LIN, C=1.0)

    def label(bias):
        return from_sign(decision_batch(SvmModel(bias=bias, **empty), [[9.0, 9.0]])[0])

    assert label(0.3) == "AD"
    assert label(-0.3) == "HC"
    assert label(0.0) == "HC"


def test_empty_support_set_decision_is_bias():
    model = SvmModel(support_vectors=np.zeros((0, 3)), alphas=np.zeros(0),
                     labels=np.zeros(0), bias=0.25, kernel=GAUSS, C=1.0)
    assert np.array_equal(decision_batch(model, np.zeros((4, 3))),
                          np.full(4, 0.25))


def test_decision_checks_dimension():
    model = _two_point_model()
    with pytest.raises(ValueError):
        decision_batch(model, [[1.0, 2.0, 3.0]])


def test_model_invariants():
    with pytest.raises(ValueError):  # alpha above C
        SvmModel(support_vectors=np.zeros((2, 1)), alphas=np.array([2.0, 2.0]),
                 labels=np.array([1.0, -1.0]), bias=0.0, kernel=LIN, C=1.0)
    with pytest.raises(ValueError):  # unbalanced sum alpha*y
        SvmModel(support_vectors=np.zeros((2, 1)), alphas=np.array([0.9, 0.1]),
                 labels=np.array([1.0, -1.0]), bias=0.0, kernel=LIN, C=1.0)
    with pytest.raises(ValueError):  # length mismatch
        SvmModel(support_vectors=np.zeros((2, 1)), alphas=np.array([0.5]),
                 labels=np.array([1.0]), bias=0.0, kernel=LIN, C=1.0)


def test_dual_objective_matches_definition(rng):
    X = rng.normal(size=(6, 2))
    y = np.array([1.0, -1.0] * 3)
    alpha, _ = solve_dual(X, y, C=1.0, kernel=GAUSS, tol=1e-4)
    K = gram_matrix(GAUSS, X)
    want = alpha.sum() - 0.5 * sum(
        alpha[i] * alpha[j] * y[i] * y[j] * K[i, j]
        for i in range(6) for j in range(6))
    assert abs(dual_objective(K, y, alpha) - want) < 1e-12
