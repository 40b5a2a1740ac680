"""Independent oracles the tests compare against.

These deliberately avoid the library's own algorithms: eigenvalues come
from bisection on inertia counts, the SVM dual is solved by exhaustive
active-set enumeration (exact for tiny problems), derivatives come from
central finite differences, and kernels, SVM decisions and network outputs
are evaluated one sample at a time.
"""

from __future__ import annotations

import numpy as np

from voxelcad.ann import Activation
from voxelcad.svm import KernelKind


# --- symmetric eigenvalues via inertia bisection ---------------------------

def _count_below(P: np.ndarray, t: float) -> int:
    """Number of eigenvalues of P strictly below t.

    Sylvester/Jacobi inertia rule: with nonsingular leading principal
    minors d_1..d_m of (P - tI), the sign changes in 1, d_1, ..., d_m
    count the negative eigenvalues. A vanishing minor is dodged by
    nudging t; the nudge stays far below the bisection tolerance.
    """
    m = P.shape[0]
    scale = max(np.max(np.abs(P)), 1.0)
    for attempt in range(60):
        jitter = 0.0 if attempt == 0 else ((-1) ** attempt) * attempt * 1e-13 * scale
        A = P - (t + jitter) * np.eye(m)
        minors = [1.0]
        ok = True
        for k in range(1, m + 1):
            d = float(np.linalg.det(A[:k, :k]))
            if d == 0.0 or not np.isfinite(d):
                ok = False
                break
            minors.append(d)
        if ok:
            return sum(
                1 for a, b in zip(minors[:-1], minors[1:]) if (a > 0) != (b > 0)
            )
    raise RuntimeError("inertia count failed: minors keep vanishing")


def eigenvalues_bisect(P: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of symmetric P, descending, via inertia bisection."""
    P = np.asarray(P, dtype=np.float64)
    m = P.shape[0]
    radius = np.max(np.sum(np.abs(P), axis=1)) + 1.0  # Gershgorin bound
    eigs = []
    for k in range(1, m + 1):  # k-th smallest
        lo, hi = -radius, radius
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if _count_below(P, mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(sorted(eigs, reverse=True))


# --- single-sample kernel, SVM decision and network output -------------------

def kernel_eval(k, x, z) -> float:
    """k(x, z) for one pair of vectors."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"kernel inputs differ in dimension: {x.shape} vs {z.shape}")
    if k.kind is KernelKind.LINEAR:
        return float(x @ z)
    d = x - z
    return float(np.exp(-(d @ d) / (k.scale * k.scale)))


def decision(model, x) -> float:
    """f(x) = sum_i a_i y_i k(x, x_i) + bias, one support vector at a time."""
    total = float(model.bias)
    for sv, a, y in zip(model.support_vectors, model.alphas, model.labels):
        total += a * y * kernel_eval(model.kernel, x, sv)
    return total


def forward(model, x) -> float:
    """w2 . act(W1 x + b1) + b2 for one input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_inputs,):
        raise ValueError(f"x has shape {x.shape}, the network takes {model.n_inputs} inputs")
    z = model.w1 @ x + model.b1
    a = np.tanh(z) if model.activation is Activation.TANSIG else np.maximum(z, 0.0)
    return float(model.w2 @ a + model.b2)


# --- SVM dual via exhaustive active-set enumeration -------------------------

def dual_objective_ref(K: np.ndarray, y: np.ndarray, a: np.ndarray) -> float:
    v = a * y
    return float(a.sum() - 0.5 * (v @ K @ v))


def solve_dual_enum(K: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Exact dual optimum for tiny problems.

    Every optimum pins each variable to 0, to C, or leaves it free; with
    n <= 8 all 3^n patterns are enumerated. For each pattern the free
    variables solve the equality-constrained stationarity system, and the
    best feasible candidate is returned. A concave quadratic is constant
    across the stationary set of a face, so a least-squares solve of a
    singular but consistent system still yields the face's optimal value.
    """
    import itertools

    n = y.size
    if n > 10:
        raise ValueError("enumeration oracle is for tiny problems only")
    Q = (y[:, None] * y[None, :]) * K
    best = None
    best_obj = -np.inf
    # 0 -> at lower bound, 1 -> at C, 2 -> free
    for state in itertools.product((0, 1, 2), repeat=n):
        a = np.array([C if s == 1 else 0.0 for s in state])
        f = np.flatnonzero([s == 2 for s in state])
        if f.size:
            rhs = np.empty(f.size + 1)
            rhs[:-1] = 1.0 - Q[f] @ a
            rhs[-1] = -(y @ a)
            system = np.zeros((f.size + 1, f.size + 1))
            system[:-1, :-1] = Q[np.ix_(f, f)]
            system[:-1, -1] = y[f]
            system[-1, :-1] = y[f]
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
                if not np.allclose(system @ sol, rhs, atol=1e-8, rtol=0):
                    continue  # face has no stationary point
            a[f] = sol[:-1]
        if np.any(a < -1e-9) or np.any(a > C + 1e-9):
            continue
        if abs(a @ y) > 1e-8 * max(1.0, C):
            continue
        obj = dual_objective_ref(K, y, np.clip(a, 0.0, C))
        if obj > best_obj:
            best_obj = obj
            best = np.clip(a, 0.0, C)
    if best is None:
        raise RuntimeError("no feasible candidate found")
    return best


def oracle_bias(K: np.ndarray, y: np.ndarray, a: np.ndarray, C: float) -> float:
    """Offset from KKT conditions at the oracle optimum: median over
    margin vectors, else midpoint of the valid interval."""
    G = K @ (a * y)
    free = (a > 1e-7 * C) & (a < C * (1 - 1e-7))
    if free.any():
        return float(np.median(y[free] - G[free]))
    F = G - y
    up = ((y > 0) & (a < C - 1e-9 * C)) | ((y < 0) & (a > 1e-9 * C))
    low = ((y > 0) & (a > 1e-9 * C)) | ((y < 0) & (a < C - 1e-9 * C))
    return float(-(F[up].min() + F[low].max()) / 2.0)


# --- finite differences ------------------------------------------------------

def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def fd_jacobian(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of vector-valued f."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * eps))
    return np.stack(cols, axis=1)


# --- naive metric recount ----------------------------------------------------

def naive_metrics(y_true, y_pred):
    """Direct recount of accuracy/sensitivity/specificity; None when undefined."""
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == "AD" and p == "AD")
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == "AD" and p == "HC")
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == "HC" and p == "AD")
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == "HC" and p == "HC")
    total = tp + fn + fp + tn
    acc = (tp + tn) / total
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    return (tp, fn, fp, tn), (acc, sens, spec)
