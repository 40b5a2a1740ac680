"""Independent oracles the tests compare against.

These deliberately avoid the library's own algorithms: eigenvalues come
from bisection on inertia counts, Gram-route components from one product
over all columns, the SVM dual is solved by exhaustive active-set
enumeration (exact for tiny problems), derivatives come from
central finite differences, kernels, SVM decisions and network outputs
are evaluated one sample at a time, and grayscale statistics one box at a
time with np.histogram (and, as a frozen reference, one z-band at a time).
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


# --- PCA map-back as one product --------------------------------------------

def map_back(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Gram-route components Xc^T coef (m x r) of the rows of X, from a
    single product over every column, X^T coef - mean (1^T coef), with no
    centred copy of X."""
    return (coef.T @ X - np.outer(coef.sum(axis=0), X.mean(axis=0))).T


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


# --- grayscale statistics, one box at a time ---------------------------------

def grayscale_features(intensities, bins: int) -> np.ndarray:
    """Six grayscale statistics of a flat intensity sample, with np.histogram."""
    x = np.asarray(intensities, dtype=np.float64).ravel()
    mean = x.mean()
    d = x - mean
    m2 = np.mean(d * d)
    if m2 > 0.0:
        skewness = np.mean(d**3) / m2**1.5
        kurtosis = np.mean(d**4) / (m2 * m2)
    else:
        skewness = 0.0
        kurtosis = 0.0
    lo, hi = x.min(), x.max()
    if lo == hi:
        p = np.array([1.0])
    else:
        counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
        p = counts / x.size
    energy = float(np.sum(p * p))
    nz = p[p > 0.0]
    entropy = float(-np.sum(nz * np.log2(nz)))
    return np.array([mean, m2, skewness, kurtosis, energy, entropy])


def box_counts(intensities, bins: int) -> np.ndarray:
    """np.histogram counts over [min, max]; one bin holds a constant box."""
    x = np.asarray(intensities, dtype=np.float64).ravel()
    if x.min() == x.max():
        counts = np.zeros(bins, dtype=np.int64)
        counts[0] = x.size
        return counts
    return np.histogram(x, bins=bins, range=(x.min(), x.max()))[0]


def box_slices(dims, block_grid):
    """(x, y, z) slices of each box, x-fastest; the last box takes the remainder."""
    def edges(n, blocks):
        base = n // blocks
        return [slice(i * base, (i + 1) * base if i < blocks - 1 else n)
                for i in range(blocks)]
    xs, ys, zs = (edges(n, b) for n, b in zip(dims, block_grid))
    return [(sx, sy, sz) for sz in zs for sy in ys for sx in xs]


def as_array(v) -> np.ndarray:
    """A volume's voxels as an (nx, ny, nz) array, arr[x, y, z] indexing."""
    nx, ny, nz = v.dims
    return v.voxels.reshape(nz, ny, nx).transpose(2, 1, 0)


def block_features(v, block_grid, bins: int) -> np.ndarray:
    """grayscale_features of each box in turn, concatenated x-fastest."""
    arr = as_array(v)
    return np.concatenate([grayscale_features(arr[s], bins)
                           for s in box_slices(v.dims, block_grid)])


# --- grayscale statistics, one z-band of boxes at a time ----------------------
#
# The banded extraction as it stood before the per-box work moved out of the
# band loop, frozen: np.linspace edges, the clipped first bin index, and all
# six statistics finished per band. The library's features must equal it bit
# for bit.

def banded_box_counts(x, n, lo, hi, bins: int) -> np.ndarray:
    """Each box's np.histogram counts over its own [lo, hi], one row per box."""
    hi = np.where(hi > lo, hi, lo + np.abs(lo) + 1.0)
    edges = np.linspace(lo, hi, bins + 1, axis=1)
    f = x - np.repeat(lo, n)
    f /= np.repeat(hi - lo, n)
    f *= bins
    k = f.astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k += np.repeat(np.arange(0, edges.size, bins + 1), n)
    edges[:, -1] = np.inf
    edges = edges.ravel()
    k -= x < edges[k]
    k += x >= edges[k + 1]
    return np.bincount(k, minlength=edges.size).reshape(lo.size, bins + 1)[:, :-1]


def _banded_stats(x, n, bins: int) -> np.ndarray:
    starts = np.cumsum(n) - n
    lo, hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
    p = banded_box_counts(x, n, lo, hi, bins) / n[:, None]
    energy = np.sum(p * p, axis=1)
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    entropy = -np.sum(p * logp, axis=1)
    mean = np.add.reduceat(x, starts) / n
    d = x - np.repeat(mean, n)
    d2 = d * d
    m2 = np.add.reduceat(d2, starts) / n
    m3 = np.add.reduceat(d2 * d, starts) / n
    m4 = np.add.reduceat(d2 * d2, starts) / n
    spread = m2 > 0.0
    safe = np.where(spread, m2, 1.0)
    skewness = np.where(spread, m3 / safe**1.5, 0.0)
    kurtosis = np.where(spread, m4 / (safe * safe), 0.0)
    return np.column_stack([mean, m2, skewness, kurtosis, energy, entropy])


def banded_block_features(v, block_grid, bins: int) -> np.ndarray:
    """Six statistics per box, computed one z-band of boxes at a time."""
    arr = as_array(v)
    slices = box_slices(v.dims, block_grid)
    bx, by, _ = block_grid
    rows = []
    for a in range(0, len(slices), bx * by):
        # the band's voxels grouped by box, each box's in x-fastest order
        boxes = [arr[s].ravel(order="F") for s in slices[a:a + bx * by]]
        x = np.concatenate(boxes).astype(np.float64)
        rows.append(_banded_stats(x, np.array([b.size for b in boxes]), bins))
    return np.concatenate(rows).ravel()


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
