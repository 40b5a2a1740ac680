"""Principal component analysis: centering, covariance, eigendecomposition,
contribution rates, component selection and projection.

Conventions:
  * covariance uses the unbiased divisor n-1, so the variance of the i-th
    projected training column equals eigenvalue i;
  * the symmetric eigensolver is LAPACK's, through numpy.linalg.eigh;
    eigenvalues are re-sorted non-increasing with a stable sort;
  * one sign rule on both routes: each component's sign makes its
    largest-magnitude training score positive (first such row on ties), so
    fitted models, and the bundles composed from them, are deterministic;
  * contribution rates divide each eigenvalue by the sum over the whole
    computed spectrum.

fit_pca takes the Gram route in n x n space (kernel PCA with a linear
kernel; Schoelkopf, Smola & Mueller 1998) whenever the caller passes the
raw Gram G = X X^T of the fitted rows (raw_gram), as every pipeline fit
does; given only X, it takes that route when m > n (or as method says)
and the direct m x m covariance route otherwise. G subtracts no mean, so entry
(i, j) depends on rows i and j only: one Gram of a whole cohort serves
every cross-validation fold, and no fold's fit depends on its test rows.
Double centring turns G into Xc Xc^T. By the snapshot identity (Sirovich
1987) the training scores are U sqrt((n-1) lambda), so the sign rule is
eigen_symmetric's own fix on U. Any other row scores
(g - mean(g)) coef + origin from its raw Gram row g over the training
rows, with coef = U / sqrt((n-1) lambda) and origin the scores of the zero
row. Only the r <= n-1 components of the nonzero spectrum are kept. When
fit_pca builds the Gram itself, it maps the m-wide means and components
back at once, one column block at a time (map_back:
X_b^T coef - mean_b 1^T coef, no centred copy). Given the caller's Gram,
it forms neither: the model keeps coef, origin and the training scores,
which is all that scoring rows from their Gram rows needs, and holds no
reference to X.

The zero-variance check compares the total centred variance with a
round-off floor; on the Gram route the floor scales with the raw diagonal.
"""

from __future__ import annotations

import numpy as np

_EIG_NEG_TOL = 1e-9     # tolerated negative round-off, relative to max |eigenvalue|
_THRESHOLD_SLACK = 1e-12  # select_components cumulative-sum slack
_BLOCK_COLS = 1024      # width of a column_blocks block


class PcaModel:
    """Fitted PCA basis.

    components holds the first r eigenvectors as columns (m x r, F order)
    and means the column means of the fitted rows; r equals m on the direct
    route and the retained nonzero-spectrum size on the Gram route.
    eigenvalues/contribution have length r, non-increasing. scores, when
    set by fit_pca, holds project(model, X_train) for the rows the model was
    fit on (n x retained).

    A Gram-route fit also keeps coef (n x r), with which a row's centred
    raw Gram row over the fitted rows gives its scores, and origin,
    project(model, 0), the scores of the zero row. A fit from the caller's
    Gram has no means or components (None), and gives n_features instead.
    """

    def __init__(self, eigenvalues, retained: int, contribution, means=None,
                 components=None, scores=None, coef=None, origin=None,
                 n_features: int | None = None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.contribution = np.asarray(contribution, dtype=np.float64)
        self.retained = retained
        self.scores = scores
        self.coef = coef
        self.means = self.components = None
        if components is None:
            if coef is None or origin is None or n_features is None:
                raise ValueError("a model without components needs coef, origin and n_features")
            self.n_features, r = n_features, coef.shape[1]
        else:
            self.means = np.asarray(means, dtype=np.float64)
            self.components = np.asarray(components, dtype=np.float64)
            self.n_features, r = self.components.shape
            if self.means.shape != (self.n_features,):
                raise ValueError("means length must match component rows")
        self.origin = (-(self.means @ self.components) if origin is None
                       else np.asarray(origin, dtype=np.float64))
        if self.eigenvalues.shape != (r,) or self.contribution.shape != (r,):
            raise ValueError("eigenvalues/contribution length must match component columns")
        if not 1 <= self.retained <= r:
            raise ValueError(f"retained must lie in [1, {r}], got {self.retained}")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be non-increasing")


def feature_rows(X) -> np.ndarray:
    """X as an array of feature rows: float32 rows (voxels as features, in
    the volumes' own type) pass through uncopied, for column_blocks to
    upcast one block at a time; any other input becomes float64."""
    X = np.asarray(X)
    return X if X.dtype == np.float32 else X.astype(np.float64, copy=False)


def column_blocks(X: np.ndarray, rows: np.ndarray | None = None, start: int = 0):
    """Yield (a, b, block): columns [a, b) of X, or of the rows that the
    integer indices rows select, as a float64 (n, b - a) array. Blocks are
    _BLOCK_COLS wide and the last takes the remainder, so no block is
    narrower: a narrow product could fall to another BLAS kernel, which
    sums in another order. The bounds depend on the width of X alone, and
    start, one of them, skips the blocks before it.

    A float64 X yields views of X (rows None, not to be written) or a
    gathered copy of each block. Any other X (float32 rows) is upcast into
    one buffer, allocated once per call, and every block is a C-contiguous
    view of it, so a yielded block is overwritten by the next one: use it
    within its iteration. float32 -> float64 is exact, so the blocks hold
    the same values either way."""
    m = X.shape[1]
    starts = list(range(0, max(m - _BLOCK_COLS, 0) + 1, _BLOCK_COLS))
    bounds = [(a, b) for a, b in zip(starts, starts[1:] + [m]) if a >= start]
    if X.dtype == np.float64:
        for a, b in bounds:
            yield a, b, (X[:, a:b] if rows is None else X[rows, a:b])
        return
    n = X.shape[0] if rows is None else len(rows)
    buf = np.empty(n * max(b - a for a, b in bounds))
    for a, b in bounds:
        # a contiguous view: a strided one slows every product on it
        block = buf[:n * (b - a)].reshape(n, b - a)
        block[...] = X[:, a:b] if rows is None else X[rows, a:b]
        yield a, b, block


def raw_gram(X: np.ndarray) -> np.ndarray:
    """Raw Gram X X^T of the rows of X. No mean is subtracted, so entry
    (i, j) depends on rows i and j only. Built one column block at a time:
    no copy of the rows is made beyond one block (float32 rows are upcast
    one reused block at a time). Each block's Xb Xb^T is numpy's syrk,
    exactly symmetric, so their sum is too."""
    X = feature_rows(X)
    G = np.zeros((X.shape[0], X.shape[0]))
    for _, _, Xb in column_blocks(X):
        G += Xb @ Xb.T
    return G


def map_back(X: np.ndarray, rows: np.ndarray | None,
             coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Xc^T coef as an m x k F-order array, the column means of the rows),
    with Xc the rows of X that rows selects (all rows if None) centred by
    those means. Each column block's k x b product
    coef^T X_b - (1^T coef) mean_b is written into a k x m C-order buffer
    whose transpose is returned, so no centred copy of the rows is made."""
    m = X.shape[1]
    out = np.empty((coef.shape[1], m))
    means = np.empty(m)
    coef_t, total = coef.T, coef.sum(axis=0)
    for a, b, Xb in column_blocks(X, rows):
        means[a:b] = Xb.mean(axis=0)
        part = out[:, a:b]
        np.matmul(coef_t, Xb, out=part)
        part -= np.outer(total, means[a:b])
    return out.T, means


def center(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-center X; returns (Xc, per-feature means). Xc = X - means is
    the only new n x m array, and X itself is never written."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    means = X.mean(axis=0)
    return X - means, means


def covariance(Xc: np.ndarray) -> np.ndarray:
    """Sample covariance Xc^T Xc / (n-1) of centered data, mirrored so the
    result is symmetric exactly."""
    Xc = np.asarray(Xc, dtype=np.float64)
    n = Xc.shape[0]
    if n < 2:
        raise ValueError("covariance needs n >= 2 rows")
    P = Xc.T @ Xc / (n - 1)
    upper = np.triu(P)
    return upper + np.triu(P, 1).T


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, the columns whose largest-magnitude entry (first on
    ties) is negative; returns the +/-1 factor applied to each column.

    The peak is found from each column's maximum and minimum, so no |.|
    copy is made; the scans are contiguous when the columns are (F order).
    """
    cols = np.arange(vectors.shape[1])
    hi = np.argmax(vectors, axis=0)
    lo = np.argmin(vectors, axis=0)
    top, bottom = vectors[hi, cols], -vectors[lo, cols]
    flips = (bottom > top) | ((bottom == top) & (lo < hi))
    signs = np.where(flips, -1.0, 1.0)
    vectors *= signs
    return signs


def eigen_symmetric(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix: (eigenvalues non-increasing,
    eigenvectors as columns, sign-fixed)."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    scale = np.max(np.abs(P)) if P.size else 0.0
    if scale > 0.0 and np.max(np.abs(P - P.T)) > 1e-10 * scale:
        raise ValueError("P is not symmetric within tolerance")
    eigenvalues, vectors = np.linalg.eigh(P)
    order = np.argsort(-eigenvalues, kind="stable")
    vectors = vectors[:, order]
    _fix_signs(vectors)
    return eigenvalues[order], vectors


def contribution_rates(eigenvalues) -> np.ndarray:
    """Each eigenvalue's share of the total spectral mass."""
    ev = np.asarray(eigenvalues, dtype=np.float64)
    if ev.size == 0:
        raise ValueError("empty spectrum")
    floor = -_EIG_NEG_TOL * np.max(np.abs(ev))
    if np.any(ev < floor):
        raise ValueError("eigenvalues are negative beyond round-off tolerance")
    ev = np.maximum(ev, 0.0)
    total = ev.sum()
    if total <= 0.0:
        raise ValueError("all-zero spectrum: data has no variance")
    return ev / total


def select_components(rates, cum_threshold: float) -> int:
    """Smallest component count whose cumulative contribution reaches the
    threshold (compared with a 1e-12 slack against round-off)."""
    if not 0.0 < cum_threshold <= 1.0:
        raise ValueError("cum_threshold must lie in (0, 1]")
    cum = np.cumsum(np.asarray(rates, dtype=np.float64))
    hit = np.nonzero(cum >= cum_threshold - _THRESHOLD_SLACK)[0]
    if hit.size == 0:
        return int(len(cum))
    return int(hit[0]) + 1


def fit_pca(X, cum_threshold: float = 0.95, method: str = "auto",
            gram: np.ndarray | None = None) -> PcaModel:
    """Fit a PCA model on the rows of X (ndarray or FeatureMatrix).

    gram, if given, is raw_gram of the fitted rows, and the fit takes the
    Gram route from it alone: it reads X for its width only, n is the
    Gram's order, and the model has no means or components (None).
    Without gram, method picks the route: "direct" eigendecomposes the
    m x m covariance, "gram" the n x n centred Gram matrix (exact for the
    nonzero spectrum), which it builds with raw_gram and from which it
    maps both back before it returns, and "auto" picks gram when m > n.
    method "direct" with a gram is refused.
    """
    X = feature_rows(getattr(X, "values", X))
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if method not in ("auto", "direct", "gram"):
        raise ValueError(f"unknown method {method!r}")
    if gram is not None and method == "direct":
        raise ValueError("method 'direct' reads the rows, not a Gram")
    n, m = (X.shape[0] if gram is None else gram.shape[0]), X.shape[1]
    if n < 2:
        raise ValueError("fit_pca needs n >= 2 samples")
    if gram is not None:
        return _fit_gram(gram, m, cum_threshold)
    if m > n if method == "auto" else method == "gram":
        return _fit_gram(raw_gram(X), m, cum_threshold, basis=X)
    Xc, means = center(X)
    P = covariance(Xc)
    # identical rows leave round-off residue, not exact zeros; treat variance
    # at that level as a zero spectrum instead of normalizing noise. bound
    # bounds max|X| without a pass over X: every |Xc_ij| is at most the
    # norm of its column, sqrt((n-1) P_jj).
    bound = np.max(np.abs(means)) + np.sqrt((n - 1) * np.max(np.diag(P))) if m else 0.0
    if np.trace(P) <= m * (16.0 * np.finfo(np.float64).eps * max(bound, 1e-300)) ** 2:
        raise ValueError("all-zero spectrum: data has no variance")
    eigenvalues, components = eigen_symmetric(P)
    # F order, so a PCA bundle's W has one layout on both routes
    components = np.asfortranarray(components)
    scores = Xc @ components
    components *= _fix_signs(scores)
    rates = contribution_rates(eigenvalues)
    retained = select_components(rates, cum_threshold)
    return PcaModel(eigenvalues=np.maximum(eigenvalues, 0.0), retained=retained,
                    contribution=rates, means=means, components=components,
                    scores=scores[:, :retained])


def _fit_gram(G, m, cum_threshold, basis=None) -> PcaModel:
    """The Gram route of fit_pca, from the raw Gram G of the fitted rows of
    m features; basis, if given, is the rows X themselves, from which the
    means and components are mapped back."""
    n = G.shape[0]
    r = G.mean(axis=0)
    Gc = G - r
    Gc -= r[:, None]
    Gc += r.mean()
    # the centring cancels the raw entries down to the centred ones, and
    # leaves round-off of the raw diagonal's size behind: total variance at
    # that level is a zero spectrum
    if np.trace(Gc) <= 16.0 * max(n, m) * np.finfo(np.float64).eps * np.trace(G):
        raise ValueError("all-zero spectrum: data has no variance")
    P = Gc / (n - 1)
    eigenvalues, U = eigen_symmetric(np.triu(P) + np.triu(P, 1).T)
    # rank cutoff: eigenpairs at round-off level cannot be mapped back stably
    keep = eigenvalues > max(n, m) * np.finfo(np.float64).eps * max(eigenvalues[0], 0.0)
    if not np.any(keep):
        raise ValueError("all-zero spectrum: data has no variance")
    eigenvalues = eigenvalues[keep]
    U = U[:, keep]
    norms = np.sqrt((n - 1) * eigenvalues)
    coef = U / norms
    rates = contribution_rates(eigenvalues)
    retained = select_components(rates, cum_threshold)
    components, means = (None, None) if basis is None else map_back(basis, None, coef)
    return PcaModel(eigenvalues=eigenvalues, retained=retained, contribution=rates,
                    means=means, components=components,
                    scores=U[:, :retained] * norms[:retained], coef=coef,
                    origin=(r.mean() - r) @ coef, n_features=m)


def project(model: PcaModel, X: np.ndarray, n_components: int | None = None) -> np.ndarray:
    """Center X with the model means and project onto the leading
    n_components eigenvectors (default: the model's retained count)."""
    if model.components is None:
        raise ValueError("a model fit from the caller's Gram has no components to project on")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, model expects {model.n_features}"
        )
    k = model.retained if n_components is None else int(n_components)
    if not 1 <= k <= model.components.shape[1]:
        raise ValueError(f"n_components must lie in [1, {model.components.shape[1]}]")
    Y = (X - model.means) @ model.components[:, :k]
    return Y[0] if single else Y
