"""Principal component analysis: centering, covariance, eigendecomposition,
contribution rates, component selection and projection.

Conventions:
  * covariance uses the unbiased divisor n-1, so the variance of the i-th
    projected training column equals eigenvalue i;
  * the symmetric eigensolver is LAPACK's, through numpy.linalg.eigh;
    eigenvalues are re-sorted non-increasing with a stable sort;
  * eigenvector signs are fixed by making each vector's largest-magnitude
    entry positive (first such entry on ties), so fitted models, and the
    bundles composed from them, are deterministic;
  * contribution rates divide each eigenvalue by the sum over the whole
    computed spectrum.

fit_pca takes the direct m x m covariance route when m <= n and otherwise
the Gram route: eigendecompose G = Xc Xc^T/(n-1) (n x n) and map eigenvectors
back through Xc^T u / ||Xc^T u||. The Gram route yields the nonzero
spectrum exactly; the omitted trailing eigenvalues are zero, so the model
stores components as an m x r matrix with r <= min(n, m) columns rather
than a literal m x m basis (infeasible for voxel-level feature spaces).
On that route the map-back runs one column block of Xc at a time and
writes each block's r x b product over the first r rows of those columns,
so the components live in the centred copy's own buffer: they are the F
order view Xc[:r].T, one contiguous column each, and the fit allocates no
second array as large as its training rows.

The zero-variance check compares the total variance sum(Xc*Xc)/(n-1)
with a round-off floor; that sum is the trace of G (or of the covariance
on the direct route), so it is read off the matrix already built. The
model also carries the training rows' scores. On the Gram route they come
from the Gram eigenvectors without another pass over X: by the snapshot
identity (Sirovich 1987), Xc v_i = sqrt((n-1) lambda_i) u_i, with v_i the
i-th component and u_i the matching unit eigenvector of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EIG_NEG_TOL = 1e-9     # tolerated negative round-off, relative to max |eigenvalue|
_THRESHOLD_SLACK = 1e-12  # select_components cumulative-sum slack
_MAP_BACK_COLS = 1024   # column block of the Gram-route map-back


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA basis.

    components holds the first r eigenvectors as columns (m x r, F order);
    r equals m on the direct route and the retained nonzero-spectrum size
    on the Gram route, where components is a view into the rows of the
    centred training copy. eigenvalues/contribution have length r,
    non-increasing.
    scores, when set by fit_pca, holds project(model, X_train) for the
    rows the model was fit on (n x retained).
    """

    means: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray
    retained: int
    contribution: np.ndarray
    scores: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=np.float64))
        object.__setattr__(self, "contribution", np.asarray(self.contribution, dtype=np.float64))
        m, r = self.components.shape
        if self.means.shape != (m,):
            raise ValueError("means length must match component rows")
        if self.eigenvalues.shape != (r,) or self.contribution.shape != (r,):
            raise ValueError("eigenvalues/contribution length must match component columns")
        if not 1 <= self.retained <= r:
            raise ValueError(f"retained must lie in [1, {r}], got {self.retained}")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be non-increasing")

    @property
    def n_features(self) -> int:
        return self.components.shape[0]


def center(X: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column-center X, or the rows of X that the integer indices rows
    select; returns (Xc, per-feature means).

    Xc is the only new n x m array: with rows, the gathered copy is
    centered in place; without them, Xc is X - means. X itself is never
    written.
    """
    X = np.asarray(X, dtype=np.float64)
    if rows is not None:
        X = np.take(X, rows, axis=0)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    means = X.mean(axis=0)
    if rows is None:
        return X - means, means
    X -= means
    return X, means


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
    floor = -_EIG_NEG_TOL * np.max(np.abs(ev)) if ev.size else 0.0
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
            rows: np.ndarray | None = None) -> PcaModel:
    """Fit a PCA model on the rows of X (ndarray or FeatureMatrix), or on
    the rows that the integer indices rows select (see center).

    method: "direct" eigendecomposes the m x m covariance, "gram" the n x n
    Gram matrix (exact for the nonzero spectrum), "auto" picks gram when
    m > n.
    """
    X = np.asarray(getattr(X, "values", X), dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if method not in ("auto", "direct", "gram"):
        raise ValueError(f"unknown method {method!r}")
    Xc, means = center(X, rows)
    n, m = Xc.shape
    if n < 2:
        raise ValueError("fit_pca needs n >= 2 samples")
    use_gram = m > n if method == "auto" else method == "gram"
    if use_gram:
        P = Xc @ Xc.T / (n - 1)
        P = np.triu(P) + np.triu(P, 1).T
    else:
        P = covariance(Xc)
    # identical rows leave round-off residue, not exact zeros; treat variance
    # at that level as a zero spectrum instead of normalizing noise. The
    # scale bounds max|X| without a pass over X: every |Xc_ij| is at most
    # the norm of its row (Gram) or column (covariance), sqrt((n-1) P_ii).
    scale = np.max(np.abs(means)) + np.sqrt((n - 1) * np.max(np.diag(P))) if m else 0.0
    zero_floor = m * (16.0 * np.finfo(np.float64).eps * max(scale, 1e-300)) ** 2
    if np.trace(P) <= zero_floor:
        raise ValueError("all-zero spectrum: data has no variance")
    eigenvalues, vectors = eigen_symmetric(P)
    if use_gram:
        # rank cutoff: eigenpairs at round-off level cannot be mapped back stably
        cutoff = max(n, m) * np.finfo(np.float64).eps * max(eigenvalues[0], 0.0)
        keep = eigenvalues > cutoff
        if not np.any(keep):
            raise ValueError("all-zero spectrum: data has no variance")
        eigenvalues = eigenvalues[keep]
        U = vectors[:, keep]
        norms = np.sqrt((n - 1) * eigenvalues)
        # each block's product is written over rows [:r] of its own columns,
        # which no later block reads. No block is narrower than
        # _MAP_BACK_COLS (the last takes the remainder), so each product runs
        # the gemm kernel of one product over every column and sums in the
        # same order; a narrow block could fall to gemv or a small-matrix
        # kernel, which sum in another
        Vt = (U / norms).T
        r = Vt.shape[0]
        starts = list(range(0, max(m - _MAP_BACK_COLS, 0) + 1, _MAP_BACK_COLS))
        for a, b in zip(starts, starts[1:] + [m]):
            Xc[:r, a:b] = Vt @ Xc[:, a:b]
        # F order: each component is a contiguous column for _fix_signs
        components = Xc[:r].T
        signs = _fix_signs(components)
        # snapshot identity: Xc v_i = sqrt((n-1) lambda_i) u_i
        scores = U * (norms * signs)
    else:
        # F order on both routes, so a PCA bundle's W has one layout
        components = np.asfortranarray(vectors)
        scores = Xc @ components
    rates = contribution_rates(eigenvalues)
    retained = select_components(rates, cum_threshold)
    return PcaModel(
        means=means,
        eigenvalues=np.maximum(eigenvalues, 0.0),
        components=components,
        retained=retained,
        contribution=rates,
        scores=scores[:, :retained],
    )


def project(model: PcaModel, X: np.ndarray, n_components: int | None = None) -> np.ndarray:
    """Center X with the model means and project onto the leading
    n_components eigenvectors (default: the model's retained count)."""
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
