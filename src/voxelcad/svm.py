"""Binary soft-margin SVM: SMO dual solver, kernels, decision function.

The dual QP
    max  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j k(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0
is solved by SMO over two-coefficient working sets chosen as the maximal
violating pair; the solver stops when the pair violation gap drops to
`tol`, which bounds every KKT violation by tol for the returned bias.
Exact ties in the pair choice go to the lowest index, and SMO stops
anywhere inside its `tol` KKT gap, so a change to the inputs at the 1e-16
level can move the decision scores by about 1e-6 relative, and by up to
the order of `tol` when it turns the solver onto another path.

Kernels: LINEAR x.z and GAUSSIAN exp(-||x-z||^2 / s^2); s is the kernel
scale, i.e. the length scale that divides the inputs.

The bias is the median of y_i - sum_j a_j y_j k(x_i, x_j) over free support
vectors (0 < a < C); with no free vectors it is the midpoint of the
feasible interval implied by the bound vectors.

smo solves the dual on a given kernel matrix; solve_dual builds that
matrix from the training rows first. A caller that already holds the
kernel, such as VAF-SVM's blocked fit (pipeline.fit_pipeline), calls smo
directly and scores rows from their kernel rows with decision_kernel.

Models store only the vectors with a_i > 1e-8, in C order. Their
support_vectors may also be given as a callable that forms them when first
read, so a fit that scores from kernel rows never forms them. The squared
norms of the support vectors are computed once per model.
decision_batch expects rows in the space the model was trained in; for a
pipeline that is the output of its affine front end, which
pipeline.predict_matrix applies first.

This module is numerics only: a model's fields are written to and read
from a bundle by pipeline.PipelineModel, which owns the bundle format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SV_EPS = 1e-8           # support-vector retention threshold on alpha
_BOUND_SNAP = 1e-10     # snap alphas this close to 0/C (relative to C)


class SvmError(Exception):
    """Raised when the dual solver cannot produce a valid model."""


class KernelKind(enum.Enum):
    LINEAR = "LINEAR"
    GAUSSIAN = "GAUSSIAN"


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind = KernelKind.GAUSSIAN
    scale: float = 2.8

    def __post_init__(self):
        # the kernel divides by s^2, which must neither underflow to 0 (0/0
        # on the diagonal) nor overflow (an all-ones kernel)
        if self.kind is KernelKind.GAUSSIAN and not (
                self.scale > 0 and 0.0 < self.scale * self.scale < np.inf):
            raise ValueError(f"Gaussian kernel scale must be > 0 and its square a positive "
                             f"finite float (about 1.6e-162 to 1.3e154), got {self.scale!r}")


def kernel_values(k: KernelSpec, AB: np.ndarray, na: np.ndarray,
                  nb: np.ndarray) -> np.ndarray:
    """k(a_i, b_j) from the inner products AB = A B^T and the squared row
    norms na of A and nb of B (which the linear kernel does not read)."""
    if k.kind is KernelKind.LINEAR:
        return AB
    sq = na[:, None] + nb[None, :] - 2.0 * AB
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (k.scale * k.scale))


def gram_matrix(k: KernelSpec, A: np.ndarray, B: np.ndarray | None = None,
                b_norms: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix k(A_i, B_j); B defaults to A. b_norms, if given, are
    the squared row norms of B."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"kernel inputs differ in dimension: {A.shape[1]} vs {B.shape[1]}")
    AB = A @ B.T
    if k.kind is KernelKind.LINEAR:
        return AB
    # squared row norms without an A*A temporary; on the self-Gram they are
    # the diagonal of AB, so every k(x, x) is exactly 1
    if B is A:
        na = nb = AB.diagonal()
    else:
        na = np.einsum("ij,ij->i", A, A)
        nb = np.einsum("ij,ij->i", B, B) if b_norms is None else b_norms
    return kernel_values(k, AB, na, nb)


class SvmModel:
    """Trained SVM: support vectors, their dual coefficients and the bias.

    support_vectors is an array, or a zero-argument callable that forms it
    when it is first read.
    """

    def __init__(self, support_vectors, alphas, labels, bias: float,
                 kernel: KernelSpec, C: float):
        a = np.asarray(alphas, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if a.shape != y.shape:
            raise ValueError("support_vectors, alphas and labels disagree in length")
        if a.size and (a.min() <= 0.0 or a.max() > C + 1e-9):
            raise ValueError("stored alphas must satisfy 0 < a <= C + 1e-9")
        if abs(float(a @ y)) > 1e-6 * C:
            raise ValueError("support coefficients are not balanced: |sum a*y| too large")
        self.alphas, self.labels = a, y
        self.bias, self.kernel, self.C = bias, kernel, C
        if callable(support_vectors):
            self._form_support_vectors = support_vectors
        else:
            self.support_vectors = self._checked(support_vectors)

    def _checked(self, sv) -> np.ndarray:
        sv = np.atleast_2d(np.asarray(sv, dtype=np.float64))
        if sv.shape[0] != self.alphas.shape[0]:
            raise ValueError("support_vectors, alphas and labels disagree in length")
        return sv

    @cached_property
    def support_vectors(self) -> np.ndarray:
        return self._checked(self._form_support_vectors())

    @cached_property
    def sv_norms(self) -> np.ndarray:
        """Squared norms of the support vectors."""
        sv = self.support_vectors
        return np.einsum("ij,ij->i", sv, sv)


def solve_dual(X: np.ndarray, y: np.ndarray, C: float, kernel: KernelSpec,
               tol: float = 1e-3, max_iter: int | None = None
               ) -> tuple[np.ndarray, float]:
    """SMO solve of the dual QP on the training rows X; returns (alphas,
    bias). See smo."""
    return smo(gram_matrix(kernel, X), y, C, tol, max_iter)


def smo(K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3,
        max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """SMO solve of the dual QP on the training kernel matrix K; returns
    (alphas, bias).

    max_iter caps pair optimizations (default 100 * n); exceeding it raises
    SvmError carrying the worst remaining violation.
    """
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if n < 2:
        raise ValueError("need at least two training samples")
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("y must be a +/-1 vector, one entry per training row")
    if np.all(y == 1.0) or np.all(y == -1.0):
        raise ValueError("single-class input: the equality constraint forces alpha = 0")
    if not C > 0:
        raise ValueError("C must be > 0")
    if max_iter is None:
        max_iter = 100 * n

    alpha = np.zeros(n)
    G = np.zeros(n)       # sum_j alpha_j y_j K_ij
    snap = _BOUND_SNAP * C
    iters = 0

    while True:
        F = G - y
        at_upper = alpha >= C - snap
        at_lower = alpha <= snap
        up = ((y > 0) & ~at_upper) | ((y < 0) & ~at_lower)
        low = ((y > 0) & ~at_lower) | ((y < 0) & ~at_upper)
        # both sets are non-empty: each class contributes to one of them at
        # any feasible alpha; argmin/argmax take the lowest index on ties
        i = int(np.where(up, F, np.inf).argmin())
        j = int(np.where(low, F, -np.inf).argmax())
        gap = F[j] - F[i]
        if gap <= tol:
            break
        if iters >= max_iter:
            raise SvmError(
                f"iteration budget {max_iter} exceeded; "
                f"worst KKT violation {gap:.3e} > tol {tol:g}"
            )
        iters += 1

        s = y[i] * y[j]
        if s < 0:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta < -1e-15:
            aj_new = alpha[j] - y[j] * (F[i] - F[j]) / eta
            aj_new = min(max(aj_new, L), H)
        else:
            # flat direction: compare the objective at the segment endpoints
            c1 = eta / 2.0
            c2 = y[j] * (F[i] - F[j]) - eta * alpha[j]
            lo_obj = c1 * L * L + c2 * L
            hi_obj = c1 * H * H + c2 * H
            aj_new = L if lo_obj > hi_obj else H if hi_obj > lo_obj else alpha[j]
        d_aj = aj_new - alpha[j]
        if d_aj == 0.0:
            raise SvmError(
                f"SMO stalled on a degenerate pair with violation {gap:.3e}"
            )
        ai_new = alpha[i] + s * (alpha[j] - aj_new)
        ai_new = min(max(ai_new, 0.0), C)
        d_ai = ai_new - alpha[i]
        alpha[i] = ai_new
        alpha[j] = aj_new
        G += (d_ai * y[i]) * K[:, i] + (d_aj * y[j]) * K[:, j]

    return alpha, _bias_from_state(F, alpha, y, C, snap)


def _bias_from_state(F, alpha, y, C, snap) -> float:
    free = (alpha > snap) & (alpha < C - snap)
    if np.any(free):
        # np.median's bits without its first-call import of numpy.ma
        v = -F[free]
        lo, hi = (v.size - 1) // 2, v.size // 2
        v = np.partition(v, [lo, hi])
        return float((v[lo] + v[hi]) / 2)
    up = ((y > 0) & (alpha < C - snap)) | ((y < 0) & (alpha > snap))
    low = ((y > 0) & (alpha > snap)) | ((y < 0) & (alpha < C - snap))
    return float(-(np.min(F[up]) + np.max(F[low])) / 2.0)


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """Value of the dual objective at alpha, given the kernel matrix."""
    v = alpha * y
    return float(alpha.sum() - 0.5 * (v @ K @ v))


def train_svm(X: np.ndarray, y: np.ndarray, C: float = 1.0,
              kernel: KernelSpec = KernelSpec(), tol: float = 1e-3,
              max_iter: int | None = None) -> SvmModel:
    """solve_dual + support-vector filtering into an SvmModel.

    X must already be in the model's input space. The support vectors are
    a C-order copy of the kept rows, the layout of a model read back from
    JSON, so a model scores bit-identically to its round trip.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha, bias = solve_dual(X, y, C, kernel, tol, max_iter)
    keep = alpha > SV_EPS
    return SvmModel(support_vectors=X[keep], alphas=alpha[keep], labels=y[keep],
                    bias=bias, kernel=kernel, C=C)


def decision_kernel(model: SvmModel, K: np.ndarray) -> np.ndarray:
    """f(x) = sum_i a_i y_i k(x, x_i) + bias from the kernel rows
    K[r, i] = k(x_r, x_i) against the model's support vectors."""
    return K @ (model.alphas * model.labels) + model.bias


def decision_batch(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """f(x) = sum_i a_i y_i k(x, x_i) + bias for every row x of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    return decision_kernel(model, gram_matrix(model.kernel, X, model.support_vectors,
                                              model.sv_norms))
