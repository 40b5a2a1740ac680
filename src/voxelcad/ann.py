"""One-hidden-layer feed-forward network with LM and GDM trainers.

Architecture: y = w2 . act(W1 x + b1) + b2, linear output, hidden
activation TANSIG (2/(1+exp(-2n)) - 1, i.e. tanh) or RELU. Targets are
coded AD = +1, HC = -1 and the loss is the sum of squared errors
E = sum_i (y_i - t_i)^2 + lambda * ||theta||^2.

Levenberg-Marquardt: solve (J^T J + (mu + lambda) I) delta = J^T r +
lambda * theta and step theta -= delta; mu shrinks by mu_dec on accepted
steps and grows by mu_inc on rejected ones. When the parameter count
exceeds the sample count the same step is computed through the n x n
system (J J^T + c I) without forming J^T J:

    delta = (g - J^T (J J^T + c I)^{-1} (J g)) / c,   c = mu + lambda

and J J^T itself reduces to Hadamard products of n x n Gram matrices, so
no h*d-sized matrix is ever materialized.

GDM: full-batch gradient descent with momentum, v <- momentum*v - lr*gradE,
theta <- theta + v.

Both trainers stop on max_iters, on train SSE <= goal_sse, on mu > mu_max
(LM), and optionally early-stop when a validation set is supplied and its
SSE has not improved for `patience` consecutive iterations; the weights
with the best validation SSE are restored. The iteration-0 candidate is
the mean-target network (the random hidden layer, w2 = 0, b2 = mean of the
training targets), the least-squares fit that ignores its inputs, so a
trained iterate is returned only when it beats that constant on validation.
Training itself still starts from the random draw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bundlefields import array_field, number_field

_MU_FLOOR = 1e-300      # keeps the damping term a normal float
_DIVERGENCE_LOSS = 1e12


class AnnError(Exception):
    """Raised when training cannot proceed (non-finite loss, singular steps)."""


class Activation(enum.Enum):
    TANSIG = "TANSIG"
    RELU = "RELU"


class Trainer(enum.Enum):
    LM = "LM"
    GDM = "GDM"


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 100
    activation: Activation = Activation.TANSIG
    trainer: Trainer = Trainer.LM
    max_iters: int = 1000
    goal_sse: float = 1e-6
    mu0: float = 1e-3
    mu_inc: float = 10.0
    mu_dec: float = 0.1
    mu_max: float = 1e10
    lr: float = 0.01
    momentum: float = 0.9
    lambda_: float = 0.0
    patience: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.mu0 > 0:
            raise ValueError("mu0 must be > 0")
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class AnnModel:
    """Trained network parameters."""

    w1: np.ndarray              # h x d
    b1: np.ndarray              # h
    w2: np.ndarray              # h
    b2: float
    activation: Activation = Activation.TANSIG
    history: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        w1 = np.atleast_2d(np.asarray(self.w1, dtype=np.float64))
        b1 = np.asarray(self.b1, dtype=np.float64).ravel()
        w2 = np.asarray(self.w2, dtype=np.float64).ravel()
        h, d = w1.shape
        if h < 1 or d < 1:
            raise ValueError("need h >= 1 hidden units and d >= 1 inputs")
        if b1.shape != (h,) or w2.shape != (h,):
            raise ValueError("b1 and w2 must both have one entry per hidden unit")
        if not (np.isfinite(w1).all() and np.isfinite(b1).all()
                and np.isfinite(w2).all() and np.isfinite(self.b2)):
            raise ValueError("network parameters must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", float(self.b2))

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[1]

    def to_dict(self) -> dict:
        return {
            "activation": self.activation.value,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
        }

    @classmethod
    def from_dict(cls, d: dict, path: str = "model") -> "AnnModel":
        """Inverse of to_dict; path locates d in the bundle, for error messages."""
        return cls(
            w1=array_field(d["w1"], f"{path}.w1", (2,)),
            b1=array_field(d["b1"], f"{path}.b1", (1,)),
            w2=array_field(d["w2"], f"{path}.w2", (1,)),
            b2=number_field(d["b2"], f"{path}.b2"),
            activation=Activation(d["activation"]),
        )


def _act(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.TANSIG:
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_prime_from(z: np.ndarray, a: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.TANSIG:
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def forward_batch(model: AnnModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_inputs:
        raise ValueError(f"X has {X.shape[1]} columns, the network takes {model.n_inputs} inputs")
    A = _act(X @ model.w1.T + model.b1, model.activation)
    return A @ model.w2 + model.b2


# --- parameter vector layout: [w1.ravel(), b1, w2, b2] ---------------------

def _init_params(d: int, h: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(d)
    s2 = 1.0 / np.sqrt(h)
    w1 = rng.uniform(-s1, s1, size=(h, d))
    b1 = rng.uniform(-s1, s1, size=h)
    w2 = rng.uniform(-s2, s2, size=h)
    b2 = rng.uniform(-s2, s2, size=1)
    return np.concatenate([w1.ravel(), b1, w2, b2])


def _unpack(theta: np.ndarray, d: int, h: int):
    w1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d: h * d + h]
    w2 = theta[h * d + h: h * d + 2 * h]
    b2 = theta[-1]
    return w1, b1, w2, b2


def _forward_parts(theta, X, d, h, activation):
    w1, b1, w2, b2 = _unpack(theta, d, h)
    Z = X @ w1.T + b1
    A = _act(Z, activation)
    y = A @ w2 + b2
    D = _act_prime_from(Z, A, activation) * w2  # n x h, dy/dz scaled by w2
    return y, A, D


def jacobian(theta: np.ndarray, X: np.ndarray, d: int, h: int,
             activation: Activation) -> np.ndarray:
    """Explicit n x p Jacobian of the residuals; used when p <= n and in tests."""
    n = X.shape[0]
    _, A, D = _forward_parts(theta, X, d, h, activation)
    J = np.empty((n, h * d + 2 * h + 1))
    J[:, : h * d] = (D[:, :, None] * X[:, None, :]).reshape(n, h * d)
    J[:, h * d: h * d + h] = D
    J[:, h * d + h: h * d + 2 * h] = A
    J[:, -1] = 1.0
    return J


def _jt_v(v, X, A, D):
    """J^T v without forming J."""
    g_w1 = (D * v[:, None]).T @ X
    g_b1 = D.T @ v
    g_w2 = A.T @ v
    g_b2 = v.sum()
    return np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])


def _j_v(vec, X, A, D, d, h):
    """J vec without forming J."""
    g_w1, g_b1, g_w2, g_b2 = _unpack(vec, d, h)
    return ((D * (X @ g_w1.T)).sum(axis=1) + D @ g_b1 + A @ g_w2 + g_b2)


def gradient(theta: np.ndarray, X: np.ndarray, targets: np.ndarray, d: int,
             h: int, activation: Activation, lambda_: float = 0.0) -> np.ndarray:
    """Analytic gradient of E = sum r^2 + lambda ||theta||^2."""
    y, A, D = _forward_parts(theta, X, d, h, activation)
    r = y - targets
    return 2.0 * _jt_v(r, X, A, D) + 2.0 * lambda_ * theta


def _sse(theta, X, targets, d, h, activation) -> float:
    y, _, _ = _forward_parts(theta, X, d, h, activation)
    r = y - targets
    return float(r @ r)


def _lm_step(theta, X, targets, d, h, activation, mu, lambda_):
    """One damped Gauss-Newton solve; returns the step or None when singular."""
    n, p = X.shape[0], theta.size
    y, A, D = _forward_parts(theta, X, d, h, activation)
    r = y - targets
    g = _jt_v(r, X, A, D) + lambda_ * theta
    c = mu + lambda_
    try:
        if p <= n:
            J = jacobian(theta, X, d, h, activation)
            H = J.T @ J
            H[np.diag_indices_from(H)] += c
            delta = np.linalg.solve(H, g)
        else:
            # dual form: J J^T assembled from n x n Gram pieces
            DDt = D @ D.T
            M = DDt * (X @ X.T) + DDt + A @ A.T + 1.0
            M[np.diag_indices_from(M)] += c
            u = np.linalg.solve(M, _j_v(g, X, A, D, d, h))
            delta = (g - _jt_v(u, X, A, D)) / c
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(delta)):
        return None
    return delta


@dataclass
class _EarlyStop:
    """Patience counter over validation SSE with best-theta tracking."""

    patience: int
    best_sse: float = np.inf
    best_theta: np.ndarray | None = None
    best_epoch: int = -1
    epochs: int = 0
    bad_run: int = 0

    def update(self, sse: float, theta: np.ndarray) -> bool:
        """Record one iteration; True means stop now."""
        self.epochs += 1
        if sse < self.best_sse:
            self.best_sse = sse
            self.best_theta = theta.copy()
            self.best_epoch = self.epochs - 1
            self.bad_run = 0
            return False
        self.bad_run += 1
        return self.bad_run >= self.patience


def _check_training_inputs(X, targets, val_X, val_targets):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one training sample")
    if targets.shape[0] != X.shape[0]:
        raise ValueError("targets length does not match X rows")
    # classification codes AD = +1, HC = -1, but the trainers are plain
    # least-squares and accept any finite regression targets
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if (val_X is None) != (val_targets is None):
        raise ValueError("supply val_X and val_targets together")
    if val_X is not None:
        val_X = np.atleast_2d(np.asarray(val_X, dtype=np.float64))
        val_targets = np.asarray(val_targets, dtype=np.float64).ravel()
        if val_X.shape[1] != X.shape[1] or val_X.shape[0] != val_targets.shape[0]:
            raise ValueError("validation set shape mismatch")
    return X, targets, val_X, val_targets


def _start_early_stop(theta, targets, val_X, val_targets, d, h, cfg, history):
    """Seed early stopping with the mean-target network as iteration 0.

    The candidate keeps theta's hidden layer and sets w2 = 0 and
    b2 = mean(targets); its validation SSE becomes history["val_sse"][0].
    """
    if val_X is None:
        return None
    prior = theta.copy()
    prior[h * d + h:] = 0.0
    prior[-1] = targets.mean()
    stopper = _EarlyStop(cfg.patience)
    v = _sse(prior, val_X, val_targets, d, h, cfg.activation)
    history["val_sse"] = [v]
    stopper.update(v, prior)
    return stopper


def _finish(theta, d, h, cfg, history, stopper):
    if stopper is not None and stopper.best_theta is not None:
        theta = stopper.best_theta
        history["early_stop_epoch"] = stopper.best_epoch
    w1, b1, w2, b2 = _unpack(theta, d, h)
    return AnnModel(w1=w1.copy(), b1=b1.copy(), w2=w2.copy(), b2=float(b2),
                    activation=cfg.activation, history=history)


def train_lm(X, targets, cfg: TrainConfig = TrainConfig(),
             val_X=None, val_targets=None) -> AnnModel:
    """Levenberg-Marquardt training; accepted-step SSE is non-increasing.

    With a validation set, the returned weights are the iterate with the
    lowest validation SSE, where iteration 0 is the mean-target network and
    history["val_sse"][0] is its SSE (see _start_early_stop); its index in
    history["val_sse"] is history["early_stop_epoch"].
    """
    X, targets, val_X, val_targets = _check_training_inputs(X, targets, val_X, val_targets)
    n, d = X.shape
    h = cfg.hidden
    theta = _init_params(d, h, cfg.seed)
    act = cfg.activation
    lam = cfg.lambda_

    loss = _sse(theta, X, targets, d, h, act)
    if not np.isfinite(loss):
        raise AnnError("non-finite loss at iteration 0")
    reg = loss + lam * float(theta @ theta)
    mu = cfg.mu0
    history = {"train_sse": [loss], "val_sse": None, "mu": [mu]}
    stopper = _start_early_stop(theta, targets, val_X, val_targets, d, h, cfg, history)

    for it in range(1, cfg.max_iters + 1):
        if loss <= cfg.goal_sse:
            break
        # retry with stronger damping until the step improves the loss
        accepted = False
        solved_once = False
        while mu <= cfg.mu_max:
            delta = _lm_step(theta, X, targets, d, h, act, mu, lam)
            if delta is None:
                mu *= cfg.mu_inc
                continue
            solved_once = True
            cand = theta - delta
            cand_loss = _sse(cand, X, targets, d, h, act)
            cand_reg = cand_loss + lam * float(cand @ cand)
            if cand_reg < reg:
                theta, loss, reg = cand, cand_loss, cand_reg
                mu = max(mu * cfg.mu_dec, _MU_FLOOR)
                accepted = True
                break
            mu *= cfg.mu_inc
        if not accepted:
            if not solved_once:
                raise AnnError(
                    f"normal equations stayed singular past mu_max at iteration {it}"
                )
            break  # damping exhausted without improvement: converged
        if not np.isfinite(loss):
            raise AnnError(f"non-finite loss at iteration {it}")
        history["train_sse"].append(loss)
        history["mu"].append(mu)
        if stopper is not None:
            v = _sse(theta, val_X, val_targets, d, h, act)
            history["val_sse"].append(v)
            if stopper.update(v, theta):
                break

    return _finish(theta, d, h, cfg, history, stopper)


def train_gdm(X, targets, cfg: TrainConfig = TrainConfig(),
              val_X=None, val_targets=None) -> AnnModel:
    """Full-batch gradient descent with momentum.

    Early stopping works as in train_lm: iteration 0 is the mean-target
    network, history["val_sse"][0] is its validation SSE, and
    history["early_stop_epoch"] is the index of the returned iterate.
    """
    X, targets, val_X, val_targets = _check_training_inputs(X, targets, val_X, val_targets)
    n, d = X.shape
    h = cfg.hidden
    theta = _init_params(d, h, cfg.seed)
    act = cfg.activation
    lam = cfg.lambda_
    velocity = np.zeros_like(theta)

    loss = _sse(theta, X, targets, d, h, act)
    if not np.isfinite(loss):
        raise AnnError("non-finite loss at iteration 0")
    history = {"train_sse": [loss], "val_sse": None}
    stopper = _start_early_stop(theta, targets, val_X, val_targets, d, h, cfg, history)

    for it in range(1, cfg.max_iters + 1):
        if loss <= cfg.goal_sse:
            break
        grad = gradient(theta, X, targets, d, h, act, lam)
        velocity = cfg.momentum * velocity - cfg.lr * grad
        theta = theta + velocity
        loss = _sse(theta, X, targets, d, h, act)
        if not np.isfinite(loss):
            raise AnnError(f"non-finite loss at iteration {it}")
        if loss > _DIVERGENCE_LOSS:
            raise AnnError(
                f"training diverged (loss {loss:.3e}) at learning rate {cfg.lr}"
            )
        history["train_sse"].append(loss)
        if stopper is not None:
            v = _sse(theta, val_X, val_targets, d, h, act)
            history["val_sse"].append(v)
            if stopper.update(v, theta):
                break

    return _finish(theta, d, h, cfg, history, stopper)


def train_ann(X, targets, cfg: TrainConfig = TrainConfig(),
              val_X=None, val_targets=None) -> AnnModel:
    """Dispatch on cfg.trainer."""
    fn = train_lm if cfg.trainer is Trainer.LM else train_gdm
    return fn(X, targets, cfg, val_X=val_X, val_targets=val_targets)
