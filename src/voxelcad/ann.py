"""One-hidden-layer feed-forward network with LM and GDM trainers.

Architecture: y = w2 . act(W1 x + b1) + b2, linear output, hidden
activation TANSIG (2/(1+exp(-2n)) - 1, i.e. tanh) or RELU. Targets are
coded AD = +1, HC = -1 and the loss is the sum of squared errors
E = sum_i (y_i - t_i)^2 + lambda * ||theta||^2.

Levenberg-Marquardt: solve (J^T J + (mu + lambda) I) delta = J^T r +
lambda * theta and step theta -= delta; mu starts at MU0, shrinks by
MU_DEC on accepted steps and grows by MU_INC on rejected ones. Every step
is computed through the n x n system (J J^T + c I) without forming J^T J:

    delta = (g - J^T (J J^T + c I)^{-1} (J g)) / c,   c = mu + lambda

and J J^T itself reduces to Hadamard products of n x n Gram matrices, so
no h*d-sized matrix is ever materialized.

GDM: full-batch gradient descent with momentum, v <- momentum*v - lr*gradE,
theta <- theta + v.

Both trainers run the same loop (_train) and supply only their steps. It
stops on max_iters, on train SSE <= goal_sse, when the steps run out (LM:
mu > MU_MAX without an improving step), and optionally early-stops when a
validation set is supplied and its SSE has not improved for `patience`
consecutive iterations; the weights with the best validation SSE are
restored. The iteration-0 candidate is the mean-target network (the random
hidden layer, w2 = 0, b2 = mean of the training targets), the
least-squares fit that ignores its inputs, so a trained iterate is
returned only when it beats that constant on validation. Training itself
still starts from the random draw.

This module is numerics only: a model's fields are written to and read
from a bundle by pipeline.PipelineModel, which owns the bundle format.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

# Levenberg-Marquardt damping schedule
MU0 = 1e-3
MU_INC = 10.0
MU_DEC = 0.1
MU_MAX = 1e10
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
    """Explicit n x p Jacobian of the residuals. LM never forms it (every
    step solves the n x n system); the tests check _lm_step against it."""
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
    """One damped Gauss-Newton step through the n x n system J J^T + c I,
    assembled from n x n Gram pieces; returns the step or None when singular."""
    y, A, D = _forward_parts(theta, X, d, h, activation)
    r = y - targets
    g = _jt_v(r, X, A, D) + lambda_ * theta
    c = mu + lambda_
    DDt = D @ D.T
    M = DDt * (X @ X.T) + DDt + A @ A.T + 1.0
    M[np.diag_indices_from(M)] += c
    try:
        u = np.linalg.solve(M, _j_v(g, X, A, D, d, h))
    except np.linalg.LinAlgError:
        return None
    delta = (g - _jt_v(u, X, A, D)) / c
    if not np.all(np.isfinite(delta)):
        return None
    return delta


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
        if not (np.all(np.isfinite(val_X)) and np.all(np.isfinite(val_targets))):
            raise ValueError("validation set must be finite")
    return X, targets, val_X, val_targets


def _train(steps, X, targets, cfg, val_X, val_targets, **history) -> AnnModel:
    """The loop both trainers share. steps(theta, loss, X, targets, cfg,
    history) yields one (theta, loss) per iteration; history starts with the
    trainer's own entries. With a validation set, iteration 0 is the
    mean-target network, history["val_sse"][0] is its SSE, and the iterate
    with the lowest validation SSE is returned; history["early_stop_epoch"]
    is its index in history["val_sse"].
    """
    X, targets, val_X, val_targets = _check_training_inputs(X, targets, val_X, val_targets)
    d, h, act = X.shape[1], cfg.hidden, cfg.activation
    theta = _init_params(d, h, cfg.seed)
    loss = _sse(theta, X, targets, d, h, act)
    if not np.isfinite(loss):
        raise AnnError("non-finite loss at iteration 0")
    history = {"train_sse": [loss], "val_sse": None, **history}
    best = None
    if val_X is not None:
        best = theta.copy()
        best[h * d + h:] = 0.0
        best[-1] = targets.mean()
        best_sse = _sse(best, val_X, val_targets, d, h, act)
        best_epoch, bad_run = 0, 0
        history["val_sse"] = [best_sse]

    iterates = steps(theta, loss, X, targets, cfg, history)
    for it in range(1, cfg.max_iters + 1):
        if loss <= cfg.goal_sse:
            break
        step = next(iterates, None)
        if step is None:
            break
        theta, loss = step
        if not np.isfinite(loss):
            raise AnnError(f"non-finite loss at iteration {it}")
        history["train_sse"].append(loss)
        if best is not None:
            v = _sse(theta, val_X, val_targets, d, h, act)
            history["val_sse"].append(v)
            if v < best_sse:
                best, best_sse, best_epoch, bad_run = theta.copy(), v, it, 0
            else:
                bad_run += 1
                if bad_run >= cfg.patience:
                    break

    if best is not None:
        theta = best
        history["early_stop_epoch"] = best_epoch
    w1, b1, w2, b2 = _unpack(theta, d, h)
    return AnnModel(w1=w1.copy(), b1=b1.copy(), w2=w2.copy(), b2=float(b2),
                    activation=act, history=history)


def _lm_steps(theta, loss, X, targets, cfg, history):
    """Accepted LM steps; ends when mu passes MU_MAX without an improving
    step, and records mu after each step in history["mu"]."""
    d, h, act, lam = X.shape[1], cfg.hidden, cfg.activation, cfg.lambda_
    reg = loss + lam * float(theta @ theta)
    mu = history["mu"][-1]
    for it in itertools.count(1):
        # retry with stronger damping until the step improves the loss
        solved_once = False
        while mu <= MU_MAX:
            delta = _lm_step(theta, X, targets, d, h, act, mu, lam)
            if delta is None:
                mu *= MU_INC
                continue
            solved_once = True
            cand = theta - delta
            cand_loss = _sse(cand, X, targets, d, h, act)
            cand_reg = cand_loss + lam * float(cand @ cand)
            if cand_reg < reg:
                break
            mu *= MU_INC
        else:
            if not solved_once:
                raise AnnError(f"normal equations stayed singular past mu_max "
                               f"at iteration {it}")
            return  # damping exhausted without improvement: converged
        theta, loss, reg = cand, cand_loss, cand_reg
        mu = max(mu * MU_DEC, _MU_FLOOR)
        history["mu"].append(mu)
        yield theta, loss


def _gdm_steps(theta, loss, X, targets, cfg, history):
    """Momentum steps; raises once the loss passes the divergence limit."""
    d, h, act = X.shape[1], cfg.hidden, cfg.activation
    velocity = np.zeros_like(theta)
    while True:
        grad = gradient(theta, X, targets, d, h, act, cfg.lambda_)
        velocity = cfg.momentum * velocity - cfg.lr * grad
        theta = theta + velocity
        loss = _sse(theta, X, targets, d, h, act)
        if np.isfinite(loss) and loss > _DIVERGENCE_LOSS:
            raise AnnError(f"training diverged (loss {loss:.3e}) "
                           f"at learning rate {cfg.lr}")
        yield theta, loss


def train_lm(X, targets, cfg: TrainConfig = TrainConfig(),
             val_X=None, val_targets=None) -> AnnModel:
    """Levenberg-Marquardt training; accepted-step SSE is non-increasing.

    Early stopping and the history entries are _train's; history["mu"]
    adds the damping after each accepted step, starting from MU0.
    """
    return _train(_lm_steps, X, targets, cfg, val_X, val_targets, mu=[MU0])


def train_gdm(X, targets, cfg: TrainConfig = TrainConfig(),
              val_X=None, val_targets=None) -> AnnModel:
    """Full-batch gradient descent with momentum; early stopping and the
    history entries are _train's."""
    return _train(_gdm_steps, X, targets, cfg, val_X, val_targets)


def train_ann(X, targets, cfg: TrainConfig = TrainConfig(),
              val_X=None, val_targets=None) -> AnnModel:
    """Dispatch on cfg.trainer."""
    fn = train_lm if cfg.trainer is Trainer.LM else train_gdm
    return fn(X, targets, cfg, val_X=val_X, val_targets=val_targets)
