import json

import numpy as np
import pytest

from oracles import fd_gradient, fd_jacobian, forward
from voxelcad.ann import (Activation, AnnError, AnnModel, TrainConfig,
                          Trainer, _init_params, _j_v, _jt_v, _forward_parts,
                          _unpack, forward_batch, gradient, jacobian,
                          train_ann, train_gdm, train_lm)
from voxelcad.labels import from_sign

LINE_X = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
LINE_T = 0.5 * LINE_X[:, 0]


def _model(w1, b1, w2, b2, activation=Activation.TANSIG):
    return AnnModel(w1=np.asarray(w1, dtype=float), b1=b1, w2=w2, b2=b2,
                    activation=activation)


def test_forward_hand_examples():
    m = _model([[1.0, 0.0]], [0.0], [1.0], 0.0)
    assert abs(forward_batch(m, [[1.0, 0.0]])[0] - 0.761594) <= 1e-6
    r = _model([[1.0, 0.0]], [0.0], [1.0], 0.0, Activation.RELU)
    assert np.array_equal(forward_batch(r, [[-1.0, 0.0], [2.0, 7.0]]), [0.0, 2.0])
    zero = _model(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0)
    assert forward_batch(zero, [[4.0, -4.0]])[0] == 0.0


def test_forward_batch_matches_forward(rng):
    m = _model(rng.normal(size=(4, 3)), rng.normal(size=4),
               rng.normal(size=4), 0.2)
    X = rng.normal(size=(6, 3))
    got = forward_batch(m, X)
    assert np.allclose(got, [forward(m, x) for x in X], atol=1e-12)
    with pytest.raises(ValueError):
        forward_batch(m, np.zeros((2, 5)))


def test_sign_rule_ties_go_to_hc():
    def label(b2):
        return from_sign(forward_batch(_model([[0.0]], [0.0], [0.0], b2), [[3.0]])[0])

    assert label(0.9) == "AD"
    assert label(-0.9) == "HC"
    assert label(0.0) == "HC"


def test_model_invariants():
    with pytest.raises(ValueError):
        AnnModel(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(3), b2=0.0)
    with pytest.raises(ValueError):
        AnnModel(w1=np.zeros((1, 0)), b1=np.zeros(1), w2=np.zeros(1), b2=0.0)
    with pytest.raises(ValueError):
        AnnModel(w1=[[np.nan]], b1=[0.0], w2=[1.0], b2=0.0)


def test_train_config_validation():
    ok = dict(hidden=2, max_iters=10)
    TrainConfig(**ok)
    for bad in (dict(hidden=0), dict(max_iters=0), dict(momentum=1.0),
                dict(momentum=-0.1), dict(mu0=0.0), dict(lambda_=-1.0),
                dict(patience=0)):
        with pytest.raises(ValueError):
            TrainConfig(**{**ok, **bad})


def test_gradient_matches_finite_differences(rng):
    for activation in (Activation.TANSIG, Activation.RELU):
        d, h, n = 2, 3, 6
        X = rng.normal(size=(n, d))
        targets = rng.normal(size=n)
        theta = _init_params(d, h, seed=int(rng.integers(1 << 30)))
        if activation is Activation.RELU:
            # keep preactivations away from the kink
            while True:
                Z = X @ _unpack(theta, d, h)[0].T + _unpack(theta, d, h)[1]
                if np.min(np.abs(Z)) > 1e-3:
                    break
                theta = _init_params(d, h, seed=int(rng.integers(1 << 30)))
        for lam in (0.0, 0.1):
            got = gradient(theta, X, targets, d, h, activation, lam)

            def energy(t):
                y, _, _ = _forward_parts(t, X, d, h, activation)
                r = y - targets
                return float(r @ r) + lam * float(t @ t)

            want = fd_gradient(energy, theta)
            denom = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(got - want) / denom) <= 1e-4


def test_jacobian_matches_finite_differences(rng):
    d, h, n = 3, 2, 5
    X = rng.normal(size=(n, d))
    theta = _init_params(d, h, seed=7)
    J = jacobian(theta, X, d, h, Activation.TANSIG)

    def residuals(t):
        y, _, _ = _forward_parts(t, X, d, h, Activation.TANSIG)
        return y

    want = fd_jacobian(residuals, theta)
    denom = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(J - want) / denom) <= 1e-4


def test_matrix_free_products_match_explicit_jacobian(rng):
    d, h, n = 3, 4, 6
    X = rng.normal(size=(n, d))
    theta = _init_params(d, h, seed=3)
    _, A, D = _forward_parts(theta, X, d, h, Activation.TANSIG)
    J = jacobian(theta, X, d, h, Activation.TANSIG)
    v = rng.normal(size=n)
    w = rng.normal(size=theta.size)
    assert np.allclose(_jt_v(v, X, A, D), J.T @ v, atol=1e-10)
    assert np.allclose(_j_v(w, X, A, D, d, h), J @ w, atol=1e-10)


def test_lm_accepted_sse_never_increases(rng):
    X = rng.normal(size=(12, 2))
    targets = np.sin(X[:, 0]) - 0.3 * X[:, 1]
    cfg = TrainConfig(hidden=3, max_iters=60, seed=5)
    model = train_lm(X, targets, cfg)
    sse = model.history["train_sse"]
    assert all(b <= a for a, b in zip(sse, sse[1:]))
    assert model.history["mu"][0] == cfg.mu0
    assert len(model.history["mu"]) == len(sse)


def test_lm_fits_line_through_tanh_pair():
    cfg = TrainConfig(hidden=2, max_iters=200, goal_sse=1e-6, seed=0)
    model = train_lm(LINE_X, LINE_T, cfg)
    assert model.history["train_sse"][-1] < 1e-4
    pred = forward_batch(model, LINE_X)
    assert float((pred - LINE_T) @ (pred - LINE_T)) < 1e-4


def test_gdm_fits_line_more_slowly():
    cfg = TrainConfig(hidden=2, trainer=Trainer.GDM, max_iters=5000,
                      lr=0.05, goal_sse=1e-6, seed=0)
    model = train_gdm(LINE_X, LINE_T, cfg)
    assert model.history["train_sse"][-1] < 1e-2
    assert "mu" not in model.history


def test_zero_residual_start_stops_immediately():
    d, h, seed = 2, 3, 42
    theta0 = _init_params(d, h, seed)
    w1, b1, w2, b2 = _unpack(theta0, d, h)
    ref = AnnModel(w1=w1, b1=b1, w2=w2, b2=float(b2))
    X = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
    targets = forward_batch(ref, X)
    model = train_lm(X, targets, TrainConfig(hidden=h, max_iters=50, seed=seed))
    assert model.history["train_sse"] == [0.0]
    assert np.array_equal(model.w1, ref.w1)
    assert np.array_equal(model.b1, ref.b1)
    assert np.array_equal(model.w2, ref.w2)
    assert model.b2 == ref.b2


def test_gdm_zero_learning_rate_keeps_params():
    cfg = TrainConfig(hidden=2, trainer=Trainer.GDM, max_iters=20,
                      lr=0.0, seed=9)
    model = train_gdm(LINE_X, LINE_T, cfg)
    theta0 = _init_params(1, 2, seed=9)
    w1, b1, w2, b2 = _unpack(theta0, 1, 2)
    assert np.array_equal(model.w1, w1)
    assert model.b2 == float(b2)
    assert len(set(model.history["train_sse"])) == 1


def test_gdm_zero_momentum_is_plain_gradient_descent():
    cfg = TrainConfig(hidden=2, trainer=Trainer.GDM, max_iters=1,
                      lr=0.01, momentum=0.0, seed=4)
    model = train_gdm(LINE_X, LINE_T, cfg)
    theta0 = _init_params(1, 2, seed=4)
    grad = gradient(theta0, LINE_X, LINE_T, 1, 2, Activation.TANSIG)
    want = theta0 - cfg.lr * grad
    got = np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])
    assert np.array_equal(got, want)


def test_gdm_divergence_names_learning_rate():
    cfg = TrainConfig(hidden=2, trainer=Trainer.GDM, max_iters=5000,
                      lr=30.0, seed=0)
    with pytest.raises(AnnError, match="learning rate"):
        train_gdm(LINE_X, LINE_T, cfg)


def test_early_stopping_restores_best_weights():
    # lr 0 never improves validation SSE, so patience runs out immediately
    cfg = TrainConfig(hidden=2, trainer=Trainer.GDM, max_iters=50,
                      lr=0.0, patience=3, seed=2)
    model = train_gdm(LINE_X, LINE_T, cfg, val_X=LINE_X, val_targets=LINE_T)
    assert len(model.history["train_sse"]) == 1 + cfg.patience
    assert len(model.history["val_sse"]) == len(model.history["train_sse"])

    # with real training the returned weights achieve the best recorded SSE
    val_X = np.array([[-0.8], [0.3], [0.9]])
    val_t = 0.5 * val_X[:, 0] + 0.05
    cfg = TrainConfig(hidden=2, max_iters=100, patience=4, seed=1)
    model = train_lm(LINE_X, LINE_T, cfg, val_X=val_X, val_targets=val_t)
    pred = forward_batch(model, val_X)
    got = float((pred - val_t) @ (pred - val_t))
    assert got == min(model.history["val_sse"])
    # the reported epoch indexes val_sse, whose entry 0 is the mean-target network
    epoch = model.history["early_stop_epoch"]
    assert epoch == int(np.argmin(model.history["val_sse"])) > 0
    plain = train_lm(LINE_X, LINE_T, cfg)
    assert "early_stop_epoch" not in plain.history


@pytest.mark.parametrize("trainer", [Trainer.LM, Trainer.GDM])
def test_early_stopping_falls_back_to_mean_target_network(trainer):
    # validation targets at the training mean give the iteration-0 candidate
    # (random hidden layer, w2 = 0, b2 = mean) SSE 0, which no iterate beats
    targets = LINE_T + 0.25
    val_X = np.array([[-0.8], [0.3], [0.9]])
    val_t = np.full(3, targets.mean())
    cfg = TrainConfig(hidden=3, trainer=trainer, max_iters=40, patience=3, seed=5)
    model = train_ann(LINE_X, targets, cfg, val_X=val_X, val_targets=val_t)
    w1, b1, _, _ = _unpack(_init_params(1, 3, 5), 1, 3)
    assert np.array_equal(model.w1, w1) and np.array_equal(model.b1, b1)
    assert np.array_equal(model.w2, np.zeros(3))
    assert model.b2 == targets.mean()
    assert model.history["val_sse"][0] == 0.0
    assert model.history["early_stop_epoch"] == 0
    assert len(model.history["train_sse"]) > 1


def test_training_is_deterministic():
    cfg = TrainConfig(hidden=3, max_iters=30, seed=17)
    a = train_lm(LINE_X, LINE_T, cfg)
    b = train_lm(LINE_X, LINE_T, cfg)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b1, b.b1)
    assert np.array_equal(a.w2, b.w2) and a.b2 == b.b2
    assert a.history == b.history
    c = train_lm(LINE_X, LINE_T, TrainConfig(hidden=3, max_iters=30, seed=18))
    assert not np.array_equal(a.w1, c.w1)


def test_iteration_budget_is_respected():
    cfg = TrainConfig(hidden=2, max_iters=7, goal_sse=0.0, seed=0)
    model = train_lm(LINE_X, LINE_T, cfg)
    assert len(model.history["train_sse"]) <= cfg.max_iters + 1


def test_train_ann_dispatches_on_trainer():
    lm = train_ann(LINE_X, LINE_T, TrainConfig(hidden=2, max_iters=5, seed=0))
    assert "mu" in lm.history
    gdm = train_ann(LINE_X, LINE_T, TrainConfig(hidden=2, max_iters=5,
                                                trainer=Trainer.GDM, seed=0))
    assert "mu" not in gdm.history


def test_input_validation():
    cfg = TrainConfig(hidden=2, max_iters=5)
    with pytest.raises(ValueError, match="targets length"):
        train_lm(LINE_X, LINE_T[:-1], cfg)
    with pytest.raises(ValueError, match="finite"):
        train_lm(LINE_X, np.array([np.nan] * 5), cfg)
    with pytest.raises(ValueError, match="finite"):
        train_lm(np.full((2, 1), np.inf), np.zeros(2), cfg)
    with pytest.raises(ValueError, match="together"):
        train_lm(LINE_X, LINE_T, cfg, val_X=LINE_X)
    with pytest.raises(ValueError, match="mismatch"):
        train_lm(LINE_X, LINE_T, cfg, val_X=np.zeros((2, 3)),
                 val_targets=np.zeros(2))


def test_json_round_trip(rng):
    model = AnnModel(w1=rng.normal(size=(3, 2)), b1=rng.normal(size=3),
                     w2=rng.normal(size=3), b2=0.7,
                     activation=Activation.RELU)
    d = json.loads(json.dumps(model.to_dict()))
    back = AnnModel.from_dict(d)
    assert back.activation is Activation.RELU
    assert np.array_equal(back.w1, model.w1)
    assert np.array_equal(back.b1, model.b1)
    assert np.array_equal(back.w2, model.w2)
    assert back.b2 == model.b2
    probe = rng.normal(size=(3, 2))
    assert np.array_equal(forward_batch(back, probe), forward_batch(model, probe))
    assert "version" not in d
