import numpy as np
import pytest

from oracles import eigenvalues_bisect
from voxelcad.pca import (PcaModel, center, contribution_rates, covariance,
                          eigen_symmetric, fit_pca, project,
                          select_components)

SQ2 = np.sqrt(2.0)


def test_center_hand_example():
    Xc, means = center(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(means, [2.0, 3.0])
    assert np.array_equal(Xc, [[-1.0, -1.0], [1.0, 1.0]])


def test_center_single_row_and_idempotence(rng):
    Xc, _ = center(np.array([[5.0, -2.0, 0.5]]))
    assert np.array_equal(Xc, np.zeros((1, 3)))
    X = rng.normal(size=(10, 4))
    X -= X.mean(axis=0)
    Xc, means = center(X)
    assert np.max(np.abs(Xc - X)) < 1e-12
    assert np.max(np.abs(means)) < 1e-15


def test_center_rejects_empty():
    with pytest.raises(ValueError):
        center(np.zeros((0, 3)))


def test_covariance_hand_example():
    P = covariance(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert np.array_equal(P, [[2.0, 2.0], [2.0, 2.0]])


def test_covariance_orthogonal_columns():
    Xc = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    P = covariance(Xc)
    assert P[0, 1] == 0.0 and P[1, 0] == 0.0


def test_covariance_is_exactly_symmetric(rng):
    P = covariance(center(rng.normal(size=(7, 5)))[0])
    assert np.array_equal(P, P.T)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError):
        covariance(np.zeros((1, 3)))


def test_eigen_diagonal():
    vals, vecs = eigen_symmetric(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    assert np.allclose(vecs, np.eye(2), atol=1e-12)


def test_eigen_rank_one():
    vals, vecs = eigen_symmetric(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(vals, [4.0, 0.0], atol=1e-12)
    assert np.allclose(vecs[:, 0], [1 / SQ2, 1 / SQ2], atol=1e-12)


def test_eigen_identity_degenerate():
    # repeated eigenvalues, plus the 1x1 and all-zero edge cases
    for P, want in ((np.eye(3), [1.0, 1.0, 1.0]),
                    (np.array([[-2.5]]), [-2.5]),
                    (np.zeros((3, 3)), [0.0, 0.0, 0.0])):
        m = P.shape[0]
        vals, vecs = eigen_symmetric(P)
        assert np.allclose(vals, want, atol=1e-12)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(m))) < 1e-8
        assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(m)] > 0.0)
        res = P @ vecs - vecs * vals
        assert np.max(np.abs(res)) < 1e-8 * 2


def test_eigen_sign_convention(rng):
    for _ in range(20):
        A = rng.normal(size=(5, 5))
        P = (A + A.T) / 2
        _, vecs = eigen_symmetric(P)
        for col in vecs.T:
            peak = np.argmax(np.abs(col))
            assert col[peak] > 0.0


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigen_symmetric(np.zeros((2, 3)))


def test_eigen_matches_bisection_oracle(rng):
    for _ in range(25):
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, m))
        P = (A + A.T) / 2
        vals, _ = eigen_symmetric(P)
        want = eigenvalues_bisect(P)
        assert np.max(np.abs(vals - want)) <= 1e-6 * (1 + np.max(np.abs(want)))


def test_contribution_examples():
    assert np.array_equal(contribution_rates([4.0, 0.0]), [1.0, 0.0])
    assert np.array_equal(contribution_rates([3.0, 1.0]), [0.75, 0.25])
    assert np.array_equal(contribution_rates([2.0, 2.0]), [0.5, 0.5])


def test_contribution_tolerates_roundoff_negatives():
    rates = contribution_rates([1.0, -1e-12])
    assert rates[1] == 0.0
    with pytest.raises(ValueError):
        contribution_rates([1.0, -0.5])
    with pytest.raises(ValueError):
        contribution_rates([0.0, 0.0])


def test_select_components_examples():
    assert select_components([1.0, 0.0], 0.95) == 1
    assert select_components([0.75, 0.25], 0.95) == 2
    assert select_components([1.0, 0.0], 1.0) == 1  # trailing zeros not needed
    assert select_components([0.5, 0.3, 0.2], 1.0) == 3
    with pytest.raises(ValueError):
        select_components([1.0], 0.0)
    with pytest.raises(ValueError):
        select_components([1.0], 1.5)


def test_fit_pca_hand_example():
    model = fit_pca(np.array([[1.0, 2.0], [3.0, 4.0]]), cum_threshold=0.95)
    assert np.array_equal(model.means, [2.0, 3.0])
    assert np.allclose(model.eigenvalues, [4.0, 0.0], atol=1e-12)
    assert model.retained == 1


def test_fit_pca_rejects_constant_data():
    X = np.tile([1.5, -2.0, 0.25], (6, 1))
    with pytest.raises(ValueError, match="zero spectrum"):
        fit_pca(X)


def test_fit_pca_needs_two_rows():
    with pytest.raises(ValueError):
        fit_pca(np.ones((1, 3)))


def test_near_one_dimensional_data(rng):
    t = rng.normal(size=(200, 1))
    direction = np.array([[0.6, 0.8, 0.0]])
    X = t @ direction + 1e-6 * rng.normal(size=(200, 3))
    model = fit_pca(X, cum_threshold=0.95)
    assert model.contribution[0] > 0.999
    assert model.retained == 1


def test_project_hand_example():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = fit_pca(X, cum_threshold=0.95)
    Y = project(model, X, n_components=1)
    assert np.allclose(Y, [[-SQ2], [SQ2]], atol=1e-12)
    assert np.allclose(project(model, model.means), [0.0], atol=1e-15)


def test_project_full_rank_is_isometry(rng):
    X = rng.normal(size=(12, 5))
    model = fit_pca(X, cum_threshold=1.0, method="direct")
    Y = project(model, X, n_components=5)
    dx = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    dy = np.linalg.norm(Y[:, None, :] - Y[None, :, :], axis=2)
    assert np.max(np.abs(dx - dy)) <= 1e-8 * (1 + dx.max())


def test_project_validates_dimensions(rng):
    model = fit_pca(rng.normal(size=(6, 3)))
    with pytest.raises(ValueError):
        project(model, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        project(model, np.zeros((2, 3)), n_components=9)


def test_spectral_reconstruction_and_trace(rng):
    X = rng.normal(size=(30, 8))
    P = covariance(center(X)[0])
    model = fit_pca(X, cum_threshold=1.0, method="direct")
    V, lam = model.components, model.eigenvalues
    recon = V @ np.diag(lam) @ V.T
    assert np.max(np.abs(recon - P)) <= 1e-7 * np.max(np.abs(P))
    assert abs(lam.sum() - np.trace(P)) <= 1e-9 * abs(np.trace(P))


def test_projected_variance_equals_eigenvalue(rng):
    X = rng.normal(size=(40, 6))
    model = fit_pca(X, cum_threshold=1.0, method="direct")
    Y = project(model, X, n_components=6)
    var = Y.var(axis=0, ddof=1)
    assert np.max(np.abs(var - model.eigenvalues)
                  / (1 + model.eigenvalues)) <= 1e-8


def test_gram_route_matches_direct(rng):
    X = rng.normal(size=(9, 20))
    direct = fit_pca(X, cum_threshold=1.0, method="direct")
    gram = fit_pca(X, cum_threshold=1.0, method="gram")
    r = gram.eigenvalues.size
    assert r <= 9
    assert np.max(np.abs(direct.eigenvalues[:r] - gram.eigenvalues)) <= 1e-9
    assert np.max(np.abs(direct.eigenvalues[r:])) <= 1e-9
    assert np.max(np.abs(direct.components[:, :r] - gram.components)) <= 1e-7
    Yd = project(direct, X, n_components=r)
    Yg = project(gram, X, n_components=r)
    assert np.max(np.abs(Yd - Yg)) <= 1e-8


def test_unknown_method():
    with pytest.raises(ValueError):
        fit_pca(np.eye(3), method="qr")


def test_model_invariants():
    good = dict(means=np.zeros(2), eigenvalues=np.array([2.0, 1.0]),
                components=np.eye(2), retained=1,
                contribution=np.array([2 / 3, 1 / 3]))
    PcaModel(**good)
    with pytest.raises(ValueError):
        PcaModel(**{**good, "retained": 3})
    with pytest.raises(ValueError):
        PcaModel(**{**good, "eigenvalues": np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        PcaModel(**{**good, "means": np.zeros(5)})
