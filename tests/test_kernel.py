import numpy as np
import pytest
from scipy.integrate import quad

from vbpp.kernel import (
    HyperParams,
    gram,
    kernel_eval,
    psi_with_partials,
    sq_dists_per_dim,
)
from vbpp.pointdata import Domain


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(gamma=0.0, alpha=[1.0])
    with pytest.raises(ValueError):
        HyperParams(gamma=1.0, alpha=[1.0, -0.5])


def test_kernel_eval_basics():
    h = HyperParams(gamma=2.0, alpha=np.array([1.0, 4.0]))
    assert kernel_eval([0, 0], [0, 0], h) == 2.0
    # one scale-length of separation in each dimension
    expected = 2.0 * np.exp(-0.5) * np.exp(-0.5)
    assert kernel_eval([0, 0], [1.0, 2.0], h) == pytest.approx(expected, rel=1e-15)


def test_gram_matches_pairwise_eval():
    rng = np.random.default_rng(0)
    h = HyperParams(gamma=0.7, alpha=np.array([0.3, 2.0]))
    A = rng.random((4, 2))
    B = rng.random((3, 2))
    G = gram(A, B, h)
    for i in range(4):
        for j in range(3):
            assert G[i, j] == pytest.approx(kernel_eval(A[i], B[j], h), rel=1e-14)


def test_gram_symmetric_psd():
    rng = np.random.default_rng(1)
    h = HyperParams(gamma=1.5, alpha=np.array([0.8]))
    X = rng.random((20, 1)) * 5
    K = gram(X, X, h)
    assert np.allclose(K, K.T)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-10 * w.max()


def test_sq_dists_shape():
    A = np.zeros((4, 3))
    B = np.ones((5, 3))
    sq = sq_dists_per_dim(A, B)
    assert sq.shape == (3, 4, 5)
    assert np.all(sq == 1.0)


def test_psi_effectively_infinite_domain():
    # unit kernel, z = z' = 0 on a window wide enough that the erf terms
    # saturate: the integral of exp(-x^2) is sqrt(pi)
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]))
    psi = psi_with_partials(np.array([[0.0]]), h, Domain([-50.0], [50.0]))[0]
    assert psi[0, 0] == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_psi_offdiagonal_infinite_domain():
    # two points 2 apart: the Gaussian-product factor contributes e^{-1}
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]))
    psi = psi_with_partials(np.array([[-1.0], [1.0]]), h, Domain([-50.0], [50.0]))[0]
    assert psi[0, 1] == pytest.approx(np.sqrt(np.pi) * np.exp(-1.0), rel=1e-13)


def test_psi_gamma_squared_scaling():
    d = Domain([0.0], [3.0])
    Z = np.array([[0.5], [2.0]])
    base = psi_with_partials(Z, HyperParams(1.0, np.array([0.7])), d)[0]
    scaled = psi_with_partials(Z, HyperParams(3.0, np.array([0.7])), d)[0]
    assert np.allclose(scaled, 9.0 * base, rtol=1e-14)


def test_psi_symmetric_nonnegative():
    rng = np.random.default_rng(2)
    d = Domain([0.0, 0.0], [2.0, 1.0])
    Z = rng.random((5, 2)) * [2.0, 1.0]
    psi = psi_with_partials(Z, HyperParams(1.2, np.array([0.4, 0.9])), d)[0]
    assert np.allclose(psi, psi.T)
    assert (psi >= 0).all()


def test_psi_2d_factorises_over_dimensions():
    # with a product kernel on a box, Psi is the product of the per-axis
    # 1D Psi factors
    d2 = Domain([0.0, -1.0], [2.0, 1.0])
    h2 = HyperParams(gamma=1.0, alpha=np.array([0.5, 1.5]))
    Z2 = np.array([[0.3, -0.2], [1.7, 0.8]])
    psi2 = psi_with_partials(Z2, h2, d2)[0]
    p_x = psi_with_partials(Z2[:, :1], HyperParams(1.0, np.array([0.5])),
                            Domain([0.0], [2.0]))[0]
    p_y = psi_with_partials(Z2[:, 1:], HyperParams(1.0, np.array([1.5])),
                            Domain([-1.0], [1.0]))[0]
    assert np.allclose(psi2, p_x * p_y, rtol=1e-12)


def test_psi_against_quadrature_1d():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lo = rng.uniform(-2, 1)
        hi = lo + rng.uniform(0.5, 4)
        d = Domain([lo], [hi])
        h = HyperParams(gamma=rng.uniform(0.2, 3), alpha=rng.uniform(0.1, 2, 1))
        Z = rng.uniform(lo, hi, (2, 1))
        psi = psi_with_partials(Z, h, d)[0]
        for i in range(2):
            for j in range(2):
                ref, _ = quad(
                    lambda x: kernel_eval([x], Z[i], h) * kernel_eval([x], Z[j], h),
                    lo, hi, epsabs=1e-13, epsrel=1e-12)
                assert psi[i, j] == pytest.approx(ref, rel=1e-10)


def _fd_partials(Z, h, d, eps=1e-6):
    """Central finite differences of Psi for the partial checks."""
    R = h.dims
    base_alpha = h.alpha.copy()
    dla = []
    for r in range(R):
        up = base_alpha.copy(); up[r] *= np.exp(eps)
        dn = base_alpha.copy(); dn[r] *= np.exp(-eps)
        pa = psi_with_partials(Z, HyperParams(h.gamma, up, h.u_bar), d)[0]
        pb = psi_with_partials(Z, HyperParams(h.gamma, dn, h.u_bar), d)[0]
        dla.append((pa - pb) / (2 * eps))
    return np.array(dla)


def test_psi_partials_match_finite_differences():
    rng = np.random.default_rng(4)
    d = Domain([0.0, 0.0], [2.0, 3.0])
    h = HyperParams(gamma=1.1, alpha=np.array([0.6, 1.4]))
    Z = rng.random((3, 2)) * [2.0, 3.0]
    psi, dpsi_dla, dpsi_dzi = psi_with_partials(Z, h, d)
    fd_la = _fd_partials(Z, h, d)
    assert np.allclose(dpsi_dla, fd_la, rtol=1e-6, atol=1e-9)

    # partial w.r.t. a single inducing coordinate
    eps = 1e-6
    for r in range(2):
        for i in range(3):
            Zp = Z.copy(); Zp[i, r] += eps
            Zm = Z.copy(); Zm[i, r] -= eps
            fd = (psi_with_partials(Zp, h, d)[0] - psi_with_partials(Zm, h, d)[0]) / (2 * eps)
            # row i of dpsi_dzi[r] carries d psi[i, j] / d z_{i, r}; the
            # diagonal entry moves through both arguments
            for j in range(3):
                if j == i:
                    continue
                assert dpsi_dzi[r][i, j] == pytest.approx(fd[i, j], rel=2e-5, abs=1e-10)
            assert 2.0 * dpsi_dzi[r][i, i] == pytest.approx(fd[i, i], rel=2e-5, abs=1e-10)
