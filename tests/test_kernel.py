import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from vbpp.kernel import (
    GRAM_BLOCK,
    HyperParams,
    _dfac_dzi,
    _psi_dim_factors,
    gram,
    psi_with_partials,
)
from vbpp.pointdata import Domain, regular_grid


def kernel_eval(x, x2, h: HyperParams) -> float:
    """Kernel value at a single pair of points."""
    a = np.asarray(x, dtype=float).reshape(-1)
    b = np.asarray(x2, dtype=float).reshape(-1)
    if a.shape[0] != h.dims or b.shape[0] != h.dims:
        raise ValueError("point dimensionality does not match hyperparameters")
    return float(h.gamma * np.exp(-np.sum((a - b) ** 2 / (2.0 * h.alpha))))


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


def test_gram_blocks_are_elementwise_exact():
    # 1000 columns give row blocks of GRAM_BLOCK // 1000 rows; 400 rows span
    # several blocks and end in a partial one
    rng = np.random.default_rng(3)
    h = HyperParams(gamma=1.7, alpha=np.array([0.2, 0.9]))
    A = rng.random((400, 2)) * 3.0
    B = rng.random((1000, 2)) * 3.0
    rows = GRAM_BLOCK // B.shape[0]
    assert 2 * rows < A.shape[0] and A.shape[0] % rows
    G = gram(A, B, h)
    assert np.array_equal(G, np.vstack([gram(A[i:i + 1], B, h) for i in range(A.shape[0])]))
    for i in (0, rows - 1, rows, 2 * rows, A.shape[0] - 1):
        want = [kernel_eval(A[i], B[j], h) for j in range(B.shape[0])]
        assert G[i] == pytest.approx(want, rel=1e-14)


def test_gram_symmetric_psd():
    rng = np.random.default_rng(1)
    h = HyperParams(gamma=1.5, alpha=np.array([0.8]))
    X = rng.random((20, 1)) * 5
    K = gram(X, X, h)
    assert np.allclose(K, K.T)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-10 * w.max()


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


def psi_dim_factors_all_pairs(Z, h, d, r, with_z):
    """Psi's factor for dimension r and its partials, computed on every pair
    of points: the oracle for the computation on distinct coordinates."""
    a = h.alpha[r]
    s = np.sqrt(a)
    z = Z[:, r]
    delta = z[:, None] - z[None, :]
    zbar = 0.5 * (z[:, None] + z[None, :])
    u_lo = (zbar - d.lo[r]) / s
    u_hi = (zbar - d.hi[r]) / s
    E = erf(u_lo) - erf(u_hi)
    base = (np.sqrt(np.pi) * s / 2.0) * np.exp(-(delta**2) / (4.0 * a))
    fac = base * E
    e_lo = np.exp(-u_lo**2)
    e_hi = np.exp(-u_hi**2)
    dE_da = (u_hi * e_hi - u_lo * e_lo) / (np.sqrt(np.pi) * a)
    dfac_dalpha = fac * (1.0 / (2.0 * a) + delta**2 / (4.0 * a**2)) + base * dE_da
    dfac_dzi = _dfac_dzi(fac, base, delta, a, s, e_lo, e_hi) if with_z else None
    return fac, dfac_dalpha, dfac_dzi


def _psi_inputs(case):
    if case == "2d-grid":
        d = Domain([0.0, 0.0], [10.0, 10.0])
        return regular_grid(d, 6), HyperParams(4.0, [3.7, 5.2]), d
    if case == "2d-partly-shared":      # some coordinates repeat, others do not
        d = Domain([0.0, -1.0], [4.0, 3.0])
        Z = np.array([[0.5, 0.5], [0.5, 2.0], [2.0, 0.5], [2.0, 2.7], [3.1, -0.4],
                      [1.3, 2.0], [0.5, 1.1]])
        return Z, HyperParams(1.7, [0.8, 1.3]), d
    d = Domain([1851.0], [1962.0])
    return regular_grid(d, 16), HyperParams(12.0, [493.0]), d


@pytest.mark.parametrize("case", ["2d-grid", "2d-partly-shared", "1d-grid"])
@pytest.mark.parametrize("wrt", [(), ("log_alpha",), ("Z",), ("log_alpha", "Z")])
def test_psi_on_distinct_coordinates_is_bit_identical_to_all_pairs(case, wrt):
    # the log-alpha partials always come; a request naming Z also forms Z's
    with_z = "Z" in wrt
    Z, h, d = _psi_inputs(case)
    for r in range(h.dims):
        got = _psi_dim_factors(Z, h, d, r, with_z)
        want = psi_dim_factors_all_pairs(Z, h, d, r, with_z)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.shape == w.shape and np.array_equal(g, w)
    # and the product over dimensions, with each partial's other factors
    psi, dpsi_dla, dpsi_dzi = psi_with_partials(Z, h, d, with_z)
    facs = np.array([psi_dim_factors_all_pairs(Z, h, d, r, with_z)[0] for r in range(h.dims)])
    assert np.array_equal(psi, h.gamma**2 * facs.prod(axis=0))
    for r in range(h.dims):
        others = h.gamma**2 * np.delete(facs, r, axis=0).prod(axis=0)
        _, dfac_da, dfac_dz = psi_dim_factors_all_pairs(Z, h, d, r, with_z)
        assert np.array_equal(dpsi_dla[r], others * dfac_da * h.alpha[r])
        if with_z:
            assert np.array_equal(dpsi_dzi[r], others * dfac_dz)
        else:
            assert dpsi_dzi is None
    # Psi and its log-alpha partials round the same whether Z's are formed or not
    other = psi_with_partials(Z, h, d, not with_z)
    assert np.array_equal(other[0], psi) and np.array_equal(other[1], dpsi_dla)
