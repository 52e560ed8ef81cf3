import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from vbpp import specfun
from vbpp.specfun import (
    GTildeDomainError,
    build_table,
    g_tilde_batch,
    g_tilde_derivative,
    g_tilde_series,
)


def dawsn_integral_oracle(z: float) -> float:
    """Independent route: the function equals -4 int_0^sqrt(-z) D(u) du."""
    val, _ = quad(dawsn, 0.0, np.sqrt(-z), epsabs=1e-14, epsrel=1e-13)
    return -4.0 * val


def test_value_at_zero():
    assert g_tilde_series(0.0) == 0.0
    v, s = g_tilde_batch(np.array([0.0]))
    assert v[0] == 0.0
    assert s[0] == pytest.approx(2.0, rel=1e-6)


def test_frozen_reference_values():
    # frozen from the series, independently confirmed by the Dawson-integral
    # oracle to machine precision
    assert g_tilde_series(-0.5) == pytest.approx(-0.8533712085920896, rel=1e-13)
    assert g_tilde_series(-1.0) == pytest.approx(-1.4788832601981585, rel=1e-13)
    assert g_tilde_series(-2.5) == pytest.approx(-2.597445996751937, rel=1e-13)
    assert g_tilde_series(-100.0) == pytest.approx(-6.563642069983954, rel=1e-13)


@pytest.mark.parametrize("z", [-1e-6, -0.03, -0.9, -7.0, -13.9, -14.1, -55.0,
                               -299.0, -301.0, -4e3, -8e4])
def test_series_matches_dawsn_oracle(z):
    assert g_tilde_series(z) == pytest.approx(dawsn_integral_oracle(z), rel=1e-10)


def test_regime_boundaries_are_seamless():
    # adjacent evaluations straddling the internal regime switches agree
    for t in (specfun._LITERAL_MAX, specfun._POISSON_MAX):
        below = g_tilde_series(-(t - 1e-9))
        above = g_tilde_series(-(t + 1e-9))
        assert below == pytest.approx(above, rel=1e-9)


def test_rejects_positive_argument():
    with pytest.raises(GTildeDomainError):
        g_tilde_series(0.5)
    with pytest.raises(GTildeDomainError):
        g_tilde_batch(np.array([-1.0, 1e-9]))
    with pytest.raises(GTildeDomainError):
        g_tilde_derivative(2.0)


def test_derivative_closed_form_vs_series_fd():
    for z in (-0.01, -0.7, -3.0, -40.0):
        h = 1e-6 * max(1.0, abs(z))
        fd = (g_tilde_series(z + h) - g_tilde_series(z - h)) / (2 * h)
        assert g_tilde_derivative(z) == pytest.approx(fd, rel=1e-7)


def test_monte_carlo_identity():
    # E[log f^2] = -gt(-mu^2/(2 s^2)) + log(s^2/2) - C for f ~ N(mu, s^2)
    rng = np.random.default_rng(42)
    for mu, sd in [(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (-0.3, 2.0)]:
        f = rng.normal(mu, sd, 2_000_000)
        samples = np.log(f**2)
        closed = (-g_tilde_series(-mu**2 / (2 * sd**2))
                  + np.log(sd**2 / 2.0) - specfun.EULER_MASCHERONI)
        se = samples.std() / np.sqrt(samples.size)
        assert abs(closed - samples.mean()) < 3.5 * se


def test_table_interpolation_accuracy():
    rng = np.random.default_rng(7)
    z = -10.0 ** rng.uniform(-7, 4, 400)
    vals, _ = g_tilde_batch(z)
    for zi, vi in zip(z, vals):
        assert vi == pytest.approx(g_tilde_series(zi), rel=1e-6)


def test_table_exact_at_knots():
    table = specfun.default_table()
    idx = [0, 1, 100, 5000, table.knots.size - 1]
    vals, _ = g_tilde_batch(table.knots[idx])
    assert np.array_equal(vals, table.values[idx])


def test_table_value_slope_consistency():
    # the reported derivative is the active interval's slope, so a small
    # finite difference of the interpolated value reproduces it exactly
    for z in (-1e-5, -0.02, -3.0, -700.0):
        v0, s0 = g_tilde_batch(z)
        h = 1e-9 * abs(z)
        v1, _ = g_tilde_batch(z - h)
        assert (v1 - v0) / (-h) == pytest.approx(s0, rel=1e-5)


def test_monotone_decreasing():
    # z sorted descending towards -inf, so the values must strictly decrease
    z = -np.logspace(-6, 5, 500)
    vals, _ = g_tilde_batch(z)
    assert (np.diff(vals) < 0).all()


def test_beyond_table_range_uses_asymptotics():
    v, s = g_tilde_batch(np.array([-1e7]))
    assert v[0] == pytest.approx(g_tilde_series(-1e7), rel=1e-10)
    assert s[0] == pytest.approx(g_tilde_derivative(-1e7), rel=1e-10)


def test_small_table_build():
    table = build_table()
    assert table.knots.size == 13_314
    assert table.knots[-1] == pytest.approx(-1e5, rel=1e-12)
    # knots near zero and in each of the literal, Poisson and asymptotic regimes
    for i in (1, 4097, 9000, 10000, 12000, table.knots.size - 1):
        assert table.values[i] == pytest.approx(dawsn_integral_oracle(table.knots[i]),
                                                rel=1e-10)
