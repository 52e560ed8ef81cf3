import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn, digamma, gammaln

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


def test_mixed_batch_equals_its_in_table_and_beyond_table_parts():
    # every argument is looked up at t capped to the table's end, and those
    # beyond it are overwritten; each part must keep the bits it has alone
    rng = np.random.default_rng(3)
    inside = np.concatenate([[0.0, -0.0, -1e5], -10.0 ** rng.uniform(-9, 5, 500)])
    beyond = np.concatenate([[np.nextafter(-1e5, -np.inf), -1e7, -1e300],
                             -10.0 ** rng.uniform(5, 60, 200)])
    z = np.concatenate([inside, beyond])
    order = rng.permutation(z.size)
    parts = [np.concatenate(p) for p in zip(g_tilde_batch(inside), g_tilde_batch(beyond))]
    for got, want in zip(g_tilde_batch(z[order]), parts):
        assert np.array_equal(got, want[order])
    assert np.array_equal(g_tilde_batch(beyond)[0], specfun._asymptotic_value(-beyond))


def _asymptotic_value_oracle(t):
    """The asymptotic expansion as one expression, overflowing for huge t."""
    corr = 1.0 / (2 * t) + 3.0 / (8 * t**2) + 5.0 / (8 * t**3) \
        + 105.0 / (64 * t**4) + 945.0 / (160 * t**5)
    return -(specfun.EULER_MASCHERONI + np.log(4.0 * t)) + corr


def test_asymptotic_value_is_bit_identical_to_the_one_expression():
    # the correction series is taken at min(t, 1e15); past 1e15 it is below
    # half an ulp of C + log 4t, so no value moves
    rng = np.random.default_rng(11)
    t = np.concatenate([10.0 ** rng.uniform(np.log10(300.0), 61.0, 1_000_000),
                        np.logspace(np.log10(300.0), 61.0, 10_001)[1:-1],
                        [1e15, np.nextafter(1e15, 0.0), np.nextafter(1e15, np.inf)]])
    assert np.array_equal(specfun._asymptotic_value(t), _asymptotic_value_oracle(t))


@pytest.mark.parametrize("t", [1e61, 1.7e61, 1e62, 1e300, np.finfo(float).max / 4.0,
                               np.finfo(float).max])
def test_asymptotic_value_is_finite_without_warnings_for_huge_t(t):
    # the suite turns a RuntimeWarning into an error, so an overflow fails here
    value = specfun._asymptotic_value(np.array([t]))
    assert np.isfinite(value).all()
    assert value[0] == pytest.approx(-(specfun.EULER_MASCHERONI + np.log(4.0) + np.log(t)),
                                     rel=1e-15)
    values, slopes = g_tilde_batch(np.array([-t]))
    assert np.isfinite(values).all() and np.isfinite(slopes).all()


def test_table_slopes_are_the_interval_slopes():
    table = specfun.default_table()
    k = np.array([0, 1, 4096, 9000, table.knots.size - 2])
    knots = table.knots
    expected = (table.values[k + 1] - table.values[k]) / (knots[k + 1] - knots[k])
    assert np.array_equal(table.slopes[k], expected)


def test_small_table_build():
    table = build_table()
    assert table.knots.size == 13_314
    assert table.knots[-1] == pytest.approx(-1e5, rel=1e-12)
    # knots near zero and in each of the literal, Poisson and asymptotic regimes
    for i in (1, 4097, 9000, 10000, 12000, table.knots.size - 1):
        assert table.values[i] == pytest.approx(dawsn_integral_oracle(table.knots[i]),
                                                rel=1e-10)


def _series_poisson_per_knot(t):
    """The Poisson regime as each knot once computed it, on its own window of k."""
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    psi_half = digamma(0.5)
    for i, ti in enumerate(t):
        half = 12.0 * np.sqrt(ti) + 30.0
        k = np.arange(max(0, int(ti - half)), int(ti + half) + 1)
        logw = k * np.log(ti) - gammaln(k + 1.0) - ti
        w = np.exp(logw - logw.max())
        w /= w.sum()
        out[i] = -(w @ digamma(k + 0.5) - psi_half)
    return out


def test_poisson_regime_from_shared_lookups_is_bit_identical(monkeypatch):
    table = specfun.default_table()
    tk = table.t_knots
    knots = tk[(tk > 14.0) & (tk <= 300.0)]
    assert knots.size == 1363
    edges = np.array([np.nextafter(14.0, 0.0), np.nextafter(14.0, np.inf),
                      np.nextafter(300.0, 0.0), np.nextafter(300.0, np.inf)])
    for t in (knots, edges):
        want = _series_poisson_per_knot(t)
        assert np.array_equal(specfun._series_poisson(t), want)
        # one element at a time, as g_tilde_series calls it
        assert np.array_equal([specfun._series_poisson(np.array([ti]))[0] for ti in t], want)
    monkeypatch.setattr(specfun, "_series_poisson", _series_poisson_per_knot)
    for new, old in zip(table, build_table()):
        assert np.array_equal(new, old)


def _interpolate_by_search(table, t):
    """Table interpolation at -t with the interval found by binary search."""
    lo = np.maximum(np.searchsorted(table.t_knots, t, side="left"), 1) - 1
    slope = table.slopes[lo]
    return table.values[lo] + slope * (-t + table.t_knots[lo]), slope


def test_constant_time_interval_index_matches_binary_search():
    table = specfun.default_table()
    tk = table.t_knots
    rng = np.random.default_rng(7)
    t = np.concatenate([
        tk, np.nextafter(tk, np.inf), np.nextafter(tk, -np.inf),   # knots and neighbours
        [0.0, 1e-300, 0.5 * tk[1], np.nextafter(tk[1], 0.0), tk[-1]],
        10.0 ** rng.uniform(-12.0, 5.0, 1_000_000),
    ])
    t = t[(t >= 0.0) & (t <= tk[-1])]         # the table's range; beyond it is asymptotic
    want = _interpolate_by_search(table, t)
    got = specfun._interpolate(table, -t, t)
    batch = g_tilde_batch(-t)
    for g, b, w in zip(got, batch, want):
        assert np.array_equal(g, w)
        assert np.array_equal(b, w)
