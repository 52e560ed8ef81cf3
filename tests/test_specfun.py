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
)

# The series oracle sums the function in three regimes: the literal series up
# to |z| = _LITERAL_MAX, its Kummer-transformed Poisson form up to
# _POISSON_MAX, and the asymptotic expansion beyond.
_LITERAL_MAX = 14.0
_POISSON_MAX = 300.0
_SERIES_CAP = 400


def _series_poisson(t: np.ndarray) -> np.ndarray:
    # gt(-t) = -(E_{K~Poisson(t)}[digamma(K + 1/2)] - digamma(1/2)); the
    # expectation is taken over a +-12 sigma window of the Poisson weights,
    # which each t slices out of per-k lookups shared by all t.
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    psi_half = digamma(0.5)
    ks = np.arange(int(t.max() + 12.0 * np.sqrt(t.max()) + 30.0) + 2)
    log_fact, psi = gammaln(ks + 1.0), digamma(ks + 0.5)
    for i, ti in enumerate(t):
        half = 12.0 * np.sqrt(ti) + 30.0
        a, b = max(0, int(ti - half)), int(ti + half) + 1
        logw = ks[a:b] * np.log(ti) - log_fact[a:b] - ti
        w = np.exp(logw - logw.max())
        w /= w.sum()
        out[i] = -(w @ psi[a:b] - psi_half)
    return out


def _series(t: np.ndarray) -> np.ndarray:
    """The function at -t for an array of t >= 0, in the three regimes."""
    values = np.empty_like(t)
    small = t <= _LITERAL_MAX
    mid = (~small) & (t <= _POISSON_MAX)
    large = t > _POISSON_MAX
    # 2z * sum_j t_j with t_0 = 1, t_{j+1} = t_j * z (j+1) / ((j+2)(j+3/2)), for all z at once.
    if small.any():
        zs = -t[small]
        term = np.ones_like(zs)
        total = np.zeros_like(zs)
        for j in range(_SERIES_CAP):
            total += term
            if j > 3 and (np.abs(term) < 1e-17 * np.abs(total)).all():
                break
            term = term * zs * (j + 1) / ((j + 2) * (j + 1.5))
        values[small] = 2.0 * zs * total
    if mid.any():
        values[mid] = _series_poisson(t[mid])
    if large.any():
        values[large] = specfun._asymptotic_value(t[large])
    return values


def g_tilde_series(z: float) -> float:
    """Converged series value of the function at a nonpositive argument.

    Relative error is below 1e-10 for any z <= 0 representable in double
    precision; raises for z > 0.
    """
    if z > 0:
        raise GTildeDomainError(f"argument must be <= 0, got {z}")
    return float(_series(np.array([-float(z)]))[0])


def dawsn_integral_oracle(z: float) -> float:
    """Independent route: the function equals -4 int_0^sqrt(-z) D(u) du."""
    val, _ = quad(dawsn, 0.0, np.sqrt(-z), epsabs=1e-14, epsrel=1e-13)
    return -4.0 * val


def knot_values(table):
    """The function at every knot as the table holds it: each cubic's c0,
    and the last cubic at u = 1 for the last knot."""
    return np.append(table.cubics[0], table.cubics[:, -1].sum())


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
    for t in (_LITERAL_MAX, _POISSON_MAX):
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
    # below the table, across it and past its end
    rng = np.random.default_rng(7)
    t = 10.0 ** rng.uniform(-10, 5, 20_000)
    vals, _ = g_tilde_batch(-t)
    exact = _series(t)
    assert np.abs(vals / exact - 1.0).max() < 1e-8


def test_table_exact_at_knots():
    # a knot opens its own interval, where the cubic is the knot's value and
    # slope; the last knot closes the last interval
    table = specfun.default_table()
    vals, slopes = g_tilde_batch(table.knots)
    assert np.array_equal(vals[:-1], table.cubics[0])
    assert vals[-1] == pytest.approx(knot_values(table)[-1], rel=1e-15, abs=0)
    np.testing.assert_allclose(slopes, g_tilde_derivative(table.knots), rtol=1e-15, atol=0)


def test_table_is_c1_at_every_interior_knot():
    # the cubics on either side of a knot meet in value and in slope, and
    # so do the series' first two terms below the first knot
    table = specfun.default_table()
    c0, c1, c2, c3 = table.cubics
    left_value, left_slope = c0 + c1 + c2 + c3, c1 + 2.0 * c2 + 3.0 * c3
    np.testing.assert_allclose(left_value[:-1], c0[1:], rtol=1e-12, atol=0)
    np.testing.assert_allclose(left_slope[:-1], c1[1:], rtol=1e-12, atol=0)
    below = np.nextafter(table.knots[0], 0.0)
    for got, at_knot in zip(g_tilde_batch(below), g_tilde_batch(table.knots[0])):
        assert got[0] == pytest.approx(at_knot[0], rel=1e-12)


def test_table_value_slope_consistency():
    # the reported derivative is the interpolant's own, so a small finite
    # difference of the interpolated value reproduces it
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


def test_table_slopes_are_the_closed_form_derivative():
    # each cubic's c1 is its knot's slope in u, d g / du = -t gt'(-t) / (du / dlog t)
    table = specfun.default_table()
    per_log = specfun.KNOTS_PER_DECADE / np.log(10.0)
    t = table.t_knots[:-1]
    assert np.array_equal(table.cubics[1], -t * g_tilde_derivative(-t) / per_log)


def test_small_table_build():
    table = build_table()
    assert table.knots.size == 833
    assert table.knots[0] == pytest.approx(-1e-8, rel=1e-15)
    assert table.knots[-1] == pytest.approx(-1e5, rel=1e-15)
    np.testing.assert_allclose(np.diff(np.log10(table.t_knots)), 1.0 / 64, rtol=1e-10)
    assert table.cubics.shape == (4, 832)
    for arr in table:
        assert not arr.flags.writeable


def test_knot_values_match_the_dawson_integral_oracle():
    table = specfun.default_table()
    oracle = np.array([dawsn_integral_oracle(z) for z in table.knots])
    np.testing.assert_allclose(knot_values(table), oracle, rtol=1e-12, atol=0)


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


def test_poisson_regime_from_shared_lookups_is_bit_identical():
    # the oracle's Poisson regime slices its per-k lookups from arrays shared
    # by all t; each t must get the bits of its own window
    grid = 10.0 ** (np.arange(1174, 2537) / 1024)      # 1024 per decade in (14, 300]
    edges = np.array([np.nextafter(14.0, 0.0), np.nextafter(14.0, np.inf),
                      np.nextafter(300.0, 0.0), np.nextafter(300.0, np.inf)])
    for t in (grid, edges):
        want = _series_poisson_per_knot(t)
        assert np.array_equal(_series_poisson(t), want)
        # one element at a time, as g_tilde_series calls it
        assert np.array_equal([_series_poisson(np.array([ti]))[0] for ti in t], want)


def _interpolate_by_search(table, t):
    """The table's lookup at -t with the interval found by binary search."""
    lo = np.minimum(np.searchsorted(table.t_knots, t, side="right") - 1, table.t_knots.size - 2)
    c0, c1, c2, c3 = table.cubics[:, lo]
    scale = specfun.KNOTS_PER_DECADE / np.log(10.0)
    u = np.log(t / table.t_knots[lo]) * scale
    return c0 + u * (c1 + u * (c2 + u * c3)), -(c1 + u * (2.0 * c2 + 3.0 * u * c3)) * scale / t


def test_constant_time_interval_index_matches_binary_search():
    table = specfun.default_table()
    tk = table.t_knots
    rng = np.random.default_rng(7)
    t = np.concatenate([
        tk, np.nextafter(tk, np.inf), np.nextafter(tk, -np.inf),   # knots and neighbours
        10.0 ** rng.uniform(-8.0, 5.0, 1_000_000),
    ])
    t = t[(t >= tk[0]) & (t <= tk[-1])]       # the table's range; beyond it is asymptotic
    want = _interpolate_by_search(table, t)
    got = specfun._interpolate(table, t)
    batch = g_tilde_batch(-t)
    for g, b, w in zip(got, batch, want):
        assert np.array_equal(g, w)
        assert np.array_equal(b, w)
