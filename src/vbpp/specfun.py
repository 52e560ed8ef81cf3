"""Evaluation of the special function behind E[log f^2] for Gaussian f.

The function of interest is the a = 0, b = 1/2 specialisation of the partial
derivative of the confluent hypergeometric function 1F1 with respect to its
first argument,

    gt(z) = 2 z sum_j j! z^j / ((2)_j (3/2)_j),     z <= 0,

equivalently sum_{k>=1} z^k / (k (1/2)_k).  It has the integral form

    gt(-t) = -4 int_0^sqrt(t) D(s) ds,

with D the Dawson function, so its derivative is gt'(z) = 2 D(sqrt(-z)) /
sqrt(-z).  Bound evaluation goes through a precomputed table of knots
log-uniform in t = -z, whose values are that integral by Gauss-Legendre
quadrature between neighbouring knots, summed in order.  Between knots the
table interpolates by cubic Hermite in log t with the closed-form slopes, so
the lookup is C^1 and its reported derivative is the interpolant's own.
Below the first knot the series' first two terms 2z + (2/3) z^2 are exact to
rounding; beyond the last, the asymptotic expansion
gt(-t) = -(C + log 4t) + 1/(2t) + 3/(8t^2) + ... (C = Euler-Mascheroni)
gives the value and the closed form the derivative.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.special import dawsn

EULER_MASCHERONI = 0.5772156649015329

_SERIES_T_MAX = 1e15                     # the asymptotic correction's largest t
_FOUR_T_MAX = np.finfo(float).max / 4.0  # the largest t whose 4t is finite

# Knot layout: t = 10^(k / KNOTS_PER_DECADE) for |z| = t in [10^LO_EXP,
# 10^HI_EXP].  Cubic Hermite interpolation in log t at this density keeps the
# relative error below 1e-8 everywhere (verified in tests).
KNOTS_PER_DECADE = 64
LO_EXP = -8
HI_EXP = 5
_PER_LOG = KNOTS_PER_DECADE / np.log(10.0)   # knots per unit of log t
# Gauss-Legendre nodes per interval between knots, twice the four that already
# reach rounding against 40-digit values.
_QUADRATURE_NODES = 8


class GTildeDomainError(ValueError):
    """Raised when the function is evaluated at a positive argument."""


def _asymptotic_value(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    # Past t = 1e15 the series is below half an ulp of C + log 4t, so taking
    # it there changes no value and keeps its powers of t from overflowing.
    ts = np.minimum(t, _SERIES_T_MAX)
    corr = 1.0 / (2 * ts) + 3.0 / (8 * ts**2) + 5.0 / (8 * ts**3) \
        + 105.0 / (64 * ts**4) + 945.0 / (160 * ts**5)
    # log 4t in two factors where 4t would overflow; elsewhere the second
    # factor is 1 and its log adds exactly 0.
    t4 = np.minimum(t, _FOUR_T_MAX)
    return -(EULER_MASCHERONI + (np.log(4.0 * t4) + np.log(t / t4))) + corr


def g_tilde_derivative(z) -> np.ndarray | float:
    """Closed-form derivative 2 D(sqrt(-z)) / sqrt(-z); equals 2 at z = 0."""
    z = np.asarray(z, dtype=float)
    if (z > 0).any():
        raise GTildeDomainError("argument must be <= 0")
    t = -z
    root = np.sqrt(t)
    with np.errstate(invalid="ignore"):
        out = np.where(t > 0, 2.0 * dawsn(root) / np.where(root > 0, root, 1.0), 2.0)
    return out if out.ndim else float(out)


class GTildeTable(NamedTuple):
    """Lookup table over log-uniform knots z = -t_knots.

    ``t_knots`` ascends strictly (the array a lookup searches).  Column k of
    ``cubics`` holds the Horner coefficients (c0, c1, c2, c3) of the Hermite
    cubic c0 + u (c1 + u (c2 + u c3)) on knot k's interval, u = log(t /
    t_knots[k]) * KNOTS_PER_DECADE / log(10) in [0, 1]: c0 is the function
    at knot k and c1 its closed-form derivative there in u.  Both arrays
    are computed when the table is built and are read-only.
    """

    t_knots: np.ndarray
    cubics: np.ndarray

    @property
    def knots(self) -> np.ndarray:
        """The knots z, decreasing strictly from -10^LO_EXP."""
        return -self.t_knots


def build_table() -> GTildeTable:
    """Tabulate the function at z = -10^(k / KNOTS_PER_DECADE)."""
    exps = np.arange(LO_EXP * KNOTS_PER_DECADE, HI_EXP * KNOTS_PER_DECADE + 1)
    t = 10.0 ** (exps / KNOTS_PER_DECADE)
    # -4 int D over [sqrt t_{k-1}, sqrt t_k] (from 0 for the first knot), summed in order
    x, w = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
    roots = np.sqrt(np.concatenate([[0.0], t]))
    half, mid = 0.5 * np.diff(roots), 0.5 * (roots[1:] + roots[:-1])
    values = np.cumsum(-4.0 * half * (dawsn(mid[:, None] + half[:, None] * x) @ w))
    # the knots' slopes in u: d values / du = -t gt'(-t) / _PER_LOG
    d = -t * g_tilde_derivative(-t) / _PER_LOG
    dv = np.diff(values)
    cubics = np.array([values[:-1], d[:-1], 3.0 * dv - 2.0 * d[:-1] - d[1:],
                       d[:-1] + d[1:] - 2.0 * dv])
    table = GTildeTable(t_knots=t, cubics=cubics)
    for arr in table:
        arr.setflags(write=False)
    return table


@functools.cache
def default_table() -> GTildeTable:
    """Process-wide table, built on first use."""
    return build_table()


def _interpolate(table: GTildeTable, t: np.ndarray):
    """(values, slopes) at arguments z = -t with t in [t_knots[0], t_knots[-1]].

    The interval index lo is ``searchsorted(t_knots, t, side="right") - 1``,
    capped at the last interval, found in O(1): the knots are log-uniform,
    so (log10 t - LO_EXP) * KNOTS_PER_DECADE, raised by 1e-6 against rounding
    and rounded down, is lo or lo + 1, and one comparison against that knot
    settles which.
    """
    last = table.t_knots.size - 2
    pos = (np.log10(t) - LO_EXP) * KNOTS_PER_DECADE + 1e-6
    lo = np.floor(pos, out=pos).astype(np.intp)
    lo -= table.t_knots[lo] > t
    np.minimum(lo, last, out=lo)
    c0, c1, c2, c3 = table.cubics[:, lo]
    u = np.log(t / table.t_knots[lo]) * _PER_LOG
    values = c0 + u * (c1 + u * (c2 + u * c3))
    return values, -(c1 + u * (2.0 * c2 + 3.0 * u * c3)) * _PER_LOG / t


def g_tilde_batch(z):
    """Interpolated (values, derivatives) at an array of nonpositive arguments.

    Both are arrays shaped like ``z`` (a scalar counts as one element).
    Within the table range the value is the table's Hermite cubic and the
    derivative is that cubic's own, so the pair is consistent under finite
    differencing.  Every argument is looked up with its t held to the
    table's range, so the lookup runs on the whole array without masks; the
    arguments below and beyond the table are then overwritten, with the
    series' first two terms and the asymptotic expansion.
    """
    table = default_table()
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if (z > 0).any():
        raise GTildeDomainError("argument must be <= 0")

    t = -z
    t_min, t_max = table.t_knots[0], table.t_knots[-1]
    # NaN, like t beyond the table, looks up t_max
    values, slopes = _interpolate(table, np.fmax(np.fmin(t, t_max), t_min))
    below = t < t_min
    if below.any():
        zb = z[below]
        values[below] = zb * (2.0 + (2.0 / 3.0) * zb)
        slopes[below] = 2.0 + (4.0 / 3.0) * zb
    beyond = ~(t <= t_max)
    if beyond.any():
        tb = t[beyond]
        values[beyond] = _asymptotic_value(tb)
        slopes[beyond] = g_tilde_derivative(-tb)
    return values, slopes
