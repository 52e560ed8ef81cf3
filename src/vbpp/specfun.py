"""Evaluation of the special function behind E[log f^2] for Gaussian f.

The function of interest is the a = 0, b = 1/2 specialisation of the partial
derivative of the confluent hypergeometric function 1F1 with respect to its
first argument,

    gt(z) = 2 z sum_j j! z^j / ((2)_j (3/2)_j),     z <= 0,

equivalently sum_{k>=1} z^k / (k (1/2)_k).  Direct summation of the
alternating series loses all precision once |z| exceeds a few tens, so three
regimes are used, all summing the same function:

* |z| <= 14: the literal series, summed by its term recurrence;
* 14 < |z| <= 300: the Kummer-transformed, all-positive-terms form
  gt(-t) = -E_{K ~ Poisson(t)}[psi(K + 1/2) - psi(1/2)], evaluated over the
  bulk of the Poisson weights;
* |z| > 300: the asymptotic expansion
  gt(-t) = -(C + log 4t) + 1/(2t) + 3/(8t^2) + ... (C = Euler-Mascheroni).

``build_table`` and the reference ``g_tilde_series`` share one
implementation of the three regimes.  Bound evaluation goes through the
precomputed lookup table with log-uniform knots and linear interpolation;
its reported derivative is the slope of the active interval so that value
and derivative are exactly consistent.  Beyond the table the asymptotic
expansion gives the value and the closed form gt'(z) = 2 D(sqrt(-z)) /
sqrt(-z), with D the Dawson function, gives the derivative.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.special import dawsn, digamma, gammaln

EULER_MASCHERONI = 0.5772156649015329

_LITERAL_MAX = 14.0
_POISSON_MAX = 300.0
_SERIES_CAP = 400
_SERIES_T_MAX = 1e15                     # the asymptotic correction's largest t
_FOUR_T_MAX = np.finfo(float).max / 4.0  # the largest t whose 4t is finite

# Knot layout: z = -10^(k / KNOTS_PER_DECADE) spanning |z| in
# [10^LO_EXP, 10^HI_EXP], plus the knot z = 0.  Linear interpolation at this
# density keeps the relative error below 1e-6 everywhere (verified in tests).
KNOTS_PER_DECADE = 1024
LO_EXP = -8
HI_EXP = 5


class GTildeDomainError(ValueError):
    """Raised when the function is evaluated at a positive argument."""


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
        values[large] = _asymptotic_value(t[large])
    return values


def g_tilde_series(z: float) -> float:
    """Converged series value of the function at a nonpositive argument.

    Relative error is below 1e-10 for any z <= 0 representable in double
    precision; raises for z > 0.
    """
    if z > 0:
        raise GTildeDomainError(f"argument must be <= 0, got {z}")
    return float(_series(np.array([-float(z)]))[0])


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
    """Lookup table over log-uniform knots, densest near zero.

    The knots are z = -t_knots, with ``t_knots`` ascending strictly from 0
    (the array a lookup searches); ``values`` are the series values at the
    knots, and ``slopes[k]`` is the slope (values[k+1] - values[k]) /
    (z_{k+1} - z_k) of the interval from knot k to knot k+1.  All three
    are computed when the table is built and are read-only.
    """

    t_knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    @property
    def knots(self) -> np.ndarray:
        """The knots z, decreasing strictly from 0."""
        return -self.t_knots


def build_table() -> GTildeTable:
    """Tabulate the function at -10^(k / KNOTS_PER_DECADE) plus z = 0."""
    exps = np.arange(LO_EXP * KNOTS_PER_DECADE, HI_EXP * KNOTS_PER_DECADE + 1)
    t = 10.0 ** (exps / KNOTS_PER_DECADE)
    knots = np.concatenate([[0.0], -t])
    values = np.concatenate([[0.0], _series(t)])
    table = GTildeTable(t_knots=-knots, values=values,
                        slopes=np.diff(values) / np.diff(knots))
    for arr in table:
        arr.setflags(write=False)
    return table


@functools.cache
def default_table() -> GTildeTable:
    """Process-wide table, built on first use."""
    return build_table()


def _interpolate(table: GTildeTable, z: np.ndarray, t: np.ndarray):
    """(values, slopes) at arguments z = -t inside the table range.

    Each t lies in [0, t_knots[-1]].  The interval index lo is
    ``max(searchsorted(t_knots, t, side="left"), 1) - 1``, found in O(1): the
    knots are log-uniform, so (log10 t - LO_EXP) * KNOTS_PER_DECADE, lowered
    by 1e-6 against rounding and rounded up, is lo or lo - 1, and one
    comparison against the next knot settles which.
    """
    pos = (np.log10(np.maximum(t, table.t_knots[1])) - LO_EXP) * KNOTS_PER_DECADE - 1e-6
    lo = np.ceil(pos, out=pos).astype(np.intp)
    lo += table.t_knots[lo + 1] < t
    slope = table.slopes[lo]
    return table.values[lo] + slope * (z + table.t_knots[lo]), slope   # z - z_lo


def g_tilde_batch(z):
    """Interpolated (values, derivatives) at an array of nonpositive arguments.

    Both are arrays shaped like ``z`` (a scalar counts as one element).
    Within the table range the value is linear interpolation between knots
    and the derivative is the slope of the active interval, so the pair is
    exactly consistent under finite differencing.  Below the table range the
    asymptotic expansion takes over.  Every argument is looked up with its t
    capped at the table's end, so the lookup runs on the whole array without
    masks; the arguments beyond the table are then overwritten.
    """
    table = default_table()
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if (z > 0).any():
        raise GTildeDomainError("argument must be <= 0")

    t = -z
    t_max = table.t_knots[-1]
    t_in = np.fmin(t, t_max)             # NaN, like t beyond the table, looks up t_max
    values, slopes = _interpolate(table, -t_in, t_in)
    beyond = ~(t <= t_max)
    if beyond.any():
        tb = t[beyond]
        values[beyond] = _asymptotic_value(tb)
        slopes[beyond] = g_tilde_derivative(-tb)
    return values, slopes
