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
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, digamma, gammaln

EULER_MASCHERONI = 0.5772156649015329

_LITERAL_MAX = 14.0
_POISSON_MAX = 300.0
_SERIES_CAP = 400

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
    # expectation is taken over a +-12 sigma window of the Poisson weights.
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


def _asymptotic_value(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    corr = 1.0 / (2 * t) + 3.0 / (8 * t**2) + 5.0 / (8 * t**3) \
        + 105.0 / (64 * t**4) + 945.0 / (160 * t**5)
    return -(EULER_MASCHERONI + np.log(4.0 * t)) + corr


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


@dataclass(frozen=True)
class GTildeTable:
    """Lookup table over log-uniform knots, densest near zero.

    ``knots`` decrease strictly from 0; ``values`` are the series values at
    the knots.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for arr in (self.knots, self.values):
            arr.setflags(write=False)
        if self.knots[0] != 0.0 or (np.diff(self.knots) >= 0).any():
            raise ValueError("knots must decrease strictly from 0")
        if self.values[0] != 0.0:
            raise ValueError("value at zero must be 0")


def build_table() -> GTildeTable:
    """Tabulate the function at -10^(k / KNOTS_PER_DECADE) plus z = 0."""
    exps = np.arange(LO_EXP * KNOTS_PER_DECADE, HI_EXP * KNOTS_PER_DECADE + 1)
    t = 10.0 ** (exps / KNOTS_PER_DECADE)
    return GTildeTable(knots=np.concatenate([[0.0], -t]),
                       values=np.concatenate([[0.0], _series(t)]))


@functools.cache
def default_table() -> GTildeTable:
    """Process-wide table, built on first use."""
    return build_table()


def g_tilde_batch(z):
    """Interpolated (values, derivatives) at an array of nonpositive arguments.

    Both are arrays shaped like ``z`` (a scalar counts as one element).
    Within the table range the value is linear interpolation between knots
    and the derivative is the slope of the active interval, so the pair is
    exactly consistent under finite differencing.  Below the table range the
    asymptotic expansion takes over.
    """
    table = default_table()
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if (z > 0).any():
        raise GTildeDomainError("argument must be <= 0")

    pos = -table.knots           # ascending: 0, 1e-8, ..., 10^HI_EXP
    t = -z
    values = np.empty_like(t)
    slopes = np.empty_like(t)

    inside = t <= pos[-1]
    if inside.any():
        ti = t[inside]
        hi_idx = np.searchsorted(pos, ti, side="left")
        hi_idx = np.clip(hi_idx, 1, pos.size - 1)
        lo_idx = hi_idx - 1
        z_hi, z_lo = table.knots[hi_idx], table.knots[lo_idx]
        v_hi, v_lo = table.values[hi_idx], table.values[lo_idx]
        slope = (v_hi - v_lo) / (z_hi - z_lo)
        values[inside] = v_lo + slope * (-ti - z_lo)
        slopes[inside] = slope
    beyond = ~inside
    if beyond.any():
        tb = t[beyond]
        values[beyond] = _asymptotic_value(tb)
        slopes[beyond] = g_tilde_derivative(-tb)
    return values, slopes
