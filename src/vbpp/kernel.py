"""ARD exponentiated-quadratic kernel, Gram matrices and the closed-form
domain integral of a kernel product (the Psi matrix).

The kernel is K(x, x') = gamma * prod_r exp(-(x_r - x'_r)^2 / (2 alpha_r)),
with a per-dimension scale alpha_r in units of squared input distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .pointdata import Domain, as_points

GRAM_BLOCK = 2**17                  # entries in gram's per-dimension scratch block


@dataclass(frozen=True)
class HyperParams:
    """Kernel output variance gamma, per-dimension scales alpha, prior mean u_bar."""

    gamma: float
    alpha: np.ndarray
    u_bar: float = 0.0

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (alpha > 0).all():
            raise ValueError("every alpha[r] must be positive")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "u_bar", float(self.u_bar))
        self.alpha.setflags(write=False)

    @property
    def dims(self) -> int:
        return self.alpha.shape[0]


def sq_diffs(A: np.ndarray, B: np.ndarray, out=None):
    """(A[i, r] - B[j, r])^2 per dimension: R n x m arrays, in ``out`` if given."""
    if out is None:
        out = np.empty((A.shape[1], A.shape[0], B.shape[0]))
    for r, term in enumerate(out):
        np.subtract.outer(A[:, r], B[:, r], out=term)
        np.square(term, out=term)
    return out


def kernel_from_sq(sq, h: HyperParams, out=None, overwrite_sq: bool = False) -> np.ndarray:
    """gamma * exp(sum_r -sq[r] / (2 alpha_r)), in ``out`` when given: the
    kernel's arithmetic, shared by :func:`gram` and the bound.  The terms
    r >= 1 are scaled in sq[1] when ``overwrite_sq``, else in a temporary."""
    out = np.multiply(sq[0], -1.0 / (2.0 * h.alpha[0]), out=out)
    for r in range(1, h.dims):
        out += np.multiply(sq[r], -1.0 / (2.0 * h.alpha[r]), out=sq[1] if overwrite_sq else None)
    np.exp(out, out=out)
    out *= h.gamma
    return out


def gram(A, B, h: HyperParams) -> np.ndarray:
    """Gram matrix with entries K(A_i, B_j).

    ``gram(A, A)`` is exactly symmetric, so its transpose is an F-contiguous
    view holding the same values, which the simulator factors in place with
    :func:`vbpp.core.cholesky`.  Built in one output buffer, in blocks of
    whole rows and at most GRAM_BLOCK entries; each dimension after the first
    goes through a scratch block, so the simulator's grids, whose n x m arrays
    reach gigabytes, need no second n x m array.  Every entry is the same
    elementwise arithmetic whatever the blocking.
    """
    A = as_points(A, h.dims)
    B = as_points(B, h.dims)
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m))
    rows = max(1, GRAM_BLOCK // max(m, 1))
    scratch = np.empty((h.dims - 1, min(rows, n), m))
    for i in range(0, n, rows):
        block = out[i:i + rows]
        sq = sq_diffs(A[i:i + rows], B, out=[block, *scratch[:, :block.shape[0]]])
        kernel_from_sq(sq, h, out=block, overwrite_sq=True)
    return out


def _psi_dim_factors(Z: np.ndarray, h: HyperParams, d: Domain, r: int, with_z: bool):
    """Psi's factor for dimension ``r`` and its partials.

    Returns (fac, dfac_dalpha, dfac_dzi), each (M, M); dfac_dzi is None
    unless ``with_z``.  ``dfac_dzi[i, j]`` is the partial of fac[i, j] w.r.t.
    z_{i,r} (the partial w.r.t. z_{j,r} is its transpose).  For R > 1, where
    a grid repeats coordinates, all three are computed on the distinct
    coordinates and then expanded.
    """
    a = h.alpha[r]
    s = np.sqrt(a)
    z = Z[:, r]
    if h.dims > 1:
        z, inv = np.unique(z, return_inverse=True)
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
    out = fac, dfac_dalpha, dfac_dzi
    return tuple(f if f is None or h.dims == 1 else f[np.ix_(inv, inv)] for f in out)


def _dfac_dzi(fac, base, delta, a, s, e_lo, e_hi):
    """Partial of one dimension's Psi factor [i, j] w.r.t. z_{i,r}."""
    dE_dzbar = (2.0 / (np.sqrt(np.pi) * s)) * (e_lo - e_hi)
    return fac * (-delta / (2.0 * a)) + base * (0.5 * dE_dzbar)


def psi_with_partials(Z, h: HyperParams, d: Domain, with_z: bool = True):
    """Psi, the M x M matrix of integrals int_T K(z_i, x) K(x, z_j) dx, with
    its partials w.r.t. log alpha and, if ``with_z``, w.r.t. Z.

    For the ARD exponentiated-quadratic kernel the product of kernels is a
    single exponentiated quadratic in x, so the integral factorises over
    dimensions into Gaussian-error-function terms.  Psi and its log-alpha
    partials are computed the same way whatever ``with_z`` is.

    Returns
    -------
    psi : (M, M)
    dpsi_dlog_alpha : (R, M, M)
        Partial w.r.t. log alpha_r.
    dpsi_dzi : (R, M, M) or None
        dpsi_dzi[r, i, j] is the partial of Psi[i, j] w.r.t. z_{i, r}.
    """
    Z = as_points(Z, h.dims)
    R, M = h.dims, Z.shape[0]
    facs = np.empty((R, M, M))
    dfacs = []
    for r in range(R):
        facs[r], *partials = _psi_dim_factors(Z, h, d, r, with_z)
        dfacs.append(partials)

    psi = h.gamma**2 * facs.prod(axis=0)
    dpsi_dlog_alpha = np.empty((R, M, M))
    dpsi_dzi = np.empty((R, M, M)) if with_z else None
    for r in range(R):
        others = h.gamma**2 * facs[np.arange(R) != r].prod(axis=0)
        dfac_da, dfac_dz = dfacs[r]
        dpsi_dlog_alpha[r] = others * dfac_da * h.alpha[r]
        if with_z:
            dpsi_dzi[r] = others * dfac_dz
    return psi, dpsi_dlog_alpha, dpsi_dzi
