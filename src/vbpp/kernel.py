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


def kernel_eval(x, x2, h: HyperParams) -> float:
    """Kernel value at a single pair of points."""
    a = np.asarray(x, dtype=float).reshape(-1)
    b = np.asarray(x2, dtype=float).reshape(-1)
    if a.shape[0] != h.dims or b.shape[0] != h.dims:
        raise ValueError("point dimensionality does not match hyperparameters")
    return float(h.gamma * np.exp(-np.sum((a - b) ** 2 / (2.0 * h.alpha))))


def sq_dists_per_dim(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (R, n, m)."""
    return (A[:, None, :] - B[None, :, :]).transpose(2, 0, 1) ** 2


def gram(A, B, h: HyperParams) -> np.ndarray:
    """Gram matrix with entries K(A_i, B_j); symmetric PSD when A is B.

    Built in one output buffer, plus one scratch buffer when R > 1: the
    simulator's grids make n x m arrays of tens of megabytes.
    """
    A = as_points(A, h.dims)
    B = as_points(B, h.dims)
    out = np.empty((A.shape[0], B.shape[0]))
    scratch = np.empty_like(out) if h.dims > 1 else None
    for r in range(h.dims):
        term = out if r == 0 else scratch
        np.subtract.outer(A[:, r], B[:, r], out=term)
        np.square(term, out=term)
        term *= -1.0 / (2.0 * h.alpha[r])
        if r:
            out += term
    np.exp(out, out=out)
    out *= h.gamma
    return out


def _psi_dim_factors(Z: np.ndarray, h: HyperParams, d: Domain, r: int):
    """Per-dimension Psi factor and its partials.

    Returns (fac, dfac_dalpha, dfac_dzi) for dimension ``r``, each (M, M).
    ``dfac_dzi[i, j]`` is the partial of fac[i, j] w.r.t. z_{i,r} (the partial
    w.r.t. z_{j,r} is its transpose).
    """
    a = h.alpha[r]
    s = np.sqrt(a)
    z = Z[:, r]
    delta = z[:, None] - z[None, :]
    zbar = 0.5 * (z[:, None] + z[None, :])
    u_lo = (zbar - d.lo[r]) / s
    u_hi = (zbar - d.hi[r]) / s
    e_lo = np.exp(-u_lo**2)
    e_hi = np.exp(-u_hi**2)
    E = erf(u_lo) - erf(u_hi)
    base = (np.sqrt(np.pi) * s / 2.0) * np.exp(-(delta**2) / (4.0 * a))
    fac = base * E

    dE_da = (u_hi * e_hi - u_lo * e_lo) / (np.sqrt(np.pi) * a)
    dfac_dalpha = fac * (1.0 / (2.0 * a) + delta**2 / (4.0 * a**2)) + base * dE_da

    dE_dzbar = (2.0 / (np.sqrt(np.pi) * s)) * (e_lo - e_hi)
    dfac_dzi = fac * (-delta / (2.0 * a)) + base * (0.5 * dE_dzbar)
    return fac, dfac_dalpha, dfac_dzi


def psi_with_partials(Z, h: HyperParams, d: Domain):
    """Psi, the M x M matrix of integrals int_T K(z_i, x) K(x, z_j) dx, with
    the partials the bound's gradient needs.

    For the ARD exponentiated-quadratic kernel the product of kernels is a
    single exponentiated quadratic in x, so the integral factorises over
    dimensions into Gaussian-error-function terms.

    Returns
    -------
    psi : (M, M)
    dpsi_dlog_alpha : (R, M, M)
        Partial w.r.t. log alpha_r.
    dpsi_dzi : (R, M, M)
        dpsi_dzi[r, i, j] is the partial of Psi[i, j] w.r.t. z_{i, r}.
    """
    Z = as_points(Z, h.dims)
    R, M = h.dims, Z.shape[0]
    facs = np.empty((R, M, M))
    dfac_da = np.empty((R, M, M))
    dfac_dz = np.empty((R, M, M))
    for r in range(R):
        facs[r], dfac_da[r], dfac_dz[r] = _psi_dim_factors(Z, h, d, r)

    psi = h.gamma**2 * np.prod(facs, axis=0)
    dpsi_dlog_alpha = np.empty((R, M, M))
    dpsi_dzi = np.empty((R, M, M))
    for r in range(R):
        others = h.gamma**2 * np.prod(np.delete(facs, r, axis=0), axis=0) if R > 1 \
            else np.full((M, M), h.gamma**2)
        dpsi_dlog_alpha[r] = others * dfac_da[r] * h.alpha[r]
        dpsi_dzi[r] = others * dfac_dz[r]
    return psi, dpsi_dlog_alpha, dpsi_dzi
