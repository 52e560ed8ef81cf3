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


def kernel_eval(x, x2, h: HyperParams) -> float:
    """Kernel value at a single pair of points."""
    a = np.asarray(x, dtype=float).reshape(-1)
    b = np.asarray(x2, dtype=float).reshape(-1)
    if a.shape[0] != h.dims or b.shape[0] != h.dims:
        raise ValueError("point dimensionality does not match hyperparameters")
    return float(h.gamma * np.exp(-np.sum((a - b) ** 2 / (2.0 * h.alpha))))


def gram(A, B, h: HyperParams) -> np.ndarray:
    """Gram matrix with entries K(A_i, B_j).

    ``gram(A, A)`` is exactly symmetric, so its transpose is an F-contiguous
    view holding the same values, which :func:`vbpp.core.chol_with_jitter`
    factors in place.  Built in one output buffer, in blocks of whole rows
    and at most GRAM_BLOCK entries; when R > 1 each dimension's terms go
    through one scratch block, so the simulator's grids, whose n x m arrays
    reach gigabytes, need no second n x m array.  Every entry is the same
    elementwise arithmetic whatever the blocking.
    """
    A = as_points(A, h.dims)
    B = as_points(B, h.dims)
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m))
    rows = max(1, GRAM_BLOCK // max(m, 1))
    scratch = np.empty((min(rows, n), m)) if h.dims > 1 else None
    for i in range(0, n, rows):
        block = out[i:i + rows]
        for r in range(h.dims):
            term = block if r == 0 else scratch[:block.shape[0]]
            np.subtract.outer(A[i:i + rows, r], B[:, r], out=term)
            np.square(term, out=term)
            term *= -1.0 / (2.0 * h.alpha[r])
            if r:
                block += term
    np.exp(out, out=out)
    out *= h.gamma
    return out


def _psi_dim_factors(Z: np.ndarray, h: HyperParams, d: Domain, r: int, wrt):
    """Psi's factor for dimension ``r`` and the partials of it that ``wrt`` names.

    Returns (fac, dfac_dalpha, dfac_dzi), each (M, M); a partial is None
    unless ``wrt`` holds "log_alpha", respectively "Z".  ``dfac_dzi[i, j]``
    is the partial of fac[i, j] w.r.t. z_{i,r} (the partial w.r.t. z_{j,r}
    is its transpose).
    """
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
    dfac_dalpha = dfac_dzi = None
    if "log_alpha" in wrt or "Z" in wrt:
        e_lo = np.exp(-u_lo**2)
        e_hi = np.exp(-u_hi**2)
    if "log_alpha" in wrt:
        dE_da = (u_hi * e_hi - u_lo * e_lo) / (np.sqrt(np.pi) * a)
        dfac_dalpha = fac * (1.0 / (2.0 * a) + delta**2 / (4.0 * a**2)) + base * dE_da
    if "Z" in wrt:
        dfac_dzi = _dfac_dzi(fac, base, delta, a, s, e_lo, e_hi)
    return fac, dfac_dalpha, dfac_dzi


def _dfac_dzi(fac, base, delta, a, s, e_lo, e_hi):
    """Partial of one dimension's Psi factor [i, j] w.r.t. z_{i,r}."""
    dE_dzbar = (2.0 / (np.sqrt(np.pi) * s)) * (e_lo - e_hi)
    return fac * (-delta / (2.0 * a)) + base * (0.5 * dE_dzbar)


def psi_with_partials(Z, h: HyperParams, d: Domain, wrt=("log_alpha", "Z")):
    """Psi, the M x M matrix of integrals int_T K(z_i, x) K(x, z_j) dx, with
    the partials of it that ``wrt`` names.

    For the ARD exponentiated-quadratic kernel the product of kernels is a
    single exponentiated quadratic in x, so the integral factorises over
    dimensions into Gaussian-error-function terms.  Psi itself is computed
    the same way whatever ``wrt`` holds; the partials w.r.t. log alpha only
    when it holds "log_alpha", those w.r.t. Z only when it holds "Z" (other
    names are ignored, so the bound passes its gradient blocks through).

    Returns
    -------
    psi : (M, M)
    dpsi_dlog_alpha : (R, M, M) or None
        Partial w.r.t. log alpha_r.
    dpsi_dzi : (R, M, M) or None
        dpsi_dzi[r, i, j] is the partial of Psi[i, j] w.r.t. z_{i, r}.
    """
    Z = as_points(Z, h.dims)
    R, M = h.dims, Z.shape[0]
    facs = np.empty((R, M, M))
    dfacs = []
    for r in range(R):
        facs[r], *partials = _psi_dim_factors(Z, h, d, r, wrt)
        dfacs.append(partials)

    psi = h.gamma**2 * facs.prod(axis=0)
    dpsi_dlog_alpha = np.empty((R, M, M)) if "log_alpha" in wrt else None
    dpsi_dzi = np.empty((R, M, M)) if "Z" in wrt else None
    for r in range(R if "log_alpha" in wrt or "Z" in wrt else 0):
        others = h.gamma**2 * np.delete(facs, r, axis=0).prod(axis=0)
        dfac_da, dfac_dz = dfacs[r]
        if dpsi_dlog_alpha is not None:
            dpsi_dlog_alpha[r] = others * dfac_da * h.alpha[r]
        if dpsi_dzi is not None:
            dpsi_dzi[r] = others * dfac_dz
    return psi, dpsi_dlog_alpha, dpsi_dzi
