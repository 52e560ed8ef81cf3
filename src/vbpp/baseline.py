"""Kernel-smoothing benchmark with truncated-normal kernels.

The smoothed intensity is lambda(x) = sum_n N_T(x; x_n, Sigma) with a
diagonal bandwidth matrix chosen by maximising the leave-one-out objective
sum_i log sum_{j != i} N_T(x_i; x_j, Sigma).  Each kernel is renormalised
to integrate to one inside the domain (end correction), so the intensity
integrates exactly to N there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from .pointdata import Domain, EventSet, as_points, write_json

SIGMA_FLOOR_FRAC = 1e-3   # of the domain extent; guards the duplicate-point collapse
SIGMA_CEIL_FRAC = 10.0
# numpy's exp is 10-100x slower per element where the result falls below
# about e^-708, so leave-one-out kernel terms below e^-700 are cut to zero.
LOG_KERNEL_CUT = -700.0


class InsufficientDataError(ValueError):
    """Raised when leave-one-out bandwidth selection has fewer than 2 points."""


@dataclass(frozen=True)
class KsModel:
    """Training events plus the selected per-dimension bandwidths."""

    train: EventSet
    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if not (sigma > 0).all():
            raise ValueError("all bandwidths must be positive")
        object.__setattr__(self, "sigma", sigma)
        self.sigma.setflags(write=False)


def _dim_pdfs(x: np.ndarray, centers: np.ndarray, sigma: np.ndarray,
              d: Domain) -> np.ndarray:
    """Product over dimensions of 1-D normal pdfs truncated to the domain.

    x: (n, R), centers: (m, R) -> (n, m).
    """
    out = np.ones((x.shape[0], centers.shape[0]))
    for r in range(d.dims):
        s = sigma[r]
        z = (x[:, r][:, None] - centers[:, r][None, :]) / s
        pdf = np.exp(-0.5 * z**2) / (s * np.sqrt(2.0 * np.pi))
        mass = ndtr((d.hi[r] - centers[:, r]) / s) - ndtr((d.lo[r] - centers[:, r]) / s)
        pdf = pdf / mass[None, :]
        out *= pdf
    return out


def truncnorm_pdf(x, center, sigma, d: Domain) -> float:
    """Density of a diagonal normal centred at ``center``, renormalised to
    unit mass on the domain."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    center = np.asarray(center, dtype=float).reshape(1, -1)
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return float(_dim_pdfs(x, center, sigma, d)[0, 0])


def _loo(train: EventSet, d: Domain):
    """The leave-one-out objective of ``train`` as a function of sigma.

    The per-dimension squared differences are built once.  The diagonal is
    zeroed, never subtracted from the row sums: at the floor bandwidth an
    isolated point's row sum is far below the diagonal term and would cancel
    to zero.  Exponents are clipped at LOG_KERNEL_CUT and e^LOG_KERNEL_CUT
    is taken off every term, so clipped terms are exactly zero and terms
    above 1e-288 are unchanged.
    """
    X = train.points
    half_sq = [-0.5 * (X[:, r][:, None] - X[:, r][None, :]) ** 2 for r in range(d.dims)]
    buf = np.empty_like(half_sq[0])
    cut = np.exp(LOG_KERNEL_CUT)

    def objective(sigma) -> float:
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        np.multiply(half_sq[0], sigma[0] ** -2, out=buf)
        for r in range(1, d.dims):
            np.add(buf, half_sq[r] * sigma[r] ** -2, out=buf)
        np.maximum(buf, LOG_KERNEL_CUT, out=buf)
        np.exp(buf, out=buf)
        np.subtract(buf, cut, out=buf)
        np.fill_diagonal(buf, 0.0)
        weight = np.full(X.shape[0], (2.0 * np.pi) ** (-d.dims / 2) / np.prod(sigma))
        for r in range(d.dims):
            s = sigma[r]
            weight /= ndtr((d.hi[r] - X[:, r]) / s) - ndtr((d.lo[r] - X[:, r]) / s)
        row = buf @ weight
        if (row <= 0).any():
            return -np.inf
        return float(np.sum(np.log(row)))

    return objective


def loo_objective(train: EventSet, sigma, d: Domain) -> float:
    """sum_i log sum_{j != i} N_T(x_i; x_j, Sigma)."""
    return _loo(train, d)(sigma)


def fit_bandwidth(train: EventSet, d: Domain) -> KsModel:
    """Select the diagonal bandwidth by maximising the leave-one-out objective.

    Coordinate-wise bounded scalar maximisation in log space, from eight
    fixed starts (log-uniform in the allowed band) in two or more dimensions.
    A start only sets the coordinates that a search holds fixed, so in 1-D
    the result is one bounded search over the whole band.  Bandwidths are
    confined to [1e-3, 10] times the per-dimension extent; the lower floor is
    load-bearing for duplicate points, where the raw objective is unbounded.
    """
    if train.n < 2:
        raise InsufficientDataError("leave-one-out bandwidth selection needs N >= 2")
    R = d.dims
    lo = np.log(SIGMA_FLOOR_FRAC * d.extent)
    hi = np.log(SIGMA_CEIL_FRAC * d.extent)

    loo = _loo(train, d)

    def objective(log_sigma):
        return loo(np.exp(log_sigma))

    n_starts, n_sweeps = (1, 1) if R == 1 else (8, 4)
    rng = np.random.Generator(np.random.Philox(key=[0, 0x4B53]))
    starts = [lo + rng.random(R) * (hi - lo) for _ in range(n_starts)]

    best_ls, best_val = None, -np.inf
    for start in starts:
        ls = start.copy()
        val = objective(ls)
        for _ in range(n_sweeps):                # coordinate sweeps
            for r in range(R):
                def along(t, r=r, ls=ls):
                    trial = ls.copy()
                    trial[r] = t
                    return -objective(trial)
                res = minimize_scalar(along, bounds=(lo[r], hi[r]), method="bounded",
                                      options={"xatol": 1e-8})
                ls[r] = res.x
            new_val = objective(ls)
            if new_val - val < 1e-10:
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val, best_ls = val, ls
    return KsModel(train=train, sigma=np.exp(best_ls))


def ks_intensity(model: KsModel, query, d: Domain) -> np.ndarray:
    """Smoothed intensity lambda(x) = sum_n N_T(x; x_n, Sigma) at each query point."""
    return _dim_pdfs(as_points(query, d.dims), model.train.points, model.sigma, d).sum(axis=1)


def ks_log_predictive(model: KsModel, test: EventSet, d: Domain) -> float:
    """Held-out log-likelihood of the kernel-smoothing predictive.

    Combines a Poisson(N) count distribution with the per-point location
    density (1/N) sum_n N_T(.; x_n, Sigma*); the K! permutation factor
    cancels.  The domain integral of the intensity is exactly N.
    """
    n = model.train.n
    k = test.n
    if k == 0:
        return float(-n)
    loc = ks_intensity(model, test.points, d) / n
    with np.errstate(divide="ignore"):
        # a zero density far from any training point legitimately gives -inf
        return float(k * np.log(n) - n + np.sum(np.log(loc)))


def save_ks_model(model: KsModel, path, train_ref: str | None = None) -> None:
    doc = {
        "sigma": model.sigma.tolist(),
        "train_ref": train_ref,
        "n_train": model.train.n,
    }
    write_json(doc, path)
