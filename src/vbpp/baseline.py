"""Kernel-smoothing benchmark with truncated-normal kernels.

The smoothed intensity is lambda(x) = sum_n N_T(x; x_n, Sigma) with a
diagonal bandwidth matrix chosen by maximising the leave-one-out objective
sum_i log sum_{j != i} N_T(x_i; x_j, Sigma).  Each kernel is renormalised
to integrate to one inside the domain (end correction), so the intensity
integrates exactly to N there.  The objective is summed in log space, row
by row, so it stays finite where every kernel term of a point underflows,
and it has an analytic gradient in log sigma, on which the search in two or
more dimensions runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .pointdata import Domain, EventSet, as_points, write_json

SIGMA_FLOOR_FRAC = 1e-3   # of the domain extent; guards the duplicate-point collapse
SIGMA_CEIL_FRAC = 10.0
# numpy's exp is 10-100x slower per element where the result falls below
# about e^-708, so leave-one-out exponents are clipped at -700 below their
# row's largest.
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


def _loo(train: EventSet, d: Domain):
    """The leave-one-out objective of ``train`` as a function of sigma.

    With kernel exponents s_ij and per-centre weights w_j (the normalisers,
    end correction included), each row is scaled by its largest
    off-diagonal exponent peak_i:

        value = sum_i (peak_i + log sum_{j != i} exp(s_ij - peak_i) w_j),

    so the value is finite for every sigma, even where all of a point's
    kernel terms underflow.  The per-dimension squared differences are built
    once.  Shifted exponents are clipped at LOG_KERNEL_CUT and the diagonal
    is zeroed after the exp, never subtracted from the row sums.

    ``objective(sigma, grad=True)`` returns (value, gradient in log sigma).
    With p_ij = exp(s_ij) w_j / sum_k exp(s_ik) w_k, the gradient along r is
    sum_ij p_ij ((x_ir - x_jr)^2 / sigma_r^2 - 1 - d log mass_jr / d log
    sigma_r), where mass_jr is centre j's kernel mass inside the domain.
    """
    X = train.points
    half_sq = [-0.5 * (X[:, r][:, None] - X[:, r][None, :]) ** 2 for r in range(d.dims)]
    buf = np.empty_like(half_sq[0])

    def objective(sigma, grad=False):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        np.multiply(half_sq[0], sigma[0] ** -2, out=buf)
        for r in range(1, d.dims):
            np.add(buf, half_sq[r] * sigma[r] ** -2, out=buf)
        np.fill_diagonal(buf, -np.inf)
        peak = buf.max(axis=1)
        np.subtract(buf, peak[:, None], out=buf)
        np.maximum(buf, LOG_KERNEL_CUT, out=buf)
        np.exp(buf, out=buf)
        np.fill_diagonal(buf, 0.0)
        a = (d.hi - X) / sigma                   # (N, R) standardised edges
        b = (d.lo - X) / sigma
        mass = ndtr(a) - ndtr(b)
        weight = (2.0 * np.pi) ** (-d.dims / 2) / np.prod(sigma) / mass.prod(axis=1)
        row = buf @ weight
        value = float(np.sum(peak) + np.sum(np.log(row)))
        if not grad:
            return value
        # responsibilities p_ij = k_ij w_j / row_i; each row sums to one
        np.multiply(buf, weight, out=buf)
        np.divide(buf, row[:, None], out=buf)
        # d log mass / d log sigma = (b phi(b) - a phi(a)) / mass
        dlog_mass = (b * np.exp(-0.5 * b**2) - a * np.exp(-0.5 * a**2)) \
            / (np.sqrt(2.0 * np.pi) * mass)
        g = [-2.0 * sigma[r] ** -2 * np.vdot(buf, half_sq[r]) for r in range(d.dims)]
        return value, np.array(g) - X.shape[0] - buf.sum(axis=0) @ dlog_mass

    return objective


def loo_objective(train: EventSet, sigma, d: Domain) -> float:
    """sum_i log sum_{j != i} N_T(x_i; x_j, Sigma)."""
    return _loo(train, d)(sigma)


def fit_bandwidth(train: EventSet, d: Domain) -> KsModel:
    """Select the diagonal bandwidth by maximising the leave-one-out objective.

    The search runs in log sigma, inside [1e-3, 10] times the per-dimension
    extent; the lower floor is load-bearing for duplicate points, where the
    raw objective is unbounded.  In 1-D it is one bounded scalar search over
    the band.  In two or more dimensions the objective has several basins,
    so L-BFGS-B on the analytic gradient runs from eight fixed starts
    (log-uniform in the band) and the best end point is kept.
    """
    from scipy.optimize import minimize, minimize_scalar   # here, so `import vbpp` skips it
    if train.n < 2:
        raise InsufficientDataError("leave-one-out bandwidth selection needs N >= 2")
    lo = np.log(SIGMA_FLOOR_FRAC * d.extent)
    hi = np.log(SIGMA_CEIL_FRAC * d.extent)
    loo = _loo(train, d)
    if d.dims == 1:
        res = minimize_scalar(lambda t: -loo(np.exp(t)), bounds=(lo[0], hi[0]),
                              method="bounded", options={"xatol": 1e-8})
        return KsModel(train=train, sigma=np.exp([res.x]))

    def negated(log_sigma):
        value, g = loo(np.exp(log_sigma), grad=True)
        return -value, -g

    rng = np.random.Generator(np.random.Philox(key=[0, 0x4B53]))
    starts = [lo + rng.random(d.dims) * (hi - lo) for _ in range(8)]
    ends = [minimize(negated, start, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)))
            for start in starts]
    return KsModel(train=train, sigma=np.exp(min(ends, key=lambda res: res.fun).x))


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
