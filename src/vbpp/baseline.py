"""Kernel-smoothing benchmark with truncated-normal kernels.

The smoothed intensity is lambda(x) = sum_n N_T(x; x_n, Sigma) with a
diagonal bandwidth matrix chosen by maximising the leave-one-out objective
sum_i log sum_{j != i} N_T(x_i; x_j, Sigma).  Each kernel is renormalised
to integrate to one inside the domain (end correction), so the intensity
integrates exactly to N there.  One log-space kernel sum, taken row by row,
serves the objective, the intensity and the held-out score, so each stays
finite where every kernel term of a point underflows.  The objective has an
analytic gradient in log sigma.  In two or more dimensions the search scans
a log-spaced grid on the value alone and refines only the grid's peaks on
that gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .pointdata import Domain, EventSet, as_points, check_in_domain, tensor_grid, write_json

SIGMA_FLOOR_FRAC = 1e-3   # of the domain extent; guards the duplicate-point collapse
SIGMA_CEIL_FRAC = 10.0
SCAN_POINTS = 8   # per dimension of the log-sigma scan in two or more dimensions
MAX_STARTS = 8    # grid peaks refined by L-BFGS-B, the highest first
# numpy's exp is 10-100x slower per element where the result falls below
# about e^-708, so kernel exponents are clipped at -700 below their row's
# largest.
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
        if self.train.n and sigma.shape != (self.train.points.shape[1],):
            raise ValueError(f"{self.train.points.shape[1]}-D events need one bandwidth "
                             f"per dimension, got {sigma.shape[0]}")
        object.__setattr__(self, "sigma", sigma)
        self.sigma.setflags(write=False)


def _log_kernel_sums(query: np.ndarray, centres: np.ndarray, d: Domain,
                     leave_one_out: bool = False):
    """Each query point's log kernel sum, log sum_j N_T(q_i; c_j, Sigma), as a
    function of sigma.

    With kernel exponents s_ij and per-centre weights w_j (the normalisers,
    end correction included), each row is scaled by its largest exponent
    peak_i:

        log sum_j N_T(q_i; c_j, Sigma) = peak_i + log sum_j exp(s_ij - peak_i) w_j,

    so it is finite for every sigma, even where all of a point's kernel terms
    underflow.  The per-dimension squared differences are built once.
    Shifted exponents are clipped at LOG_KERNEL_CUT.  With ``leave_one_out``
    the queries are the centres and the diagonal is left out: it is set to
    -inf before the row peaks and zeroed after the exp.

    ``sums(sigma)`` returns (peak, row), with row_i = sum_j exp(s_ij - peak_i)
    w_j; ``_total`` sums their logs over the queries.  ``sums(sigma,
    grad=True)`` also returns the total's gradient in log sigma.  With p_ij =
    exp(s_ij) w_j / sum_k exp(s_ik) w_k, its component along r is sum_ij p_ij
    ((q_ir - c_jr)^2 / sigma_r^2 - 1 - d log mass_jr / d log sigma_r), where
    mass_jr is centre j's kernel mass inside the domain.
    """
    query, centres = as_points(query, d.dims), as_points(centres, d.dims)
    half_sq = np.empty((d.dims, query.shape[0], centres.shape[0]))
    for r in range(d.dims):
        np.subtract.outer(query[:, r], centres[:, r], out=half_sq[r])
        np.square(half_sq[r], out=half_sq[r])
        np.multiply(half_sq[r], -0.5, out=half_sq[r])
    buf = np.empty_like(half_sq[0])

    def sums(sigma, grad=False):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        np.multiply(half_sq[0], sigma[0] ** -2, out=buf)
        for r in range(1, d.dims):
            np.add(buf, half_sq[r] * sigma[r] ** -2, out=buf)
        if leave_one_out:
            np.fill_diagonal(buf, -np.inf)
        peak = buf.max(axis=1, initial=-np.inf)   # -inf, and a zero sum, for no centres
        np.subtract(buf, peak[:, None], out=buf)
        np.maximum(buf, LOG_KERNEL_CUT, out=buf)
        np.exp(buf, out=buf)
        if leave_one_out:
            np.fill_diagonal(buf, 0.0)
        a = (d.hi - centres) / sigma             # (m, R) standardised edges
        b = (d.lo - centres) / sigma
        mass = ndtr(a) - ndtr(b)
        weight = (2.0 * np.pi) ** (-d.dims / 2) / np.prod(sigma) / mass.prod(axis=1)
        row = buf @ weight
        if not grad:
            return peak, row
        # responsibilities p_ij = k_ij w_j / row_i; each row sums to one
        np.multiply(buf, weight, out=buf)
        np.divide(buf, row[:, None], out=buf)
        # d log mass / d log sigma = (b phi(b) - a phi(a)) / mass
        dlog_mass = (b * np.exp(-0.5 * b**2) - a * np.exp(-0.5 * a**2)) \
            / (np.sqrt(2.0 * np.pi) * mass)
        g = [-2.0 * sigma[r] ** -2 * np.vdot(buf, half_sq[r]) for r in range(d.dims)]
        return peak, row, np.array(g) - query.shape[0] - buf.sum(axis=0) @ dlog_mass

    return sums


def _total(peak: np.ndarray, row: np.ndarray) -> float:
    """sum_i log sum_j N_T(q_i; c_j, Sigma) from ``_log_kernel_sums``' output."""
    return float(np.sum(peak) + np.sum(np.log(row)))


def _loo_sums(train: EventSet, d: Domain):
    """``_log_kernel_sums`` of the leave-one-out objective, which needs N >= 2."""
    if train.n < 2:
        raise InsufficientDataError("leave-one-out bandwidth selection needs N >= 2")
    return _log_kernel_sums(train.points, train.points, d, leave_one_out=True)


def loo_objective(train: EventSet, sigma, d: Domain) -> float:
    """sum_i log sum_{j != i} N_T(x_i; x_j, Sigma)."""
    return _total(*_loo_sums(train, d)(sigma))


def fit_bandwidth(train: EventSet, d: Domain) -> KsModel:
    """Select the diagonal bandwidth by maximising the leave-one-out objective.

    The search runs in log sigma, inside [1e-3, 10] times the per-dimension
    extent; the lower floor is load-bearing for duplicate points, where the
    raw objective is unbounded.  In 1-D it is one bounded scalar search over
    the band.  In two or more dimensions the objective has several basins,
    so the value alone is first scanned on a tensor grid of SCAN_POINTS
    log-spaced points per dimension, ends included (8^R evaluations).  Every
    grid point at least as high as its 2R axis neighbours starts L-BFGS-B on
    the analytic gradient, in the same box, the MAX_STARTS highest if more
    qualify, and the best end point is kept.  A training event outside ``d``
    raises PointDataError.
    """
    from scipy.optimize import minimize, minimize_scalar   # here, so `import vbpp` skips it
    sums = _loo_sums(train, d)
    check_in_domain(train.points, d, origin="training event")
    lo = np.log(SIGMA_FLOOR_FRAC * d.extent)
    hi = np.log(SIGMA_CEIL_FRAC * d.extent)
    if d.dims == 1:
        res = minimize_scalar(lambda t: -_total(*sums(np.exp(t))), bounds=(lo[0], hi[0]),
                              method="bounded", options={"xatol": 1e-8})
        return KsModel(train=train, sigma=np.exp([res.x]))

    def negated(log_sigma):
        peak, row, g = sums(np.exp(log_sigma), grad=True)
        return -_total(peak, row), -g

    grid = tensor_grid([np.linspace(a, b, SCAN_POINTS) for a, b in zip(lo, hi)])
    values = np.array([_total(*sums(np.exp(t))) for t in grid])
    scan = values.reshape((SCAN_POINTS,) * d.dims)
    is_peak = np.ones(scan.shape, dtype=bool)
    for r in range(d.dims):   # moveaxis gives views, so the masks land in is_peak
        v, p = np.moveaxis(scan, r, 0), np.moveaxis(is_peak, r, 0)
        p[1:] &= v[1:] >= v[:-1]
        p[:-1] &= v[:-1] >= v[1:]
    peaks = np.flatnonzero(is_peak)
    starts = peaks[np.argsort(-values[peaks], kind="stable")[:MAX_STARTS]]
    ends = [minimize(negated, grid[i], jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)))
            for i in starts]
    return KsModel(train=train, sigma=np.exp(min(ends, key=lambda res: res.fun).x))


def ks_intensity(model: KsModel, query, d: Domain) -> np.ndarray:
    """Smoothed intensity lambda(x) = sum_n N_T(x; x_n, Sigma) at each query point."""
    peak, row = _log_kernel_sums(query, model.train.points, d)(model.sigma)
    return np.exp(peak) * row


def ks_log_predictive(model: KsModel, test: EventSet, d: Domain) -> float:
    """Held-out log-likelihood of the kernel-smoothing predictive.

    A Poisson(N) count distribution times the per-point location density
    (1/N) lambda reduces to sum_k log lambda(x_k) - N, summed in log space, so
    it stays finite where a test point is far from every training point.  The
    K! permutation factor cancels, and the domain integral of the intensity
    is exactly N.  A test event outside ``d`` raises PointDataError.
    """
    check_in_domain(test.points, d, origin="test event")
    peak, row = _log_kernel_sums(test.points, model.train.points, d)(model.sigma)
    return _total(peak, row) - model.train.n


def save_ks_model(model: KsModel, path, train_ref: str | None = None) -> None:
    doc = {
        "sigma": model.sigma.tolist(),
        "train_ref": train_ref,
        "n_train": model.train.n,
    }
    write_json(doc, path)
