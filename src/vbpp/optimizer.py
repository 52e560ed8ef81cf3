"""Parameter packing, initialisation and the fit driver.

All parameters are optimised jointly through an augmented vector
[log gamma, log alpha_1..R, u_bar, m, vech(L), (Z)], with positivity of
gamma, alpha and the diagonal of L maintained by log transforms.  When the
inducing points are optimised, L-BFGS-B's box bounds keep each coordinate of
Z inside the domain.  The objective is the variational bound alone, with no
prior on the hyperparameters; optimisation is limited-memory quasi-Newton
(L-BFGS-B on the negated bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    GRAD_BLOCKS,
    InducingPoints,
    Model,
    VariationalState,
    elbo_and_gradient,
    eye_and_vech_mask,
    kzz_factor,
    xz_sq_diffs,
)
from .kernel import HyperParams
from .pointdata import (Domain, EventSet, as_points, check_in_domain, domain_measure,
                        regular_grid)
from .threads import pool_threads


# The negated bound reported for a step whose evaluation fails; L-BFGS-B
# backtracks from it.  A fit that ends on it never evaluated the bound.
FAILED_OBJECTIVE = 1e25


class FitError(RuntimeError):
    """Raised when every evaluation of the bound failed."""


@dataclass(frozen=True)
class FitConfig:
    """Configuration of a single fit run."""

    max_iters: int = 500
    optimize_z: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------

def pack(model: Model, cfg: FitConfig) -> np.ndarray:
    """Augmented parameter vector [log gamma, log alpha, u_bar, m,
    vech(L) with log diagonal, (Z row by row if cfg.optimize_z)]."""
    h = model.hyper
    M = model.num_inducing
    L = model.var_state.L.copy()
    L[np.diag_indices_from(L)] = np.log(np.diag(L))
    parts = [
        [np.log(h.gamma)],
        np.log(h.alpha),
        [h.u_bar],
        model.var_state.m,
        L[np.tril_indices(M)],
    ]
    if cfg.optimize_z:
        parts.append(model.inducing.Z.reshape(-1))
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1) for p in parts])


def unpack(y: np.ndarray, domain: Domain, M: int, cfg: FitConfig,
           fixed_z: np.ndarray | None = None, fit_metadata: dict | None = None) -> Model:
    """Inverse of :func:`pack`; requires the fixed inducing points when
    cfg.optimize_z is false.  Raises FloatingPointError when gamma, an alpha
    or a diagonal entry of L over- or underflows."""
    R = domain.dims
    y = np.asarray(y, dtype=float)
    i = 0
    log_gamma = y[i]; i += 1
    log_alpha = y[i:i + R]; i += R
    u_bar = y[i]; i += 1
    m = y[i:i + M]; i += M
    n_tril = M * (M + 1) // 2
    L = np.zeros((M, M))
    L[eye_and_vech_mask(M)[1]] = y[i:i + n_tril]; i += n_tril  # vech order
    with np.errstate(over="ignore"):
        gamma, alpha, diag_L = np.exp(log_gamma), np.exp(log_alpha), np.exp(L.diagonal())
    positive = np.concatenate(([gamma], alpha, diag_L))
    if not (positive.min() > 0 and positive.max() < np.inf):    # NaN fails both
        raise FloatingPointError("gamma, an alpha or a diagonal entry of L is 0, inf or NaN")
    np.fill_diagonal(L, diag_L)
    if cfg.optimize_z:
        Z = y[i:i + M * R].reshape(M, R); i += M * R
    elif fixed_z is None:
        raise ValueError("fixed_z required when optimize_z is false")
    else:
        Z = fixed_z
    if i != y.size:
        raise ValueError(f"parameter vector has length {y.size}, expected {i}")
    return Model(
        hyper=HyperParams(gamma=gamma, alpha=alpha, u_bar=u_bar),
        inducing=InducingPoints(Z=Z),
        var_state=VariationalState(m=m, L=L),
        domain=domain,
        fit_metadata=fit_metadata,
    )


# ----------------------------------------------------------------------
# Initialization
# ----------------------------------------------------------------------

def _initial_model(events: EventSet, d: Domain, Z: np.ndarray) -> Model:
    measure = domain_measure(d)
    n_eff = max(events.n, 1)              # keeps gamma positive for empty data
    hyper = HyperParams(gamma=n_eff / measure, alpha=(d.extent / 5.0) ** 2,
                        u_bar=float(np.sqrt(events.n / measure)))
    L0 = 0.1 * kzz_factor(Z, hyper)[1]
    m0 = np.full(Z.shape[0], hyper.u_bar)
    return Model(
        hyper=hyper,
        inducing=InducingPoints(Z=Z),
        var_state=VariationalState(m=m0, L=L0),
        domain=d,
    )


# ----------------------------------------------------------------------
# Fit driver
# ----------------------------------------------------------------------

def _objective_factory(events: EventSet, start: Model, cfg: FitConfig):
    """The function the fit minimises, and the maps between its coordinates
    and :func:`pack`'s.

    The start model supplies the domain, the inducing points (fixed unless
    cfg.optimize_z) and C0, the Cholesky factor of its K_zz + jitter.  m and
    L are whitened, m = C0 w and L = C0 W with W's diagonal stored as logs:
    the bound is extremely stiff along near-null directions of K_zz in m and
    L (K_zz^-1 m appears squared), which stalls the line search on dense
    inducing grids.  The fixed preconditioner leaves the model unchanged.

    Returns (negative_bound, to_canonical, from_canonical).  negative_bound
    returns FAILED_OBJECTIVE and a zero gradient for a step it cannot
    evaluate or whose value or gradient is not finite; to_canonical returns
    (packed vector, W, L).
    """
    domain, Z, C0 = start.domain, start.inducing.Z, start.kzz_chol
    M, R = Z.shape
    wrt = tuple(b for b in GRAD_BLOCKS if cfg.optimize_z or b != "Z")
    # With Z fixed, the events' squared differences to it never change.
    xz_sq = None if cfg.optimize_z else xz_sq_diffs(events, Z)
    tril, diag = np.tril_indices(M), np.diag_indices(M)
    head = 1 + R + 1
    w_block = slice(head, head + M)
    l_block = slice(head + M, head + M + tril[0].size)

    def to_canonical(yw):
        y = np.asarray(yw, dtype=float).copy()
        W = np.zeros((M, M))
        W[tril] = y[l_block]
        # An overflowing step reaches unpack as a 0 or inf diagonal and fails
        # there.  This log and unpack's exp only round, like the division by
        # diag L below, but the fits' iterates depend on that rounding.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y[w_block] = C0 @ y[w_block]
            W[diag] = np.exp(W[diag])
            L = C0 @ W
            packed = L.copy()
            packed[diag] = np.log(L[diag])
        y[l_block] = packed[tril]
        return y, W, L

    def from_canonical(y):
        yw = np.asarray(y, dtype=float).copy()
        yw[w_block] = solve_triangular(C0, y[w_block], lower=True)
        L = np.zeros((M, M))
        L[tril] = y[l_block]
        L[diag] = np.exp(L[diag])
        W = solve_triangular(C0, L, lower=True)
        packed = W.copy()
        packed[diag] = np.log(np.abs(W[diag]))
        yw[l_block] = packed[tril]
        return yw

    def negative_bound(yw):
        y, W, L = to_canonical(yw)
        try:
            model = unpack(y, domain, M, cfg, fixed_z=Z)
            value, grads = elbo_and_gradient(model, events, wrt=wrt, _xz_sq=xz_sq)
        except (np.linalg.LinAlgError, FloatingPointError):
            return FAILED_OBJECTIVE, np.zeros_like(yw)
        g = -np.concatenate([
            np.atleast_1d(np.asarray(grads[name], dtype=float)).reshape(-1)
            for name in wrt
        ])
        GL = np.zeros((M, M))
        GL[tril] = g[l_block]
        with np.errstate(over="ignore", invalid="ignore"):    # the finite check follows
            GL[diag] = GL[diag] / L[diag]          # undo the log-diagonal chain
            GW = C0.T @ GL
            GW[diag] = GW[diag] * W[diag]
            g[w_block] = C0.T @ g[w_block]
        g[l_block] = GW[tril]
        # A non-finite gradient would poison L-BFGS-B's curvature pairs as
        # surely as a non-finite value would poison its line search.
        if not (np.isfinite(value) and np.isfinite(g).all()):
            return FAILED_OBJECTIVE, np.zeros_like(yw)
        return -value, g

    return negative_bound, to_canonical, from_canonical


def fit(events: EventSet, d: Domain, inducing, cfg: FitConfig | None = None) -> Model:
    """Maximise the bound over the augmented vector.

    Parameters
    ----------
    events : EventSet
    d : Domain
    inducing : int or array
        Per-dimension grid count (total M = count^R) or explicit M x R
        locations, which must lie in the domain like the events.
    cfg : FitConfig

    Returns a model whose ``fit_metadata`` records the objective trace
    (non-decreasing across accepted iterations), iteration count, config and
    the BLAS thread count of each bundled OpenBLAS pool during the fit.
    """
    from scipy.optimize import Bounds, minimize   # here, so `import vbpp` skips it
    cfg = cfg or FitConfig()
    Z = regular_grid(d, int(inducing)) if np.isscalar(inducing) else as_points(inducing, d.dims)
    check_in_domain(events.points, d, origin="event")   # also their dimensionality
    check_in_domain(Z, d, origin="inducing point")

    init = _initial_model(events, d, Z)
    M = Z.shape[0]
    objective, to_canonical, from_canonical = _objective_factory(events, init, cfg)
    y0 = from_canonical(pack(init, cfg))
    bounds = None
    if cfg.optimize_z:
        lo = np.full(y0.size, -np.inf)
        hi = np.full(y0.size, np.inf)
        lo[-Z.size:] = np.tile(d.lo, M)
        hi[-Z.size:] = np.tile(d.hi, M)
        bounds = Bounds(lo, hi)

    trace = [-objective(y0)[0]]

    def record(intermediate_result):   # this parameter name makes scipy pass the value
        trace.append(-intermediate_result.fun)

    result = minimize(
        objective, y0, jac=True, method="L-BFGS-B", bounds=bounds, callback=record,
        options={"maxiter": cfg.max_iters, "gtol": 1e-5,
                 "ftol": 1e-14, "maxcor": 20, "maxls": 50},
    )
    if result.fun == FAILED_OBJECTIVE:
        raise FitError(f"no evaluation of the bound succeeded ({result.message})")

    metadata = {
        "elbo": float(-result.fun),
        "iterations": int(result.nit),
        "converged": bool(result.success),
        "message": str(result.message),
        "trace": [float(t) for t in trace],
        "config": {
            "max_iters": cfg.max_iters,
            "optimize_z": cfg.optimize_z,
        },
        "blas_threads": pool_threads(),
    }
    return unpack(to_canonical(result.x)[0], d, M, cfg, fixed_z=Z, fit_metadata=metadata)
