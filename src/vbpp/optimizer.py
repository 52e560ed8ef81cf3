"""Parameter packing, initialisation and the fit driver.

The fit maximises the variational bound, with no prior on the
hyperparameters, over theta = [log gamma, log alpha_1..R, u_bar, (Z)] by
L-BFGS-B on the negated bound.  Each evaluation first solves q(u) = N(m, S)
at theta (:func:`solve_q`), warm-started from the q of the last accepted
theta; there the bound's partial gradient in theta is the gradient of the
solved bound (the envelope theorem).  L-BFGS-B's box bounds keep optimised
inducing points inside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .core import (BoundTerms, InducingPoints, Model, VariationalState, cholesky,
                   kzz_factor, q_terms, theta_gradient, theta_stage, xz_sq_diffs)
from .kernel import HyperParams
from .pointdata import (Domain, EventSet, PointDataError, as_points, check_in_domain,
                        domain_measure, regular_grid)
from .threads import pool_threads


# The negated bound reported for a step whose evaluation fails; L-BFGS-B
# backtracks from it.  A fit that ends on it never evaluated the bound.
FAILED_OBJECTIVE = 1e25

# L-BFGS-B stops once an iteration gains no more than FTOL of the bound.  At
# the bundled data's fit (M = 16, cond K_zz 1.2e9) the bound at fixed q(u)
# jitters by 1.3e-11 nats between theta 5e-7 apart, 3e-13 of it.
FTOL = 1e-9
# The inner solve's tolerance is INNER_RTOL of the bound (of one nat, if the
# bound is smaller), below what the outer stop reads; it also stops when no
# step of size MIN_STEP or more raises the bound by that, and after
# MAX_INNER_STEPS steps.
INNER_RTOL = FTOL / 10
MIN_STEP = 2.0 ** -5
MAX_INNER_STEPS = 500


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

def theta_blocks(cfg: FitConfig) -> tuple[str, ...]:
    """The bound's gradient blocks that make up theta, in :func:`pack`'s order."""
    return ("log_gamma", "log_alpha", "u_bar") + (("Z",) if cfg.optimize_z else ())


def pack(model: Model, cfg: FitConfig) -> np.ndarray:
    """theta = [log gamma, log alpha, u_bar, (Z row by row if cfg.optimize_z)]."""
    h = model.hyper
    return np.r_[np.log(h.gamma), np.log(h.alpha), h.u_bar,
                 model.inducing.Z.ravel() if cfg.optimize_z else []]


def unpack(y: np.ndarray, domain: Domain, M: int, cfg: FitConfig,
           fixed_z: np.ndarray | None = None,
           var_state: VariationalState | None = None) -> Model:
    """Inverse of :func:`pack`: the model at theta with q(u) = ``var_state``,
    the prior p(u) if none is given.  Requires the fixed inducing points when
    cfg.optimize_z is false.  Raises FloatingPointError when gamma or an
    alpha over- or underflows."""
    R, y = domain.dims, np.asarray(y, dtype=float)
    size = R + 2 + (M * R if cfg.optimize_z else 0)
    if y.size != size:
        raise ValueError(f"parameter vector has length {y.size}, expected {size}")
    if not (cfg.optimize_z or fixed_z is not None):
        raise ValueError("fixed_z required when optimize_z is false")
    with np.errstate(over="ignore"):
        positive = np.exp(y[:R + 1])                  # gamma, alpha
    if not (positive.min() > 0 and positive.max() < np.inf):    # NaN fails both
        raise FloatingPointError("gamma or an alpha is 0, inf or NaN")
    hyper = HyperParams(gamma=positive[0], alpha=positive[1:], u_bar=y[R + 1])
    Z = y[R + 2:].reshape(M, R) if cfg.optimize_z else fixed_z
    if var_state is None:
        var_state = VariationalState(np.full(M, hyper.u_bar), kzz_factor(Z, hyper)[1])
    return Model(hyper=hyper, inducing=InducingPoints(Z=Z), var_state=var_state,
                 domain=domain)


# ----------------------------------------------------------------------
# Initialization
# ----------------------------------------------------------------------

def _initial_model(events: EventSet, d: Domain, Z: np.ndarray) -> Model:
    measure = domain_measure(d)
    hyper = HyperParams(gamma=max(events.n, 1) / measure,     # positive for empty data
                        alpha=(d.extent / 5.0) ** 2, u_bar=float(np.sqrt(events.n / measure)))
    q0 = VariationalState(np.full(Z.shape[0], hyper.u_bar), 0.1 * kzz_factor(Z, hyper)[1])
    return Model(hyper, InducingPoints(Z), q0, d)


# ----------------------------------------------------------------------
# The inner solve: q(u) at fixed theta
# ----------------------------------------------------------------------

def _usable(terms: BoundTerms) -> bool:
    return all(np.isfinite(x).all() for x in (terms.elbo, terms.grads["m"], terms.grads["L"]))


def solve_q(stage, q0: VariationalState) -> tuple[VariationalState, int, BoundTerms]:
    """Maximise the bound in q(u) at the stage's theta, from ``q0``, by
    natural-gradient steps of size rho: S^-1 <- S^-1 - 2 rho dL/dS and
    m <- m + rho S dL/dm.  With the bound's "L" block G = L^T dL/dS L the new
    S is L (I - 2 rho G)^-1 L^T, so only I - 2 rho G is factored, never the
    ill-conditioned S^-1.  rho starts at 1 and halves until I - 2 rho G
    factors and the bound (:func:`vbpp.core.q_terms`) is finite and higher
    by more than the tolerance; it doubles, up to 1, after each accepted
    step.  A step that moves the bound by no more than the tolerance ends
    the solve untaken, as does a natural gradient that promises no more (a
    full step's gain, dL/dm^T S dL/dm / 2 + tr(G G)).  Returns (q, accepted
    steps, the :func:`vbpp.core.q_terms` at q, from which
    :func:`vbpp.core.theta_gradient` forms theta's blocks); raises
    FloatingPointError when the bound or its gradient at ``q0`` is not
    finite."""
    q, terms = q0, q_terms(stage, q0)
    if not _usable(terms):
        raise FloatingPointError("the bound or its gradient in q(u) is not finite")
    rho, steps = 1.0, 0
    while steps < MAX_INNER_STEPS:
        tol = INNER_RTOL * max(1.0, abs(terms.elbo))
        a, G = q.L.T @ terms.grads["m"], terms.grads["L"]
        if 0.5 * float(a @ a) + float((G * G).sum()) <= tol:
            break
        while True:
            try:
                # Y^T Y = L (I - 2 rho G)^-1 L^T for Y = R^-1 L^T, R R^T = I - 2 rho G
                Y = lapack.dtrtrs(cholesky(np.eye(G.shape[0]) - (2.0 * rho) * G), q.L.T,
                                  lower=1)[0]
                S = Y.T @ Y
                trial = VariationalState(q.m + rho * (S @ terms.grads["m"]), cholesky(S))
                t = q_terms(stage, trial)
                if _usable(t) and t.elbo >= terms.elbo - tol:
                    if t.elbo <= terms.elbo + tol:
                        return q, steps, terms
                    break
            except (np.linalg.LinAlgError, ValueError):    # or S overflowed
                pass
            rho /= 2.0
            if rho < MIN_STEP:
                return q, steps, terms
        q, terms, steps = trial, t, steps + 1
        rho = min(1.0, 2.0 * rho)
    return q, steps, terms


# ----------------------------------------------------------------------
# Fit driver
# ----------------------------------------------------------------------

class _ProfiledBound:
    """The function the fit minimises: theta -> minus the bound at the q(u)
    solved at theta, and the bound's partial gradient in theta.

    Each solve starts from the q of the accepted theta (:meth:`accept`; the
    first evaluation that succeeds is the start), so an evaluation depends
    on theta and that q alone.  A step it cannot evaluate, or whose value or
    gradient is not finite, returns FAILED_OBJECTIVE and a zero gradient.
    ``last`` and ``accepted`` hold (theta, model, bound).
    """

    def __init__(self, events: EventSet, start: Model, cfg: FitConfig):
        self.events, self.start, self.cfg = events, start, cfg
        self.wrt = theta_blocks(cfg)
        # With Z fixed, the events' squared differences to it never change.
        self.xz_sq = None if cfg.optimize_z else xz_sq_diffs(events, start.inducing.Z)
        self.last = self.accepted = None
        self.trace, self.evaluations, self.inner_steps = [], 0, 0

    def __call__(self, theta):
        self.evaluations += 1
        q0 = (self.accepted[1] if self.accepted else self.start).var_state
        try:
            model = unpack(theta, self.start.domain, q0.m.size, self.cfg,
                           fixed_z=self.start.inducing.Z, var_state=q0)
            stage = theta_stage(model, self.events, self.cfg.optimize_z, self.xz_sq)
            q, steps, terms = solve_q(stage, q0)
            self.inner_steps += steps
            model = model.with_var_state(q)
            value, grads = terms.elbo, theta_gradient(terms)
        except (np.linalg.LinAlgError, FloatingPointError):
            return FAILED_OBJECTIVE, np.zeros_like(theta)
        g = -np.concatenate([np.ravel(grads[name]) for name in self.wrt])
        # A non-finite gradient would poison L-BFGS-B's curvature pairs as
        # surely as a non-finite value would poison its line search.
        if not (np.isfinite(value) and np.isfinite(g).all()):
            return FAILED_OBJECTIVE, np.zeros_like(theta)
        self.last = (np.array(theta, dtype=float), model, value)
        if self.accepted is None:
            self.accept(theta)
        return -value, g

    def solved_at(self, theta) -> tuple[np.ndarray, Model, float]:
        for entry in (self.last, self.accepted):
            if entry is not None and np.array_equal(entry[0], theta):
                return entry
        if self(theta)[0] == FAILED_OBJECTIVE:
            raise FitError("the bound cannot be evaluated at the accepted point")
        return self.last

    def accept(self, theta) -> None:
        self.accepted = self.solved_at(theta)
        self.trace.append(float(self.accepted[2]))


def fit(events: EventSet, d: Domain, inducing, cfg: FitConfig | None = None) -> Model:
    """Maximise the bound over theta, with q(u) solved at each theta.

    Parameters
    ----------
    events : EventSet
    d : Domain
    inducing : int or array
        Per-dimension grid count (total M = count^R) or explicit M x R
        locations, at least one, which must lie in the domain like the
        events.
    cfg : FitConfig

    Returns a model whose ``fit_metadata`` records the bound at each accepted
    iteration (non-decreasing), the counts of outer iterations, objective
    evaluations (failed ones included) and inner steps, the config and each
    bundled OpenBLAS pool's thread count during the fit.
    """
    from scipy.optimize import Bounds, minimize   # here, so `import vbpp` skips it
    cfg = cfg or FitConfig()
    Z = regular_grid(d, int(inducing)) if np.isscalar(inducing) else as_points(inducing, d.dims)
    if not Z.shape[0]:
        raise PointDataError("no inducing points: fit needs at least one")
    check_in_domain(events.points, d, origin="event")   # also their dimensionality
    check_in_domain(Z, d, origin="inducing point")

    init = _initial_model(events, d, Z)
    objective = _ProfiledBound(events, init, cfg)
    y0 = pack(init, cfg)
    free = np.full(d.dims + 2, np.inf)       # theta's unbounded head
    bounds = Bounds(np.r_[-free, np.tile(d.lo, Z.shape[0])],
                    np.r_[free, np.tile(d.hi, Z.shape[0])]) if cfg.optimize_z else None

    result = minimize(
        objective, y0, jac=True, method="L-BFGS-B", bounds=bounds,
        # this parameter name makes scipy pass the accepted point
        callback=lambda intermediate_result: objective.accept(intermediate_result.x),
        options={"maxiter": cfg.max_iters, "gtol": 1e-5,
                 "ftol": FTOL, "maxcor": 20, "maxls": 50},
    )
    if result.fun == FAILED_OBJECTIVE:
        raise FitError(f"no evaluation of the bound succeeded ({result.message})")
    _, model, value = objective.solved_at(result.x)

    metadata = {
        "elbo": float(value),
        "iterations": int(result.nit),
        "evaluations": objective.evaluations,
        "inner_steps": objective.inner_steps,
        "converged": bool(result.success),
        "message": str(result.message),
        "trace": objective.trace,
        "config": {"max_iters": cfg.max_iters, "optimize_z": cfg.optimize_z},
        "blas_threads": pool_threads(),
    }
    return replace(model, fit_metadata=metadata)
