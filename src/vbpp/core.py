"""Variational model state and the evidence lower bound with analytic gradient.

The intensity is lambda(x) = f(x)^2 with f a GP conditioned on inducing
values u at locations Z, u ~ N(1 u_bar, K_zz), and a Gaussian variational
distribution q(u) = N(m, S), S = L L^T.  The bound is

    L = -(int E[f]^2 + int Var[f]) + sum_n E[log f_n^2] - KL(q(u) || p(u)),

where both domain integrals are closed-form through the Psi matrix and the
per-event expectations go through the tabulated special function in
:mod:`vbpp.specfun`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from . import specfun
from .kernel import HyperParams, gram, psi_with_partials
from .pointdata import Domain, EventSet, as_points, domain_measure, write_json

JITTER_SCALE = 1e-8
VAR_FLOOR = 1e-12

GRAD_BLOCKS = ("log_gamma", "log_alpha", "u_bar", "m", "L", "Z")


@dataclass(frozen=True)
class VariationalState:
    """Gaussian q(u) = N(m, S) parameterised by m and the Cholesky factor L."""

    m: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(-1)
        L = np.asarray(self.L, dtype=float)
        if L.shape != (m.size, m.size):
            raise ValueError("L must be M x M with M = len(m)")
        if not np.allclose(L, np.tril(L)):
            raise ValueError("L must be lower triangular")
        if not (np.diag(L) > 0).all():
            raise ValueError("L must have a strictly positive diagonal")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "L", np.tril(L))
        self.m.setflags(write=False)
        self.L.setflags(write=False)

    @property
    def S(self) -> np.ndarray:
        return self.L @ self.L.T


@dataclass(frozen=True)
class InducingPoints:
    """Inducing locations Z, one row per point."""

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        object.__setattr__(self, "Z", Z)
        self.Z.setflags(write=False)

    @property
    def count(self) -> int:
        return self.Z.shape[0]


def chol_with_jitter(K: np.ndarray, jitter: float, tries: int = 1) -> np.ndarray:
    """Lower Cholesky factor of ``K`` plus the smallest jitter that works.

    The jitter goes onto ``K``'s diagonal in place and grows 100-fold after
    each failure, for at most ``tries`` values; then LinAlgError is raised.
    """
    diag = K.diagonal().copy()
    for _ in range(tries):
        np.fill_diagonal(K, diag + jitter)
        try:
            return cholesky(K, lower=True)
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise np.linalg.LinAlgError(f"not positive definite even with jitter {jitter / 100.0:g}")


def kzz_factor(Z: np.ndarray, hyper: HyperParams):
    """K_zz with its diagonal jitter, and the lower Cholesky factor of it."""
    K = gram(Z, Z, hyper)
    return K, chol_with_jitter(K, JITTER_SCALE * hyper.gamma)


@dataclass(frozen=True)
class Model:
    """Hyperparameters + inducing points + variational state over a domain.

    K_zz + jitter and its Cholesky factor are computed at construction, Psi
    with its partials (``psi_with_partials``) when first read; every
    downstream evaluation shares them, and the model is immutable, so they
    can never go stale.
    """

    hyper: HyperParams
    inducing: InducingPoints
    var_state: VariationalState
    domain: Domain
    fit_metadata: dict | None = None
    _kzz: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        Z = self.inducing.Z
        if Z.shape[1] != self.domain.dims or self.hyper.dims != self.domain.dims:
            raise ValueError("inducing points, domain and hyperparameters disagree on R")
        if self.var_state.m.size != Z.shape[0]:
            raise ValueError("variational state size must match the number of inducing points")
        kzz = kzz_factor(Z, self.hyper)
        for arr in kzz:
            arr.setflags(write=False)
        object.__setattr__(self, "_kzz", kzz)

    # -- cached factors -------------------------------------------------
    @property
    def kzz(self) -> np.ndarray:
        return self._kzz[0]

    @property
    def kzz_chol(self) -> np.ndarray:
        return self._kzz[1]

    @cached_property
    def psi(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Psi, its partials w.r.t. log alpha, w.r.t. Z), as in psi_with_partials."""
        return psi_with_partials(self.inducing.Z, self.hyper, self.domain)

    def kzz_solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve((self._kzz[1], True), rhs)

    @property
    def kzz_logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._kzz[1]))))

    @property
    def num_inducing(self) -> int:
        return self.inducing.count


# ----------------------------------------------------------------------
# q(f) marginals
# ----------------------------------------------------------------------

def qf_marginals(X, model: Model):
    """Marginal mean and variance of q(f) at each row of X.

    Variances are floored at 1e-12.
    """
    A = gram(X, model.inducing.Z, model.hyper)        # N x M
    Abar = model.kzz_solve(A.T).T                     # rows a_n^T = k_n^T K^-1
    mu = Abar @ model.var_state.m
    AbarL = Abar @ model.var_state.L
    var = model.hyper.gamma - np.einsum("nm,nm->n", Abar, A) \
        + np.einsum("nm,nm->n", AbarL, AbarL)
    return mu, np.maximum(var, VAR_FLOOR)


def expected_log_f_sq(mu, var):
    """E[log f^2] for f ~ N(mu, var), elementwise, through the lookup table.

    Returns (values, slopes), the slopes being g-tilde' at -mu^2 / (2 var),
    which the bound's gradient needs.  ``var`` must be positive; the bound
    floors it at VAR_FLOOR before the call.
    """
    gval, gslope = specfun.g_tilde_batch(-mu**2 / (2.0 * var))
    return -gval + np.log(var / 2.0) - specfun.EULER_MASCHERONI, gslope


# ----------------------------------------------------------------------
# The bound and its views
# ----------------------------------------------------------------------

class BoundTerms(NamedTuple):
    """The bound's four terms and the gradient blocks that were requested."""

    int_mean_sq: float      # int E[f]^2 dx
    int_var: float          # int Var[f] dx
    data: float             # sum_n E[log f_n^2]
    kl: float               # KL(q(u) || p(u))
    grads: dict

    @property
    def expected_log_lik(self) -> float:
        """E_q[log p(D | f)]; the predictive bound when D is held out."""
        return -(self.int_mean_sq + self.int_var) + self.data

    @property
    def elbo(self) -> float:
        return self.expected_log_lik - self.kl


def elbo(model: Model, events: EventSet) -> float:
    """The variational lower bound on log p(D | Theta)."""
    return _evaluate(model, events).elbo


def predictive_bound_lp(model: Model, test: EventSet) -> float:
    """Lower bound on the approximate predictive log-likelihood of ``test``."""
    return _evaluate(model, test).expected_log_lik


def predictive_bound_l0(model: Model, test: EventSet) -> float:
    """Tightened bound with the variational covariance collapsed to zero."""
    return _evaluate(model, test, collapse_s=True).expected_log_lik


def elbo_and_gradient(model: Model, events: EventSet, wrt=GRAD_BLOCKS):
    """Bound value and its analytic gradient for the selected blocks.

    ``wrt`` selects any subset of ("log_gamma", "log_alpha", "u_bar", "m",
    "L", "Z").  Positive parameters are differentiated in log space; the
    diagonal of L likewise.  The "L" block is returned as vech order (rows of
    the lower triangle), the "Z" block as an M x R array, the gradient with
    respect to the inducing locations themselves.

    Returns (value, dict of gradient blocks).
    """
    terms = _evaluate(model, events, wrt)
    return terms.elbo, terms.grads


def _evaluate(model: Model, events: EventSet | None = None, wrt=(),
              collapse_s: bool = False) -> BoundTerms:
    """The one evaluation of the bound: every function above is a view of it.

    K_zz and Psi with its partials come from the model.  K^-1 is formed once
    from the model's Cholesky factor and every product below goes through
    it; the fit's iterates depend on this arithmetic bit for bit.  The data
    term goes through :func:`expected_log_f_sq`, and no events (``events``
    None or empty) run the same code with N = 0.  ``collapse_s`` sets S to
    zero in the expectations of f, not in the KL; no caller differentiates
    that variant.  ``wrt`` is as in :func:`elbo_and_gradient`.
    """
    wrt = tuple(wrt)
    unknown = set(wrt) - set(GRAD_BLOCKS)
    if unknown:
        raise ValueError(f"unknown gradient blocks: {sorted(unknown)}")

    h = model.hyper
    Z = model.inducing.Z
    M, R = Z.shape
    m = model.var_state.m
    Lc = model.var_state.L
    S = model.var_state.S
    gamma = h.gamma
    measure = domain_measure(model.domain)
    need_hyper = bool({"log_gamma", "log_alpha", "Z"} & set(wrt))

    eye = np.eye(M)
    Kinv = model.kzz_solve(eye)
    K = model.kzz
    psi, dpsi_dlog_alpha, dpsi_dzi = model.psi

    c = Kinv @ m
    kinv_psi = Kinv @ psi
    int_mean_sq = float(c @ psi @ c)
    int_var = gamma * measure - float(np.trace(kinv_psi))
    if not collapse_s:
        W = Kinv @ S @ Kinv
        int_var += float(np.sum(W * psi))

    d = h.u_bar - m
    q = Kinv @ d
    logdet_s = 2.0 * float(np.sum(np.log(np.diag(Lc))))
    kl = 0.5 * (float(np.sum(Kinv * S)) + model.kzz_logdet - logdet_s - M + float(d @ q))

    X = events.points if events is not None and events.n else np.empty((0, R))
    A = gram(X, Z, h)                        # N x M
    Abar = A @ Kinv
    mu = Abar @ m
    var_raw = gamma - np.einsum("nm,nm->n", Abar, A)
    if not collapse_s:
        var_raw += np.einsum("nm,nm->n", Abar @ S, Abar)
    clamped = var_raw < VAR_FLOOR
    var = np.maximum(var_raw, VAR_FLOOR)
    ell, gslope = expected_log_f_sq(mu, var)
    data = float(np.sum(ell))

    grads: dict[str, np.ndarray | float] = {}
    if not wrt:
        return BoundTerms(int_mean_sq, int_var, data, kl, grads)

    B = kinv_psi @ Kinv
    e_mu = gslope * mu / var
    e_s = 1.0 / var - gslope * mu**2 / (2.0 * var**2)
    e_s = np.where(clamped, 0.0, e_s)        # floored variance is locally constant
    Amu = Abar.T @ e_mu                      # sum_n e_mu_n a_n
    if "L" in wrt or need_hyper:
        AsA = Abar.T @ (e_s[:, None] * Abar)

    if "m" in wrt:
        grads["m"] = -2.0 * (B @ m) + q + Amu

    if "L" in wrt:
        Linv = solve_triangular(Lc, eye, lower=True)
        Sinv = Linv.T @ Linv
        Gs = -B - 0.5 * Kinv + 0.5 * Sinv + AsA
        gl = (Gs + Gs.T) @ Lc
        gl[np.diag_indices_from(gl)] *= np.diag(Lc)   # log-diagonal parameterisation
        grads["L"] = gl[np.tril_indices(M)]

    if "u_bar" in wrt:
        grads["u_bar"] = -float(np.sum(q))

    if need_hyper:
        # Raw partials of the bound w.r.t. the kernel structures.
        v = kinv_psi @ c
        g_psi = -np.outer(c, c) + Kinv - W
        M1 = W @ psi @ Kinv
        Gk = (np.outer(v, c) + np.outer(c, v)) - B + (M1 + M1.T) \
            - 0.5 * (Kinv - W - np.outer(q, q))
        What = A @ W                                # rows w_n^T
        AsW = Abar.T @ (e_s[:, None] * What)
        Gk = Gk - np.outer(Amu, c) + AsA - AsW - AsW.T
        GA = np.outer(e_mu, c) + e_s[:, None] * (-2.0 * Abar + 2.0 * What)
        g_gamma_direct = -measure + float(np.sum(e_s))

        if "log_gamma" in wrt:
            grads["log_gamma"] = float(np.sum(Gk * K)) + 2.0 * float(np.sum(g_psi * psi)) \
                + g_gamma_direct * gamma + float(np.sum(GA * A))

        if "log_alpha" in wrt:
            grads["log_alpha"] = np.empty(R)
        if "Z" in wrt:
            grads["Z"] = np.empty((M, R))
            Gk_sym = Gk + Gk.T
            g_psi_sym = g_psi + g_psi.T
        # One pass over the dimensions forms the Z-Z and X-Z differences
        # once for both blocks.
        for r in range(R if {"log_alpha", "Z"} & set(wrt) else 0):
            delta_zz = Z[:, r][:, None] - Z[:, r][None, :]
            delta_xz = X[:, r][:, None] - Z[:, r][None, :]
            if "log_alpha" in wrt:
                grads["log_alpha"][r] = \
                    float(np.sum(Gk * (K * delta_zz**2 / (2.0 * h.alpha[r])))) \
                    + float(np.sum(g_psi * dpsi_dlog_alpha[r])) \
                    + float(np.sum(GA * (A * delta_xz**2 / (2.0 * h.alpha[r]))))
            if "Z" in wrt:
                grads["Z"][:, r] = np.sum(Gk_sym * K * (-delta_zz / h.alpha[r]), axis=1) \
                    + np.sum(g_psi_sym * dpsi_dzi[r], axis=1) \
                    + np.sum(GA * A * delta_xz / h.alpha[r], axis=0)

    return BoundTerms(int_mean_sq, int_var, data, kl, grads)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    M = model.num_inducing
    return {
        "domain": {"lo": model.domain.lo.tolist(), "hi": model.domain.hi.tolist()},
        "hyper": {
            "gamma": model.hyper.gamma,
            "alpha": model.hyper.alpha.tolist(),
            "u_bar": model.hyper.u_bar,
        },
        "Z": model.inducing.Z.tolist(),
        "m": model.var_state.m.tolist(),
        "L": model.var_state.L[np.tril_indices(M)].tolist(),
        "fit_metadata": model.fit_metadata,
    }


def model_from_dict(doc: dict) -> Model:
    domain = Domain(lo=np.asarray(doc["domain"]["lo"]), hi=np.asarray(doc["domain"]["hi"]))
    hyper = HyperParams(gamma=doc["hyper"]["gamma"],
                        alpha=np.asarray(doc["hyper"]["alpha"]),
                        u_bar=doc["hyper"]["u_bar"])
    Z = as_points(doc["Z"], domain.dims)
    M = Z.shape[0]
    L = np.zeros((M, M))
    L[np.tril_indices(M)] = np.asarray(doc["L"], dtype=float)
    return Model(
        hyper=hyper,
        inducing=InducingPoints(Z=Z),
        var_state=VariationalState(m=np.asarray(doc["m"], dtype=float), L=L),
        domain=domain,
        fit_metadata=doc.get("fit_metadata"),
    )


def save_model(model: Model, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
