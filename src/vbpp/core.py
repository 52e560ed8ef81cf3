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

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from . import specfun
from .kernel import HyperParams, gram, kernel_from_sq, psi_with_partials, sq_diffs
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
        lower = np.tril(L)
        # np.allclose(L, lower) at a fraction of its cost: the strict upper
        # triangle within 1e-8 of zero, and no NaN anywhere.
        if not ((L == lower) | (np.abs(L) <= 1e-8)).all():
            raise ValueError("L must be lower triangular")
        if not (L.diagonal() > 0).all():
            raise ValueError("L must have a strictly positive diagonal")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "L", lower)
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


@functools.cache
def eye_and_vech_mask(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The M x M identity and the lower-triangle (vech) mask, read-only."""
    consts = np.eye(M), np.tri(M, dtype=bool)
    for arr in consts:
        arr.setflags(write=False)
    return consts


def cholesky(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``K`` from LAPACK's dpotrf, in K's own buffer
    when K is F-contiguous (in a copy otherwise).

    The same call and checks as ``scipy.linalg.cholesky(K, lower=True)``
    without its wrapper's cost, so the factor is bit-identical: ValueError
    when ``K`` holds an inf or NaN, LinAlgError when it is not positive
    definite.  Only K's lower triangle is read; the upper one is zeroed.
    scipy's wrapper zeroes it row by row, a stride-P walk; from 512 rows on
    it is zeroed here instead, column by column, each a contiguous slice of
    the F-ordered factor.  Timed on one BLAS thread, the two ways tie near
    384 rows; the Python loop costs 4x more at 32 and 18% less at 1024.
    """
    by_column = K.shape[0] >= 512
    c, info = lapack.dpotrf(np.asarray_chkfinite(K), lower=1, overwrite_a=1,
                            clean=int(not by_column))
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if by_column:
        for j in range(1, c.shape[0]):
            c[:j, j] = 0.0
    return c


def kzz_factor(Z: np.ndarray, hyper: HyperParams):
    """K_zz with its diagonal jitter, and the lower Cholesky factor of it,
    made in a copy so that K_zz stays for the gradient."""
    K = gram(Z, Z, hyper)
    np.fill_diagonal(K, K.diagonal() + JITTER_SCALE * hyper.gamma)
    return K, cholesky(K.copy(order="F"))


@dataclass(frozen=True)
class Model:
    """Hyperparameters + inducing points + variational state over a domain.

    K_zz + jitter and its Cholesky factor are computed at construction and
    shared by every evaluation; the model is immutable, so they can never go
    stale.  Psi and its partials depend on what an evaluation differentiates,
    so each evaluation of the bound computes them itself (see
    :func:`_evaluate`).
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

    def kzz_solve(self, rhs: np.ndarray) -> np.ndarray:
        """(K_zz + jitter)^-1 rhs for an M x k ``rhs``, by LAPACK's dpotrs on
        the model's factor: bit-identical to ``scipy.linalg.cho_solve``
        without its finite checks.  The factor passed one when it was made,
        and vbpp's right-hand sides are built from finite points."""
        x, info = lapack.dpotrs(self._kzz[1], rhs, lower=True)
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return x

    @property
    def kzz_logdet(self) -> float:
        return 2.0 * float(np.log(self._kzz[1].diagonal()).sum())

    @property
    def num_inducing(self) -> int:
        return self.inducing.Z.shape[0]


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


def elbo_and_gradient(model: Model, events: EventSet, wrt=GRAD_BLOCKS, _xz_sq=None):
    """Bound value and its analytic gradient, returned for the blocks in ``wrt``.

    ``wrt`` names blocks of ("log_gamma", "log_alpha", "u_bar", "m", "L",
    "Z"); it only chooses what is returned, as every block but Z is computed
    for any request, and Z when named.  Positive parameters are
    differentiated in log space; the diagonal of L likewise.  The "L" block
    is returned as vech order (rows of the lower triangle), the "Z" block as
    an M x R array, the gradient with respect to the inducing locations
    themselves.  A fit with fixed Z passes ``_xz_sq``, the events'
    :func:`xz_sq_diffs`, once made for all its calls.

    Returns (value, dict of gradient blocks).
    """
    terms = _evaluate(model, events, wrt, xz_sq=_xz_sq)
    return terms.elbo, terms.grads


def xz_sq_diffs(events: EventSet, Z: np.ndarray) -> np.ndarray:
    """The events' squared differences to Z per dimension, R x N x M."""
    return sq_diffs(as_points(events.points, Z.shape[1]), Z)


def _evaluate(model: Model, events: EventSet = EventSet(), wrt=(),
              collapse_s: bool = False, xz_sq: np.ndarray | None = None) -> BoundTerms:
    """The one evaluation of the bound: every function above is a view of it.

    It takes one of three paths: the value alone (``wrt`` empty), the value
    and every gradient block but Z, or the value and every block (``wrt``
    names "Z"); ``wrt`` only chooses the blocks returned.  K_zz and its
    Cholesky factor come from the model.  Psi comes from
    :func:`psi_with_partials` with the partials the path needs: none, the
    log-alpha ones, or those and the Z ones.  No term of the value depends on
    the path, so the four terms are bit-identical whichever blocks are
    requested.  K^-1 is formed once from the model's Cholesky factor and
    every product below goes through it; the fit's iterates depend on this
    arithmetic bit for bit.  The gradient's N x M products are formed in
    place in two scratch buffers, in the same order of operations.  The data
    term goes through :func:`expected_log_f_sq`, and no events run the same
    code with N = 0.  K(X, Z) and the log-alpha block read ``xz_sq``, the
    events' :func:`xz_sq_diffs`, made here unless given.  ``collapse_s`` sets
    S to zero in the expectations of f, not in the KL; that variant is a
    value only, and asking for its gradient raises ValueError.  ``wrt`` is as
    in :func:`elbo_and_gradient`.
    """
    wrt = tuple(wrt)
    unknown = set(wrt) - set(GRAD_BLOCKS)
    if unknown:
        raise ValueError(f"unknown gradient blocks: {sorted(unknown)}")
    if collapse_s and wrt:
        raise ValueError("the bound with S collapsed is not differentiated")
    partials = ()
    if wrt:
        partials = ("log_alpha", "Z") if "Z" in wrt else ("log_alpha",)

    h = model.hyper
    Z = model.inducing.Z
    M, R = Z.shape
    m = model.var_state.m
    Lc = model.var_state.L
    S = model.var_state.S
    gamma = h.gamma
    measure = domain_measure(model.domain)

    eye, vech_mask = eye_and_vech_mask(M)
    Kinv = model.kzz_solve(eye)
    K = model.kzz
    psi, dpsi_dlog_alpha, dpsi_dzi = psi_with_partials(Z, h, model.domain, partials)

    c = Kinv @ m
    kinv_psi = Kinv @ psi
    int_mean_sq = float(c @ psi @ c)
    int_var = gamma * measure - float(kinv_psi.trace())
    if not collapse_s:
        W = Kinv @ S @ Kinv
        int_var += float((W * psi).sum())
    else:
        # The collapsed bound is a value only, which the fit never takes, so
        # its integrals can be exact to rounding without moving the fit.
        # There the squared-mean integral takes K^-1 m from the Cholesky
        # solve (through the explicit inverse it fell 2.7e-6 short on coal at
        # M = 20, cond K_zz 1.4e9), and int Var, the conditional GP variance,
        # is >= 0 although its closed form read -2.5e-6 there.
        c_solved = model.kzz_solve(m)
        int_mean_sq = float(c_solved @ psi @ c_solved)
        int_var = max(int_var, 0.0)

    d = h.u_bar - m
    q = Kinv @ d
    logdet_s = 2.0 * float(np.log(Lc.diagonal()).sum())
    kl = 0.5 * (float((Kinv * S).sum()) + model.kzz_logdet - logdet_s - M + float(d @ q))

    X = as_points(events.points, R)
    xz_sq = sq_diffs(X, Z) if xz_sq is None else xz_sq
    A = kernel_from_sq(xz_sq, h)             # N x M, as gram(X, Z, h)
    Abar = A @ Kinv
    mu = Abar @ m
    var_raw = gamma - np.einsum("nm,nm->n", Abar, A)
    if not collapse_s:
        var_raw += np.einsum("nm,nm->n", Abar @ S, Abar)
    clamped = var_raw < VAR_FLOOR
    var = np.maximum(var_raw, VAR_FLOOR)
    ell, gslope = expected_log_f_sq(mu, var)
    data = float(ell.sum())

    if not partials:
        return BoundTerms(int_mean_sq, int_var, data, kl, {})

    B = kinv_psi @ Kinv
    e_mu = gslope * mu / var
    e_s = 1.0 / var - gslope * mu**2 / (2.0 * var**2)
    e_s = np.where(clamped, 0.0, e_s)        # floored variance is locally constant
    Amu = Abar.T @ e_mu                      # sum_n e_mu_n a_n
    work = np.empty_like(A)                  # N x M scratch
    AsA = Abar.T @ np.multiply(Abar, e_s[:, None], out=work)
    grads: dict[str, np.ndarray | float] = {}
    grads["m"] = -2.0 * (B @ m) + q + Amu

    # Lc is C-ordered (np.tril's output), so this is the LAPACK call that
    # scipy.linalg.solve_triangular(Lc, eye, lower=True) makes.
    Linv, info = lapack.dtrtrs(Lc.T, eye, lower=False, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"L is singular at diagonal {info - 1}")
    Sinv = Linv.T @ Linv
    Gs = -B - 0.5 * Kinv + 0.5 * Sinv + AsA
    gl = (Gs + Gs.T) @ Lc
    np.fill_diagonal(gl, gl.diagonal() * Lc.diagonal())   # log-diagonal parameterisation
    grads["L"] = gl[vech_mask]

    grads["u_bar"] = -float(q.sum())

    # Raw partials of the bound w.r.t. the kernel structures.
    v = kinv_psi @ c
    g_psi = -np.multiply.outer(c, c) + Kinv - W
    M1 = W @ psi @ Kinv
    Gk = (np.multiply.outer(v, c) + np.multiply.outer(c, v)) - B + (M1 + M1.T) \
        - 0.5 * (Kinv - W - np.multiply.outer(q, q))
    What = A @ W                                # rows w_n^T
    AsW = Abar.T @ np.multiply(What, e_s[:, None], out=work)
    Gk = Gk - np.multiply.outer(Amu, c) + AsA - AsW - AsW.T
    # GA = outer(e_mu, c) + e_s * (-2 Abar + 2 What), built in place.
    GA = np.multiply(Abar, -2.0)
    What *= 2.0
    GA += What
    GA *= e_s[:, None]
    GA += np.multiply.outer(e_mu, c, out=work)
    GA_A = np.multiply(GA, A, out=What)         # What is spent
    g_gamma_direct = -measure + float(e_s.sum())
    grads["log_gamma"] = float((Gk * K).sum()) + 2.0 * float((g_psi * psi).sum()) \
        + g_gamma_direct * gamma + float(GA_A.sum())

    # One pass over the dimensions forms the Z-Z differences once for both
    # blocks; the X-Z ones only for the Z block.
    grads["log_alpha"] = np.empty(R)
    with_z = dpsi_dzi is not None
    if with_z:
        grads["Z"] = np.empty((M, R))
        Gk_sym = Gk + Gk.T
        g_psi_sym = g_psi + g_psi.T
        delta_xz = np.empty_like(A)
    for r in range(R):
        delta_zz = Z[:, r][:, None] - Z[:, r][None, :]
        np.multiply(xz_sq[r], A, out=work)   # GA * (A delta^2 / (2 alpha_r))
        work /= 2.0 * h.alpha[r]
        work *= GA
        grads["log_alpha"][r] = \
            float((Gk * (K * delta_zz**2 / (2.0 * h.alpha[r]))).sum()) \
            + float((g_psi * dpsi_dlog_alpha[r]).sum()) + float(work.sum())
        if with_z:
            np.subtract.outer(X[:, r], Z[:, r], out=delta_xz)
            np.multiply(GA_A, delta_xz, out=work)    # GA A delta / alpha_r
            work /= h.alpha[r]
            grads["Z"][:, r] = (Gk_sym * K * (-delta_zz / h.alpha[r])).sum(axis=1) \
                + (g_psi_sym * dpsi_dzi[r]).sum(axis=1) + work.sum(axis=0)

    return BoundTerms(int_mean_sq, int_var, data, kl, {b: grads[b] for b in wrt})


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
        doc = json.load(fh)
    try:
        return model_from_dict(doc)
    except (KeyError, TypeError) as exc:     # valid JSON, but not a saved model
        raise ValueError(f"{path}: not a vbpp model ({exc!r})") from exc
