"""Variational model state and the evidence lower bound with analytic gradient.

The intensity is lambda(x) = f(x)^2 with f a GP conditioned on inducing
values u at locations Z, u ~ N(1 u_bar, K_zz), and a Gaussian variational
distribution q(u) = N(m, S), S = L L^T.  The bound is

    L = -(int E[f]^2 + int Var[f]) + sum_n E[log f_n^2] - KL(q(u) || p(u)),

where both domain integrals read B = K^-1 Psi K^-1, the integral of the
kernel interpolant's outer product (see :func:`domain_integrals`), and the
per-event expectations go through the tabulated special function in
:mod:`vbpp.specfun`.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.special import roots_legendre

from . import specfun
from .kernel import HyperParams, gram, kernel_from_sq, psi_with_partials, sq_diffs
from .pointdata import Domain, EventSet, as_points, domain_measure, tensor_grid, write_json

JITTER_SCALE = 1e-8
VAR_FLOOR = 1e-12
RULE_NODES_PER_SCALE = 4   # domain_integrals' nodes per lengthscale of the extent
RULE_MIN_NODES = 16        # added in each dimension
RULE_MAX_NODES = 4096      # in all; past it the integrals come from Psi

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

    K_zz + jitter, its Cholesky factor L and the factor's inverse L^-1 (one
    dtrtri) are computed at construction and shared by every evaluation; the
    model is immutable, so they can never go stale.  Psi comes with Z's
    partials only where an evaluation differentiates in Z, so each
    evaluation of the bound computes it itself (see :func:`theta_stage`).
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
        K, chol = kzz_factor(Z, self.hyper)
        kzz = (K, chol, lapack.dtrtri(chol, lower=1)[0])
        for arr in kzz:
            arr.setflags(write=False)
        object.__setattr__(self, "_kzz", kzz)

    def with_var_state(self, var_state: VariationalState) -> "Model":
        """This model with an M-point q(u) = ``var_state``, sharing K_zz's factor."""
        model = copy.copy(self)
        object.__setattr__(model, "var_state", var_state)
        return model

    # -- cached factors -------------------------------------------------
    @property
    def kzz(self) -> np.ndarray:
        return self._kzz[0]

    def kzz_solve(self, rhs: np.ndarray) -> np.ndarray:
        """(K_zz + jitter)^-1 rhs for an M x k ``rhs``, as L^-T (L^-1 rhs): two
        gemms, several times faster than LAPACK's dpotrs on L at one BLAS
        thread, and no less accurate (see tests/test_core.py)."""
        return self._kzz[2].T @ (self._kzz[2] @ rhs)

    def kzz_solve_rows(self, A: np.ndarray) -> np.ndarray:
        """A (K_zz + jitter)^-1 for an N x M ``A``, as (A L^-T) L^-1: rows
        a_n^T = k_n^T K^-1, C-contiguous."""
        return (A @ self._kzz[2].T) @ self._kzz[2]

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
    Abar = model.kzz_solve_rows(A)                    # rows a_n^T = k_n^T K^-1
    mu = Abar @ model.var_state.m
    AbarL = Abar @ model.var_state.L
    var = model.hyper.gamma - np.einsum("nm,nm->n", Abar, A) \
        + np.einsum("nm,nm->n", AbarL, AbarL)
    return mu, np.maximum(var, VAR_FLOOR)


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only: one eigen-solve per n."""
    rule = roots_legendre(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def gauss_legendre(d: Domain, res) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre nodes and weights over the domain,
    ``res[r]`` of them along dimension r."""
    half = 0.5 * d.extent
    rules = [_legendre_rule(int(n)) for n in res]
    nodes = tensor_grid([lo + h * (x + 1.0) for lo, h, (x, _) in zip(d.lo, half, rules)])
    weights = tensor_grid([h * w for h, (_, w) in zip(half, rules)]).prod(axis=1)
    return nodes, weights


def node_count(model: Model) -> int:
    """Gauss-Legendre nodes per dimension for the domain integral of f^2 in
    the held-out scores of :mod:`vbpp.predictive`: from n = 8, doubled
    until the rule's integral of E_q*[f^2] = mu^2 + sigma^2 agrees at n and
    2n to 1e-9 relative, or until 2n would exceed 4096 nodes in all."""
    def integral(n):
        nodes, weights = gauss_legendre(model.domain, [n] * model.domain.dims)
        mu, var = qf_marginals(nodes, model)
        return weights @ (mu**2 + var)

    n, value = 8, integral(8)
    while (2 * n) ** model.domain.dims <= 4096:
        finer = integral(2 * n)
        if abs(finer - value) <= 1e-9 * abs(finer):
            break
        n, value = 2 * n, finer
    return n


def domain_integrals(model: Model, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """B = K^-1 Psi K^-1 = int a(x) a(x)^T dx, a(x) = K^-1 k(Z, x), and the
    prior part of int Var[f], int (gamma - k(x, Z) a(x)) dx.

    Both by a Gauss-Legendre rule on a(x), from :meth:`Model.kzz_solve_rows`,
    whose rounding is first order in cond K_zz; from Psi by two solves it is
    second order (at coal-1d's fit, cond 1.2e9, int E[f]^2 came out 1.3e-9
    of itself low).  On the integrands, sums of exp(-(x - z)^2 / alpha_r),
    n_r nodes err by about exp(-(2 n_r sqrt(alpha_r) / extent_r)^2).  Past
    RULE_MAX_NODES, where lengthscales are short and K_zz well conditioned,
    both come from ``psi``."""
    h, d = model.hyper, model.domain
    counts = np.ceil(RULE_NODES_PER_SCALE * d.extent / np.sqrt(h.alpha)) + RULE_MIN_NODES
    if counts.prod() > RULE_MAX_NODES:
        solved = model.kzz_solve(psi)
        return model.kzz_solve(solved.T), h.gamma * domain_measure(d) - float(solved.trace())
    nodes, weights = gauss_legendre(d, counts)
    A = gram(nodes, model.inducing.Z, h)
    Abar = model.kzz_solve_rows(A)
    return Abar.T @ (weights[:, None] * Abar), \
        float(weights @ (h.gamma - np.einsum("nm,nm->n", Abar, A)))


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
    at_q: tuple | None = None   # what theta_gradient reads (see q_terms)

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


def elbo_and_gradient(model: Model, events: EventSet, wrt=GRAD_BLOCKS):
    """Bound value and its analytic gradient, returned for the blocks in ``wrt``.

    ``wrt`` names blocks of ("log_gamma", "log_alpha", "u_bar", "m", "L",
    "Z").  Positive parameters are differentiated in log space.  The "L"
    block is q(u)'s covariance relative to its factor L: L^T (dL/dS) L, the
    gradient in a symmetric Y at 0 for S = L (I + Y) L^T.  The "Z" block is
    M x R, the gradient in the inducing locations.  Returns (value, dict of
    gradient blocks).
    """
    terms = _evaluate(model, events, wrt)
    return terms.elbo, terms.grads


def xz_sq_diffs(events: EventSet, Z: np.ndarray) -> np.ndarray:
    """The events' squared differences to Z per dimension, R x N x M."""
    return sq_diffs(as_points(events.points, Z.shape[1]), Z)


class ThetaStage(NamedTuple):
    """The bound's factors that q(u) does not enter (see :func:`theta_stage`)."""

    model: Model
    X: np.ndarray                # the events, N x R
    xz_sq: np.ndarray            # their squared differences to Z, R x N x M
    psi: tuple                   # Psi and its partials, as psi_with_partials returns them
    A: np.ndarray                # K(X, Z)
    Abar: np.ndarray             # rows a_n^T = k_n^T K^-1
    B: np.ndarray                # K^-1 Psi K^-1, as domain_integrals returns it
    int_var_prior: float         # gamma |T| - tr(K^-1 Psi), likewise
    var_prior: np.ndarray        # gamma - a_n^T k_n


def theta_stage(model: Model, events: EventSet = EventSet(), with_z: bool = False,
                xz_sq: np.ndarray | None = None) -> ThetaStage:
    """The part of :func:`_evaluate` that q(u) does not enter, made once per
    theta, with K^-1 by the model's inverse factor.  Psi comes with its
    log-alpha partials, and with its Z ones if ``with_z``, for which
    :func:`theta_gradient` then forms the "Z" block.  K(X, Z) reads
    ``xz_sq``, the events' :func:`xz_sq_diffs`, made here unless given."""
    h, Z = model.hyper, model.inducing.Z
    psi = psi_with_partials(Z, h, model.domain, with_z)
    X = as_points(events.points, Z.shape[1])
    xz_sq = sq_diffs(X, Z) if xz_sq is None else xz_sq
    A = kernel_from_sq(xz_sq, h)             # N x M, as gram(X, Z, h)
    Abar = model.kzz_solve_rows(A)
    return ThetaStage(model, X, xz_sq, psi, A, Abar, *domain_integrals(model, psi[0]),
                      h.gamma - np.einsum("nm,nm->n", Abar, A))


def q_terms(stage: ThetaStage, var_state: VariationalState) -> BoundTerms:
    """The bound's q(u) stage: its four terms at q(u) = ``var_state`` on
    ``stage``, q(u)'s "m" and "L" blocks (as in :func:`elbo_and_gradient`),
    and in ``at_q`` the stage, q(u) and the products at q(u) that
    :func:`theta_gradient` reads.  No events run the same code with N = 0."""
    model, h, M = stage.model, stage.model.hyper, var_state.m.size
    m, Lq = var_state.m, var_state.L
    Abar, B = stage.Abar, stage.B

    d = h.u_bar - m
    solved = model.kzz_solve(np.column_stack([m, d, Lq]))
    c, q, U = solved[:, 0], solved[:, 1], solved[:, 2:]       # U = K^-1 L
    v, BL = B @ m, B @ Lq                       # K^-1 Psi c, K^-1 Psi U
    int_mean_sq = float(m @ v)
    int_var = stage.int_var_prior + float((Lq * BL).sum())     # + tr(L^T B L)

    logdet_s = 2.0 * float(np.log(Lq.diagonal()).sum())
    kl = 0.5 * (float((Lq * U).sum()) + model.kzz_logdet - logdet_s - M + float(d @ q))

    mu = Abar @ m
    AbarL = Abar @ Lq
    var_raw = stage.var_prior + np.einsum("nm,nm->n", AbarL, AbarL)
    clamped = var_raw < VAR_FLOOR
    var = np.maximum(var_raw, VAR_FLOOR)
    ell, gslope = expected_log_f_sq(mu, var)
    data = float(ell.sum())

    e_mu = gslope * mu / var
    e_s = 1.0 / var - gslope * mu**2 / (2.0 * var**2)
    e_s = np.where(clamped, 0.0, e_s)            # floored variance is locally constant
    Amu = Abar.T @ e_mu                          # sum_n e_mu_n a_n
    C = Abar.T @ (Abar * e_s[:, None])           # sum_n e_s_n a_n a_n^T
    grads = {"m": -2.0 * v + q + Amu,
             # L^T dL/dS L, whose S^-1 term is the identity exactly; formed
             # itself, S^-1 would cancel against K^-1 and lose eps cond(S)
             "L": 0.5 * np.eye(M) - 0.5 * (Lq.T @ U) - Lq.T @ BL + Lq.T @ C @ Lq}
    return BoundTerms(int_mean_sq, int_var, data, kl, grads,
                      (stage, var_state, c, q, U, v, BL, AbarL, e_mu, e_s, Amu, C))


def _evaluate(model: Model, events: EventSet = EventSet(), wrt=()) -> BoundTerms:
    """The one evaluation of the bound: every function above is a view of it.
    It is :func:`q_terms` at the model's q(u) on the model's
    :func:`theta_stage`, made with Z's partials if ``wrt`` names "Z", and
    :func:`theta_gradient` on those terms if ``wrt`` names a theta block."""
    wrt = tuple(wrt)
    unknown = set(wrt) - set(GRAD_BLOCKS)
    if unknown:
        raise ValueError(f"unknown gradient blocks: {sorted(unknown)}")
    terms = q_terms(theta_stage(model, events, "Z" in wrt), model.var_state)
    if not set(wrt) <= {"m", "L"}:
        terms.grads.update(theta_gradient(terms))
    return BoundTerms(*terms[:4], {b: terms.grads[b] for b in wrt})


def theta_gradient(terms: BoundTerms) -> dict:
    """The bound's theta blocks, "log_gamma", "log_alpha", "u_bar" and, if
    the stage was made ``with_z``, "Z", at the q(u) of ``terms``, a
    :func:`q_terms`; at the q(u) a fit solves they are the gradient of the
    solved bound.  They read the stage and the products kept in ``at_q``."""
    stage, var_state, c, q, U, v, BL, AbarL, e_mu, e_s, Amu, C = terms.at_q
    model, h, Z = stage.model, stage.model.hyper, stage.model.inducing.Z
    M, R = Z.shape
    psi, A, Abar, B = stage.psi[0], stage.A, stage.Abar, stage.B
    grads = {"u_bar": -float(q.sum())}

    # Raw partials of the bound w.r.t. the kernel structures, which still
    # contract with an explicit K^-1 (ROADMAP item 1).
    K, Kinv, xz_sq = model.kzz, model.kzz_solve(np.eye(M)), stage.xz_sq
    W = U @ U.T                                     # K^-1 S K^-1
    work = np.empty_like(A)                         # N x M scratch
    g_psi = -np.multiply.outer(c, c) + Kinv - W
    M1 = U @ BL.T                                   # K^-1 S K^-1 Psi K^-1
    Gk = (np.multiply.outer(v, c) + np.multiply.outer(c, v)) - B + (M1 + M1.T) \
        - 0.5 * (Kinv - W - np.multiply.outer(q, q))
    What = AbarL @ U.T                          # rows w_n^T = k_n^T W
    AsW = C @ var_state.L @ U.T                 # sum_n e_s_n a_n w_n^T
    Gk = Gk - np.multiply.outer(Amu, c) + C - AsW - AsW.T
    # GA = outer(e_mu, c) + e_s * (-2 Abar + 2 What), built in place.
    GA = np.multiply(Abar, -2.0)
    What *= 2.0
    GA += What
    GA *= e_s[:, None]
    GA += np.multiply.outer(e_mu, c, out=work)
    GA_A = np.multiply(GA, A, out=What)         # What is spent
    g_gamma_direct = -domain_measure(model.domain) + float(e_s.sum())
    grads["log_gamma"] = float((Gk * K).sum()) + 2.0 * float((g_psi * psi).sum()) \
        + g_gamma_direct * h.gamma + float(GA_A.sum())

    # One pass over the dimensions forms the Z-Z differences once for both
    # blocks; the X-Z ones only for the Z block.
    grads["log_alpha"] = np.empty(R)
    with_z = stage.psi[2] is not None
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
            + float((g_psi * stage.psi[1][r]).sum()) + float(work.sum())
        if with_z:
            np.subtract.outer(stage.X[:, r], Z[:, r], out=delta_xz)
            np.multiply(GA_A, delta_xz, out=work)    # GA A delta / alpha_r
            work /= h.alpha[r]
            grads["Z"][:, r] = (Gk_sym * K * (-delta_zz / h.alpha[r])).sum(axis=1) \
                + (g_psi_sym * stage.psi[2][r]).sum(axis=1) + work.sum(axis=0)

    return grads


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
    except (KeyError, TypeError, ValueError) as exc:   # valid JSON, but not a saved model
        raise ValueError(f"{path}: not a vbpp model ({exc!r})") from exc
