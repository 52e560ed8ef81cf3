"""Held-out predictive bounds, their Monte-Carlo counterparts and posterior
intensity summaries.

Given a fitted model, the predictive bound on a test set H is the training
bound evaluated with the fitted (m*, S*, Theta*) and the test events, with no
KL term.  The tightened variant collapses S to zero.  Both are views of the
one bound evaluation in :mod:`vbpp.core`.  The corresponding true
predictive log-likelihoods are estimated by exact joint Gaussian sampling of
f on the test points plus tensor-product Gauss-Legendre nodes over the
domain, which integrate f^2.  The joint covariance is positive
semi-definite, often of numerical rank r far below its size: one pivoted
Cholesky factor of rank r, taken with no jitter, and one draw stream serve
both Monte-Carlo modes, and each draw takes r normals.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg import blas, lapack
from scipy.special import ndtri, roots_legendre

from .core import Model, predictive_bound_l0, predictive_bound_lp, qf_marginals
from .kernel import gram
from .pointdata import Domain, EventSet, tensor_grid


@dataclass(frozen=True)
class PredictiveReport:
    """Bounds and Monte-Carlo estimates of held-out predictive likelihood."""

    l_p: float
    l_0: float
    m_p_hat: float
    m_p_stderr: float
    m_0_hat: float
    m_0_stderr: float
    n_samples: int
    grid_resolution: list[int]
    mc_rank: int

    def to_dict(self) -> dict:
        return asdict(self)


def _joint_qf(model: Model, points: np.ndarray):
    """q(f) jointly at ``points``: the mean A-bar m, the covariance
    K_pp - A-bar A^T of q(f | u = m), and A-bar L.

    The covariance is F-contiguous: A-bar A^T is taken off K_pp in its own
    buffer (``dgemm`` with beta = 1), and :func:`_pivoted_cholesky`
    overwrites it with its factor.  It is symmetric only up to rounding; the
    factor reads its lower triangle.  The covariance of q*(f) is that one
    plus (A-bar L)(A-bar L)^T.
    """
    A = gram(points, model.inducing.Z, model.hyper)
    Abar = model.kzz_solve(A.T).T
    cov = blas.dgemm(-1.0, Abar.T, A.T, beta=1.0, c=gram(points, points, model.hyper).T,
                     trans_a=1, overwrite_c=1)
    return Abar @ model.var_state.m, cov, Abar @ model.var_state.L


def _log_mean_exp(values: np.ndarray) -> float:
    peak = values.max()
    return float(peak + np.log(np.mean(np.exp(values - peak))))


def _jackknife_stderr(values: np.ndarray, block: int = 100) -> float:
    """Delete-one-block jackknife stderr of the log-mean-exp of ``values``.

    Each block's log-sum-exp is taken once; the estimate without block b
    combines the other blocks' log-sum-exps, so the cost is O(n + B^2) for
    B blocks."""
    n = values.size
    n_blocks = n // block
    if n_blocks < 2:
        n_blocks, block = n, 1
        if n < 2:
            return 0.0
    blocks = values[: n_blocks * block].reshape(n_blocks, block)
    peaks = blocks.max(axis=1)
    lse = peaks + np.log(np.exp(blocks - peaks[:, None]).sum(axis=1))
    others = np.where(np.eye(n_blocks, dtype=bool), -np.inf, lse)  # row b: all blocks but b
    top = others.max(axis=1)
    estimates = top + np.log(np.exp(others - top[:, None]).sum(axis=1) / ((n_blocks - 1) * block))
    centre = estimates.mean()
    return float(np.sqrt((n_blocks - 1) / n_blocks * np.sum((estimates - centre) ** 2)))


def _gauss_legendre(d: Domain, res) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre nodes and weights over the domain,
    ``res[r]`` of them along dimension r."""
    half = 0.5 * d.extent
    rules = [roots_legendre(int(n)) for n in res]
    nodes = tensor_grid([lo + h * (x + 1.0) for lo, h, (x, _) in zip(d.lo, half, rules)])
    weights = tensor_grid([h * w for h, (_, w) in zip(half, rules)]).prod(axis=1)
    return nodes, weights


def _node_count(model: Model) -> int:
    """Gauss-Legendre nodes per dimension for the Monte-Carlo quadrature:
    from n = 8, doubled until the rule's integral of E_q*[f^2] = mu^2 +
    sigma^2 agrees at n and 2n to 1e-9 relative, or until 2n would exceed
    4096 nodes in all."""
    def integral(n):
        nodes, weights = _gauss_legendre(model.domain, [n] * model.domain.dims)
        mu, var = qf_marginals(nodes, model)
        return weights @ (mu**2 + var)

    n, value = 8, integral(8)
    while (2 * n) ** model.domain.dims <= 4096:
        finer = integral(2 * n)
        if abs(finer - value) <= 1e-9 * abs(finer):
            break
        n, value = 2 * n, finer
    return n


def _pivoted_cholesky(cov: np.ndarray):
    """Pivoted Cholesky factor of the positive semi-definite ``cov`` to its
    numerical rank, with no jitter, made in cov's own buffer when it is
    F-contiguous.

    LAPACK's ``dpstrf`` at its default tolerance (P eps max diag) reads the
    lower triangle.  Returns (c, rank, order): the rank-r factor is the
    lower trapezoid G = tril(c[:, :r]), and cov = G[order] G[order]^T, where
    ``order`` is the inverse of the pivot permutation.  A non-finite cov
    raises ``ValueError``.
    """
    c, piv, rank, info = lapack.dpstrf(np.asarray_chkfinite(cov), lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpstrf: argument {-info} had an illegal value")
    return c, int(rank), np.argsort(piv)


def _factor_draws(c: np.ndarray, rank: int, order: np.ndarray, batch: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``batch`` draws of G[order] e, e ~ N(0, I_rank), as a P x batch array,
    for the factor of :func:`_pivoted_cholesky`.

    The draws are made as e^T G^T in the rows of one F-ordered batch x P
    buffer: the tail e^T G21^T first (``dgemm``), then the head e^T G11^T in
    e's own columns (``dtrmm``); BLAS reads only G11's lower triangle.
    """
    P = c.shape[0]
    buf = np.empty((batch, P), order="F")
    head = buf[:, :rank]
    rng.standard_normal(out=head.T)
    if rank < P:
        blas.dgemm(1.0, head, c[rank:, :rank], trans_b=1, c=buf[:, rank:], overwrite_c=1)
    blas.dtrmm(1.0, c[:rank, :rank], head, side=1, lower=1, trans_a=1, overwrite_b=1)
    return buf.T[order]


def _mc_log_liks(model: Model, test: EventSet, n_samples: int, grid_res,
                 seed: int) -> tuple[dict[str, np.ndarray], int]:
    """Per-draw log p(H | f) for both Monte-Carlo modes, keyed "Mp" and "M0",
    and the rank of the joint covariance's factor.

    ``grid_res`` is the number of Gauss-Legendre nodes per dimension.  One
    factor and one draw stream serve both modes.  Each batch draws
    e ~ N(0, I_r) and eta ~ N(0, I_M): f0 = mean + G e is a draw from
    q(f | u = m) (mode "M0"), and f0 + (A-bar L) eta, whose covariance adds
    (A-bar L)(A-bar L)^T, is an exact draw from q*(f) (mode "Mp").
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = model.domain
    res = np.broadcast_to(np.asarray(grid_res, dtype=int), (d.dims,))
    if (res < 8).any():
        raise ValueError("at least 8 quadrature nodes per dimension are required")
    nodes, weights = _gauss_legendre(d, res)

    points = np.vstack([test.points, nodes]) if test.n else nodes
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x4D43]))

    n_test = test.n
    log_liks = {"Mp": np.empty(n_samples), "M0": np.empty(n_samples)}

    def score(f):
        return np.sum(np.log(f[:n_test] ** 2), axis=0) - weights @ f[n_test:] ** 2

    mean, cov, AbarL = _joint_qf(model, points)
    c, rank, order = _pivoted_cholesky(cov)
    for done in range(0, n_samples, 512):
        batch = min(512, n_samples - done)
        f = _factor_draws(c, rank, order, batch, rng)
        f += mean[:, None]
        eta = rng.standard_normal((AbarL.shape[1], batch))
        log_liks["M0"][done:done + batch] = score(f)
        f += AbarL @ eta
        log_liks["Mp"][done:done + batch] = score(f)
    return log_liks, rank


def mc_predictive(model: Model, test: EventSet, mode: str, n_samples: int,
                  grid_res, seed: int = 0):
    """Monte-Carlo estimate of the true predictive log-likelihood.

    Draws joint samples of f at the test points and ``grid_res``
    Gauss-Legendre nodes per dimension from q*(f) (mode "Mp") or from
    q(f | u = m) (mode "M0"); each sample scores log p(H | f) with the
    domain integral of f^2 taken by the Gauss-Legendre rule.  Returns
    (log-mean-exp estimate, jackknife stderr).
    """
    if mode not in ("Mp", "M0"):
        raise ValueError(f"mode must be 'Mp' or 'M0', got {mode!r}")
    log_liks = _mc_log_liks(model, test, n_samples, grid_res, seed)[0][mode]
    return _log_mean_exp(log_liks), _jackknife_stderr(log_liks)


def predictive_report(model: Model, test: EventSet, n_samples: int = 10_000,
                      seed: int = 0) -> PredictiveReport:
    """Bundle both bounds and both MC estimates for a test set, with the
    quadrature's node count (``grid_resolution``) chosen by ``_node_count``
    and the rank of the joint covariance's factor (``mc_rank``)."""
    res = [_node_count(model)] * model.domain.dims
    log_liks, rank = _mc_log_liks(model, test, n_samples, res, seed)
    mp, m0 = log_liks["Mp"], log_liks["M0"]
    return PredictiveReport(
        l_p=predictive_bound_lp(model, test),
        l_0=predictive_bound_l0(model, test),
        m_p_hat=_log_mean_exp(mp), m_p_stderr=_jackknife_stderr(mp),
        m_0_hat=_log_mean_exp(m0), m_0_stderr=_jackknife_stderr(m0),
        n_samples=n_samples,
        grid_resolution=res,
        mc_rank=rank,
    )


def posterior_intensity(model: Model, query):
    """Posterior mean intensity and a central band at each query point.

    The mean is E[f^2] = mu^2 + sigma^2; the band squares the central 95%
    interval of f, with lower end 0 whenever that interval straddles zero.

    Returns (mean, lower, upper) arrays.
    """
    mu, var = qf_marginals(query, model)
    sd = np.sqrt(var)
    zq = ndtri(0.975)
    f_lo = mu - zq * sd
    f_hi = mu + zq * sd
    straddles = (f_lo <= 0) & (f_hi >= 0)
    lower = np.where(straddles, 0.0, np.minimum(f_lo**2, f_hi**2))
    upper = np.maximum(f_lo**2, f_hi**2)
    return mu**2 + var, lower, upper
