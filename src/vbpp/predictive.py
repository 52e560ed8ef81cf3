"""Held-out predictive bounds, their Monte-Carlo counterparts and posterior
intensity summaries.

Given a fitted model, the predictive bound on a test set H is the training
bound evaluated with the fitted (m*, S*, Theta*) and the test events, with no
KL term, a view of the one bound in :mod:`vbpp.core`.  The tightened
variant collapses S to zero and is taken from the Monte Carlo's marginals.

The corresponding true predictive likelihoods, p(H) = E[prod_k f(x_k)^2
exp(-int f^2)] under q*(f) (mode "Mp") or q(f | u = m) (mode "M0"), are
estimated by importance sampling in a latent space.  f is taken jointly at
the test events and at tensor-product Gauss-Legendre nodes over the domain,
which integrate f^2, and written f = mean + H z with z ~ N(0, I): H = G for
M0 and H = [G, A-bar L] for Mp, where G is one pivoted Cholesky factor of
rank r of the covariance of q(f | u = m), taken with no jitter.  The
quadrature term is a quadratic in z, so it is folded exactly into the
Gaussian, which leaves prod_k f_k^2: f is needed only at the test events.
The proposal is a mixture of Laplace fits to that target, one per sign
orthant of f at the test events that may hold mass, plus a defensive
component.  The estimate is the log of the mean weight, with its
delta-method stderr and the weights' effective sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack
from scipy.special import ndtri

from .core import (VAR_FLOOR, Model, cholesky, expected_log_f_sq, gauss_legendre, node_count,
                   predictive_bound_lp, qf_marginals)
from .kernel import gram
from .pointdata import EventSet, as_points, check_in_domain

DEFENSIVE_SHARE = 0.05   # of the draws, from the defensive component
MAX_COMPONENTS = 8       # Laplace fits in one mixture
SCREEN_NATS = 12.0       # see _laplace_components
DRAW_CHUNK_BYTES = 2**23  # bounds each draws x n_test array of _importance_sample


class MCEstimate(NamedTuple):
    """A Monte-Carlo estimate of log p(H), its stderr, the effective sample
    size of its importance weights and the number of mixture components."""

    log_mean: float
    stderr: float
    ess: float
    components: int


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
    m_p_ess: float
    m_0_ess: float
    m_p_components: int

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
    Abar = model.kzz_solve_rows(A)
    cov = blas.dgemm(-1.0, Abar.T, A.T, beta=1.0, c=gram(points, points, model.hyper).T,
                     trans_a=1, overwrite_c=1)
    return Abar @ model.var_state.m, cov, Abar @ model.var_state.L


def _collapsed_bound(mean: np.ndarray, var: np.ndarray, n: int, weights: np.ndarray) -> float:
    """l_0 from q(f | u = m)'s means and variances at ``n`` test events, then
    the quadrature's nodes: sum_k E[log f_k^2] - sum_j w_j E[f_j^2].  From
    the Monte Carlo's own marginals it sits below M_0 by Jensen's inequality."""
    var = np.maximum(var, VAR_FLOOR)
    ell, _ = expected_log_f_sq(mean[:n], var[:n])
    return float(ell.sum()) - float(weights @ (mean[n:] ** 2 + var[n:]))


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


def _tilted_gaussian(Hn: np.ndarray, mu_n: np.ndarray, weights: np.ndarray):
    """The quadrature term folded into the latent Gaussian: with
    f_n = mu_n + Hn z at the nodes and z ~ N(0, I),

        N(z; 0, I) exp(-sum_j w_j f_j^2) = Z0 N(z; m0, Lambda^-1),
        Lambda = I + 2 Hn^T W Hn.

    Returns (Lambda, its lower Cholesky factor, m0, log Z0).
    """
    WH = weights[:, None] * Hn
    lam = 2.0 * (Hn.T @ WH)
    lam[np.diag_indices_from(lam)] += 1.0
    chol = cholesky(lam.copy(order="F"))
    b = -2.0 * (WH.T @ mu_n)
    m0 = lapack.dpotrs(chol, b, lower=1)[0]
    log_z0 = 0.5 * (b @ m0) - weights @ mu_n**2 - np.log(chol.diagonal()).sum()
    return lam, chol, m0, float(log_z0)


def _log_target(lam, m0, z, f) -> float:
    """log N(z; m0, Lambda^-1) + sum_k log f_k^2, without the normaliser."""
    dz = z - m0
    return float(np.log(f * f).sum() - 0.5 * dz @ (lam @ dz))


def _orthant_mode(lam, m0, Ht, mu_t, z, f2_floor):
    """Mode of :func:`_log_target`, f = mu_t + Ht z, in the sign orthant of f
    at the start ``z``.

    The target is log-concave there.  Damped Newton steps stop short of any
    f_k's zero and backtrack until the target rises; the search ends when the
    Newton decrement falls below 1e-10 or after 50 steps.  The Hessian's
    weights 2 / f_k^2 take f_k^2 no smaller than ``f2_floor``, so that an f_k
    near zero on the way cannot swamp Lambda in rounding; a mode's f_k^2 lies
    far above it.  Returns (z, f, log target at z, lower Cholesky factor of
    the negated Hessian Lambda + 2 Ht^T diag(1/f^2) Ht at z).
    """
    f = mu_t + Ht @ z
    value = _log_target(lam, m0, z, f)
    for steps in range(51):
        grad = lam @ (m0 - z) + Ht.T @ (2.0 / f)
        scaled = Ht / np.sqrt(np.maximum(f * f, f2_floor))[:, None]
        chol = cholesky(blas.dsyrk(2.0, scaled, trans=1, lower=1, beta=1.0,
                                   c=lam.copy(order="F"), overwrite_c=1))
        step = lapack.dpotrs(chol, grad, lower=1)[0]
        decrement = grad @ step
        if decrement <= 1e-10 or steps == 50:
            break
        df = Ht @ step
        toward = f * df < 0
        t = min(1.0, 0.99 * np.min(-f[toward] / df[toward])) if toward.any() else 1.0
        while t > 1e-10:
            z_new = z + t * step
            f_new = mu_t + Ht @ z_new
            new_value = _log_target(lam, m0, z_new, f_new)
            if new_value >= value + 0.25 * t * decrement and (f_new * f > 0).all():
                break
            t *= 0.5
        else:
            break
        z, f, value = z_new, f_new, new_value
    return z, f, value, chol


def _laplace_components(lam, lam_chol, m0, Ht, mu_t):
    """The Laplace fits of :func:`_orthant_mode`, one per sign orthant found.

    The first is the mode reached from m0, or, where f vanishes at m0, from
    the point that moves each such f_k about one sd s_k off zero, s_k^2 being
    f_k's variance under N(m0, Lambda^-1).  An event is a candidate for a
    sign flip when its f at m0 lies within 3 s_k of zero.  s_k leaves out the
    event's own factor f_k^2, so a cluster of events near a zero of f
    qualifies, as a lone one does.  From each fit in turn, new starts are
    made: the fit's mode reflected through m0, which flips every event near
    zero at once, and each candidate mirrored, moving z along the
    candidate's Laplace regression Lambda-hat^-1 h_k until f_k takes the
    opposite value, which may flip events correlated with it too.  A start
    in an orthant not yet fitted is fitted unless the target there lies more
    than ``SCREEN_NATS`` below the first mode; at most ``MAX_COMPONENTS``
    are fitted.  The searches floor f_k^2 in the Hessian at (1e-6 s_k)^2.
    Returns a list of (z, f, log target, factor) tuples.
    """
    f0 = mu_t + Ht @ m0
    tilted = blas.dtrsm(1.0, lam_chol, Ht, side=1, lower=1, trans_a=1)     # Ht C^-T
    var = np.einsum("kd,kd->k", tilted, tilted)
    candidates = np.flatnonzero(f0**2 < 9.0 * var)
    candidates = candidates[np.argsort(f0[candidates] ** 2 / var[candidates], kind="stable")]
    zero = (f0 == 0) & (var > 0)
    push = tilted[zero].T @ (1.0 / np.sqrt(var[zero]))
    start = m0 + lapack.dtrtrs(lam_chol, push, lower=1, trans=1)[0]
    f2_floor = 1e-12 * var
    components = [_orthant_mode(lam, m0, Ht, mu_t, start, f2_floor)]
    if not candidates.size:
        return components
    seen, floor = {(components[0][1] > 0).tobytes()}, components[0][2] - SCREEN_NATS

    def full(start) -> bool:
        """Fit the orthant of f at ``start`` if it is new and the target there
        clears the screen; whether the mixture is full."""
        f = mu_t + Ht @ start
        orthant = (f > 0).tobytes()
        if orthant not in seen and f.all() and _log_target(lam, m0, start, f) >= floor:
            seen.add(orthant)
            components.append(_orthant_mode(lam, m0, Ht, mu_t, start, f2_floor))
        return len(components) == MAX_COMPONENTS

    for z_hat, f_hat, _, chol in components:        # grows as orthants are found
        # the reflection through m0 flips every event near zero at once:
        # where f's mean vanishes, it is the mode's mirror image
        if full(2.0 * m0 - z_hat):
            return components
        B = blas.dtrsm(1.0, chol, Ht, side=1, lower=1, trans_a=1)      # Ht C^-T
        for k in candidates:
            regression = lapack.dtrtrs(chol, B[k], lower=1, trans=1)[0]
            if full(z_hat - (2.0 * f_hat[k] / (B[k] @ B[k])) * regression):
                return components
    return components


def _importance_sample(Hn, Ht, mu_n, mu_t, weights, n_samples: int,
                       rng: np.random.Generator) -> MCEstimate:
    """log E[prod_k f_k^2 exp(-sum_j w_j f_j^2)] for f = mu + H z, z ~ N(0, I),
    where Ht and Hn are H's rows at the test events and the nodes.

    The proposal mixes the Laplace components, weighted by their evidence,
    with a defensive component (Hesterberg 1995) that takes
    ``DEFENSIVE_SHARE`` of the draws: the tilted Gaussian's covariance
    Lambda^-1, centred at the first mode.  The Laplace components are
    narrower than the target, whose tails are those of N(m0, Lambda^-1) times
    a polynomial; the defensive one keeps the weights' variance finite.  Each
    component gets its share of the draws, rounded to whole draws by largest
    remainders, and the mixture density uses those realised shares.  A
    component j with factor C_j (Lambda-hat_j = C_j C_j^T = Lambda + Ht^T D_j
    Ht, D_j = 2 / f_j^2 for a Laplace fit and 0 for the defensive one) draws
    z = z_j + C_j^-T e.  Every component's density, and the target's, then
    follows from f at the test events and g_i^T (z - m0), g_i = Lambda (z_i -
    m0):

        (z - z_i)^T Lambda-hat_i (z - z_i) = q(z) - 2 g_i^T (z - m0)
            + g_i^T (z_i - m0) + sum_k D_ik (f_k - f_ik)^2,

    and q(z) = (z - m0)^T Lambda (z - m0) cancels in the weight.  So each draw
    costs one product with the (n_test + K) x D matrix [Ht; g^T] C_j^-T.  The
    draws are made in chunks of at most ``DRAW_CHUNK_BYTES`` per array; the
    stream is the same whatever the chunk, so the weights agree to rounding.
    An empty test set returns log Z0 exactly, with no draws.
    """
    lam, lam_chol, m0, log_z0 = _tilted_gaussian(Hn, mu_n, weights)
    if not Ht.shape[0]:
        return MCEstimate(log_z0, 0.0, 0.0, 0)
    components = _laplace_components(lam, lam_chol, m0, Ht, mu_t)
    log_evidence = np.array([value - np.log(c.diagonal()).sum() for _, _, value, c in components])
    shares = np.exp(log_evidence - log_evidence.max())
    shares = np.append((1.0 - DEFENSIVE_SHARE) / shares.sum() * shares, DEFENSIVE_SHARE)
    components.append((components[0][0], components[0][1], None, lam_chol))
    exact = n_samples * shares
    counts = np.floor(exact).astype(int)
    counts[np.argsort(counts - exact, kind="stable")[:n_samples - counts.sum()]] += 1
    components = [c for c, n in zip(components, counts) if n]
    counts = counts[counts > 0]

    # row i of each: component i's log density, up to -q(z)/2 and the terms
    # every component shares, is const_i + g_i^T (z - m0) + quad_i f^2 + lin_i f
    K, (n_t, dims) = len(components), Ht.shape
    g, quad, lin, const = np.empty((K, dims)), np.zeros((K, n_t)), np.zeros((K, n_t)), np.empty(K)
    for i, (z, f, value, c) in enumerate(components):
        g[i] = lam @ (z - m0)
        const[i] = np.log(counts[i] / n_samples) + np.log(c.diagonal()).sum() \
            - 0.5 * g[i] @ (z - m0)
        if value is not None:                       # a Laplace fit
            quad[i], lin[i] = -1.0 / f**2, 2.0 / f
            const[i] -= n_t
    Hg, log_w = np.vstack([Ht, g]), []
    chunk = max(1, DRAW_CHUNK_BYTES // (8 * (n_t + K)))
    for j, (z, f, _, c) in enumerate(components):
        A = blas.dtrsm(1.0, c, Hg, side=1, lower=1, trans_a=1)
        offset = const + g @ (z - m0)
        parts = []
        for done in range(0, counts[j], chunk):
            y = rng.standard_normal((min(chunk, counts[j] - done), dims)) @ A.T
            fj = y[:, :n_t]
            fj += f
            f2 = fj * fj
            terms = y[:, n_t:] + offset + f2 @ quad.T + fj @ lin.T
            peak = terms.max(axis=1)
            log_mix = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
            parts.append(np.log(f2).sum(axis=1) - log_mix)
        log_w.append(np.concatenate(parts))
    return _mixture_estimate(log_w, log_z0 + np.log(lam_chol.diagonal()).sum())


def _mixture_estimate(log_w: list[np.ndarray], shift: float) -> MCEstimate:
    """The estimate from ``shift`` plus the log weights of each component's
    draws, one array per component: the log of the mean weight, its
    delta-method stderr with the variance taken within components (each
    drew its fixed share), Kish's effective sample size and the component
    count."""
    peak = max(lw.max() for lw in log_w)
    w = [np.exp(lw - peak) for lw in log_w]
    n = sum(x.size for x in w)
    mean = sum(x.sum() for x in w) / n
    var = sum(x.size * x.var(ddof=1) for x in w if x.size > 1) / n**2
    ess = (n * mean) ** 2 / sum(x @ x for x in w)
    return MCEstimate(float(shift + peak + np.log(mean)), float(np.sqrt(var) / mean),
                      float(ess), len(w))


def _mc_estimates(model: Model, test: EventSet, n_samples: int, grid_res,
                  seed: int, modes=("Mp", "M0")) -> tuple[dict[str, MCEstimate], int, float]:
    """Importance-sampling estimates of log p(H) for each Monte-Carlo mode in
    ``modes``, keyed "Mp" and "M0", the rank of the joint covariance's
    factor and l_0 from the same marginals (:func:`_collapsed_bound`).

    ``grid_res`` is the number of Gauss-Legendre nodes per dimension.  One
    factor G of the covariance of q(f | u = m) at the test events and the
    nodes serves both modes: f = mean + H z with H = [G, A-bar L] draws from
    q*(f) (mode "Mp") and H = G from q(f | u = m) (mode "M0").  Each mode
    draws from its own Philox stream, keyed by ``seed`` and the mode's name,
    so its estimate is the same whether or not the other mode is computed.
    A test event outside the domain raises PointDataError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = model.domain
    res = np.broadcast_to(np.asarray(grid_res, dtype=int), (d.dims,))
    if (res < 8).any():
        raise ValueError("at least 8 quadrature nodes per dimension are required")
    check_in_domain(test.points, d, origin="test event")
    nodes, weights = gauss_legendre(d, res)
    points = np.vstack([as_points(test.points, d.dims), nodes])

    mean, cov, AbarL = _joint_qf(model, points)
    l_0 = _collapsed_bound(mean, cov.diagonal(), test.n, weights)   # before cov is factored
    c, rank, order = _pivoted_cholesky(cov)
    G = np.tril(c[:, :rank])[order]
    n = test.n
    estimates = {}
    for mode in modes:
        H = np.hstack([G, AbarL]) if mode == "Mp" else G
        stream = np.random.Philox(key=[seed, int.from_bytes(mode.encode(), "big")])
        estimates[mode] = _importance_sample(H[n:], H[:n], mean[n:], mean[:n], weights,
                                             n_samples, np.random.Generator(stream))
    return estimates, rank, l_0


def mc_predictive(model: Model, test: EventSet, mode: str, n_samples: int,
                  grid_res, seed: int = 0):
    """Monte-Carlo estimate of the true predictive log-likelihood under
    q*(f) (mode "Mp") or q(f | u = m) (mode "M0"), with the domain integral
    of f^2 taken by ``grid_res`` Gauss-Legendre nodes per dimension.
    Returns (estimate, delta-method stderr); see :func:`_importance_sample`.
    """
    if mode not in ("Mp", "M0"):
        raise ValueError(f"mode must be 'Mp' or 'M0', got {mode!r}")
    return tuple(_mc_estimates(model, test, n_samples, grid_res, seed, (mode,))[0][mode][:2])


def predictive_bound_l0(model: Model, test: EventSet) -> float:
    """Tightened bound with the variational covariance collapsed to zero,
    E[log p(H | f)] under q(f | u = m), at :func:`node_count`'s nodes, as
    :func:`_collapsed_bound` takes it from the Monte Carlo's marginals."""
    d = model.domain
    nodes, weights = gauss_legendre(d, [node_count(model)] * d.dims)
    mean, cov, _ = _joint_qf(model, np.vstack([as_points(test.points, d.dims), nodes]))
    return _collapsed_bound(mean, cov.diagonal(), test.n, weights)


def predictive_report(model: Model, test: EventSet, n_samples: int = 1_000,
                      seed: int = 0) -> PredictiveReport:
    """Bundle both bounds and both MC estimates for a test set, with the
    quadrature's node count (``grid_resolution``) chosen by ``node_count``,
    the rank of the joint covariance's factor (``mc_rank``), each mode's
    effective sample size and the Mp mixture's component count."""
    res = [node_count(model)] * model.domain.dims
    estimates, rank, l_0 = _mc_estimates(model, test, n_samples, res, seed)
    mp, m0 = estimates["Mp"], estimates["M0"]
    return PredictiveReport(
        l_p=predictive_bound_lp(model, test),
        l_0=l_0,
        m_p_hat=mp.log_mean, m_p_stderr=mp.stderr,
        m_0_hat=m0.log_mean, m_0_stderr=m0.stderr,
        n_samples=n_samples,
        grid_resolution=res,
        mc_rank=rank,
        m_p_ess=mp.ess, m_0_ess=m0.ess, m_p_components=mp.components,
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
