"""Ground-truth Cox-process generation: GP draw on a grid, square link,
thinning-based event sampling.

The latent function is sampled exactly on a midpoint grid; between grid
points the intensity is nearest-cell constant, which keeps the thinning
bound exact and the generative density known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JITTER_SCALE, cholesky
from .kernel import HyperParams, gram
from .pointdata import Domain, EventSet, as_points, domain_measure, regular_grid, write_csv

DEFAULT_GRID_1D = 2048
DEFAULT_GRID_2D = 128


@dataclass(frozen=True)
class GroundTruth:
    """A realised intensity on a grid: lambda = f^2."""

    domain: Domain
    resolution: np.ndarray           # per-dimension cell counts
    grid: np.ndarray                 # cell midpoints, (P, R)
    f_values: np.ndarray
    lambda_values: np.ndarray

    def __post_init__(self):
        if (self.lambda_values < 0).any():
            raise ValueError("intensity values must be nonnegative")
        for name in ("resolution", "grid", "f_values", "lambda_values"):
            getattr(self, name).setflags(write=False)

    @property
    def cell_volume(self) -> float:
        return domain_measure(self.domain) / self.grid.shape[0]

    def integrated_rate(self) -> float:
        """Grid quadrature of the piecewise-constant intensity."""
        return float(self.lambda_values.sum() * self.cell_volume)

    def lambda_at(self, points: np.ndarray) -> np.ndarray:
        """Nearest-cell intensity lookup."""
        return self.lambda_values[_cell_index(points, self.domain, self.resolution)]


def make_grid(d: Domain, resolution=None):
    """Midpoint grid and its per-dimension cell counts."""
    if resolution is None:
        resolution = DEFAULT_GRID_1D if d.dims == 1 else DEFAULT_GRID_2D
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (d.dims,)).copy()
    return regular_grid(d, list(res)), res


def _cell_index(points: np.ndarray, d: Domain, res: np.ndarray) -> np.ndarray:
    pts = as_points(points, d.dims)
    width = d.extent / res
    idx = np.clip(((pts - d.lo) / width).astype(int), 0, res - 1)
    flat = np.zeros(pts.shape[0], dtype=int)
    for r in range(d.dims):
        flat = flat * res[r] + idx[:, r]
    return flat


def _rng(seed: int, tag: int) -> np.random.Generator:
    # Counter-based streams keyed by (seed, purpose) never interleave.
    return np.random.Generator(np.random.Philox(key=[seed, tag]))


def sample_gp_grid(h: HyperParams, grid_points: np.ndarray, seed: int) -> np.ndarray:
    """Exact GP draw on the grid with constant mean h.u_bar; deterministic in
    ``seed``.

    The grid covariance K plus the model's nugget, JITTER_SCALE * gamma, is
    built and factored in one P x P float64 array: K is exactly symmetric, so
    :func:`vbpp.core.cholesky` factors its F-ordered view K.T in place.  A K
    that does not factor at that nugget raises LinAlgError.
    """
    K = gram(grid_points, grid_points, h)
    np.fill_diagonal(K, K.diagonal() + JITTER_SCALE * h.gamma)
    chol = cholesky(K.T)
    rng = _rng(seed, 0x4750)
    return h.u_bar + chol @ rng.standard_normal(grid_points.shape[0])


def ground_truth(h: HyperParams, d: Domain, resolution=None, seed: int = 0) -> GroundTruth:
    """Draw f on a grid and square it into an intensity."""
    grid, res = make_grid(d, resolution)
    f = sample_gp_grid(h, grid, seed)
    return GroundTruth(domain=d, resolution=res, grid=grid, f_values=f, lambda_values=f**2)


def thin_sample(truth: GroundTruth, d: Domain, seed: int) -> EventSet:
    """Events by thinning a dominating uniform process at rate max(lambda).

    Candidate count is Poisson(lambda_max |T|); each candidate is kept with
    probability lambda(x) / lambda_max under the nearest-cell intensity.
    """
    lam_max = float(truth.lambda_values.max())
    if lam_max == 0.0:
        return EventSet(np.empty((0, d.dims)))
    rng = _rng(seed, 0x5448)
    n_cand = rng.poisson(lam_max * domain_measure(d))
    cand = d.lo + rng.random((n_cand, d.dims)) * d.extent
    accept = rng.random(n_cand) < truth.lambda_at(cand) / lam_max
    return EventSet(cand[accept])


def save_ground_truth(truth: GroundTruth, path) -> None:
    """CSV of grid coordinates plus intensity, for downstream RMSE scoring."""
    write_csv(path, np.column_stack([truth.grid, truth.lambda_values]).tolist(),
              header=[f"x{r}" for r in range(truth.domain.dims)] + ["lambda"])
