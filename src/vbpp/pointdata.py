"""Observation domains, event sets, point arrays and grids, event files and
the inhomogeneous-Poisson log-likelihood.

Points are N x R rows.  :func:`as_points` is the one rule for shaping a point
set given R: a flat array is one point when its length is R and otherwise N
one-dimensional points.  Grids are Cartesian products with the last
dimension varying fastest (:func:`tensor_grid`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class PointDataError(ValueError):
    """Raised for malformed event files or points outside the domain."""


def as_points(x, dims: int) -> np.ndarray:
    """``x`` as an N x ``dims`` float array of points, one per row."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :] if pts.shape[0] == dims else pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dims:
        raise ValueError(f"points must have {dims} coordinates, got shape {pts.shape}")
    return pts


def tensor_grid(axes) -> np.ndarray:
    """Cartesian product of 1-D ``axes`` as rows, the last axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


@dataclass(frozen=True)
class Domain:
    """Hyper-rectangular observation window in R^R.

    Parameters
    ----------
    lo, hi : array-like, shape (R,)
        Per-dimension lower / upper boundaries.  hi[r] > lo[r] is required
        in every dimension.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise PointDataError("domain bounds must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise PointDataError("domain bounds must be finite")
        if not (hi > lo).all():
            bad = int(np.argmin(hi - lo))
            raise PointDataError(f"domain has non-positive extent in dimension {bad}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def dims(self) -> int:
        return self.lo.shape[0]

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying inside the closed hyper-rectangle."""
        pts = as_points(points, self.dims)
        return np.logical_and(pts >= self.lo, pts <= self.hi).all(axis=1)


@dataclass(frozen=True)
class EventSet:
    """A set of N observed points, one per row.  N = 0 is valid."""

    points: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise PointDataError("event points must form an N x R matrix")
        if pts.size and not np.isfinite(pts).all():
            raise PointDataError("event coordinates must be finite")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]


def domain_measure(d: Domain) -> float:
    """Lebesgue measure |T| of the hyper-rectangle: the product of extents."""
    return float(np.prod(d.extent))


def regular_grid(d: Domain, per_dim: int | list[int]) -> np.ndarray:
    """Per-dimension grids at cell midpoints, Cartesian product across dims.

    Midpoints sit half a cell away from the boundary, so no two grid points
    coincide with domain corners or each other.
    """
    counts = np.broadcast_to(np.asarray(per_dim, dtype=int), (d.dims,))
    if (counts < 1).any():
        raise ValueError(f"grid counts must be at least 1, got {counts.tolist()}")
    return tensor_grid([d.lo[r] + d.extent[r] / counts[r] * (np.arange(counts[r]) + 0.5)
                        for r in range(d.dims)])


def _check_in_domain(points: np.ndarray, d: Domain, origin: str = "point") -> None:
    pts = as_points(points, d.dims)
    below = pts < d.lo
    above = pts > d.hi
    bad = below | above
    if bad.any():
        i, r = np.argwhere(bad)[0]
        raise PointDataError(
            f"{origin} {i}: coordinate {r} = {pts[i, r]:g} outside "
            f"[{d.lo[r]:g}, {d.hi[r]:g}]"
        )


def load_events(path, d: Domain) -> EventSet:
    """Load events from a CSV file, one point per row, R comma-separated columns.

    Whitespace around fields is trimmed and a single non-numeric header row is
    skipped.  Every point must lie inside ``d`` (boundaries inclusive).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise PointDataError(f"{path}: malformed row {lineno}: {line!r}") from None
            if len(vals) != d.dims:
                raise PointDataError(
                    f"{path}: row {lineno} has {len(vals)} columns, expected {d.dims}"
                )
            rows.append(vals)
    pts = np.asarray(rows, dtype=float) if rows else np.empty((0, d.dims))
    if pts.size:
        _check_in_domain(pts, d, origin=f"{path}: row")
    return EventSet(pts)


def write_csv(path, rows, header=None) -> None:
    """Write rows of Python numbers as CSV, each value as its repr, in one call.

    ``header`` is an optional list of column names for a first line.
    """
    lines = [",".join(header)] if header else []
    lines += [",".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_events(events: EventSet, path) -> None:
    """Write an event set as bare CSV (no header), round-trippable by load_events."""
    write_csv(path, events.points.tolist())


def poisson_log_likelihood(log_rates_at_events, integrated_rate: float) -> float:
    """Inhomogeneous-Poisson log-density of the observed events.

    log p(D | lambda) = -integral(lambda) + sum_n log lambda(x_n), where the
    caller supplies the integral of the rate over the domain and the log-rates
    at the events.
    """
    log_rates = np.asarray(log_rates_at_events, dtype=float)
    if not np.isfinite(integrated_rate) or integrated_rate < 0:
        raise PointDataError(f"integrated rate must be finite and >= 0, got {integrated_rate}")
    if log_rates.size and not np.isfinite(log_rates).all():
        raise PointDataError("log rates at events must be finite")
    return float(-integrated_rate + log_rates.sum())


def coal_style_dataset() -> tuple[EventSet, Domain]:
    """Bundled 1-D example: 190 event times on the window [1851, 1962].

    A synthetic record with a smoothly declining rate, shipped in-repo so the
    examples and evaluation scripts run without any download step.
    """
    from importlib.resources import files

    d = Domain([1851.0], [1962.0])
    with files("vbpp.data").joinpath("coal_style.csv").open("r") as fh:
        pts = np.array([float(line) for line in fh if not line[:1].isalpha()])
    return EventSet(pts[:, None]), d


def split_events(events: EventSet, p: float, seed: int) -> tuple[EventSet, EventSet]:
    """Allocate each event independently to (train, test) with P(train) = p.

    Deterministic in ``seed``; used for held-out evaluation protocols.
    Raises ValueError unless 0 <= p <= 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"split fraction must lie in [0, 1], got {p}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x5BB1]))
    mask = rng.random(events.n) < p
    return EventSet(events.points[mask]), EventSet(events.points[~mask])
