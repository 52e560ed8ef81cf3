from importlib.resources import files

import numpy as np
import pytest

from vbpp.pointdata import (
    Domain,
    EventSet,
    PointDataError,
    check_in_domain,
    coal_style_dataset,
    domain_measure,
    as_points,
    load_events,
    save_events,
    split_events,
    write_json,
)


def contains(d: Domain, points: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying inside the closed hyper-rectangle."""
    pts = as_points(points, d.dims)
    return np.logical_and(pts >= d.lo, pts <= d.hi).all(axis=1)


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


def test_domain_basic_properties():
    d = Domain([0.0, -1.0], [2.0, 3.0])
    assert d.dims == 2
    assert np.allclose(d.extent, [2.0, 4.0])
    assert domain_measure(d) == 8.0


def test_domain_rejects_bad_bounds():
    with pytest.raises(PointDataError):
        Domain([0.0], [0.0])
    with pytest.raises(PointDataError):
        Domain([1.0], [0.5])
    with pytest.raises(PointDataError):
        Domain([0.0, 1.0], [1.0])
    with pytest.raises(PointDataError):
        Domain([0.0], [np.inf])


def test_domain_contains_is_closed():
    d = Domain([0.0], [1.0])
    mask = contains(d, np.array([[0.0], [1.0], [0.5], [-1e-12], [1.0 + 1e-12]]))
    assert mask.tolist() == [True, True, True, False, False]
    flat = contains(d, np.array([0.0, 1.0, 0.5, -1e-12, 1.0 + 1e-12]))
    assert flat.tolist() == [True, True, True, False, False]


def test_eventset_empty_is_valid():
    ev = EventSet()
    assert ev.n == 0
    ev2 = EventSet(np.empty((0, 3)))
    assert ev2.n == 0 and ev2.points.shape[1] == 3


def test_as_points_takes_an_array_with_no_rows_as_the_empty_set():
    for empty in (EventSet().points, np.empty((0, 3)), [], np.empty(0)):
        assert as_points(empty, 2).shape == (0, 2)
    with pytest.raises(ValueError, match="2 coordinates"):
        as_points(np.empty((3, 0)), 2)        # three points without coordinates
    pts = np.array([[0.5, 1.0], [2.0, 3.0]])
    assert as_points(pts, 2) is pts


def test_check_in_domain_takes_a_non_finite_coordinate_as_outside():
    d = Domain([0.0, 0.0], [1.0, 1.0])
    check_in_domain(EventSet().points, d)
    check_in_domain(np.array([[0.0, 1.0], [0.5, 0.5]]), d)   # boundaries inclusive
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(PointDataError, match="point 1: coordinate 1 = .* outside"):
            check_in_domain(np.array([[0.5, 0.5], [0.5, bad]]), d)


def test_load_events_of_an_empty_file_has_the_domain_dims(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("x0,x1\n")
    assert load_events(path, Domain([0.0, 0.0], [1.0, 1.0])).points.shape == (0, 2)


def test_eventset_promotes_1d_to_column():
    ev = EventSet(np.array([1.0, 2.0, 3.0]))
    assert ev.points.shape == (3, 1)


def test_eventset_rejects_nonfinite():
    with pytest.raises(PointDataError):
        EventSet(np.array([[np.nan]]))


def test_poisson_log_likelihood_values():
    # homogeneous rate 2 on |T| = 3 with events at rate 2: -6 + 2 log 2
    got = poisson_log_likelihood(np.log([2.0, 2.0]), 6.0)
    assert got == pytest.approx(-6.0 + 2.0 * np.log(2.0), abs=1e-14)
    # no events: just the void probability
    assert poisson_log_likelihood([], 1.7) == -1.7


def test_poisson_log_likelihood_rejects_bad_input():
    with pytest.raises(PointDataError):
        poisson_log_likelihood([0.0], -1.0)
    with pytest.raises(PointDataError):
        poisson_log_likelihood([np.inf], 1.0)


def test_load_save_roundtrip(tmp_path):
    d = Domain([0.0, 0.0], [1.0, 2.0])
    pts = np.array([[0.123456789012345, 1.999999999999], [0.0, 0.0]])
    path = tmp_path / "ev.csv"
    save_events(EventSet(pts), path)
    back = load_events(path, d)
    assert np.array_equal(back.points, pts)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_write_json_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        write_json({"x": bad}, path)
    assert not path.exists()
    write_json({"x": 1.5, "a": [1, 2]}, path)
    assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "x": 1.5\n}\n'


def test_load_events_skips_header_and_trims(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("time , mark\n 0.25 , 0.5 \n0.75,1.5\n\n")
    ev = load_events(path, Domain([0.0, 0.0], [1.0, 2.0]))
    assert np.allclose(ev.points, [[0.25, 0.5], [0.75, 1.5]])


def test_load_events_reports_malformed_row(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("0.1\nxyz\n")
    with pytest.raises(PointDataError, match="row 2"):
        load_events(path, Domain([0.0], [1.0]))


def test_load_events_reports_out_of_domain(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("0.5\n1.5\n")
    with pytest.raises(PointDataError, match="outside"):
        load_events(path, Domain([0.0], [1.0]))


def test_load_events_column_count_mismatch(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("0.5,0.5\n")
    with pytest.raises(PointDataError, match="columns"):
        load_events(path, Domain([0.0], [1.0]))


def test_split_events_partitions_and_is_deterministic():
    rng = np.random.default_rng(5)
    ev = EventSet(rng.random((200, 1)))
    a1, b1 = split_events(ev, 0.5, seed=9)
    a2, b2 = split_events(ev, 0.5, seed=9)
    assert a1.n + b1.n == ev.n
    assert np.array_equal(a1.points, a2.points)
    assert np.array_equal(b1.points, b2.points)
    joined = np.sort(np.concatenate([a1.points, b1.points]), axis=0)
    assert np.array_equal(joined, np.sort(ev.points, axis=0))
    a3, _ = split_events(ev, 0.5, seed=10)
    assert a3.n != a1.n or not np.array_equal(a3.points, a1.points)


def test_split_events_extreme_probabilities():
    ev = EventSet(np.linspace(0, 1, 50)[:, None])
    train, test = split_events(ev, 1.0, seed=0)
    assert train.n == 50 and test.n == 0


def test_split_events_rejects_a_fraction_outside_0_1():
    ev = EventSet(np.linspace(0, 1, 50)[:, None])
    for p in (1.5, -0.2, float("nan")):
        with pytest.raises(ValueError):
            split_events(ev, p, seed=0)


def test_bundled_dataset_shape_and_domain():
    ev, d = coal_style_dataset()
    assert ev.n == 190
    assert np.allclose(d.lo, [1851.0]) and np.allclose(d.hi, [1962.0])
    assert contains(d, ev.points).all()
    # times come sorted, convenient for plotting scripts
    assert (np.diff(ev.points[:, 0]) >= 0).all()
    # read through load_events, the file's values are those of a bare float() per line
    with files("vbpp.data").joinpath("coal_style.csv").open("r") as fh:
        pts = np.array([float(line) for line in fh if not line[:1].isalpha()])
    assert np.array_equal(ev.points, pts[:, None])
