"""Output checks run after every command; each returns a list of problems."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# A converged fit may end slightly off the reference optimum when the BLAS
# thread count changes the iterate path; landing lower than this is a
# worse optimum or an early stop.
ELBO_TOLERANCE = 1e-3


def _non_finite(doc, path="") -> list[str]:
    if isinstance(doc, float):
        return [] if math.isfinite(doc) else [path or "<root>"]
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def _load_json(path: str, problems: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return None
    bad = _non_finite(doc)
    if bad:
        problems.append(f"{path}: non-finite numbers at {', '.join(bad[:3])}")
    return doc


def _read_rows(path: str, problems: list[str]):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return None
    try:
        return [[float(v) for v in row] for row in rows if row and not row[0][:1].isalpha()]
    except ValueError:
        problems.append(f"{path}: non-numeric row")
        return None


def check_simulate(out_dir: str) -> list[str]:
    problems: list[str] = []
    for name in ("events.csv", "truth.csv"):
        rows = _read_rows(os.path.join(out_dir, name), problems)
        if rows is not None and not rows:
            problems.append(f"{name}: empty")
        if rows and not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"{name}: non-finite values")
    return problems


def check_fit(out_dir: str, elbo_ref: float) -> tuple[list[str], dict]:
    """Finite model, converged, ELBO no lower than the reference optimum."""
    problems: list[str] = []
    doc = _load_json(os.path.join(out_dir, "model.json"), problems)
    meta = (doc or {}).get("fit_metadata") or {}
    summary = {"elbo": meta.get("elbo"), "iterations": meta.get("iterations"),
               "converged": meta.get("converged"), "message": meta.get("message")}
    if doc is None:
        return problems, summary
    if meta.get("converged") is not True:
        problems.append(f"fit did not converge: {meta.get('message')!r}")
    elbo = meta.get("elbo")
    floor = elbo_ref - ELBO_TOLERANCE * max(1.0, abs(elbo_ref))
    if not isinstance(elbo, float) or elbo < floor:
        problems.append(f"fit ELBO {elbo!r} below the reference optimum {elbo_ref}")
    return problems, summary


def check_predict(out_dir: str, n_points: int) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(os.path.join(out_dir, "intensity.csv"), problems)
    if rows is None:
        return problems
    if len(rows) != n_points:
        problems.append(f"intensity.csv has {len(rows)} rows, expected {n_points}")
    for row in rows:
        lower, mean, upper = row[-2], row[-3], row[-1]
        if not all(math.isfinite(v) for v in row) or not lower <= mean <= upper:
            problems.append(f"intensity.csv: bad row {row}")
            break
    return problems


def check_evaluate(out_dir: str) -> list[str]:
    """Finite report, and both bounds below their Monte Carlo estimates
    up to four standard errors plus a 0.5-nat allowance."""
    problems: list[str] = []
    doc = _load_json(os.path.join(out_dir, "report.json"), problems)
    if doc is None:
        return problems
    try:
        for bound, est, err in (("l_p", "m_p_hat", "m_p_stderr"),
                                ("l_0", "m_0_hat", "m_0_stderr")):
            if not doc[bound] <= doc[est] + 4 * doc[err] + 0.5:
                problems.append(f"{bound}={doc[bound]} exceeds "
                                f"{est}={doc[est]} + 4*{doc[err]} + 0.5")
    except (KeyError, TypeError) as exc:
        problems.append(f"report.json: missing field {exc}")
    return problems


def digest(out_dir: str) -> str:
    """SHA-256 over every file in ``out_dir``, names included, in sorted order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
