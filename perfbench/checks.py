"""Output checks for the tamperscan CLI, and the duality gap of a written model.

Every check reads only files the CLI wrote. A check returns a list of
problems; an empty list means the command's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from gen import EVAL_STATES

SIGMA_DETECTED = 4.0

EXPECTED = {
    "ingest": ("dataset.csv", "dataset_meta.json", "cleaning_report.json"),
    "fit": ("model.json", "cv.json", "ranking.csv", "scores.json", "residuals.csv"),
    "blind": ("blind_model.json", "blind_cv.json", "blind_ranking.csv", "blind_scores.json",
              "blind_residuals.csv", "counterfactuals.json"),
    "inject": ("comparison.json", "injected_ranking.csv", "injected_scores.json"),
    "sweep": ("sweep_summary.json",
              *(f"sweep_{st}.{ext}" for st in EVAL_STATES for ext in ("csv", "svg"))),
    "calibrate": ("calibration.csv",),
}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _stamp(path: Path) -> str | None:
    """The manifest hash a file carries: a JSON key, or a leading comment line."""
    if path.suffix == ".json":
        doc = _json(path)
        return doc.get("manifest_sha256") or doc.get("meta", {}).get("manifest_sha256")
    with open(path) as fh:
        head = fh.read(4096)
    marker = "manifest_sha256="
    at = head.find(marker)
    return head[at + len(marker):at + len(marker) + 64] if at >= 0 else None


def check_command(command, out: Path, manifest_sha: str, inputs) -> list[str]:
    """Problems with the files `command` wrote into `out`."""
    problems = []
    for name in EXPECTED[command]:
        path = out / name
        if not path.is_file():
            problems.append(f"{command}: {name} missing")
            continue
        if _stamp(path) != manifest_sha:
            problems.append(f"{command}: {name} lacks the manifest hash")
    if problems:
        return problems
    if command == "inject":
        top = _rows(out / "injected_ranking.csv")[0]
        if top["fips"] != inputs.inject_fips:
            problems.append(f"inject: rank 1 is {top['fips']}, not {inputs.inject_fips}")
        injected = next(
            c for c in _json(out / "injected_scores.json")["counties"]
            if c["fips"] == inputs.inject_fips
        )
        if not injected["global_sigma"] >= SIGMA_DETECTED:
            problems.append(f"inject: global sigma {injected['global_sigma']:.3f} < 4")
    elif command == "calibrate":
        bad = [r for r in _rows(out / "calibration.csv") if r["agrees"] != "True"]
        if bad:
            problems.append(f"calibrate: {len(bad)} rows disagree")
    elif command == "sweep":
        states = _json(out / "sweep_summary.json")["states"]
        empty = [st for st in EVAL_STATES if not states.get(st, {}).get("curves")]
        if empty:
            problems.append(f"sweep: no curve for {empty}")
    return problems


def digest(command, out: Path) -> str:
    """sha256 over the bytes of every file `command` wrote."""
    h = hashlib.sha256()
    for name in EXPECTED[command]:
        path = out / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.is_file() else b"\0missing")
    return h.hexdigest()


def load_design(dataset_csv: Path, year: int = 2020):
    """Feature matrix, column index, states and target shares of a dataset file."""
    with open(dataset_csv, newline="") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        header = next(reader)
        rows = list(reader)
    first = 3 + 2 * sum(h.startswith("rep_") for h in header)  # fips, state, name, tallies
    X = np.array([r[first:] for r in rows], dtype=np.float64)
    rep = np.array([r[header.index(f"rep_{year}")] for r in rows], dtype=np.float64)
    dem = np.array([r[header.index(f"dem_{year}")] for r in rows], dtype=np.float64)
    states = np.array([r[1] for r in rows])
    columns = {name: j for j, name in enumerate(header[first:])}
    return X, columns, states, rep / (rep + dem)


def relative_gap(model_json: Path, design) -> float:
    """Elastic-net duality gap of a written model over its primal objective.

    The gap is recomputed from scratch on the model's own training rows
    (all counties, or the training states it records) standardized with
    the model's stored transform; the intercept is the mean residual, so
    the problem is the centred one the solver minimizes.
    """
    doc = _json(model_json)
    X, columns, states, y = design
    train = doc["training_meta"].get("train_states")
    rows = np.isin(states, train) if train else np.ones(len(y), dtype=bool)
    std = doc["standardization"]
    cols = [columns[n] for n in std["names"]]
    Xs = (X[np.ix_(rows, cols)] - np.array(std["mean"])) / np.array(std["scale"])
    beta = np.array([doc["coefficients"][n] for n in std["names"]])
    alpha, l1_ratio = doc["penalty"]["alpha"], doc["penalty"]["l1_ratio"]
    yc = y[rows] - y[rows].mean()
    n = yc.shape[0]
    # gap of (1/2)|r|^2 + l1 |b|_1 + (l2/2)|b|^2, which is n times the solver's loss
    l1, l2 = n * alpha * l1_ratio, n * alpha * (1.0 - l1_ratio)
    r = yc - Xs @ beta
    dual_norm = float(np.max(np.abs(Xs.T @ r - l2 * beta)))
    scale = min(1.0, l1 / dual_norm) if dual_norm > 0 else 1.0
    rr, bb = float(r @ r), float(beta @ beta)
    gap = 0.5 * rr * (1.0 + scale**2) - scale * float(r @ yc)
    gap += l1 * float(np.abs(beta).sum()) + 0.5 * l2 * (1.0 + scale**2) * bb
    primal = 0.5 * rr + l1 * float(np.abs(beta).sum()) + 0.5 * l2 * bb
    return gap / primal
