"""Seeded generator of paper-shaped raw inputs for the tamperscan CLI.

Writes three ACS-style demographic profile tables (DP02/DP03/DP05) and
the 2016 and 2020 county election files, and renders the manifest that
points a workload at them.
The layout follows the paper's scan: 3,112 counties outside Alaska (plus
one Alaska row that `ingest` must drop), the 18 training states of the
Texas suit (1,491 counties) and the four contested evaluation states
GA, MI, PA and WI (381 counties).

Features are strongly collinear, as the real percent tables are: every
column is a noisy function of a few latent county factors, and most of
them come in percent blocks that sum to 100. Every estimate column has a
margin-of-error twin, and a few identifiers repeat across tables. The
2020 share is a smooth function of the same factors plus county noise, so
evaluation counties are predicted about as well as training ones. In each
evaluation state one county's size is solved for so that the state margin
is about 1% of its two-party vote, which gives `sweep` eligible counties.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_STATES = {
    "TX": 254, "MO": 115, "AL": 67, "AR": 75, "FL": 67, "IN": 92, "KS": 105,
    "LA": 64, "MS": 82, "MT": 56, "NE": 93, "ND": 53, "OK": 77, "SC": 46,
    "SD": 66, "TN": 95, "UT": 29, "WV": 55,
}
EVAL_STATES = {"GA": 159, "MI": 83, "PA": 67, "WI": 72}
OTHER_STATES = {
    "AZ": 15, "CA": 58, "CO": 64, "CT": 8, "DE": 3, "DC": 1, "HI": 4, "ID": 44,
    "IL": 102, "IA": 99, "KY": 120, "ME": 16, "MD": 24, "MA": 14, "MN": 87,
    "NV": 17, "NH": 10, "NJ": 21, "NM": 33, "NY": 62, "NC": 100, "OH": 88,
    "OR": 36, "RI": 5, "VT": 14, "VA": 133, "WA": 39, "WY": 23,
}
N_COUNTIES = 3112

STATE_FIPS = {
    "AL": "01", "AK": "02", "AZ": "04", "AR": "05", "CA": "06", "CO": "08",
    "CT": "09", "DE": "10", "DC": "11", "FL": "12", "GA": "13", "HI": "15",
    "ID": "16", "IL": "17", "IN": "18", "IA": "19", "KS": "20", "KY": "21",
    "LA": "22", "ME": "23", "MD": "24", "MA": "25", "MI": "26", "MN": "27",
    "MS": "28", "MO": "29", "MT": "30", "NE": "31", "NV": "32", "NH": "33",
    "NJ": "34", "NM": "35", "NY": "36", "NC": "37", "ND": "38", "OH": "39",
    "OK": "40", "OR": "41", "PA": "42", "RI": "44", "SC": "45", "SD": "46", "TN": "47",
    "TX": "48", "UT": "49", "VT": "50", "VA": "51", "WA": "53", "WV": "54",
    "WI": "55", "WY": "56",
}

# Estimate columns per table, before the identifiers every table repeats.
TABLE_WIDTHS = {"DP02": 110, "DP03": 100, "DP05": 92}

N_FACTORS = 10
SHARE_NOISE_SD = 0.02
STATE_MARGIN = 0.01
INJECTED_SHIFT = 0.3
CENSUS_SEED = 2020


@dataclass(frozen=True)
class Inputs:
    """Where the generated files are and what the checks need to know."""

    root: Path
    files: dict
    inject_fips: str
    inject_k: int
    inject_direction: str


def _state_layout():
    counts = {**TRAIN_STATES, **EVAL_STATES, **OTHER_STATES}
    if sum(counts.values()) != N_COUNTIES:
        raise AssertionError(f"state layout has {sum(counts.values())} counties")
    fips, states = [], []
    for st in sorted(counts, key=lambda s: STATE_FIPS[s]):
        for i in range(counts[st]):
            fips.append(STATE_FIPS[st] + f"{2 * i + 1:03d}")
            states.append(st)
    return fips, states


def _percent_block(model, F, size):
    w = model.normal(0.0, 0.6, (F.shape[1], size))
    logits = F @ w + model.normal(0.0, 0.25, (F.shape[0], size)) + model.normal(0, 0.5, size)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return 100.0 * e / e.sum(axis=1, keepdims=True)


def _features(model, F, width):
    """`width` collinear columns: percent blocks of 3-8, then single ratios."""
    cols = []
    while width - len(cols) >= 8:
        cols.extend(_percent_block(model, F, int(model.integers(3, 9))).T)
    while len(cols) < width:
        w = model.normal(0.0, 0.5, F.shape[1])
        z = F @ w + model.normal(0.0, 0.3, F.shape[0])
        cols.append(100.0 / (1.0 + np.exp(-z)))
    return np.column_stack(cols[:width])


def _solve_margin(total, share, target):
    """Resize one county so the state's R-D margin is `target` of its vote."""
    a = float(np.sum(total * (2 * share - 1)))
    s = float(np.sum(total))
    need = target * s - a
    # the pivot county must lean the way the margin has to move
    j = int(np.argmax(share)) if need > 0 else int(np.argmin(share))
    lean = 2 * share[j] - 1
    s_rest = s - total[j]
    a_rest = a - total[j] * lean
    size = (target * s_rest - a_rest) / (lean - target)
    if size < 1000:
        raise ValueError("cannot balance the state margin")
    total[j] = size
    return total


def generate(root: Path, seed: int) -> Inputs:
    """Write every raw input under `root`; the same seed writes the same bytes.

    The counties, their demographics and sizes, and which party carries
    each evaluation state are fixed, as the census and the political map
    are; `seed` draws the election on top of them: the share noise, a
    turnout jitter and the margin-of-error cells. Seeds are thus samples
    of one workload, and a run's cost does not hinge on a seed that
    happens to draw an easy design matrix or a few huge swept counties.
    """
    model = np.random.default_rng(CENSUS_SEED)
    rng = np.random.default_rng([seed, 2020])
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    fips, states = _state_layout()
    # the Alaska row rides along in every file and must be dropped by ingest
    fips.append("02020")
    states.append("AK")
    n = len(fips)
    states_arr = np.array(states)

    state_mean = {st: model.normal(0.0, 0.4, N_FACTORS) for st in STATE_FIPS}
    F = np.array([state_mean[st] for st in states]) + model.normal(0.0, 1.0, (n, N_FACTORS))

    tables = {t: _features(model, F, w) for t, w in TABLE_WIDTHS.items()}
    households = np.exp(9.0 + 0.5 * F[:, 0] + model.normal(0.0, 1.0, n))
    # in every table; ingest keeps the DP02 copy and reports the others
    shared = {
        "total_households": np.round(households),
        "total_population": np.round(households * (2.5 + 0.1 * F[:, 1])),
        "median_age": np.round(39.0 + 3.0 * F[:, 2], 1),
    }

    a = model.normal(0.0, 0.35, N_FACTORS)
    latent = 0.3 + F @ a
    share_true = np.clip(1.0 / (1.0 + np.exp(-latent)), 0.1, 0.9)
    share20 = np.clip(share_true + rng.normal(0.0, SHARE_NOISE_SD, n), 0.05, 0.95)
    share16 = np.clip(share_true + 0.01 + rng.normal(0.0, SHARE_NOISE_SD, n), 0.05, 0.95)

    size = np.exp(model.normal(np.log(9000.0), 1.25, n)).clip(600, None)
    total = size * rng.uniform(0.95, 1.05, n)
    for st in EVAL_STATES:
        idx = np.flatnonzero(states_arr == st)
        sign = 1.0 if model.random() < 0.5 else -1.0
        total[idx] = _solve_margin(total[idx], share20[idx], sign * STATE_MARGIN)
    total = np.round(total).astype(np.int64)
    rep20 = np.round(share20 * total).astype(np.int64)
    dem20 = total - rep20
    total16 = np.round(total * rng.uniform(0.85, 0.95, n)).astype(np.int64)
    rep16 = np.round(share16 * total16).astype(np.int64)
    dem16 = total16 - rep16

    names = [f"Synth {f} County" for f in fips]
    files = {}
    for t, values in tables.items():
        header = ["fips", "county_name"]
        cols = []
        for j in range(values.shape[1]):
            header += [f"{t}_{j + 1:04d}_pct", f"{t}_{j + 1:04d}_pct_moe"]
            moe = np.round(rng.uniform(0.1, 4.0, n), 1)
            cols += [np.round(values[:, j], 1), moe]
        for name, col in shared.items():
            header += [name, f"{name}_moe"]
            cols += [col, np.round(np.abs(col) * rng.uniform(0.01, 0.05, n), 1)]
        path = root / f"{t.lower()}.csv"
        _write(path, header, fips, names, cols)
        files[t.lower()] = path
    for year, rep, dem in ((2020, rep20, dem20), (2016, rep16, dem16)):
        path = root / f"election_{year}.csv"
        _write(path, ["fips", "county_name", "rep_votes", "dem_votes"], fips, names, [rep, dem])
        files[f"election_{year}"] = path

    # a big, competitive evaluation county takes the injection
    eval_idx = np.flatnonzero(np.isin(states_arr, list(EVAL_STATES)))
    fair = eval_idx[(share20[eval_idx] > 0.3) & (share20[eval_idx] < 0.7)]
    target = int(fair[np.argmax(total[fair])])
    k = int(round(INJECTED_SHIFT * total[target]))
    direction = "R_to_D" if share20[target] >= 0.5 else "D_to_R"
    return Inputs(root, files, fips[target], k, direction)


def _write(path, header, fips, names, cols):
    """CSV with integer columns as integers and the rest to one decimal."""
    text = [
        np.char.mod("%d" if np.issubdtype(c.dtype, np.integer) else "%.1f", c) for c in cols
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(fips, names, *text))


MANIFEST = """\
[run]
target_year = 2020
out_dir = out

[inputs]
{inputs}

[data]
dataset = out/dataset.csv

[cv]
{cv}

[mc]
trials = {trials}
seed = 0

[blind]
train_states = {train}
eval_states = {eval}

[injection]
fips = {fips}
k = {k}
direction = {direction}

[sweep]
states = {eval}
{sweep}
"""


def manifest_text(inputs: Inputs, base: Path, cv: dict, trials: int, k_step: int | None) -> str:
    """Manifest text whose input paths are relative to directory `base`."""
    return MANIFEST.format(
        inputs="\n".join(
            f"{key} = {os.path.relpath(p, base)}" for key, p in sorted(inputs.files.items())
        ),
        cv="\n".join(f"{key} = {value}" for key, value in cv.items()),
        trials=trials,
        train=", ".join(TRAIN_STATES),
        eval=", ".join(EVAL_STATES),
        fips=inputs.inject_fips,
        k=inputs.inject_k,
        direction=inputs.inject_direction,
        sweep="" if k_step is None else f"k_step = {k_step}",
    )
