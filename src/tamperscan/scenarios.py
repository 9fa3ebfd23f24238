"""Blinded fits, vote-flip injection, and detection-sensitivity sweeps.

The blinded protocol trains only on trusted states and scores held-out
states, so tampering in the scored states cannot steer the model. Injection
moves k ballots between parties in one county (two-party total conserved)
and asks whether the blinded analysis notices. A sweep runs the injection
over a k grid for every county big enough to flip its state, producing the
detectability curve and the constrained/unconstrained classification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .anomaly import McNull, Scoring, analytic_sigma_curve, fit_width, residuals, score_model
from .data_model import Dataset, _readonly, csv_prefix, format_floats, open_csv
from .elastic_net import CvResult, CvSettings, FitModel, fit_cv, predict
from .errors import ConfigError, DataError
from .fips import normalize_fips

DETECTION_SIGMA = 4.0

# Default held-out states: the four whose results the complaint contested.
DEFAULT_EVAL_STATES = frozenset({"PA", "WI", "MI", "GA"})


class Direction(str, Enum):
    R_TO_D = "R_to_D"
    D_TO_R = "D_to_R"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        for d in cls:
            if text.strip().lower() == d.value.lower():
                return d
        raise ConfigError(f"direction must be R_to_D or D_to_R, got {text!r}")


@dataclass(frozen=True)
class BlindSpec:
    """Disjoint training and evaluation state sets plus CV settings."""

    train_states: frozenset[str]
    eval_states: frozenset[str] = DEFAULT_EVAL_STATES
    cv: CvSettings = CvSettings()

    def __post_init__(self):
        train = frozenset(self.train_states)
        ev = frozenset(self.eval_states)
        object.__setattr__(self, "train_states", train)
        object.__setattr__(self, "eval_states", ev)
        if not train or not ev:
            raise ConfigError("train and eval state sets must both be non-empty")
        overlap = train & ev
        if overlap:
            raise ConfigError(f"states in both train and eval sets: {sorted(overlap)}")


@dataclass(frozen=True)
class InjectionSpec:
    """Flip k ballots in one county from the source party to the other.

    The county's FIPS code is normalized and a direction given as text is
    parsed, so a manifest's text builds the same spec as the typed values.
    """

    fips: str
    k: int
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "fips", normalize_fips(self.fips))
        object.__setattr__(self, "direction", Direction.parse(self.direction))
        if self.k < 0:
            raise ConfigError(f"flip count k must be non-negative, got {self.k}")


@dataclass(frozen=True)
class StateSummary:
    """Two-party totals for one state. Totals are reals so counterfactual
    (predicted-share) summaries can reuse the type."""

    state: str
    rep_total: float
    dem_total: float

    @property
    def margin(self) -> float:
        return abs(self.rep_total - self.dem_total)

    @property
    def winner(self) -> str:
        diff = self.rep_total - self.dem_total
        if diff > 0:
            return "R"
        if diff < 0:
            return "D"
        return "tie"


@dataclass(frozen=True)
class SweepCurve:
    """Detection curve for one (county, direction): global sigma `sigmas[i]`
    at `ks[i]` flipped votes, both held as read-only arrays."""

    fips: str
    county: str
    state: str
    direction: Direction
    ks: np.ndarray           # int64, strictly increasing
    sigmas: np.ndarray       # float64, non-decreasing
    margin: int              # state two-party margin M
    flip_threshold: int      # smallest k that flips the state, M//2 + 1
    k_detect: int | None     # first sampled k at or above 4 sigma

    def __post_init__(self):
        ks = _readonly(np.asarray(self.ks, dtype=np.int64))
        sigmas = _readonly(np.asarray(self.sigmas, dtype=np.float64))
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "sigmas", sigmas)
        if ks.shape != sigmas.shape:
            raise DataError(f"sweep has {ks.size} k values but {sigmas.size} sigmas")
        if np.any(ks[1:] <= ks[:-1]):
            raise DataError("sweep samples must be strictly increasing in k")
        if np.any(sigmas[1:] < sigmas[:-1] - 1e-12):
            raise DataError("sweep sigma must be non-decreasing in k")

    @property
    def unconstrained(self) -> bool:
        """Figure convention: undetected at k up to the full margin M."""
        return self.k_detect is None or self.k_detect > self.margin

    @property
    def unconstrained_literal(self) -> bool:
        """Literal convention: undetected at the smallest outcome-flipping k."""
        return self.k_detect is None or self.k_detect > self.flip_threshold


@dataclass(frozen=True)
class BlindContext:
    """One blinded training, reusable across many eval-set scorings."""

    spec: BlindSpec
    model: FitModel
    cv: CvResult


def prepare_blind_context(dataset: Dataset, spec: BlindSpec) -> BlindContext:
    """Cross-validate and fit on training states only.

    Because evaluation states never enter this function's data, the returned
    model is provably independent of anything done to their rows.
    """
    # fail before the CV on a train or eval state without a county
    empty = (spec.train_states | spec.eval_states) - {key.state for key in dataset.keys}
    if empty:
        raise ConfigError(f"no counties in states {sorted(empty)}")
    train = dataset.subset_states(spec.train_states)
    cv, model = fit_cv(train.X, train.shares(), train.feature_names, spec.cv)
    model = replace(
        model,
        training_meta={
            **model.training_meta,
            "cv_seed": spec.cv.seed,
            "train_states": sorted(spec.train_states),
            "eval_states": sorted(spec.eval_states),
            "n_train": train.n,
        },
    )
    return BlindContext(spec=spec, model=model, cv=cv)


def score_eval_set(ctx: BlindContext, dataset: Dataset, mc: McNull | None = None) -> Scoring:
    """Score the evaluation states of `dataset` under a prepared context.

    The look-elsewhere N is the evaluation-county count and the width is fit
    on the evaluation residuals themselves. The global sigma is analytic, or
    comes from the MC null `mc` when that is given.
    """
    return score_model(ctx.model, dataset.subset_states(ctx.spec.eval_states), mc)


def inject_flips(dataset: Dataset, spec: InjectionSpec) -> Dataset:
    """Return a copy of the dataset with k target-year ballots flipped.

    R_to_D removes k from the Republican tally and adds k to the Democratic
    tally (so the two-party total is conserved and the share moves by
    exactly -k/T); D_to_R is the mirror image. No other county changes.
    """
    i = dataset.index_of(spec.fips)
    rep = dataset.rep.copy()
    dem = dataset.dem.copy()
    source = rep[i] if spec.direction is Direction.R_TO_D else dem[i]
    if spec.k > source:
        party = "Republican" if spec.direction is Direction.R_TO_D else "Democratic"
        raise DataError(
            f"cannot flip {spec.k} {party} votes in county {spec.fips}: "
            f"only {int(source)} available (short {spec.k - int(source)})"
        )
    if spec.direction is Direction.R_TO_D:
        rep[i] -= spec.k
        dem[i] += spec.k
    else:
        dem[i] -= spec.k
        rep[i] += spec.k
    return Dataset.build(
        keys=dataset.keys,
        feature_names=dataset.feature_names,
        X=dataset.X,
        rep=rep,
        dem=dem,
        target_year=dataset.target_year,
    )


def state_summary(dataset: Dataset, state: str) -> StateSummary:
    """Actual target-year two-party totals and margin for one state."""
    sub = dataset.subset_states([state])
    return StateSummary(
        state=state,
        rep_total=float(sub.rep.sum()),
        dem_total=float(sub.dem.sum()),
    )


def counterfactual_winner(dataset: Dataset, model: FitModel, state: str) -> StateSummary:
    """State summary if every county had voted exactly as predicted.

    Each county's two-party total T is kept; its votes are re-split as
    predicted_share * T vs the remainder. Predictions are clamped to [0, 1]
    here, where they must act as vote fractions.
    """
    sub = dataset.subset_states([state])
    pred = np.clip(predict(model, sub.X, sub.feature_names), 0.0, 1.0)
    totals = (sub.rep + sub.dem).astype(np.float64)
    rep = pred * totals
    return StateSummary(
        state=state,
        rep_total=float(rep.sum()),
        dem_total=float((totals - rep).sum()),
    )


def _curve_sigmas(
    rep: int, dem: int, pred: float, width: float,
    ks: np.ndarray, direction: Direction, n_eval: int,
) -> np.ndarray:
    """Global sigma at each k, by exact tally arithmetic.

    The tampered share is rebuilt from integer tallies against the model's
    prediction, bit-identical to what a full re-run would produce.
    Significance is one-sided in the tampering direction against the
    baseline width: the deviation a flip of that direction creates is a
    share deficit (R_to_D) or excess (D_to_R), and measuring only that tail
    is what makes the curve monotone even for counties whose untampered
    residual leans the other way.
    """
    total = rep + dem
    if direction is Direction.R_TO_D:
        shares = (rep - ks) / total
        deviation = np.maximum(0.0, -(shares - pred))
    else:
        shares = (rep + ks) / total
        deviation = np.maximum(0.0, shares - pred)
    return analytic_sigma_curve(deviation / width, n_eval)


def sweep(
    dataset: Dataset,
    blind: BlindSpec,
    state: str,
    k_step: int | None = None,
    threads: int = 1,
    *,
    context: BlindContext,
) -> list[SweepCurve]:
    """Detection curves for every county able to flip its state.

    For each direction, a county is eligible when its source-party votes
    exceed the state margin M. k runs from 0 to min(source votes, 2M) in
    steps of max(1, M // 50) (finer if k_step is given), endpoint included.
    The blinded model of `context` (training never sees eval states) and
    the baseline evaluation width serve every curve; `blind` must be the
    spec it was prepared for. `threads` is accepted and ignored: each curve
    is one vectorized call, and a thread pool over curves was slower than
    this loop.
    """
    if state not in blind.eval_states:
        raise ConfigError(f"sweep state {state} is not in the evaluation set")
    summary = state_summary(dataset, state)
    margin = int(round(summary.margin))
    if margin == 0:
        raise ConfigError(f"state {state} is exactly tied; sweep undefined")
    if context.spec != blind:
        raise ConfigError("supplied context was prepared for a different blind spec")
    base = residuals(context.model, dataset.subset_states(blind.eval_states))
    pred_by_fips = {k.fips: float(p) for k, p in zip(base.keys, base.predicted)}
    width = fit_width(base).width

    sub = dataset.subset_states([state])
    step = k_step if k_step is not None else max(1, margin // 50)
    if step < 1:
        raise ConfigError(f"k_step must be at least 1, got {step}")

    curves = []
    for key, rep, dem in zip(sub.keys, sub.rep.tolist(), sub.dem.tolist()):
        for direction, source in ((Direction.R_TO_D, rep), (Direction.D_TO_R, dem)):
            if source <= margin:
                continue
            k_max = min(source, 2 * margin)
            ks = np.arange(0, k_max + 1, step, dtype=np.int64)
            if ks[-1] != k_max:
                ks = np.append(ks, k_max)
            sigmas = _curve_sigmas(
                rep, dem, pred_by_fips[key.fips], width, ks, direction, base.n
            )
            hits = np.flatnonzero(sigmas >= DETECTION_SIGMA)
            curves.append(
                SweepCurve(
                    fips=key.fips,
                    county=key.name,
                    state=key.state,
                    direction=direction,
                    ks=ks,
                    sigmas=sigmas,
                    margin=margin,
                    flip_threshold=margin // 2 + 1,
                    k_detect=int(ks[hits[0]]) if hits.size else None,
                )
            )
    curves.sort(key=lambda c: (c.fips, c.direction.value))
    return curves


def unconstrained_counties(curves) -> list[str]:
    """Counties undetectable at outcome-determinative k (figure convention):
    a county qualifies when ANY direction's curve is unconstrained."""
    out = {}
    for c in curves:
        if c.unconstrained:
            out[c.fips] = c.county
    return [out[f] for f in sorted(out)]


def write_sweep_csv(curves, path, comment: str = "") -> None:
    """Long-format curve export: one row per sampled k, full precision.

    The bytes are those of csv.writer rows [fips, county, state, direction,
    str(k), repr(sigma)]: the four curve fields are csv-quoted once per
    curve, and k and sigma never need quoting. Each curve's rows are one
    `format_floats` call, so they are written in C where it is available;
    k, a vote count, is exact as a float64 and %d writes it as str(k).
    """
    header = ["fips", "county", "state", "direction", "k", "global_sigma"]
    with open_csv(path, header, comment) as fh:
        for c in curves:
            layout = csv_prefix([c.fips, c.county, c.state, c.direction.value]) + ",%d,%r\r\n"
            fh.write(format_floats(layout, np.column_stack([c.ks, c.sigmas]), reps=c.ks.size))


def sweep_summary(curves) -> dict:
    """Per-state classification counts and per-curve detection thresholds."""
    by_state: dict[str, list[SweepCurve]] = {}
    for c in curves:
        by_state.setdefault(c.state, []).append(c)
    out = {}
    for state, group in sorted(by_state.items()):
        unc = unconstrained_counties(group)
        out[state] = {
            "margin": group[0].margin,
            "flip_threshold": group[0].flip_threshold,
            "curves": [
                {
                    "fips": c.fips,
                    "county": c.county,
                    "direction": c.direction.value,
                    "k_detect": c.k_detect,
                    "unconstrained": c.unconstrained,
                    "unconstrained_literal": c.unconstrained_literal,
                }
                for c in group
            ],
            "unconstrained_counties": unc,
            "unconstrained_count": len(unc),
        }
    return out
