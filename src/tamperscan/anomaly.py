"""Residual anomaly scoring with look-elsewhere-corrected significance.

Each county's residual (actual minus predicted share) is converted to a local
sigma against a robust Gaussian width, then to a global sigma that answers
the question actually at stake: how often would the most extreme of N clean
counties look this extreme? Both an analytic order-statistics conversion and
a Monte Carlo extreme-value simulation are provided; they must agree. The MC
null samples the maximum of N clean |u| exactly, one uniform per trial, so a
table is a pure function of (trials, N, seed).

All p-value conventions are two-sided in both directions of conversion.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data_model import CountyKey, Dataset, format_floats, substream, write_csv
from .elastic_net import FitModel, predict
from .errors import ConfigError, ConvergenceWarning, DataError, NumericalError

# Residuals farther than this many widths out are clipped when fitting.
CLIP_SIGMA = 3.0
MAX_CLIP_ITERATIONS = 10

DEFAULT_MC_TRIALS = 100_000
MIN_MC_TRIALS = 1_000

# MC streams live at indices >= 2**32 so they can never collide with the
# low-numbered streams used for synthesis and fold shuffling on the same seed.
_MC_STREAM_BASE = 1 << 32

# A local tail counts as underflowed once exp(-z^2/2) leaves the normal
# float64 range, that is once z^2/2 exceeds this.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ResidualSet:
    """Residuals for one evaluation set of counties."""

    keys: tuple[CountyKey, ...]
    actual: np.ndarray
    predicted: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        n = len(self.keys)
        for arr in (self.actual, self.predicted, self.residual):
            if arr.shape != (n,):
                raise DataError("residual arrays inconsistent with county keys")
            if not np.all(np.isfinite(arr)):
                raise NumericalError("non-finite residual data")

    @classmethod
    def build(cls, keys, actual, predicted) -> "ResidualSet":
        actual = np.asarray(actual, dtype=np.float64)
        predicted = np.asarray(predicted, dtype=np.float64)
        r = actual - predicted
        for arr in (actual, predicted, r):
            arr.flags.writeable = False
        return cls(keys=tuple(keys), actual=actual, predicted=predicted, residual=r)

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def rms(self) -> float:
        """Raw RMS of the residuals, outliers included."""
        return float(np.sqrt(np.mean(self.residual**2)))


@dataclass(frozen=True)
class WidthFit:
    """Robust residual width about a fixed center of zero."""

    width: float
    clip_iterations: int
    n_used: int

    def __post_init__(self):
        if not self.width > 0:
            raise NumericalError(f"degenerate residual width {self.width}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo extreme-value simulation parameters."""

    n_counties: int
    trials: int = DEFAULT_MC_TRIALS
    seed: int = 0

    def __post_init__(self):
        if self.trials < MIN_MC_TRIALS:
            raise ConfigError(
                f"need at least {MIN_MC_TRIALS} trials for a p-value, got {self.trials}"
            )
        if self.n_counties < 1:
            raise ConfigError(f"n_counties must be positive, got {self.n_counties}")


@dataclass(frozen=True)
class McNull:
    """How a scoring draws its MC null: trials and seed. The look-elsewhere
    N is not part of it; it comes from the scored set, through config()."""

    trials: int = DEFAULT_MC_TRIALS
    seed: int = 0

    def config(self, n_counties: int) -> McConfig:
        return McConfig(n_counties, trials=self.trials, seed=self.seed)


@dataclass(frozen=True)
class McGlobalSignificance:
    """MC estimate of global significance for one local z."""

    p_global: float      # observed fraction of trials at least as extreme
    sigma: float         # two-sided sigma; analytic fallback when bounded
    stderr: float        # binomial standard error of p_global
    sigma_stderr: float  # stderr propagated through the sigma conversion
    bounded: bool        # no trial reached |z|; true p < 1/trials
    trials: int


@dataclass(frozen=True)
class AnomalyScore:
    """One county's scored residual.

    `beyond_mc_table` marks counties so extreme that no MC trial reached
    them; `global_sigma` then carries the analytic value instead.
    """

    key: CountyKey
    actual: float
    predicted: float
    residual: float
    local_sigma: float
    global_sigma: float
    beyond_mc_table: bool = False


def residuals(model: FitModel, dataset: Dataset) -> ResidualSet:
    """Actual minus predicted share for every county in the dataset."""
    pred = predict(model, dataset.X, dataset.feature_names)
    return ResidualSet.build(dataset.keys, dataset.shares(), pred)


def fit_width(resid: ResidualSet | np.ndarray) -> WidthFit:
    """Gaussian width about 0 with iterative 3-sigma clipping.

    The width is recomputed from surviving residuals and membership is
    re-evaluated against the full set until it stabilizes (or 10 rounds),
    which keeps a handful of gross outliers from inflating the scale the
    way a plain RMS would. Stopping at the round cap with membership still
    changing emits a ConvergenceWarning.
    """
    r = resid.residual if isinstance(resid, ResidualSet) else np.asarray(resid, dtype=np.float64)
    if r.shape[0] < 10:
        raise DataError(f"need at least 10 residuals to fit a width, got {r.shape[0]}")
    if not np.any(r):
        raise NumericalError("all residuals are zero; width undefined")
    mask = np.ones(r.shape[0], dtype=bool)
    for iterations in range(1, MAX_CLIP_ITERATIONS + 1):
        kept = r[mask]
        if kept.size == 0:
            raise NumericalError("clipping removed every residual")
        width = float(np.sqrt(np.mean(kept**2)))
        if width == 0.0:
            raise NumericalError("surviving residuals are all zero; width undefined")
        new_mask = np.abs(r) <= CLIP_SIGMA * width
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    else:
        warnings.warn(
            f"width clipping still changed membership after "
            f"{MAX_CLIP_ITERATIONS} rounds",
            ConvergenceWarning,
        )
    return WidthFit(width=width, clip_iterations=iterations, n_used=int(mask.sum()))


# Special functions give the standard library's bits: erfc is the C library's,
# as math.erfc calls it, and the standard normal quantile is Wichura's AS241
# with the exact operations of statistics.NormalDist().inv_cdf. Over arrays
# they run in `_kernels.c`; where that cannot be built or loaded, the
# `_py` references map the standard library functions instead.
def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of each element of the 1-D float64 array `x`."""
    return _elementwise("erfc_array", _erfc_py, x)


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each element of the 1-D float64 array
    `p`, every one of which must lie in (0, 1)."""
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails both
        raise NumericalError("a normal quantile needs every p in (0, 1)")
    return _elementwise("normal_quantile", _normal_quantile_py, p)


def _elementwise(kernel: str, reference, x: np.ndarray) -> np.ndarray:
    lib = _kernels.library()
    if lib is None:
        return reference(x)
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    getattr(lib, kernel)(x.ctypes.data, out.ctypes.data, x.size)
    return out


def _erfc_py(x: np.ndarray) -> np.ndarray:
    return np.frompyfunc(math.erfc, 1, 1)(x).astype(np.float64)


def _normal_quantile_py(p: np.ndarray) -> np.ndarray:
    from statistics import NormalDist  # only this fallback needs it

    return np.frompyfunc(NormalDist().inv_cdf, 1, 1)(p).astype(np.float64)


def two_sided_p(sigma: float) -> float:
    """Two-sided normal tail probability at the given sigma level."""
    if not np.isfinite(sigma):
        raise NumericalError(f"sigma must be finite, got {sigma}")
    return math.erfc(abs(float(sigma)) / math.sqrt(2.0))


def analytic_sigma_curve(z_values: np.ndarray, n_counties: int) -> np.ndarray:
    """Look-elsewhere-corrected sigma of each local z, for the
    most-extreme-of-N question.

    p_local = 2(1 - Phi(|z|)) is the two-sided tail of one county;
    p_global = 1 - (1 - p_local)^N is the chance any of N clean counties
    fluctuates that far; the result is the two-sided sigma with that global
    tail. Computed with expm1/log1p so tiny tails survive, and capped at
    |z| (the N = 1 value) against rounding. A local z whose tail underflows
    (|z| > 37.68, where exp(-z^2/2) leaves the normal float64 range) is
    returned as is.
    """
    if n_counties < 1:
        raise ConfigError(f"n_counties must be at least 1, got {n_counties}")
    z = np.abs(np.asarray(z_values, dtype=np.float64))
    if not np.all(np.isfinite(z)):
        raise NumericalError("local z must be finite")
    if n_counties == 1:
        return z.copy()
    x = z / math.sqrt(2.0)
    p_local = np.where(x * x > _LOG_FLOAT_MAX, 0.0, _erfc(x))
    with np.errstate(divide="ignore"):
        p_global = -np.expm1(n_counties * np.log1p(-p_local))
    # a global tail of 0 has sigma +inf, so the result caps at |z|
    tail = 0.5 * p_global
    sigma = np.full_like(z, np.inf)
    lifted = tail > 0.0
    sigma[lifted] = -_normal_quantile(tail[lifted]) + 0.0
    return np.minimum(z, sigma)


def mc_extremes(config: McConfig, threads: int = 1) -> np.ndarray:
    """Sorted per-trial max|u| table for the null of N clean counties.

    The table is a pure function of (trials, n_counties, seed); `threads` is
    accepted and ignored, since one draw takes milliseconds. Tables are
    cached per config within a process; repeated scoring against the same
    null is a binary search, not a re-simulation. Nothing is kept across
    processes: a draw of 10^5 trials takes about 5 ms.
    """
    return _cached_table(config)


# bounded, because calibrate's grid looks up many (trials, N, seed)
@functools.lru_cache(maxsize=8)
def _cached_table(config: McConfig) -> np.ndarray:
    """The read-only table of `config`, shared by every caller."""
    table = _draw_table(config)
    table.flags.writeable = False
    return table


def _draw_table(config: McConfig) -> np.ndarray:
    """Sorted max|u| over N standard normals, drawn by inverting its CDF.

    P(max|u| <= x) = (1 - p(x))^N with p(x) = erfc(x/sqrt 2), so for v
    uniform on (0, 1) the tail q = 1 - v^(1/N) has the law of p(max|u|), and
    max|u| = -Phi^-1(q/2). expm1 keeps q exact where it is tiny, the upper
    tail that the look-elsewhere sigma reads. Each v is an odd multiple of
    2^-53, so it is exact and never 0 or 1.
    """
    k = substream(config.seed, _MC_STREAM_BASE).integers(0, 1 << 52, size=config.trials)
    v = (k + 0.5) * 2.0**-52
    q = -np.expm1(np.log(v) / config.n_counties)
    return np.sort(-_normal_quantile(0.5 * q)) + 0.0


def _mc_sigmas(z: np.ndarray, config: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per |z|: the count of MC null trials at least as extreme, and the
    two-sided sigma of that p capped at |z|, or the analytic sigma where the
    count is 0."""
    z = np.abs(z)
    table = mc_extremes(config)
    counts = table.shape[0] - np.searchsorted(table, z, side="left")
    bounded = counts == 0
    sigma = np.empty_like(z)
    sigma[bounded] = analytic_sigma_curve(z[bounded], config.n_counties)
    tail = 0.5 * (counts[~bounded] / config.trials)
    sigma[~bounded] = np.minimum(z[~bounded], -_normal_quantile(tail) + 0.0)
    return counts, sigma


def global_significance_mc(local_z: float, config: McConfig) -> McGlobalSignificance:
    """MC global significance: fraction of null trials at least as extreme.

    When zero trials reach |z| the true p is below 1/trials; the result is
    flagged `bounded` and the sigma falls back to the analytic conversion
    rather than pretending p = 0.
    """
    if not np.isfinite(local_z):
        raise NumericalError(f"local z must be finite, got {local_z}")
    counts, sigmas = _mc_sigmas(np.array([local_z], dtype=np.float64), config)
    count, sigma = int(counts[0]), float(sigmas[0])
    p = count / config.trials
    stderr = float(np.sqrt(p * (1.0 - p) / config.trials))
    density = float(np.exp(-0.5 * sigma * sigma) / np.sqrt(2.0 * np.pi))
    sigma_stderr = stderr / (2.0 * density) if count and density > 0 else float("inf")
    return McGlobalSignificance(
        p_global=p,
        sigma=sigma,
        stderr=stderr,
        sigma_stderr=sigma_stderr,
        bounded=count == 0,
        trials=config.trials,
    )


def score_counties(
    resid: ResidualSet, width: WidthFit, mc: McNull | None = None
) -> list[AnomalyScore]:
    """Local and global sigma for every county in the evaluation set, ranked
    most anomalous first: |local sigma| descending, ties by fips.

    The look-elsewhere N is the evaluation-set size. With an McNull the
    global sigma comes from simulating N clean counties (analytic fallback
    where the table runs out); otherwise it is analytic throughout.
    """
    z = resid.residual / width.width
    if mc is None:
        glob = analytic_sigma_curve(z, resid.n)
        beyond = np.zeros(resid.n, dtype=bool)
    else:
        counts, glob = _mc_sigmas(z, mc.config(resid.n))
        beyond = counts == 0
    scores = [
        AnomalyScore(
            key=key, actual=a, predicted=p, residual=r, local_sigma=zi, global_sigma=g,
            beyond_mc_table=b,
        )
        for key, a, p, r, zi, g, b in zip(
            resid.keys, resid.actual.tolist(), resid.predicted.tolist(),
            resid.residual.tolist(), z.tolist(), glob.tolist(), beyond.tolist(),
        )
    ]
    scores.sort(key=lambda s: (-abs(s.local_sigma), s.key.fips))
    return scores


@dataclass(frozen=True)
class Scoring:
    """One scored set of counties: its residuals, their fitted width, and the
    scores ranked most anomalous first (as score_counties ranks them)."""

    residuals: ResidualSet
    width: WidthFit
    scores: tuple[AnomalyScore, ...]

    def rank_of(self, fips: str) -> tuple[int, AnomalyScore]:
        """The 1-based rank and the score of county `fips`."""
        for rank, score in enumerate(self.scores, start=1):
            if score.key.fips == fips:
                return rank, score
        raise DataError(f"county {fips} was not scored")


def score_model(model: FitModel, dataset: Dataset, mc: McNull | None = None) -> Scoring:
    """Residuals of `model` on every county of `dataset`, their width and
    their ranked scores. The look-elsewhere N is the county count; the global
    sigma is analytic, or comes from the MC null `mc` when that is given."""
    resid = residuals(model, dataset)
    width = fit_width(resid)
    return Scoring(resid, width, tuple(score_counties(resid, width, mc)))


def _fmt1(value: float) -> str:
    """One-decimal table formatting; -0.0 is normalized to 0.0."""
    return f"{round(value, 1) + 0.0:.1f}"


RANKING_COLUMNS = (
    "fips",
    "county",
    "state",
    "actual_share",
    "predicted_share",
    "residual",
    "local_sigma",
    "global_sigma",
)


def rank_anomalies(scores, top_n: int | None = None) -> list[dict]:
    """Report rows for ranked scores (as score_counties returns them), the
    first `top_n` or all, formatted the way a results table prints them:
    shares and residuals in percent to one decimal, sigmas to one decimal."""
    rows = []
    for s in scores[:top_n]:
        rows.append(
            {
                "fips": s.key.fips,
                "county": s.key.name,
                "state": s.key.state,
                "actual_share": _fmt1(100.0 * s.actual),
                "predicted_share": _fmt1(100.0 * s.predicted),
                "residual": _fmt1(100.0 * s.residual),
                "local_sigma": _fmt1(s.local_sigma),
                "global_sigma": _fmt1(s.global_sigma),
            }
        )
    return rows


def write_ranking_csv(scores, path, comment: str = "") -> None:
    rows = ([row[c] for c in RANKING_COLUMNS] for row in rank_anomalies(scores))
    write_csv(path, RANKING_COLUMNS, rows, comment=comment)


# One county of write_scores_json's `counties` array as json.dump(indent=2)
# lays it out, for its three strings, five floats (%%r) and one bool
_COUNTY_JSON = """
    {
      "fips": %s,
      "county": %s,
      "state": %s,
      "actual_share": %%r,
      "predicted_share": %%r,
      "residual": %%r,
      "local_sigma": %%r,
      "global_sigma": %%r,
      "beyond_mc_table": %s
    }"""


def write_scores_json(scores, path, meta: dict | None = None) -> None:
    """Full-precision JSON companion to the formatted CSV, in the order of
    the ranked `scores`: what `json.dump(doc, indent=2)` and a newline write.

    The `counties` array is one `format_floats` call (so its floats are
    written in C where it is available) on the layout json.dump gives it;
    its floats are then repr's digits, as json writes them. JSON has no
    NaN or infinity, so a non-finite value raises NumericalError before the
    file is opened; no scoring in this package gives one.
    """
    scores = list(scores)
    head = {"format": "tamperscan-scores", "version": 1, "meta": meta or {}}
    counties = _counties_json(scores)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{json.dumps(head, indent=2)[:-2]},\n  "counties": {counties}\n}}\n')


def _counties_json(scores) -> str:
    """The `counties` array of scores.json as json.dump(indent=2) writes it
    there, from one `format_floats` call."""
    if not scores:
        return "[]"
    rows = [(s.actual, s.predicted, s.residual, s.local_sigma, s.global_sigma) for s in scores]
    values = np.array(rows, dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        county = scores[int(np.argmin(finite))].key.fips
        raise NumericalError(f"county {county} has a non-finite score, which JSON cannot hold")
    layout = ",".join(
        _COUNTY_JSON % (
            _layout_json(s.key.fips), _layout_json(s.key.name), _layout_json(s.key.state),
            "true" if s.beyond_mc_table else "false",
        )
        for s in scores
    )
    return f"[{format_floats(layout, values)}\n  ]"


def _layout_json(text: str) -> str:
    """`text` as a JSON string, with % doubled for a `format_floats` layout."""
    return json.dumps(text).replace("%", "%%")


def size_correlation(resid: ResidualSet, dataset: Dataset) -> float:
    """Pearson r between log county size and |residual|.

    A clean fit shows no relationship; a strong one would mean the model is
    systematically worse for small (or large) counties.
    """
    if resid.n < 3:
        raise DataError(f"need at least 3 counties for a correlation, got {resid.n}")
    idx = np.array([dataset.index_of(k.fips) for k in resid.keys], dtype=np.intp)
    x = np.log((dataset.rep + dataset.dem)[idx].astype(np.float64))
    y = np.abs(resid.residual)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.mean(xc**2)))
    sy = float(np.sqrt(np.mean(yc**2)))
    if sx == 0.0 or sy == 0.0:
        raise NumericalError("zero variance; size correlation undefined")
    return float(np.mean(xc * yc) / (sx * sy))
