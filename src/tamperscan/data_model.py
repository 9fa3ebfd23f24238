"""Core domain types: counties, tallies, datasets, standardization, synthesis.

Vote shares are Republican two-party shares, R / (R + D); third-party votes
are treated the same as non-voters. All types are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import _kernels
from .errors import ConfigError, DataError, NumericalError, SchemaError
from .fips import FIPS_PREFIX_BY_STATE, state_for_fips

# Relative floor below which a feature column counts as zero-variance.
ZERO_VARIANCE_RTOL = 1e-12

# Latent intercept used by the synthetic generator (logistic scale).
SYNTHETIC_INTERCEPT = 0.1

# Synthetic shares are clamped into this interval after noise.
SYNTHETIC_SHARE_CLAMP = (0.02, 0.98)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CountyKey:
    """Identity of one county: 5-digit FIPS, state abbreviation, display name."""

    fips: str
    state: str
    name: str

    def __post_init__(self):
        if len(self.fips) != 5 or not self.fips.isdigit():
            raise DataError(f"county FIPS must be 5 digits, got {self.fips!r}")
        expected = state_for_fips(self.fips)
        if expected is not None and expected != self.state:
            raise DataError(
                f"FIPS {self.fips} encodes state {expected}, not {self.state}"
            )


@dataclass(frozen=True)
class Dataset:
    """Aligned feature matrix plus target-year vote tallies for n counties.

    Column order of `X` matches `feature_names` and is identical for every
    county; earlier elections enter only as share_<year> features. Every
    county has non-negative tallies with a positive two-party total, and a
    county that breaks this is named in the error. Alaska counties are
    rejected (the state does not report results at the county level).
    """

    keys: tuple[CountyKey, ...]
    feature_names: tuple[str, ...]
    X: np.ndarray                      # (n, p) float64, read-only
    rep: np.ndarray                    # (n,) int64, read-only, target year
    dem: np.ndarray                    # (n,) int64, read-only, target year
    target_year: int

    def __post_init__(self):
        n = len(self.keys)
        if self.X.shape != (n, len(self.feature_names)):
            raise DataError(
                f"feature matrix shape {self.X.shape} inconsistent with "
                f"{n} counties x {len(self.feature_names)} features"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names are not unique")
        index = {}
        for i, key in enumerate(self.keys):
            if key.fips in index:
                raise DataError(f"duplicate county FIPS {key.fips}")
            index[key.fips] = i
            if key.state == "AK":
                raise DataError(f"Alaska county {key.fips} not allowed in a Dataset")
        if not np.all(np.isfinite(self.X)):
            raise DataError("feature matrix contains non-finite entries")
        if self.rep.shape != (n,) or self.dem.shape != (n,):
            raise DataError(
                f"tally shapes {self.rep.shape} and {self.dem.shape} inconsistent "
                f"with {n} counties"
            )
        bad = np.flatnonzero((self.rep < 0) | (self.dem < 0) | (self.rep + self.dem <= 0))
        if bad.size:
            i = bad[0]
            r, d = int(self.rep[i]), int(self.dem[i])
            what = "a negative vote count" if min(r, d) < 0 else "a zero two-party total"
            raise DataError(
                f"county {self.keys[i].fips} has {what} in {self.target_year} "
                f"(rep {r}, dem {d})"
            )
        object.__setattr__(self, "_index", index)  # fips -> row, for index_of

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def p(self) -> int:
        return len(self.feature_names)

    @classmethod
    def build(cls, keys, feature_names, X, rep, dem, target_year) -> "Dataset":
        """Construct with defensive copies and read-only arrays."""
        return cls(
            keys=tuple(keys),
            feature_names=tuple(feature_names),
            X=_readonly(np.asarray(X, dtype=np.float64)),
            rep=_readonly(np.asarray(rep, dtype=np.int64)),
            dem=_readonly(np.asarray(dem, dtype=np.int64)),
            target_year=int(target_year),
        )

    def shares(self) -> np.ndarray:
        """Target-year vote shares for every county."""
        return self.rep / (self.rep + self.dem)

    def index_of(self, fips: str) -> int:
        try:
            return self._index[fips]
        except KeyError:
            raise DataError(f"county {fips} not in dataset") from None

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset.build(
            keys=[self.keys[i] for i in idx],
            feature_names=self.feature_names,
            X=self.X[idx],
            rep=self.rep[idx],
            dem=self.dem[idx],
            target_year=self.target_year,
        )

    def subset_states(self, states: Iterable[str]) -> "Dataset":
        wanted = set(states)
        idx = [i for i, k in enumerate(self.keys) if k.state in wanted]
        if not idx:
            raise ConfigError(f"no counties in states {sorted(wanted)}")
        return self.subset(idx)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature centering/scaling learned from training rows.

    Scales are population (divide-by-n) standard deviations; zero-variance
    columns are dropped before fitting and listed in `dropped`.
    """

    names: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        if not (len(self.names) == self.mean.shape[0] == self.scale.shape[0]):
            raise DataError("standardization arrays inconsistent with names")
        if np.any(self.scale <= 0):
            raise NumericalError("non-positive scale in standardization params")


def standardize(
    X: np.ndarray, names: Sequence[str]
) -> tuple[np.ndarray, StandardizationParams]:
    """Z-score columns of X with population SD; drop zero-variance columns.

    Returns the standardized design matrix over retained columns and the
    parameters needed to apply the identical transform out of sample.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("standardize requires a non-empty 2-D matrix")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    constant = np.all(X == X[0], axis=0)
    degenerate = constant | (scale <= ZERO_VARIANCE_RTOL * np.maximum(1.0, np.abs(mean)))
    keep = ~degenerate
    if not np.any(keep):
        raise NumericalError("every feature column has zero variance")
    names = tuple(names)
    kept_names = tuple(n for n, k in zip(names, keep) if k)
    dropped = tuple(n for n, k in zip(names, keep) if not k)
    params = StandardizationParams(
        names=kept_names,
        mean=_readonly(mean[keep]),
        scale=_readonly(scale[keep]),
        dropped=dropped,
    )
    # one copy, centred and scaled in place: the same operations as
    # (X[:, keep] - mean) / scale without a second matrix
    Xs = X[:, keep]
    Xs -= params.mean
    Xs /= params.scale
    return Xs, params


def apply_standardization(
    params: StandardizationParams, names: Sequence[str], X: np.ndarray
) -> np.ndarray:
    """Apply training-set standardization to new rows, selecting by name.

    `X` may be one feature vector or a (n, len(names)) matrix whose columns
    are ordered by `names`. Retained features are located by name so column
    permutations are harmless; a missing name is a schema error.
    """
    X = np.asarray(X, dtype=np.float64)
    vector = X.ndim == 1
    if vector:
        X = X[np.newaxis, :]
    if X.shape[1] != len(names):
        raise SchemaError(
            f"got {X.shape[1]} columns for {len(names)} feature names"
        )
    pos = {n: j for j, n in enumerate(names)}
    missing = [n for n in params.names if n not in pos]
    if missing:
        raise SchemaError(f"features missing from input: {missing[:5]}")
    cols = np.array([pos[n] for n in params.names], dtype=np.intp)
    out = X[:, cols]
    out -= params.mean
    out /= params.scale
    return out[0] if vector else out


# States used to label synthetic counties, cycled in this order. Alaska is
# deliberately absent. Each state has county codes 001-999.
_SYNTHETIC_STATES = ("AL", "AZ", "CA", "CO", "GA", "MI", "MT", "PA", "TX", "WI", "WY")
_MAX_SYNTHETIC_COUNTIES = 999 * len(_SYNTHETIC_STATES)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the deterministic synthetic-election generator."""

    n_counties: int = 500
    n_features: int = 50
    n_active: int = 5
    noise_sd: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_active < 0:
            raise ConfigError(f"n_active must be non-negative, got {self.n_active}")
        if self.n_active > self.n_features:
            raise ConfigError("n_active exceeds n_features")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ConfigError(f"noise_sd must be finite and non-negative, got {self.noise_sd}")
        if self.n_counties < 1 or self.n_features < 1:
            raise ConfigError("n_counties and n_features must be positive")
        if self.n_counties > _MAX_SYNTHETIC_COUNTIES:
            raise ConfigError(
                f"n_counties must be at most {_MAX_SYNTHETIC_COUNTIES:,} "
                f"({len(_SYNTHETIC_STATES)} states x 999 county codes), got {self.n_counties}"
            )


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, stream index).

    Counter-based keying makes every stream a pure function of the seed, so
    generated data is identical regardless of evaluation order or thread
    count. Reused across the package wherever reproducible randomness is
    needed.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


def write_atomically(path: Path, write: Callable) -> None:
    """Write `path` by calling `write(fh)` on a temporary file, then renaming it.

    Readers, in this process or another, never see a partial file. Used for
    the dataset cache kept beside a run's outputs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def open_csv(path, header, comment: str = "") -> Iterator[TextIO]:
    """Open a UTF-8 CSV file for writing, whatever the locale: write a
    `# comment` line when given and the header, then yield the open file for
    the data rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        yield fh


def write_csv(path, header, rows, comment: str = "") -> None:
    """Write a CSV file: a `# comment` line when given, the header, then `rows`."""
    with open_csv(path, header, comment) as fh:
        csv.writer(fh).writerows(rows)


def csv_prefix(fields) -> str:
    """`fields` as csv.writer writes them at the start of a row, without the
    line terminator and with every % doubled, to head a `format_floats`
    layout."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[: -len("\r\n")].replace("%", "%%")


def format_floats(layout: str, values, reps: int = 1) -> str:
    """`(layout * reps) % tuple(values)` for float64 `values` and a layout
    whose conversions are %r, %.2f and %d, with %% for a literal %.

    `format_values` in `_kernels.c` writes the same bytes into a buffer
    sized for this one call. It declines NaN, infinities, subnormals and
    nonzero magnitudes outside [2^-60, 2^52), and the expression above then
    runs, as it does where `_kernels.library()` is None.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    lib = _kernels.library()
    if lib is not None:
        text = _format_compiled(lib, layout.encode(), values, reps)
        if text is not None:
            return text
    return (layout * reps) % tuple(values.ravel().tolist())


def _format_compiled(lib, layout: bytes, values: np.ndarray, reps: int) -> str | None:
    """`format_floats` in C, or None where `format_values` declines."""
    if b"\0" in layout:  # C would read the layout only up to its first NUL
        return None
    # a value takes at most 24 bytes and needs 32 to spare before it
    cap = len(layout) * reps + 24 * values.size + 32
    out = np.empty(cap, dtype=np.uint8)
    n = lib.format_values(layout, reps, values.ctypes.data, values.size, out.ctypes.data, cap)
    return None if n < 0 else out[:n].tobytes().decode()


def write_json(path, doc: dict) -> None:
    """Write `doc` as UTF-8 JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def logistic(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def generate_synthetic(
    spec: SyntheticSpec, target_year: int = 2020
) -> tuple[Dataset, np.ndarray]:
    """Generate a synthetic county-level election and its true coefficients.

    Features are i.i.d. standard normal. The latent share is
    logistic(intercept + x . beta) plus Gaussian noise, clamped to keep
    shares strictly inside (0, 1); two-party totals are log-uniform in
    [1e3, 1e6] and tallies are the rounded split of the share. Coefficient
    magnitudes are kept small (0.15 / sqrt(n_active)) so the logistic link
    stays in its near-linear regime and residual width tracks `noise_sd`.

    Returns (dataset, beta) where beta is the latent-scale coefficient
    vector over the generated feature names.
    """
    n, p = spec.n_counties, spec.n_features
    g_features = substream(spec.seed, 0)
    g_support = substream(spec.seed, 1)
    g_noise = substream(spec.seed, 2)
    g_sizes = substream(spec.seed, 3)

    X = g_features.standard_normal((n, p))
    beta = np.zeros(p)
    if spec.n_active > 0:
        support = np.sort(g_support.choice(p, size=spec.n_active, replace=False))
        signs = g_support.choice([-1.0, 1.0], size=spec.n_active)
        beta[support] = signs * (0.15 / np.sqrt(spec.n_active))

    latent = logistic(SYNTHETIC_INTERCEPT + X @ beta)
    if spec.noise_sd > 0:
        latent = latent + spec.noise_sd * g_noise.standard_normal(n)
    lo, hi = SYNTHETIC_SHARE_CLAMP
    share = np.clip(latent, lo, hi)

    totals = np.round(10.0 ** g_sizes.uniform(3.0, 6.0, size=n)).astype(np.int64)
    rep = np.round(share * totals).astype(np.int64)
    dem = totals - rep

    keys = []
    for i in range(n):
        state = _SYNTHETIC_STATES[i % len(_SYNTHETIC_STATES)]
        county_code = i // len(_SYNTHETIC_STATES) + 1
        fips = FIPS_PREFIX_BY_STATE[state] + f"{county_code:03d}"
        keys.append(CountyKey(fips=fips, state=state, name=f"Synth County {i}"))

    names = tuple(f"f{j:03d}" for j in range(p))
    dataset = Dataset.build(
        keys=keys,
        feature_names=names,
        X=X,
        rep=rep,
        dem=dem,
        target_year=target_year,
    )
    return dataset, _readonly(beta)
