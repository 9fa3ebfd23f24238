"""Run manifests: one INI file that pins every input, grid, and seed.

A manifest plus its input files fully determines every output byte; the
sha256 of the manifest's bytes is embedded in each file a command writes,
so any report can be traced back to the exact configuration that produced
it. Every setting a command reads is resolved and checked when the manifest
loads, each rule once, in the type that holds it, so a bad value exits with
its section named before any input is read.

Paths inside a manifest are resolved relative to the manifest file itself.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .anomaly import DEFAULT_MC_TRIALS, McConfig
from .data_model import SyntheticSpec
from .elastic_net import CvSettings
from .errors import ConfigError, DataError
from .fips import normalize_fips
from .scenarios import BlindSpec, Direction, InjectionSpec

DEFAULT_MC_SEED = 0
DEFAULT_CALIBRATE_Z = (3.0, 4.0, 5.1, 5.3, 5.5)
DEFAULT_CALIBRATE_N = (100, 381, 3112)


@dataclass(frozen=True)
class RunManifest:
    path: Path
    sha256: str
    out_dir: Path
    target_year: int
    inputs: dict
    dataset_path: Path
    cv: CvSettings
    mc_trials: int
    mc_seed: int
    train_states: tuple[str, ...]
    eval_states: tuple[str, ...]
    blind: BlindSpec | None
    injection: InjectionSpec | None
    sweep_states: tuple[str, ...]
    sweep_k_step: int | None
    synth: SyntheticSpec | None
    calibrate_z: tuple[float, ...]
    calibrate_n: tuple[int, ...]

    def require(self, field: str, why: str):
        value = getattr(self, field)
        if value is None or (isinstance(value, (tuple, dict)) and not value):
            raise ConfigError(f"manifest {self.path} lacks {why}")
        return value


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def _get_parsed(cp, section, key, parse, what: str, default):
    """`parse` applied to the value of `key`, or `default` when the key is absent."""
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {what}, got {raw!r}") from None


def _get_int(cp, section, key, default=None):
    return _get_parsed(cp, section, key, int, "an integer", default)


def _get_float(cp, section, key, default=None):
    return _get_parsed(cp, section, key, float, "a number", default)


def _split(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _in_section(section: str, build):
    """`build()`, its ConfigError or DataError re-raised naming `[section]`."""
    try:
        return build()
    except (ConfigError, DataError) as err:
        raise ConfigError(f"[{section}] {err}") from None


def _no_repeats(section, key, values: tuple) -> tuple:
    """`values`, unless one of them appears twice: a repeat would only
    repeat work and outputs."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"[{section}] {key} repeats {v!r}")
    return values


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(float, _split(raw)))


def _get_grid(cp, section, key, kind, default):
    """A non-empty comma-separated list of distinct values, finite numbers
    when `kind` is float and positive integers when it is int, or `default`
    when the key is absent."""
    valid = math.isfinite if kind is float else (lambda n: n >= 1)

    def parse(raw):
        values = tuple(kind(v) for v in _split(raw))
        if not values or not all(map(valid, values)):
            raise ValueError("empty grid or invalid value")
        return values

    what = "a non-empty list of " + ("finite numbers" if kind is float else "positive integers")
    return _no_repeats(section, key, _get_parsed(cp, section, key, parse, what, default))


def _get_states(cp, section, key) -> tuple[str, ...]:
    states = tuple(s.upper() for s in _split(_get(cp, section, key, "")))
    for s in states:
        if len(s) != 2 or not s.isalpha():
            raise ConfigError(f"[{section}] {key}: {s!r} is not a state abbreviation")
    return _no_repeats(section, key, states)


def manifest_hash(path: Path) -> str:
    """sha256 of the manifest's bytes, as `sha256sum` prints it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_manifest(path, out=None) -> RunManifest:
    """Parse a manifest, and resolve and check every setting a command reads.

    `out`, when given, replaces [run] out_dir; a relative `out` is taken
    from the working directory, as a command-line path is. It is the one
    setting that comes from outside the file, and it changes no result.
    Every command writes and reads the dataset at [data] dataset, or at
    <out_dir>/dataset.csv when that key is unset.
    """
    if out == "":
        raise ConfigError("--out must name a directory, got ''")
    path = Path(path)
    # read once: the hash stamped on every output is that of the text parsed
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"manifest file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read manifest {path}: {err.strerror or err}") from None
    cp = configparser.ConfigParser()
    try:
        # as open() reads text: a byte-order mark dropped, any line ending read as \n
        text = io.StringIO(data.decode().removeprefix("\ufeff"), newline=None)
        cp.read_file(text, source=str(path))
    except UnicodeDecodeError as err:
        raise ConfigError(f"manifest {path} is not UTF-8 at byte {err.start}") from None
    except configparser.Error as err:
        raise ConfigError(f"cannot parse manifest {path}: {err}") from None

    base = path.resolve().parent

    def resolve(p) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    cv_values = dict(
        l1_grid=_get_parsed(cp, "cv", "l1_grid", _floats, "a list of numbers", CvSettings.l1_grid),
        n_alphas=_get_int(cp, "cv", "n_alphas", CvSettings.n_alphas),
        eps=_get_float(cp, "cv", "eps", CvSettings.eps),
        folds=_get_int(cp, "cv", "folds", CvSettings.folds),
        seed=_get_int(cp, "cv", "seed", CvSettings.seed),
        tol=_get_float(cp, "cv", "tol", CvSettings.tol),
        max_iter=_get_int(cp, "cv", "max_iter", CvSettings.max_iter),
    )
    cv = _in_section("cv", lambda: CvSettings(**cv_values))

    inputs = {
        key: resolve(value.strip())
        for key, value in (cp.items("inputs") if cp.has_section("inputs") else ())
    }

    injection = None
    if cp.has_section("injection"):
        fips = _get(cp, "injection", "fips")
        k = _get_int(cp, "injection", "k")
        direction = _get(cp, "injection", "direction")
        if fips is None or k is None or direction is None:
            raise ConfigError("[injection] needs fips, k, and direction")
        injection = _in_section(
            "injection", lambda: InjectionSpec(normalize_fips(fips), k, Direction.parse(direction))
        )

    synth = None
    if cp.has_section("synth"):
        synth_values = dict(
            n_counties=_get_int(cp, "synth", "n_counties", SyntheticSpec.n_counties),
            n_features=_get_int(cp, "synth", "n_features", SyntheticSpec.n_features),
            n_active=_get_int(cp, "synth", "n_active", SyntheticSpec.n_active),
            noise_sd=_get_float(cp, "synth", "noise_sd", SyntheticSpec.noise_sd),
            seed=_get_int(cp, "synth", "seed", SyntheticSpec.seed),
        )
        synth = _in_section("synth", lambda: SyntheticSpec(**synth_values))

    mc_trials = _get_int(cp, "mc", "trials", DEFAULT_MC_TRIALS)
    mc_seed = _get_int(cp, "mc", "seed", DEFAULT_MC_SEED)
    _in_section("mc", lambda: McConfig(1, trials=mc_trials, seed=mc_seed))  # any N checks trials

    train_states = _get_states(cp, "blind", "train_states")
    eval_states = _get_states(cp, "blind", "eval_states")
    blind = None
    if train_states or eval_states:
        blind = _in_section("blind", lambda: BlindSpec(train_states, eval_states, cv))
    sweep_states = _get_states(cp, "sweep", "states")
    for state in sweep_states:
        if state not in eval_states:
            raise ConfigError(f"[sweep] state {state} is not in [blind] eval_states")
    sweep_k_step = _get_int(cp, "sweep", "k_step")
    if sweep_k_step is not None and sweep_k_step < 1:
        raise ConfigError(f"[sweep] k_step must be at least 1, got {sweep_k_step}")
    out_dir = resolve(_get(cp, "run", "out_dir", "out")) if out is None else Path(out).absolute()

    return RunManifest(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        out_dir=out_dir,
        target_year=_get_int(cp, "run", "target_year", 2020),
        inputs=inputs,
        dataset_path=resolve(_get(cp, "data", "dataset") or out_dir / "dataset.csv"),
        cv=cv,
        mc_trials=mc_trials,
        mc_seed=mc_seed,
        train_states=train_states,
        eval_states=eval_states,
        blind=blind,
        injection=injection,
        sweep_states=sweep_states,
        sweep_k_step=sweep_k_step,
        synth=synth,
        calibrate_z=_get_grid(cp, "calibrate", "z_grid", float, DEFAULT_CALIBRATE_Z),
        calibrate_n=_get_grid(cp, "calibrate", "n_grid", int, DEFAULT_CALIBRATE_N),
    )
