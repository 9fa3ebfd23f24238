"""Run manifests: one INI file that pins every input, grid, and seed.

A manifest plus its input files fully determines every output byte; the
manifest's sha256 (folded together with any command-line overrides that
change results) is embedded in each file a command writes, so any report
can be traced back to the exact configuration that produced it.

Paths inside a manifest are resolved relative to the manifest file itself.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .anomaly import DEFAULT_MC_TRIALS, MIN_MC_TRIALS
from .data_model import SyntheticSpec
from .elastic_net import CvSettings
from .errors import ConfigError

DEFAULT_MC_SEED = 0
DEFAULT_CALIBRATE_Z = (3.0, 4.0, 5.1, 5.3, 5.5)
DEFAULT_CALIBRATE_N = (100, 381, 3112)


@dataclass(frozen=True)
class RunManifest:
    path: Path
    sha256: str
    out_dir: Path
    target_year: int
    delimiter: str
    inputs: dict
    dataset_path: Path | None
    cv: CvSettings
    mc_trials: int
    mc_seed: int
    train_states: tuple[str, ...]
    eval_states: tuple[str, ...]
    injection: dict | None
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


def _no_repeats(section, key, values: tuple) -> tuple:
    """`values`, unless one of them appears twice: a repeat would only
    repeat work and outputs."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"[{section}] {key} repeats {v!r}")
    return values


def _get_grid(cp, section, key, kind, default):
    """A non-empty comma-separated list of distinct finite `kind` values, or
    `default` when the key is absent."""

    def parse(raw):
        values = tuple(kind(v) for v in _split(raw))
        if not values or not all(map(math.isfinite, values)):
            raise ValueError("empty grid or non-finite value")
        return values

    what = "a non-empty list of " + ("integers" if kind is int else "finite numbers")
    return _no_repeats(section, key, _get_parsed(cp, section, key, parse, what, default))


def _get_states(cp, section, key) -> tuple[str, ...]:
    raw = _get(cp, section, key)
    if not raw:
        return ()
    states = tuple(s.upper() for s in _split(raw))
    for s in states:
        if len(s) != 2 or not s.isalpha():
            raise ConfigError(f"[{section}] {key}: {s!r} is not a state abbreviation")
    return _no_repeats(section, key, states)


def manifest_hash(path: Path, overrides: dict | None = None) -> str:
    """sha256 of the manifest bytes, folded with result-changing overrides.

    Only overrides that change computed values (trials, seed) enter the
    hash; --threads and --out never do, so re-running with a different
    --threads or output location still yields matching hashes.
    """
    h = hashlib.sha256(Path(path).read_bytes())
    overrides = overrides or {}
    effective = {
        k: overrides[k] for k in ("trials", "seed") if overrides.get(k) is not None
    }
    if effective:
        h.update(b"\x00overrides\x00")
        h.update(json.dumps(effective, sort_keys=True).encode())
    return h.hexdigest()


def load_manifest(path, overrides: dict | None = None) -> RunManifest:
    """Parse and validate a manifest, applying CLI overrides.

    Overrides: `trials` replaces [mc] trials; `seed` replaces every seed in
    the file (cv, mc, synth); `out` replaces [run] out_dir.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest file not found: {path}")
    overrides = overrides or {}
    cp = configparser.ConfigParser()
    try:
        cp.read(path, encoding="utf-8-sig")
    except configparser.Error as err:
        raise ConfigError(f"cannot parse manifest {path}: {err}") from None

    base = path.resolve().parent

    def resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    seed_override = overrides.get("seed")

    cv_values = dict(
        l1_grid=_get_grid(cp, "cv", "l1_grid", float, CvSettings.l1_grid),
        n_alphas=_get_int(cp, "cv", "n_alphas", CvSettings.n_alphas),
        eps=_get_float(cp, "cv", "eps", CvSettings.eps),
        folds=_get_int(cp, "cv", "folds", CvSettings.folds),
        seed=seed_override if seed_override is not None else _get_int(cp, "cv", "seed", CvSettings.seed),
        tol=_get_float(cp, "cv", "tol", CvSettings.tol),
        max_iter=_get_int(cp, "cv", "max_iter", CvSettings.max_iter),
    )
    try:
        cv = CvSettings(**cv_values)
    except ConfigError as err:
        raise ConfigError(f"[cv] {err}") from None

    inputs = {}
    if cp.has_section("inputs"):
        for key in cp.options("inputs"):
            if key == "delimiter":
                continue
            inputs[key] = resolve(cp.get("inputs", key).strip())

    injection = None
    if cp.has_section("injection"):
        fips = _get(cp, "injection", "fips")
        k = _get_int(cp, "injection", "k")
        direction = _get(cp, "injection", "direction")
        if fips is None or k is None or direction is None:
            raise ConfigError("[injection] needs fips, k, and direction")
        injection = {"fips": fips.zfill(5), "k": k, "direction": direction}

    synth = None
    if cp.has_section("synth"):
        synth = SyntheticSpec(
            n_counties=_get_int(cp, "synth", "n_counties", SyntheticSpec.n_counties),
            n_features=_get_int(cp, "synth", "n_features", SyntheticSpec.n_features),
            n_active=_get_int(cp, "synth", "n_active", SyntheticSpec.n_active),
            noise_sd=_get_float(cp, "synth", "noise_sd", SyntheticSpec.noise_sd),
            seed=seed_override if seed_override is not None else _get_int(cp, "synth", "seed", SyntheticSpec.seed),
        )

    trials_override = overrides.get("trials")
    mc_trials = trials_override if trials_override is not None else _get_int(cp, "mc", "trials", DEFAULT_MC_TRIALS)
    if mc_trials < MIN_MC_TRIALS:
        raise ConfigError(f"need at least {MIN_MC_TRIALS} trials for a p-value, got {mc_trials}")
    sweep_k_step = _get_int(cp, "sweep", "k_step")
    if sweep_k_step is not None and sweep_k_step < 1:
        raise ConfigError(f"[sweep] k_step must be at least 1, got {sweep_k_step}")
    delimiter = _get(cp, "inputs", "delimiter", ",")
    if len(delimiter) != 1:
        raise ConfigError(f"[inputs] delimiter must be one character, got {delimiter!r}")
    out_override = overrides.get("out")
    dataset_raw = _get(cp, "data", "dataset")

    return RunManifest(
        path=path,
        sha256=manifest_hash(path, overrides),
        out_dir=resolve(out_override) if out_override else resolve(_get(cp, "run", "out_dir", "out")),
        target_year=_get_int(cp, "run", "target_year", 2020),
        delimiter=delimiter,
        inputs=inputs,
        dataset_path=resolve(dataset_raw) if dataset_raw else None,
        cv=cv,
        mc_trials=mc_trials,
        mc_seed=seed_override if seed_override is not None else _get_int(cp, "mc", "seed", DEFAULT_MC_SEED),
        train_states=_get_states(cp, "blind", "train_states"),
        eval_states=_get_states(cp, "blind", "eval_states"),
        injection=injection,
        sweep_states=_get_states(cp, "sweep", "states"),
        sweep_k_step=sweep_k_step,
        synth=synth,
        calibrate_z=_get_grid(cp, "calibrate", "z_grid", float, DEFAULT_CALIBRATE_Z),
        calibrate_n=_get_grid(cp, "calibrate", "n_grid", int, DEFAULT_CALIBRATE_N),
    )
