"""Run manifests: one INI file that pins every input, grid, and seed.

A manifest plus its input files fully determines every output byte; the
sha256 of the manifest's bytes is embedded in each file a command writes,
so any report can be traced back to the exact configuration that produced
it. Every setting a command reads is resolved and checked when the manifest
loads, each rule once, in the type that holds it, so a bad value exits with
its section named before any input is read. The keys of [cv], [mc], [synth]
and [injection] are the fields of CvSettings, McNull, SyntheticSpec and
InjectionSpec. An unknown section or key (ingest checks [inputs]) or any
[DEFAULT] key is an error too, not a silent default. Values are literal text.

Paths inside a manifest are resolved relative to the manifest file itself.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .anomaly import McNull
from .data_model import SyntheticSpec
from .elastic_net import CvSettings
from .errors import ConfigError, DataError, check_count
from .fips import FIPS_PREFIX_BY_STATE
from .scenarios import BlindSpec, InjectionSpec

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
    cp.asked.add((section, key))
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


# each annotation's parser and what a bad value must be; other fields get the text, for their type
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "tuple[float, ...]": (lambda raw: tuple(map(float, _split(raw))), "a list of numbers"),
}


def _get_parsed(cp, section, key, parse, what: str, default):
    """`parse` applied to the value of `key`, or `default` when the key is absent."""
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return _in_section(section, lambda: parse(raw))
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {what}, got {raw!r}") from None


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


def _get_grid(cp, section, key, kind, default):
    """A non-empty comma-separated list of distinct values, finite numbers
    when `kind` is float and positive integers when it is int, or `default`
    when the key is absent."""
    valid = math.isfinite if kind is float else (lambda n: n >= 1)

    def parse(raw):
        values = tuple(kind(v) for v in _split(raw))
        if not values or not all(map(valid, values)):
            raise ValueError("empty grid or invalid value")
        for n in values if kind is int else ():
            check_count(key, n)
        return values

    what = "a non-empty list of " + ("finite numbers" if kind is float else "positive integers")
    return _no_repeats(section, key, _get_parsed(cp, section, key, parse, what, default))


def _get_states(cp, section, key) -> tuple[str, ...]:
    states = tuple(s.upper() for s in _split(_get(cp, section, key, "")))
    for s in states:
        if s not in FIPS_PREFIX_BY_STATE:
            raise ConfigError(f"[{section}] {key}: {s!r} is not a state abbreviation")
    return _no_repeats(section, key, states)


def _build(cp, section, cls):
    """A `cls` built from [section]: a key per field, parsed by its annotation, or its default."""
    values = {
        f.name: _get_parsed(cp, section, f.name, *_PARSERS.get(f.type, (str, "")), f.default)
        for f in fields(cls)
    }
    if MISSING in values.values():
        *rest, last = [f.name for f in fields(cls) if f.default is MISSING]
        raise ConfigError(f"[{section}] needs {', '.join([*rest, 'and ' + last]) if rest else last}")
    return _in_section(section, lambda: cls(**values))


def _check_all_asked(cp) -> None:
    """ConfigError naming the first section or key, bar [inputs]'s, that no read asked for."""
    for section in cp.sections():
        asked = sorted(key for s, key in cp.asked if s == section)
        if not asked and section != "inputs":
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section] if asked else ():
            if key not in asked:
                raise ConfigError(f"[{section}] unknown key {key!r} (keys: {', '.join(asked)})")


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
    cp = configparser.ConfigParser(interpolation=None)
    cp.asked = set()  # every (section, key) a read asks for, present or not
    try:
        # as open() reads text: a byte-order mark dropped, any line ending read as \n
        text = io.StringIO(data.decode().removeprefix("\ufeff"), newline=None)
        cp.read_file(text, source=str(path))
    except UnicodeDecodeError as err:
        raise ConfigError(f"manifest {path} is not UTF-8 at byte {err.start}") from None
    except configparser.Error as err:
        raise ConfigError(f"cannot parse manifest {path}: {err}") from None
    if cp.defaults():  # a [DEFAULT] key would be read in every section
        raise ConfigError(f"[DEFAULT] {next(iter(cp.defaults()))}: set each key in its own section")

    base = path.resolve().parent

    def resolve(p) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    cv = _build(cp, "cv", CvSettings)
    inputs = {
        key: resolve(value.strip())
        for key, value in (cp.items("inputs") if cp.has_section("inputs") else ())
    }
    injection = _build(cp, "injection", InjectionSpec) if cp.has_section("injection") else None
    synth = _build(cp, "synth", SyntheticSpec) if cp.has_section("synth") else None
    mc = _build(cp, "mc", McNull)
    _in_section("mc", lambda: mc.config(1))  # any N checks trials

    train_states = _get_states(cp, "blind", "train_states")
    eval_states = _get_states(cp, "blind", "eval_states")
    blind = None
    if train_states or eval_states:
        blind = _in_section("blind", lambda: BlindSpec(train_states, eval_states, cv))
    sweep_states = _get_states(cp, "sweep", "states")
    for state in sweep_states:
        if state not in eval_states:
            raise ConfigError(f"[sweep] state {state} is not in [blind] eval_states")
    sweep_k_step = _get_parsed(cp, "sweep", "k_step", *_PARSERS["int"], None)
    if sweep_k_step is not None and sweep_k_step < 1:
        raise ConfigError(f"[sweep] k_step must be at least 1, got {sweep_k_step}")
    out_dir = resolve(_get(cp, "run", "out_dir", "out"))  # asked for even when `out` replaces it
    out_dir = out_dir if out is None else Path(out).absolute()

    manifest = RunManifest(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        out_dir=out_dir,
        target_year=_get_parsed(cp, "run", "target_year", *_PARSERS["int"], 2020),
        inputs=inputs,
        dataset_path=resolve(_get(cp, "data", "dataset") or out_dir / "dataset.csv"),
        cv=cv,
        mc_trials=mc.trials,
        mc_seed=mc.seed,
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
    _check_all_asked(cp)
    return manifest
