"""Parsing and cleaning of demographic profile tables and election returns,
and the canonical dataset pair they become.

The pipeline is: parse each comma-separated file, demographic table or
election returns alike, with one row reader that turns its cells into numbers
as they are read (a vote count must then be a whole, non-negative number),
drop margin-of-error and duplicate feature columns, drop columns that are
missing or non-numeric for any county, inner-join everything on FIPS, exclude
Alaska, and append prior-election vote shares as extra features. A
demographic table's margin-of-error columns are recognized by their header
and never read as numbers. Every drop is recorded in a CleaningReport with a
machine-readable reason code; nothing is imputed. The same row reader reads
a saved dataset.csv back, so each of its cells becomes a number as an input
table's cell does.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import re
import zipfile
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import _kernels
from .data_model import (
    CountyKey, Dataset, csv_prefix, format_floats, open_csv, write_atomically, write_json,
)
from .errors import ConfigError, DataError, SchemaError
from .fips import normalize_fips, state_for_fips

SOURCE_IDS = ("DP02", "DP03", "DP05", "election")
_TABLE_PRECEDENCE = {"DP02": 0, "DP03": 1, "DP05": 2}

# Column identifiers that mark margin-of-error estimates rather than values.
DEFAULT_MOE_PATTERN = re.compile(r"(?i)(?:^|_|\W)moe(?:$|_|\W)|margin\s+of\s+error")

# Headers recognized as the county display-name column (never a feature).
_NAME_HEADERS = {"name", "county", "county_name", "geographic area name"}

# Rows whose string cells parse_table holds at once, between reading and
# converting them.
_CHUNK_ROWS = 256

# float64 holds every whole vote count below this exactly; 2**53 + 1 reads as it
_MAX_VOTES = 2.0**53

DATASET_FORMAT = "tamperscan-dataset"
DATASET_FORMAT_VERSION = 2


@dataclass(frozen=True)
class RawTable:
    """One parsed file as numbers, one row per county in file order.

    `values[i, j]` is the cell of county `fips[i]` (`row_of` maps a fips
    back to i) in column `columns[j]`, as float() reads it, or as
    _to_float reads it (thousands separators dropped) when float() does
    not. A cell that neither reads, such as "(X)" or "", is NaN. `values`
    is read-only.

    `moe_columns` names a demographic table's margin-of-error columns in
    header order. They are not in `columns`: their cells are never read.
    """

    source_id: str
    columns: tuple[str, ...]
    fips: tuple[str, ...]
    values: np.ndarray
    names: dict[str, str] = field(default_factory=dict)
    moe_columns: tuple[str, ...] = ()
    row_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source_id not in SOURCE_IDS:
            raise ConfigError(
                f"unknown source_id {self.source_id!r}; expected one of {SOURCE_IDS}"
            )
        self.values.flags.writeable = False
        object.__setattr__(self, "row_of", {f: i for i, f in enumerate(self.fips)})


@dataclass(frozen=True)
class FeatureTable:
    """Joined numeric features over the counties shared by every table."""

    fips: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray
    county_names: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ElectionTable:
    """Two-party vote counts of one election year, one row per county in
    file order: `rep[i]` and `dem[i]` are county `fips[i]`'s (`row_of` maps
    a fips back to i), read-only int64 arrays."""

    year: int
    fips: tuple[str, ...]
    rep: np.ndarray
    dem: np.ndarray
    names: dict[str, str] = field(default_factory=dict)
    row_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rep.flags.writeable = False
        self.dem.flags.writeable = False
        object.__setattr__(self, "row_of", {f: i for i, f in enumerate(self.fips)})


@dataclass
class CleaningReport:
    """Everything the cleaning pass removed, and why."""

    dropped_moe_columns: list = field(default_factory=list)
    dropped_duplicate_columns: list = field(default_factory=list)
    dropped_missing_columns: list = field(default_factory=list)
    dropped_counties: list = field(default_factory=list)

    def merge(self, other: "CleaningReport") -> "CleaningReport":
        return CleaningReport(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


def parse_table(path, source_id: str) -> RawTable:
    """Parse one header-rowed comma-separated file into a RawTable of numbers.

    The fips column (matched case-insensitively) is read as text, then
    normalized to 5 digits by normalize_fips, which refuses an invalid code;
    a county display-name column, when present, is captured separately and
    excluded from the feature columns. In a demographic table, a column
    whose header matches DEFAULT_MOE_PATTERN is listed in `moe_columns` and
    its cells are skipped unread. The rows are read by `_read_rows`, so a
    ragged row or a file that is not UTF-8 is a hard error, and so are
    repeated fips and repeated column headers (margin-of-error ones
    included).
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    head = None

    def kinds_of(header):
        nonlocal head
        head = _header(path, header, source_id)
        return head.kinds

    _, values, texts = _read_rows(path, kinds_of)
    fips = tuple(map(normalize_fips, texts[head.fips]))
    names = {}
    if head.name is not None:
        names = {f: name for f, cell in zip(fips, texts[head.name]) if (name := cell.strip())}
    table = RawTable(
        source_id=source_id,
        columns=head.columns,
        fips=fips,
        values=values,
        names=names,
        moe_columns=head.moe_columns,
    )
    if len(table.row_of) < len(fips):
        seen = set()
        for f in fips:
            if f in seen:
                raise DataError(f"{path}: duplicate fips {f}")
            seen.add(f)
    return table


@dataclass(frozen=True)
class _Header:
    """Where a table's cells go, from its header row of `width` cells:
    `fips` and `name` are column indices (`name` is None without a name
    column) and `features` those of `columns`, the feature columns;
    `moe_columns` are never read."""

    width: int
    fips: int
    name: int | None
    features: list[int]
    columns: tuple[str, ...]
    moe_columns: tuple[str, ...]

    @property
    def kinds(self) -> bytes:
        """The kind of each column, as `_read_rows` takes them."""
        kinds = bytearray(b"-" * self.width)
        for j in self.features:
            kinds[j] = ord("n")
        kinds[self.fips] = ord("t")
        if self.name is not None:
            kinds[self.name] = ord("t")
        return bytes(kinds)


def _header(path: Path, header: list[str], source_id: str) -> _Header:
    stripped = [h.strip() for h in header]
    lowered = [h.lower() for h in stripped]
    if "fips" not in lowered:
        raise SchemaError(f"{path}: no fips column in header")
    fips_idx = lowered.index("fips")
    name_idx = next((i for i, h in enumerate(lowered) if h in _NAME_HEADERS), None)
    data_idx = [i for i in range(len(header)) if i != fips_idx and i != name_idx]
    data_columns = [stripped[i] for i in data_idx]
    if len(set(data_columns)) != len(data_columns):
        dupes = sorted({c for c in data_columns if data_columns.count(c) > 1})
        raise SchemaError(f"{path}: repeated column headers {dupes}")
    is_moe = [
        source_id != "election" and bool(DEFAULT_MOE_PATTERN.search(c)) for c in data_columns
    ]
    features = [i for i, moe in zip(data_idx, is_moe) if not moe]
    return _Header(
        width=len(header),
        fips=fips_idx,
        name=name_idx,
        features=features,
        columns=tuple(stripped[i] for i in features),
        moe_columns=tuple(c for c, moe in zip(data_columns, is_moe) if moe),
    )


def _read_rows(path: Path, kinds_of):
    """The rows of the comma-separated UTF-8 file at `path`, as csv.reader
    splits them, under a header row that `kinds_of(header)` maps to one
    kind byte per column:

      'n'  a number: the cell as float() reads it, or as _to_float reads it
           (thousands separators dropped) when float() does not; NaN where
           neither reads a number, such as "(X)" or "".
      't'  text, the cell as it stands.
      '-'  skipped, its content unread.

    Lines before the header that start with "#" are skipped, and so is a
    byte-order mark. Returns the header's cells, the 'n' cells as a
    float64 matrix (rows, number columns) and the 't' cells as a dict
    {column index: list of cells}. A ragged row and a file that is not
    UTF-8 are DataErrors; `kinds_of` raises for a header it refuses. The
    reader knows no column's meaning: what a cell must hold is the
    caller's to check.

    `read_csv` in `_kernels.c` reads the file through a read-only map where
    it can; where it declines the file, or `_kernels.library()` is None,
    `_read_rows_py`, its reference, reads it instead.
    """
    read = _read_mapped(path, kinds_of)
    return _read_rows_py(path, kinds_of) if read is None else read


def _read_rows_py(path: Path, kinds_of):
    """_read_rows's reference reader: csv.reader, then float64 a chunk of
    rows at a time, so no string number cell outlives its chunk."""
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports start with
        with open(path, newline="", encoding="utf-8-sig") as fh:
            comments = 0
            for line in fh:
                if not line.startswith("#"):
                    break
                comments += 1
            else:
                raise DataError(f"{path}: empty file")
            reader = csv.reader(chain([line], fh))
            header = next(reader)
            kinds = kinds_of(header).decode()
            pick_numbers = _cells_getter([j for j, kind in enumerate(kinds) if kind == "n"])
            texts: dict[int, list[str]] = {j: [] for j, kind in enumerate(kinds) if kind == "t"}

            def rows():
                for row in reader:
                    if len(row) != len(kinds):
                        raise DataError(
                            f"{path}: line {comments + reader.line_num} has {len(row)} cells, "
                            f"header has {len(kinds)}"
                        )
                    for j, cells in texts.items():
                        cells.append(row[j])
                    yield pick_numbers(row)

            cells = rows()
            blocks = [_to_floats([], kinds.count("n"))]
            while chunk := list(islice(cells, _CHUNK_ROWS)):
                blocks.append(_to_floats(chunk, kinds.count("n")))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return header, np.concatenate(blocks), texts


def _not_utf8(path: Path) -> DataError:
    """The error for a file that does not decode as UTF-8, naming the offset
    of its first undecodable byte."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        return DataError(f"{path}: not UTF-8 at byte {err.start}")
    return DataError(f"{path}: not UTF-8")


def _read_mapped(path: Path, kinds_of):
    """`_read_rows_py`'s result, read by `read_csv` through a read-only map
    of the file; None where `_kernels.library()` is None, the file is empty
    (which cannot be mapped), `read_csv` declines it or a text cell is not
    UTF-8, which the reference then reports.

    The file is mapped rather than read into memory: a bytes copy of each
    input would raise the peak memory of `ingest`.
    """
    # imported here: commands that read no file this way do not pay for it
    import mmap

    lib = _kernels.library()
    if lib is None:
        return None
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            return None
    with mm:
        line = _mapped_line(mm, 3 if mm[:3] == codecs.BOM_UTF8 else 0)
        while line is not None and line[0].startswith("#"):
            line = _mapped_line(mm, line[1])
        if line is None:
            return None
        header = line[0].split(",")
        try:
            kinds = kinds_of(header)
        except SchemaError:
            return None  # the reference may meet an undecodable byte first
        read = _read_csv(lib, mm, line[1], kinds)
        if read is None:
            return None
        values, spans, slow = read
        slow_cells = [_unquote(mm[a:b]) for a, b in slow[:, 1:].tolist()]
        values.reshape(-1)[slow[:, 0]] = _numbers(slow_cells)
        # spans hold the 't' cells in column order
        columns = [j for j, kind in enumerate(kinds) if kind == ord("t")]
        try:
            texts = {
                j: [_unquote(mm[a:b]) for a, b in spans[:, k].tolist()]
                for k, j in enumerate(columns)
            }
        except UnicodeDecodeError:
            return None
    return header, values, texts


def _mapped_line(mm, start: int):
    """The text of the line at mm[start:] and the offset of the line after
    it, or None unless the line is non-empty UTF-8 with no quote, CR or NUL:
    csv.reader then splits it at each comma and nowhere else, and a
    reader of lines sees one line."""
    end = mm.find(b"\n", start)
    line = mm[start : len(mm) if end < 0 else end].removesuffix(b"\r")
    if not line or b'"' in line or b"\r" in line or b"\0" in line:
        return None
    try:
        return line.decode(), len(mm) if end < 0 else end + 1
    except UnicodeDecodeError:
        return None


def _read_csv(lib, mm, start: int, kinds: bytes):
    """Run `read_csv` over the rows at mm[start:], one column per byte of
    `kinds` ('n', 't' or '-'). Returns its outputs, with every span an
    offset into `mm`: the number cells as a float64 matrix, the spans of
    the 't' cells ((rows, columns, 2)) and the slow cells (index into the
    matrix, start, end); None where `read_csv` declines.
    """
    data = np.frombuffer(mm, dtype=np.uint8)
    try:
        addr, size = data.ctypes.data + start, len(mm) - start
        rows = lib.count_lines(addr, size)
        values = np.empty((rows, kinds.count(b"n")))
        spans = np.empty((rows, kinds.count(b"t"), 2), dtype=np.intp)
        # room for one slow cell in 64, at 3/8 of a byte per cell
        cap = values.size // 64 + 256
        slow = np.empty((cap, 3), dtype=np.intp)
        n = lib.read_csv(
            addr, size, kinds, len(kinds), rows, csv.field_size_limit(), values.ctypes.data,
            spans.ctypes.data, slow.ctypes.data, cap,
        )
    finally:
        del data  # the map cannot close while an array views it
    if n < 0:
        return None
    slow = slow[:n]
    slow[:, 1:] += start
    return values, spans + start, slow


def _unquote(raw: bytes) -> str:
    """The text of a cell from its bytes as `read_csv` spans them, quotes
    included."""
    if raw[:1] == b'"':
        raw = raw[1:-1].replace(b'""', b'"')
    return raw.decode()


def _cells_getter(idx: list[int]):
    """A function picking the cells at `idx` out of a row as a tuple.

    itemgetter does it in C, but returns a bare cell for one index and
    cannot be built from none.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda row: (row[i],)
    return lambda row: ()


def _to_float(cell: str) -> float | None:
    s = cell.strip().replace(",", "")
    if not s:
        return None
    try:
        return float(s)
    except ValueError:
        return None


def _numbers(cells) -> np.ndarray:
    """String cells as float64: each as float() reads it, or as _to_float
    does, NaN where that reads no number.

    float() gives _to_float's value for every cell it accepts, surrounding
    whitespace included, so only cells with one that float() rejects are
    read again by _to_float.
    """
    try:
        return np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return np.array(list(map(_to_float, cells)), dtype=np.float64)  # None is NaN


def _to_floats(rows, width: int) -> np.ndarray:
    """Rows of `width` string cells as a float64 block, read by _numbers a
    column at a time."""
    values = np.empty((len(rows), width))
    for j, cells in enumerate(zip(*rows)):
        values[:, j] = _numbers(cells)
    return values


def clean_features(tables) -> tuple[FeatureTable, CleaningReport]:
    """Apply the column-cleaning rules to demographic tables, in order:
    margin-of-error columns out (parse_table has already left them unread,
    so they are only reported), duplicate identifiers resolved by
    DP02 > DP03 > DP05 precedence, then any column with a cell that is not
    a finite number (unreadable cells are NaN) among the common counties."""
    tables = list(tables)
    if not tables:
        raise ConfigError("clean_features needs at least one table")
    for t in tables:
        if t.source_id == "election":
            raise ConfigError("election tables do not belong in clean_features")
    if len({t.source_id for t in tables}) != len(tables):
        raise ConfigError("duplicate source_id among feature tables")
    tables.sort(key=lambda t: _TABLE_PRECEDENCE[t.source_id])
    report = CleaningReport()

    # common counties across all tables; drops reported once per county
    common = set(tables[0].fips)
    for t in tables[1:]:
        common &= t.row_of.keys()
    all_fips = set().union(*(t.fips for t in tables))
    for f in sorted(all_fips - common):
        absent = [t.source_id for t in tables if f not in t.row_of]
        report.dropped_counties.append(
            {"fips": f, "reason": "not_in_all_feature_tables", "detail": absent}
        )
    fips_order = tuple(sorted(common))

    names: list[str] = []
    blocks: list[np.ndarray] = []
    seen_names: dict[str, str] = {}
    for t in tables:
        report.dropped_moe_columns.extend(
            {"table": t.source_id, "column": col, "reason": "margin_of_error"}
            for col in t.moe_columns
        )
        candidates = []
        for j, col in enumerate(t.columns):
            if col in seen_names:
                report.dropped_duplicate_columns.append(
                    {
                        "table": t.source_id,
                        "column": col,
                        "reason": "duplicate_feature",
                        "kept_in": seen_names[col],
                    }
                )
                continue
            seen_names[col] = t.source_id
            candidates.append(j)

        # the table's rows of the common counties, in fips order
        rows = np.array([t.row_of[f] for f in fips_order], dtype=np.intp)
        bad_cells = np.count_nonzero(~np.isfinite(t.values)[np.ix_(rows, candidates)], axis=0)
        kept = []
        for j, bad in zip(candidates, bad_cells.tolist()):
            if bad:
                report.dropped_missing_columns.append(
                    {
                        "table": t.source_id,
                        "column": t.columns[j],
                        "reason": "missing_or_non_numeric",
                        "bad_cells": bad,
                    }
                )
            else:
                kept.append(j)
        names.extend(t.columns[j] for j in kept)
        blocks.append(t.values[np.ix_(rows, kept)])
    if not names:
        raise DataError("no feature columns survive cleaning")

    # the first table, in precedence order, that names a county names it
    county_names = {f: n for t in reversed(tables) for f, n in t.names.items()}
    return (
        FeatureTable(
            fips=fips_order,
            names=tuple(names),
            values=np.hstack(blocks),
            county_names=county_names,
        ),
        report,
    )


def parse_election(path, year: int) -> ElectionTable:
    """Parse election returns: columns fips, rep_votes, dem_votes.

    The file is read by parse_table, so a vote cell reads as any cell does;
    it must then be non-negative and pass `_vote_counts`.
    """
    table = parse_table(path, "election")
    lowered = [c.lower() for c in table.columns]
    try:
        cols = [lowered.index("rep_votes"), lowered.index("dem_votes")]
    except ValueError:
        raise SchemaError(
            f"{path}: election file needs rep_votes and dem_votes columns, "
            f"found {list(table.columns)}"
        ) from None
    votes, columns = table.values[:, cols], ("rep_votes", "dem_votes")
    negative = np.argwhere(votes < 0)
    if negative.size:
        i, k = negative[0]
        raise DataError(f"county {table.fips[i]}: negative {columns[k]} {votes[i, k]:g}")
    rep, dem = _vote_counts(votes, table.fips, columns)
    return ElectionTable(year=year, fips=table.fips, rep=rep, dem=dem, names=table.names)


def _vote_counts(votes: np.ndarray, fips, columns) -> np.ndarray:
    """The (n, 2) vote counts `votes` of counties `fips`, in `columns`, as a
    (2, n) int64 array, under the one rule for a count in an election file
    or a dataset pair: finite, whole and below 2**53 in size (2**53 + 1
    reads as 2**53). The sign is the caller's to check."""
    # an unreadable cell is NaN, which fails every comparison
    bad = ~((np.abs(votes) < _MAX_VOTES) & (votes == np.floor(votes)))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise DataError(f"county {fips[i]}: {columns[k]} is not a whole vote count")
    return votes.T.astype(np.int64)


def assemble_dataset(
    features: FeatureTable, elections, target_year: int
) -> tuple[Dataset, CleaningReport]:
    """Inner-join features and elections on FIPS into a Dataset.

    Alaska is excluded entirely. Vote shares from every non-target election
    year are appended as features named share_<year> (skipped when a column
    of that name already exists, which keeps re-assembly idempotent); the
    Dataset keeps the target year's tallies only. Counties failing the join,
    lacking a usable state, or with a zero two-party total in any year are
    dropped and reported.
    """
    by_year: dict[int, ElectionTable] = {}
    for e in elections:
        if e.year in by_year:
            raise ConfigError(f"two election tables for year {e.year}")
        by_year[e.year] = e
    if target_year not in by_year:
        raise ConfigError(f"no election table for target year {target_year}")
    years = sorted(by_year)
    report = CleaningReport()

    feature_fips = set(features.fips)
    for year in years:
        for f in sorted(by_year[year].row_of.keys() - feature_fips):
            if not any(d["fips"] == f for d in report.dropped_counties):
                report.dropped_counties.append(
                    {"fips": f, "reason": "not_in_demographics"}
                )

    totals = {y: (e.rep + e.dem).tolist() for y, e in by_year.items()}
    kept: list[str] = []
    for f in features.fips:
        missing = [y for y in years if f not in by_year[y].row_of]
        if missing:
            report.dropped_counties.append(
                {"fips": f, "reason": "absent_from_election", "detail": missing}
            )
            continue
        state = state_for_fips(f)
        if state is None:
            report.dropped_counties.append({"fips": f, "reason": "unknown_state_fips"})
            continue
        if state == "AK":
            report.dropped_counties.append({"fips": f, "reason": "alaska"})
            continue
        zero_years = [y for y in years if totals[y][by_year[y].row_of[f]] == 0]
        if zero_years:
            report.dropped_counties.append(
                {"fips": f, "reason": "zero_two_party_total", "detail": zero_years}
            )
            continue
        kept.append(f)
    if not kept:
        raise ConfigError("no counties left after join and cleaning")

    row_of = {f: i for i, f in enumerate(features.fips)}
    X = features.values[np.array([row_of[f] for f in kept], dtype=np.intp)]
    names = list(features.names)
    for year in years:
        e = by_year[year]
        idx = np.array([e.row_of[f] for f in kept], dtype=np.intp)
        rep, dem = e.rep[idx], e.dem[idx]
        if year == target_year:
            tallies = rep, dem
        elif f"share_{year}" not in names:
            X = np.column_stack([X, rep / (rep + dem)])
            names.append(f"share_{year}")

    def display_name(f: str) -> str:
        if f in features.county_names:
            return features.county_names[f]
        for year in years:
            if f in by_year[year].names:
                return by_year[year].names[f]
        return f

    keys = [
        CountyKey(fips=f, state=state_for_fips(f), name=display_name(f)) for f in kept
    ]
    dataset = Dataset.build(keys, names, X, *tallies, target_year)
    return dataset, report


# --- canonical dataset files ------------------------------------------------

# The binary copy of a dataset pair that load_dataset keeps in a cache
# directory: arrays in one uncompressed .npz, stamped with dataset_sha256.
_CACHE_FILE = "dataset.npz"

# Rows per `format_floats` call in save_dataset: few calls, and a buffer of
# ~0.5 MB at 300 features
_SAVE_ROWS = 64


def save_dataset(dataset: Dataset, csv_path, manifest_hash: str = "", cache_dir=None) -> None:
    """Write the canonical dataset pair: <csv_path> and <stem>_meta.json.

    The CSV's columns are fips, state, name, rep_<target year>,
    dem_<target year> and the features. Floats are written with repr so a
    load is bit-for-bit faithful; each block of _SAVE_ROWS rows is one
    `format_floats` call, so its features are written in C where it is
    available. With `cache_dir`, the binary cache that load_dataset reads
    there is written too, from the dataset in memory.
    """
    csv_path = Path(csv_path)
    header = _csv_header(dataset.target_year, dataset.feature_names)
    features = ",%r" * dataset.p + "\r\n"
    comment = f"manifest_sha256={manifest_hash}" if manifest_hash else ""
    rows = zip(dataset.keys, dataset.rep.tolist(), dataset.dem.tolist())
    with open_csv(csv_path, header, comment) as fh:
        for start in range(0, dataset.n, _SAVE_ROWS):
            layout = "".join(
                csv_prefix([key.fips, key.state, key.name, r, d]) + features
                for key, r, d in islice(rows, _SAVE_ROWS)
            )
            fh.write(format_floats(layout, dataset.X[start : start + _SAVE_ROWS]))
    meta = {
        "format": DATASET_FORMAT,
        "version": DATASET_FORMAT_VERSION,
        "target_year": dataset.target_year,
        "n_counties": dataset.n,
        "n_features": dataset.p,
        "feature_names": list(dataset.feature_names),
        "manifest_sha256": manifest_hash,
    }
    write_json(_meta_path(csv_path), meta)
    if cache_dir is not None:
        _write_cache(Path(cache_dir) / _CACHE_FILE, dataset_sha256(csv_path), dataset)


def _csv_header(year: int, feature_names) -> list[str]:
    return ["fips", "state", "name", f"rep_{year}", f"dem_{year}", *feature_names]


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + "_meta.json")


def dataset_sha256(csv_path) -> str:
    """sha256 over the bytes of a dataset pair: <csv_path>, then its metadata file."""
    csv_path = Path(csv_path)
    h = hashlib.sha256()
    for path in (csv_path, _meta_path(csv_path)):
        if not path.is_file():
            raise DataError(f"dataset file not found: {path}")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    return h.hexdigest()


def load_dataset(csv_path, cache_dir=None, digest: str | None = None) -> Dataset:
    """Read a canonical dataset pair back into memory.

    With `cache_dir`, the binary copy kept there is read instead of parsing
    the CSV when it is stamped with the pair's dataset_sha256 (`digest`,
    computed here when not given). Whichever copy is read, `_build_dataset`
    holds it to what the metadata states. A cache that is missing, stale,
    invalid or at odds with its pair is ignored: the CSV is parsed, which
    raises the pair's own error if it has one, and the cache rewritten. The
    CSV stays canonical.
    """
    csv_path = Path(csv_path)
    meta = _read_meta(csv_path)
    if cache_dir is None:
        return _build_dataset(csv_path, meta, _parse_dataset_csv(csv_path, meta))
    cache = Path(cache_dir) / _CACHE_FILE
    digest = digest or dataset_sha256(csv_path)
    try:
        parts = _read_cache(cache, digest)
        if parts is not None:
            return _build_dataset(csv_path, meta, parts)
    except DataError:
        pass  # a cache at odds with its pair
    dataset = _build_dataset(csv_path, meta, _parse_dataset_csv(csv_path, meta))
    _write_cache(cache, digest, dataset)
    return dataset


def _read_meta(csv_path: Path) -> dict:
    if not csv_path.is_file():
        raise DataError(f"dataset file not found: {csv_path}")
    meta_path = _meta_path(csv_path)
    if not meta_path.is_file():
        raise SchemaError(f"missing dataset metadata file {meta_path}")
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise SchemaError(f"{meta_path}: not JSON: {err}") from None
    if not isinstance(meta, dict) or meta.get("format") != DATASET_FORMAT:
        raise SchemaError(f"{meta_path}: not a dataset metadata file")
    if meta.get("version") != DATASET_FORMAT_VERSION:
        raise SchemaError(f"{meta_path}: unsupported version {meta.get('version')!r}")
    for key in ("target_year", "n_counties", "n_features"):
        if type(meta.get(key)) is not int:
            raise SchemaError(f"{meta_path}: {key} must be an integer, got {meta.get(key)!r}")
    names = meta.get("feature_names")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise SchemaError(f"{meta_path}: feature_names must be a list of strings")
    if meta["n_features"] != len(names):
        raise SchemaError(f"{meta_path}: n_features {meta['n_features']} is not len(feature_names)")
    return meta


def _build_dataset(csv_path: Path, meta: dict, parts) -> Dataset:
    """The Dataset of the pair at `csv_path` from the parts one copy of it
    holds: keys, features and (n, 2) vote counts. Every copy is built here,
    so each is held to what the metadata states, and its vote counts to
    `_vote_counts`."""
    keys, X, votes = parts
    if len(keys) != meta["n_counties"]:
        raise SchemaError(
            f"{csv_path} holds {len(keys)} counties, but {_meta_path(csv_path)} states "
            f"n_counties {meta['n_counties']}"
        )
    columns = _csv_header(meta["target_year"], ())[3:]
    rep, dem = _vote_counts(votes, [key.fips for key in keys], columns)
    return Dataset.build(keys, meta["feature_names"], X, rep, dem, meta["target_year"])


def _parse_dataset_csv(csv_path: Path, meta: dict):
    """The keys, features and (n, 2) vote counts of a dataset CSV, read by
    `_read_rows`. The key and vote cells are read as text, so that the
    features fill a matrix of their own; a vote cell then becomes a number
    by the same rule as a feature cell. A feature that is not a finite
    number is an error naming its county."""
    expected = _csv_header(meta["target_year"], meta["feature_names"])

    def kinds_of(header):
        if header != expected:
            raise SchemaError(f"{csv_path}: header does not match metadata")
        return b"ttttt" + b"n" * (len(header) - 5)

    _, X, texts = _read_rows(csv_path, kinds_of)
    fips, state, name, rep, dem = texts.values()
    keys = [CountyKey(*key) for key in zip(fips, state, name)]
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise DataError(f"county {fips[i]}: feature {expected[5 + j]} is not a finite number")
    return keys, X, np.column_stack([_numbers(rep), _numbers(dem)])


def _write_cache(path: Path, digest: str, dataset: Dataset) -> None:
    arrays = {
        "digest": np.array(digest),
        "X": dataset.X,
        "fips": np.array([k.fips for k in dataset.keys], dtype=str),
        "state": np.array([k.state for k in dataset.keys], dtype=str),
        "name": np.array([k.name for k in dataset.keys], dtype=str),
        "rep": dataset.rep,
        "dem": dataset.dem,
    }
    write_atomically(path, lambda fh: np.savez(fh, allow_pickle=False, **arrays))


def _read_cache(path: Path, digest: str):
    """The parts of the cached copy, as `_parse_dataset_csv` gives a CSV's;
    None when the file is missing, stale (stamped with another digest) or
    not an archive of the arrays `_write_cache` writes: the features, and
    the key and tally columns, one entry per county, with their dtypes. A
    fips, state or name that makes no CountyKey raises DataError. What the
    parts hold is `_build_dataset`'s to check."""
    try:
        # np.load given a path leaks the file when the archive is corrupt
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            a = {name: npz[name] for name in ("digest", "X", "fips", "state", "name", "rep", "dem")}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    columns = [a[name] for name in ("fips", "state", "name", "rep", "dem")]
    if (
        str(a["digest"]) != digest
        or a["X"].dtype != np.float64
        or any(c.dtype.kind != "U" for c in columns[:3])
        or any(c.dtype != np.int64 for c in columns[3:])
        or any(c.ndim != 1 or c.shape != columns[0].shape for c in columns)
    ):
        return None
    keys = [CountyKey(*key) for key in zip(*(c.tolist() for c in columns[:3]))]
    return keys, a["X"], np.stack(columns[3:], axis=1)
