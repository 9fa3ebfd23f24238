import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tamperscan import (
    ConfigError,
    DataError,
    Dataset,
    SchemaError,
    assemble_dataset,
    clean_features,
    load_dataset,
    parse_election,
    parse_table,
    save_dataset,
)
from tamperscan import _kernels, ingest
from tamperscan.data_model import SyntheticSpec, generate_synthetic
from tamperscan.ingest import dataset_sha256

from conftest import counting, make_dataset


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


BOM = "\ufeff".encode("utf-8")  # what spreadsheet "CSV UTF-8" exports start with


DP02 = """fips,Geographic Area Name,pct_bachelor,pct_veteran,pct_bachelor MOE
1001,"Autauga, Alabama",21.5,8.2,1.1
13121,"Fulton, Georgia",44.3,5.0,0.9
42003,"Allegheny, Pennsylvania",35.1,7.7,1.0
"""

DP03 = """FIPS,median_income,pct_bachelor,unemployment_moe
01001,52213,99.0,0.4
13121,61000,98.0,0.5
42003,58100,97.0,0.3
"""

ELECTION_2020 = """fips,county,rep_votes,dem_votes
01001,Autauga,"19,838",7503
13121,Fulton,137240,380212
42003,Allegheny,282913,429065
"""

ELECTION_2016 = """fips,rep_votes,dem_votes
01001,18172,5936
13121,117783,297051
42003,259480,367617
"""


@pytest.mark.usefixtures("kernel_path")
class TestParseTable:
    def test_zero_pads_fips(self, tmp_path):
        t = parse_table(_write(tmp_path, "a.csv", DP02), "DP02")
        assert t.fips == ("01001", "13121", "42003")
        assert t.row_of == {"01001": 0, "13121": 1, "42003": 2}

    def test_name_column_excluded_from_features(self, tmp_path):
        t = parse_table(_write(tmp_path, "a.csv", DP02), "DP02")
        assert t.columns == ("pct_bachelor", "pct_veteran")
        assert t.moe_columns == ("pct_bachelor MOE",)
        assert t.names["01001"] == "Autauga, Alabama"

    def test_cells_kept_verbatim(self, tmp_path):
        t = parse_table(_write(tmp_path, "a.csv", DP02), "DP02")
        assert t.values.dtype == np.float64
        assert t.values[t.row_of["01001"]].tolist() == [21.5, 8.2]
        assert t.values.tolist() == [[21.5, 8.2], [44.3, 5.0], [35.1, 7.7]]
        assert not np.isnan(t.values).any()
        assert not t.values.flags.writeable

    def test_moe_cells_never_read(self, tmp_path):
        # an MOE column of junk changes nothing about the columns that are read
        with_moe = (
            "fips,pct_a,pct_a MOE,pct_b\n"
            "01001,1.5,(X),x\n"
            "13121,2.5,abc,4.0\n"
            "42003,(X),,5.0\n"
        )
        without = "fips,pct_a,pct_b\n01001,1.5,x\n13121,2.5,4.0\n42003,(X),5.0\n"
        t = parse_table(_write(tmp_path, "moe.csv", with_moe), "DP02")
        plain = parse_table(_write(tmp_path, "plain.csv", without), "DP02")
        assert t.columns == plain.columns == ("pct_a", "pct_b")
        assert np.array_equal(t.values, plain.values, equal_nan=True)
        assert np.isnan(t.values).tolist() == [[False, True], [False, False], [True, False]]

    def test_moe_columns_in_header_order(self, tmp_path):
        p = _write(
            tmp_path, "a.csv",
            "z_moe,fips,a,Margin of Error b,NAME,b,a MOE\n1,01001,2,3,X,4,5\n",
        )
        t = parse_table(p, "DP05")
        assert t.moe_columns == ("z_moe", "Margin of Error b", "a MOE")
        assert t.columns == ("a", "b")
        assert t.values.tolist() == [[2.0, 4.0]]

    def test_repeated_moe_header(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "fips,x,x_moe,x_moe\n01001,1,2,3\n")
        with pytest.raises(SchemaError, match=r"repeated column headers \['x_moe'\]"):
            parse_table(p, "DP02")

    def test_byte_order_mark_dropped(self, tmp_path):
        (tmp_path / "bom.csv").write_bytes(BOM + DP02.encode("utf-8"))
        t = parse_table(tmp_path / "bom.csv", "DP02")
        plain = parse_table(_write(tmp_path, "a.csv", DP02), "DP02")
        assert (t.source_id, t.columns, t.fips, t.names) == (
            plain.source_id, plain.columns, plain.fips, plain.names
        )
        assert np.array_equal(t.values, plain.values)
        assert not np.isnan(t.values).any()
        assert t.columns[0] == "pct_bachelor"

    def test_leading_comment_lines_skipped(self, tmp_path):
        text = "# exported 2021-01-05\n# note, with a comma\n" + DP02
        commented = _table_outcome(_write(tmp_path, "c.csv", text))
        assert commented == _table_outcome(_write(tmp_path, "a.csv", DP02))
        assert commented[0] == ("pct_bachelor", "pct_veteran")

    def test_comment_line_after_the_header_is_a_ragged_row(self, tmp_path):
        p = _write(tmp_path, "c.csv", "# note\nfips,x,y\n01001,1,2\n# late note\n")
        with pytest.raises(DataError, match="c.csv: line 4 has 1 cells, header has 3$"):
            parse_table(p, "DP02")

    def test_missing_fips_column(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError, match="fips"):
            parse_table(p, "DP02")

    def test_duplicate_fips(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "fips,x\n01001,1\n1001,2\n")
        with pytest.raises(DataError, match="duplicate fips 01001"):
            parse_table(p, "DP02")

    @pytest.mark.parametrize("read", [parse_table, parse_election], ids=["table", "election"])
    def test_duplicate_fips_in_any_input(self, tmp_path, read):
        p = _write(tmp_path, "bad.csv", "fips,rep_votes,dem_votes\n01001,1,2\n1001,3,4\n")
        with pytest.raises(DataError, match="duplicate fips 01001"):
            read(p, "DP02" if read is parse_table else 2020)

    @pytest.mark.parametrize("read", [parse_table, parse_election], ids=["table", "election"])
    def test_invalid_fips_in_any_input_names_the_file(self, tmp_path, read):
        p = _write(tmp_path, "bad.csv", "fips,rep_votes,dem_votes\n01001,1,2\n123456,3,4\n")
        with pytest.raises(DataError) as err:
            read(p, "DP02" if read is parse_table else 2020)
        assert str(err.value) == f"{p}: invalid FIPS code '123456'"

    @pytest.mark.parametrize("read", [parse_table, parse_election], ids=["table", "election"])
    def test_ragged_row_in_any_input_reports_line_number(self, tmp_path, read):
        p = _write(tmp_path, "bad.csv", "fips,rep_votes,dem_votes\n01001,1,2\n13121,3\n")
        with pytest.raises(DataError, match="line 3 has 2 cells"):
            read(p, "DP02" if read is parse_table else 2020)

    def test_repeated_header(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "fips,x,x\n01001,1,2\n")
        with pytest.raises(SchemaError, match="repeated"):
            parse_table(p, "DP02")

    def test_ragged_row_reports_line_number(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "fips,x,y\n01001,1,2\n13121,3\n")
        with pytest.raises(DataError, match="line 3"):
            parse_table(p, "DP02")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            parse_table(_write(tmp_path, "e.csv", ""), "DP02")

    def test_bad_source_id(self, tmp_path):
        p = _write(tmp_path, "a.csv", "fips,x\n01001,1\n")
        with pytest.raises(ConfigError):
            parse_table(p, "DP99")

    def test_one_feature_column(self, tmp_path):
        t = parse_table(_write(tmp_path, "a.csv", "name,fips,x\nA,01001,5\nB,13121,6\n"), "DP02")
        assert t.columns == ("x",)
        assert t.fips == ("01001", "13121")
        assert t.values.tolist() == [[5.0], [6.0]]
        assert np.isnan(t.values).tolist() == [[False], [False]]

    def test_no_feature_columns(self, tmp_path):
        t = parse_table(_write(tmp_path, "a.csv", "fips,name\n01001,A\n13121,B\n"), "DP02")
        assert t.columns == ()
        assert t.fips == ("01001", "13121")
        assert t.values.shape == (2, 0)
        assert t.names == {"01001": "A", "13121": "B"}

    def test_mixed_cells_read_as_to_float(self, tmp_path):
        # more rows than one conversion chunk, with rejected cells first
        # seen early, late and throughout, among padded and separated ones
        n = 2 * ingest._CHUNK_ROWS + 37
        mixed = ["(X)", "", "1,234.5", "  7 ", "2e3", "-0.5", "\t12,345.25 ", "N"]
        columns = {
            "clean": lambda i: f"{i}.25",
            "padded": lambda i: f"  {i / 8} ",
            "separated": lambda i: f"{i},{i % 1000:03d}.5",
            "early_holes": lambda i: "(X)" if i < 3 else str(i),
            "late_hole": lambda i: "" if i == n - 1 else str(-i),
            "mixed": lambda i: mixed[i % len(mixed)],
        }
        cells = [[cell(i) for cell in columns.values()] for i in range(n)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["fips", *columns])
        writer.writerows([f"{10001 + i}", *row] for i, row in enumerate(cells))
        t = parse_table(_write(tmp_path, "mixed.csv", buf.getvalue()), "DP02")

        expected = [[ingest._to_float(c) for c in row] for row in cells]
        assert np.isnan(t.values).tolist() == [[v is None for v in row] for row in expected]
        np.testing.assert_array_equal(
            t.values, np.array(expected, dtype=np.float64)  # None becomes NaN
        )
        assert np.isnan(t.values).any(axis=0).tolist() == [False, False, False, True, True, True]

    def test_numbers_held_in_a_few_bytes_per_cell(self, tmp_path):
        n, p = 3000, 200
        cells = np.random.default_rng(0).uniform(0, 100, (n, p)).round(1)
        lines = ["fips," + ",".join(f"c{j}" for j in range(p))]
        lines += [f"{10001 + i}," + ",".join(map(str, row)) for i, row in enumerate(cells.tolist())]
        path = _write(tmp_path, "wide.csv", "\n".join(lines) + "\n")
        parse_table(_write(tmp_path, "warm.csv", "fips,x\n01001,1\n"), "DP02")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = parse_table(path, "DP02")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.values, cells)
        # 8 bytes of float64 per cell; a str per cell is ~50
        assert held / (n * p) <= 12


class TestCleanFeatures:
    def _tables(self, tmp_path):
        return [
            parse_table(_write(tmp_path, "dp02.csv", DP02), "DP02"),
            parse_table(_write(tmp_path, "dp03.csv", DP03), "DP03"),
        ]

    def test_moe_columns_dropped(self, tmp_path):
        features, report = clean_features(self._tables(tmp_path))
        assert "pct_bachelor MOE" not in features.names
        assert "unemployment_moe" not in features.names
        dropped = {d["column"] for d in report.dropped_moe_columns}
        assert dropped == {"pct_bachelor MOE", "unemployment_moe"}

    def test_duplicates_resolved_by_precedence(self, tmp_path):
        features, report = clean_features(self._tables(tmp_path))
        # pct_bachelor appears in both; DP02 wins
        assert features.names.count("pct_bachelor") == 1
        j = features.names.index("pct_bachelor")
        assert features.values[0, j] == 21.5  # the DP02 value, not DP03's 99.0
        dup = report.dropped_duplicate_columns[0]
        assert dup["table"] == "DP03" and dup["kept_in"] == "DP02"

    def test_precedence_independent_of_argument_order(self, tmp_path):
        tables = self._tables(tmp_path)
        a, _ = clean_features(tables)
        b, _ = clean_features(list(reversed(tables)))
        assert a.names == b.names
        assert np.array_equal(a.values, b.values)

    def test_non_numeric_column_dropped(self, tmp_path):
        dp02 = "fips,good,partial\n01001,1.0,2.0\n13121,2.0,(X)\n"
        features, report = clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])
        assert features.names == ("good",)
        assert report.dropped_missing_columns[0]["column"] == "partial"
        assert report.dropped_missing_columns[0]["bad_cells"] == 1

    def test_non_finite_cell_drops_its_column(self, tmp_path):
        # float() reads "inf" and "nan", but neither is a feature value
        dp02 = "fips,good,infinite,undefined\n01001,1.0,inf,2.0\n13121,2.0,3.0,nan\n42003,3.0,-inf,4.0\n"
        features, report = clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])
        assert features.names == ("good",)
        assert [(d["column"], d["bad_cells"]) for d in report.dropped_missing_columns] == [
            ("infinite", 2), ("undefined", 1)
        ]

    def test_padded_and_separated_cells_parse_as_to_float(self, tmp_path):
        separated = ["  1.5 ", '"1,234"', "\t-2e3", '" 12,345.25 "', "7"]
        padded = ["  1.5 ", "0.1 ", "\t-2e3", " 12345.25", "7\t"]
        dp02 = "fips,separated,padded\n" + "".join(
            f"{fips},{a},{b}\n"
            for fips, a, b in zip(["01001", "01003", "13121", "42003", "42005"], separated, padded)
        )
        features, report = clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])
        assert features.names == ("separated", "padded")
        assert report.dropped_missing_columns == []
        assert features.values[:, 0].tolist() == [ingest._to_float(c.strip('"')) for c in separated]
        assert features.values[:, 0].tolist() == [1.5, 1234.0, -2000.0, 12345.25, 7.0]
        assert features.values[:, 1].tolist() == [ingest._to_float(c) for c in padded]
        assert features.values[:, 1].tolist() == [1.5, 0.1, -2000.0, 12345.25, 7.0]

    def test_bad_cells_counted_among_good_ones(self, tmp_path):
        dp02 = "fips,good,holes\n" + "".join(
            f"{fips},{i},{cell}\n"
            for i, (fips, cell) in enumerate(
                zip(["01001", "01003", "13121", "42003", "42005"], ["1", "(X)", " 2 ", "", '"3,5"'])
            )
        )
        features, report = clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])
        assert features.names == ("good",)
        assert report.dropped_missing_columns == [
            {"table": "DP02", "column": "holes", "reason": "missing_or_non_numeric", "bad_cells": 2}
        ]

    def test_thousands_separators_parsed(self, tmp_path):
        dp02 = 'fips,income\n01001,"52,213"\n'
        features, _ = clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])
        assert features.values[0, 0] == 52213.0

    def test_common_county_intersection(self, tmp_path):
        dp02 = "fips,a\n01001,1\n13121,2\n"
        dp03 = "fips,b\n01001,3\n42003,4\n"
        features, report = clean_features(
            [
                parse_table(_write(tmp_path, "d2.csv", dp02), "DP02"),
                parse_table(_write(tmp_path, "d3.csv", dp03), "DP03"),
            ]
        )
        assert features.fips == ("01001",)
        reasons = {d["fips"]: d["reason"] for d in report.dropped_counties}
        assert reasons == {
            "13121": "not_in_all_feature_tables",
            "42003": "not_in_all_feature_tables",
        }

    def test_bad_cell_outside_common_counties_ignored(self, tmp_path):
        # 42003 is absent from DP03, so its "(X)" neither drops column a nor
        # counts as a bad cell; 13121's does both for column b
        dp02 = "fips,a,b\n01001,1,5\n13121,2,(X)\n42003,(X),7\n"
        dp03 = "fips,c\n01001,3\n13121,4\n"
        features, report = clean_features(
            [
                parse_table(_write(tmp_path, "d2.csv", dp02), "DP02"),
                parse_table(_write(tmp_path, "d3.csv", dp03), "DP03"),
            ]
        )
        assert features.fips == ("01001", "13121")
        assert features.names == ("a", "c")
        assert features.values.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        assert report.dropped_missing_columns == [
            {"table": "DP02", "column": "b", "reason": "missing_or_non_numeric", "bad_cells": 1}
        ]
        assert report.dropped_counties == [
            {"fips": "42003", "reason": "not_in_all_feature_tables", "detail": ["DP03"]}
        ]

    def test_rejects_election_table(self, tmp_path):
        e = parse_table(_write(tmp_path, "e.csv", ELECTION_2016), "election")
        with pytest.raises(ConfigError):
            clean_features([e])

    def test_all_columns_bad_is_error(self, tmp_path):
        dp02 = "fips,only\n01001,(X)\n"
        with pytest.raises(DataError, match="survive"):
            clean_features([parse_table(_write(tmp_path, "x.csv", dp02), "DP02")])


@pytest.mark.usefixtures("kernel_path")
class TestParseElection:
    def test_thousands_separator_votes(self, tmp_path):
        e = parse_election(_write(tmp_path, "e.csv", ELECTION_2020), 2020)
        assert e.fips == ("01001", "13121", "42003")
        assert e.rep.dtype == e.dem.dtype == np.int64
        assert e.rep.tolist() == [19838, 137240, 282913]
        assert e.dem[e.row_of["01001"]] == 7503
        assert e.names["01001"] == "Autauga"
        assert not e.rep.flags.writeable and not e.dem.flags.writeable

    def test_byte_order_mark_dropped(self, tmp_path):
        (tmp_path / "bom.csv").write_bytes(BOM + ELECTION_2016.encode("utf-8"))
        e = parse_election(tmp_path / "bom.csv", 2016)
        plain = parse_election(_write(tmp_path, "e.csv", ELECTION_2016), 2016)
        assert (e.year, e.fips, e.names) == (plain.year, plain.fips, plain.names)
        assert np.array_equal(e.rep, plain.rep) and np.array_equal(e.dem, plain.dem)
        assert e.rep[e.row_of["01001"]] == 18172

    @pytest.mark.parametrize(
        "cell, votes", [('"1,234"', 1234), ('" 12 "', 12), ("12.0", 12), ("1.2e4", 12000)]
    )
    def test_vote_cell_read_as_any_cell(self, tmp_path, cell, votes):
        p = _write(tmp_path, "e.csv", f"fips,rep_votes,dem_votes\n01001,4,5\n13121,3,{cell}\n")
        assert parse_election(p, 2020).dem.tolist() == [5, votes]

    @pytest.mark.parametrize(
        "cell, match",
        [
            ("12.5", "13121: dem_votes is not a whole"), ("abc", "13121: dem_votes is not a whole"),
            ("", "13121: dem_votes is not a whole"), ("inf", "13121: dem_votes is not a whole"),
            ("nan", "13121: dem_votes is not a whole"), ("1e300", "13121: dem_votes is not a whole"),
            ("-1", "13121: negative dem_votes -1"),
        ],
    )
    def test_bad_vote_cell_names_county_and_column(self, tmp_path, cell, match):
        p = _write(tmp_path, "e.csv", f"fips,rep_votes,dem_votes\n01001,4,5\n13121,3,{cell}\n")
        with pytest.raises(DataError, match=match):
            parse_election(p, 2020)

    def test_missing_vote_columns(self, tmp_path):
        p = _write(tmp_path, "e.csv", "fips,votes\n01001,5\n")
        with pytest.raises(SchemaError, match="rep_votes"):
            parse_election(p, 2020)

    def test_non_integer_votes_name_county(self, tmp_path):
        p = _write(tmp_path, "e.csv", "fips,rep_votes,dem_votes\n01001,12.5,4\n")
        with pytest.raises(DataError, match="01001"):
            parse_election(p, 2020)

    def test_negative_votes_rejected(self, tmp_path):
        p = _write(tmp_path, "e.csv", "fips,rep_votes,dem_votes\n01001,-1,4\n")
        with pytest.raises(DataError, match="negative"):
            parse_election(p, 2020)


def _table_outcome(path, source_id="DP02"):
    """Everything parse_table gives for a file, or the type and message of
    its error."""
    try:
        t = parse_table(path, source_id)
    except (ConfigError, DataError) as err:
        return type(err), str(err)
    return t.columns, t.moe_columns, t.fips, t.values.shape, t.values.tobytes(), t.names


def _reference(monkeypatch, read, *args):
    """read(*args) with `_kernels.library()` None, so the reference reader runs."""
    with monkeypatch.context() as m:
        m.setattr(_kernels, "library", lambda: None)
        return read(*args)


def _table_kinds(path, source_id="DP02"):
    """parse_table's map from a header to the kinds of its columns."""
    return lambda header: ingest._header(path, header, source_id).kinds


def _rows_outcome(path, kinds_of):
    """Everything _read_rows gives for a file, or the type and message of
    its error."""
    try:
        header, values, texts = ingest._read_rows(path, kinds_of)
    except (ConfigError, DataError) as err:
        return type(err), str(err)
    return header, values.shape, values.tobytes(), texts


class TestCompiledReader:
    """read_csv in _kernels.c reads what _read_rows's reference reads, bit
    for bit, and declines every file where it might not."""

    @staticmethod
    def _compiled_reads(path, monkeypatch, source_id="DP02"):
        """Whether _read_rows reads `path` whole with read_csv, its reference unused."""
        with monkeypatch.context() as m:
            references = counting(m, ingest, "_read_rows_py")
            outcome = _rows_outcome(path, _table_kinds(path, source_id))
        return references == [] and isinstance(outcome[0], list)

    @pytest.mark.parametrize(
        "text",
        [
            b'fips,name,x,y\n01001,"Comma, County",1,"1,234"\n13121,"Quote ""Q""",2,"5"\n',
            b"fips,a,b,c,d,e\n01001,(X),N,, 7 ,\t8\t\n13121,1,2,3,4,5\n",
            b"fips,a,b,c,d,e,f,g,h,i\n01001,1_000,inf,nan,-0,-0.0,1.,.5,007,1e\n",
            b"fips,a,b,c,d,e,f,g,h\n01001,9007199254740993,9007199254740991,9007199254740992,"
            b"1e22,1e23,0.30000000000000004,-1.7976931348623157e+308,2.5e-22\n",
            BOM + b"fips,county,x\r\n01001,Autauga,1.5\r\n13121,Fulton,2.5",
            b"fips,x\n01001,1.5\n13121,2.5",
            b"x,NAME,fips,x moe\n+3,Do\xc3\xb1a,\"13121\",1\n-.5,\"\",   7,2\n",
            BOM + b"# source: a note\n#\nfips,x\n01001,1.5\n",
            b'# exported\n"fips","x"\n01001,1\n',
            b'fips,"a, b",c\n01001,1,2\n',
            BOM + b'# note\r\nfips,"a\r\nb",c\r\n01001,1,2\r\n',
        ],
        ids=["quoted", "missing-and-padded", "float-syntax", "exactness", "bom-crlf",
             "no-final-newline", "key-columns", "leading-comments",
             "quoted-header", "quoted-comma-header", "quoted-newline-header"],
    )
    def test_reads_as_the_reference(self, tmp_path, monkeypatch, kernels, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert self._compiled_reads(path, monkeypatch)
        compiled = _table_outcome(path)
        assert compiled == _reference(monkeypatch, _table_outcome, path)
        assert isinstance(compiled[0], tuple)
        rows = _rows_outcome(path, _table_kinds(path))
        assert rows == _reference(monkeypatch, _rows_outcome, path, _table_kinds(path))

    @pytest.mark.parametrize(
        "text",
        [
            b"fips,x\n01001,1\r13121,2\n",
            b"fips,x\n01001,1\n\n",
            b"fips,x\n01001,1\n\n13121,2\n",
            b'fips,name,x\n01001,"A,1\n',
            b'fips,name,x\n01001,"A\nB",1\n',
            b"fips,x\n01001,1\x002\n",
            b"fips,x\n01001,\xc2\xbd\n",
            b"fips,x\n01001,1,2\n",
            b"fips,x,y\n01001,1\n",
            b'fips,x\n01001,1"2\n',
            b'fips,x\n01001,"1"2\n',
            b"fips,x\n" + b"".join(b"%d,(X)\n" % (1001 + i) for i in range(400)),
        ],
        ids=["lone-cr", "blank-last-line", "blank-line", "unterminated-quote", "quoted-newline",
             "nul", "non-ascii-number", "long-row", "short-row", "inner-quote",
             "text-after-quote", "slow-cells-overflow"],
    )
    def test_declines_what_the_reference_must_read(self, tmp_path, monkeypatch, kernels, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert not self._compiled_reads(path, monkeypatch)
        assert _table_outcome(path) == _reference(monkeypatch, _table_outcome, path)

    @pytest.mark.parametrize(
        "text, error",
        [(b"fips,name,x\n01001,Synth \xff County,1\n", "not UTF-8 at byte 24"),
         (b"a,b\n1,\xff\n", "not UTF-8 at byte 6")],
        ids=["not-utf8", "no-fips-and-not-utf8"],
    )
    def test_header_read_error_is_the_same_on_both_paths(
        self, tmp_path, monkeypatch, kernels, text, error
    ):
        # the first block of text is decoded when the header is read, before
        # kinds_of runs and before either row reader starts
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        mapped = counting(monkeypatch, ingest, "_read_mapped")
        expected = (DataError, f"{path}: {error}")
        assert _table_outcome(path) == _reference(monkeypatch, _table_outcome, path) == expected
        assert mapped == []

    @pytest.mark.parametrize(
        "text, references",
        [(b"fips,x\n01001,1\r13121,2\n", 1), (b"fips,x\n01001,1\n13121,2\n", 0)],
        ids=["declined", "read"],
    )
    def test_one_open_and_one_kinds_of_per_file(
        self, tmp_path, monkeypatch, kernels, text, references
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        headers, opens = [], []
        monkeypatch.setattr(
            ingest, "open", lambda *args, **kw: opens.append(args) or open(*args, **kw),
            raising=False,
        )

        def kinds_of(header):
            headers.append(header)
            return b"tn"

        calls = counting(monkeypatch, ingest, "_read_rows_py")
        _, values, texts = ingest._read_rows(path, kinds_of)
        assert headers == [["fips", "x"]] and len(opens) == 1
        assert len(calls) == references
        assert values.tolist() == [[1.0], [2.0]] and texts == {0: ["01001", "13121"]}

    def test_ragged_row_line_after_a_long_head(self, tmp_path, monkeypatch, kernels):
        # lines 1-2 are comments, 3-4 the header and 5 a row: line 6 is ragged
        path = tmp_path / "t.csv"
        path.write_bytes(BOM + b'# a\n# b\n"fips","x\ny"\n01001,1\n13121,2,3\n')
        expected = (DataError, f"{path}: line 6 has 3 cells, header has 2")
        assert _table_outcome(path) == _reference(monkeypatch, _table_outcome, path) == expected

    def test_duplicate_fips_is_the_same_error_after_either_reader(
        self, tmp_path, monkeypatch, kernels
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(b"fips,x\n01001,1\n13121,2\n1001,3\n13121,4\n")
        assert self._compiled_reads(path, monkeypatch)
        error = (DataError, f"{path}: duplicate fips 01001")
        assert _table_outcome(path) == _reference(monkeypatch, _table_outcome, path) == error

    @pytest.mark.parametrize(
        "text, code",
        [(b"fips,x\n01001,1\n123456,2\n", "'123456'"), (b"fips,x\n01001,1\n1a001,2\n", "'1a001'"),
         (b'fips,x\n"",1\n01001,2\n', "''"),
         ("fips,x\n01001,1\n١٣١٢١,2\n".encode(), "'١٣١٢١'")],
        ids=["six-digits", "not-digits", "empty", "non-ascii-digits"],
    )
    def test_invalid_fips_is_the_same_error_after_either_reader(
        self, tmp_path, monkeypatch, kernels, text, code
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert self._compiled_reads(path, monkeypatch)
        error = (DataError, f"{path}: invalid FIPS code {code}")
        assert _table_outcome(path) == _reference(monkeypatch, _table_outcome, path) == error

    def test_bit_identical_on_a_million_cells(self, tmp_path, monkeypatch, kernels):
        rng = np.random.default_rng(28)
        n, p = 5000, 200
        x = rng.normal(0.0, 1.0, (n, p)) * 10.0 ** rng.integers(-3, 7, p)
        # formats whose cells decimal() reads, with one cell in 200 left to float()
        formats = ["%.1f", "%d", "%.6f", "%.3e", "%.15g", "%.2f"]
        columns = []
        for j in range(p):
            fmt = formats[j % len(formats)]
            cells = [fmt % v for v in (x[:, j].astype(np.int64) if fmt == "%d" else x[:, j]).tolist()]
            for i in rng.choice(n, size=n // 200, replace=False).tolist():
                cells[i] = ["(X)", " 12.5 ", '"1,234.5"', "", repr(rng.normal())][i % 5]
            columns.append(cells)
        lines = ["fips,name," + ",".join(f"c{j}" for j in range(p))]
        lines += [f"{10001 + i},County {i}," + ",".join(row) for i, row in enumerate(zip(*columns))]
        path = tmp_path / "big.csv"
        path.write_bytes("\n".join(lines).encode("ascii") + b"\n")
        assert n * p >= 10**6
        assert self._compiled_reads(path, monkeypatch)
        compiled = _table_outcome(path)
        assert compiled == _reference(monkeypatch, _table_outcome, path)
        assert 0 < np.isnan(np.frombuffer(compiled[4])).sum() < n * p // 200  # (X) and ""

    def test_peak_memory_stays_near_the_values(self, tmp_path, kernels):
        n, p = 3000, 200
        cells = np.random.default_rng(0).uniform(0, 100, (n, p)).round(1)
        lines = ["fips," + ",".join(f"c{j}" for j in range(p))]
        lines += [f"{10001 + i}," + ",".join(map(str, row)) for i, row in enumerate(cells.tolist())]
        path = _write(tmp_path, "wide.csv", "\n".join(lines) + "\n")
        parse_table(_write(tmp_path, "warm.csv", "fips,x\n01001,1\n"), "DP02")
        tracemalloc.start()
        try:
            t = parse_table(path, "DP02")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.values, cells)
        # 8 bytes of float64 per cell; a copy of the file would add ~5 more
        assert peak / (n * p) <= 10

    def test_dataset_read_as_the_reference(self, tmp_path, monkeypatch, kernels):
        # features as ingest writes them from census tables: one decimal, and
        # a full-precision prior share that decimal() leaves to float()
        rng = np.random.default_rng(5)
        rows = [
            (f"{35001 + 2 * i}", "NM", name, [*rng.uniform(0, 100, 20).round(1), rng.uniform()],
             (int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6))))
            for i, name in enumerate(["Doña Ana", "Comma, County", 'Quote "Q"', "100%", "Plain"] * 20)
        ]
        ds = make_dataset(rows, feature_names=(*(f"f{j}" for j in range(20)), "share_2016"))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, manifest_hash="abc")
        references = counting(monkeypatch, ingest, "_read_rows_py")
        _assert_same_dataset(load_dataset(path), ds)
        assert references == []
        _assert_same_dataset(_reference(monkeypatch, load_dataset, path), ds)

    @pytest.mark.parametrize(
        "row",
        [b"35099,NM,B,1,2,1_000,0.5\r\n", b"35099,NM,B,1,2, 0.5,0.5\r\n", b"35099,NM,B,1,2,inf,0.5\r\n",
         b"35099,NM,B,+1,2,0.5,0.5\r\n", b"35099,NM,B,1.0,2,0.5,0.5\r\n", b"# note\r\n",
         b"35099,NM,B,1,2,0.5,0.5\r# x\n", b'35099,NM,"B"x,1,2,0.5,0.5\r\n',
         b"35099,NM,B,1,2,0.5,0.5\r\n\r\n", b"3509,NM,B,1,2,0.5,0.5\r\n", b"35099,GA,B,1,2,0.5,0.5\r\n"],
        ids=["underscore", "padded", "inf", "plus-tally", "float-tally", "comment", "lone-cr",
             "text-after-quote", "blank-line", "short-fips", "wrong-state"],
    )
    def test_dataset_outcome_as_the_reference(self, tmp_path, monkeypatch, kernels, row):
        ds = make_dataset([("35013", "NM", "A", [0.1, 0.25], (5, 6))])
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        with open(path, "ab") as fh:
            fh.write(row)
        # the metadata counts the appended row, so the county count decides no case alone
        meta = path.with_name("dataset_meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "n_counties": 2}))

        def outcome():
            try:
                d = load_dataset(path)
            except (DataError, ValueError) as err:
                return type(err), str(err)
            return d.keys, d.X.tobytes(), d.rep.tolist(), d.dem.tolist()

        assert outcome() == _reference(monkeypatch, outcome)


@pytest.mark.parametrize(
    "cell, count",
    [("7", 7), ("7.0", 7), ("7.5", None), ("-1", None), ("(X)", None),
     ("9007199254740991", 2**53 - 1), ("9007199254740993", None)],
)
def test_one_vote_count_rule_for_election_files_and_datasets(tmp_path, kernel_path, cell, count):
    """A vote cell gets one verdict, a count or None for an error, whether an
    election file or a dataset pair holds it. 2**53 + 1 reads as 2**53, so
    both refuse 2**53."""
    election = _write(tmp_path, "e.csv", f"fips,rep_votes,dem_votes\n35013,{cell},5\n")
    path = tmp_path / "dataset.csv"
    save_dataset(make_dataset([("35013", "NM", "A", [0.1, 0.25], (6, 5))]), path)
    path.write_bytes(path.read_bytes().replace(b",A,6,5,", f",A,{cell},5,".encode()))

    def verdict(read):
        try:
            return int(read()[0])
        except DataError as err:
            return str(err)

    by_election = verdict(lambda: parse_election(election, 2020).rep)
    by_dataset = verdict(lambda: load_dataset(path).rep)
    if count is None:
        assert isinstance(by_election, str) and isinstance(by_dataset, str)
    else:
        assert by_election == by_dataset == count
    if cell in ("7.5", "9007199254740993"):
        assert by_election == "county 35013: rep_votes is not a whole vote count"
        assert by_dataset == "county 35013: rep_2020 is not a whole vote count"


def test_non_utf8_election_file_is_data_error(tmp_path, kernel_path):
    path = tmp_path / "e.csv"
    head = ELECTION_2020.encode("utf-8") + b"01001,Synth "
    path.write_bytes(head + b"\xff County,1,2\n")
    with pytest.raises(DataError, match=f"e.csv: not UTF-8 at byte {len(head)}$"):
        parse_election(path, 2020)


def test_non_utf8_dataset_is_data_error(tmp_path, kernel_path):
    ds = make_dataset([("35013", "NM", "A", [0.1, 0.25], (5, 6))])
    path = tmp_path / "dataset.csv"
    save_dataset(ds, path)
    head = path.read_bytes() + b"35001,NM,B "
    path.write_bytes(head + b"\xff,1,2,0.5,0.5\r\n")
    with pytest.raises(DataError, match=f"dataset.csv: not UTF-8 at byte {len(head)}$"):
        load_dataset(path)


class TestAssembleDataset:
    def _parts(self, tmp_path):
        features, _ = clean_features(
            [
                parse_table(_write(tmp_path, "dp02.csv", DP02), "DP02"),
                parse_table(_write(tmp_path, "dp03.csv", DP03), "DP03"),
            ]
        )
        e20 = parse_election(_write(tmp_path, "e20.csv", ELECTION_2020), 2020)
        e16 = parse_election(_write(tmp_path, "e16.csv", ELECTION_2016), 2016)
        return features, e20, e16

    def test_joins_and_appends_prior_share(self, tmp_path):
        features, e20, e16 = self._parts(tmp_path)
        ds, report = assemble_dataset(features, [e20, e16], 2020)
        assert ds.n == 3
        assert ds.target_year == 2020
        assert "share_2016" in ds.feature_names
        assert "share_2020" not in ds.feature_names
        j = ds.feature_names.index("share_2016")
        i = ds.index_of("01001")
        assert ds.X[i, j] == 18172 / (18172 + 5936)

    def test_display_names_from_features(self, tmp_path):
        features, e20, e16 = self._parts(tmp_path)
        ds, _ = assemble_dataset(features, [e20, e16], 2020)
        assert ds.keys[ds.index_of("01001")].name == "Autauga, Alabama"

    def test_join_order_invariance(self, tmp_path):
        features, e20, e16 = self._parts(tmp_path)
        a, _ = assemble_dataset(features, [e20, e16], 2020)
        b, _ = assemble_dataset(features, [e16, e20], 2020)
        assert np.array_equal(a.X, b.X)
        assert a.feature_names == b.feature_names
        assert [k.fips for k in a.keys] == [k.fips for k in b.keys]

    def test_county_missing_election_year_dropped(self, tmp_path):
        features, e20, _ = self._parts(tmp_path)
        e16_partial = parse_election(
            _write(tmp_path, "e16p.csv", "fips,rep_votes,dem_votes\n01001,10,20\n13121,5,5\n"),
            2016,
        )
        ds, report = assemble_dataset(features, [e20, e16_partial], 2020)
        assert ds.n == 2
        drop = next(d for d in report.dropped_counties if d["fips"] == "42003")
        assert drop["reason"] == "absent_from_election"
        assert drop["detail"] == [2016]

    def test_alaska_dropped(self, tmp_path):
        dp = "fips,x\n02013,1.0\n01001,2.0\n"
        e = "fips,rep_votes,dem_votes\n02013,5,5\n01001,6,4\n"
        features, _ = clean_features([parse_table(_write(tmp_path, "d.csv", dp), "DP02")])
        election = parse_election(_write(tmp_path, "e.csv", e), 2020)
        ds, report = assemble_dataset(features, [election], 2020)
        assert [k.fips for k in ds.keys] == ["01001"]
        assert any(d["reason"] == "alaska" and d["fips"] == "02013" for d in report.dropped_counties)

    def test_alaska_only_input_is_config_error(self, tmp_path):
        dp = "fips,x\n02013,1.0\n02016,2.0\n"
        e = "fips,rep_votes,dem_votes\n02013,5,5\n02016,6,4\n"
        features, _ = clean_features([parse_table(_write(tmp_path, "d.csv", dp), "DP02")])
        election = parse_election(_write(tmp_path, "e.csv", e), 2020)
        with pytest.raises(ConfigError, match="no counties left"):
            assemble_dataset(features, [election], 2020)

    def test_unknown_state_prefix_dropped(self, tmp_path):
        dp = "fips,x\n99001,1.0\n01001,2.0\n"
        e = "fips,rep_votes,dem_votes\n99001,5,5\n01001,6,4\n"
        features, _ = clean_features([parse_table(_write(tmp_path, "d.csv", dp), "DP02")])
        election = parse_election(_write(tmp_path, "e.csv", e), 2020)
        ds, report = assemble_dataset(features, [election], 2020)
        assert [k.fips for k in ds.keys] == ["01001"]
        assert any(d["reason"] == "unknown_state_fips" for d in report.dropped_counties)

    def test_zero_two_party_total_dropped(self, tmp_path):
        dp = "fips,x\n01001,1.0\n01003,2.0\n"
        e = "fips,rep_votes,dem_votes\n01001,0,0\n01003,6,4\n"
        features, _ = clean_features([parse_table(_write(tmp_path, "d.csv", dp), "DP02")])
        election = parse_election(_write(tmp_path, "e.csv", e), 2020)
        ds, report = assemble_dataset(features, [election], 2020)
        assert [k.fips for k in ds.keys] == ["01003"]
        drop = next(d for d in report.dropped_counties if d["fips"] == "01001")
        assert drop["reason"] == "zero_two_party_total"

    def test_election_only_county_reported(self, tmp_path):
        features, e20, e16 = self._parts(tmp_path)
        extra = parse_election(
            _write(
                tmp_path, "e20x.csv",
                ELECTION_2020 + "48215,Hidalgo,52000,90000\n",
            ),
            2020,
        )
        ds, report = assemble_dataset(features, [extra, e16], 2020)
        assert ds.n == 3
        assert any(
            d["fips"] == "48215" and d["reason"] == "not_in_demographics"
            for d in report.dropped_counties
        )

    def test_duplicate_year_rejected(self, tmp_path):
        features, e20, _ = self._parts(tmp_path)
        with pytest.raises(ConfigError, match="two election tables"):
            assemble_dataset(features, [e20, e20], 2020)

    def test_missing_target_year_rejected(self, tmp_path):
        features, _, e16 = self._parts(tmp_path)
        with pytest.raises(ConfigError, match="target year"):
            assemble_dataset(features, [e16], 2020)


@pytest.mark.usefixtures("kernel_path")
class TestDatasetRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=40, n_features=6, n_active=2, seed=8))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, manifest_hash="deadbeef")
        assert path.read_text().startswith("# manifest_sha256=deadbeef\n")
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
        assert back.feature_names == ds.feature_names
        assert [k.fips for k in back.keys] == [k.fips for k in ds.keys]
        assert [k.name for k in back.keys] == [k.name for k in ds.keys]
        assert np.array_equal(back.rep, ds.rep)
        assert np.array_equal(back.dem, ds.dem)
        assert back.target_year == ds.target_year

    def test_csv_bytes_match_per_scalar_repr(self, tmp_path, kernel_path):
        rows = [
            ("35013", "NM", "Doña Ana County", [0.1 + 0.2, -0.0], (5, 6)),
            ("35001", "NM", "Comma, County", [1e-300, 123456789.12345679], (9, 10)),
            ("35005", "NM", 'Quote "Q" County', [-1 / 3, 5.0], (13, 14)),
        ]
        ds = make_dataset(rows)
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, manifest_hash="deadbeef")

        # the reference: csv.writer rows with repr(float(v)) for each feature scalar
        buf = io.StringIO(newline="")
        buf.write("# manifest_sha256=deadbeef\n")
        writer = csv.writer(buf)
        writer.writerow(["fips", "state", "name", "rep_2020", "dem_2020", *ds.feature_names])
        for i, key in enumerate(ds.keys):
            writer.writerow([key.fips, key.state, key.name, str(int(ds.rep[i])), str(int(ds.dem[i])),
                             *[repr(float(v)) for v in ds.X[i]]])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert [k.name for k in load_dataset(path).keys] == [r[2] for r in rows]

    def test_no_feature_rows(self, tmp_path, kernel_path):
        ds = make_dataset([("35013", "NM", "A, B", [], (5, 6)), ("35001", "NM", "C", [], (9, 10))],
                          feature_names=())
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        assert path.read_bytes() == b'fips,state,name,rep_2020,dem_2020\r\n35013,NM,"A, B",5,6\r\n35001,NM,C,9,10\r\n'

    def test_awkward_cells_load_bit_exact(self, tmp_path, kernel_path):
        rows = [
            ("35013", "NM", "Doña Ana County", [-0.0, 5e-324, 0.1 + 0.2], (5, 6)),
            ("35001", "NM", "Comma, County", [1 / 3, -2.2250738585072014e-308, 1.7976931348623157e308],
             (9, 10)),
            ("35005", "NM", 'Quote "Q", Ñ', [123456789.12345679, -9.8765432109876543e-5, 0.0],
             (13, 14)),
        ]
        ds = make_dataset(rows, feature_names=("f_a", "f_b", "f_c"))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.X.tobytes() == ds.X.tobytes()  # -0.0 and the subnormal too
        _assert_same_dataset(back, ds)

    @pytest.mark.parametrize(
        "row",
        ["35099,NM,Short County,1,2,0.5\r\n",
         "35099,NM,Long County,1,2,0.5,0.5,0.5\r\n",
         '35099,NM,"Long, County",1,2,0.5,0.5,0.5\r\n',
         '35099,NM,"Quoted, County",1,2,0.5\r\n'],
        ids=["short", "long", "long-quoted", "short-quoted"],
    )
    def test_ragged_row_is_data_error(self, tmp_path, row):
        ds = make_dataset([("35013", "NM", "A", [0.1, 0.2], (5, 6))])
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            fh.write(row)
        cells = len(next(csv.reader([row])))
        with pytest.raises(DataError, match=f"dataset.csv: line 3 has {cells} cells, header has 7$"):
            load_dataset(path)

    def test_ragged_row_line_counts_the_comment_line(self, tmp_path):
        ds = make_dataset([("35013", "NM", "A", [0.1, 0.2], (5, 6)),
                           ("35001", "NM", "B", [0.3, 0.4], (7, 8))])
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, manifest_hash="deadbeef")
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"# manifest_sha256=deadbeef"
        lines[3] = b"35001,NM,B,7,8,0.3\r"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="dataset.csv: line 4 has 6 cells, header has 7$"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["zero", "(X)", "", "inf", "-inf", "nan"])
    def test_unreadable_or_non_finite_feature_names_county_and_column(self, tmp_path, cell):
        ds = make_dataset([("35013", "NM", "A", [0.1, 0.2], (5, 6))])
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        meta = path.with_name("dataset_meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "n_counties": 2}))
        with open(path, "a", newline="", encoding="utf-8") as fh:
            fh.write(f"35099,NM,B,1,2,0.5,{cell}\r\n")
        with pytest.raises(DataError, match="^county 35099: feature f_b is not a finite number$"):
            load_dataset(path)

    def test_full_precision_dataset_loads_bit_exact(self, tmp_path, kernel_path, monkeypatch):
        # mostly 17-digit reprs, far more cells than read_csv leaves to
        # float() in a file it reads, so the reference reads it either way
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=100, n_features=20, seed=3))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, manifest_hash="abc")
        references = counting(monkeypatch, ingest, "_read_rows_py")
        _assert_same_dataset(load_dataset(path), ds)
        assert len(references) == 1

    def test_missing_meta_is_schema_error(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=20, n_features=3, n_active=1, seed=8))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        (tmp_path / "dataset_meta.json").unlink()
        with pytest.raises(SchemaError, match="meta"):
            load_dataset(path)

    def test_header_tamper_detected(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=20, n_features=3, n_active=1, seed=8))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        text = path.read_text().replace("f000", "fzzz", 1)
        path.write_text(text)
        with pytest.raises((SchemaError, DataError)):
            load_dataset(path)


def _assert_same_dataset(a, b):
    """Bit-for-bit equality of everything a Dataset holds."""
    assert a.X.dtype == b.X.dtype and np.array_equal(a.X, b.X)
    assert a.keys == b.keys
    assert a.feature_names == b.feature_names
    assert a.target_year == b.target_year
    assert a.rep.dtype == b.rep.dtype and np.array_equal(a.rep, b.rep)
    assert a.dem.dtype == b.dem.dtype and np.array_equal(a.dem, b.dem)


class TestDatasetCache:
    @pytest.fixture(params=["synthetic", "two_years"])
    def saved(self, request, tmp_path, six_county_dataset):
        """A dataset pair saved with its cache: (dataset, csv path, cache dir)."""
        if request.param == "synthetic":
            ds, _ = generate_synthetic(SyntheticSpec(n_counties=40, n_features=6, seed=8))
        else:
            ds = six_county_dataset
        path, cache = tmp_path / "dataset.csv", tmp_path / "cache"
        save_dataset(ds, path, manifest_hash="deadbeef", cache_dir=cache)
        return ds, path, cache

    @staticmethod
    def _parses(monkeypatch):
        """Count CSV parses behind load_dataset."""
        return counting(monkeypatch, ingest, "_parse_dataset_csv")

    def test_cached_load_equals_csv_load(self, saved, monkeypatch):
        ds, path, cache = saved
        parsed = load_dataset(path)
        parses = self._parses(monkeypatch)
        cached = load_dataset(path, cache_dir=cache)
        assert parses == []
        _assert_same_dataset(cached, parsed)
        _assert_same_dataset(cached, ds)

    def test_parse_writes_the_cache(self, saved, monkeypatch):
        ds, path, cache = saved
        (cache / "dataset.npz").unlink()
        parses = self._parses(monkeypatch)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)
        _assert_same_dataset(load_dataset(path, cache_dir=cache, digest=dataset_sha256(path)), ds)
        assert len(parses) == 1
        assert sorted(p.name for p in cache.iterdir()) == ["dataset.npz"]

    @pytest.mark.parametrize("edit", ["csv", "meta"])
    def test_edited_pair_ignores_and_rewrites_the_cache(self, saved, monkeypatch, edit):
        ds, path, cache = saved
        if edit == "csv":
            X = np.array(ds.X)
            X[0, 0] += 1.0
            ds = Dataset.build(ds.keys, ds.feature_names, X, ds.rep, ds.dem, ds.target_year)
            save_dataset(ds, path, manifest_hash="deadbeef")
        else:
            meta = path.with_name("dataset_meta.json")
            meta.write_text(meta.read_text().replace("deadbeef", "feedbeef"))
        parses = self._parses(monkeypatch)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)
        assert len(parses) == 1
        with np.load(cache / "dataset.npz") as npz:
            assert str(npz["digest"]) == dataset_sha256(path)

    @pytest.mark.parametrize("odds", ["a_county_short", "a_feature_short", "tally_over_2_53"])
    def test_cache_at_odds_with_its_pair_is_ignored(self, saved, monkeypatch, odds):
        # stamped with the pair's digest, but not the pair's dataset
        ds, path, cache = saved
        if odds == "a_county_short":
            other = ds.subset(range(ds.n - 1))
        elif odds == "a_feature_short":
            other = Dataset.build(
                ds.keys, ds.feature_names[:-1], ds.X[:, :-1], ds.rep, ds.dem, ds.target_year
            )
        else:
            rep = np.array(ds.rep)
            rep[0] = 2**53 + 1
            other = Dataset.build(ds.keys, ds.feature_names, ds.X, rep, ds.dem, ds.target_year)
        ingest._write_cache(cache / "dataset.npz", dataset_sha256(path), other)
        parses = self._parses(monkeypatch)
        loaded = load_dataset(path, cache_dir=cache)
        assert len(parses) == 1
        _assert_same_dataset(loaded, load_dataset(path))
        _assert_same_dataset(loaded, ds)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)  # the rewritten cache
        assert len(parses) == 2

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "garbage", "float32", "int32_tallies", "short", "short_names", "nan",
         "bad_fips", "negative_tally"],
    )
    def test_invalid_cache_is_ignored(self, saved, monkeypatch, damage):
        ds, path, cache = saved
        file = cache / "dataset.npz"
        if damage == "truncated":
            file.write_bytes(file.read_bytes()[:-100])
        elif damage == "garbage":
            file.write_bytes(b"not a cache")
        else:
            with np.load(file) as npz:
                arrays = dict(npz)
            if damage == "float32":
                arrays["X"] = arrays["X"].astype(np.float32)
            elif damage == "int32_tallies":
                arrays["rep"] = arrays["rep"].astype(np.int32)
            elif damage == "short":
                arrays["X"] = arrays["X"][:-1]
            elif damage == "short_names":
                arrays["name"] = arrays["name"][:-1]
            elif damage == "nan":
                arrays["X"][0, 0] = np.nan
            elif damage == "negative_tally":
                arrays["rep"][0] = -500
            else:
                arrays["fips"] = np.array(["x" * 5] * len(arrays["fips"]))
            np.savez(file, **arrays)
        parses = self._parses(monkeypatch)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)
        _assert_same_dataset(load_dataset(path, cache_dir=cache), ds)
        assert len(parses) == 1


def test_ingest_writes_utf8_whatever_the_locale(tmp_path):
    """An ASCII locale neither crashes ingest on a non-ASCII county name nor
    changes the bytes it writes; no file is opened in the locale encoding."""
    files = {
        "dp02.csv": "fips,county,pct_x\n35013,Doña Ana County,1.5\n"
                    "35001,Bernalillo County,2.5\n35005,Chaves County,0.5\n",
        "e2020.csv": "fips,rep_votes,dem_votes\n35013,1000,1200\n35001,900,1500\n35005,800,300\n",
        "e2016.csv": "fips,rep_votes,dem_votes\n35013,1100,1100\n35001,950,1400\n35005,850,250\n",
        "run.ini": "[run]\nout_dir = out\n\n[inputs]\ndp02 = dp02.csv\n"
                   "election_2020 = e2020.csv\nelection_2016 = e2016.csv\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "tamperscan.cli", "ingest", "--manifest", "run.ini"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    path = tmp_path / "out" / "dataset.csv"
    assert b"35013,NM,Do\xc3\xb1a Ana County," in path.read_bytes()
    ds = load_dataset(path)
    assert ds.keys[ds.index_of("35013")].name == "Doña Ana County"


def test_ingest_reads_files_that_start_with_a_byte_order_mark(tmp_path):
    """Inputs and manifest written with a UTF-8 BOM ingest to the same
    dataset as without it, and the written files carry no BOM."""
    from tamperscan.cli import main

    files = {
        "dp02.csv": "fips,county,pct_x,pct_y\n35013,Do\u00f1a Ana County,1.5,3\n"
                    "35001,Bernalillo County,2.5,1\n35005,Chaves County,0.5,2\n",
        "e2020.csv": "fips,rep_votes,dem_votes\n35013,1000,1200\n35001,900,1500\n35005,800,300\n",
        "e2016.csv": "fips,rep_votes,dem_votes\n35013,1100,1100\n35001,950,1400\n35005,850,250\n",
        "run.ini": "[run]\nout_dir = out\n\n[inputs]\ndp02 = dp02.csv\n"
                   "election_2020 = e2020.csv\nelection_2016 = e2016.csv\n",
    }
    datasets = []
    for prefix in (b"", BOM):
        work = tmp_path / ("bom" if prefix else "plain")
        work.mkdir()
        for name, text in files.items():
            (work / name).write_bytes(prefix + text.encode("utf-8"))
        assert main(["ingest", "--manifest", str(work / "run.ini")]) == 0
        for written in (work / "out").glob("*.*"):
            assert not written.read_bytes().startswith(BOM), written.name
        datasets.append(load_dataset(work / "out" / "dataset.csv"))
    _assert_same_dataset(*datasets)
    assert datasets[1].feature_names[:2] == ("pct_x", "pct_y")
