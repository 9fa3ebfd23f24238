import ast
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tamperscan import (
    SyntheticSpec,
    anomaly,
    elastic_net,
    generate_synthetic,
    ingest,
    load_dataset,
    load_manifest,
    manifest_hash,
)
from tamperscan.cli import main
from tamperscan.ingest import dataset_sha256, save_dataset
from tamperscan.scenarios import Direction, InjectionSpec, inject_flips

from conftest import counting, make_dataset

MANIFEST = """\
[run]
target_year = 2020
out_dir = out

[data]
dataset = out/dataset.csv

[synth]
n_counties = 300
n_features = 30
n_active = 5
noise_sd = 0.01
seed = 11

[cv]
l1_grid = 0.5, 1.0
n_alphas = 20

[mc]
trials = 20000
seed = 0

[blind]
train_states = AL, AZ, CA, CO, MT, TX, WY
eval_states = GA, MI, PA, WI

[injection]
fips = {fips}
k = 40000
direction = R_to_D

[sweep]
states = GA
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cliws")
    manifest = ws / "run.ini"
    manifest.write_text(MANIFEST.format(fips="99999"))  # placeholder fips
    assert main(["synth", "--manifest", str(manifest)]) == 0
    ds = load_dataset(ws / "out" / "dataset.csv")
    mi = ds.subset_states(["MI"])
    big = mi.keys[int(np.argmax(mi.rep + mi.dem))].fips
    manifest.write_text(MANIFEST.format(fips=big))
    return ws


def _man(ws):
    return str(ws / "run.ini")


def _hash_of(ws):
    return manifest_hash(ws / "run.ini")


def _outputs(out):
    """A command's output files; subdirectories such as dataset_cache/ are caches."""
    return sorted(p for p in out.iterdir() if p.is_file())


def _assert_cache_matches_csv(out, monkeypatch):
    """out/dataset_cache/ holds the dataset that parsing out/dataset.csv gives."""
    parsed = load_dataset(out / "dataset.csv")
    with monkeypatch.context() as m:
        parses = counting(m, ingest, "_parse_dataset_csv")
        cached = load_dataset(out / "dataset.csv", cache_dir=out / "dataset_cache")
    assert parses == []
    assert np.array_equal(cached.X, parsed.X)
    assert cached.keys == parsed.keys
    assert cached.feature_names == parsed.feature_names
    assert cached.target_year == parsed.target_year
    assert np.array_equal(cached.rep, parsed.rep)
    assert np.array_equal(cached.dem, parsed.dem)


def _subprocess_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _new_process():
    """Empty the in-process MC table cache, as a fresh CLI process starts."""
    anomaly._cached_table.cache_clear()


class TestSynth:
    def test_outputs(self, workspace):
        out = workspace / "out"
        assert (out / "dataset.csv").exists()
        assert (out / "dataset_meta.json").exists()
        coeffs = json.loads((out / "true_coefficients.json").read_text())
        assert coeffs["spec"]["n_counties"] == 300
        assert len(coeffs["coefficients"]) == 30
        assert sum(1 for v in coeffs["coefficients"].values() if v != 0.0) == 5

    def test_writes_dataset_cache(self, workspace, monkeypatch):
        _assert_cache_matches_csv(workspace / "out", monkeypatch)


@pytest.fixture(scope="module")
def fit_out(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    assert main(["fit", "--manifest", _man(workspace), "--out", str(out)]) == 0
    return out


class TestFit:
    def test_files_written(self, fit_out):
        for name in ("model.json", "cv.json", "ranking.csv", "scores.json", "residuals.csv"):
            assert (fit_out / name).exists(), name

    def test_manifest_hash_embedded_everywhere(self, workspace, fit_out):
        h = _hash_of(workspace)
        for csv_name in ("ranking.csv", "residuals.csv"):
            first = (fit_out / csv_name).read_text().splitlines()[0]
            assert first == f"# manifest_sha256={h}"
        for json_name in ("model.json", "cv.json"):
            doc = json.loads((fit_out / json_name).read_text())
            assert doc["manifest_sha256"] == h
        scores = json.loads((fit_out / "scores.json").read_text())
        assert scores["meta"]["manifest_sha256"] == h

    def test_thread_count_is_byte_invariant(self, workspace, fit_out, tmp_path_factory):
        other = tmp_path_factory.mktemp("fit_t4")
        assert main(
            ["fit", "--manifest", _man(workspace), "--out", str(other), "--threads", "4"]
        ) == 0
        for f in _outputs(fit_out):
            assert (other / f.name).read_bytes() == f.read_bytes(), f.name

    def test_rerun_is_byte_identical(self, workspace, fit_out, tmp_path_factory):
        again = tmp_path_factory.mktemp("fit_again")
        assert main(["fit", "--manifest", _man(workspace), "--out", str(again)]) == 0
        for f in _outputs(fit_out):
            assert (again / f.name).read_bytes() == f.read_bytes(), f.name

    def test_residual_export_sigmas_match_scores(self, fit_out):
        scored = {
            c["fips"]: c for c in json.loads((fit_out / "scores.json").read_text())["counties"]
        }
        with open(fit_out / "residuals.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert sorted(r["fips"] for r in rows) == sorted(scored)
        for row in rows:
            county = scored[row["fips"]]
            assert float(row["local_sigma"]) == county["local_sigma"], row["fips"]
            assert float(row["global_sigma"]) == county["global_sigma"], row["fips"]

    def test_summary_printed(self, workspace, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("fit_print")
        main(["fit", "--manifest", _man(workspace), "--out", str(out)])
        text = capsys.readouterr().out
        assert "counties: 300" in text
        assert "rms residual:" in text
        assert "size correlation:" in text


class TestBlindInjectSweepCalibrate:
    def test_blind(self, workspace, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("blind")
        assert main(["blind", "--manifest", _man(workspace), "--out", str(out)]) == 0
        for name in (
            "blind_model.json", "blind_cv.json", "blind_ranking.csv",
            "blind_scores.json", "blind_residuals.csv", "counterfactuals.json",
        ):
            assert (out / name).exists(), name
        model = json.loads((out / "blind_model.json").read_text())
        assert model["training_meta"]["eval_states"] == ["GA", "MI", "PA", "WI"]
        cf = json.loads((out / "counterfactuals.json").read_text())
        assert [row["state"] for row in cf["states"]] == ["GA", "MI", "PA", "WI"]
        text = capsys.readouterr().out
        assert "counterfactual GA:" in text

    def test_inject(self, workspace, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("inject")
        assert main(["inject", "--manifest", _man(workspace), "--out", str(out)]) == 0
        comp = json.loads((out / "comparison.json").read_text())
        assert comp["direction"] == "R_to_D"
        assert comp["after"]["rank"] <= comp["before"]["rank"]
        assert comp["after"]["residual"] < comp["before"]["residual"]
        assert (out / "injected_ranking.csv").exists()
        assert (out / "injected_scores.json").exists()
        assert "rank:" in capsys.readouterr().out

    def test_sweep(self, workspace, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("sweep")
        assert main(["sweep", "--manifest", _man(workspace), "--out", str(out)]) == 0
        assert (out / "sweep_GA.csv").exists()
        svg = (out / "sweep_GA.svg").read_text()
        assert svg.startswith("<svg")
        assert f"manifest_sha256={_hash_of(workspace)}" in svg
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert "GA" in summary["states"]
        assert "unconstrained counties:" in capsys.readouterr().out

    def test_calibrate(self, workspace, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("calib")
        assert main(["calibrate", "--manifest", _man(workspace), "--out", str(out)]) == 0
        lines = (out / "calibration.csv").read_text().splitlines()
        assert lines[0] == f"# manifest_sha256={_hash_of(workspace)}"
        header = lines[1].split(",")
        assert "p_local" in header and "analytic_sigma" in header and "agrees" in header
        assert len(lines) == 2 + 5 * 3  # default z grid x default n grid
        text = capsys.readouterr().out
        assert "4 sigma global threshold" in text
        assert "DISAGREES" not in text


def test_scored_commands_write_one_file_trio(workspace, fit_out, tmp_path):
    """fit, blind and inject each write a ranking, a scores file with the same
    provenance and a residual export."""
    for cmd in ("blind", "inject"):
        assert main([cmd, "--manifest", _man(workspace), "--out", str(tmp_path)]) == 0
    for out, prefix in ((fit_out, ""), (tmp_path, "blind_"), (tmp_path, "injected_")):
        for name in ("ranking.csv", "scores.json", "residuals.csv"):
            assert (out / f"{prefix}{name}").exists(), prefix + name
        meta = json.loads((out / f"{prefix}scores.json").read_text())["meta"]
        for key in ("manifest_sha256", "n_counties", "width", "rms_residual", "mc_trials", "mc_seed"):
            assert key in meta, (prefix, key)
        assert (meta["mc_trials"], meta["mc_seed"]) == (20000, 0)


@pytest.fixture
def private_ws(workspace, tmp_path):
    """A copy of the workspace whose manifest and dataset a test may edit."""
    (tmp_path / "out").mkdir()
    shutil.copyfile(workspace / "run.ini", tmp_path / "run.ini")
    for name in ("dataset.csv", "dataset_meta.json"):
        shutil.copyfile(workspace / "out" / name, tmp_path / "out" / name)
    return tmp_path


class TestReuseAcrossCommands:
    """Later commands on one output directory reuse the blinded fit `blind`
    stored and the dataset cache, with unchanged outputs; each process draws
    its own MC null tables."""

    def test_blind_chain_fits_once_and_matches_fresh_runs(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        draws = counting(monkeypatch, anomaly, "_draw_table")
        chained = tmp_path / "chained"
        drawn = {}
        for cmd in ("blind", "inject", "sweep"):
            _new_process()
            assert main([cmd, "--manifest", _man(workspace), "--out", str(chained)]) == 0
            drawn[cmd] = len(draws) - sum(drawn.values())
        assert len(cv_calls) == 1
        assert drawn["inject"] == 1  # shared by the baseline and the tampered scoring
        assert "refitting" not in capsys.readouterr().err

        for cmd in ("inject", "sweep"):
            fresh = tmp_path / f"fresh_{cmd}"
            _new_process()
            assert main([cmd, "--manifest", _man(workspace), "--out", str(fresh)]) == 0
            err = capsys.readouterr().err
            assert err.startswith("note: refitting the blinded model: no blind_model.json")
            assert len(err.splitlines()) == 1
            for f in _outputs(fresh):
                assert (chained / f.name).read_bytes() == f.read_bytes(), (cmd, f.name)
        assert len(cv_calls) == 3

    @pytest.mark.parametrize("edit", ["blind_spec", "dataset_sha256"])
    def test_edited_input_forces_refit(self, private_ws, monkeypatch, capsys, edit):
        man, out = _man(private_ws), private_ws / "out"
        assert main(["blind", "--manifest", man]) == 0
        if edit == "blind_spec":
            manifest = private_ws / "run.ini"
            manifest.write_text(manifest.read_text().replace("n_alphas = 20", "n_alphas = 19"))
        else:
            # move votes in a training county, so a stale model would score differently
            ds = load_dataset(out / "dataset.csv")
            i = next(i for i, k in enumerate(ds.keys) if k.state == "TX")
            flip = InjectionSpec(ds.keys[i].fips, int(ds.rep[i]) // 2, Direction.R_TO_D)
            save_dataset(inject_flips(ds, flip), out / "dataset.csv", _hash_of(private_ws))
        capsys.readouterr()
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        assert main(["inject", "--manifest", man]) == 0
        assert len(cv_calls) == 1
        err = capsys.readouterr().err
        assert err == f"note: refitting the blinded model: blind_model.json has a different {edit}\n"
        fresh = private_ws / "fresh"
        assert main(["inject", "--manifest", man, "--out", str(fresh)]) == 0
        for f in _outputs(fresh):
            assert (out / f.name).read_bytes() == f.read_bytes(), f.name

    def test_changed_trials_keep_the_blinded_fit(self, private_ws, monkeypatch, capsys):
        man, out = _man(private_ws), private_ws / "out"
        assert main(["blind", "--manifest", man]) == 0
        manifest = private_ws / "run.ini"
        manifest.write_text(manifest.read_text().replace("trials = 20000", "trials = 30000"))
        capsys.readouterr()
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        for cmd in ("inject", "sweep"):
            assert main([cmd, "--manifest", man]) == 0
        assert len(cv_calls) == 0
        assert capsys.readouterr().err == ""
        for cmd in ("inject", "sweep"):
            fresh = private_ws / f"fresh_{cmd}"
            assert main([cmd, "--manifest", man, "--out", str(fresh)]) == 0
            for f in _outputs(fresh):
                assert (out / f.name).read_bytes() == f.read_bytes(), (cmd, f.name)

    def test_outputs_same_with_and_without_dataset_cache(self, private_ws, monkeypatch):
        man, out = _man(private_ws), private_ws / "out"
        assert main(["blind", "--manifest", man]) == 0
        for cmd in ("inject", "sweep"):
            fresh = private_ws / f"fresh_{cmd}"
            assert main([cmd, "--manifest", man, "--out", str(fresh)]) == 0
            parses = counting(monkeypatch, ingest, "_parse_dataset_csv")
            assert main([cmd, "--manifest", man]) == 0
            assert parses == []  # read from out/dataset_cache/, which blind wrote
            for f in _outputs(fresh):
                assert (out / f.name).read_bytes() == f.read_bytes(), (cmd, f.name)

    @pytest.mark.parametrize("edit", ["dataset.csv", "dataset_meta.json"])
    def test_edited_dataset_rewrites_the_cache(self, private_ws, monkeypatch, edit):
        man, out = _man(private_ws), private_ws / "out"
        assert main(["fit", "--manifest", man]) == 0
        path = out / edit
        if edit == "dataset.csv":
            path.write_text(path.read_text().replace("Synth County 299,", "Edited County,"))
        else:
            path.write_text(path.read_text().replace('"manifest_sha256"', '"edited": 1, "manifest_sha256"'))
        parses = counting(monkeypatch, ingest, "_parse_dataset_csv")
        assert main(["fit", "--manifest", man]) == 0
        assert len(parses) == 1
        with np.load(out / "dataset_cache" / "dataset.npz") as npz:
            assert str(npz["digest"]) == dataset_sha256(out / "dataset.csv")
        counties = {c["county"] for c in json.loads((out / "scores.json").read_text())["counties"]}
        assert ("Edited County" in counties) == (edit == "dataset.csv")

    @pytest.mark.parametrize("corrupt", ["scale_one_short", "scale_all_zero", "negative_alpha"])
    def test_malformed_blinded_fit_is_refitted(self, private_ws, monkeypatch, capsys, corrupt):
        man, out = _man(private_ws), private_ws / "out"
        assert main(["blind", "--manifest", man]) == 0
        name = "blind_cv.json" if corrupt == "negative_alpha" else "blind_model.json"
        doc = json.loads((out / name).read_text())
        if corrupt == "negative_alpha":
            doc["selected"]["alpha"] = -1
        else:
            scale = doc["standardization"]["scale"]
            doc["standardization"]["scale"] = (
                scale[:-1] if corrupt == "scale_one_short" else [0.0] * len(scale)
            )
        (out / name).write_text(json.dumps(doc))  # the key still matches
        capsys.readouterr()
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        assert main(["sweep", "--manifest", man]) == 0
        assert len(cv_calls) == 1
        err = capsys.readouterr().err
        assert err.startswith("note: refitting the blinded model: stored blinded fit is malformed")
        assert len(err.splitlines()) == 1
        fresh = private_ws / "fresh"
        assert main(["sweep", "--manifest", man, "--out", str(fresh)]) == 0
        for f in _outputs(fresh):
            assert (out / f.name).read_bytes() == f.read_bytes(), f.name

    def test_calibrate_draws_each_n_once_and_matches_a_fresh_directory(
        self, private_ws, monkeypatch
    ):
        with open(private_ws / "run.ini", "a") as fh:
            fh.write("\n[calibrate]\nn_grid = 100, 300\n")
        man, out = _man(private_ws), private_ws / "out"
        for cmd in ("blind", "inject", "sweep", "fit"):
            _new_process()
            assert main([cmd, "--manifest", man]) == 0
        _new_process()
        draws = counting(monkeypatch, anomaly, "_draw_table")
        assert main(["calibrate", "--manifest", man]) == 0
        assert sorted(args[0].n_counties for args in draws) == [100, 300]
        assert not (out / "mc_null").exists()
        fresh = private_ws / "fresh"
        _new_process()
        assert main(["calibrate", "--manifest", man, "--out", str(fresh)]) == 0
        assert (out / "calibration.csv").read_bytes() == (fresh / "calibration.csv").read_bytes()


class TestIngest:
    @staticmethod
    def _inputs(tmp_path):
        """Three-county inputs and a manifest for them; returns the manifest path."""
        (tmp_path / "dp02.csv").write_text(
            "fips,Geographic Area Name,pct_x,pct_x MOE\n"
            "01001,Autauga,21.5,1.1\n13121,Fulton,44.3,0.9\n42003,Allegheny,35.1,1.0\n"
        )
        (tmp_path / "e2020.csv").write_text(
            "fips,rep_votes,dem_votes\n01001,19838,7503\n13121,137240,380212\n42003,282913,429065\n"
        )
        (tmp_path / "e2016.csv").write_text(
            "fips,rep_votes,dem_votes\n01001,18172,5936\n13121,117783,297051\n42003,259480,367617\n"
        )
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            "[run]\nout_dir = out\n\n[inputs]\ndp02 = dp02.csv\n"
            "election_2020 = e2020.csv\nelection_2016 = e2016.csv\n"
        )
        return manifest

    def test_happy_path(self, tmp_path, capsys):
        manifest = self._inputs(tmp_path)
        assert main(["ingest", "--manifest", str(manifest)]) == 0
        ds = load_dataset(tmp_path / "out" / "dataset.csv")
        assert ds.n == 3
        assert "share_2016" in ds.feature_names
        report = json.loads((tmp_path / "out" / "cleaning_report.json").read_text())
        assert report["manifest_sha256"] == manifest_hash(manifest)
        assert any(
            d["column"] == "pct_x MOE" for d in report["dropped_moe_columns"]
        )
        text = capsys.readouterr().out
        assert "counties: 3" in text

    def test_writes_dataset_cache(self, tmp_path, monkeypatch):
        assert main(["ingest", "--manifest", str(self._inputs(tmp_path))]) == 0
        _assert_cache_matches_csv(tmp_path / "out", monkeypatch)

    def test_writes_the_manifest_dataset_path(self, tmp_path, capsys):
        manifest = self._inputs(tmp_path)
        with open(manifest, "a") as fh:
            fh.write("\n[data]\ndataset = data/counties.csv\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 0
        assert load_dataset(tmp_path / "data" / "counties.csv").n == 3
        assert not (tmp_path / "out" / "dataset.csv").exists()
        assert f"wrote {tmp_path / 'data' / 'counties.csv'}" in capsys.readouterr().out

    def test_alaska_only_input_exits_2(self, tmp_path, capsys):
        (tmp_path / "dp02.csv").write_text("fips,pct_x\n02013,1.0\n02016,2.0\n")
        (tmp_path / "e2020.csv").write_text(
            "fips,rep_votes,dem_votes\n02013,10,20\n02016,30,15\n"
        )
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            "[run]\nout_dir = out\n\n[inputs]\ndp02 = dp02.csv\nelection_2020 = e2020.csv\n"
        )
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert "no counties left" in capsys.readouterr().err


def test_synth_with_out_writes_the_dataset_fit_reads(private_ws):
    """[data] dataset names where synth writes and fit reads, whatever --out is."""
    man, o3 = _man(private_ws), private_ws / "o3"
    manifest = private_ws / "run.ini"
    manifest.write_text(manifest.read_text().replace("seed = 11", "seed = 5"))
    assert main(["synth", "--manifest", man, "--out", str(o3)]) == 0
    assert not (o3 / "dataset.csv").exists()
    assert main(["fit", "--manifest", man, "--out", str(o3)]) == 0
    expected, _ = generate_synthetic(load_manifest(man).synth)
    shares = dict(zip((k.fips for k in expected.keys), expected.shares().tolist()))
    scored = json.loads((o3 / "scores.json").read_text())["counties"]
    assert len(scored) == expected.n
    assert all(c["actual_share"] == shares[c["fips"]] for c in scored)


def test_without_data_section_synth_writes_the_dataset_fit_reads(tmp_path):
    """Without [data] dataset, both commands use <out>/dataset.csv."""
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        "[run]\nout_dir = out\n\n[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n\n"
        "[cv]\nl1_grid = 1.0\nn_alphas = 5\n\n[mc]\ntrials = 1000\n"
    )
    assert main(["synth", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "out" / "dataset.csv").exists()
    assert main(["fit", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "out" / "ranking.csv").exists()


def test_relative_out_is_taken_from_the_working_directory(tmp_path, monkeypatch):
    """--out, as any command-line path, is relative to the working directory;
    paths inside the manifest stay relative to the manifest."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "run.ini").write_text(
        "[data]\ndataset = data.csv\n\n[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--manifest", "sub/run.ini", "--out", "relout"]) == 0
    assert (tmp_path / "relout" / "true_coefficients.json").exists()
    assert (tmp_path / "sub" / "data.csv").exists()
    assert not (tmp_path / "sub" / "relout").exists()


class TestExitCodes:
    def test_missing_manifest_is_2(self, capsys):
        assert main(["fit", "--manifest", "/does/not/exist.ini"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_manifest_that_is_a_directory_is_2(self, tmp_path, capsys):
        assert main(["fit", "--manifest", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read manifest {tmp_path}: ")

    def test_manifest_that_is_not_utf8_is_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.ini"
        manifest.write_bytes(b"[run]\nout_dir = out\n# \xff\n")
        assert main(["fit", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == f"config error: manifest {manifest} is not UTF-8 at byte 22\n"

    def test_input_table_that_is_a_directory_is_3(self, tmp_path, capsys):
        (tmp_path / "dp02.csv").mkdir()
        (tmp_path / "e.csv").write_text("fips,rep_votes,dem_votes\n01001,1,2\n")
        manifest = tmp_path / "run.ini"
        manifest.write_text("[inputs]\ndp02 = dp02.csv\nelection_2020 = e.csv\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 3
        assert f"data error: input file not found: {tmp_path / 'dp02.csv'}" in capsys.readouterr().err

    def test_dataset_that_is_a_directory_is_3(self, tmp_path, capsys):
        (tmp_path / "dataset.csv").mkdir()
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = dataset.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert f"data error: dataset file not found: {tmp_path / 'dataset.csv'}" in capsys.readouterr().err

    @pytest.mark.parametrize("cache", ["no_cache", "cache_of_the_short_csv"])
    def test_dataset_short_of_its_county_count_is_3(self, tmp_path, capsys, cache):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, n_features=4, n_active=2))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path, cache_dir=tmp_path / "out" / "dataset_cache")
        data = path.read_bytes()
        path.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])  # the last county's row deleted
        if cache == "cache_of_the_short_csv":
            # stamped with the pair's digest, as a cache written from the
            # 59 rows, before the county count was checked, would be
            ingest._write_cache(
                tmp_path / "out" / "dataset_cache" / "dataset.npz", dataset_sha256(path),
                ds.subset(range(59)),
            )
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = dataset.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path} holds 59 counties, but {tmp_path / 'dataset_meta.json'} "
            "states n_counties 60\n"
        )

    def test_fit_without_a_dataset_is_3(self, tmp_path, capsys):
        # without [data], the dataset is <out>/dataset.csv, which is not there
        manifest = tmp_path / "run.ini"
        manifest.write_text("[run]\nout_dir = out\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert "data error: dataset file not found" in capsys.readouterr().err

    def test_empty_out_is_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "run.ini"
        manifest.write_text("[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n")
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--manifest", str(manifest), "--out", ""]) == 2
        assert capsys.readouterr().err == "config error: --out must name a directory, got ''\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    def test_missing_dataset_file_is_3(self, tmp_path, capsys):
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = nowhere.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_ragged_input_is_3(self, tmp_path, capsys):
        (tmp_path / "dp02.csv").write_text("fips,a,b\n01001,1,2\n13121,3\n")
        (tmp_path / "e2020.csv").write_text("fips,rep_votes,dem_votes\n01001,1,2\n")
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            "[inputs]\ndp02 = dp02.csv\nelection_2020 = e2020.csv\n"
        )
        assert main(["ingest", "--manifest", str(manifest)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_input_is_3(self, tmp_path, capsys):
        manifest = TestIngest._inputs(tmp_path)
        path = tmp_path / "e2020.csv"
        offset = path.stat().st_size + len("13013,Synth ")
        with open(path, "ab") as fh:
            fh.write(b"13013,Synth \xff County,1,2\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 3
        assert f"e2020.csv: not UTF-8 at byte {offset}" in capsys.readouterr().err

    def test_non_utf8_dataset_is_3(self, private_ws, capsys):
        path = private_ws / "out" / "dataset.csv"
        offset = path.stat().st_size + len("13999,GA,")
        with open(path, "ab") as fh:
            fh.write(b"13999,GA,\xff County,1,2\r\n")
        assert main(["fit", "--manifest", _man(private_ws)]) == 3
        assert f"dataset.csv: not UTF-8 at byte {offset}" in capsys.readouterr().err

    def test_broken_dataset_is_3_despite_older_cache(self, private_ws, capsys):
        man, out = _man(private_ws), private_ws / "out"
        load_dataset(out / "dataset.csv", cache_dir=out / "dataset_cache")
        assert (out / "dataset_cache" / "dataset.npz").exists()
        path = out / "dataset.csv"
        path.write_text(path.read_text() + "13999,GA,Ragged County,1,2\n")
        assert main(["fit", "--manifest", man]) == 3
        line = path.read_bytes().count(b"\n")  # the appended row, the last line
        assert f"dataset.csv: line {line} has 5 cells, header has" in capsys.readouterr().err

    def test_degenerate_features_is_4(self, tmp_path, capsys):
        from tamperscan.ingest import dataset_sha256, save_dataset

        rows = [
            (f"13{2 * i + 1:03d}", "GA", f"C{i}", [1.0, 1.0], (i + 5, 10))
            for i in range(12)
        ]
        ds = make_dataset(rows)
        save_dataset(ds, tmp_path / "flat.csv")
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = flat.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 4
        assert "numerical error" in capsys.readouterr().err

    def test_sweep_state_outside_eval_set_is_2_before_any_work(
        self, private_ws, monkeypatch, capsys
    ):
        from tamperscan import cli

        manifest = private_ws / "run.ini"
        manifest.write_text(manifest.read_text().replace("\nstates = GA\n", "\nstates = GA, TX\n"))
        hashes = counting(monkeypatch, cli, "dataset_sha256")
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "[sweep] state TX is not in [blind] eval_states" in capsys.readouterr().err
        assert cv_calls == [] and hashes == []
        assert list((private_ws / "out").glob("sweep_*")) == []

    def test_injection_outside_eval_set_is_2_before_any_work(
        self, private_ws, monkeypatch, capsys
    ):
        manifest = private_ws / "run.ini"
        ds = load_dataset(private_ws / "out" / "dataset.csv")
        tx = next(k.fips for k in ds.keys if k.state == "TX")
        manifest.write_text(re.sub(r"\nfips = \d+\n", f"\nfips = {tx}\n", manifest.read_text()))
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        draws = counting(monkeypatch, anomaly, "_draw_table")
        assert main(["inject", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"injection county {tx} is not in the evaluation set" in err
        assert cv_calls == [] and draws == []

    @pytest.mark.parametrize(
        "cmd, edit, code, message",
        [
            ("blind", (r"\ntrials = 20000\n", "\ntrials = 10\n"), 2,
             "config error: [mc] need at least 1000 trials for a p-value, got 10"),
            ("sweep", (r"\nstates = GA\n", "\nstates = GA\nk_step = 0\n"), 2,
             "config error: [sweep] k_step must be at least 1, got 0"),
            ("inject", (r"\nk = 40000\n", "\nk = 100000000\n"), 3,
             "data error: cannot flip 100000000 Republican votes in county"),
            ("blind", (r"\nl1_grid = .*\n", "\nl1_grid = 1.5\n"), 2,
             "config error: [cv] l1_grid values must be in (0, 1], got 1.5\n"),
            ("blind", (r"\nl1_grid = .*\n", "\nl1_grid = 0\n"), 2,
             "config error: [cv] l1_grid values must be in (0, 1], got 0.0\n"),
            ("blind", (r"\nn_alphas = 20\n", "\nn_alphas = 20\nfolds = 1\n"), 2,
             "config error: [cv] folds must be at least 2, got 1\n"),
            ("blind", (r"\nn_alphas = 20\n", "\nn_alphas = 0\n"), 2,
             "config error: [cv] n_alphas must be at least 1, got 0\n"),
            ("inject", (r"\ndirection = .*\n", "\ndirection = sideways\n"), 2,
             "config error: [injection] direction must be R_to_D or D_to_R, got 'sideways'\n"),
            ("inject", (r"\nk = 40000\n", "\nk = -5\n"), 2,
             "config error: [injection] flip count k must be non-negative, got -5\n"),
            ("inject", (r"\nfips = \d+\n", "\nfips = 1300x\n"), 2,
             "config error: [injection] invalid FIPS code '1300x'\n"),
            ("blind", (r"\neval_states = ", "\neval_states = TX, "), 2,
             "config error: [blind] states in both train and eval sets: ['TX']\n"),
            ("inject", (r"\neval_states = .*\n", "\n"), 2,
             "config error: [blind] train and eval state sets must both be non-empty\n"),
            ("sweep", (r"\nstates = GA\n", "\nstates = GA, TX\n"), 2,
             "config error: [sweep] state TX is not in [blind] eval_states\n"),
        ],
        ids=["trials", "k_step", "k", "l1_above_1", "l1_zero", "one_fold", "no_alphas",
             "direction", "negative_k", "fips", "blind_overlap", "blind_one_sided",
             "sweep_state"],
    )
    def test_bad_request_fails_before_any_work(
        self, private_ws, monkeypatch, capsys, cmd, edit, code, message
    ):
        from tamperscan import cli

        manifest = private_ws / "run.ini"
        text, edits = re.subn(*edit, manifest.read_text())
        assert edits == 1
        manifest.write_text(text)
        hashes = counting(monkeypatch, cli, "dataset_sha256")
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        draws = counting(monkeypatch, anomaly, "_draw_table")
        assert main([cmd, "--manifest", str(manifest)]) == code
        assert cv_calls == [] and draws == []
        if code == 2:
            assert hashes == []  # rejected when the manifest loads
        assert capsys.readouterr().err.startswith(message)

    def test_threads_below_one_is_2(self, workspace, tmp_path, capsys):
        argv = ["fit", "--manifest", _man(workspace), "--out", str(tmp_path), "--threads", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: --threads must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("cv", "l1_grid", "0.5, abc"), ("calibrate", "z_grid", "3, x"),
            ("calibrate", "n_grid", "100, 3.5"), ("calibrate", "n_grid", "0, 100"),
            ("calibrate", "n_grid", "100, -3"), ("calibrate", "z_grid", "3, nan"),
            ("calibrate", "z_grid", "inf"), ("cv", "eps", "0"), ("cv", "tol", "0"),
            ("cv", "tol", "-1"), ("cv", "tol", "nan"), ("cv", "max_iter", "0"),
        ],
    )
    def test_bad_grid_value_is_2(self, workspace, tmp_path, monkeypatch, capsys, section, key, value):
        def no_cv(*args, **kwargs):
            raise AssertionError("cross_validate ran on a bad manifest")

        monkeypatch.setattr(elastic_net, "cross_validate", no_cv)
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[data]\ndataset = {workspace / 'out' / 'dataset.csv'}\n\n[{section}]\n{key} = {value}\n"
        )
        assert main(["fit", "--manifest", str(manifest)]) == 2
        assert f"config error: [{section}] {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, repeated",
        [
            ("sweep", "states", "GA, GA", "'GA'"), ("blind", "train_states", "al, TX, AL", "'AL'"),
            ("blind", "eval_states", "GA, MI, GA", "'GA'"), ("cv", "l1_grid", "1.0, 0.5, 1", "1.0"),
            ("calibrate", "z_grid", "3, 5, 3.0", "3.0"), ("calibrate", "n_grid", "100, 100", "100"),
        ],
    )
    def test_repeated_list_entry_is_2(
        self, workspace, tmp_path, monkeypatch, capsys, section, key, value, repeated
    ):
        # a repeat would sweep a state twice or run every fold's path twice
        cv_calls = counting(monkeypatch, elastic_net, "cross_validate")
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[data]\ndataset = {workspace / 'out' / 'dataset.csv'}\n\n[{section}]\n{key} = {value}\n"
        )
        assert main(["fit", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {key} repeats {repeated}\n"
        assert cv_calls == []

    def test_bad_synth_value_is_2_and_names_its_section(self, tmp_path, capsys):
        cases = {
            ("n_active", "9"): "n_active exceeds n_features",
            ("n_active", "-1"): "n_active must be non-negative, got -1",
            ("noise_sd", "nan"): "noise_sd must be finite and non-negative, got nan",
            ("noise_sd", "inf"): "noise_sd must be finite and non-negative, got inf",
            ("noise_sd", "-0.1"): "noise_sd must be finite and non-negative, got -0.1",
            ("n_counties", "11000"):
                "n_counties must be at most 10,989 (11 states x 999 county codes), got 11000",
        }
        manifest = tmp_path / "run.ini"
        for (key, value), message in cases.items():
            settings = {"n_counties": "60", "n_features": "4", "n_active": "2", key: value}
            manifest.write_text("[synth]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
            assert main(["synth", "--manifest", str(manifest)]) == 2, (key, value)
            assert capsys.readouterr().err == f"config error: [synth] {message}\n"
            assert not (tmp_path / "out").exists()
        manifest.write_text("[synth]\nn_counties = 10989\n")
        assert load_manifest(manifest).synth.n_counties == 10989

    def test_output_directory_that_cannot_be_made_is_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.ini"
        manifest.write_text("[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n")
        (tmp_path / "afile").write_text("")
        assert main(["synth", "--manifest", str(manifest), "--out", str(tmp_path / "afile")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create the output directory {tmp_path / 'afile'}: ")

    def test_dataset_directory_that_cannot_be_made_is_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.ini"
        (tmp_path / "afile").write_text("")
        manifest.write_text(
            "[run]\nout_dir = out\n\n[data]\ndataset = afile/x/dataset.csv\n\n"
            "[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n"
        )
        assert main(["synth", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot create the dataset's directory {tmp_path / 'afile' / 'x'}: "
        )

    def test_dataset_cache_that_cannot_be_made_is_2_for_fit(self, private_ws, capsys):
        cache = private_ws / "out" / "dataset_cache"
        cache.write_text("")
        assert main(["fit", "--manifest", _man(private_ws)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create the dataset cache directory {cache}: ")
        assert cache.read_text() == ""

    def test_dataset_cache_that_cannot_be_made_is_2_for_ingest(self, tmp_path, capsys):
        manifest = TestIngest._inputs(tmp_path)
        cache = tmp_path / "out" / "dataset_cache"
        cache.parent.mkdir()
        cache.write_text("")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create the dataset cache directory {cache}: ")
        assert sorted(p.name for p in cache.parent.iterdir()) == ["dataset_cache"]

    @pytest.mark.parametrize(
        "tally, message",
        [("-500,600", "has a negative vote count in 2020 (rep -500, dem 600)"),
         ("0,0", "has a zero two-party total in 2020 (rep 0, dem 0)")],
        ids=["negative", "zero_total"],
    )
    def test_bad_tally_in_the_dataset_is_3_and_names_the_county(
        self, tmp_path, capsys, tally, message
    ):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, n_features=4, n_active=2))
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = first.split(",")
        path.write_text(header + ",".join(cells[:3] + [tally] + cells[5:]) + "".join(rest))
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = dataset.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert capsys.readouterr().err == f"data error: county {cells[0]} {message}\n"

    def test_version_1_dataset_is_3(self, tmp_path, capsys):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, n_features=4, n_active=2))
        save_dataset(ds, tmp_path / "dataset.csv")
        meta_path = tmp_path / "dataset_meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "version": 1, "years": [2020]}))
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = dataset.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        assert f"{meta_path}: unsupported version 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("{not json", "not JSON"),
            ("[]", "not a dataset metadata file"),
            ({"target_year": None}, "target_year must be an integer, got None"),
            ({"target_year": "2020"}, "target_year must be an integer, got '2020'"),
            ({"n_counties": None}, "n_counties must be an integer, got None"),
            ({"n_counties": 60.0}, "n_counties must be an integer, got 60.0"),
            ({"feature_names": None}, "feature_names must be a list of strings"),
            ({"feature_names": "f0,f1,f2,f3"}, "feature_names must be a list of strings"),
            ({"feature_names": ["f0", 1, "f2", "f3"]}, "feature_names must be a list of strings"),
            ({"n_features": "4"}, "n_features must be an integer, got '4'"),
            ({"n_features": 5}, "n_features 5 is not len(feature_names)"),
        ],
        ids=["not_json", "not_an_object", "no_target_year", "text_target_year", "no_n_counties",
             "float_n_counties", "no_feature_names", "text_feature_names", "number_feature_name",
             "text_n_features", "wrong_n_features"],
    )
    def test_malformed_dataset_metadata_is_3_and_names_the_file(self, tmp_path, capsys, edit, message):
        # `edit` is the file's new text, or keys to replace (None: delete)
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, n_features=4, n_active=2))
        save_dataset(ds, tmp_path / "dataset.csv")
        meta_path = tmp_path / "dataset_meta.json"
        if not isinstance(edit, str):
            meta = {**json.loads(meta_path.read_text()), **edit}
            edit = json.dumps({k: v for k, v in meta.items() if v is not None})
        meta_path.write_text(edit)
        manifest = tmp_path / "run.ini"
        manifest.write_text("[data]\ndataset = dataset.csv\n")
        assert main(["fit", "--manifest", str(manifest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {meta_path}: {message}"), err

    @pytest.mark.parametrize("key", ["z_grid", "n_grid"])
    def test_empty_calibrate_grid_is_2_and_writes_nothing(self, tmp_path, capsys, key):
        manifest = tmp_path / "run.ini"
        manifest.write_text(f"[calibrate]\n{key} = ,\n")
        assert main(["calibrate", "--manifest", str(manifest)]) == 2
        assert f"config error: [calibrate] {key} must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "out" / "calibration.csv").exists()

    @pytest.mark.parametrize("key", ["election_20x", "election_", "dp04"])
    def test_bad_input_key_is_2_before_any_file_is_read(self, tmp_path, monkeypatch, capsys, key):
        from tamperscan import cli

        (tmp_path / "dp02.csv").write_text("fips,a\n01001,1\n")
        (tmp_path / "e.csv").write_text("fips,rep_votes,dem_votes\n01001,1,2\n")
        manifest = tmp_path / "run.ini"
        manifest.write_text(f"[inputs]\ndp02 = dp02.csv\n{key} = e.csv\n")
        tables = counting(monkeypatch, cli, "parse_table")
        elections = counting(monkeypatch, cli, "parse_election")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert f"config error: unrecognized input key {key!r}" in capsys.readouterr().err
        assert tables == elections == []

    def test_unknown_input_key_is_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.ini"
        manifest.write_text("[inputs]\nmystery = x.csv\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert "unrecognized input key" in capsys.readouterr().err


def test_cli_import_loads_no_network_modules():
    code = (
        "import sys, tamperscan.cli; "
        "print(sorted(m for m in sys.modules "
        "if m in ('urllib.request', 'http.client', 'ssl') or m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_import_builds_no_kernel_and_loads_no_statistics():
    """The compiled kernels load on first use, and only their Python
    fallback imports statistics."""
    code = (
        "import sys, tamperscan.cli; from tamperscan import _kernels; "
        "print(_kernels.library.cache_info().misses, 'statistics' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 False\n"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# prints the variables named in argv as they stand when numpy is first imported
ENV_AT_NUMPY_IMPORT = """\
import importlib.abc, json, os, sys

seen = {}

class Recorder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in sys.argv[1:])
        return None

sys.meta_path.insert(0, Recorder())
import tamperscan
print(json.dumps(seen))
"""


def _blas_env_at_numpy_import(**set_vars):
    env = {k: v for k, v in _subprocess_env().items() if k not in BLAS_THREAD_VARS}
    done = subprocess.run(
        [sys.executable, "-c", ENV_AT_NUMPY_IMPORT, *BLAS_THREAD_VARS],
        env={**env, **set_vars}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_blas_runs_one_thread_from_numpys_first_import():
    """numpy's BLAS reads its thread count as numpy loads, so `import
    tamperscan` sets it to 1 before then."""
    assert _blas_env_at_numpy_import() == dict.fromkeys(BLAS_THREAD_VARS, "1")


def test_blas_thread_count_the_caller_set_is_kept():
    seen = _blas_env_at_numpy_import(OPENBLAS_NUM_THREADS="3")
    assert seen == {**dict.fromkeys(BLAS_THREAD_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demos_import_tamperscan_before_numpy(demo):
    """A demo that imported numpy first would run numpy's BLAS on one thread
    per CPU, not on the CLI's one."""
    tree = ast.parse(demo.read_text())
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    roots = [
        (a.name if isinstance(n, ast.Import) else n.module or "").split(".")[0]
        for n in sorted(nodes, key=lambda n: n.lineno)
        for a in n.names
    ]
    assert "tamperscan" in roots
    assert "numpy" not in roots[: roots.index("tamperscan")]


def test_fit_prints_non_ascii_names_under_an_ascii_locale(tmp_path):
    ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, n_features=4, n_active=2, seed=3))
    renamed = dataclasses.replace(
        ds, keys=tuple(dataclasses.replace(k, name=f"Do\xf1a Ana {k.fips}") for k in ds.keys)
    )
    save_dataset(renamed, tmp_path / "dataset.csv")
    (tmp_path / "run.ini").write_text(
        "[run]\nout_dir = out\n\n[data]\ndataset = dataset.csv\n\n"
        "[cv]\nl1_grid = 1.0\nn_alphas = 5\n\n[mc]\ntrials = 1000\n"
    )
    env = {**_subprocess_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = subprocess.run(
        [sys.executable, "-m", "tamperscan.cli", "fit", "--manifest", "run.ini"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode("ascii", "backslashreplace")
    assert b"Do\\xf1a Ana " in done.stdout


def test_commands_run_without_scipy(workspace, tmp_path):
    shutil.copyfile(workspace / "run.ini", tmp_path / "run.ini")
    commands = ("synth", "fit", "blind", "inject", "sweep", "calibrate")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from tamperscan.cli import main\n"
        "codes = [main([cmd, '--manifest', 'run.ini']) for cmd in sys.argv[1:]]\n"
        "print(codes)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *commands],
        cwd=tmp_path, env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([0] * len(commands)), done.stderr
