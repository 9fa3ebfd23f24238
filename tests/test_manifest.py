import ast
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tamperscan import (
    ConfigError,
    CvSettings,
    DataError,
    Direction,
    InjectionSpec,
    McNull,
    SyntheticSpec,
    load_manifest,
)
from tamperscan.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "run2020.ini"

FULL = """\
[run]
target_year = 2016
out_dir = results

[inputs]
dp02 = raw/dp02.csv
election_2016 = raw/e16.csv

[data]
dataset = results/dataset.csv

[cv]
l1_grid = 0.3, 1.0
n_alphas = 25
folds = 4
seed = 77

[mc]
trials = 5000
seed = 3

[blind]
train_states = TX, AL
eval_states = GA, PA

[injection]
fips = 13121
k = 2500
direction = D_to_R

[sweep]
states = GA, PA
k_step = 500

[synth]
n_counties = 40
n_features = 6
n_active = 2
noise_sd = 0.02
seed = 9

[calibrate]
z_grid = 2.0, 3.0
n_grid = 50, 100
"""


@pytest.fixture
def full_manifest(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL)
    return path


class TestLoadManifest:
    def test_all_sections(self, full_manifest, tmp_path):
        man = load_manifest(full_manifest)
        assert man.target_year == 2016
        assert man.out_dir == tmp_path / "results"
        assert man.inputs["dp02"] == tmp_path / "raw/dp02.csv"
        assert man.dataset_path == tmp_path / "results/dataset.csv"
        assert man.cv.l1_grid == (0.3, 1.0)
        assert man.cv.n_alphas == 25
        assert man.cv.folds == 4
        assert man.cv.seed == 77
        assert man.mc_trials == 5000
        assert man.mc_seed == 3
        assert man.train_states == ("TX", "AL")  # file order preserved
        assert man.eval_states == ("GA", "PA")
        assert man.injection == InjectionSpec("13121", 2500, Direction.D_TO_R)
        assert man.sweep_states == ("GA", "PA")
        assert man.sweep_k_step == 500
        assert man.synth.n_counties == 40
        assert man.synth.seed == 9
        assert man.calibrate_z == (2.0, 3.0)
        assert man.calibrate_n == (50, 100)

    def test_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[data]\ndataset = d.csv\n")
        man = load_manifest(path)
        assert man.target_year == 2020
        assert man.out_dir == tmp_path / "out"
        assert man.mc_trials == 100_000
        assert man.mc_seed == 0
        assert man.calibrate_z == (3.0, 4.0, 5.1, 5.3, 5.5)
        assert man.calibrate_n == (100, 381, 3112)
        assert man.synth is None
        assert man.injection is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_manifest(tmp_path / "nope.ini")

    def test_require_names_the_missing_section(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[run]\n")
        man = load_manifest(path)
        with pytest.raises(ConfigError, match=r"\[synth\]"):
            man.require("synth", "a [synth] section")

    def test_trials_and_out_overrides(self, full_manifest, tmp_path):
        full_manifest.write_text(FULL.replace("trials = 5000", "trials = 9999"))
        man = load_manifest(full_manifest, str(tmp_path / "elsewhere"))
        assert man.mc_trials == 9999
        assert man.out_dir == tmp_path / "elsewhere"

    def test_demo_injection(self):
        assert load_manifest(DEMO).injection == InjectionSpec("26163", 70000, Direction.R_TO_D)

    def test_bad_state_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[blind]\ntrain_states = TEX\neval_states = GA\n")
        with pytest.raises(ConfigError):
            load_manifest(path)

    def test_incomplete_injection(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[injection]\nfips = 13121\nk = 10\n")
        with pytest.raises(ConfigError, match="direction"):
            load_manifest(path)

    def test_too_few_trials_and_zero_k_step_rejected(self, full_manifest, tmp_path):
        # rejected when the manifest loads, so even commands that draw no MC
        # null (sweep) fail before any work
        full_manifest.write_text(FULL.replace("trials = 5000", "trials = 0"))
        with pytest.raises(ConfigError, match="at least 1000 trials"):
            load_manifest(full_manifest)
        path = tmp_path / "bad.ini"
        path.write_text("[sweep]\nk_step = 0\n")
        with pytest.raises(ConfigError, match="k_step must be at least 1, got 0"):
            load_manifest(path)

    def test_byte_order_mark_ignored(self, full_manifest, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + full_manifest.read_bytes())
        plain, bom = load_manifest(full_manifest), load_manifest(path)
        assert bom.target_year == 2016
        fields = [f for f in plain.__dataclass_fields__ if f not in ("path", "sha256")]
        assert [getattr(bom, f) for f in fields] == [getattr(plain, f) for f in fields]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("eps", "0", "eps must be in (0, 1), got 0.0"),
            ("eps", "1", "eps must be in (0, 1), got 1.0"),
            ("tol", "0", "tol must be a finite number above 0, got 0.0"),
            ("tol", "-1", "tol must be a finite number above 0, got -1.0"),
            ("tol", "nan", "tol must be a finite number above 0, got nan"),
            ("max_iter", "0", "max_iter must be at least 1, got 0"),
        ],
    )
    def test_out_of_range_cv_settings_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "bad.ini"
        path.write_text(f"[cv]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            load_manifest(path)
        assert str(err.value) == f"[cv] {message}"

    @pytest.mark.parametrize("value", [";", ";;", "\t", ", ,"])
    def test_delimiter_is_an_unrecognized_input_key(self, tmp_path, capsys, value):
        # inputs are comma-separated; a delimiter key is just an unknown input
        path = tmp_path / "run.ini"
        path.write_text(f"[inputs]\ndp02 = dp02.csv\nelection_2020 = e.csv\ndelimiter = {value}\n")
        assert not hasattr(load_manifest(path), "delimiter")
        assert main(["ingest", "--manifest", str(path)]) == 2
        assert "config error: unrecognized input key 'delimiter'" in capsys.readouterr().err

    def test_unparseable_ini(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("not an ini at all [[[")
        with pytest.raises(ConfigError):
            load_manifest(path)


class TestManifestHash:
    @staticmethod
    def _sha256(path):
        """What `sha256sum` prints for the file."""
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_stable(self, full_manifest):
        digest = self._sha256(full_manifest)
        assert load_manifest(full_manifest).sha256 == load_manifest(full_manifest).sha256 == digest

    def test_content_changes_hash(self, full_manifest, tmp_path):
        other = tmp_path / "other.ini"
        other.write_text(FULL.replace("trials = 5000", "trials = 6000"))
        assert load_manifest(other).sha256 != load_manifest(full_manifest).sha256

    def test_cosmetic_overrides_do_not(self, full_manifest):
        # the stamp is what `sha256sum` prints for the file, wherever outputs go
        digest = self._sha256(full_manifest)
        for out in (None, "/somewhere/else", "relative"):
            assert load_manifest(full_manifest, out).sha256 == digest


class TestStrictKeys:
    """Every key is one a read asks for, so a misspelt one cannot leave a
    default silently in force."""

    @pytest.mark.parametrize(
        "section, cls, text",
        [
            ("cv", CvSettings, ""),
            ("mc", McNull, ""),
            ("synth", SyntheticSpec, ""),
            ("injection", InjectionSpec, "fips = 13121\nk = 10\ndirection = R_to_D\n"),
        ],
    )
    def test_typed_section_keys_are_the_fields_of_its_type(self, tmp_path, section, cls, text):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{text}bogus = 1\n")
        with pytest.raises(ConfigError) as err:
            load_manifest(path)
        keys = ", ".join(sorted(f.name for f in dataclasses.fields(cls)))
        assert str(err.value) == f"[{section}] unknown key 'bogus' (keys: {keys})"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cv]\nn_alpha = 5\n", "[cv] unknown key 'n_alpha'"),
            ("[run]\nout_dir = out\noutdir = o\n", "[run] unknown key 'outdir' (keys: out_dir, target_year)"),
            ("[sweeep]\nstates = GA\n", "unknown section [sweeep]"),
            ("[Cv]\n", "unknown section [Cv]"),
            ("[DEFAULT]\nseed = 5\n\n[cv]\n", "[DEFAULT] seed: set each key in its own section"),
        ],
    )
    def test_unknown_key_section_or_default_key_is_an_error(self, tmp_path, text, message):
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_manifest(path)
        assert str(err.value).startswith(message)

    def test_run_out_dir_stays_a_key_under_the_out_override(self, tmp_path):
        # [run] out_dir is asked for even when --out replaces it
        path = tmp_path / "run.ini"
        path.write_text("[run]\nout_dir = out\n")
        assert load_manifest(path, str(tmp_path / "elsewhere")).out_dir == tmp_path / "elsewhere"

    def test_input_keys_are_left_to_ingest(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inputs]\nmystery = x.csv\n")
        assert load_manifest(path).inputs == {"mystery": tmp_path / "x.csv"}

    def test_percent_is_literal(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nout_dir = 100%\n\n[data]\ndataset = out/50%.csv\n\n[inputs]\ndp02 = %(x)s.csv\n")
        man = load_manifest(path)
        assert man.out_dir == tmp_path / "100%"
        assert man.dataset_path == tmp_path / "out" / "50%.csv"
        assert man.inputs["dp02"] == tmp_path / "%(x)s.csv"

    def test_counts_up_to_sys_maxsize_load(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            f"[cv]\nmax_iter = {sys.maxsize}\n\n[mc]\ntrials = {sys.maxsize}\n\n"
            f"[calibrate]\nn_grid = {sys.maxsize}\n"
        )
        man = load_manifest(path)
        assert man.cv.max_iter == man.mc_trials == sys.maxsize
        assert man.calibrate_n == (sys.maxsize,)


class TestInjectionSpec:
    def test_normalizes_its_fips_code_and_direction(self):
        assert InjectionSpec(" 1001", 5, "r_to_d") == InjectionSpec("01001", 5, Direction.R_TO_D)
        assert InjectionSpec("01001", 5, "D_to_R").direction is Direction.D_TO_R

    def test_rejects_an_invalid_fips_code(self):
        with pytest.raises(DataError, match="invalid FIPS code '１３１２１'"):
            InjectionSpec("１３１２１", 5, Direction.R_TO_D)


def _perfbench_manifests(tmp_path, monkeypatch):
    """The text of each perfbench workload's manifest, rendered as its run.py
    renders it: gen.manifest_text with the workload's CV settings and k_step.
    gen.py is loaded as a file and run.py only read, so nothing under
    perfbench/ runs beyond the rendering."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    workloads = next(
        node.value for node in run.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets)
    )
    names = ("dp02", "dp03", "dp05", "election_2016", "election_2020")
    inputs = gen.Inputs(tmp_path / "inputs", {k: tmp_path / "inputs" / f"{k}.csv" for k in names},
                        "13121", 1000, "R_to_D")
    texts = {}
    for name, call in zip(workloads.keys, workloads.values):
        settings = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
        texts[ast.literal_eval(name)] = gen.manifest_text(
            inputs, tmp_path / "rep", settings["cv"], 100_000, settings["k_step"]
        )
    return texts


def test_perfbench_manifests_load(tmp_path, monkeypatch):
    texts = _perfbench_manifests(tmp_path, monkeypatch)
    assert sorted(texts) == ["blind-chain", "ingest-scan"]
    for name, text in texts.items():
        path = tmp_path / "rep" / f"{name}.ini"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        man = load_manifest(path)
        assert set(man.inputs) == {"dp02", "dp03", "dp05", "election_2016", "election_2020"}
        assert man.injection == InjectionSpec("13121", 1000, Direction.R_TO_D)
        assert man.mc_trials == 100_000 and man.blind is not None
    assert load_manifest(tmp_path / "rep" / "ingest-scan.ini").sweep_k_step == 10
