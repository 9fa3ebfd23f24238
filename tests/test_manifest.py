import hashlib
from pathlib import Path

import pytest

from tamperscan import ConfigError, Direction, InjectionSpec, load_manifest, manifest_hash
from tamperscan.cli import main

DEMO = Path(__file__).resolve().parents[1] / "demos" / "run2020.ini"

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
    def test_stable(self, full_manifest):
        assert manifest_hash(full_manifest) == manifest_hash(full_manifest)
        assert manifest_hash(full_manifest) == load_manifest(full_manifest).sha256

    def test_content_changes_hash(self, full_manifest, tmp_path):
        other = tmp_path / "other.ini"
        other.write_text(FULL.replace("trials = 5000", "trials = 6000"))
        assert manifest_hash(other) != manifest_hash(full_manifest)

    def test_cosmetic_overrides_do_not(self, full_manifest):
        # the stamp is what `sha256sum` prints for the file, wherever outputs go
        digest = hashlib.sha256(full_manifest.read_bytes()).hexdigest()
        assert manifest_hash(full_manifest) == digest
        for out in (None, "/somewhere/else", "relative"):
            assert load_manifest(full_manifest, out).sha256 == digest
