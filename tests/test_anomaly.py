import csv
import json
import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from tamperscan import (
    AnomalyScore,
    ConfigError,
    ConvergenceWarning,
    CountyKey,
    DataError,
    McConfig,
    McNull,
    NumericalError,
    Scoring,
    WidthFit,
    analytic_sigma_curve,
    fit_width,
    global_significance_mc,
    mc_extremes,
    rank_anomalies,
    score_counties,
    size_correlation,
    two_sided_p,
    write_ranking_csv,
    write_scores_json,
)
from tamperscan import _kernels, anomaly
from tamperscan.anomaly import ResidualSet
from tamperscan.data_model import substream

from conftest import have_compiler, make_dataset


def _analytic(z, n):
    """The analytic global sigma of one local z."""
    return float(analytic_sigma_curve([z], n)[0])


def _keys(n, state="GA", start=1):
    # GA prefix 13, odd county codes
    return [
        CountyKey(fips=f"13{start + 2 * i:03d}", state=state, name=f"County {i}")
        for i in range(n)
    ]


def _scalar_reference(local_z, n_counties, special):
    """The conversion one z at a time on scipy's erfc and ndtri (`special` is
    scipy.special), kept as an oracle for analytic_sigma_curve, which gives
    the standard library's bits."""
    z = abs(float(local_z))
    if n_counties == 1:
        return z
    p_local = float(special.erfc(z / np.sqrt(2.0)))
    if p_local == 0.0:
        return z
    with np.errstate(divide="ignore"):
        p_global = -np.expm1(n_counties * np.log1p(-p_local))
    return min(z, float(-special.ndtri(0.5 * p_global)) + 0.0)


def read_ranking_csv(path) -> list[dict]:
    """Parse a ranking export back into its formatted rows."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [dict(row) for row in csv.DictReader(lines)]


def _resid_from(values):
    values = np.asarray(values, dtype=float)
    return ResidualSet.build(_keys(len(values)), values, np.zeros(len(values)))


class TestFitWidth:
    def test_symmetric_pair_is_exact(self):
        # mean of squares of {-w, +w} is w^2; w = 0.25 is binary exact
        values = np.array([-0.25, 0.25] * 6)
        w = fit_width(_resid_from(values))
        assert w.width == 0.25
        assert w.n_used == 12

    def test_gaussian_sample_recovers_scale(self):
        draws = substream(99, 0).normal(0.0, 0.015, size=3112)
        w = fit_width(draws)
        # 3-sigma clipping trims the tails, biasing slightly low
        assert 0.0145 <= w.width <= 0.0155

    def test_outlier_barely_moves_width(self):
        draws = substream(101, 0).normal(0.0, 0.01, size=500)
        clean = fit_width(draws).width
        spiked = np.concatenate([draws, [0.1]])  # 10 widths out
        poisoned = fit_width(spiked).width
        assert abs(poisoned - clean) / clean < 0.02

    def test_clip_membership_rechecked_against_full_set(self):
        # values at exactly 2.9 widths stay in however the clip iterates
        base = np.array([-1.0, 1.0] * 20)
        w = fit_width(np.concatenate([base, [2.9]]))
        assert w.n_used == 41

    def test_warns_when_round_cap_reached(self, monkeypatch):
        # the outlier inflates round 1's width; round 2 drops it and settles
        values = np.array([-1.0, 1.0] * 10 + [100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_width(values).clip_iterations == 2
        monkeypatch.setattr(anomaly, "MAX_CLIP_ITERATIONS", 1)
        with pytest.warns(ConvergenceWarning, match="after 1 rounds"):
            assert fit_width(values).clip_iterations == 1

    def test_accepts_residual_set_or_array(self):
        values = np.array([-0.25, 0.25] * 6)
        assert fit_width(_resid_from(values)).width == fit_width(values).width

    def test_too_few_counties(self):
        with pytest.raises(DataError):
            fit_width(np.ones(9))

    def test_all_zero_is_degenerate(self):
        with pytest.raises(NumericalError):
            fit_width(np.zeros(20))


class TestTwoSidedP:
    def test_four_sigma(self):
        assert 6.0e-5 <= two_sided_p(4.0) <= 6.7e-5
        assert two_sided_p(4.0) == pytest.approx(6.334248366623973e-05, rel=1e-12)

    def test_zero_sigma(self):
        assert two_sided_p(0.0) == 1.0

    def test_sign_ignored(self):
        assert two_sided_p(-2.5) == two_sided_p(2.5)


class TestAnalyticGlobal:
    # frozen against an independent scipy.stats computation of
    # isf((1 - (1 - 2 sf(z))^N) / 2)
    @pytest.mark.parametrize(
        "z,n,expected",
        [
            (5.5, 3112, 3.8498627018196703),
            (5.3, 3112, 3.567565713719663),
            (5.1, 3112, 3.2750471535072845),
            (5.9, 381, 4.827159781526786),
            (3.0, 100, 1.1828121511596041),
            (4.0, 381, 2.2596118992983643),
            (2.0, 10, 0.8921895714013456),
        ],
    )
    def test_frozen_values(self, z, n, expected):
        assert _analytic(z, n) == pytest.approx(expected, abs=1e-9)

    def test_single_county_is_identity(self):
        for z in (0.0, 1.7, 4.2, 9.0):
            assert _analytic(z, 1) == z

    def test_sign_of_z_ignored(self):
        assert _analytic(-5.5, 3112) == _analytic(5.5, 3112)

    def test_monotone_in_z(self):
        # weakly monotone everywhere (sigma sits at exactly 0 while the
        # global p saturates at 1), strictly once it lifts off
        gs = analytic_sigma_curve(np.linspace(0.5, 8.0, 40), 500).tolist()
        assert all(b >= a for a, b in zip(gs, gs[1:]))
        lifted = [g for g in gs if g > 1e-6]
        assert len(lifted) > 10
        assert all(b > a for a, b in zip(lifted, lifted[1:]))

    def test_antitone_in_n(self):
        ns = [1, 2, 10, 100, 1000, 10_000]
        gs = [_analytic(4.5, n) for n in ns]
        assert all(b < a for a, b in zip(gs, gs[1:]))

    def test_never_exceeds_local(self):
        for z in (0.1, 2.0, 6.0, 15.0):
            for n in (1, 7, 3112):
                assert _analytic(z, n) <= z

    def test_extreme_z_saturates_to_local(self):
        # local tail underflows float64, correction is negligible
        assert _analytic(40.0, 3112) == 40.0

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            _analytic(3.0, 0)

    def test_curve_matches_scalar(self):
        special = pytest.importorskip("scipy.special")
        # 37.6-37.7 straddles the local tail's underflow at |z| = 37.68
        zs = np.concatenate([
            np.linspace(-9.0, 9.0, 1801), [0.0, 37.5, 38.5, 41.0, -41.0],
            np.linspace(37.6, 37.7, 101),
        ])
        for n in (1, 2, 100, 381, 1491, 3112, 10**6):
            curve = analytic_sigma_curve(zs, n)
            # each value is independent of the others in the array
            assert [_analytic(z, n) for z in zs[::50]] == curve[::50].tolist(), n
            # the scipy reference rounds differently: measured worst 3.5e-14
            # relative (|sigma| > 1e-3) and 2.2e-19 absolute (|sigma| <= 1e-3)
            reference = [_scalar_reference(z, n, special) for z in zs]
            np.testing.assert_allclose(curve, reference, rtol=5e-14, atol=1e-18, err_msg=str(n))


class TestMonteCarlo:
    def test_zero_z_has_global_p_one(self):
        cfg = McConfig(n_counties=50, trials=2000, seed=0)
        est = global_significance_mc(0.0, cfg)
        assert est.p_global == 1.0
        assert est.sigma == 0.0
        assert not est.bounded

    def test_agrees_with_analytic_within_three_stderr(self):
        cfg = McConfig(n_counties=100, trials=50_000, seed=0)
        for z in (2.5, 3.0, 3.5):
            est = global_significance_mc(z, cfg)
            ana = _analytic(z, 100)
            assert not est.bounded
            assert abs(est.sigma - ana) <= 3.0 * est.sigma_stderr

    def test_bounded_when_no_trial_reaches_z(self):
        cfg = McConfig(n_counties=20, trials=1000, seed=0)
        est = global_significance_mc(8.0, cfg)
        assert est.bounded
        assert est.p_global == 0.0
        # falls back to the analytic conversion instead of claiming p = 0
        assert est.sigma == pytest.approx(_analytic(8.0, 20), abs=1e-12)

    def test_table_deterministic_across_thread_counts(self):
        cfg = McConfig(n_counties=30, trials=5000, seed=7)
        anomaly._cached_table.cache_clear()
        t1 = mc_extremes(cfg, threads=1).copy()
        anomaly._cached_table.cache_clear()
        t4 = mc_extremes(cfg, threads=4)
        assert np.array_equal(t1, t4)

    @pytest.mark.parametrize("n", [1, 97, 381, 3112])
    def test_table_inverts_the_closed_form_cdf(self, n):
        """P(max|u| <= x) = (1 - erfc(x/sqrt 2))^N at every table entry gives
        back the sorted uniforms the table was drawn from."""
        cfg = McConfig(n_counties=n, trials=anomaly.DEFAULT_MC_TRIALS, seed=0)
        k = substream(cfg.seed, anomaly._MC_STREAM_BASE).integers(0, 2**52, size=cfg.trials)
        uniforms = np.sort((k + 0.5) * 2.0**-52)
        table = anomaly._draw_table(cfg)
        assert table[0] >= 0.0 and np.all(np.diff(table) >= 0.0)
        cdf = np.array([(1.0 - math.erfc(x / math.sqrt(2.0))) ** n for x in table])
        np.testing.assert_allclose(cdf, uniforms, rtol=1e-12, atol=0.0)

    def test_table_matches_explicit_normals(self):
        """Two-sample KS test of the table against max|u| over explicitly
        drawn rows of N normals."""
        stats = pytest.importorskip("scipy.stats")
        table = mc_extremes(McConfig(n_counties=100, trials=20_000, seed=0))
        brute = np.abs(substream(0, 0).standard_normal((20_000, 100))).max(axis=1)
        assert stats.ks_2samp(table, brute).pvalue > 0.01

    def test_table_cached(self):
        cfg = McConfig(n_counties=30, trials=5000, seed=7)
        a = mc_extremes(cfg)
        b = mc_extremes(cfg)
        assert a is b

    def test_seed_changes_table(self):
        a = mc_extremes(McConfig(n_counties=30, trials=5000, seed=1))
        b = mc_extremes(McConfig(n_counties=30, trials=5000, seed=2))
        assert not np.array_equal(a, b)

    def test_sigma_capped_at_local(self):
        # even if many trials sneak under a tiny z, sigma must not exceed |z|
        cfg = McConfig(n_counties=5, trials=2000, seed=0)
        est = global_significance_mc(0.3, cfg)
        assert est.sigma <= 0.3

    def test_trial_floor_enforced(self):
        with pytest.raises(ConfigError):
            McConfig(n_counties=10, trials=10)


def _neighbours(p, steps=64):
    """p and the `steps` floats on either side of it."""
    out = [p]
    down = up = p
    for _ in range(steps):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, 1.0)
        out += [down, up]
    return out


class TestSpecialFunctions:
    """The compiled erfc and normal quantile against their standard-library
    references, bit for bit, and the outputs built on them with and without
    the compiled library."""

    def test_quantile_bit_identical_to_the_standard_library(self, kernels):
        rng = np.random.default_rng(25)
        p = np.concatenate([
            rng.random(400_000),  # mostly |p - 0.5| <= 0.425
            # both tails; r > 5 once p < exp(-25), and the upper one runs through 1 - p
            10.0 ** -rng.uniform(0.0, 308.0, 200_000), 1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 100_000),
            rng.uniform(0.0, 0.075, 100_000), rng.uniform(0.925, 1.0, 100_000),
            np.exp(-rng.uniform(20.0, 30.0, 100_000)),  # around r = 5
            # the branch boundaries: |p - 0.5| = 0.425 and p = exp(-25)
            *map(_neighbours, (0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425, math.exp(-25.0))),
            _neighbours(1.0 - math.exp(-25.0)),
            # subnormal p, the smallest normal p, 1 - 2^-53 and p = 1/2
            rng.integers(1, 2**52, 10_000) * 2.0**-1074, [5e-324, 2.0**-1022],
            [1.0 - 2.0**-53, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
        ])
        p = p[(p > 0.0) & (p < 1.0)]
        assert p.size >= 10**6
        compiled = anomaly._normal_quantile(p)
        assert compiled.tobytes() == anomaly._normal_quantile_py(p).tobytes()
        assert anomaly._normal_quantile(np.array([0.5])).tobytes() == np.array([0.0]).tobytes()

    def test_erfc_bit_identical_to_the_standard_library(self, kernels):
        rng = np.random.default_rng(25)
        x = np.concatenate([
            np.linspace(-10.0, 30.0, 1_000_001), rng.uniform(-10.0, 30.0, 1_000_000),
            # the C library's breakpoints, 0 and the tail that underflows
            *map(_neighbours, (0.84375, 1.25, 2.857142857142857, 6.0, 26.5, 27.3, 28.0)),
            [0.0, -0.0, 5e-324, -5e-324],
        ])
        assert anomaly._erfc(x).tobytes() == anomaly._erfc_py(x).tobytes()

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0, 1.5, np.nan, -np.inf, np.inf])
    def test_quantile_outside_the_unit_interval_is_refused_on_both_paths(
        self, monkeypatch, compiled, bad
    ):
        calls = []
        fake = type("Kernels", (), {"normal_quantile": lambda *args: calls.append(args)})
        monkeypatch.setattr(_kernels, "library", lambda: fake if compiled else None)
        with pytest.raises(NumericalError, match=r"needs every p in \(0, 1\)"):
            anomaly._normal_quantile(np.array([0.25, bad]))
        assert calls == []

    def test_curves_and_mc_null_bit_equal_without_a_compiler(self, empty_kernel_cache, monkeypatch):
        z = np.concatenate([np.linspace(-9.0, 9.0, 3601), [0.0, 1e-300, 37.5, 38.5, 41.0]])

        def run():
            anomaly._cached_table.cache_clear()
            out = {}
            for n in (2, 381, 3112):
                config = McConfig(n_counties=n, trials=20_000, seed=n)
                counts, sigmas = anomaly._mc_sigmas(z, config)
                out[n] = (
                    analytic_sigma_curve(z, n).tobytes(),
                    anomaly._draw_table(config).tobytes(),
                    counts.tobytes(),
                    sigmas.tobytes(),
                )
            return out

        real_compiler = _kernels.compiler
        monkeypatch.setattr(_kernels, "compiler", lambda: ["tamperscan-no-such-cc"])
        python = run()
        assert _kernels.library() is None
        monkeypatch.setattr(_kernels, "compiler", real_compiler)
        _kernels.library.cache_clear()
        compiled = run()
        anomaly._cached_table.cache_clear()
        assert (_kernels.library() is not None) == have_compiler()
        assert compiled == python


class TestScoreCounties:
    def test_analytic_scores(self):
        values = [0.5, -0.25, 0.0, 0.125, -0.5, 0.25, 0.125, -0.125, 0.0, 0.125, 0.0, -0.125]
        resid = _resid_from(values)
        width = WidthFit(width=0.25, clip_iterations=1, n_used=12)
        scores = score_counties(resid, width)
        assert len(scores) == 12
        assert scores[0].local_sigma == 2.0
        assert scores[0].global_sigma == pytest.approx(
            _analytic(2.0, 12), abs=1e-12
        )

    @pytest.mark.parametrize("mc", [None, McNull(trials=2000, seed=3)])
    def test_matches_one_county_at_a_time(self, mc):
        """Converting the whole z vector at once gives, bit for bit, what one
        conversion per county gives."""
        r = substream(5, 0).standard_normal(400) * 0.02
        r[:3] = [0.3, -0.4, 0.5]  # beyond every MC trial
        resid = _resid_from(r)
        width = fit_width(resid)
        table = None if mc is None else mc_extremes(mc.config(400))
        scores = score_counties(resid, width, mc=mc)
        by_fips = {key.fips: float(ri) for key, ri in zip(resid.keys, r)}
        for s in scores:
            z = by_fips[s.key.fips] / width.width
            if mc is None:
                g, beyond = _analytic(z, 400), False
            else:
                count = int(table.size - np.searchsorted(table, abs(z), side="left"))
                beyond = count == 0
                if beyond:
                    g = _analytic(z, 400)
                else:
                    g = min(abs(z), -NormalDist().inv_cdf(0.5 * (count / mc.trials)) + 0.0)
            assert (s.local_sigma, s.global_sigma, s.beyond_mc_table) == (z, g, beyond)
        assert sum(s.beyond_mc_table for s in scores) == (0 if mc is None else 3)

    def test_mc_null_is_checked_when_scoring(self):
        """McNull holds any trial count; the McConfig built for the scored
        set's N rejects too few trials, as it always has."""
        resid = _resid_from([0.1] * 12)
        width = WidthFit(width=0.25, clip_iterations=1, n_used=12)
        mc = McNull(trials=10)
        assert McNull(trials=2000, seed=4).config(12) == McConfig(12, trials=2000, seed=4)
        with pytest.raises(ConfigError, match="at least 1000 trials"):
            score_counties(resid, width, mc=mc)

    def test_sorted_by_absolute_local_then_fips(self):
        values = [0.25, -0.5, 0.5, 0.0]
        resid = _resid_from(values)
        width = WidthFit(width=0.25, clip_iterations=1, n_used=4)
        ordered = score_counties(resid, width)
        assert [s.local_sigma for s in ordered] == [-2.0, 2.0, 1.0, 0.0]
        # |−2| ties |2|: lower fips first
        assert ordered[0].key.fips < ordered[1].key.fips

    def test_rank_of_is_one_based_and_rejects_unscored_counties(self):
        resid = _resid_from([0.25, -0.5, 0.5, 0.0])
        width = WidthFit(width=0.25, clip_iterations=1, n_used=4)
        scoring = Scoring(resid, width, tuple(score_counties(resid, width)))
        for rank, score in enumerate(scoring.scores, start=1):
            assert scoring.rank_of(score.key.fips) == (rank, score)
        with pytest.raises(DataError, match="99999 was not scored"):
            scoring.rank_of("99999")


class TestRanking:
    def _scores(self):
        values = [0.031, -0.052, 0.004, -0.0004]
        resid = _resid_from(values)
        width = WidthFit(width=0.01, clip_iterations=1, n_used=4)
        return score_counties(resid, width)

    def test_formatted_rows(self):
        rows = rank_anomalies(self._scores())
        assert rows[0]["local_sigma"] == "-5.2"
        assert rows[1]["local_sigma"] == "3.1"
        assert rows[0]["residual"] == "-5.2"       # percent, one decimal
        assert rows[0]["actual_share"] == "-5.2"   # actual is the raw value here

    def test_negative_zero_never_printed(self):
        rows = rank_anomalies(self._scores())
        tail = rows[-1]
        assert tail["residual"] == "-0.0" or tail["residual"] == "0.0"
        assert tail["residual"] == "0.0"

    def test_top_n(self):
        assert len(rank_anomalies(self._scores(), top_n=2)) == 2

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "ranking.csv"
        write_ranking_csv(self._scores(), path, comment="manifest_sha256=abc123")
        text = path.read_text()
        assert text.startswith("# manifest_sha256=abc123\n")
        rows = read_ranking_csv(path)
        assert rows == rank_anomalies(self._scores())

    def test_scores_json_full_precision(self, tmp_path):
        path = tmp_path / "scores.json"
        scores = self._scores()
        write_scores_json(scores, path, meta={"manifest_sha256": "abc"})
        doc = json.loads(path.read_text())
        assert doc["meta"]["manifest_sha256"] == "abc"
        by_fips = {row["fips"]: row for row in doc["counties"]}
        for s in scores:
            row = by_fips[s.key.fips]
            assert row["residual"] == s.residual          # exact, not rounded
            assert row["local_sigma"] == s.local_sigma
            assert row["global_sigma"] == s.global_sigma


    @staticmethod
    def _json_dump_bytes(scores, meta):
        """What json.dump(indent=2) and a newline write for these scores."""
        doc = {
            "format": "tamperscan-scores",
            "version": 1,
            "meta": meta,
            "counties": [
                {
                    "fips": s.key.fips, "county": s.key.name, "state": s.key.state,
                    "actual_share": s.actual, "predicted_share": s.predicted,
                    "residual": s.residual, "local_sigma": s.local_sigma,
                    "global_sigma": s.global_sigma, "beyond_mc_table": s.beyond_mc_table,
                }
                for s in scores
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize(
        "values",
        [
            [(0.1 + 0.2, 1 / 3, -0.0, 5.25, 4.0), (1e-300, 5e-324, 1e22, -123456.789, 0.0)],
            [],
        ],
        ids=["finite", "empty"],
    )
    def test_scores_json_bytes_match_json_dump(self, tmp_path, values):
        scores = self._named_scores(values)
        meta = {"manifest_sha256": "abc", "width": 0.012, "mc_trials": 100000, "note": "50% \"q\""}
        path = tmp_path / "scores.json"
        write_scores_json(scores, path, meta=meta)
        assert path.read_bytes() == self._json_dump_bytes(scores, meta)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_score_is_refused_before_the_file_opens(self, tmp_path, bad):
        # JSON has no NaN or infinity, and json.dump would write them as bare words
        scores = self._named_scores([(0.5, 0.25, 0.25, 1.0, 2.0), (0.5, 0.25, bad, 1.0, 2.0)])
        path = tmp_path / "scores.json"
        with pytest.raises(NumericalError, match="county 35003 has a non-finite score"):
            write_scores_json(scores, path)
        assert not path.exists()

    @staticmethod
    def _named_scores(values):
        names = ['Quote "Q" County', "Back\\slash 100% County", "Doña Ana ∑ County"]
        return [
            AnomalyScore(
                key=CountyKey(f"35{2 * i + 1:03d}", "NM", names[i % len(names)]),
                actual=a, predicted=p, residual=r, local_sigma=z, global_sigma=g,
                beyond_mc_table=i % 2 == 1,
            )
            for i, (a, p, r, z, g) in enumerate(values * 2)
        ]


class TestDiagnostics:
    def test_size_correlation_sign(self):
        rows = []
        # |residual| grows exactly with log total -> correlation 1
        totals = [10**3, 10**4, 10**5, 10**6]
        for i, t in enumerate(totals):
            rows.append(
                (
                    f"13{2 * i + 1:03d}", "GA", f"C{i}", [float(i), 0.5],
                    (t // 2, t - t // 2),
                )
            )
        ds = make_dataset(rows)
        resid = ResidualSet.build(
            ds.keys,
            actual=np.log10([t for t in totals]) / 100.0,
            predicted=np.zeros(4),
        )
        assert size_correlation(resid, ds) == pytest.approx(1.0, abs=1e-12)

    def test_size_correlation_needs_three(self):
        rows = [
            ("13001", "GA", "A", [1.0, 2.0], (10, 10)),
            ("13003", "GA", "B", [2.0, 3.0], (20, 20)),
        ]
        ds = make_dataset(rows)
        resid = ResidualSet.build(ds.keys, [0.1, 0.2], [0.0, 0.0])
        with pytest.raises(DataError):
            size_correlation(resid, ds)

    def test_size_correlation_constant_residuals(self):
        rows = [
            (f"13{2 * i + 1:03d}", "GA", f"C{i}", [float(i), 0.0], (10 * (i + 1), 10))
            for i in range(5)
        ]
        ds = make_dataset(rows)
        resid = ResidualSet.build(ds.keys, np.full(5, 0.3), np.zeros(5))
        with pytest.raises(NumericalError):
            size_correlation(resid, ds)
