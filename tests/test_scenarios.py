import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from tamperscan import (
    BlindSpec,
    ConfigError,
    DataError,
    Direction,
    InjectionSpec,
    PenaltyConfig,
    SweepCurve,
    SyntheticSpec,
    counterfactual_winner,
    fit,
    generate_synthetic,
    inject_flips,
    prepare_blind_context,
    score_eval_set,
    standardize,
    state_summary,
    sweep,
    unconstrained_counties,
)
from tamperscan.anomaly import analytic_sigma_curve, residuals
from tamperscan.elastic_net import CvSettings
from tamperscan.scenarios import sweep_summary, write_sweep_csv

from conftest import make_dataset

FAST_CV = CvSettings(l1_grid=(0.5, 1.0), n_alphas=20)


@pytest.fixture(scope="module")
def synth():
    spec = SyntheticSpec(n_counties=300, n_features=20, n_active=4, noise_sd=0.01, seed=11)
    ds, _ = generate_synthetic(spec)
    return ds


@pytest.fixture(scope="module")
def blind_spec():
    return BlindSpec(
        train_states=frozenset({"AL", "AZ", "CA", "CO", "MT", "TX", "WY"}),
        eval_states=frozenset({"GA", "MI", "PA", "WI"}),
        cv=FAST_CV,
    )


@pytest.fixture(scope="module")
def context(synth, blind_spec):
    return prepare_blind_context(synth, blind_spec)


def _largest_eval_county(ds, ctx, state="GA"):
    sub = ds.subset_states([state])
    i = int(np.argmax(sub.rep + sub.dem))
    return sub.keys[i].fips


class TestDirection:
    def test_parse(self):
        assert Direction.parse("R_to_D") is Direction.R_TO_D
        assert Direction.parse(" d_TO_r ") is Direction.D_TO_R

    def test_parse_invalid(self):
        with pytest.raises(ConfigError):
            Direction.parse("sideways")


class TestBlindSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both"):
            BlindSpec(train_states={"GA", "TX"}, eval_states={"GA"})

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            BlindSpec(train_states=set(), eval_states={"GA"})

    def test_coerces_iterables(self):
        spec = BlindSpec(train_states=["TX", "AL"], eval_states=["GA"])
        assert spec.train_states == frozenset({"TX", "AL"})


class TestInjectFlips:
    def test_share_moves_by_exactly_k_over_t(self, six_county_dataset):
        ds = six_county_dataset
        out = inject_flips(ds, InjectionSpec("13001", 100, Direction.R_TO_D))
        i = out.index_of("13001")
        assert out.rep[i] == 500
        assert out.dem[i] == 500
        assert out.shares()[i] == 0.5
        j = ds.index_of("13001")
        assert out.rep[i] + out.dem[i] == ds.rep[j] + ds.dem[j]

    def test_d_to_r_mirror(self, six_county_dataset):
        out = inject_flips(six_county_dataset, InjectionSpec("13001", 100, Direction.D_TO_R))
        i = out.index_of("13001")
        assert out.rep[i] == 700
        assert out.dem[i] == 300

    def test_everything_else_untouched(self, six_county_dataset):
        ds = six_county_dataset
        out = inject_flips(ds, InjectionSpec("13001", 100, Direction.R_TO_D))
        i = ds.index_of("13001")
        mask = np.arange(ds.n) != i
        assert np.array_equal(out.rep[mask], ds.rep[mask])
        assert np.array_equal(out.dem[mask], ds.dem[mask])
        assert np.array_equal(out.X, ds.X)  # share_2016 included
        assert out.keys == ds.keys

    def test_zero_flips_is_identity(self, six_county_dataset):
        ds = six_county_dataset
        out = inject_flips(ds, InjectionSpec("13001", 0, Direction.R_TO_D))
        assert np.array_equal(out.rep, ds.rep)
        assert np.array_equal(out.dem, ds.dem)

    def test_reverse_restores_exactly(self, six_county_dataset):
        ds = six_county_dataset
        spec = InjectionSpec("42003", 1234, Direction.R_TO_D)
        back = inject_flips(inject_flips(ds, spec), replace(spec, direction=Direction.D_TO_R))
        assert np.array_equal(back.rep, ds.rep)
        assert np.array_equal(back.dem, ds.dem)

    def test_shortfall_names_county_and_deficit(self, six_county_dataset):
        with pytest.raises(DataError, match=r"13001.*short 100"):
            inject_flips(six_county_dataset, InjectionSpec("13001", 700, Direction.R_TO_D))

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            InjectionSpec("13001", -1, Direction.R_TO_D)

    def test_unknown_county(self, six_county_dataset):
        with pytest.raises(DataError, match="99999"):
            inject_flips(six_county_dataset, InjectionSpec("99999", 1, Direction.R_TO_D))


class TestStateSummary:
    def test_two_county_state(self):
        rows = [
            ("30001", "MT", "A", [1.0, 2.0], (10, 20)),
            ("30003", "MT", "B", [2.0, 1.0], (30, 15)),
        ]
        ds = make_dataset(rows)
        s = state_summary(ds, "MT")
        assert s.rep_total == 40 and s.dem_total == 35
        assert s.winner == "R"
        assert s.margin == 5

    def test_six_county_ga(self, six_county_dataset):
        s = state_summary(six_county_dataset, "GA")
        assert (s.rep_total, s.dem_total) == (1550, 950)
        assert s.winner == "R" and s.margin == 600

    def test_tie(self):
        rows = [
            ("30001", "MT", "A", [1.0, 2.0], (10, 20)),
            ("30003", "MT", "B", [2.0, 1.0], (20, 10)),
        ]
        ds = make_dataset(rows)
        assert state_summary(ds, "MT").winner == "tie"


class TestCounterfactual:
    def test_constant_half_model_ties_every_state(self, six_county_dataset):
        ds = six_county_dataset
        Xs, params = standardize(ds.X, ds.feature_names)
        # constant target: all coefficients shrink away, intercept is the mean
        model = fit(Xs, np.full(ds.n, 0.5), PenaltyConfig(alpha=1.0, l1_ratio=1.0), params)
        cf = counterfactual_winner(ds, model, "GA")
        assert cf.winner == "tie"
        assert cf.margin == pytest.approx(0.0, abs=1e-9)
        # county totals are preserved, only the split moves
        assert cf.rep_total + cf.dem_total == state_summary(ds, "GA").rep_total + state_summary(ds, "GA").dem_total


class TestBlindContext:
    def test_model_ignores_eval_state_tampering(self, synth, blind_spec, context):
        victim = _largest_eval_county(synth, context)
        tampered = inject_flips(synth, InjectionSpec(victim, 10_000, Direction.R_TO_D))
        ctx2 = prepare_blind_context(tampered, blind_spec)
        assert np.array_equal(ctx2.model.coefficients, context.model.coefficients)
        assert ctx2.model.intercept == context.model.intercept
        assert ctx2.cv.selected == context.cv.selected

    def test_missing_eval_states_fail_fast(self, synth):
        spec = BlindSpec(train_states={"TX", "CA"}, eval_states={"VT"}, cv=FAST_CV)
        with pytest.raises(ConfigError):
            prepare_blind_context(synth, spec)

    def test_training_meta_annotated(self, context, blind_spec):
        meta = context.model.training_meta
        assert meta["train_states"] == sorted(blind_spec.train_states)
        assert meta["eval_states"] == sorted(blind_spec.eval_states)
        assert meta["cv_seed"] == blind_spec.cv.seed
        assert meta["n_train"] > 0


class TestInjectionExperiment:
    """Injection is `inject_flips` then `score_eval_set` on the tampered data."""

    def test_big_injection_surfaces_the_county(self, synth, context):
        victim = _largest_eval_county(synth, context)
        base_rank, base_score = score_eval_set(context, synth).rank_of(victim)

        tampered = inject_flips(synth, InjectionSpec(victim, 40_000, Direction.R_TO_D))
        rank, injected = score_eval_set(context, tampered).rank_of(victim)
        assert rank < base_rank
        assert injected.local_sigma < base_score.local_sigma
        assert injected.residual < base_score.residual

    def test_context_fast_path_matches_full_run(self, synth, blind_spec, context):
        """The untampered context serves the tampered data: a context prepared
        on the tampered data has the same coefficients, intercept and CV grid,
        and scores identically."""
        victim = _largest_eval_county(synth, context)
        tampered = inject_flips(synth, InjectionSpec(victim, 25_000, Direction.R_TO_D))
        refit = prepare_blind_context(tampered, blind_spec)
        assert np.array_equal(refit.model.coefficients, context.model.coefficients)
        assert refit.model.intercept == context.model.intercept
        assert refit.cv == context.cv
        with_ctx = score_eval_set(context, tampered)
        refitted = score_eval_set(refit, tampered)
        assert with_ctx.rank_of(victim) == refitted.rank_of(victim)
        assert with_ctx.scores == refitted.scores
        assert with_ctx.width == refitted.width


@pytest.fixture(scope="module")
def ga_curves(synth, blind_spec, context):
    return sweep(synth, blind_spec, "GA", context=context)


class TestSweep:
    def test_eligibility_rule(self, synth, ga_curves):
        margin = int(round(state_summary(synth, "GA").margin))
        sub = synth.subset_states(["GA"])
        expected = set()
        for i, key in enumerate(sub.keys):
            if int(sub.rep[i]) > margin:
                expected.add((key.fips, Direction.R_TO_D))
            if int(sub.dem[i]) > margin:
                expected.add((key.fips, Direction.D_TO_R))
        assert {(c.fips, c.direction) for c in ga_curves} == expected
        assert len(ga_curves) > 0

    def test_sorted_and_grid_shape(self, synth, ga_curves):
        margin = int(round(state_summary(synth, "GA").margin))
        order = [(c.fips, c.direction.value) for c in ga_curves]
        assert order == sorted(order)
        step = max(1, margin // 50)
        sub = synth.subset_states(["GA"])
        for c in ga_curves:
            i = sub.index_of(c.fips)
            source = int(sub.rep[i] if c.direction is Direction.R_TO_D else sub.dem[i])
            ks = c.ks.tolist()
            assert ks[0] == 0
            assert ks[-1] == min(source, 2 * margin)
            interior = ks[:-1]
            assert all(b - a == step for a, b in zip(interior, interior[1:]))
            assert c.margin == margin
            assert c.flip_threshold == margin // 2 + 1

    def test_sigma_nondecreasing_everywhere(self, ga_curves):
        for c in ga_curves:
            assert np.all(np.diff(c.sigmas) >= -1e-12)
            assert np.all(c.sigmas >= 0.0)

    def test_k_detect_matches_manual_scan(self, ga_curves):
        hit = 0
        for c in ga_curves:
            first = next((k for k, s in zip(c.ks.tolist(), c.sigmas) if s >= 4.0), None)
            assert c.k_detect == first
            if first is not None:
                hit += 1
        assert hit > 0  # synthetic GA counties are detectable well before 2M

    def test_curve_matches_full_injection_rerun(self, synth, blind_spec, context, ga_curves):
        # curve points must equal what a from-scratch tampered scoring gives,
        # holding the baseline width (one-sided, tampering-direction tail)
        base = score_eval_set(context, synth)
        width = base.width.width
        n_eval = base.residuals.n
        for c in ga_curves[:2] + ga_curves[-2:]:
            for i in (1, len(c.ks) // 2):
                k, sigma = int(c.ks[i]), float(c.sigmas[i])
                tampered = inject_flips(synth, InjectionSpec(c.fips, k, c.direction))
                resid = residuals(context.model, tampered.subset_states(blind_spec.eval_states))
                j = [j for j, key in enumerate(resid.keys) if key.fips == c.fips][0]
                r = float(resid.residual[j])
                dev = max(0.0, -r) if c.direction is Direction.R_TO_D else max(0.0, r)
                expected = float(analytic_sigma_curve([dev / width], n_eval)[0])
                assert sigma == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_k_step_override(self, synth, blind_spec, context):
        curves = sweep(synth, blind_spec, "GA", k_step=50_000, context=context)
        ks = curves[0].ks.tolist()
        assert all(b - a == 50_000 for a, b in zip(ks[:-2], ks[1:-1]))

    def test_state_must_be_in_eval_set(self, synth, blind_spec, context):
        with pytest.raises(ConfigError, match="evaluation"):
            sweep(synth, blind_spec, "TX", context=context)

    def test_tied_state_rejected(self):
        rows = [
            ("30001", "MT", "A", [1.0, 2.0], (10, 20)),
            ("30003", "MT", "B", [2.0, 1.0], (20, 10)),
        ] + [
            (f"48{2 * i + 1:03d}", "TX", f"T{i}", [3.0 + i, (i * 7) % 5], (30 + 4 * i, 10 + i))
            for i in range(8)
        ]
        ds = make_dataset(rows)
        spec = BlindSpec(train_states={"TX"}, eval_states={"MT"}, cv=FAST_CV)
        ctx = prepare_blind_context(ds, spec)
        with pytest.raises(ConfigError, match="tied"):
            sweep(ds, spec, "MT", context=ctx)

    def test_bad_k_step(self, synth, blind_spec, context):
        with pytest.raises(ConfigError, match="k_step"):
            sweep(synth, blind_spec, "GA", k_step=0, context=context)


class TestSweepCurveInvariants:
    def _mk(self, ks, sigmas, k_detect, margin=1000):
        return SweepCurve(
            fips="13121", county="Fulton", state="GA",
            direction=Direction.R_TO_D, ks=ks, sigmas=sigmas,
            margin=margin, flip_threshold=margin // 2 + 1, k_detect=k_detect,
        )

    def test_decreasing_sigma_rejected(self):
        with pytest.raises(DataError, match="non-decreasing"):
            self._mk((0, 10), (1.0, 0.5), None)

    def test_non_increasing_k_rejected(self):
        with pytest.raises(DataError, match="increasing in k"):
            self._mk((0, 0), (0.1, 0.2), None)

    def test_equal_k_rejected_anywhere_in_the_curve(self):
        with pytest.raises(DataError, match="increasing in k"):
            self._mk((0, 10, 20, 20, 30), (0.0, 0.1, 0.2, 0.3, 0.4), None)

    def test_sigma_drop_tolerance_is_1e_12(self):
        self._mk((0, 10, 20, 30), (0.0, 1.0, 1.0 - 5e-13, 2.0), None)
        with pytest.raises(DataError, match="non-decreasing"):
            self._mk((0, 10, 20, 30), (0.0, 1.0, 1.0 - 2e-12, 2.0), None)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError, match="3 k values but 2 sigmas"):
            self._mk((0, 10, 20), (0.0, 1.0), None)

    def test_short_curves_accepted(self):
        assert self._mk((), (), None).ks.size == 0
        one = self._mk((5,), (1.0,), None)
        assert (one.ks.tolist(), one.sigmas.tolist()) == ([5], [1.0])

    def test_arrays_typed_and_read_only(self):
        c = self._mk([0, 10], [0.0, 1.5], None)
        assert (c.ks.dtype, c.sigmas.dtype) == (np.int64, np.float64)
        with pytest.raises(ValueError):
            c.ks[0] = 1
        with pytest.raises(ValueError):
            c.sigmas[0] = 1.0

    def test_unconstrained_conventions(self):
        margin = 1000
        undetected = self._mk((0, 2000), (0.0, 3.9), None, margin)
        assert undetected.unconstrained and undetected.unconstrained_literal

        late = self._mk((0, 1001), (0.0, 4.2), 1001, margin)
        assert late.unconstrained            # k_detect > margin
        assert late.unconstrained_literal    # k_detect > margin//2 + 1

        middle = self._mk((0, 700), (0.0, 4.2), 700, margin)
        assert not middle.unconstrained      # detected within the margin
        assert middle.unconstrained_literal  # but after the flip threshold

        early = self._mk((0, 400), (0.0, 4.2), 400, margin)
        assert not early.unconstrained and not early.unconstrained_literal

    def test_unconstrained_counties_union(self):
        a = self._mk((0, 2000), (0.0, 3.0), None)           # unconstrained
        b = SweepCurve(
            fips="13121", county="Fulton", state="GA",
            direction=Direction.D_TO_R, ks=(0, 500), sigmas=(0.0, 5.0),
            margin=1000, flip_threshold=501, k_detect=500,
        )
        c = SweepCurve(
            fips="13135", county="Gwinnett", state="GA",
            direction=Direction.R_TO_D, ks=(0, 500), sigmas=(0.0, 5.0),
            margin=1000, flip_threshold=501, k_detect=500,
        )
        assert unconstrained_counties([a, b, c]) == ["Fulton"]
        assert unconstrained_counties([c]) == []


TRICKY_COUNTIES = ("Doña Ana County", "Comma, County", 'Quote "Q" County')


def _tricky_curves():
    sigma_runs = (
        (0.0, 0.1 + 0.2, 1.2345678901234567, float("inf")),
        (0.0, 2.5, 2.5, 7.000000000000001),
        (0.0, 1 / 3, 4.0, 123456.78901234567),
    )
    return [
        SweepCurve(
            fips=f"3501{i}", county=county, state="NM", direction=direction,
            ks=(0, 7, 14, 17), sigmas=sigmas,
            margin=10, flip_threshold=6, k_detect=None,
        )
        for i, (county, sigmas) in enumerate(zip(TRICKY_COUNTIES, sigma_runs))
        for direction in Direction
    ]


class TestSweepExports:
    def test_csv_bytes_match_csv_writer_rows(self, tmp_path, kernel_path):
        curves = _tricky_curves()
        path = tmp_path / "sweep_NM.csv"
        write_sweep_csv(curves, path, comment="manifest_sha256=ff")

        # the reference: one csv.writer row per sample
        buf = io.StringIO(newline="")
        buf.write("# manifest_sha256=ff\n")
        writer = csv.writer(buf)
        writer.writerow(["fips", "county", "state", "direction", "k", "global_sigma"])
        for c in curves:
            for k, sigma in zip(c.ks.tolist(), c.sigmas.tolist()):
                writer.writerow([c.fips, c.county, c.state, c.direction.value, str(k), repr(sigma)])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert b"Do\xc3\xb1a" in path.read_bytes()

    def test_csv_and_summary(self, tmp_path, synth, blind_spec, context):
        curves = sweep(synth, blind_spec, "GA", k_step=100_000, context=context)
        path = tmp_path / "sweep_GA.csv"
        write_sweep_csv(curves, path, comment="manifest_sha256=ff")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest_sha256=ff"
        assert lines[1] == "fips,county,state,direction,k,global_sigma"
        assert len(lines) == 2 + sum(len(c.ks) for c in curves)
        # full-precision sigma round-trips through repr
        first = lines[2].split(",")
        assert float(first[-1]) == curves[0].sigmas[0]

        summary = sweep_summary(curves)
        assert set(summary) == {"GA"}
        entry = summary["GA"]
        assert entry["margin"] == curves[0].margin
        assert len(entry["curves"]) == len(curves)
        assert entry["unconstrained_count"] == len(entry["unconstrained_counties"])
