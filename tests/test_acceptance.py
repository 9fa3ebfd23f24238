"""End-to-end acceptance checks.

One test per check, each ending in a single printed PASS line with the
measured numbers (visible with pytest -v -rA or -s). The checks against the
published 2020 county dataset run only when TAMPERSCAN_DATA_DIR points at a
directory containing the ingested dataset.csv; without it they skip. They
are never replaced with synthetic substitutes.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tamperscan import (
    BlindSpec,
    Direction,
    InjectionSpec,
    McConfig,
    PenaltyConfig,
    SyntheticSpec,
    analytic_sigma_curve,
    counterfactual_winner,
    cross_validate,
    fit,
    fit_width,
    generate_synthetic,
    global_significance_mc,
    inject_flips,
    load_dataset,
    objective,
    prepare_blind_context,
    residuals,
    score_counties,
    standardize,
    sweep,
    two_sided_p,
    unconstrained_counties,
)
from tamperscan import _kernels, elastic_net
from tamperscan.cli import main as cli_main
from tamperscan.scenarios import score_eval_set

from conftest import assert_monotone, replayed_objectives

DATA_DIR = os.environ.get("TAMPERSCAN_DATA_DIR", "")
needs_data = pytest.mark.skipif(
    not DATA_DIR,
    reason="published county dataset not available; set TAMPERSCAN_DATA_DIR",
)

# Texas plus the seventeen states that joined its 2020 suit against the four
# swing states. The defendant set is the four states themselves.
PLAINTIFF_STATES = frozenset(
    "TX MO AL AR FL IN KS LA MS MT NE ND OK SC SD TN UT WV".split()
)
DEFENDANT_STATES = frozenset("GA MI PA WI".split())


def _pass(label, detail):
    print(f"PASS {label}: {detail}")


def _fit_and_score(dataset, l1_grid=(0.5, 1.0), n_alphas=20):
    """Small-grid CV, final fit, analytic scoring of every county."""
    y = dataset.shares()
    cv = cross_validate(dataset.X, y, l1_grid=l1_grid, n_alphas=n_alphas)
    Xs, params = standardize(dataset.X, dataset.feature_names)
    model = fit(Xs, y, cv.selected, params)
    resid = residuals(model, dataset)
    scores = score_counties(resid, fit_width(resid))
    return model, resid, scores


def test_analytic_global_significance_values():
    _kernels.library()  # a first build of the kernels is not the computation timed here
    t0 = time.perf_counter()
    cases = [(5.5, 3.8), (5.3, 3.6), (5.1, 3.3)]
    got = analytic_sigma_curve([z for z, _ in cases], 3112).tolist()
    for (z, expect), sigma in zip(cases, got):
        assert abs(sigma - expect) <= 0.05, (z, sigma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(
        "analytic global significance",
        ", ".join(f"{z} -> {s:.3f}" for (z, _), s in zip(cases, got))
        + f" ({elapsed * 1000:.0f} ms)",
    )


def test_four_sigma_threshold_probability():
    t0 = time.perf_counter()
    p = two_sided_p(4.0)
    assert 6.0e-5 <= p <= 6.7e-5
    one_in = 1.0 / p
    assert 14_000 < one_in < 17_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass("4 sigma threshold", f"p = {p:.4g}, about 1 in {one_in:,.0f}")


def test_mc_matches_analytic_within_three_stderr():
    t0 = time.perf_counter()
    checked = []
    for n in (100, 381, 3112):
        cfg = McConfig(n_counties=n, trials=100_000, seed=0)
        zs = (3.0, 4.0, 5.0)
        for z, ana in zip(zs, analytic_sigma_curve(zs, n).tolist()):
            est = global_significance_mc(z, cfg)
            if est.bounded:
                # no trial reached z; the estimate already fell back to the
                # analytic value, which is the best that 1e5 trials can say
                assert est.sigma == ana
            else:
                assert abs(est.sigma - ana) <= 3.0 * est.sigma_stderr, (z, n)
            checked.append((z, n, est.sigma, ana))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    worst = max(checked, key=lambda c: abs(c[2] - c[3]))
    _pass(
        "MC vs analytic",
        f"9 (z, N) pairs at 1e5 trials, worst gap {abs(worst[2] - worst[3]):.3f} "
        f"sigma at z={worst[0]}, N={worst[1]} ({elapsed:.1f} s)",
    )


def test_solver_oracles():
    t0 = time.perf_counter()

    # alpha=0 against least squares on 20 random problems
    worst_rel = 0.0
    for i in range(20):
        rng = np.random.default_rng(i)
        X = rng.normal(size=(200, 20))
        beta_true = rng.normal(size=20)
        y = X @ beta_true + 0.1 * rng.normal(size=200) + 3.0
        Xs, params = standardize(X, [f"x{j}" for j in range(20)])
        model = fit(
            Xs, y, PenaltyConfig(alpha=0.0, l1_ratio=1.0), params,
            tol=1e-12, max_iter=20_000,
        )
        design = np.column_stack([np.ones(len(y)), Xs])
        ols = np.linalg.lstsq(design, y, rcond=None)[0]
        rel = np.max(np.abs(model.coefficients - ols[1:])) / np.max(np.abs(ols[1:]))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6, (i, rel)

    # one-feature closed form against brute-force grid minimization
    x = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
    xs, params = standardize(x[:, None], ["x"])
    y = np.array([0.9, -1.1, 2.2, -1.8, 0.4, -0.6])
    cfg = PenaltyConfig(alpha=0.3, l1_ratio=0.7)
    model = fit(xs, y, cfg, params, tol=1e-14)
    grid = np.linspace(-2.0, 2.0, 4_000_001)
    n = len(y)
    r = y - y.mean()
    losses = (
        0.5 * np.mean((r[:, None] - xs * grid[None, :]) ** 2, axis=0)
        + cfg.alpha * cfg.l1_ratio * np.abs(grid)
        + 0.5 * cfg.alpha * (1 - cfg.l1_ratio) * grid**2
    )
    best = grid[np.argmin(losses)]
    assert abs(model.coefficients[0] - best) <= 1e-6

    # objective never increases between sweeps of the production trajectory
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 15))
        y = X[:, 0] - 2 * X[:, 3] + 0.05 * rng.normal(size=120)
        Xs, params = standardize(X, [f"x{j}" for j in range(15)])
        penalty = PenaltyConfig(alpha=0.01, l1_ratio=0.5)
        losses, _ = replayed_objectives(Xs, y, penalty, 10_000)
        assert_monotone(losses)
        model = fit(Xs, y, penalty, params)
        assert len(losses) == model.training_meta["iterations"] + 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(
        "solver oracles",
        f"worst OLS gap {worst_rel:.2e} rel, 1-D brute force within 1e-6, "
        f"objective monotone ({elapsed:.1f} s)",
    )


def test_q_stays_g_beta_through_every_descent(monkeypatch):
    """The kernel keeps q = G.beta by updates: each move adds d G[j], and an
    accepted Anderson step takes the same combination of its iterates' q
    (or remakes q from beta, where the weights are large). Rounding may
    drift q from G.beta; at the end of every descent of a CV, the drift
    stays at rounding level."""
    t0 = time.perf_counter()
    bind = elastic_net._bind_descent
    seen = []

    def traced_bind(G, c, beta, q, tol, max_iter):
        run = bind(G, c, beta, q, tol, max_iter)

        def traced(penalty):
            out = run(penalty)
            drift = float(np.max(np.abs(q - G @ beta), initial=0.0))
            seen.append((drift, float(np.max(np.abs(G)) * np.abs(beta).sum()), out[2]))
            return out

        return traced

    monkeypatch.setattr(elastic_net, "_bind_descent", traced_bind)
    ds, _ = generate_synthetic(SyntheticSpec(n_counties=500, n_features=50, n_active=5, seed=7))
    rng = np.random.default_rng(11)
    factors = rng.normal(size=(600, 3))
    X_collinear = factors @ rng.normal(size=(3, 120)) + 0.05 * rng.normal(size=(600, 120))
    y_collinear = 0.5 + factors @ rng.normal(size=3) + 0.1 * rng.normal(size=600)
    for X, y in ((ds.X, ds.shares()), (X_collinear, y_collinear)):
        cross_validate(X, y, l1_grid=(0.1, 0.5, 1.0), n_alphas=30)
    drifts, scales, accepted = (np.array(v) for v in zip(*seen))
    assert np.all(drifts <= 1e-10 * scales + 1e-300)
    assert np.count_nonzero(accepted) > 0
    worst = int(np.argmax(drifts / np.maximum(scales, 1e-300)))
    _pass(
        "q drift",
        f"{len(drifts)} descents, {np.count_nonzero(accepted)} with accepted "
        f"extrapolations: largest |q - G.beta| {drifts.max():.2e}, "
        f"{drifts[worst] / scales[worst]:.2e} of max|G| |beta|_1 at worst "
        f"({time.perf_counter() - t0:.1f} s)",
    )


def test_synthetic_injection_detected_and_null_clean():
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_counties=500, n_features=50, n_active=5, noise_sd=0.01, seed=7
    )
    ds, _ = generate_synthetic(spec)

    # inject a share shift of 8x the noise SD into the biggest county that
    # has the Republican votes to give up
    totals = ds.rep + ds.dem
    for i in np.argsort(totals)[::-1]:
        k = int(round(8 * spec.noise_sd * totals[i]))
        if ds.rep[i] >= k:
            break
    target = ds.keys[int(i)].fips
    tampered = inject_flips(ds, InjectionSpec(fips=target, k=k, direction=Direction.R_TO_D))
    _, _, scores = _fit_and_score(tampered)
    top = max(scores, key=lambda s: abs(s.local_sigma))
    assert top.key.fips == target
    assert top.global_sigma >= 4.0

    # without injection the null stays below 4 sigma in at least 19/20 seeds
    exceed = 0
    for seed in range(20):
        null_ds, _ = generate_synthetic(
            SyntheticSpec(n_counties=500, n_features=50, n_active=5,
                          noise_sd=0.01, seed=seed)
        )
        _, _, null_scores = _fit_and_score(null_ds)
        if max(s.global_sigma for s in null_scores) >= 4.0:
            exceed += 1
    assert exceed <= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(
        "synthetic end to end",
        f"injected county ranked #1 at {top.global_sigma:.1f} sigma global, "
        f"{exceed}/20 null seeds above 4 sigma ({elapsed:.1f} s)",
    )


def test_sweep_monotone_and_injection_reversible():
    t0 = time.perf_counter()
    ds, _ = generate_synthetic(
        SyntheticSpec(n_counties=300, n_features=20, n_active=4, noise_sd=0.01, seed=11)
    )
    spec = BlindSpec(
        train_states=frozenset({"AL", "AZ", "CA", "CO", "MT", "TX", "WY"}),
        eval_states=frozenset({"GA", "MI", "PA", "WI"}),
    )
    ctx = prepare_blind_context(ds, spec)
    n_curves = 0
    for state in ("GA", "MI"):
        for curve in sweep(ds, spec, state, context=ctx):
            assert np.all(np.diff(curve.sigmas) >= -1e-12), curve.fips
            n_curves += 1
    assert n_curves > 0

    inj = InjectionSpec(fips=ds.subset_states(["GA"]).keys[0].fips, k=1234,
                        direction=Direction.R_TO_D)
    restored = inject_flips(inject_flips(ds, inj), replace(inj, direction=Direction.D_TO_R))
    assert np.array_equal(restored.rep, ds.rep)
    assert np.array_equal(restored.dem, ds.dem)
    assert np.array_equal(restored.X, ds.X)
    assert restored.keys == ds.keys

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(
        "sweep and conservation",
        f"{n_curves} curves monotone, inject/reverse bit-identical ({elapsed:.1f} s)",
    )


def test_cli_outputs_thread_invariant(tmp_path):
    t0 = time.perf_counter()
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        "[run]\ntarget_year = 2020\nout_dir = out\n\n"
        "[data]\ndataset = out/dataset.csv\n\n"
        "[synth]\nn_counties = 300\nn_features = 30\nn_active = 5\n"
        "noise_sd = 0.01\nseed = 11\n\n"
        "[cv]\nl1_grid = 0.5, 1.0\nn_alphas = 20\n\n"
        "[mc]\ntrials = 20000\nseed = 0\n\n"
        "[blind]\ntrain_states = AL, AZ, CA, CO, MT, TX, WY\n"
        "eval_states = GA, MI, PA, WI\n\n"
        "[sweep]\nstates = GA\n"
    )
    assert cli_main(["synth", "--manifest", str(manifest)]) == 0
    for cmd in ("fit", "sweep"):
        a, b = tmp_path / f"{cmd}_t1", tmp_path / f"{cmd}_t8"
        assert cli_main([cmd, "--manifest", str(manifest), "--out", str(a), "--threads", "1"]) == 0
        assert cli_main([cmd, "--manifest", str(manifest), "--out", str(b), "--threads", "8"]) == 0
        for f in sorted(p for p in a.iterdir() if p.is_file()):  # dataset_cache/ is a cache
            assert (b / f.name).read_bytes() == f.read_bytes(), (cmd, f.name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass("determinism", f"fit and sweep outputs byte-identical at 1 vs 8 threads ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# published-data reproductions


@pytest.fixture(scope="module")
def county_data():
    path = Path(DATA_DIR) / "dataset.csv"
    if not path.exists():
        pytest.skip(f"no dataset.csv under TAMPERSCAN_DATA_DIR ({DATA_DIR})")
    return load_dataset(path)


@pytest.fixture(scope="module")
def full_fit(county_data):
    ds = county_data
    cv = cross_validate(ds.X, ds.shares())
    Xs, params = standardize(ds.X, ds.feature_names)
    model = fit(Xs, ds.shares(), cv.selected, params)
    return cv, model, residuals(model, ds)


@pytest.fixture(scope="module")
def blind_setup(county_data):
    spec = BlindSpec(train_states=PLAINTIFF_STATES, eval_states=DEFENDANT_STATES)
    ctx = prepare_blind_context(county_data, spec)
    result = score_eval_set(ctx, county_data)
    return spec, ctx, result


@needs_data
def test_dataset_global_fit_quality(county_data, full_fit):
    cv, _, resid = full_fit
    assert county_data.n == 3112
    assert abs(resid.rms - 0.015) <= 0.002
    assert cv.selected.l1_ratio == 0.1
    assert 0.0008 <= cv.selected.alpha <= 0.0032
    _pass(
        "global fit",
        f"n={county_data.n}, rms={100 * resid.rms:.2f}%, "
        f"l1={cv.selected.l1_ratio}, alpha={cv.selected.alpha:.4g}",
    )


@needs_data
def test_dataset_top_anomalies(county_data, full_fit):
    _, _, resid = full_fit
    scores = score_counties(resid, fit_width(resid))
    ranked = sorted(scores, key=lambda s: -abs(s.local_sigma))
    expect = [("Starr", 10.4), ("Maverick", 8.7), ("Parmer", 6.6)]
    for s, (name, local) in zip(ranked, expect):
        assert name in s.key.name, (s.key.name, name)
        assert s.key.state == "TX"
        assert abs(abs(s.local_sigma) - local) <= 0.5
    assert abs(ranked[0].actual - 0.475) <= 0.005
    assert abs(ranked[0].predicted - 0.342) <= 0.010
    _pass(
        "top anomalies",
        ", ".join(f"{s.key.name} {s.local_sigma:+.1f}" for s in ranked[:3]),
    )


@needs_data
def test_dataset_blind_fit(county_data, blind_setup):
    _, ctx, result = blind_setup
    train_rms = residuals(ctx.model, county_data.subset_states(PLAINTIFF_STATES)).rms
    assert abs(train_rms - 0.015) <= 0.002
    assert abs(result.residuals.rms - 0.016) <= 0.002
    assert 0.00215 <= ctx.cv.selected.alpha <= 0.0086
    top = result.scores[0]
    assert "Rockdale" in top.key.name and top.key.state == "GA"
    assert abs(top.local_sigma - (-5.3)) <= 0.5
    _pass(
        "blind fit",
        f"train rms {100 * train_rms:.2f}%, eval rms {100 * result.residuals.rms:.2f}%, "
        f"alpha {ctx.cv.selected.alpha:.4g}, top {top.key.name} {top.local_sigma:+.1f}",
    )


@needs_data
def test_dataset_wayne_injection(county_data, blind_setup):
    _, ctx, _ = blind_setup
    inj = InjectionSpec(fips="26163", k=70_000, direction=Direction.R_TO_D)
    result = score_eval_set(ctx, inject_flips(county_data, inj))
    rank, s = result.rank_of("26163")
    assert "Wayne" in s.key.name and s.key.state == "MI"
    assert abs(s.residual - (-0.073)) <= 0.005
    assert abs(s.local_sigma - (-5.9)) <= 0.4
    assert abs(s.global_sigma - 4.8) <= 0.4
    _pass(
        "injection",
        f"Wayne residual {100 * s.residual:+.1f} pts, local {s.local_sigma:+.1f}, "
        f"global {s.global_sigma:.1f}, rank {rank}",
    )


@needs_data
def test_dataset_counterfactual_winners(county_data, blind_setup):
    _, ctx, _ = blind_setup
    expect = {"MI": "D", "WI": "D", "GA": "R", "PA": "R"}
    got = {
        st: counterfactual_winner(county_data, ctx.model, st).winner
        for st in sorted(expect)
    }
    assert got == expect
    _pass("counterfactuals", ", ".join(f"{st}->{w}" for st, w in sorted(got.items())))


@needs_data
def test_dataset_sweep_classifications(county_data, blind_setup):
    spec, ctx, _ = blind_setup
    t0 = time.perf_counter()
    unc = {}
    for state in sorted(DEFENDANT_STATES):
        curves = sweep(county_data, spec, state, context=ctx)
        unc[state] = unconstrained_counties(curves)
    assert unc["MI"] == []
    assert {n.split(",")[0].replace(" County", "") for n in unc["PA"]} == {
        "Philadelphia", "Allegheny"
    }
    assert {n.split(",")[0].replace(" County", "") for n in unc["WI"]} == {
        "Dane", "Milwaukee"
    }
    assert abs(len(unc["GA"]) - 19) <= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _pass(
        "sweep classifications",
        f"MI {len(unc['MI'])}, PA {len(unc['PA'])}, WI {len(unc['WI'])}, "
        f"GA {len(unc['GA'])} unconstrained ({elapsed:.0f} s)",
    )
