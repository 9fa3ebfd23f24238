"""Command-line surface: batch analyses driven by a run manifest.

Subcommands: ingest | fit | blind | inject | sweep | calibrate | synth.
Every command reads one manifest, writes its outputs into the manifest's
output directory (each file stamped with the manifest hash), and prints a
short summary. Later commands reuse what earlier ones left in that
directory: `inject` and `sweep` load the blinded fit `blind` stored, and
every command reads the binary dataset copy in dataset_cache/ when it is
current. Each process draws its own MC null tables. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical failure.

`run` is the process entry, of the `tamperscan` script and of `python -m
tamperscan.cli`: once `main` has returned, it runs the exit handlers,
flushes stdout and stderr and ends the process with `os._exit`, skipping
the interpreter's teardown (module clearing and the final garbage
collections), which writes nothing. Every file a command writes is closed
inside `main`, and no command leaves a thread running. `main` itself
returns its code, so calling it in process is unaffected.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, anomaly, charts
from .anomaly import McNull, Scoring, residuals, score_model, size_correlation
from .data_model import (
    Dataset, csv_prefix, format_floats, generate_synthetic, open_csv, write_csv, write_json,
)
from .elastic_net import (
    MODEL_FORMAT_VERSION,
    cv_result_from_dict,
    cv_result_to_dict,
    fit_cv,
    model_from_dict,
    model_to_dict,
)
from .errors import ConfigError, DataError, NumericalError, TamperscanError
from .ingest import (
    SOURCE_IDS,
    assemble_dataset,
    clean_features,
    dataset_sha256,
    load_dataset,
    parse_election,
    parse_table,
    save_dataset,
)
from .manifest import RunManifest, load_manifest
from .scenarios import (
    DETECTION_SIGMA,
    BlindContext,
    BlindSpec,
    counterfactual_winner,
    inject_flips,
    prepare_blind_context,
    score_eval_set,
    state_summary,
    sweep,
    sweep_summary,
    write_sweep_csv,
)


@dataclasses.dataclass(frozen=True)
class Run:
    """What one command works with, set up once by `main`."""

    man: RunManifest
    out: Path            # the manifest's output directory, created
    mc: McNull           # the MC null every scoring uses
    comment: str         # the manifest-hash stamp every CSV output starts with
    dataset_cache: Path  # the binary copy of the dataset, kept for later commands on `out`

    def load(self) -> tuple[Dataset, str]:
        """The dataset at dataset_path and its dataset_sha256, hashed once per command.

        The dataset is read from the binary cache in dataset_cache when that
        is current, and otherwise parsed from the CSV and cached there.
        """
        path = self.man.dataset_path
        digest = dataset_sha256(path)
        _make_dir(self.dataset_cache, "the dataset cache directory")
        return load_dataset(path, cache_dir=self.dataset_cache, digest=digest), digest

    def save(self, dataset: Dataset) -> Path:
        """Write the dataset where `load` reads it: the manifest's dataset_path."""
        path = self.man.dataset_path
        _make_dir(path.parent, "the dataset's directory")
        _make_dir(self.dataset_cache, "the dataset cache directory")
        save_dataset(dataset, path, manifest_hash=self.man.sha256, cache_dir=self.dataset_cache)
        return path

    def write_json(self, name: str, doc: dict) -> None:
        """Write `doc` to <out>/<name>, stamped with the manifest hash."""
        write_json(self.out / name, {"manifest_sha256": self.man.sha256, **doc})


def _make_dir(path: Path, what: str) -> None:
    """Create directory `path` and its parents, or raise a ConfigError naming
    it: every path a command writes to comes from the manifest or --out."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create {what} {path}: {err.strerror or err}") from None


def _blind_key(spec: BlindSpec, digest: str) -> dict:
    """What the blinded fit depends on, stamped into the files `blind` writes.

    That is the blind spec (train and eval states and every CV setting,
    normalized through JSON as the files store it) and `digest`, the hash of
    the bytes of dataset.csv and its metadata file. The MC, injection and
    sweep settings are not part of it, so changing them does not force a
    refit.
    """
    blind_spec = {
        "train_states": sorted(spec.train_states),
        "eval_states": sorted(spec.eval_states),
        "cv": dataclasses.asdict(spec.cv),
    }
    return {
        "blind_spec": json.loads(json.dumps(blind_spec)),
        "dataset_sha256": digest,
        "tamperscan_version": __version__,
    }


def _blind_context(run: Run, dataset, spec: BlindSpec, digest: str) -> BlindContext:
    """The blinded fit `blind` stored in the output directory, or a fresh one.

    The stored model and CV grid are reused when both files carry this run's
    key and format version and rebuild without error; otherwise the fit is
    redone exactly as `blind` does it and one line on stderr says why. The
    result is the same either way, because the model and CV round-trips
    through JSON are exact.
    """
    want = {**_blind_key(spec, digest), "version": MODEL_FORMAT_VERSION}
    docs = []
    reason = None
    for name in ("blind_model.json", "blind_cv.json"):
        try:
            with open(run.out / name, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            reason = f"no {name} in {run.out}"
            break
        except (OSError, ValueError) as err:
            reason = f"{name} is unreadable ({err})"
            break
        stale = next((k for k, v in want.items() if doc.get(k) != v), None)
        if stale is not None:
            reason = f"{name} has a different {stale}"
            break
        docs.append(doc)
    if reason is None:
        try:
            return BlindContext(
                spec=spec, model=model_from_dict(docs[0]), cv=cv_result_from_dict(docs[1])
            )
        except (TamperscanError, KeyError, TypeError, ValueError) as err:
            reason = f"stored blinded fit is malformed ({err!r})"
    print(f"note: refitting the blinded model: {reason}", file=sys.stderr)
    return prepare_blind_context(dataset, spec)


def _write_scores(run: Run, prefix: str, scoring: Scoring, **meta) -> None:
    """<prefix>ranking.csv, <prefix>scores.json and <prefix>residuals.csv.

    The residuals file is a FIPS-keyed export for choropleth tools, at full
    precision (repr, through `format_floats`). Its sigmas are the scored
    ones, so they agree with the ranking and the scores JSON whichever null
    (analytic or MC) produced them.
    """
    scores = scoring.scores
    anomaly.write_ranking_csv(scores, run.out / f"{prefix}ranking.csv", comment=run.comment)
    anomaly.write_scores_json(
        scores,
        run.out / f"{prefix}scores.json",
        meta={
            "manifest_sha256": run.man.sha256,
            "n_counties": scoring.residuals.n,
            "width": scoring.width.width,
            "rms_residual": scoring.residuals.rms,
            "mc_trials": run.mc.trials,
            "mc_seed": run.mc.seed,
            **meta,
        },
    )
    header = ["fips", "residual", "local_sigma", "global_sigma"]
    rows = sorted(scores, key=lambda s: s.key.fips)
    with open_csv(run.out / f"{prefix}residuals.csv", header, run.comment) as fh:
        fh.write(format_floats(
            "".join([csv_prefix([s.key.fips]) + ",%r,%r,%r\r\n" for s in rows]),
            [(s.residual, s.local_sigma, s.global_sigma) for s in rows],
        ))


def _print_top(scores, top_n: int = 10) -> None:
    rows = anomaly.rank_anomalies(scores, top_n)
    print(f"{'fips':>5}  {'county':<28} {'st':<2} {'actual':>7} {'pred':>7} {'local':>6} {'global':>6}")
    for r in rows:
        print(
            f"{r['fips']:>5}  {r['county'][:28]:<28} {r['state']:<2} "
            f"{r['actual_share']:>7} {r['predicted_share']:>7} "
            f"{r['local_sigma']:>6} {r['global_sigma']:>6}"
        )


def cmd_ingest(run: Run) -> int:
    man = run.man
    # every key is classified before any file is read
    demo_inputs, election_inputs = [], []
    for key, path in sorted(man.inputs.items()):
        election = re.fullmatch(r"election_([0-9]+)", key)
        if election:
            election_inputs.append((path, int(election[1])))
        elif key.startswith("dp") and key.upper() in SOURCE_IDS:
            demo_inputs.append((path, key.upper()))
        else:
            raise ConfigError(f"unrecognized input key {key!r} (want dpNN or election_YYYY)")
    if not demo_inputs:
        raise ConfigError("no demographic tables among inputs")
    if not election_inputs:
        raise ConfigError("no election files among inputs")
    demo_tables = [parse_table(path, sid) for path, sid in demo_inputs]
    elections = [parse_election(path, year) for path, year in election_inputs]
    features, report = clean_features(demo_tables)
    del demo_tables  # free the parsed tables before assembly copies the features
    dataset, join_report = assemble_dataset(features, elections, man.target_year)
    report = report.merge(join_report)
    path = run.save(dataset)
    run.write_json("cleaning_report.json", dataclasses.asdict(report))
    print(f"counties: {dataset.n}")
    print(f"features: {dataset.p}")
    print(
        "dropped columns: "
        f"{len(report.dropped_moe_columns)} margin-of-error, "
        f"{len(report.dropped_duplicate_columns)} duplicate, "
        f"{len(report.dropped_missing_columns)} missing/non-numeric"
    )
    print(f"dropped counties: {len(report.dropped_counties)}")
    print(f"wrote {path}")
    return 0


def cmd_synth(run: Run) -> int:
    man = run.man
    spec = man.require("synth", "a [synth] section")
    dataset, beta = generate_synthetic(spec, target_year=man.target_year)
    path = run.save(dataset)
    run.write_json(
        "true_coefficients.json",
        {
            "spec": dataclasses.asdict(spec),
            "coefficients": {
                name: float(b) for name, b in zip(dataset.feature_names, beta)
            },
        },
    )
    print(f"counties: {dataset.n}")
    print(f"wrote {path}")
    return 0


def cmd_fit(run: Run) -> int:
    man = run.man
    dataset, _ = run.load()
    cv, model = fit_cv(dataset.X, dataset.shares(), dataset.feature_names, man.cv)
    scoring = score_model(model, dataset, run.mc)

    run.write_json("model.json", model_to_dict(model))
    run.write_json("cv.json", cv_result_to_dict(cv))
    _write_scores(run, "", scoring)

    print(f"counties: {dataset.n}")
    print(f"selected: l1_ratio={cv.selected.l1_ratio} alpha={cv.selected.alpha:.6g}")
    print(f"nonzero coefficients: {model.nonzero_count} of {len(model.coefficients)}")
    print(f"rms residual: {100 * scoring.residuals.rms:.2f}%")
    print(f"fitted width: {100 * scoring.width.width:.2f}%")
    try:
        corr = size_correlation(scoring.residuals, dataset)
        print(f"size correlation: {corr:+.3f}")
    except NumericalError as err:
        print(f"size correlation: undefined ({err})")
    _print_top(scoring.scores)
    return 0


def cmd_blind(run: Run) -> int:
    spec = run.man.require("blind", "a [blind] section")
    dataset, digest = run.load()
    ctx = prepare_blind_context(dataset, spec)
    result = score_eval_set(ctx, dataset, run.mc)

    key = _blind_key(spec, digest)
    run.write_json("blind_model.json", {**key, **model_to_dict(ctx.model)})
    run.write_json("blind_cv.json", {**key, **cv_result_to_dict(ctx.cv)})
    _write_scores(
        run, "blind_", result,
        train_states=sorted(spec.train_states), eval_states=sorted(spec.eval_states),
    )

    train_resid = residuals(ctx.model, dataset.subset_states(spec.train_states))
    print(f"selected: l1_ratio={ctx.cv.selected.l1_ratio} alpha={ctx.cv.selected.alpha:.6g}")
    print(f"train rms residual: {100 * train_resid.rms:.2f}%")
    print(f"eval rms residual: {100 * result.residuals.rms:.2f}%")
    print(f"eval width: {100 * result.width.width:.2f}%")
    print(f"eval counties (look-elsewhere N): {result.residuals.n}")

    counterfactuals = []
    for state in sorted(spec.eval_states):
        actual = state_summary(dataset, state)
        modeled = counterfactual_winner(dataset, ctx.model, state)
        counterfactuals.append(
            {
                "state": state,
                "actual_winner": actual.winner,
                "actual_margin": actual.margin,
                "counterfactual_winner": modeled.winner,
                "counterfactual_margin": modeled.margin,
            }
        )
        print(
            f"counterfactual {state}: actual {actual.winner} by {actual.margin:,.0f}, "
            f"modeled {modeled.winner} by {modeled.margin:,.0f}"
        )
    run.write_json("counterfactuals.json", {"states": counterfactuals})
    _print_top(result.scores)
    return 0


def cmd_inject(run: Run) -> int:
    spec = run.man.require("blind", "a [blind] section")
    inj = run.man.require("injection", "an [injection] section")
    dataset, digest = run.load()
    if not any(k.fips == inj.fips and k.state in spec.eval_states for k in dataset.keys):
        raise ConfigError(f"injection county {inj.fips} is not in the evaluation set")
    tampered = inject_flips(dataset, inj)  # a k beyond the county's tally fails before the fit
    ctx = _blind_context(run, dataset, spec, digest)
    base_rank, base_score = score_eval_set(ctx, dataset, run.mc).rank_of(inj.fips)
    result = score_eval_set(ctx, tampered, run.mc)
    rank, injected = result.rank_of(inj.fips)

    def standing(score, rank: int) -> dict:
        return {
            "actual_share": score.actual,
            "residual": score.residual,
            "local_sigma": score.local_sigma,
            "global_sigma": score.global_sigma,
            "rank": rank,
        }

    comparison = {
        "fips": inj.fips,
        "county": injected.key.name,
        "state": injected.key.state,
        "k": inj.k,
        "direction": inj.direction.value,
        "before": standing(base_score, base_rank),
        "after": standing(injected, rank),
    }
    run.write_json("comparison.json", comparison)
    _write_scores(
        run, "injected_", result,
        injection={"fips": inj.fips, "k": inj.k, "direction": inj.direction.value},
    )

    b, a = comparison["before"], comparison["after"]
    print(f"injected: {inj.k} flips {inj.direction.value} in {inj.fips} ({injected.key.name})")
    print(
        f"share: {100 * b['actual_share']:.1f}% -> {100 * a['actual_share']:.1f}% "
        f"(change {100 * (a['actual_share'] - b['actual_share']):+.1f} pts)"
    )
    print(f"residual: {100 * b['residual']:+.1f} -> {100 * a['residual']:+.1f} pts")
    print(f"local sigma: {b['local_sigma']:+.1f} -> {a['local_sigma']:+.1f}")
    print(f"global sigma: {b['global_sigma']:.1f} -> {a['global_sigma']:.1f}")
    print(f"rank: {b['rank']} -> {a['rank']}")
    return 0


def cmd_sweep(run: Run) -> int:
    man, out = run.man, run.out
    spec = man.require("blind", "a [blind] section")
    states = man.require("sweep_states", "[sweep] states")
    dataset, digest = run.load()
    ctx = _blind_context(run, dataset, spec, digest)
    all_curves = []
    for state in states:
        curves = sweep(dataset, spec, state, k_step=man.sweep_k_step, context=ctx)
        if not curves:
            print(f"{state}: no county is large enough to flip the state")
            continue
        all_curves.extend(curves)
        write_sweep_csv(curves, out / f"sweep_{state}.csv", comment=run.comment)
        charts.write_sweep_chart(curves, state, out / f"sweep_{state}.svg", comment=run.comment)
    summary = sweep_summary(all_curves)
    run.write_json("sweep_summary.json", {"states": summary})
    for state in states:
        if state not in summary:
            continue
        entry = summary[state]
        names = ", ".join(entry["unconstrained_counties"]) or "none"
        print(
            f"{state}: margin {entry['margin']:,}, curves {len(entry['curves'])}, "
            f"unconstrained counties: {entry['unconstrained_count']} ({names})"
        )
    return 0


def cmd_calibrate(run: Run) -> int:
    man = run.man
    rows = []
    any_disagree = False
    for n in man.calibrate_n:
        cfg = run.mc.config(n)
        analytic_sigmas = anomaly.analytic_sigma_curve(man.calibrate_z, n).tolist()
        for z, analytic in zip(man.calibrate_z, analytic_sigmas):
            est = anomaly.global_significance_mc(z, cfg)
            if est.bounded:
                agrees = True  # MC can only bound; analytic value stands
            else:
                agrees = abs(est.sigma - analytic) <= 3.0 * est.sigma_stderr
            any_disagree |= not agrees
            rows.append(
                {
                    "z": z,
                    "n": n,
                    "p_local": anomaly.two_sided_p(z),
                    "analytic_sigma": analytic,
                    "mc_p_global": est.p_global,
                    "mc_sigma": est.sigma,
                    "mc_p_stderr": est.stderr,
                    "mc_sigma_stderr": est.sigma_stderr,
                    "bounded": est.bounded,
                    "agrees": agrees,
                }
            )

    cells = ([repr(v) if isinstance(v, float) else str(v) for v in r.values()] for r in rows)
    write_csv(run.out / "calibration.csv", list(rows[0]), cells, comment=run.comment)

    p4 = anomaly.two_sided_p(DETECTION_SIGMA)
    print(f"{DETECTION_SIGMA:g} sigma global threshold: p = {p4:.3g} (about 1 in {round(1 / p4):,})")
    print(f"{'z':>5} {'N':>6} {'analytic':>9} {'mc':>9} {'stderr':>9}  flag")
    for r in rows:
        mc_txt = "bounded" if r["bounded"] else f"{r['mc_sigma']:.3f}"
        stderr_txt = "-" if r["bounded"] else f"{r['mc_sigma_stderr']:.4f}"
        flag = "ok" if r["agrees"] else "DISAGREES"
        print(
            f"{r['z']:>5.2f} {r['n']:>6} {r['analytic_sigma']:>9.3f} "
            f"{mc_txt:>9} {stderr_txt:>9}  {flag}"
        )
    if any_disagree:
        print("warning: MC and analytic conversions disagree beyond 3 standard errors")
    print(f"wrote {run.out / 'calibration.csv'}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamperscan",
        description="Detect geographically localized vote tampering in county-level results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": (cmd_ingest, "parse and clean input files into the canonical dataset"),
        "fit": (cmd_fit, "global fit: CV elastic net on all counties, score residuals"),
        "blind": (cmd_blind, "train on trusted states, score held-out states"),
        "inject": (cmd_inject, "flip votes in one county and rerun the blinded analysis"),
        "sweep": (cmd_sweep, "detection curves for every county able to flip its state"),
        "calibrate": (cmd_calibrate, "cross-check MC and analytic global significance"),
        "synth": (cmd_synth, "generate a synthetic dataset from the [synth] section"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="path to the run manifest (INI)")
        p.add_argument("--out", default=None, help="output directory in place of [run] "
                       "out_dir; a relative path is taken from the working directory")
        p.add_argument(
            "--threads", type=int, default=1,
            help="ignored, but must be at least 1: every command runs on one "
            "thread, numpy's BLAS too unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
            "or MKL_NUM_THREADS is set, and no output depends on this value",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # county names and paths reach stdout; one the locale cannot encode is
    # escaped rather than failing a command whose files are already written
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = _parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        man = load_manifest(args.manifest, args.out)
        out = man.out_dir
        _make_dir(out, "the output directory")
        run = Run(
            man=man,
            out=out,
            mc=McNull(man.mc_trials, man.mc_seed),
            comment=f"manifest_sha256={man.sha256}",
            dataset_cache=out / "dataset_cache",
        )
        return args.func(run)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        if err.filename is None:  # a broken pipe, say: no path to name
            raise
        # a path from the manifest or --out that the OS refuses
        print(f"config error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


def run(argv=None) -> NoReturn:
    """Run `main` and end the process with its code, without teardown.

    A SystemExit (argparse's usage errors, --help) or an uncaught exception
    from `main` leaves through the normal exit, and so does a flush that
    fails or a Python without CPython's `atexit._run_exitfuncs`.
    """
    code = main(argv)
    if not hasattr(atexit, "_run_exitfuncs"):
        sys.exit(code)
    atexit._run_exitfuncs()  # runs the handlers and unregisters them
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
