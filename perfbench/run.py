"""End-to-end benchmark of the tamperscan CLI on paper-shaped synthetic inputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload blind-chain --seed 1 --seconds 20 --trace 0

Every command runs the way a user runs it: a fresh
`python -m tamperscan.cli <command> --manifest manifest.ini --threads 2`
process, one at a time, on inputs that gen.py draws from `--seed`. The
workflow is repeated in fresh directories, at least twice and until
`--seconds` have been measured; timings are medians over the repetitions.

Workloads (both on one generated input set of 3,112 counties and ~300
collinear features, 10^5 MC trials):

- blind-chain: blind -> inject -> sweep, as in demos/run2020.ini, with a
  1 x 15 x 4 CV grid and the default eps and tol. The blinded CV dominates
  and is repeated once per command. `ingest` runs in set-up, untimed.
- ingest-scan: ingest -> fit -> calibrate -> sweep, with a 1 x 5 x 3 CV
  grid at eps 0.01 and sweep k_step 10. The solver does little; CSV
  parsing, the MC null tables (N = 3,112 is built in two processes) and
  large sweep CSV/SVG writes dominate.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workflow
once under tracer.py, once untraced, and times each thread pool at 1 and
2 threads, then prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A command counts as failed when it exits non-zero or an output check in
checks.py rejects what it wrote, including outputs that differ between
repetitions of the workflow.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

THREADS = 2
# import launches at set-up; one more runs before every timed command, so
# the set-up median samples the whole run and not one moment of it
SETUP_LAUNCHES = 3
# two repetitions at least, so every run compares its outputs across them
MIN_REPS = 2
COMMAND_TIMEOUT_S = 100
MC_TRIALS = 100_000


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    cv: dict
    k_step: int | None
    ingest_in_setup: bool
    # rows the CV and MC pools see: the blinded training states or every county
    pool_rows: str


WORKLOADS = {
    "blind-chain": Workload(
        commands=("blind", "inject", "sweep"),
        cv={"l1_grid": "1.0", "n_alphas": 15, "folds": 4},
        k_step=None,
        ingest_in_setup=True,
        pool_rows="train",
    ),
    "ingest-scan": Workload(
        commands=("ingest", "fit", "calibrate", "sweep"),
        cv={"l1_grid": "1.0", "n_alphas": 5, "eps": 0.01, "folds": 3},
        k_step=10,
        ingest_in_setup=False,
        pool_rows="all",
    ),
}


@dataclass
class Result:
    command: str
    seconds: float
    rss_kb: int
    problems: list = field(default_factory=list)
    digest: str = ""


class Bench:
    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv, cwd: Path, log: Path):
        """Run one process to exit: (seconds, exit code, peak RSS in KiB)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def import_seconds(self) -> float:
        """Time for a fresh interpreter to import the CLI, which every command pays."""
        log = self.work / "import.log"
        seconds, code, _ = self.spawn([sys.executable, "-c", "import tamperscan.cli"], self.work, log)
        if code != 0:
            raise RuntimeError(f"importing tamperscan.cli failed; see {log}")
        return seconds

    def chain(self, name, manifest_text, inputs, commands, spans_dir=None, seed_out=None,
              imports=None):
        """Run `commands` in a fresh directory; returns (directory, results).

        With an `imports` list, an import launch before each command adds
        its time there.
        """
        rep = self.work / name
        rep.mkdir()
        (rep / "manifest.ini").write_text(manifest_text)
        sha = hashlib.sha256(manifest_text.encode()).hexdigest()
        out = rep / "out"
        if seed_out is not None:
            out.mkdir()
            for f in ("dataset.csv", "dataset_meta.json"):
                shutil.copyfile(seed_out / f, out / f)
        results = []
        for cmd in commands:
            if imports is not None:
                imports.append(self.import_seconds())
            cli = [cmd, "--manifest", "manifest.ini", "--threads", str(THREADS)]
            if spans_dir is None:
                argv = [sys.executable, "-m", "tamperscan.cli", *cli]
            else:
                spans = spans_dir / f"{name}-{cmd}.json"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *cli]
            seconds, code, rss = self.spawn(argv, rep, rep / f"{cmd}.log")
            res = Result(cmd, seconds, rss)
            if code != 0:
                res.problems.append(f"{cmd}: exit code {code}; see {rep / f'{cmd}.log'}")
            else:
                res.problems.extend(checks.check_command(cmd, out, sha, inputs))
                res.digest = checks.digest(cmd, out)
            results.append(res)
        return rep, results

    def payoff(self, pool: str, rep: Path, rows: str) -> float:
        """Seconds at 1 thread over seconds at THREADS threads, fresh processes."""
        seconds = {}
        for threads in (1, THREADS):
            log = rep / f"payoff-{pool}-{threads}.log"
            argv = [sys.executable, str(HERE / "payoff.py"), pool, "manifest.ini", rows, str(threads)]
            _, code, _ = self.spawn(argv, rep, log)
            if code != 0:
                raise RuntimeError(f"thread pay-off run failed; see {log}")
            seconds[threads] = json.loads(log.read_text().strip().splitlines()[-1])["seconds"]
        return seconds[1] / seconds[THREADS]


def compare_digests(reps) -> None:
    """Mark a command failed when its outputs differ from the first repetition's."""
    first = {r.command: r.digest for r in reps[0]}
    for results in reps[1:]:
        for r in results:
            if r.digest and first.get(r.command) and r.digest != first[r.command]:
                r.problems.append(f"{r.command}: outputs differ between repetitions")


def env_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": THREADS,
    }


def layer_metrics(bench, wl, spans_files, traced_rep, traced, untraced, setup_ingest_dir):
    """Per-layer metrics from spans, public output files and pool timings."""
    own = {}
    tables, draws = 0, 0
    for path in spans_files:
        spans = json.loads(path.read_text())["spans"]
        for name, (secs, calls) in tracer.self_times(spans).items():
            s, c = own.get(name, (0.0, 0))
            own[name] = (s + secs, c + calls)
        # each process draws a table once; later requests hit its cache
        requested = {tuple(sp["table"]) for sp in spans if "table" in sp}
        tables += len(requested)
        draws += sum(trials * n for trials, n, _ in requested)

    def secs(*names):
        return sum(own.get(n, (0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(own.get(n, (0.0, 0))[1] for n in names)

    out = traced_rep / "out"
    ingest_dir = (setup_ingest_dir or traced_rep) / "out"
    cv_doc = next(
        json.loads((out / f).read_text()) for f in ("cv.json", "blind_cv.json") if (out / f).exists()
    )
    points = calls("elastic_net.cross_validate") * len(cv_doc["grid"]) * cv_doc["folds"]
    cv_s = secs("elastic_net.cross_validate", "elastic_net.alpha_path")
    models = [json.loads((out / f).read_text()) for f in ("model.json", "blind_model.json")
              if (out / f).exists()]
    design = checks.load_design(ingest_dir / "dataset.csv")
    gaps = [checks.relative_gap(out / f, design) for f in ("model.json", "blind_model.json")
            if (out / f).exists()]
    mc_s = secs("anomaly.mc_extremes")
    sweep_csvs = [out / f"sweep_{st}.csv" for st in gen.EVAL_STATES]
    summary = json.loads((out / "sweep_summary.json").read_text())["states"]
    mb = 1.0 / (1 << 20)
    dataset_bytes = (ingest_dir / "dataset.csv").stat().st_size
    in_bytes = sum(p.stat().st_size for p in (bench.work / "inputs").iterdir())
    wall = lambda results: sum(r.seconds for r in results)  # noqa: E731

    m = {
        "cli.self_s": (secs(*[n for n in own if n.startswith("cli.")]), "s"),
        "manifest.load_s": (secs("manifest.load_manifest"), "s"),
        "ingest.parse_s": (secs("ingest.parse_table", "ingest.parse_election"), "s"),
        "ingest.clean_s": (secs("ingest.clean_features"), "s"),
        "ingest.assemble_s": (secs("ingest.assemble_dataset"), "s"),
        "ingest.save_s": (secs("ingest.save_dataset"), "s"),
        "ingest.in_mb": (in_bytes * mb, "MB"),
        "ingest.load_s": (secs("ingest.load_dataset"), "s"),
        "ingest.load_calls": (calls("ingest.load_dataset"), "count"),
        "ingest.load_mb": (calls("ingest.load_dataset") * dataset_bytes * mb, "MB"),
        "data_model.standardize_s": (
            secs("data_model.standardize", "data_model.apply_standardization"), "s"),
        "data_model.standardize_calls": (
            calls("data_model.standardize", "data_model.apply_standardization"), "count"),
        "elastic_net.cv_s": (cv_s, "s"),
        "elastic_net.cv_calls": (calls("elastic_net.cross_validate"), "count"),
        "elastic_net.cv_path_points": (points, "count"),
        "elastic_net.cv_ms_per_point": (1000.0 * cv_s / points, "ms"),
        "elastic_net.cv_thread_speedup": (
            bench.payoff("cross_validate", traced_rep, wl.pool_rows), "ratio"),
        "elastic_net.fit_s": (secs("elastic_net.fit"), "s"),
        "elastic_net.fit_sweeps": (
            sum(d["training_meta"]["iterations"] for d in models), "count"),
        "elastic_net.fit_converged_frac": (
            sum(bool(d["training_meta"]["converged"]) for d in models) / len(models),
            "ratio"),
        "elastic_net.fit_rel_gap": (statistics.median(gaps), "ratio"),
        "elastic_net.predict_s": (secs("elastic_net.predict"), "s"),
        "anomaly.mc_s": (mc_s, "s"),
        "anomaly.mc_tables": (tables, "count"),
        "anomaly.mc_draws": (draws, "count"),
        "anomaly.mc_draws_per_s": (draws / mc_s, "1/s"),
        "anomaly.mc_lookups": (calls("anomaly.global_significance_mc"), "count"),
        "anomaly.mc_thread_speedup": (
            bench.payoff("mc_extremes", traced_rep, wl.pool_rows), "ratio"),
        "anomaly.score_s": (
            secs("anomaly.score_counties", "anomaly.global_significance_mc"), "s"),
        "anomaly.width_s": (secs("anomaly.fit_width"), "s"),
        "anomaly.residuals_s": (secs("anomaly.residuals"), "s"),
        "anomaly.write_s": (
            secs("anomaly.write_ranking_csv", "anomaly.write_scores_json"), "s"),
        "scenarios.score_eval_s": (secs("scenarios.score_eval_set"), "s"),
        "scenarios.blind_context_s": (secs("scenarios.prepare_blind_context"), "s"),
        "scenarios.sweep_s": (secs("scenarios.sweep"), "s"),
        "scenarios.sweep_curves": (
            sum(len(s["curves"]) for s in summary.values()), "count"),
        "scenarios.sweep_samples": (
            sum(_data_rows(p) for p in sweep_csvs), "count"),
        "scenarios.sweep_csv_s": (secs("scenarios.write_sweep_csv"), "s"),
        "scenarios.sweep_csv_mb": (sum(p.stat().st_size for p in sweep_csvs) * mb, "MB"),
        "scenarios.sweep_thread_speedup": (
            bench.payoff("sweep", traced_rep, wl.pool_rows), "ratio"),
        "charts.svg_s": (secs("charts.write_sweep_chart"), "s"),
        "charts.svg_mb": (
            sum((out / f"sweep_{st}.svg").stat().st_size for st in gen.EVAL_STATES) * mb,
            "MB"),
        "trace.overhead_s": (wall(traced) - wall(untraced), "s"),
    }
    return m


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for ln in fh if not ln.startswith("#")) - 1  # minus the header


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "tamperscan" / "cli.py").is_file():
        print(f"perfbench: no tamperscan sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Bench(root, work)

    # set-up: inputs, the import cost every command pays, and (blind-chain) ingest
    inputs = gen.generate(work / "inputs", args.seed)
    # every repetition directory sits beside `inputs`, so one text serves all
    text = gen.manifest_text(inputs, work / "rep", wl.cv, MC_TRIALS, wl.k_step)
    imports = [] if args.trace else [bench.import_seconds() for _ in range(SETUP_LAUNCHES)]
    spans_dir = work / "spans" if args.trace else None
    if spans_dir:
        spans_dir.mkdir()
    seed_out = setup_dir = None
    if wl.ingest_in_setup:
        setup_dir, results = bench.chain("setup", text, inputs, ("ingest",), spans_dir)
        problems = [p for r in results for p in r.problems]
        if problems:
            print("perfbench: set-up ingest failed: " + "; ".join(problems), file=sys.stderr)
            return 1
        seed_out = setup_dir / "out"

    reps = []
    if args.trace:
        traced_dir, traced = bench.chain("traced", text, inputs, wl.commands, spans_dir, seed_out)
        _, untraced = bench.chain("untraced", text, inputs, wl.commands, None, seed_out)
        reps = [traced, untraced]
    else:
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
            reps.append(bench.chain(f"rep{len(reps)}", text, inputs, wl.commands, None,
                                    seed_out, imports)[1])
    compare_digests(reps)

    results = [r for rep in reps for r in rep]
    failed = [r for r in results if r.problems]
    for r in failed:
        print("FAILED " + "; ".join(r.problems))
    print("env: " + json.dumps(env_record()))
    for cmd in wl.commands:
        times = [r.seconds for r in results if r.command == cmd]
        print(f"{cmd}: median {statistics.median(times):.3f} s over {len(times)} runs")

    if args.trace:
        if failed:
            print("perfbench: per-layer metrics need every command's outputs", file=sys.stderr)
            return 1
        spans_files = sorted(spans_dir.glob("*.json"))
        metrics = layer_metrics(bench, wl, spans_files, traced_dir, traced, untraced, setup_dir)
    else:
        walls = [sum(r.seconds for r in rep) for rep in reps]
        metrics = {
            "setup_s": (statistics.median(imports), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    if not failed:
        shutil.rmtree(work)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
