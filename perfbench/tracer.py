"""Span tracer for one tamperscan CLI command, applied from outside.

Run as

    python perfbench/tracer.py SPANS_JSON -- <tamperscan cli arguments>

It imports the package, replaces the public functions listed in LAYERS in
every module namespace that holds them with wrappers that record a span
(name, start, end, parent), then calls `tamperscan.cli.main(argv)` in this
fresh process, so per-process state such as the MC table cache behaves as
in the untraced CLI. The program's files are not touched.

The parent of a span is the innermost open span of the same thread. Thread
pools in the traced modules are swapped for an executor that hands each
task the span that submitted it, so CV, MC and sweep workers nest under
their caller. Spans are kept in memory and written when the command ends.

`self_times` (used by run.py) turns spans into per-name self time: a span's
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# layer (module) -> public functions that mark its boundary. Scalar helpers
# called per coefficient or per county (soft_threshold, local_significance,
# ...) are left alone: a wrapper there would cost more than the work.
LAYERS = {
    "cli": ("main", "cmd_ingest", "cmd_fit", "cmd_blind", "cmd_inject", "cmd_sweep",
            "cmd_calibrate"),
    "manifest": ("load_manifest",),
    "ingest": ("parse_table", "parse_election", "clean_features", "assemble_dataset",
               "save_dataset", "load_dataset"),
    "data_model": ("standardize", "apply_standardization"),
    "elastic_net": ("cross_validate", "alpha_path", "fit", "predict"),
    "anomaly": ("residuals", "fit_width", "score_counties", "global_significance_mc",
                "mc_extremes", "write_ranking_csv", "write_scores_json"),
    "scenarios": ("prepare_blind_context", "score_eval_set", "sweep", "write_sweep_csv"),
    "charts": ("write_sweep_chart",),
}
POOLED_MODULES = ("elastic_net", "anomaly", "scenarios")


class Recorder:
    """Spans of one process, with a per-thread stack of open span ids."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if name == "anomaly.mc_extremes":
                    cfg = args[0] if args else kwargs["config"]
                    span["table"] = [cfg.trials, cfg.n_counties, cfg.seed]
                self.spans.append(span)

        return traced

    def adopt(self, parent, fn):
        """Run `fn` in a worker thread as a child of span `parent`."""

        @functools.wraps(fn)
        def task(*args, **kwargs):
            stack = self._stack()
            saved = stack[:]
            stack[:] = [] if parent is None else [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return task


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function wherever a traced module refers to it."""
    modules = {name: importlib.import_module(f"tamperscan.{name}") for name in LAYERS}
    wrapped = {}
    for layer, names in LAYERS.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            wrapped[fn] = recorder.wrap(f"{layer}.{fname}", fn)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrapped:
                setattr(module, attr, wrapped[value])

    class SpanExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(recorder.adopt(recorder.current(), fn), *args, **kwargs)

    for name in POOLED_MODULES:
        modules[name].ThreadPoolExecutor = SpanExecutor


def _merged_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """name -> (summed self seconds, call count) over a list of spans."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        covered = _merged_length(children.get(sp["id"], ()), sp["start"], sp["end"])
        own = sp["end"] - sp["start"] - covered
        secs, calls = out.get(sp["name"], (0.0, 0))
        out[sp["name"]] = (secs + own, calls + 1)
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <tamperscan cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from tamperscan import cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"argv": cli_argv, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
