"""Time one thread pool of tamperscan at a given thread count, in a fresh process.

Run as

    python perfbench/payoff.py POOL MANIFEST ROWS THREADS

POOL is `cross_validate`, `mc_extremes` or `sweep`; ROWS is `train` (the
blinded training states) or `all` (every county) and picks the rows the
workload's CV and MC null use. Everything is read from the manifest and
the dataset it names, so the pool runs on the workload's own inputs. Only
the pool call is timed; the result is printed as one JSON line. A fresh
process per measurement keeps the in-process MC table cache from serving
a second call.
"""

from __future__ import annotations

import json
import sys
import time

from tamperscan import anomaly, elastic_net, scenarios
from tamperscan.ingest import load_dataset
from tamperscan.manifest import load_manifest


def _blind_context(man, dataset, spec):
    """The blinded model `blind` wrote, or a fresh one when there is none."""
    model_path = man.out_dir / "blind_model.json"
    if not model_path.exists():
        return scenarios.prepare_blind_context(dataset, spec)
    with open(model_path) as fh:
        model = elastic_net.model_from_dict(json.load(fh))
    with open(man.out_dir / "blind_cv.json") as fh:
        cv = elastic_net.cv_result_from_dict(json.load(fh))
    return scenarios.BlindContext(spec=spec, model=model, cv=cv)


def main(argv) -> int:
    pool, manifest_path, rows, threads = argv[0], argv[1], argv[2], int(argv[3])
    man = load_manifest(manifest_path)
    dataset = load_dataset(man.dataset_path)
    spec = scenarios.BlindSpec(
        train_states=frozenset(man.train_states), eval_states=frozenset(man.eval_states), cv=man.cv
    )
    if rows == "train":
        fit_rows = dataset.subset_states(spec.train_states)
        mc_n = dataset.subset_states(spec.eval_states).n
    else:
        fit_rows = dataset
        mc_n = dataset.n
    cv = man.cv

    if pool == "cross_validate":
        def call():
            elastic_net.cross_validate(
                fit_rows.X, fit_rows.shares(), l1_grid=cv.l1_grid, k=cv.folds, seed=cv.seed,
                n_alphas=cv.n_alphas, eps=cv.eps, tol=cv.tol, max_iter=cv.max_iter,
                threads=threads,
            )
    elif pool == "mc_extremes":
        config = anomaly.McConfig(n_counties=mc_n, trials=man.mc_trials, seed=man.mc_seed)

        def call():
            anomaly.mc_extremes(config, threads=threads)
    elif pool == "sweep":
        context = _blind_context(man, dataset, spec)

        def call():
            for state in man.sweep_states:
                scenarios.sweep(
                    dataset, spec, state, k_step=man.sweep_k_step, threads=threads,
                    context=context,
                )
    else:
        print(f"unknown pool {pool!r}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    call()
    print(json.dumps({"pool": pool, "threads": threads, "seconds": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
