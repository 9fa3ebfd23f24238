"""Blinded training: fit on trusted states only, score the questioned ones.

Synthetic stand-in for the dispute scenario. Seven states play the trusted
side, four play the questioned side. The model never sees the questioned
states during training, so nothing done to their returns can bias it. The
script scores the questioned states, reports modeled counterfactual winners,
and then injects vote flips into a questioned-state county to show the
injection surfacing in the blind ranking.

Run:  python3 demos/blind_protocol.py
"""

# tamperscan before numpy: its import pins numpy's BLAS to one thread, as the CLI runs it
from tamperscan import (
    BlindSpec,
    CvSettings,
    Direction,
    InjectionSpec,
    SyntheticSpec,
    counterfactual_winner,
    generate_synthetic,
    inject_flips,
    prepare_blind_context,
    state_summary,
)
from tamperscan.scenarios import score_eval_set

import numpy as np

SPEC = BlindSpec(
    train_states=frozenset({"AL", "AZ", "CA", "CO", "MT", "TX", "WY"}),
    eval_states=frozenset({"GA", "MI", "PA", "WI"}),
    cv=CvSettings(l1_grid=(0.5, 1.0), n_alphas=25),
)


def main():
    dataset, _ = generate_synthetic(
        SyntheticSpec(n_counties=500, n_features=50, n_active=5, noise_sd=0.01, seed=7)
    )
    ctx = prepare_blind_context(dataset, SPEC)
    result = score_eval_set(ctx, dataset)

    print(f"trained on {sorted(SPEC.train_states)}")
    print(f"scoring {result.residuals.n} counties in {sorted(SPEC.eval_states)}, "
          f"eval rms {100 * result.residuals.rms:.2f}%\n")

    for state in sorted(SPEC.eval_states):
        actual = state_summary(dataset, state)
        modeled = counterfactual_winner(dataset, ctx.model, state)
        flag = "" if actual.winner == modeled.winner else "  <- disagreement"
        print(f"  {state}: actual {actual.winner} by {actual.margin:,.0f}, "
              f"modeled {modeled.winner} by {modeled.margin:,.0f}{flag}")

    # tamper with the biggest questioned-state county and rescore. the
    # context is reusable: training never saw these states.
    ev = dataset.subset_states(SPEC.eval_states)
    totals = ev.rep + ev.dem
    i = int(np.argmax(totals))
    victim = ev.keys[i]
    k = int(0.04 * totals[i])
    print(f"\ninjecting {k:,} flips R to D into {victim.name} ({victim.fips}, {victim.state})")

    inj = InjectionSpec(fips=victim.fips, k=k, direction=Direction.R_TO_D)
    tampered = score_eval_set(ctx, inject_flips(dataset, inj))
    rank, s = tampered.rank_of(victim.fips)
    print(f"after injection: rank {rank} of {result.residuals.n}, "
          f"local {s.local_sigma:+.1f} sigma, global {s.global_sigma:.1f} sigma")


if __name__ == "__main__":
    main()
