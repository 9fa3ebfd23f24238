"""Sweep flipped-vote counts and find where tampering becomes visible.

For one questioned state, every county big enough to flip the statewide
outcome gets a detection curve: global significance as a function of flips,
in both directions. Counties whose outcome-determinative flip count stays
under the 4 sigma threshold are the unconstrained ones. Writes the chart and
the per-sample CSV next to this script.

Run:  python3 demos/sensitivity_sweep.py
"""

from pathlib import Path

from tamperscan import (
    BlindSpec,
    CvSettings,
    SyntheticSpec,
    generate_synthetic,
    prepare_blind_context,
    state_summary,
    sweep,
    unconstrained_counties,
)
from tamperscan.charts import write_sweep_chart
from tamperscan.scenarios import write_sweep_csv

STATE = "GA"
OUT = Path(__file__).resolve().parent / "out"


def main():
    dataset, _ = generate_synthetic(
        SyntheticSpec(n_counties=500, n_features=50, n_active=5, noise_sd=0.01, seed=7)
    )
    spec = BlindSpec(
        train_states=frozenset({"AL", "AZ", "CA", "CO", "MT", "TX", "WY"}),
        eval_states=frozenset({"GA", "MI", "PA", "WI"}),
        cv=CvSettings(l1_grid=(0.5, 1.0), n_alphas=25),
    )
    ctx = prepare_blind_context(dataset, spec)

    margin = state_summary(dataset, STATE).margin
    curves = sweep(dataset, spec, STATE, context=ctx)
    print(f"{STATE}: margin {margin:,.0f}, {len(curves)} detection curves")

    for c in curves:
        reach = "unconstrained" if c.unconstrained else (
            f"detected at k={c.k_detect:,}" if c.k_detect is not None else "never reaches 4 sigma in range"
        )
        print(f"  {c.county:<22} {c.direction.value:<6} {reach}")

    unc = unconstrained_counties(curves)
    print(f"\nunconstrained counties: {len(unc)}" + (f" ({', '.join(unc)})" if unc else ""))

    OUT.mkdir(exist_ok=True)
    write_sweep_csv(curves, OUT / f"sweep_{STATE}.csv")
    write_sweep_chart(curves, STATE, OUT / f"sweep_{STATE}.svg")
    print(f"wrote {OUT / f'sweep_{STATE}.csv'} and .svg")


if __name__ == "__main__":
    main()
