"""Full pipeline on synthetic data: fit, score, then plant tampering and watch
it surface.

Generates a 500-county dataset with a known sparse demographic model, fits it
blind to the truth, and confirms the residuals are clean. Then flips enough
ballots in one large county to move its share by eight noise widths and reruns
the exact same analysis. The point of the demo is the contrast between the two
rankings.

Run:  python3 demos/synthetic_walkthrough.py
"""

# tamperscan before numpy: its import pins numpy's BLAS to one thread, as the CLI runs it
from tamperscan import (
    CvSettings,
    Direction,
    InjectionSpec,
    SyntheticSpec,
    fit_cv,
    fit_width,
    generate_synthetic,
    inject_flips,
    rank_anomalies,
    residuals,
    score_counties,
)

import numpy as np

SPEC = SyntheticSpec(n_counties=500, n_features=50, n_active=5, noise_sd=0.01, seed=7)


def analyze(dataset, label):
    settings = CvSettings(l1_grid=(0.5, 1.0), n_alphas=25)
    cv, model = fit_cv(dataset.X, dataset.shares(), dataset.feature_names, settings)
    resid = residuals(model, dataset)
    scores = score_counties(resid, fit_width(resid))

    print(f"--- {label} ---")
    print(f"selected penalty: l1_ratio={cv.selected.l1_ratio} alpha={cv.selected.alpha:.2e}")
    print(f"kept {model.nonzero_count} of {len(model.coefficients)} features, "
          f"rms residual {100 * resid.rms:.2f}%")
    for row in rank_anomalies(scores, top_n=5):
        print(f"  {row['fips']}  {row['county']:<22} local {row['local_sigma']:>5}  "
              f"global {row['global_sigma']}")
    print()
    return scores


def main():
    dataset, true_beta = generate_synthetic(SPEC)
    print(f"{dataset.n} synthetic counties, "
          f"{np.count_nonzero(true_beta)} features truly active\n")

    analyze(dataset, "untampered")

    # flip ballots in the biggest county: share moves by 8x the noise width
    totals = dataset.rep + dataset.dem
    i = int(np.argmax(totals))
    k = int(round(8 * SPEC.noise_sd * totals[i]))
    victim = dataset.keys[i]
    print(f"flipping {k:,} ballots R to D in {victim.name} ({victim.fips}), "
          f"two-party total {int(totals[i]):,}\n")
    tampered = inject_flips(
        dataset, InjectionSpec(fips=victim.fips, k=k, direction=Direction.R_TO_D)
    )

    scores = analyze(tampered, "tampered")
    top = scores[0]  # score_counties ranks most anomalous first
    hit = "tampered county is the #1 anomaly" if top.key.fips == victim.fips \
        else "tampered county NOT on top (unexpected)"
    print(f"{hit}; global significance {top.global_sigma:.1f} sigma")


if __name__ == "__main__":
    main()
