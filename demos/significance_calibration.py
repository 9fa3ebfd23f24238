"""How big does a single-county anomaly have to be before it means anything?

Prints the local-to-global significance conversion for a few evaluation-set
sizes, both in closed form and from Monte Carlo extreme-value simulation, and
the probability the 4 sigma detection threshold corresponds to.

Run:  python3 demos/significance_calibration.py
"""

from tamperscan import (
    McConfig,
    analytic_sigma_curve,
    global_significance_mc,
    two_sided_p,
)

TRIALS = 200_000


def main():
    p4 = two_sided_p(4.0)
    print(f"a 4 sigma global anomaly has p = {p4:.3g}, about 1 in {1 / p4:,.0f}\n")

    print("local z -> global sigma (analytic | MC, one line per eval-set size)")
    for n in (100, 381, 3112):
        cfg = McConfig(n_counties=n, trials=TRIALS, seed=0)
        cells = []
        zs = (3.0, 4.0, 5.0, 6.0)
        for z, ana in zip(zs, analytic_sigma_curve(zs, n).tolist()):
            mc = global_significance_mc(z, cfg)
            tag = f"{mc.sigma:.2f}" if not mc.bounded else "beyond table"
            cells.append(f"z={z:.0f}: {ana:5.2f} | {tag}")
        print(f"  N={n:<5}  " + "   ".join(cells))

    print()
    print("reading: an anomaly that looks like 4 sigma in isolation is routine")
    print("when you picked it as the worst of 3,112 counties; past 5 sigma it")
    print("starts to mean something at any realistic N.")


if __name__ == "__main__":
    main()
