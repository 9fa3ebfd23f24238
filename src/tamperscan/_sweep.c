/* One cyclic coordinate-descent sweep of the covariance-form elastic net.
 *
 * The compiled twin of elastic_net._sweep_py: the same IEEE operations in
 * the same order, so both give bit-identical coefficients. Build without
 * FMA contraction (-ffp-contract=off), or `q[k] + d * G[j,k]` may round once
 * instead of twice. Plain C with no Python headers: elastic_net._compiled_sweep
 * builds it into a shared library and calls it through ctypes.
 *
 * G is p x p, c, diag (G's diagonal), denom (diag + ridge), beta and q
 * (= G beta) have p entries, all float64 and C-contiguous; beta and q are
 * updated in place. The caller, elastic_net._bind_sweep, checks all of this.
 * Returns the largest |move|.
 */
#include <math.h>
#include <stddef.h>

double
sweep(const double *G, const double *c, const double *diag, const double *denom,
      double *beta, double *q, ptrdiff_t p, double gamma)
{
    double max_delta = 0.0;

    for (ptrdiff_t j = 0; j < p; j++) {
        double old = beta[j], rho, new;
        if (denom[j] == 0.0)
            continue;
        if (old == 0.0) {
            rho = c[j] - q[j];
            if (-gamma <= rho && rho <= gamma)
                continue;
        } else {
            rho = c[j] - q[j] + diag[j] * old;
        }
        if (rho > gamma)
            new = (rho - gamma) / denom[j];
        else if (rho < -gamma)
            new = (rho + gamma) / denom[j];
        else
            new = 0.0;
        double d = new - old;
        if (d != 0.0) {
            const double *row = G + j * p;
            for (ptrdiff_t k = 0; k < p; k++)
                q[k] = q[k] + d * row[k];
            beta[j] = new;
            if (fabs(d) > max_delta)
                max_delta = fabs(d);
        }
    }
    return max_delta;
}
