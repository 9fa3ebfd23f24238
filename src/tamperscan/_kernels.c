/* The compiled kernels of tamperscan: plain C with no Python headers, built
 * into a shared library and called through ctypes by _kernels.library().
 *
 * Each function is the twin of a Python reference and does the same IEEE
 * operations in the same order, so both give the same bits:
 *
 *   sweep            elastic_net._sweep_py
 *   normal_quantile  statistics.NormalDist().inv_cdf (anomaly._normal_quantile_py)
 *   erfc_array       math.erfc (anomaly._erfc_py)
 *
 * Build without FMA contraction (-ffp-contract=off), or `q[k] + d * G[j,k]`
 * and the Horner steps may round once instead of twice. The callers check
 * shapes, dtypes and the domain before any call.
 */
#include <math.h>
#include <stddef.h>

/* One cyclic coordinate-descent sweep of the covariance-form elastic net.
 *
 * G is p x p, c, diag (G's diagonal), denom (diag + ridge), beta and q
 * (= G beta) have p entries, all float64 and C-contiguous; beta and q are
 * updated in place. The caller, elastic_net._bind_sweep, checks all of this.
 * Returns the largest |move|.
 */
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

/* The standard normal quantile of one p in (0, 1): Wichura's AS241 (Appl.
 * Statist. 37, 1988) with CPython's constants, Horner order and final
 * mu + x * sigma at mu = 0, sigma = 1, which turns -0.0 into 0.0.
 */
static double
quantile(double p)
{
    double q = p - 0.5, r, num, den, x;

    if (fabs(q) <= 0.425) {
        r = 0.180625 - q * q;
        num = (((((((2.5090809287301226727e+3 * r +
                     3.3430575583588128105e+4) * r +
                     6.7265770927008700853e+4) * r +
                     4.5921953931549871457e+4) * r +
                     1.3731693765509461125e+4) * r +
                     1.9715909503065514427e+3) * r +
                     1.3314166789178437745e+2) * r +
                     3.3871328727963666080e+0) * q;
        den = (((((((5.2264952788528545610e+3 * r +
                     2.8729085735721942674e+4) * r +
                     3.9307895800092710610e+4) * r +
                     2.1213794301586595867e+4) * r +
                     5.3941960214247511077e+3) * r +
                     6.8718700749205790830e+2) * r +
                     4.2313330701600911252e+1) * r +
                     1.0);
        x = num / den;
        return 0.0 + x * 1.0;
    }
    r = q <= 0.0 ? p : 1.0 - p;
    r = sqrt(-log(r));
    if (r <= 5.0) {
        r = r - 1.6;
        num = (((((((7.7454501427834140764e-4 * r +
                     2.2723844989269184583e-2) * r +
                     2.4178072517745061177e-1) * r +
                     1.2704582524523683826e+0) * r +
                     3.6478483247632045025e+0) * r +
                     5.7694972214606914055e+0) * r +
                     4.6303378461565452959e+0) * r +
                     1.4234371107496835773e+0);
        den = (((((((1.0507500716444168432e-9 * r +
                     5.4759380849953449460e-4) * r +
                     1.5198666563616457197e-2) * r +
                     1.4810397642748007459e-1) * r +
                     6.8976733498510000455e-1) * r +
                     1.6763848301838038494e+0) * r +
                     2.0531916266377588219e+0) * r +
                     1.0);
    } else {
        r = r - 5.0;
        num = (((((((2.0103343992922881326e-7 * r +
                     2.7115555687434875782e-5) * r +
                     1.2426609473880784386e-3) * r +
                     2.6532189526576123093e-2) * r +
                     2.9656057182850489123e-1) * r +
                     1.7848265399172913358e+0) * r +
                     5.4637849111641143699e+0) * r +
                     6.6579046435011037772e+0);
        den = (((((((2.0442631033899397856e-15 * r +
                     1.4215117583164458887e-7) * r +
                     1.8463183175100546818e-5) * r +
                     7.8686913114561329059e-4) * r +
                     1.4875361290850614853e-2) * r +
                     1.3692988092273580531e-1) * r +
                     5.9983220655588793769e-1) * r +
                     1.0);
    }
    x = num / den;
    if (q < 0.0)
        x = -x;
    return 0.0 + x * 1.0;
}

/* out[i] = the standard normal quantile of p[i], for n values of p, each
 * finite and in (0, 1) (anomaly._normal_quantile checks this). */
void
normal_quantile(const double *p, double *out, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = quantile(p[i]);
}

/* out[i] = erfc(x[i]) from the C library, as math.erfc computes it. */
void
erfc_array(const double *x, double *out, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = erfc(x[i]);
}
