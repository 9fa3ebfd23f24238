/* The compiled kernels of tamperscan: plain C with no Python headers, built
 * into a shared library and called through ctypes by _kernels.library().
 *
 * Each function is the twin of a Python reference and gives the same bits
 * (the same bytes, for the formatter):
 *
 *   descend          elastic_net._descend_py (with descend_work, its size)
 *   normal_quantile  statistics.NormalDist().inv_cdf (anomaly._normal_quantile_py)
 *   erfc_array       math.erfc (anomaly._erfc_py)
 *   format_values    (layout * reps) % tuple(x), with %r, %.2f and %d
 *                    (data_model.format_floats)
 *   read_csv         csv.reader on comma-separated text, each cell a number
 *                    (float() or _to_float), text or skipped; it knows no
 *                    column's meaning (ingest._read_rows_py)
 *
 * Build without FMA contraction (-ffp-contract=off), or `q[k] + d * G[j,k]`
 * and the Horner steps may round once instead of twice. Vectorizing, as -O2
 * does to the q update (add_row), moves no bit: each q[k] stays one rounded
 * product and one rounded sum, and no sum is reassociated. The callers check
 * shapes, dtypes and the domain before any call; format_values and
 * read_csv check their own, and return -1 for the caller to run the
 * reference instead.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The coordinate descent of one elastic-net path point in covariance form,
 * Anderson-accelerated (Bertrand & Massias, AISTATS 2021).
 *
 * G is p x p, c, beta and q have p entries, all float64 and C-contiguous;
 * beta is updated in place, and q is set to G beta, then kept so. work holds
 * descend_work(p, K) doubles. The caller, elastic_net._bind_descent, checks
 * all of this. Every sum is a left-to-right sum of rounded terms (GCC
 * vectorizes none of them without -ffast-math), so each result is the one
 * its reference, elastic_net._descend_py, gets with np.add.accumulate.
 */

/* a[0] * b[0] + a[1] * b[1] + ..., left to right, for n >= 1. */
static double
dot(const double *a, const double *b, ptrdiff_t n)
{
    double s = a[0] * b[0];

    for (ptrdiff_t i = 1; i < n; i++)
        s = s + a[i] * b[i];
    return s;
}

/* 1/2 x.Gx - c.x + gamma |x|_1 + ridge/2 |x|^2, with Gx given as gx. */
static double
objective(const double *x, const double *gx, const double *c, ptrdiff_t p,
          double gamma, double ridge)
{
    double l1 = fabs(x[0]);

    for (ptrdiff_t i = 1; i < p; i++)
        l1 = l1 + fabs(x[i]);
    return 0.5 * dot(x, gx, p) - dot(c, x, p) + gamma * l1 + 0.5 * ridge * dot(x, x, p);
}

/* q += d row, one rounded product and one rounded sum per entry. Written
 * out eight entries at a time, the loop body is vectorized at -O2 (GCC's
 * straight-line SLP pass; its loop vectorizer skips a loop of unknown trip
 * count there), and its speed no longer depends on where the linker puts
 * it: a plain loop built at -O3 ran up to 30% slower or faster as unrelated
 * code around it changed. */
static void
add_row(double *restrict q, const double *restrict row, double d, ptrdiff_t p)
{
    ptrdiff_t k = 0;

    for (; k + 8 <= p; k += 8) {
        q[k] = q[k] + d * row[k];
        q[k + 1] = q[k + 1] + d * row[k + 1];
        q[k + 2] = q[k + 2] + d * row[k + 2];
        q[k + 3] = q[k + 3] + d * row[k + 3];
        q[k + 4] = q[k + 4] + d * row[k + 4];
        q[k + 5] = q[k + 5] + d * row[k + 5];
        q[k + 6] = q[k + 6] + d * row[k + 6];
        q[k + 7] = q[k + 7] + d * row[k + 7];
    }
    for (; k < p; k++)
        q[k] = q[k] + d * row[k];
}

/* q = G beta as the sum of beta_j G[j] over the nonzero beta_j in j order,
 * from zero, each added as a move of beta_j would be. */
static void
set_q(const double *G, const double *beta, double *q, ptrdiff_t p)
{
    for (ptrdiff_t k = 0; k < p; k++)
        q[k] = 0.0;
    for (ptrdiff_t j = 0; j < p; j++)
        if (beta[j] != 0.0)
            add_row(q, G + j * p, beta[j], p);
}

/* One cyclic sweep; returns the largest |move|. Coordinate j's update
 * soft-thresholds rho = c_j - q_j + G_jj beta_j by gamma and divides by
 * denom_j = G_jj + ridge; a coordinate with denom_j 0 never moves, and one
 * at zero whose |c_j - q_j| is within gamma is skipped. */
static double
sweep(const double *G, const double *c, const double *denom, double *beta, double *q,
      ptrdiff_t p, double gamma)
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
            rho = c[j] - q[j] + G[j * p + j] * old;
        }
        if (rho > gamma)
            new = (rho - gamma) / denom[j];
        else if (rho < -gamma)
            new = (rho + gamma) / denom[j];
        else
            new = 0.0;
        double d = new - old;
        if (d != 0.0) {
            add_row(q, G + j * p, d, p);
            beta[j] = new;
            if (fabs(d) > max_delta)
                max_delta = fabs(d);
        }
    }
    return max_delta;
}

/* z = the solution of M z = (1, ..., 1) for the k x k matrix M, row-major
 * and overwritten: Gaussian elimination with partial pivoting (the first
 * largest |entry| of a column), then back substitution. Returns 0 at a
 * zero or non-finite pivot. */
static int
solve_ones(double *M, double *z, ptrdiff_t k)
{
    for (ptrdiff_t i = 0; i < k; i++)
        z[i] = 1.0;
    for (ptrdiff_t col = 0; col < k; col++) {
        ptrdiff_t piv = col;
        for (ptrdiff_t r = col + 1; r < k; r++)
            if (fabs(M[r * k + col]) > fabs(M[piv * k + col]))
                piv = r;
        double pivot = M[piv * k + col];
        if (pivot == 0.0 || !isfinite(pivot))
            return 0;
        if (piv != col) {
            for (ptrdiff_t j = col; j < k; j++) {
                double t = M[col * k + j];
                M[col * k + j] = M[piv * k + j];
                M[piv * k + j] = t;
            }
            double t = z[col];
            z[col] = z[piv];
            z[piv] = t;
        }
        for (ptrdiff_t r = col + 1; r < k; r++) {
            double f = M[r * k + col] / pivot;
            for (ptrdiff_t j = col + 1; j < k; j++)
                M[r * k + j] = M[r * k + j] - f * M[col * k + j];
            z[r] = z[r] - f * z[col];
        }
    }
    for (ptrdiff_t i = k - 1; i >= 0; i--) {
        double s = z[i];
        for (ptrdiff_t j = i + 1; j < k; j++)
            s = s - M[i * k + j] * z[j];
        z[i] = s / M[i * k + i];
    }
    return 1;
}

/* An accepted candidate whose weights have sum(|w|) above this gets its q
 * from set_q, not from the combination: rounding in Q, scaled by large
 * weights, drifted q from G beta by up to 1e-7 of max|G| |beta|_1 on a
 * collinear design, and by 5e-13 with this bound. */
#define EXACT_Q_ABOVE 1e3

/* The Anderson candidate of the window's iterates X[0..K] (rows of p) and
 * the q of X[1..K] (rows of Q): with U the rows X[a+1] - X[a], solve
 * (U U')z = 1 and weight X[1..K] and Q by w = z / sum(z), summed over the
 * rows in order; + 0.0 keeps a coefficient that is zero in every iterate
 * +0.0. Writes the candidate, its q and sum(|w|) to spread; returns 0, and
 * writes nothing certain, when the system is singular or anything is
 * non-finite. */
static int
extrapolate(const double *X, const double *Q, double *U, double *M, double *w,
            double *cand, double *cq, ptrdiff_t p, ptrdiff_t K, double *spread)
{
    for (ptrdiff_t a = 0; a < K; a++)
        for (ptrdiff_t i = 0; i < p; i++)
            U[a * p + i] = X[(a + 1) * p + i] - X[a * p + i];
    for (ptrdiff_t a = 0; a < K; a++)
        for (ptrdiff_t b = a; b < K; b++)
            M[a * K + b] = M[b * K + a] = dot(U + a * p, U + b * p, p);
    if (!solve_ones(M, w, K))
        return 0;
    double total = w[0];
    for (ptrdiff_t a = 1; a < K; a++)
        total = total + w[a];
    for (ptrdiff_t a = 0; a < K; a++)
        if (!isfinite(w[a]))
            return 0;
    if (total == 0.0 || !isfinite(total))
        return 0;
    for (ptrdiff_t a = 0; a < K; a++)
        w[a] = w[a] / total;
    *spread = fabs(w[0]);
    for (ptrdiff_t a = 1; a < K; a++)
        *spread = *spread + fabs(w[a]);
    for (ptrdiff_t i = 0; i < p; i++) {
        double x = w[0] * X[p + i], g = w[0] * Q[i];
        for (ptrdiff_t a = 1; a < K; a++) {
            x = x + w[a] * X[(a + 1) * p + i];
            g = g + w[a] * Q[a * p + i];
        }
        cand[i] = x + 0.0;
        cq[i] = g;
    }
    for (ptrdiff_t i = 0; i < p; i++)
        if (!isfinite(cand[i]) || !isfinite(cq[i]))
            return 0;
    return 1;
}

/* The doubles of work that descend needs for p coefficients and a window
 * of K sweeps. */
ptrdiff_t
descend_work(ptrdiff_t p, ptrdiff_t K)
{
    return (3 * K + 4) * p + K * K + K;
}

/* Sweeps on beta until one moves no coefficient by tol or more, or
 * max_iter sweeps; returns 1 if it stopped on tol. counts[0] gets the
 * sweeps and counts[1] the accepted extrapolations.
 *
 * q starts as set_q makes it, whatever it held: a warm start depends on
 * beta alone, not on the descent that made it.
 *
 * With K > 0, every K sweeps the window's last K + 1 iterates give an
 * Anderson candidate (extrapolate), whose q is the same combination of the
 * iterates' q, so both objectives cost O(Kp). The candidate replaces beta
 * and q only if its objective is lower than the current iterate's; q is
 * then remade by set_q where the weights are large (EXACT_Q_ABOVE). A
 * skipped or rejected step restarts the window all the same.
 * Extrapolation is not a sweep and never ends the descent. K = 0 turns it
 * off.
 */
int
descend(const double *G, const double *c, double *beta, double *q, double *work,
        ptrdiff_t p, ptrdiff_t K, double gamma, double ridge, double tol,
        ptrdiff_t max_iter, ptrdiff_t *counts)
{
    double *denom = work, *X = denom + p, *Q = X + (K + 1) * p, *U = Q + K * p;
    double *cand = U + K * p, *cq = cand + p, *M = cq + p, *w = M + K * K;
    ptrdiff_t filled = 0, extrapolations = 0;
    double spread;

    for (ptrdiff_t j = 0; j < p; j++)
        denom[j] = G[j * p + j] + ridge;
    set_q(G, beta, q, p);
    if (K > 0)
        memcpy(X, beta, p * sizeof *X);
    for (ptrdiff_t sweeps = 1; sweeps <= max_iter; sweeps++) {
        if (sweep(G, c, denom, beta, q, p, gamma) < tol) {
            counts[0] = sweeps;
            counts[1] = extrapolations;
            return 1;
        }
        if (K == 0)
            continue;
        memcpy(X + (filled + 1) * p, beta, p * sizeof *X);
        memcpy(Q + filled * p, q, p * sizeof *Q);
        if (++filled < K)
            continue;
        if (extrapolate(X, Q, U, M, w, cand, cq, p, K, &spread)
            && objective(cand, cq, c, p, gamma, ridge) < objective(beta, q, c, p, gamma, ridge)) {
            memcpy(beta, cand, p * sizeof *beta);
            if (spread > EXACT_Q_ABOVE)
                set_q(G, beta, q, p);
            else
                memcpy(q, cq, p * sizeof *q);
            extrapolations++;
        }
        filled = 0;
        memcpy(X, beta, p * sizeof *X);
    }
    counts[0] = max_iter;
    counts[1] = extrapolations;
    return 0;
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

/* Text for floats: format_values writes repr(x) and '%.2f' % x from x =
 * m * 2^e with exact integer arithmetic, for zero and 2^-60 <= |x| < 2^52.
 * It declines any other value (NaN, +-inf, subnormal, tiny or large), and
 * every value where the compiler has no unsigned __int128.
 */

/* The decimal digits of n at p; returns their count. */
static int
put_uint(char *p, uint64_t n)
{
    char tmp[20];
    int len = 0;

    do {
        tmp[len++] = (char)('0' + n % 10);
        n /= 10;
    } while (n);
    for (int i = 0; i < len; i++)
        p[i] = tmp[len - 1 - i];
    return len;
}

/* '%d' % x, which is int(x) in decimal, for |x| < 2^52. */
static int
put_int(char *p, double x)
{
    if (!(fabs(x) < 4503599627370496.0))  /* NaN fails too */
        return -1;
    int64_t v = (int64_t)x;  /* truncates toward zero, as int() does */
    if (v < 0) {
        *p = '-';
        return 1 + put_uint(p + 1, (uint64_t)-v);
    }
    return put_uint(p, (uint64_t)v);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* |x| = m * 2^e with m in [2^52, 2^53) and -112 <= e <= -1 when
 * 2^-60 <= |x| < 2^52; returns 0 for any other x. */
static int
split(double x, uint64_t *m, int *e)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    if (biased < 1023 - 60 || biased > 1023 + 51)
        return 0;
    *m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    *e = biased - 1075;
    return 1;
}

/* The digit loop of repr for x = m * 2^e, in an unsigned type T that holds
 * 11 * 2^(2 - e): uint64_t for e >= -58, that is |x| >= 2^-6, and u128
 * below. Every integer digit, m >> -e, is needed: the gap to either
 * neighbour is at most 1/2. The fraction is R / D with D = 2^s, and mlo / D
 * and mhi / D are the half-gaps below and above x, the one below halved
 * when m = 2^52. Each fraction digit multiplies all three by 10.
 *
 * Writes the fraction digits before the last into frac (40 bytes), sets
 * *dig to the last digit (the integer part when there is no fraction
 * digit) and *up to whether it rounds up; returns the count written, -1
 * when the integer part is the last digit, or -2 (never: 18 leading zeros
 * and 17 digits at most) when frac fills.
 *
 * The loop stops once dropping R (low) or rounding up (high) stays within a
 * half-gap; if both do, it takes the nearer digit, and the even one at a
 * tie. A boundary x -+ half-gap has 1 - e fraction digits, one more than x,
 * so R never lands on one, and dtoa's rule for a boundary (it counts when m
 * is even) never applies in this range.
 */
#define REPR_DIGITS(NAME, T)                                                   \
    static int NAME(uint64_t m, int e, char *frac, uint64_t *dig, int *up)     \
    {                                                                          \
        int s = 2 - e, nf = -1;                                                \
        T D = (T)1 << s, R = ((T)m << 2) & (D - 1);                            \
        T mlo = m == UINT64_C(1) << 52 ? 1 : 2, mhi = 2;                       \
        *dig = -e < 53 ? m >> -e : 0;                                          \
        for (;;) {                                                             \
            int low = R < mlo, high = R + mhi > D;                             \
            if (low || high) {                                                 \
                *up = high && (!low || (R << 1) > D || ((R << 1) == D && (*dig & 1))); \
                return nf;                                                     \
            }                                                                  \
            if (nf >= 0)                                                       \
                frac[nf] = (char)('0' + *dig);                                 \
            if (++nf == 40)                                                    \
                return -2;                                                     \
            R *= 10;                                                           \
            mlo *= 10;                                                         \
            mhi *= 10;                                                         \
            *dig = (uint64_t)(R >> s);                                         \
            R &= D - 1;                                                        \
        }                                                                      \
    }

REPR_DIGITS(repr_digits64, uint64_t)
REPR_DIGITS(repr_digits128, u128)

/* repr(x): the shortest digits that read back as x, chosen as David Gay's
 * dtoa does in mode 0 (Steele and White's free-format rule), laid out as
 * float_repr lays them out. Writes at most 24 bytes. */
static int
put_repr(char *p, double x)
{
    char *start = p, frac[40];
    int nf, e, up;
    uint64_t m, dig;

    if (signbit(x))
        *p++ = '-';
    if (x == 0.0) {
        memcpy(p, "0.0", 3);
        return (int)(p - start) + 3;
    }
    if (!split(x, &m, &e))
        return -1;
    nf = e >= -58 ? repr_digits64(m, e, frac, &dig, &up) : repr_digits128(m, e, frac, &dig, &up);
    if (nf < -1)
        return -1;
    uint64_t integer = -e < 53 ? m >> -e : 0;
    if (nf < 0) {
        integer += up;
        nf = 0;
    } else if (dig + up > 9) {
        return -1;  /* never: the digit before would have stopped */
    } else {
        frac[nf++] = (char)('0' + dig + up);
    }

    if (integer > 0 || nf == 0) {
        p += put_uint(p, integer);
        *p++ = '.';
        if (nf == 0)
            *p++ = '0';
        memcpy(p, frac, nf);
        return (int)(p - start) + nf;
    }
    int zeros = 0;
    while (frac[zeros] == '0')
        zeros++;
    if (zeros < 4) {  /* 1e-4 <= |x| < 1 */
        memcpy(p, "0.", 2);
        memcpy(p + 2, frac, nf);
        return (int)(p - start) + 2 + nf;
    }
    *p++ = frac[zeros];
    if (nf - zeros > 1) {
        *p++ = '.';
        memcpy(p, frac + zeros + 1, nf - zeros - 1);
        p += nf - zeros - 1;
    }
    /* |x| >= 2^-60 > 1e-19, so the exponent has two digits */
    int exp10 = zeros + 1;
    memcpy(p, "e-", 2);
    p[2] = (char)('0' + exp10 / 10);
    p[3] = (char)('0' + exp10 % 10);
    return (int)(p - start) + 4;
}

/* '%.2f' % x: x * 100 = m * 100 / 2^-e rounded half to even, with x's sign
 * even when that is zero. Writes at most 20 bytes. */
static int
put_fixed2(char *p, double x)
{
    char *start = p;
    int e;
    uint64_t m;

    if (signbit(x))
        *p++ = '-';
    if (x == 0.0) {
        memcpy(p, "0.00", 4);
        return (int)(p - start) + 4;
    }
    if (!split(x, &m, &e))
        return -1;
    u128 v = (u128)m * 100, half = (u128)1 << (-e - 1), r = v & ((half << 1) - 1);
    uint64_t q = (uint64_t)(v >> -e);
    if (r > half || (r == half && (q & 1)))
        q++;
    p += put_uint(p, q / 100);
    p[0] = '.';
    p[1] = (char)('0' + q / 10 % 10);
    p[2] = (char)('0' + q % 10);
    return (int)(p - start) + 3;
}
#else
static int
put_repr(char *p, double x)
{
    (void)p;
    (void)x;
    return -1;
}

static int
put_fixed2(char *p, double x)
{
    (void)p;
    (void)x;
    return -1;
}
#endif

/* (layout * reps) % tuple(x[:n]) as Python computes it, for a layout whose
 * conversions are %r, %.2f, %d and %%, into out, which holds cap bytes;
 * returns the length. Returns -1 if the layout has any other conversion,
 * the conversions do not take exactly n values, a value is declined or out
 * has fewer than 32 bytes to spare before a value; the caller then runs
 * the reference. */
ptrdiff_t
format_values(const char *layout, ptrdiff_t reps, const double *x, ptrdiff_t n,
              char *out, ptrdiff_t cap)
{
    const double *end = x + n;
    ptrdiff_t len = 0;

    for (ptrdiff_t r = 0; r < reps; r++) {
        for (const char *c = layout; *c; c++) {
            int w;
            if (*c != '%' || c[1] == '%') {
                if (len == cap)
                    return -1;
                out[len++] = *c;
                c += *c == '%';
                continue;
            }
            if (cap - len < 32 || x == end)
                return -1;
            c++;
            if (*c == 'r')
                w = put_repr(out + len, *x++);
            else if (*c == 'd')
                w = put_int(out + len, *x++);
            else if (c[0] == '.' && c[1] == '2' && c[2] == 'f') {
                c += 2;
                w = put_fixed2(out + len, *x++);
            } else
                return -1;
            if (w < 0)
                return -1;
            len += w;
        }
    }
    return x == end ? len : -1;
}

/* Reading comma-separated text: read_csv tokenises the rows of a file
 * that csv.reader (default dialect) splits into the same cells, and
 * converts its number cells when float() gives the value in one IEEE
 * operation. Anything else it declines, and the caller runs the reference
 * reader.
 */

/* The powers of ten that a double holds exactly. */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* The number that starts at p, when it is [+-]digits[.digits][e[+-]digits]
 * (or with the digits before the point left out) and float() of it is one
 * IEEE operation: its digits make an integer m <= 2^53, scaled by 10^k with
 * |k| <= 22. m and 10^k are then exact doubles, so m * 10^k or m / 10^k
 * rounds once, to the nearest double, which is float()'s value (Clinger,
 * PLDI 1990). Sets *out and returns where the number ends, or returns NULL
 * for any other text, which float() may still read. The caller checks that
 * the cell ends where the number does. */
static const unsigned char *
decimal(const unsigned char *p, const unsigned char *end, double *out)
{
    uint64_t m = 0;
    int neg = 0, digits = 0, k = 0;

    if (p < end && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    for (; p < end && *p >= '0' && *p <= '9'; p++, digits++)
        m = m * 10 + (uint64_t)(*p - '0');
    if (p < end && *p == '.')
        for (p++; p < end && *p >= '0' && *p <= '9'; p++, digits++, k--)
            m = m * 10 + (uint64_t)(*p - '0');
    if (digits == 0 || digits > 19)  /* 19 digits cannot overflow m */
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = 0, e = 0, edigits = 0;
        if (++p < end && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        for (; p < end && *p >= '0' && *p <= '9'; p++, edigits++)
            if (e < 1000)
                e = e * 10 + (*p - '0');
        if (!edigits)
            return NULL;
        k += eneg ? -e : e;
    }
    if (m > UINT64_C(1) << 53 || k < -22 || k > 22)
        return NULL;
    double v = k < 0 ? (double)m / POW10[-k] : (double)m * POW10[k];
    *out = neg ? -v : v;
    return p;
}

/* The number of lines in s[0:len], a last one without '\n' included. */
ptrdiff_t
count_lines(const char *s, ptrdiff_t len)
{
    ptrdiff_t n = 0;
    const char *p = s, *end = s + len;

    while ((p = memchr(p, '\n', (size_t)(end - p))) != NULL) {
        n++;
        p++;
    }
    return n + (len > 0 && s[len - 1] != '\n');
}

/* Read `rows` rows of `width` cells from s[0:len], which holds exactly
 * those rows, each ended by "\n", "\r\n" or (the last) the end of s.
 * kinds[c] says what column c holds:
 *
 *   'n'  a number, written to values (rows x the number of 'n' columns,
 *        row-major) where decimal() reads the whole cell. Any other cell
 *        is slow: its index in values and its byte span, quotes included,
 *        go to slow (cap rows of three) for the caller to convert.
 *   't'  text: its byte span, quotes included, goes to spans (rows x the
 *        number of 't' columns, start and end).
 *   '-'  skipped, its content unread.
 *
 * A quoted cell is one whose first byte is '"'; it ends at the next '"'
 * that is not doubled. Returns the number of slow cells, or -1 where the
 * file strays from what csv.reader reads the same way or where the caller
 * would need more than spans: a quote anywhere but around a whole cell, a
 * quoted line end, a lone "\r", a blank line, a row with another number of
 * cells, a NUL byte, a byte >= 0x80 outside a 't' cell, a cell
 * longer than max_cell bytes (csv.reader's field_size_limit), or more than
 * cap slow cells.
 */
ptrdiff_t
read_csv(const char *text, ptrdiff_t len, const char *kinds, ptrdiff_t width, ptrdiff_t rows,
         ptrdiff_t max_cell, double *values, ptrdiff_t *spans, ptrdiff_t *slow, ptrdiff_t cap)
{
    const unsigned char *s = (const unsigned char *)text, *p = s, *end = s + len;
    ptrdiff_t nvalue = 0, nslow = 0;
    unsigned char stop[256] = {0};  /* the bytes that end or spoil an unquoted run */

    stop['"'] = stop['\n'] = stop['\r'] = stop[0] = stop[','] = 1;
    memset(stop + 0x80, 1, 0x80);
    for (ptrdiff_t r = 0; r < rows; r++) {
        if (p == end || *p == '\n' || *p == '\r')
            return -1;
        for (ptrdiff_t c = 0; c < width; c++) {
            const unsigned char *cell = p, *a, *b, *num = NULL;  /* the content is [a, b) */
            char kind = kinds[c];
            int high = 0, quoted = *p == '"';
            double v = 0.0;
            if (quoted) {
                for (p++;; p++) {
                    if (p == end || *p == '\n' || *p == '\r' || *p == 0)
                        return -1;  /* unterminated, or a quoted line end */
                    if (*p == '"' && (p + 1 == end || p[1] != '"'))
                        break;
                    p += *p == '"';  /* a doubled quote stays in the content */
                    high |= *p >= 0x80;
                }
                a = cell + 1;
                b = p++;
                if (kind == 'n' && decimal(a, b, &v) == b)
                    num = b;
            } else {
                if (kind == 'n' && (num = decimal(p, end, &v)) != NULL)
                    p = num;
                for (;;) {
                    while (p < end && !stop[*p])
                        p++;
                    if (p == end || *p == ',' || *p == '\n' || *p == '\r')
                        break;
                    if (*p < 0x80)
                        return -1;  /* a quote inside the cell, or a NUL */
                    high = 1;
                    p++;
                }
                a = cell;
                b = p;
            }
            if (b - a > max_cell)
                return -1;
            if (c + 1 < width) {
                if (p == end || *p++ != ',')
                    return -1;  /* too few cells, or text after a closing quote */
            } else if (p < end) {
                p += *p == '\r';
                if (p == end || *p++ != '\n')
                    return -1;  /* too many cells, a lone CR, or text after a quote */
            }

            if (high && kind != 't')
                return -1;
            if (kind == 'n') {
                if (num == b) {
                    values[nvalue] = v;
                } else {
                    if (nslow == cap)
                        return -1;
                    slow[3 * nslow] = nvalue;
                    slow[3 * nslow + 1] = cell - s;
                    slow[3 * nslow + 2] = b - s + quoted;
                    nslow++;
                }
                nvalue++;
            } else if (kind == 't') {
                *spans++ = cell - s;
                *spans++ = b - s + quoted;
            }
        }
    }
    return p == end ? nslow : -1;
}
