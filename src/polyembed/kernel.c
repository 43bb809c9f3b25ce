/* The package's compiled kernels: the per-step loop of sgd.Engine.apply,
   the two sparse products of kernel.Csr and kernel.coo_matmat, and the
   text-matrix formatter of tables.write_rows.

   The step loop does the arithmetic of sgd.sgns_loss_and_grads and then the
   updates in the numpy engine's order: u[t], h[c], then each negative row
   in sequence. Every gradient comes from the values before the step's
   updates. Clamps are comparisons, so a NaN logit stays NaN (C's fmin and
   fmax would return the bound and let a NaN row train on).

   Returns the number of steps run: `steps`, or the index of the first step
   whose loss is not finite, which is left unapplied. `work` holds 2*dim +
   negatives doubles. Rows are checked against the tables by the caller.

   The products add a * x[j, :] into y[i, :] entry by entry in stored order,
   one multiply and one add per element, as scipy.sparse's csr_matvecs and
   coo_matmat_dense do; each output element sums its terms in that order,
   so the bits match scipy's. Indices are checked by the caller.

   The formatter writes the bytes of Python's "%d" and "%.17g" with integer
   arithmetic only; no libc printf is used. It formats +-0 and every value
   with 1e-16 < |x| < 1e17, and copies the caller's text for the others. */

#include <math.h>
#include <stdint.h>
#include <string.h>

static double clamp(double x, double bound)
{
    return x < -bound ? -bound : (x > bound ? bound : x);
}

int64_t sgd_steps(double *u, double *h, int64_t dim,
                  const int64_t *target, const int64_t *context,
                  const int64_t *negatives, int64_t r, int64_t steps,
                  const double *rates, double *losses, double *work,
                  double logit_clamp)
{
    double *g_u = work, *u_old = work + dim, *p_neg = work + 2 * dim;
    for (int64_t s = 0; s < steps; s++) {
        double *u_t = u + target[s] * dim, *h_c = h + context[s] * dim;
        const int64_t *neg = negatives + s * r;
        double s_pos = 0.0, neg_loss = 0.0;
        for (int64_t d = 0; d < dim; d++)
            s_pos += h_c[d] * u_t[d];
        double sp = clamp(s_pos, logit_clamp);
        for (int64_t j = 0; j < r; j++) {
            const double *h_n = h + neg[j] * dim;
            double dot = 0.0;
            for (int64_t d = 0; d < dim; d++)
                dot += h_n[d] * u_t[d];
            double e = exp(clamp(dot, logit_clamp));
            p_neg[j] = e / (1.0 + e);
            neg_loss += log1p(e);
        }
        double loss = log1p(exp(-sp)) + neg_loss;
        if (!isfinite(loss))
            return s;
        losses[s] = loss;
        double a = 1.0 / (1.0 + exp(-sp)) - 1.0;
        memset(g_u, 0, (size_t)dim * sizeof(double));
        for (int64_t j = 0; j < r; j++) {
            const double *h_n = h + neg[j] * dim;
            for (int64_t d = 0; d < dim; d++)
                g_u[d] += h_n[d] * p_neg[j];
        }
        for (int64_t d = 0; d < dim; d++)
            g_u[d] = a * h_c[d] + g_u[d];
        double lr = rates[s];
        memcpy(u_old, u_t, (size_t)dim * sizeof(double));
        for (int64_t d = 0; d < dim; d++)
            u_t[d] -= lr * g_u[d];
        for (int64_t d = 0; d < dim; d++)
            h_c[d] -= lr * (a * u_old[d]);
        for (int64_t j = 0; j < r; j++) {
            double *h_n = h + neg[j] * dim;
            for (int64_t d = 0; d < dim; d++)
                h_n[d] -= lr * (p_neg[j] * u_old[d]);
        }
    }
    return steps;
}


void csr_matmat(int64_t n_row, int64_t n_vecs, const int64_t *indptr,
                const int64_t *indices, const double *data,
                const double *restrict x, double *restrict y)
{
    for (int64_t i = 0; i < n_row; i++) {
        double *y_i = y + i * n_vecs;
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
            const double a = data[e], *x_j = x + indices[e] * n_vecs;
            for (int64_t d = 0; d < n_vecs; d++)
                y_i[d] += a * x_j[d];
        }
    }
}

void coo_matmat(int64_t nnz, int64_t n_vecs, const int64_t *rows,
                const int64_t *cols, const double *data,
                const double *restrict x, double *restrict y)
{
    for (int64_t e = 0; e < nnz; e++) {
        double *y_i = y + rows[e] * n_vecs;
        const double a = data[e], *x_j = x + cols[e] * n_vecs;
        for (int64_t d = 0; d < n_vecs; d++)
            y_i[d] += a * x_j[d];
    }
}

/* 5^0 .. 5^32; m * 5^32 < 2^128 for every 53-bit significand m */
#define P27 ((unsigned __int128)7450580596923828125u)
static const unsigned __int128 POW5[33] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u,
    9765625u, 48828125u, 244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u, 1490116119384765625u,
    7450580596923828125u, P27 * 5, P27 * 25, P27 * 125, P27 * 625, P27 * 3125};

#define E16 10000000000000000u
#define E17 100000000000000000u

/* floor(m * 2^e * 10^(16 - k)) = floor(m * 5^s * 2^(e + s)), s = 16 - k in
   [0, 32]; its remainder over 2^-(e + s) goes to *rem and *half (zero when
   e + s >= 0, when the product is an integer below 2^57). */
static uint64_t scaled(uint64_t m, int e, int k, unsigned __int128 *rem,
                       unsigned __int128 *half)
{
    int s = 16 - k, t = e + s;
    unsigned __int128 p = m * POW5[s];
    if (t >= 0) {
        *rem = *half = 0;
        return (uint64_t)(p << t);
    }
    *half = (unsigned __int128)1 << (-t - 1);
    *rem = p & ((*half << 1) - 1);
    return (uint64_t)(p >> -t);
}

/* the two digits of 0 .. 99 */
static const char PAIRS[] =
    "000102030405060708091011121314151617181920212223242526272829"
    "303132333435363738394041424344454647484950515253545556575859"
    "606162636465666768697071727374757677787980818283848586878889"
    "90919293949596979899";

/* the eight digits of v < 10^8 */
static void write8(char *d, uint32_t v)
{
    uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(d, PAIRS + 2 * (hi / 100), 2);
    memcpy(d + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(d + 6, PAIRS + 2 * (lo % 100), 2);
}

static char *write_int(char *o, int64_t v)
{
    char digits[20];
    int n = 0;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    if (v < 0)
        *o++ = '-';
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *o++ = digits[--n];
    return o;
}

/* "%.17g" of x with 1e-16 < |x| < 1e17, so k = floor(log10|x|) lies in
   [-16, 16]. k is the one whose truncated quotient q has 17 digits; only
   then is q rounded, half to even, and a carry to 10^17 moves k up by one,
   as %e's exponent does. No carry reaches k = 17: the largest double
   below 1e17 is 99999999999999984. So %g's fixed notation covers
   -4 <= k <= 16, and its exponent notation only k < -4. */
static char *write_g17(char *o, uint64_t bits)
{
    int e2 = (int)(bits >> 52 & 0x7ff) - 1023;
    uint64_t m = (bits & 0xfffffffffffffu) | (1ull << 52);
    int e = e2 - 52;
    int k = (e2 * 78913) >> 18;    /* floor(e2 * log10 2): k or k - 1 */
    k = k < -16 ? -16 : (k > 16 ? 16 : k);
    unsigned __int128 rem, half;
    uint64_t q;
    for (;;) {
        q = scaled(m, e, k, &rem, &half);
        if (q < E16)
            k--;
        else if (q >= E17)
            k++;
        else
            break;
    }
    if (rem > half || (rem == half && rem && (q & 1)))   /* both 0: exact */
        q++;
    if (q == E17) {
        q = E16;
        k++;
    }
    /* the text is laid out in t with fixed-size copies, then copied out
       whole: its 24 bytes fit in the 25 the caller gives each value. d is
       zero-padded so that 16 bytes can be copied from any digit */
    char d[33] = {0}, t[48], *p = t + (bits >> 63);
    int len;
    t[0] = '-';
    d[0] = (char)('0' + q / E16);
    q %= E16;
    write8(d + 1, (uint32_t)(q / 100000000u));
    write8(d + 9, (uint32_t)(q % 100000000u));
    int last = 16;                 /* the last digit kept: no trailing zeros */
    while (d[last] == '0')
        last--;
    if (k < -4) {                  /* d.ddde-XX */
        char exp[4] = {'e', '-', (char)('0' - k / 10), (char)('0' - k % 10)};
        p[0] = d[0];
        p[1] = '.';
        memcpy(p + 2, d + 1, 16);
        len = last ? last + 2 : 1;
        memcpy(p + len, exp, 4);
        len += 4;
    } else if (k >= 0) {           /* ddd.ddd */
        memcpy(p, d, 17);
        p[k + 1] = '.';
        memcpy(p + k + 2, d + k + 1, 16);
        len = last > k ? last + 2 : k + 1;
    } else {                       /* 0.000ddd */
        memcpy(p, "0.000", 5);
        memcpy(p + 1 - k, d, 17);
        len = 1 - k + last + 1;
    }
    len += (int)(p - t);
    memcpy(o, t, 24);
    return o + len;
}

/* Writes `rows` lines of `n_index` "%d" fields from index (rows, n_index)
   then `width` "%.17g" fields from values (rows, width), space-separated,
   into `out`, whose size the caller bounds by 21 bytes per index field and
   25 per value. The j-th value that is not formatted here (not +-0 and
   outside 1e-16 < |x| < 1e17: subnormals, inf and NaN too) is written as
   declined[ends[j - 1]:ends[j]]. Returns the bytes written, or -1 unless
   exactly `n_declined` values were declined; with none given, -1 says
   the rows hold a value to decline. */
int64_t format_rows(int64_t rows, int64_t n_index, const int64_t *index,
                    int64_t width, const double *values, const char *declined,
                    const int64_t *ends, int64_t n_declined, char *out)
{
    char *o = out;
    int64_t j = 0;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < n_index; c++) {
            o = write_int(o, index[r * n_index + c]);
            *o++ = ' ';
        }
        for (int64_t c = 0; c < width; c++) {
            double x = values[r * width + c], a = x < 0 ? -x : x;
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            if (x == 0) {
                if (bits >> 63)
                    *o++ = '-';
                *o++ = '0';
            } else if (a > 1e-16 && a < 1e17) {
                o = write_g17(o, bits);
            } else {
                if (j == n_declined)
                    return -1;
                int64_t start = j ? ends[j - 1] : 0;
                memcpy(o, declined + start, (size_t)(ends[j] - start));
                o += ends[j] - start;
                j++;
            }
            *o++ = ' ';
        }
        if (n_index + width)
            o--;
        *o++ = '\n';
    }
    return j == n_declined ? o - out : -1;
}
