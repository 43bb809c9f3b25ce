/* The package's compiled kernels: the per-step loop of sgd.Engine.apply,
   the step decode of sgd.decode, the two sparse products of kernel.Csr and
   kernel.coo_matmat, the text-matrix formatter of tables.write_rows, and
   the candidate draw of evaluation._candidates.

   The step loop does the arithmetic of sgd.sgns_loss_and_grads and then the
   updates in the numpy engine's order: u[t], h[c], then each negative row
   in sequence. Every gradient comes from the values before the step's
   updates. Clamps are comparisons, so a NaN logit stays NaN (C's fmin and
   fmax would return the bound and let a NaN row train on).

   Returns the number of steps run: `steps`, or the index of the first step
   whose loss is not finite, which is left unapplied. `work` holds 2*dim +
   negatives doubles. Rows are checked against the tables by the caller.

   The decode (decode_steps) turns a chunk of observations and its uniforms
   into the step rows that the numpy sgd.decode gives, bit for bit: each
   float operation of observation_distribution, conditional_distribution,
   the cumsum, facets_from_cdf and GuideTable.decode is done on the same
   operands in numpy's order, numpy's pairwise row sum included. It runs
   when sgd_steps runs; the numpy decode is the reference and the
   fallback, and takes the chunks that decode_steps declines.

   The products add a * x[j, :] into y[i, :] entry by entry in stored order,
   one multiply and one add per element, as scipy.sparse's csr_matvecs and
   coo_matmat_dense do; each output element sums its terms in that order,
   so the bits match scipy's. Indices are checked by the caller.

   The formatter writes the bytes of Python's "%d" and "%.17g" with integer
   arithmetic only; no libc printf is used. It formats +-0 and every value
   with 1e-16 < |x| < 1e17, and copies the caller's text for the others.

   The candidate draw replays numpy 2's SeedSequence(seed).spawn, then for
   each child default_rng(child seed).choice(n, c, replace=False): PCG64
   seeded by the same SeedSequence code, Lemire's bounded integers, and
   Floyd's algorithm or the tail shuffle. It maps each drawn index to its
   node id by a binary search over the query's excluded ids. numpy's
   stream is not a stable API, so evaluation checks the draw against
   numpy's own once per process. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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

/* numpy's pairwise_sum of k < 128 doubles, as ndarray.sum(axis=-1) adds a
   row: in order below 8 terms, else eight running sums, combined pairwise,
   then the remainder in order */
static double row_sum(const double *a, int64_t k)
{
    double s = 0.0;
    int64_t i = 0;
    if (k >= 8) {
        double r[8];
        memcpy(r, a, sizeof r);
        for (i = 8; i < k - k % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < k; i++)
        s += a[i];
    return s;
}

/* The cumulative sum of conditional_distribution(p_v, p_o, mode): p_o, or
   with the min rule min(p_v, p_o) over its sum when that is positive, else
   p_v. The minimum keeps a NaN, as np.minimum does. */
static void conditional_cdf(const double *p_v, const double *p_o, int64_t k,
                            int64_t min_rule, double *cdf)
{
    const double *p = p_o;
    if (min_rule) {
        for (int64_t j = 0; j < k; j++)
            cdf[j] = p_v[j] < p_o[j] || isnan(p_v[j]) ? p_v[j] : p_o[j];
        double s = row_sum(cdf, k);
        if (s > 0.0) {
            for (int64_t j = 0; j < k; j++)
                cdf[j] /= s;
            p = cdf;
        } else {
            p = p_v;
        }
    }
    cdf[0] = p[0];
    for (int64_t j = 1; j < k; j++)
        cdf[j] = cdf[j - 1] + p[j];
}

/* facets_from_cdf: the count of the first k - 1 CDF entries, `stride`
   apart, at or below u times the last */
static int64_t facet(const double *cdf, int64_t stride, int64_t k, double u)
{
    double x = u * cdf[(k - 1) * stride];
    int64_t f = 0;
    for (int64_t j = 0; j < k - 1; j++)
        f += cdf[j * stride] <= x;
    return f;
}

/* GuideTable.decode of one uniform: the guide entry of bucket (u * m)
   truncated, one linear step, then the count of cdf entries at or below
   u * total by binary search, clamped to `last`; -1 outside [0, 1] */
static int64_t guide_decode(double u, const int64_t *guide, int64_t m,
                            const double *cdf, int64_t n_cdf, double total,
                            int64_t last)
{
    if (!(u >= 0.0 && u <= 1.0))
        return -1;
    double x = u * total;
    int64_t i = guide[(int64_t)(u * (double)m)];
    i += cdf[i] <= x;
    if (cdf[i] <= x) {
        int64_t lo = i + 1, hi = n_cdf;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (cdf[mid] <= x)
                lo = mid + 1;
            else
                hi = mid;
        }
        i = lo;
    }
    return i < last ? i : last;
}

/* The steps of sgd.decode for n observations numbered from `first`:
   targets (n,) and contexts (n, c), -1 (or any negative id) where there is
   none, each taking facet_rate rounds of uniforms laid out as
   sgd.uniforms_per_round says. With k > 1 an observation's distribution is
   its target's row of dist plus its contexts' rows of dist_context, added
   column by column from zero, over the count plus one; each node's facet
   is drawn from conditional_cdf of its row and that. A negative is a node
   by guide_decode on (guide, m, cdf, total, last) and, with k > 1, a facet
   from the node's column of facet_cdf (k, n_nodes). Writes `steps` rows
   of out_target, out_context, out_negatives (steps, r) and out_unit, and
   returns `steps`; returns -1, to leave the chunk to numpy, when k > 127
   (numpy's row sum changes form), a node id lies outside its prior, the
   uniforms are too few, a negative's uniform lies outside [0, 1], or the
   contexts do not make `steps` steps. `work` holds (c + 2) * k doubles. */
int64_t decode_steps(int64_t n, int64_t c, int64_t k, int64_t r,
                     int64_t facet_rate, int64_t min_rule, int64_t first,
                     const double *uniforms, int64_t n_uniforms,
                     const int64_t *target, const int64_t *context,
                     const double *dist, int64_t n_target,
                     const double *dist_context, int64_t n_context,
                     const int64_t *guide, int64_t m, const double *cdf,
                     int64_t n_cdf, double total, int64_t last,
                     const double *facet_cdf, int64_t n_nodes, double *work,
                     int64_t steps, int64_t *out_target, int64_t *out_context,
                     int64_t *out_negatives, int64_t *out_unit)
{
    if (k > 127 || !(total < INFINITY))
        return -1;
    int64_t needed = 0, count = 0;
    for (int64_t i = 0; i < n; i++) {
        if (target[i] < 0 || target[i] >= n_target)
            return -1;
        int64_t width = 0;
        for (int64_t j = 0; j < c; j++) {
            if (context[i * c + j] >= n_context)
                return -1;
            width += context[i * c + j] >= 0;
        }
        needed += facet_rate * (k == 1 ? width * r : 1 + width + 2 * r * width);
        count += facet_rate * width;
    }
    if (needed > n_uniforms || count != steps)
        return -1;
    double *p_o = work, *t_cdf = work + k, *c_cdf = work + 2 * k;
    const double *u = uniforms;
    int64_t s = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *ctx = context + i * c;
        int64_t t = target[i], width = 0;
        for (int64_t j = 0; j < c; j++)
            width += ctx[j] >= 0;
        if (k > 1) {
            for (int64_t f = 0; f < k; f++)
                p_o[f] = 0.0;
            for (int64_t j = 0; j < c; j++)
                if (ctx[j] >= 0)
                    for (int64_t f = 0; f < k; f++)
                        p_o[f] += dist_context[ctx[j] * k + f];
            for (int64_t f = 0; f < k; f++)
                p_o[f] = (dist[t * k + f] + p_o[f]) / (double)(width + 1);
            conditional_cdf(dist + t * k, p_o, k, min_rule, t_cdf);
            for (int64_t j = 0, p = 0; j < c; j++)
                if (ctx[j] >= 0)
                    conditional_cdf(dist_context + ctx[j] * k, p_o, k, min_rule,
                                    c_cdf + p++ * k);
        }
        int64_t per_round = k == 1 ? width * r : 1 + width + 2 * r * width;
        for (int64_t round = 0; round < facet_rate; round++, u += per_round) {
            for (int64_t j = 0, p = 0; j < c; j++) {
                if (ctx[j] < 0)
                    continue;
                int64_t *neg = out_negatives + s * r;
                /* k = 1: R node uniforms per context; else the target's
                   facet, the contexts' facets, then R nodes and R facets
                   per context */
                const double *u_neg = k == 1 ? u + p * r : u + 1 + width + 2 * r * p;
                for (int64_t e = 0; e < r; e++) {
                    int64_t node = guide_decode(u_neg[e], guide, m, cdf, n_cdf,
                                                total, last);
                    if (node < 0)
                        return -1;
                    neg[e] = k == 1 ? node
                        : node * k + facet(facet_cdf + node, n_nodes, k, u_neg[r + e]);
                }
                out_target[s] = k == 1 ? t : t * k + facet(t_cdf, 1, k, u[0]);
                out_context[s] = k == 1 ? ctx[j]
                    : ctx[j] * k + facet(c_cdf + p * k, 1, k, u[1 + p]);
                out_unit[s] = first + i;
                s++;
                p++;
            }
        }
    }
    return s;
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
   and `width` "%.17g" fields from values (rows, width), space-separated,
   the values before the last `n_trail` index fields, into `out`, whose
   size the caller bounds by 21 bytes per index field and 25 per value.
   The j-th value that is not formatted here (not +-0 and outside
   1e-16 < |x| < 1e17: subnormals, inf and NaN too) is written as
   declined[ends[j - 1]:ends[j]]. Returns the bytes written, or -1 unless
   exactly `n_declined` values were declined; with none given, -1 says
   the rows hold a value to decline. */
int64_t format_rows(int64_t rows, int64_t n_index, int64_t n_trail,
                    const int64_t *index, int64_t width, const double *values,
                    const char *declined, const int64_t *ends,
                    int64_t n_declined, char *out)
{
    char *o = out;
    int64_t j = 0;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t f = 0; f < n_index + width; f++) {
            int64_t c = f - (n_index - n_trail);   /* the value column */
            double x = 0 <= c && c < width ? values[r * width + c] : 0;
            double a = x < 0 ? -x : x;
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            if (c < 0 || c >= width) {               /* an index field */
                o = write_int(o, index[r * n_index + (c < 0 ? f : f - width)]);
            } else if (x == 0) {
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


/* numpy's PCG64: a 128-bit LCG with the XSL-RR output, whose 64-bit
   outputs next_uint32 hands out in halves, low half first */
#define PCG_MULT (((unsigned __int128)2549297995355413924u << 64) \
                  | 4865540595714422341u)

typedef struct {
    unsigned __int128 state, inc;
    int has_half;
    uint32_t half;
} pcg64;

static void pcg_step(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
}

static uint32_t next_uint32(pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    pcg_step(g);
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    x = x >> rot | x << (-rot & 63);
    g->has_half = 1;
    g->half = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* numpy's random_bounded_uint64(0, rng) for rng < 2^32 - 1: 0 without a
   draw when rng is 0, else Lemire's multiply-and-reject on next_uint32 */
static uint64_t bounded(pcg64 *g, uint64_t rng)
{
    if (rng == 0)
        return 0;
    uint32_t excl = (uint32_t)rng + 1;
    uint64_t m = (uint64_t)next_uint32(g) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next_uint32(g) * excl;
    }
    return m >> 32;
}

/* numpy's SeedSequence (O'Neill's seed_seq_fe, as NEP 19 adopted it): the
   hash of one word, stepping the running constant *hash */
static uint32_t hashmix(uint32_t value, uint32_t *hash, uint32_t mult)
{
    value ^= *hash;
    *hash *= mult;
    value *= *hash;
    return value ^ value >> 16;
}

/* SeedSequence's mix of `word`, hashed anew each time, into every pool word
   but pool[skip] */
static void mix_into(uint32_t pool[4], uint32_t *hash, uint32_t word, int skip)
{
    for (int dst = 0; dst < 4; dst++)
        if (dst != skip) {
            uint32_t r = 0xCA01F9DDu * pool[dst]
                         - 0x4973F715u * hashmix(word, hash, 0x931E8875u);
            pool[dst] = r ^ r >> 16;
        }
}

/* The pool of SeedSequence(entropy) for its n words `words`: the first
   four, zero-padded, are hashed into it, each pool word is mixed into the
   others, then each further word into all. Returns the running constant,
   with which mix_into adds a spawn key. */
static uint32_t seed_pool(const uint32_t *words, int64_t n, uint32_t pool[4])
{
    uint32_t hash = 0x43B0D7E5u;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? words[i] : 0, &hash, 0x931E8875u);
    for (int src = 0; src < 4; src++)
        mix_into(pool, &hash, pool[src], src);
    for (int64_t i = 4; i < n; i++)
        mix_into(pool, &hash, words[i], -1);
    return hash;
}

/* SeedSequence.generate_state(n_out): the pool words in turn, hashed */
static void generate_state(const uint32_t pool[4], int n_out, uint32_t *out)
{
    uint32_t hash = 0x8B51F9DDu;
    for (int i = 0; i < n_out; i++)
        out[i] = hashmix(pool[i % 4], &hash, 0x58F38DEDu);
}

/* default_rng(seed) for a uint32 seed: generate_state(4, uint64) of
   SeedSequence(seed) is eight 32-bit words, paired low word first, which
   seed PCG64 as pcg64_set_seed does */
static void seed_pcg(pcg64 *g, uint32_t seed)
{
    uint32_t pool[4], w[8];
    seed_pool(&seed, 1, pool);
    generate_state(pool, 8, w);
    unsigned __int128 words[4];
    for (int i = 0; i < 4; i++)
        words[i] = (uint64_t)w[2 * i] | (uint64_t)w[2 * i + 1] << 32;
    g->state = 0;
    g->inc = (words[2] << 64 | words[3]) << 1 | 1;
    pcg_step(g);
    g->state += words[0] << 64 | words[1];
    pcg_step(g);
    g->has_half = 0;
}

/* numpy's _shuffle_int: swaps data[i] with data[bounded(i)] for i from
   n - 1 down to first */
static void shuffle(pcg64 *g, int64_t n, int64_t first, int64_t *data)
{
    for (int64_t i = n - 1; i >= first; i--) {
        int64_t j = (int64_t)bounded(g, (uint64_t)i), t = data[j];
        data[j] = data[i];
        data[i] = t;
    }
}

/* numpy's gen_mask: the smallest 2^b - 1 >= x */
static uint64_t gen_mask(uint64_t x)
{
    for (int s = 1; s < 64; s <<= 1)
        x |= x >> s;
    return x;
}

/* Generator.choice(pool, c, replace=False) for pool >= c into out: a tail
   shuffle of 0 .. pool - 1 when pool > 10000 and c > pool / 50 (so pool <
   50c, and `work` holds it), else Floyd's algorithm with numpy's hash set
   of gen_mask(1.2c) + 1 slots in `work`, then a shuffle of the c drawn */
static void choice(pcg64 *g, int64_t pool, int64_t c, int64_t *work, int64_t *out)
{
    if (pool > 10000 && c > pool / 50) {
        for (int64_t i = 0; i < pool; i++)
            work[i] = i;
        shuffle(g, pool, pool - c > 1 ? pool - c : 1, work);
        memcpy(out, work + pool - c, (size_t)c * sizeof *out);
        return;
    }
    uint64_t mask = gen_mask((uint64_t)(1.2 * (double)c));
    for (uint64_t i = 0; i <= mask; i++)
        work[i] = -1;
    for (int64_t j = pool - c; j < pool; j++) {
        int64_t val = (int64_t)bounded(g, (uint64_t)j);
        uint64_t loc = (uint64_t)val & mask;
        while (work[loc] != -1 && work[loc] != val)
            loc = (loc + 1) & mask;
        if (work[loc] == -1) {
            work[loc] = val;
        } else {                   /* val was drawn before: take j */
            for (loc = (uint64_t)j & mask; work[loc] != -1; loc = (loc + 1) & mask)
                ;
            work[loc] = val = j;
        }
        out[j - pool + c] = val;
    }
    shuffle(g, c, 1, out);
}

/* The k-th id (from 0) not among the m ascending ids ex: k plus the count
   of ex[t] with ex[t] - t <= k, the free ids below ex[t] */
static int64_t free_id(int64_t k, const int64_t *ex, int64_t m)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (ex[mid] - mid <= k)
            lo = mid + 1;
        else
            hi = mid;
    }
    return k + lo;
}

/* The link-evaluation candidates of n_query test edges (queries[r],
   truths[r]) over ids 0 .. pool_size - 1, with c negatives each, into the
   (n_query, c + 1) matrix cand and the row sizes. A query's excluded ids
   are its CSR row (ascending, no repeats), its truth and its own id `own`
   (the truth when bipartite, else the query); the others are its pool.
   Row r is the truth, then default_rng(seed r).choice(pool, c,
   replace=False) when the pool holds c ids, else the whole pool ascending
   and -1 padding. Seed r is SeedSequence(root).spawn(n_query)[r]
   .generate_state(1)[0] for the root seed's n_words little-endian uint32
   `words`. Needs pool_size < 2^32; ids are checked by the caller. Returns
   0, or -1 when its scratch memory cannot be allocated. */
int64_t draw_candidates(int64_t n_query, int64_t c, int64_t pool_size,
                        int64_t bipartite, const int64_t *indptr,
                        const int64_t *indices, const int64_t *queries,
                        const int64_t *truths, const uint32_t *words,
                        int64_t n_words, int64_t *cand, int64_t *sizes)
{
    int64_t max_degree = 0;
    for (int64_t r = 0; r < n_query; r++) {
        int64_t d = indptr[queries[r] + 1] - indptr[queries[r]];
        max_degree = d > max_degree ? d : max_degree;
    }
    int64_t slots = (int64_t)gen_mask((uint64_t)(1.2 * (double)c)) + 1;
    int64_t tail = pool_size > 10000 ? (pool_size < 50 * c ? pool_size : 50 * c) : 0;
    int64_t *ex = malloc((size_t)(max_degree + 2 + (slots > tail ? slots : tail))
                         * sizeof *ex);
    if (ex == NULL)
        return -1;
    int64_t *work = ex + max_degree + 2;
    uint32_t root[4], hash = seed_pool(words, n_words, root);
    pcg64 g;
    for (int64_t r = 0; r < n_query; r++) {
        int64_t q = queries[r], truth = truths[r], own = bipartite ? truth : q;
        int64_t extra[2] = {own < truth ? own : truth, own < truth ? truth : own};
        int64_t n_extra = own == truth ? 1 : 2, e = 0, m = 0;
        for (int64_t p = indptr[q]; p < indptr[q + 1]; p++) {
            while (e < n_extra && extra[e] < indices[p])
                ex[m++] = extra[e++];
            if (e < n_extra && extra[e] == indices[p])
                e++;
            ex[m++] = indices[p];
        }
        while (e < n_extra)
            ex[m++] = extra[e++];
        int64_t n_free = pool_size - m, *row = cand + r * (c + 1);
        row[0] = truth;
        if (n_free < c) {
            for (int64_t k = 0; k < c; k++)
                row[k + 1] = k < n_free ? free_id(k, ex, m) : -1;
            sizes[r] = n_free + 1;
            continue;
        }
        /* child r's entropy is the root's, zero-padded to four words, then
           r: its pool is the root's with r mixed in */
        uint32_t pool[4] = {root[0], root[1], root[2], root[3]}, h = hash, seed;
        mix_into(pool, &h, (uint32_t)r, -1);
        if (r >> 32)
            mix_into(pool, &h, (uint32_t)(r >> 32), -1);
        generate_state(pool, 1, &seed);
        seed_pcg(&g, seed);
        choice(&g, n_free, c, work, row + 1);
        for (int64_t k = 1; k <= c; k++)
            row[k] = free_id(row[k], ex, m);
        sizes[r] = c + 1;
    }
    free(ex);
    return 0;
}
