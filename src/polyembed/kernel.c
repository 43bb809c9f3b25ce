/* The package's compiled kernels: the per-step loop of sgd.Engine.apply
   and the two sparse products of kernel.Csr and kernel.coo_matmat.

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
   so the bits match scipy's. Indices are checked by the caller. */

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
