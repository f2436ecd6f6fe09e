/* Batched partial-pivot Gaussian elimination -- native twin of
 * repro.core.linalg.gaussian_eliminate -- and the fused packed-field
 * solve built on it, native twin of the NumPy path of
 * repro.core.continuous.solve_accumulated.
 *
 * The kernel performs BITWISE the same IEEE-754 double arithmetic as the
 * vectorized NumPy reference, element for element, in the same order:
 *
 *   - pivot selection is argmax of |column| with first-max-wins ties and
 *     NumPy's NaN-is-maximal convention,
 *   - row updates compute a[i][j] - (a[i][k]/pivot) * a[k][j] with exactly
 *     one rounding per multiply and subtract (compiled with
 *     -ffp-contract=off so no FMA contraction is allowed),
 *   - back substitution accumulates sum_j a[k][j] * x[j] the way
 *     np.einsum's SIMD inner-product loop does: two lanes of partial sums
 *     (even and odd positions), each 8-element block folded right-nested
 *     into its lane accumulator, leftover pairs added left-associated,
 *     and one final lane-combining add (verified bit-exact against
 *     np.einsum for every contraction length 1..40),
 *   - pivots below SINGULAR_TOLERANCE mark the system singular, divide by
 *     a substituted 1.0 and zero the factors, exactly like the reference.
 *
 * Because IEEE add/mul/div are exactly rounded and the operand order is
 * identical, scalar C and vectorized NumPy produce identical bit patterns.
 * The Python wrapper cross-checks both entry points on load with a
 * fingerprint batch and refuses the kernel on any mismatch.
 */

#include <math.h>
#include <stddef.h>

static const double SINGULAR_TOLERANCE = 1e-12;

/* NumPy argmax semantics for doubles: keep the first encountered value
 * that every later value fails to exceed; a NaN beats any non-NaN and
 * the first NaN wins. */
static ptrdiff_t column_argmax(const double *col, ptrdiff_t len, ptrdiff_t stride)
{
    ptrdiff_t best_i = 0;
    double best = fabs(col[0]);
    int best_nan = isnan(best);
    for (ptrdiff_t i = 1; i < len; i++) {
        double v = fabs(col[i * stride]);
        if (best_nan)
            break;
        if (v > best || isnan(v)) {
            best = v;
            best_i = i;
            best_nan = isnan(v);
        }
    }
    return best_i;
}

/* Eliminate one n-by-n system in place.  as (n*n) and bs (n) are
 * destroyed; xs (n) receives the solution (zeros when singular).
 * Returns the singular flag. */
static unsigned char eliminate_one(double *as, double *bs, double *xs, ptrdiff_t n)
{
    unsigned char sing = 0;

    for (ptrdiff_t k = 0; k < n; k++) {
        ptrdiff_t piv = k + column_argmax(as + k * n + k, n - k, n);
        if (piv != k) {
            for (ptrdiff_t j = 0; j < n; j++) {
                double tmp = as[k * n + j];
                as[k * n + j] = as[piv * n + j];
                as[piv * n + j] = tmp;
            }
            double tmp = bs[k];
            bs[k] = bs[piv];
            bs[piv] = tmp;
        }
        double pivot = as[k * n + k];
        int bad = fabs(pivot) < SINGULAR_TOLERANCE;
        /* NaN pivots compare false against the tolerance, exactly like
         * np.abs(pivots) < SINGULAR_TOLERANCE. */
        if (bad)
            sing = 1;
        double safe = bad ? 1.0 : pivot;
        /* The reference also updates columns 0..k of the rows below the
         * pivot, but nothing reads those entries again (later pivots,
         * factors and back substitution only look right of column k), so
         * skipping them leaves every value that is read unchanged. */
        for (ptrdiff_t i = k + 1; i < n; i++) {
            double factor = bad ? 0.0 : as[i * n + k] / safe;
            for (ptrdiff_t j = k + 1; j < n; j++)
                as[i * n + j] -= factor * as[k * n + j];
            bs[i] -= factor * bs[k];
        }
    }

    for (ptrdiff_t k = n - 1; k >= 0; k--) {
        /* np.einsum("ij,ij->i", ...) SIMD kernel, replicated exactly:
         * two lanes (even/odd positions); each full block of 8 terms
         * folds right-nested into its lane accumulator,
         *   lane = t0 + (t2 + (t4 + (t6 + lane)))
         * then leftover pairs add left-associated and the lanes
         * combine with one final add. */
        const double *row = as + k * n + (k + 1);
        const double *xv = xs + (k + 1);
        ptrdiff_t len = n - 1 - k;
        ptrdiff_t head = (len / 8) * 8;
        double lane0 = 0.0, lane1 = 0.0;
        for (ptrdiff_t j = 0; j < head; j += 8) {
            double t0 = row[j] * xv[j];
            double t1 = row[j + 1] * xv[j + 1];
            double t2 = row[j + 2] * xv[j + 2];
            double t3 = row[j + 3] * xv[j + 3];
            double t4 = row[j + 4] * xv[j + 4];
            double t5 = row[j + 5] * xv[j + 5];
            double t6 = row[j + 6] * xv[j + 6];
            double t7 = row[j + 7] * xv[j + 7];
            lane0 = t0 + (t2 + (t4 + (t6 + lane0)));
            lane1 = t1 + (t3 + (t5 + (t7 + lane1)));
        }
        for (ptrdiff_t j = head; j < len; j += 2) {
            lane0 += row[j] * xv[j];
            if (j + 1 < len)
                lane1 += row[j + 1] * xv[j + 1];
        }
        double acc = lane0 + lane1;
        double pivot = as[k * n + k];
        double safe = fabs(pivot) < SINGULAR_TOLERANCE ? 1.0 : pivot;
        xs[k] = (bs[k] - acc) / safe;
    }
    if (sing)
        for (ptrdiff_t j = 0; j < n; j++)
            xs[j] = 0.0;
    return sing;
}

/* Solve m independent n-by-n systems.  a (m*n*n) and b (m*n) are scratch
 * copies and are destroyed; x (m*n) receives solutions (zeros for
 * singular systems); singular (m) receives 0/1 flags.  Returns 0. */
int gauss_eliminate(double *a, double *b, double *x, unsigned char *singular,
                    ptrdiff_t m, ptrdiff_t n)
{
    for (ptrdiff_t s = 0; s < m; s++)
        singular[s] = eliminate_one(a + s * n * n, b + s * n, x + s * n, n);
    return 0;
}

#define N_PARAMS 6
#define N_TRIU 21

/* Minimize m packed template errors.  System s reads its 28 fields at
 * fields[s * sys_stride + f * field_stride] (element strides, so any
 * (m, 28) view works: plane-major, C-contiguous or gathered) in the
 * packed order 21 upper-triangle H entries, 6 grad entries, c.  Per
 * system this is solve_accumulated's NumPy path:
 *
 *   h = unpack(H) [+ ridge * eye(6)]   -- h_ij + ridge * 0.0 off the
 *                                         diagonal, so -0.0 becomes +0.0
 *   theta, singular = eliminate(h, -grad)   -- zeros when singular
 *   error = max(c + einsum("k,k", theta, grad), 0)
 *
 * The length-6 einsum runs as three two-lane steps, product first
 * (t + lane), then one lane-combining add; np.maximum keeps a NaN and
 * turns -0.0 into +0.0.  params (m*6), error (m) and singular (m) are
 * outputs.  Returns 0. */
int solve_packed(const double *fields, ptrdiff_t m, ptrdiff_t sys_stride,
                 ptrdiff_t field_stride, double ridge, int add_ridge,
                 double *params, double *error, unsigned char *singular)
{
    const double ridge_diag = ridge * 1.0;
    const double ridge_off = ridge * 0.0;
    for (ptrdiff_t s = 0; s < m; s++) {
        const double *f = fields + s * sys_stride;
        double a[N_PARAMS * N_PARAMS], b[N_PARAMS], grad[N_PARAMS];
        double *theta = params + s * N_PARAMS;
        ptrdiff_t idx = 0;
        for (ptrdiff_t i = 0; i < N_PARAMS; i++)
            for (ptrdiff_t j = i; j < N_PARAMS; j++, idx++) {
                double v = f[idx * field_stride];
                a[i * N_PARAMS + j] = v;
                a[j * N_PARAMS + i] = v;
            }
        if (add_ridge)
            for (ptrdiff_t i = 0; i < N_PARAMS; i++)
                for (ptrdiff_t j = 0; j < N_PARAMS; j++)
                    a[i * N_PARAMS + j] += i == j ? ridge_diag : ridge_off;
        for (ptrdiff_t k = 0; k < N_PARAMS; k++) {
            grad[k] = f[(N_TRIU + k) * field_stride];
            b[k] = -grad[k];
        }
        singular[s] = eliminate_one(a, b, theta, N_PARAMS);
        double lane0 = 0.0, lane1 = 0.0;
        for (ptrdiff_t k = 0; k < N_PARAMS; k += 2) {
            lane0 = theta[k] * grad[k] + lane0;
            lane1 = theta[k + 1] * grad[k + 1] + lane1;
        }
        double e = f[(N_TRIU + N_PARAMS) * field_stride] + (lane0 + lane1);
        error[s] = isnan(e) ? e : (e > 0.0 ? e : 0.0);
    }
    return 0;
}
