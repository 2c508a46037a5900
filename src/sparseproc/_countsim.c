/*
 * Step loops of the simulators and the pivot loop of the Dantzig LP, run
 * through the code numpy itself runs.
 *
 * Each entry point repeats, step for step, what its Python loop does
 * (simulate.py, dantzig.py).  In the count loops the conditional mean is
 * formed by the same CBLAS call numpy's matmul makes, or, for a MINAR(1)
 * matrix of aligned 4 x 4 diagonal blocks, by a block sum checked to give
 * that call's bits (block_sums); it is capped, and each count is drawn by
 * numpy's own random_poisson on the generator's bitgen_t.  numpy switches
 * from the multiplication method to transformed rejection at lambda = 10, so
 * the last bit of lambda decides which draws are taken; the same sums in the
 * same order give the same bits, and so the same series.
 * The Hawkes loop repeats the float operations of Ogata thinning in their
 * order and draws by numpy's random_standard_exponential, so it gives the
 * same events.  The LP loop repeats the dual simplex pivots of a lambda path
 * in their order, with numpy's dgemv for the right-hand side and its dger for
 * each pivot, so it gives the same tableau and the same fits.
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off -I <numpy include>
 *        -DBLAS_INT=<int type> _countsim.c -lm
 * (-ffp-contract=off keeps t + (1 / lam) * e, b - lam * side and the block
 * sums' p0 + a * y from being fused into an FMA.)
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

#ifndef BLAS_INT
#define BLAS_INT int
#endif

#define CBLAS_ROW_MAJOR 101
#define CBLAS_COL_MAJOR 102
#define CBLAS_TRANS 112

typedef int64_t (*poisson_fn)(bitgen_t *, double);
typedef double (*exponential_fn)(bitgen_t *);
typedef double (*ddot_fn)(BLAS_INT, const double *, BLAS_INT, const double *, BLAS_INT);
typedef void (*dgemv_fn)(int, int, BLAS_INT, BLAS_INT, double, const double *, BLAS_INT,
                         const double *, BLAS_INT, double, double *, BLAS_INT);
typedef void (*dger_fn)(int, BLAS_INT, BLAS_INT, double, const double *, BLAS_INT,
                        const double *, BLAS_INT, double *, BLAS_INT);

/*
 * Poisson INAR(p) from the zero state: lambda_t = mu + alpha . history, with
 * history[0] the last count.  Fills out[0..steps) and returns the number of
 * steps drawn: steps, or the first step whose lambda is not <= cap.
 */
int64_t inar(poisson_fn poisson, ddot_fn ddot, bitgen_t *bitgen, double mu, int64_t p,
             const double *alpha, double *history, double *out, int64_t steps, double cap)
{
    for (int64_t t = 0; t < steps; t++) {
        /* numpy's 1-d dot is 0.0 + ddot(...) */
        double lam = mu + (p ? 0.0 + ddot((BLAS_INT)p, alpha, 1, history, 1) : 0.0);
        if (!(lam <= cap))
            return t;
        double x = (double)poisson(bitgen, lam);
        if (p) {
            memmove(history + 1, history, (size_t)(p - 1) * sizeof(double));
            history[0] = x;
        }
        out[t] = x;
    }
    return steps;
}

/*
 * s = A y for a C-contiguous d x d matrix A that is zero outside its aligned
 * 4 x 4 diagonal blocks, each row summed over its own block in the order
 * (p0 + p2) + (p1 + p3), p_j = a[i, 4b + j] * y[4b + j].  With A >= 0 and
 * y >= 0 finite, every product outside the block is a zero, and adding a
 * zero leaves a partial sum unchanged, so a dense dgemv gives exactly its
 * kernel's own reduction of the four block products.  This order is the one
 * numpy's OpenBLAS dgemv kernel takes on AVX-512; another kernel may take
 * another, so the caller takes this sum only after comparing it with numpy's
 * A @ y (CountKernel.block_sums_match).
 */
void block_sums(int64_t d, const double *a, const double *y, double *s)
{
    for (int64_t b = 0; b < d; b += 4) {
        const double *yb = y + b;
        for (int64_t i = b; i < b + 4; i++) {
            const double *ab = a + i * d + b;
            s[i] = (ab[0] * yb[0] + ab[2] * yb[2]) + (ab[1] * yb[1] + ab[3] * yb[3]);
        }
    }
}

/*
 * Multivariate Poisson INAR(1) from y0: lambda_t = eta + A y_{t-1} with A a
 * C-contiguous d x d matrix, as numpy's matmul computes A @ y through
 * dgemv(ColMajor, Trans, ...), or by block_sums where blocks is non-zero.
 * lam is d doubles of scratch.  Row t of the steps x d matrix out receives
 * y_t; returns as inar does.
 */
int64_t minar1(poisson_fn poisson, dgemv_fn dgemv, bitgen_t *bitgen, int64_t d,
               const double *eta, const double *a, int64_t blocks, const double *y0,
               double *lam, double *out, int64_t steps, double cap)
{
    const double *y = y0;
    for (int64_t t = 0; t < steps; t++) {
        double *row = out + t * d;
        if (blocks)
            block_sums(d, a, y, lam);
        else
            dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)d, (BLAS_INT)d, 1.0, a,
                  (BLAS_INT)d, y, 1, 0.0, lam, 1);
        for (int64_t i = 0; i < d; i++) {
            lam[i] = eta[i] + lam[i];
            if (!(lam[i] <= cap))
                return t;
        }
        for (int64_t i = 0; i < d; i++)
            row[i] = (double)poisson(bitgen, lam[i]);
        y = row;
    }
    return steps;
}

/*
 * Ogata thinning of the Hawkes process with intensity eta + sum_i a(t - t_i),
 * where a = vals[k] on (bp[k-1], bp[k]] (bp[-1] = 0) and 0 beyond bp[pieces-1].
 * Resumes from time *t with events[0..n) drawn so far and appends events in
 * (*t, horizon] until the buffer holds capacity of them.  Returns the event
 * count and leaves the time reached in *t: *t > horizon once the loop has
 * ended, and otherwise the buffer is full and the call can be resumed with a
 * larger one.  The loop's whole state is *t and the events, and the stream is
 * in the bitgen, so the events do not depend on the capacity.
 */
int64_t hawkes(exponential_fn exponential, bitgen_t *bitgen, double eta, int64_t pieces,
               const double *bp, const double *vals, double horizon, double *events,
               int64_t n, int64_t capacity, double *t_io)
{
    double t = *t_io;
    double tail = pieces ? bp[pieces - 1] : 0.0;
    int64_t first_active = 0; /* events earlier than t - tail never contribute again */
    while (n < capacity) {
        while (first_active < n && events[first_active] <= t - tail)
            first_active++;
        /* intensity just right of t (lam >= eta > 0) and the next time it can change */
        double lam = eta;
        double next_change = INFINITY;
        for (int64_t i = first_active; i < n; i++) {
            double age = t - events[i];
            int64_t lo = 0, hi = pieces; /* k = #{breakpoints <= age}, as bisect_right */
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (age < bp[mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            if (lo < pieces) {
                lam += vals[lo];
                double boundary = events[i] + bp[lo];
                /* guard: float rounding may land exactly on t */
                if (t < boundary && boundary < next_change)
                    next_change = boundary;
            }
        }
        double wait = (1.0 / lam) * exponential(bitgen);
        if (t + wait > next_change) {
            t = nextafter(next_change, INFINITY);
            continue;
        }
        t = t + wait;
        if (t > horizon)
            break;
        events[n++] = t;
    }
    *t_io = t;
    return n;
}

/*
 * The pivot loop of dantzig.solve_dantzig_path over a path of lambdas, sorted
 * from the largest down, on the column-major (p+1) x (2p+1) tableau tab as
 * that function sets it up: theta columns, slack columns (which hold B^-1),
 * the values x of the basic variables in the last column and the reduced
 * costs in the last row.  Each lambda warm-starts from the last basis.  Row
 * k of the n_lams x p matrix theta receives lambda k's theta, iterations[k]
 * its pivot count and status[k] 0 (optimal), 1 (infeasible) or 2 (iteration
 * limit).  Every float operation is numpy's in the same order: the reset of
 * x is the CBLAS call numpy's matmul makes for tab[:p, p:2p] @ rhs, and each
 * pivot is one dger.  Returns 0, or -1 where the scratch cannot be allocated.
 */
int64_t dantzig_path(ddot_fn ddot, dgemv_fn dgemv, dger_fn dger, int64_t p, double *tab,
                     const double *b, int64_t n_lams, const double *lams, int64_t max_iter,
                     double tol, double *theta, int64_t *iterations, int64_t *status)
{
    const int64_t ld = p + 1, n_cols = 2 * p;
    double *work = malloc((size_t)(9 * p + 2) * sizeof(double));
    int64_t *index = malloc((size_t)(2 * p + 1) * sizeof(int64_t));
    if (!work || !index) {
        free(work);
        free(index);
        return -1;
    }
    double *pivot_row = work, *enter_col = pivot_row + n_cols + 1, *ratios = enter_col + p + 1;
    double *lo = ratios + n_cols, *hi = lo + p, *side = hi + p, *rhs = side + p;
    int64_t *basis = index, *order = basis + p; /* stored column; Bland index */
    double *x = tab + n_cols * ld, *cost_row = tab + p;
    for (int64_t i = 0; i < p; i++) {
        basis[i] = p + i;
        order[i] = 2 * p + i;
        side[i] = 0.0;
    }
    for (int64_t k = 0; k < n_lams; k++) {
        const double lam = lams[k];
        for (int64_t i = 0; i < p; i++)
            rhs[i] = b[i] - lam * side[i];
        /* numpy's matmul: a 1 x 1 product is 0.0 + ddot, a larger one dgemv on the
           strided view read row-major with leading dimension p + 1 */
        if (p == 1)
            x[0] = 0.0 + ddot(1, tab + ld, 1, rhs, 1);
        else if (p > 1)
            dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, (BLAS_INT)p, (BLAS_INT)p, 1.0, tab + p * ld,
                  (BLAS_INT)ld, rhs, 1, 0.0, x, 1);
        const double slack_lo = -lam - tol, slack_hi = lam + tol;
        for (int64_t i = 0; i < p; i++)
            if (basis[i] >= p) {
                lo[i] = slack_lo;
                hi[i] = slack_hi;
            }
        int64_t it = 0, code = 2;
        for (; it < max_iter; it++) {
            int64_t leave = -1; /* Bland: the violated row of lowest basic index */
            for (int64_t i = 0; i < p; i++)
                if ((x[i] < lo[i] || x[i] > hi[i]) && (leave < 0 || order[i] < order[leave]))
                    leave = i;
            if (leave < 0) {
                code = 0;
                break;
            }
            const int64_t out = basis[leave];
            const double x_r = x[leave];
            const int up = x_r < lo[leave];
            const double bound = out < p ? 0.0 : up ? -lam : lam;
            /* ratio test: rho = +-(pivot row); per unit of gap, raising costs d, lowering a
               theta 2 - d and lowering a slack 0 - d */
            double best = INFINITY;
            for (int64_t j = 0; j < n_cols; j++) {
                const double rho = up ? tab[j * ld + leave] : -tab[j * ld + leave];
                const double gap = j < p ? fabs(rho) : rho * side[j - p];
                const double d = cost_row[j * ld];
                const double cost = rho > 0 ? (j < p ? 2.0 : 0.0) - d : d;
                ratios[j] = gap > tol ? cost / gap : INFINITY;
                if (isnan(ratios[j])) /* numpy's min returns it, and then no column ties */
                    best = NAN;
                else if (ratios[j] < best)
                    best = ratios[j];
            }
            if (best == INFINITY) {
                code = 1;
                break;
            }
            int64_t enter = 0; /* Bland: the lowest column among ties */
            while (enter < n_cols && !(ratios[enter] <= best + tol))
                enter++;
            if (enter == n_cols)
                enter = 0;
            const double rho_enter = up ? tab[enter * ld + leave] : -tab[enter * ld + leave];
            const int lowering = enter < p && rho_enter > 0;
            x[leave] = x_r - bound;
            const double pivot = tab[enter * ld + leave];
            for (int64_t j = 0; j <= n_cols; j++)
                pivot_row[j] = tab[j * ld + leave] / pivot;
            memcpy(enter_col, tab + enter * ld, (size_t)ld * sizeof(double));
            if (lowering)
                enter_col[p] -= 2.0;
            dger(CBLAS_COL_MAJOR, (BLAS_INT)ld, (BLAS_INT)(n_cols + 1), -1.0, enter_col, 1,
                 pivot_row, 1, tab, (BLAS_INT)ld);
            for (int64_t j = 0; j <= n_cols; j++)
                tab[j * ld + leave] = pivot_row[j];
            if (out >= p)
                side[out - p] = up ? -1.0 : 1.0;
            basis[leave] = enter;
            if (enter >= p) {
                x[leave] += lam * side[enter - p];
                side[enter - p] = 0.0;
                order[leave] = p + enter;
                lo[leave] = slack_lo;
                hi[leave] = slack_hi;
            } else if (lowering) {
                order[leave] = p + enter;
                lo[leave] = -INFINITY;
                hi[leave] = tol;
            } else {
                order[leave] = enter;
                lo[leave] = -tol;
                hi[leave] = INFINITY;
            }
        }
        iterations[k] = it;
        status[k] = code;
        double *row = theta + k * p;
        memset(row, 0, (size_t)p * sizeof(double));
        for (int64_t i = 0; i < p; i++)
            if (basis[i] < p)
                row[basis[i]] = x[i];
    }
    free(work);
    free(index);
    return 0;
}
