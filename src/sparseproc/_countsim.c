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
#define CBLAS_NO_TRANS 111
#define CBLAS_TRANS 112

typedef int64_t (*poisson_fn)(bitgen_t *, double);
typedef double (*exponential_fn)(bitgen_t *);
typedef double (*ddot_fn)(BLAS_INT, const double *, BLAS_INT, const double *, BLAS_INT);
typedef void (*dgemv_fn)(int, int, BLAS_INT, BLAS_INT, double, const double *, BLAS_INT,
                         const double *, BLAS_INT, double, double *, BLAS_INT);
typedef void (*dger_fn)(int, BLAS_INT, BLAS_INT, double, const double *, BLAS_INT,
                        const double *, BLAS_INT, double *, BLAS_INT);
typedef void (*dgemm_fn)(int, int, int, BLAS_INT, BLAS_INT, BLAS_INT, double, const double *,
                         BLAS_INT, const double *, BLAS_INT, double, double *, BLAS_INT);

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
        for (;; it++) { /* optimality is tested after the last allowed pivot too */
            int64_t leave = -1; /* Bland: the violated row of lowest basic index */
            for (int64_t i = 0; i < p; i++)
                if ((x[i] < lo[i] || x[i] > hi[i]) && (leave < 0 || order[i] < order[leave]))
                    leave = i;
            if (leave < 0) {
                code = 0;
                break;
            }
            if (it == max_iter)
                break;
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

/*
 * numpy's add.reduce of the n doubles a[0..n) in one contiguous run: pairwise
 * summation with eight accumulators in blocks of at most 128, added to the
 * reduction's initial 0.0 by the caller.
 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/*
 * out = rows[keep].sum(axis=0) for the n x len matrix rows, where keep is
 * every row but row skip (every row where skip < 0), as numpy sums it: from
 * 0.0, row after row, or, where a row is one value and the kept values are
 * then one contiguous run, pairwise over them, gathered in scratch.
 */
static void sum_rows(const double *rows, int64_t n, int64_t len, int64_t skip, double *out,
                     double *scratch)
{
    if (len == 1) {
        int64_t m = 0;
        for (int64_t r = 0; r < n; r++)
            if (r != skip)
                scratch[m++] = rows[r];
        out[0] = 0.0 + pairwise_sum(scratch, m);
        return;
    }
    for (int64_t j = 0; j < len; j++)
        out[j] = 0.0;
    for (int64_t r = 0; r < n; r++)
        if (r != skip)
            for (int64_t j = 0; j < len; j++)
                out[j] += rows[r * len + j];
}

/*
 * The fold loop of dantzig.cross_validate_lambda over a grid sorted ascending.
 * zc (n x p) and yc are the centered series, split into folds blocks at the
 * row offsets bounds[0..folds]; cross (folds x p x p) and cross_y (folds x p)
 * are each block's cross-products, as numpy's matmul forms them.  As the
 * numpy loop dantzig._cv_folds does, the loop sums each block's columns and
 * then, for each fold k:
 * - merges the training system from the other blocks' sums by the same
 *   operations in the same order;
 * - dantzig_path solves it from the largest lambda down, on the tableau of
 *   solve_dantzig_path;
 * - each fit's slack lambda - |b - A theta|_inf takes A theta from the dgemv
 *   (or, for p = 1, 0.0 + ddot) of numpy's stacked matmul, and a fit whose
 *   pivots ended "optimal" but whose slack is below -1e-8 * scale is
 *   "inaccurate" (status 3);
 * - the held-out rows' mean squared error of each fit, with z_dev @ thetas
 *   as numpy's matmul forms it: dgemm for several lambdas, dgemv for one,
 *   and 0.0 + z * theta without BLAS for p = 1.
 * iterations, status, slacks and losses are folds x n_grid in grid order.
 * The loop stops after a fold with a fit that is not optimal.  Returns the
 * number of folds run, -1 where the scratch cannot be allocated, or -2 - k
 * where fold k's training system is not finite.
 */
int64_t cv_folds(ddot_fn ddot, dgemv_fn dgemv, dger_fn dger, dgemm_fn dgemm, int64_t p,
                 int64_t folds, const int64_t *bounds, const double *zc, const double *yc,
                 const double *cross, const double *cross_y, int64_t n_grid,
                 const double *grid, int64_t max_iter, int64_t *iterations, int64_t *status,
                 double *slacks, double *losses)
{
    const int64_t n = bounds[folds], ld = p + 1;
    int64_t held_max = 0, ret = folds;
    for (int64_t k = 0; k < folds; k++)
        if (bounds[k + 1] - bounds[k] > held_max)
            held_max = bounds[k + 1] - bounds[k];
    /* tab; gram and moment; path, path_theta and thetas; d and ax; sums and sums_y;
       z_dev and resid; gather, for a block's values or the folds' */
    const size_t n_doubles = (size_t)(ld * (2 * p + 1) + ld * p + n_grid * (1 + 2 * p) + 2 * p
                                      + folds * (p + 1) + held_max * (p + n_grid)
                                      + held_max + folds);
    double *work = malloc(n_doubles * sizeof(double));
    int64_t *codes = malloc((size_t)(2 * n_grid) * sizeof(int64_t));
    if (!work || !codes) {
        ret = -1;
        goto done;
    }
    double *tab = work, *gram = tab + ld * (2 * p + 1), *moment = gram + p * p;
    double *path = moment + p, *path_theta = path + n_grid;
    double *thetas = path_theta + n_grid * p, *d = thetas + n_grid * p, *ax = d + p;
    double *sums = ax + p, *sums_y = sums + folds * p, *z_dev = sums_y + folds;
    double *resid = z_dev + held_max * p, *gather = resid + held_max * n_grid;
    int64_t *path_it = codes, *path_status = codes + n_grid;
    for (int64_t k = 0; k < folds; k++) { /* zb.sum(axis=0) and yb.sum() of each block */
        const int64_t lo = bounds[k], held = bounds[k + 1] - lo;
        sum_rows(zc + lo * p, held, p, -1, sums + k * p, gather);
        sum_rows(yc + lo, held, 1, -1, sums_y + k, gather);
    }
    for (int64_t i = 0; i < n_grid; i++)
        path[i] = grid[n_grid - 1 - i];
    for (int64_t k = 0; k < folds; k++) {
        const int64_t lo = bounds[k], held = bounds[k + 1] - lo;
        const double m = (double)(n - held);
        double e;
        sum_rows(sums, folds, p, k, d, gather);
        for (int64_t j = 0; j < p; j++)
            d[j] = d[j] / m;
        sum_rows(sums_y, folds, 1, k, &e, gather);
        e = e / m;
        sum_rows(cross, folds, p * p, k, gram, gather);
        sum_rows(cross_y, folds, p, k, moment, gather);
        /* solve_dantzig_path: its finite system, max(1.0, |A|_max, |b|_max), its tableau */
        double scale = 1.0;
        int finite = 1;
        for (int64_t i = 0; i < p; i++) {
            for (int64_t j = 0; j < p; j++) {
                double *g = gram + i * p + j;
                *g = *g / m - d[i] * d[j];
                finite &= isfinite(*g) != 0;
                if (fabs(*g) > scale)
                    scale = fabs(*g);
            }
            moment[i] = moment[i] / m - d[i] * e;
            finite &= isfinite(moment[i]) != 0;
            if (fabs(moment[i]) > scale)
                scale = fabs(moment[i]);
        }
        if (!finite) {
            ret = -2 - k;
            goto done;
        }
        const double tol = 1e-9 * scale;
        memset(tab, 0, (size_t)(ld * (2 * p + 1)) * sizeof(double));
        for (int64_t j = 0; j < p; j++) {
            for (int64_t i = 0; i < p; i++)
                tab[j * ld + i] = gram[i * p + j];
            tab[(p + j) * ld + j] = 1.0;
            tab[j * ld + p] = 1.0;
        }
        if (dantzig_path(ddot, dgemv, dger, p, tab, moment, n_grid, path, max_iter, tol,
                         path_theta, path_it, path_status)) {
            ret = -1;
            goto done;
        }
        int certified = 1;
        for (int64_t i = 0; i < n_grid; i++) {
            const double *theta = path_theta + i * p;
            if (p == 1)
                ax[0] = 0.0 + ddot(1, gram, 1, theta, 1);
            else
                dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)p, (BLAS_INT)p, 1.0, gram,
                      (BLAS_INT)p, theta, 1, 0.0, ax, 1);
            double worst = fabs(moment[0] - ax[0]); /* numpy's max: a NaN wins */
            for (int64_t j = 1; j < p && !isnan(worst); j++) {
                const double r = fabs(moment[j] - ax[j]);
                if (isnan(r) || r > worst)
                    worst = r;
            }
            const double slack = path[i] - worst;
            int64_t code = path_status[i];
            if (code == 0 && slack < -1e-8 * scale)
                code = 3;
            const int64_t g = n_grid - 1 - i;
            iterations[k * n_grid + g] = path_it[i];
            status[k * n_grid + g] = code;
            slacks[k * n_grid + g] = slack;
            certified &= code == 0;
            for (int64_t j = 0; j < p; j++) /* thetas is p x n_grid, in grid order */
                thetas[j * n_grid + g] = theta[j];
        }
        if (!certified) {
            ret = k + 1;
            goto done;
        }
        /* the held-out block: z_dev = z - d, resid = y - e - z_dev @ thetas, squared */
        const double *z = zc + lo * p, *y = yc + lo;
        for (int64_t r = 0; r < held; r++)
            for (int64_t j = 0; j < p; j++)
                z_dev[r * p + j] = z[r * p + j] - d[j];
        if (p == 1) {
            for (int64_t r = 0; r < held; r++)
                for (int64_t g = 0; g < n_grid; g++)
                    resid[r * n_grid + g] = 0.0 + z_dev[r] * thetas[g];
        } else if (n_grid == 1) {
            dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)p, (BLAS_INT)held, 1.0, z_dev,
                  (BLAS_INT)p, thetas, 1, 0.0, resid, 1);
        } else {
            dgemm(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, CBLAS_NO_TRANS, (BLAS_INT)held,
                  (BLAS_INT)n_grid, (BLAS_INT)p, 1.0, z_dev, (BLAS_INT)p, thetas,
                  (BLAS_INT)n_grid, 0.0, resid, (BLAS_INT)n_grid);
        }
        for (int64_t r = 0; r < held; r++) {
            const double y_e = y[r] - e;
            for (int64_t g = 0; g < n_grid; g++) {
                const double v = y_e - resid[r * n_grid + g];
                resid[r * n_grid + g] = v * v;
            }
        }
        /* np.mean(axis=0) */
        sum_rows(resid, held, n_grid, -1, losses + k * n_grid, gather);
        for (int64_t g = 0; g < n_grid; g++)
            losses[k * n_grid + g] = losses[k * n_grid + g] / (double)held;
    }
done:
    free(work);
    free(codes);
    return ret;
}
