/*
 * Step loops of the simulators and the pivot loop of the Dantzig LP, run
 * through the code numpy itself runs.
 *
 * Each entry point repeats, step for step, what its Python loop does
 * (simulate.py, dantzig.py).  In the count loops the conditional mean is
 * formed by the same CBLAS call numpy's matmul makes, or, for a MINAR(1)
 * matrix of aligned 4 x 4 diagonal blocks, by a block sum checked to give
 * that call's bits (block_sums); it is capped, and each count is drawn as
 * numpy's random_poisson draws it, from the generator's own uniforms fetched
 * ahead in a block (draws_t).  numpy switches from the multiplication method
 * to transformed rejection at lambda = 10, so the last bit of lambda decides
 * which draws are taken; the same sums in the same order give the same bits,
 * and so the same series.  Both count loops write one array: the last p
 * burn-in steps as its lag rows, then the kept steps, so a sample's lag
 * buffer and values are views of it and no burn-in step is kept.
 * The Hawkes loop repeats the float operations of Ogata thinning in their
 * order and draws by numpy's random_standard_exponential, so it gives the
 * same events.  The LP loop sets up its own tableau, repeats the dual simplex
 * pivots of a lambda path in their order, with numpy's dgemv for the
 * right-hand side and its dger for each pivot, and certifies each fit by
 * numpy's dgemv, so it gives the same fits, slacks and statuses.
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

#define DRAW_BLOCK 256 /* uniforms fetched per refill */
#define MEMO_SLOTS 512  /* e^-lambda memo, direct-mapped on the bits of lambda */

/*
 * A call's Poisson draws.  block holds uniforms taken from the generator's
 * own next_double, block[next..DRAW_BLOCK) not yet used, so a draw reads
 * the stream numpy's would read, in the same order.  shim is a bitgen_t
 * whose next_double reads the block, for the draws numpy's random_poisson
 * makes itself.  The uniforms left in the block when the call ends were
 * taken but not used; the caller steps the generator back over them.
 */
typedef struct {
    bitgen_t *source;
    bitgen_t shim;
    int64_t next;
    double block[DRAW_BLOCK];
    uint64_t memo_key[MEMO_SLOTS]; /* 0, the bits of +0.0, marks an empty slot */
    double memo_enlam[MEMO_SLOTS];
} draws_t;

static double shim_next_double(void *st)
{
    draws_t *dr = st;
    if (dr->next == DRAW_BLOCK) {
        for (int64_t i = 0; i < DRAW_BLOCK; i++)
            dr->block[i] = dr->source->next_double(dr->source->state);
        dr->next = 0;
    }
    return dr->block[dr->next++];
}

/* random_poisson reads only next_double; the shim's other members are never called */
static uint64_t shim_next_uint64(void *st)
{
    (void)st;
    abort();
}

static uint32_t shim_next_uint32(void *st)
{
    (void)st;
    abort();
}

static void draws_init(draws_t *dr, bitgen_t *source)
{
    dr->source = source;
    dr->shim.state = dr;
    dr->shim.next_uint64 = shim_next_uint64;
    dr->shim.next_uint32 = shim_next_uint32;
    dr->shim.next_double = shim_next_double;
    dr->shim.next_raw = shim_next_uint64;
    dr->next = DRAW_BLOCK;
    memset(dr->memo_key, 0, sizeof dr->memo_key);
}

/*
 * numpy's random_poisson(lam).  For 0 < lam < 10 that is the multiplication
 * method, run here on the block: X counts the running products U_1 ... U_k
 * above e^-lam, formed in numpy's order.  Each U is below 1, so the products
 * never grow, and where the fourth of four is above e^-lam all four are.
 * Any other lambda is numpy's own code, on the shim.
 */
static double draw_poisson(poisson_fn poisson, draws_t *dr, double lam)
{
    if (lam >= 10.0 || lam == 0.0)
        return (double)poisson(&dr->shim, lam);
    uint64_t key;
    memcpy(&key, &lam, sizeof key);
    const size_t slot = (size_t)((key * UINT64_C(0x9E3779B97F4A7C15)) >> 55);
    if (dr->memo_key[slot] != key) {
        dr->memo_key[slot] = key;
        dr->memo_enlam[slot] = exp(-lam);
    }
    const double enlam = dr->memo_enlam[slot];
    int64_t x = 0;
    double prod = 1.0;
    for (;;) {
        if (dr->next + 4 <= DRAW_BLOCK) {
            const double *u = dr->block + dr->next;
            const double p1 = prod * u[0], p2 = p1 * u[1], p3 = p2 * u[2], p4 = p3 * u[3];
            if (p4 > enlam) {
                x += 4;
                prod = p4;
                dr->next += 4;
                continue;
            }
            /* the products above e^-lam are a prefix, so counting them finds the last */
            const int64_t above = (int64_t)(p1 > enlam) + (p2 > enlam) + (p3 > enlam);
            dr->next += above + 1;
            return (double)(x + above);
        }
        prod *= shim_next_double(dr);
        if (!(prod > enlam))
            return (double)x;
        x++;
    }
}

/*
 * Poisson INAR(p) from the zero state: lambda_t = mu + alpha . history, with
 * history[0] the last count.  Draws burn_in + rows - p steps into out[0..rows):
 * out[0..p) receives the last p burn-in steps (zeros where fewer were drawn)
 * and out[p..) the kept steps.  Returns the number of steps drawn: all of
 * them, or the first step whose lambda is not <= cap.  *unused receives the
 * number of uniforms taken from bitgen but not used.
 */
int64_t inar(poisson_fn poisson, ddot_fn ddot, bitgen_t *bitgen, double mu, int64_t p,
             const double *alpha, int64_t burn_in, double *history, double *out, int64_t rows,
             double cap, int64_t *unused)
{
    draws_t dr;
    draws_init(&dr, bitgen);
    const int64_t steps = burn_in + rows - p;
    memset(out, 0, (size_t)p * sizeof(double));
    int64_t t = 0;
    for (; t < steps; t++) {
        /* numpy's 1-d dot is 0.0 + ddot(...) */
        double lam = mu + (p ? 0.0 + ddot((BLAS_INT)p, alpha, 1, history, 1) : 0.0);
        if (!(lam <= cap))
            break;
        double x = draw_poisson(poisson, &dr, lam);
        if (p) {
            memmove(history + 1, history, (size_t)(p - 1) * sizeof(double));
            history[0] = x;
        }
        if (t + p >= burn_in)
            out[t + p - burn_in] = x;
    }
    *unused = DRAW_BLOCK - dr.next;
    return t;
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
 * Multivariate Poisson INAR(1) from the zero state: lambda_t = eta + A y_{t-1}
 * with A a C-contiguous d x d matrix, as numpy's matmul computes A @ y
 * through dgemv(ColMajor, Trans, ...), or by block_sums where blocks is
 * non-zero.  Draws burn_in + rows - 1 steps into the rows x d matrix out:
 * row 0 receives the last burn-in step (the zero state where burn_in is 0)
 * and rows 1.. the kept steps, the layout of inar with p = 1; the steps
 * before run through the two rows after lam in the 3d doubles of scratch.
 * Returns the steps drawn and the unused uniforms as inar does.
 */
int64_t minar1(poisson_fn poisson, dgemv_fn dgemv, bitgen_t *bitgen, int64_t d,
               const double *eta, const double *a, int64_t blocks, int64_t burn_in,
               double *scratch, double *out, int64_t rows, double cap, int64_t *unused)
{
    draws_t dr;
    draws_init(&dr, bitgen);
    double *lam = scratch;
    const int64_t steps = burn_in + rows - 1;
    memset(out, 0, (size_t)d * sizeof(double));
    const double *y = out;
    int64_t t = 0;
    for (; t < steps; t++) {
        double *row = t + 1 < burn_in ? scratch + (1 + t % 2) * d : out + (t + 1 - burn_in) * d;
        if (blocks)
            block_sums(d, a, y, lam);
        else
            dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)d, (BLAS_INT)d, 1.0, a,
                  (BLAS_INT)d, y, 1, 0.0, lam, 1);
        for (int64_t i = 0; i < d; i++) {
            lam[i] = eta[i] + lam[i];
            if (!(lam[i] <= cap))
                goto done;
        }
        for (int64_t i = 0; i < d; i++)
            row[i] = draw_poisson(poisson, &dr, lam[i]);
        y = row;
    }
done:
    *unused = DRAW_BLOCK - dr.next;
    return t;
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

/* numpy's max of |v[0..n)| for n >= 1: a NaN wins */
static double abs_max(const double *v, int64_t n)
{
    double worst = fabs(v[0]);
    for (int64_t i = 1; i < n && !isnan(worst); i++)
        if (isnan(v[i]) || fabs(v[i]) > worst)
            worst = fabs(v[i]);
    return worst;
}

/*
 * The LP of dantzig._dantzig_path over a path of lambdas sorted from the
 * largest down, for a finite C-contiguous p x p gram and b (p >= 1).  It sets
 * up its own column-major (p+1) x (2p+1) tableau: theta columns, slack columns
 * (which hold B^-1), the values x of the basic variables in the last column
 * and the reduced costs in the last row.  Each lambda warm-starts from the
 * last basis.  Row k of the n_lams x p matrix theta receives lambda k's theta,
 * iterations[k] its pivot count, slack[k] lambda - |b - gram theta|_inf and
 * status[k] 0 (optimal), 1 (infeasible), 2 (iteration limit) or 3 (pivots
 * ended optimal, slack below -1e-8 * scale).  Every float operation is
 * numpy's in the same order: the reset of x is the CBLAS call numpy's matmul
 * makes for tab[:p, p:2p] @ rhs, each pivot is one dger, and gram theta is the
 * dgemv (for p = 1, 0.0 + ddot) of numpy's stacked matmul.  Returns 0, or -1
 * where the scratch cannot be allocated.
 */
int64_t dantzig_path(ddot_fn ddot, dgemv_fn dgemv, dger_fn dger, int64_t p, const double *gram,
                     const double *b, int64_t n_lams, const double *lams, int64_t max_iter,
                     double *theta, int64_t *iterations, int64_t *status, double *slack)
{
    const int64_t ld = p + 1, n_cols = 2 * p;
    double *tab = calloc((size_t)(ld * (n_cols + 1) + 10 * p + 2), sizeof(double));
    int64_t *index = malloc((size_t)(2 * p + 1) * sizeof(int64_t));
    if (!tab || !index) {
        free(tab);
        free(index);
        return -1;
    }
    double *pivot_row = tab + ld * (n_cols + 1), *enter_col = pivot_row + n_cols + 1;
    double *ratios = enter_col + p + 1, *lo = ratios + n_cols, *hi = lo + p, *side = hi + p;
    double *rhs = side + p, *ax = rhs + p;
    int64_t *basis = index, *order = basis + p; /* stored column; Bland index */
    double *x = tab + n_cols * ld, *cost_row = tab + p;
    const double gram_max = abs_max(gram, p * p), b_max = abs_max(b, p);
    double scale = gram_max > 1.0 ? gram_max : 1.0; /* Python's max(1.0, gram_max, b_max) */
    if (b_max > scale)
        scale = b_max;
    const double tol = 1e-9 * scale;
    for (int64_t i = 0; i < p; i++) {
        for (int64_t j = 0; j < p; j++)
            tab[j * ld + i] = gram[i * p + j];
        tab[(p + i) * ld + i] = 1.0;
        tab[i * ld + p] = 1.0;
        basis[i] = p + i;
        order[i] = 2 * p + i;
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
        double *row = theta + k * p;
        memset(row, 0, (size_t)p * sizeof(double));
        for (int64_t i = 0; i < p; i++)
            if (basis[i] < p)
                row[basis[i]] = x[i];
        /* the certificate: numpy's lam - max(|b - gram @ theta|) */
        if (p == 1)
            ax[0] = 0.0 + ddot(1, gram, 1, row, 1);
        else
            dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)p, (BLAS_INT)p, 1.0, gram,
                  (BLAS_INT)p, row, 1, 0.0, ax, 1);
        for (int64_t i = 0; i < p; i++)
            ax[i] = b[i] - ax[i];
        slack[k] = lam - abs_max(ax, p);
        iterations[k] = it;
        status[k] = code == 0 && slack[k] < -1e-8 * scale ? 3 : code;
    }
    free(tab);
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
 * - dantzig_path solves and certifies it from the largest lambda down;
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
    const int64_t n = bounds[folds];
    int64_t held_max = 0, ret = folds;
    for (int64_t k = 0; k < folds; k++)
        if (bounds[k + 1] - bounds[k] > held_max)
            held_max = bounds[k + 1] - bounds[k];
    /* gram and moment; path, path_slack, path_theta and thetas; d; sums and sums_y;
       z_dev and resid; gather, for a block's values or the folds' */
    const size_t n_doubles = (size_t)(p * p + p + n_grid * (2 + 2 * p) + p
                                      + folds * (p + 1) + held_max * (p + n_grid)
                                      + held_max + folds);
    double *work = malloc(n_doubles * sizeof(double));
    int64_t *codes = malloc((size_t)(2 * n_grid) * sizeof(int64_t));
    if (!work || !codes) {
        ret = -1;
        goto done;
    }
    double *gram = work, *moment = gram + p * p, *path = moment + p;
    double *path_slack = path + n_grid, *path_theta = path_slack + n_grid;
    double *thetas = path_theta + n_grid * p, *d = thetas + n_grid * p;
    double *sums = d + p, *sums_y = sums + folds * p, *z_dev = sums_y + folds;
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
        int finite = 1; /* as LinearScoreSystem checks it for solve_dantzig_path */
        for (int64_t i = 0; i < p; i++) {
            for (int64_t j = 0; j < p; j++) {
                double *g = gram + i * p + j;
                *g = *g / m - d[i] * d[j];
                finite &= isfinite(*g) != 0;
            }
            moment[i] = moment[i] / m - d[i] * e;
            finite &= isfinite(moment[i]) != 0;
        }
        if (!finite) {
            ret = -2 - k;
            goto done;
        }
        if (dantzig_path(ddot, dgemv, dger, p, gram, moment, n_grid, path, max_iter,
                         path_theta, path_it, path_status, path_slack)) {
            ret = -1;
            goto done;
        }
        int certified = 1;
        for (int64_t i = 0; i < n_grid; i++) {
            const int64_t g = n_grid - 1 - i;
            iterations[k * n_grid + g] = path_it[i];
            status[k * n_grid + g] = path_status[i];
            slacks[k * n_grid + g] = path_slack[i];
            certified &= path_status[i] == 0;
            for (int64_t j = 0; j < p; j++) /* thetas is p x n_grid, in grid order */
                thetas[j * n_grid + g] = path_theta[i * p + j];
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
