/*
 * Step loops of the simulators, run through the code numpy itself runs.
 *
 * Each entry point repeats, step for step, what the Python loop in
 * simulate.py does.  In the count loops the conditional mean is formed by
 * the same CBLAS call numpy's matmul makes, capped, and each count is drawn
 * by numpy's own random_poisson on the generator's bitgen_t.  numpy switches
 * from the multiplication method to transformed rejection at lambda = 10, so
 * the last bit of lambda decides which draws are taken; the same calls in
 * the same order give the same bits, and so the same series.  The Hawkes
 * loop repeats the float operations of Ogata thinning in their order and
 * draws by numpy's random_standard_exponential, so it gives the same events.
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off -I <numpy include>
 *        -DBLAS_INT=<int type> _countsim.c -lm
 * (-ffp-contract=off keeps t + (1 / lam) * e from being fused into an FMA.)
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

#ifndef BLAS_INT
#define BLAS_INT int
#endif

#define CBLAS_COL_MAJOR 102
#define CBLAS_TRANS 112

typedef int64_t (*poisson_fn)(bitgen_t *, double);
typedef double (*exponential_fn)(bitgen_t *);
typedef double (*ddot_fn)(BLAS_INT, const double *, BLAS_INT, const double *, BLAS_INT);
typedef void (*dgemv_fn)(int, int, BLAS_INT, BLAS_INT, double, const double *, BLAS_INT,
                         const double *, BLAS_INT, double, double *, BLAS_INT);

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
 * Multivariate Poisson INAR(1) from y0: lambda_t = eta + A y_{t-1} with A a
 * C-contiguous d x d matrix, as numpy's matmul computes A @ y through
 * dgemv(ColMajor, Trans, ...).  lam is d doubles of scratch.  Row t of the
 * steps x d matrix out receives y_t; returns as inar does.
 */
int64_t minar1(poisson_fn poisson, dgemv_fn dgemv, bitgen_t *bitgen, int64_t d,
               const double *eta, const double *a, const double *y0, double *lam,
               double *out, int64_t steps, double cap)
{
    const double *y = y0;
    for (int64_t t = 0; t < steps; t++) {
        double *row = out + t * d;
        dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, (BLAS_INT)d, (BLAS_INT)d, 1.0, a, (BLAS_INT)d,
              y, 1, 0.0, lam, 1);
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
