/* The compiled loops of incproc: the event loop of the direct-method
   (Gillespie) kernel, incproc_slice, which keeps a run's clock and its stop
   rules; the channel steps of the condensate runs' two-site excursions,
   incproc_channels; the replay of a stored path onto the metastable
   states of a site set, incproc_trace; the state space of the exact
   analysis, its states in rank order, their ranks and the rate matrix or
   generator in CSR form, incproc_counts, incproc_rank_many and
   incproc_assemble; and the multifrontal LU factor of the exact solves and
   the back substitution of its U, incproc_lu_factor and incproc_lu_solve.

   incproc._native compiles this file once per source hash with
   cc -O2 -ffp-contract=off -shared -fPIC (no fused multiply-adds, so every
   weight rounds as the scalar definition does) and calls the eight
   functions through ctypes. The LU functions call scipy's BLAS and LAPACK
   through function pointers they are handed, so nothing is linked.

   The move table of incproc_slice is in CSR form: the moves out of site x
   are the entries first[x] .. first[x + 1] - 1 of target and coef. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Run at most n events of one replica on the clock *clock, ending after the
   first one whose source is left with stop particles or fewer, or, for
   listed sources, after the one that leaves a single occupied site (both
   set *stopped), or before one that would come after horizon.

   Each event weighs the row of the current state anew: the moves x -> y of
   the sources x in order, then of table row x in order, each weighing
   c_x (d + c_y) coef, sources with no particle skipped, or c_y (d + c_x) coef
   when by_target. With u = unis[m] * total it takes the first move whose
   running sum reaches u, or exceeds it when u is 0.0, so a zero-weight move
   is never taken. Its holding time exps[m] / total (1.0 when by_target)
   moves the clock at least one ulp. The clock goes to times[m] and the move
   id x * kappa + y to moves[m] (if moves is not NULL), and the move is
   applied to counts. Listed sources hold the occupied sites in arrival
   order: a site that becomes occupied is appended, one that empties is
   removed in place, and *n_sources is updated.

   cum and ids are scratch rows of room entries. Returns the number of
   events; -1 if a state has no move of positive weight; or -2, before any
   event, if a source is not a site, and at a row that does not fit. */
int64_t incproc_slice(const int64_t *first, const int64_t *target, const double *coef,
                      int64_t kappa, double d, int by_target, double stop, int listed,
                      int64_t *counts, int64_t *sources, int64_t *n_sources,
                      const double *exps, const double *unis, int64_t n,
                      double *cum, int64_t *ids, int64_t room, double horizon,
                      double *clock, int64_t *stopped, double *times, int64_t *moves)
{
    int64_t ns = *n_sources, m = 0, done = 0;
    double t = *clock;
    for (int64_t s = 0; s < ns; s++)
        if (sources[s] < 0 || sources[s] >= kappa)
            return -2;
    while (m < n && !done) {
        int64_t len = 0;
        double total = 0.0;
        for (int64_t s = 0; s < ns; s++) {
            int64_t x = sources[s];
            if (!by_target && counts[x] == 0)
                continue;
            if (first[x + 1] - first[x] > room - len)
                return -2;
            double cx = (double)counts[x];
            for (int64_t k = first[x]; k < first[x + 1]; k++) {
                int64_t y = target[k];
                double w = by_target ? (double)counts[y] * (d + cx) * coef[k]
                                     : cx * (d + (double)counts[y]) * coef[k];
                total += w;
                cum[len] = total;
                ids[len++] = x * kappa + y;
            }
        }
        double u = unis[m] * total;
        int64_t lo = 0, hi = len;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (u != 0.0 ? cum[mid] < u : cum[mid] <= u)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == len)
            return -1;
        double next = t + (by_target ? 1.0 : exps[m] / total);
        if (next <= t) {    /* one ulp on: t >= 0, so its bits plus one */
            union { double f; uint64_t u; } up = {t};
            up.u++;
            next = up.f;
        }
        if (next > horizon)
            break;
        t = next;
        int64_t move = ids[lo], x = move / kappa, y = move % kappa;
        if (moves) {
            times[m] = t;
            moves[m] = move;
        }
        m++;
        counts[x]--;
        counts[y]++;
        if (listed && counts[y] == 1)
            sources[ns++] = y;
        if (listed && counts[x] == 0) {
            int64_t s = 0;
            while (sources[s] != x)
                s++;
            memmove(sources + s, sources + s + 1, (size_t)(--ns - s) * sizeof *sources);
        }
        done = listed ? ns == 1 : (double)counts[x] <= stop;
    }
    *n_sources = ns;
    *clock = t;
    *stopped = done;
    return m;
}

/* Step the channel excursions of one chunk of a condensate run until none
   is running, or, at a step boundary, fewer draws are left than excursions
   running. Returns the draws used.

   Row p of rows holds channel position p's total rate and its probabilities
   of a step up and of a step up or down; end[p] is the status of an
   excursion that ends at p, or 0. live[0 .. *n_live - 1] are the running
   excursions in order. A step takes the next exponential e and uniform u
   for each running excursion j: dur[j] grows by e / rate; if
   u >= P(up or down), j hops to a third site (status hopped, pos[j] kept),
   else pos[j] steps up if u < P(up) and down if not. An excursion that ends
   leaves live, which keeps its order, with taken[j] = *steps. */
int64_t incproc_channels(const double *rows, const uint8_t *end, uint8_t hopped,
                         int64_t *live, int64_t *n_live, int64_t *steps,
                         int64_t *pos, double *dur, uint8_t *status, int64_t *taken,
                         const double *exps, const double *unis, int64_t n)
{
    int64_t nl = *n_live, used = 0;
    while (nl && n - used >= nl) {
        const double *e = exps + used, *u = unis + used;
        int64_t kept = 0, step = ++*steps;
        for (int64_t i = 0; i < nl; i++) {
            int64_t j = live[i];
            const double *row = rows + 3 * pos[j];
            dur[j] += e[i] / row[0];
            uint8_t fin;
            if (u[i] >= row[2]) {
                fin = hopped;
            } else {
                pos[j] += u[i] < row[1] ? 1 : -1;
                fin = end[pos[j]];
            }
            if (fin) {
                status[j] = fin;
                taken[j] = step;
            } else {
                live[kept++] = j;
            }
        }
        used += nl;
        nl = kept;
    }
    *n_live = nl;
    return used;
}

/* Replay a stored path of n events on kappa sites, N = total particles,
   onto the states of the sites x with in_a[x] set that hold all N.

   Interval i runs from event i - 1 (or time 0) to event i (or horizon) in
   the state left by the first i events, whose label is that site (the
   lowest, when N = 0 and every site holds all N), or -1 off the set. Event
   i moves a particle from move_from[i] to move_to[i] in counts (the initial
   counts, updated in place); after it only the target can hold all N. Each
   interval's dt = until - start is added, one at a time in path order, to
   the trace clock clocks[0] when it is on the set, else to the off clock
   clocks[1]. A segment opens where the label on the set differs from the
   last one seen on it (leaving the set and coming back to the same site
   merges) and closes where the next one opens: its label, the trace time it
   held (added in path order) and the trace clock at its close go to labels,
   sojourns and ends, which hold room for n + 1.

   Returns the number of segments; -1 at an event that is not a move
   between sites; -2 at a time that is not finite, is below the one before
   (or 0), or is past the horizon; or -3 at a move out of an empty site. */
int64_t incproc_trace(const double *times, const int32_t *move_from, const int32_t *move_to,
                      int64_t n, double horizon, int64_t kappa, int64_t total,
                      const uint8_t *in_a, int64_t *counts, int64_t *labels,
                      double *sojourns, double *ends, double *clocks)
{
    int64_t label = -1, m = 0;
    for (int64_t x = kappa - 1; x >= 0; x--)
        if (in_a[x] && counts[x] == total)
            label = x;
    int64_t seg = label;
    double start = 0.0, trace = 0.0, off = 0.0, seg_time = 0.0;
    for (int64_t i = 0; i <= n; i++) {
        double until = i < n ? times[i] : horizon, dt = until - start;
        if (!isfinite(until) || dt < 0)
            return -2;
        if (label >= 0) {
            trace += dt;
            seg_time += dt;
        } else {
            off += dt;
        }
        start = until;
        if (i == n)
            break;
        int64_t x = move_from[i], y = move_to[i];
        if (x < 0 || x >= kappa || y < 0 || y >= kappa)
            return -1;
        if (counts[x] == 0)
            return -3;
        counts[x]--;
        counts[y]++;
        label = counts[y] == total && in_a[y] ? y : -1;
        if (label >= 0 && label != seg) {
            if (seg >= 0) {
                labels[m] = seg;
                sojourns[m] = seg_time;
                ends[m++] = trace;
            }
            seg = label;
            seg_time = 0.0;
        }
    }
    if (seg >= 0) {
        labels[m] = seg;
        sojourns[m] = seg_time;
        ends[m++] = trace;
    }
    clocks[0] = trace;
    clocks[1] = off;
    return m;
}

/* The configuration space of N = n particles on kappa >= 2 sites: its
   states in rank order, their ranks, and the jump-rate matrix or generator
   over it in CSR form.

   States are ordered lexicographically with larger counts first, so rank 0
   is (N, 0, ..., 0). cum is the (N + 1) x kappa table, row-major, of
   cum[m][k] = C(m + k, k), the number of compositions of totals 0 .. m into
   k parts. With P_{j+1} the count prefix sum through site j,
   rank(eta) = sum_{j < kappa - 1} F_j(P_{j+1}), where
   F_j(P) = cum[N - P - 1][kappa - 1 - j] for P < N and 0 from N on. The
   states' counts are rows of kappa int32, the rows incproc_rank_many ranks
   of kappa int64. */

static int64_t rank_term(const int64_t *cum, int64_t kappa, int64_t n, int64_t j, int64_t p)
{
    return p < n ? cum[(n - p - 1) * kappa + kappa - 1 - j] : 0;
}

/* The prefix steps of the state c, from which incproc_assemble reads the
   rank of each moved state: steps[k] sums, over j < k, the change of F_j
   when P_{j+1} drops by one, and steps[kappa + k] its change when P_{j+1}
   rises by one. A move from x to y lowers P_{j+1} by one for x <= j < y and
   raises it for y <= j < x, so it moves the rank by steps[y] - steps[x]
   when x < y, and by steps[kappa + x] - steps[kappa + y] when y < x
   (row_moves). */
static void prefix_steps(const int32_t *c, int64_t kappa, int64_t n, const int64_t *cum,
                         int64_t *steps)
{
    int64_t p = 0;
    steps[0] = steps[kappa] = 0;
    for (int64_t j = 0; j < kappa - 1; j++) {
        p += c[j];
        int64_t here = rank_term(cum, kappa, n, j, p);
        steps[j + 1] = steps[j] + rank_term(cum, kappa, n, j, p - 1) - here;
        steps[kappa + j + 1] = steps[kappa + j] + rank_term(cum, kappa, n, j, p + 1) - here;
    }
}

/* The size states in rank order, one row of out each. The state after eta
   takes one particle off the last site j < kappa - 1 that holds one and
   puts it, with all of the last site's, on site j + 1. */
void incproc_counts(int64_t kappa, int64_t n, int64_t size, int32_t *out)
{
    memset(out, 0, (size_t)kappa * sizeof *out);
    out[0] = (int32_t)n;
    for (int64_t i = 1; i < size; i++) {
        int32_t *row = out + i * kappa;
        memcpy(row, row - kappa, (size_t)kappa * sizeof *row);
        int64_t j = kappa - 2;
        while (row[j] == 0)
            j--;
        int32_t tail = row[kappa - 1];
        row[j]--;
        row[kappa - 1] = 0;
        row[j + 1] = tail + 1;
    }
}

/* The ranks of the m rows of kappa counts in counts. Returns m; or, at the
   first row that is not a state of N particles (a negative count, or
   counts that do not sum to N), the number of rows before it. */
int64_t incproc_rank_many(int64_t kappa, int64_t n, const int64_t *cum, const int64_t *counts,
                          int64_t m, int64_t *ranks)
{
    for (int64_t i = 0; i < m; i++) {
        const int64_t *c = counts + i * kappa;
        int64_t r = 0, p = 0;
        for (int64_t j = 0; j < kappa - 1; j++) {
            if (c[j] < 0 || c[j] > n - p)
                return i;
            p += c[j];
            r += rank_term(cum, kappa, n, j, p);
        }
        if (c[kappa - 1] != n - p)
            return i;
        ranks[i] = r;
    }
    return m;
}

/* numpy's pairwise sum of a[0 .. len - 1] (its DOUBLE_pairwise_sum): a
   running sum from 0.0 below 8 terms; up to 128, eight running sums over
   the largest multiple of 8 terms, added as ((0 + 1) + (2 + 3)) + ((4 + 5)
   + (6 + 7)), then the rest one at a time; beyond, the sum of the halves,
   split at a multiple of 8. */
static double pairwise_sum(const double *a, int64_t len)
{
    if (len < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < len; i++)
            s += a[i];
        return s;
    }
    if (len <= 128) {
        double r[8];
        int64_t i;
        for (int64_t j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < len - len % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < len; i++)
            s += a[i];
        return s;
    }
    int64_t half = len / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, len - half);
}

/* The moves of the state c of rank i, with prefix steps steps, into row
   and cols: the moves xs[k] -> ys[k] out of the sites c occupies, in
   order, each of weight c_x (d + c_y) rate[k] at the moved state's rank.
   The first before moves have y < x. Returns the moves written, and those
   of the first before in *below. Each move is written and then kept or
   not, with no branch on the counts. */
static int64_t row_moves(const int32_t *c, int64_t kappa, const int64_t *steps, int64_t i,
                         const int64_t *xs, const int64_t *ys, const double *rate,
                         int64_t nmoves, int64_t before, double d, double *row, int32_t *cols,
                         int64_t *below)
{
    int64_t len = 0, k = 0;
    for (; k < before; k++) {
        int64_t x = xs[k], y = ys[k];
        row[len] = (double)c[x] * (d + (double)c[y]) * rate[k];
        cols[len] = (int32_t)(i + steps[kappa + x] - steps[kappa + y]);
        len += c[x] != 0;
    }
    *below = len;
    for (; k < nmoves; k++) {
        int64_t x = xs[k], y = ys[k];
        row[len] = (double)c[x] * (d + (double)c[y]) * rate[k];
        cols[len] = (int32_t)(i + steps[y] - steps[x]);
        len += c[x] != 0;
    }
    return len;
}

/* The jump-rate matrix (generator 0) or the generator (generator 1) of the
   walk with the nmoves moves xs[k] -> ys[k] of rate rate[k] over the size
   states in rank order, in CSR form: indptr, indices and data, which have
   room for every row's moves, and for the generator one diagonal entry a
   row more. Returns the entries written.

   The moves come in the column order of every row, the first before of
   them, those with y < x, below the diagonal. A state's row lists the
   moves of row_moves. The generator puts the holding rate, negated, after
   the row's moves with y < x and leaves out the entries that are exactly
   zero, the holding rate too. The holding rate is scipy's row sum of the
   rate row, np.add.reduceat: its first weight plus the pairwise sum of the
   others. row and cols have room for nmoves, steps for 2 kappa. */
int64_t incproc_assemble(int64_t kappa, int64_t n, const int64_t *cum, const int32_t *counts,
                         int64_t size, const int64_t *xs, const int64_t *ys, const double *rate,
                         int64_t nmoves, int64_t before, double d, int generator,
                         int32_t *indptr, int32_t *indices, double *data, double *row,
                         int32_t *cols, int64_t *steps)
{
    int64_t nnz = 0, below;
    indptr[0] = 0;
    for (int64_t i = 0; i < size; i++) {
        const int32_t *c = counts + i * kappa;
        prefix_steps(c, kappa, n, cum, steps);
        int64_t len = row_moves(c, kappa, steps, i, xs, ys, rate, nmoves, before, d, row,
                                cols, &below);
        int32_t *ind = indices + nnz;
        double *val = data + nnz;
        if (!generator) {
            memcpy(ind, cols, (size_t)len * sizeof *ind);
            memcpy(val, row, (size_t)len * sizeof *val);
            nnz += len;
        } else {
            double holding = len ? row[0] + pairwise_sum(row + 1, len - 1) : 0.0;
            int64_t out = 0;
            for (int64_t k = 0; k <= len; k++) {
                if (k == below && holding != 0.0) {
                    ind[out] = (int32_t)i;
                    val[out++] = -holding;
                }
                if (k < len && row[k] != 0.0) {
                    ind[out] = cols[k];
                    val[out++] = row[k];
                }
            }
            nnz += out;
        }
        indptr[i + 1] = (int32_t)nnz;
    }
    return nnz;
}

/* The multifrontal LU factor of a sparse n x n matrix A and the back
   substitution of its U, on the blocks of a separator tree in elimination
   order (Duff and Reid, ACM TOMS 9, 1983; Liu, SIAM Review 34, 1992).

   Block k eliminates the s = size[k] positions start .. start + s - 1,
   start the sum of the sizes before it. Its boundary is the b = bptr[k + 1]
   - bptr[k] later positions bnd[bptr[k]] .., ascending, that the block and
   the blocks below it may touch; its children are the nchild[k] blocks
   whose boundaries it collects. Its front is the dense (s + b) x (s + b)
   matrix on its own positions, then its boundary, and is kept in four
   column-major pieces: F11 (s x s), F12 (s x b), F21 (b x s) and F22 (b x b).
   The first three are the block's share of the factor, in order in lu; F22
   is its update matrix, on a stack in work.

   fn holds dgemm, dtrsm, dgetrf and dlaswp, called with Fortran's
   conventions. */

typedef void blas_fn(void);
typedef void dgemm_fn(char *, char *, int *, int *, int *, double *, double *, int *, double *,
                      int *, double *, double *, int *);
typedef void dtrsm_fn(char *, char *, char *, char *, int *, int *, double *, double *, int *,
                      double *, int *);
typedef void dgetrf_fn(int *, int *, double *, int *, int *, int *);
typedef void dlaswp_fn(int *, double *, int *, int *, int *, int *, int *);

/* Factor A, given by its rows (rptr, rind, rval: CSR) and its columns
   (cptr, cind, cval: CSC), with pivoting inside each block's F11.

   Each block zeroes its front, adds the entries of A in its own rows from
   its first column on and in its own columns below its own rows, adds its
   children's update matrices (the top nchild[k] of the stack, popped),
   then factors F11 = P L11 U11 (dgetrf, swaps in ipiv[start ..], numbered
   from 1 in the block), applies P to F12, forms U12 = L11^-1 F12 and
   L21 = F21 U11^-1 (dtrsm) and the update F22 - L21 U12 (dgemm), which it
   pushes. lu receives, per block, the LU of F11 (unit L below the
   diagonal, U on and above it), U12 and L21: s (s + 2 b) entries. work has
   room for room entries; ids room for the block ids of the stack; where
   for n entries, all -1 on entry and left so on success; loc for the
   largest boundary.

   Positions after the last block's are not eliminated: when they are the
   last block's boundary, its update, on them, is left at the bottom of
   work. A zero pivot is left to give an inf or nan factor. Returns 0; -1
   if an entry of A, or a child's boundary, falls outside the block's
   front; -2 if the stack would outgrow work. */
int64_t incproc_lu_factor(int64_t nblocks, const int64_t *size, const int64_t *nchild,
                          const int64_t *bptr, const int32_t *bnd, const int32_t *rptr,
                          const int32_t *rind, const double *rval, const int32_t *cptr,
                          const int32_t *cind, const double *cval, double *lu, int *ipiv,
                          double *work, int64_t room, int64_t *ids, int32_t *where,
                          int32_t *loc, blas_fn *const *fn)
{
    dgemm_fn *gemm = (dgemm_fn *)fn[0];
    dtrsm_fn *trsm = (dtrsm_fn *)fn[1];
    dgetrf_fn *getrf = (dgetrf_fn *)fn[2];
    dlaswp_fn *laswp = (dlaswp_fn *)fn[3];
    char no = 'N', left = 'L', right = 'R', lower = 'L', upper = 'U', unit = 'U';
    double one = 1.0, minus = -1.0;
    int inc = 1, info;
    int64_t start = 0, depth = 0, top = 0;
    for (int64_t k = 0; k < nblocks; k++) {
        int64_t s = size[k], b = bptr[k + 1] - bptr[k], end = start + s;
        const int32_t *bk = bnd + bptr[k];
        double *f11 = lu, *f12 = f11 + s * s, *f21 = f12 + s * b;
        lu = f21 + b * s;
        /* the children's updates run from base to top; this block's goes above */
        int64_t base = top;
        if (nchild[k] > depth)
            return -1;
        for (int64_t c = depth - nchild[k]; c < depth; c++) {
            int64_t cb = bptr[ids[c] + 1] - bptr[ids[c]];
            base -= cb * cb;
        }
        if (top + b * b > room)
            return -2;
        double *f22 = work + top;
        memset(f11, 0, (size_t)(s * (s + 2 * b)) * sizeof *f11);
        memset(f22, 0, (size_t)(b * b) * sizeof *f22);
        for (int64_t i = 0; i < s; i++)
            where[start + i] = (int32_t)i;
        for (int64_t p = 0; p < b; p++)
            where[bk[p]] = (int32_t)(s + p);
        for (int64_t i = start; i < end; i++)
            for (int32_t e = rptr[i]; e < rptr[i + 1]; e++) {
                if (rind[e] < start)
                    continue;
                int32_t l = where[rind[e]];
                if (l < 0)
                    return -1;
                if (l < s)
                    f11[l * s + (i - start)] += rval[e];
                else
                    f12[(l - s) * s + (i - start)] += rval[e];
            }
        for (int64_t j = start; j < end; j++)
            for (int32_t e = cptr[j]; e < cptr[j + 1]; e++) {
                if (cind[e] < end)
                    continue;
                int32_t l = where[cind[e]];
                if (l < 0)
                    return -1;
                f21[(j - start) * b + (l - s)] += cval[e];
            }
        const double *u = work + base;
        for (int64_t c = depth - nchild[k]; c < depth; c++) {
            int64_t cb = bptr[ids[c] + 1] - bptr[ids[c]], own = 0;
            const int32_t *cbnd = bnd + bptr[ids[c]];
            /* the child's boundary ascends, so the entries in this block's
               own positions come first and the rest lie in its boundary */
            for (int64_t p = 0; p < cb; p++) {
                loc[p] = where[cbnd[p]];
                if (loc[p] < 0 || (loc[p] < s && own++ != p))
                    return -1;
            }
            for (int64_t q = 0; q < cb; q++, u += cb) {
                int64_t l = loc[q];
                double *top_rows = l < s ? f11 + l * s : f12 + (l - s) * s;
                double *bottom_rows = l < s ? f21 + l * b : f22 + (l - s) * b;
                for (int64_t p = 0; p < own; p++)
                    top_rows[loc[p]] += u[p];
                for (int64_t p = own; p < cb; p++)
                    bottom_rows[loc[p] - s] += u[p];
            }
        }
        depth -= nchild[k];
        int is = (int)s, ib = (int)b;
        if (s) {
            getrf(&is, &is, f11, &is, ipiv + start, &info);
            if (b) {
                laswp(&ib, f12, &is, &inc, &is, ipiv + start, &inc);
                trsm(&left, &lower, &no, &unit, &is, &ib, &one, f11, &is, f12, &is);
                trsm(&right, &upper, &no, &no, &ib, &is, &one, f11, &is, f21, &ib);
                gemm(&no, &no, &ib, &ib, &is, &minus, f21, &ib, f12, &is, &one, f22, &ib);
            }
        }
        memmove(work + base, f22, (size_t)(b * b) * sizeof *f22);
        top = base + b * b;
        ids[depth++] = k;
        for (int64_t i = start; i < end; i++)
            where[i] = -1;
        for (int64_t p = 0; p < b; p++)
            where[bk[p]] = -1;
        start = end;
    }
    return 0;
}

/* Solve U x = y in place for the one column x with the upper factor U
   that incproc_lu_factor left in lu: per block in reverse, its own rows
   updated from its boundary by U12, then U11. Positions no block
   eliminates keep their values, as if U were the identity there; the
   swaps of ipiv act on the rows of L alone. scratch has room for the
   largest boundary. */
void incproc_lu_solve(int64_t nblocks, const int64_t *size, const int64_t *bptr,
                      const int32_t *bnd, const double *lu, double *x, double *scratch,
                      blas_fn *const *fn)
{
    dgemm_fn *gemm = (dgemm_fn *)fn[0];
    dtrsm_fn *trsm = (dtrsm_fn *)fn[1];
    char no = 'N', left = 'L', upper = 'U';
    double one = 1.0, minus = -1.0;
    int column = 1;
    int64_t start = 0;
    for (int64_t k = 0; k < nblocks; k++) {
        int64_t s = size[k], b = bptr[k + 1] - bptr[k];
        start += s;
        lu += s * (s + 2 * b);
    }
    for (int64_t k = nblocks - 1; k >= 0; k--) {
        int64_t s = size[k], b = bptr[k + 1] - bptr[k];
        const int32_t *bk = bnd + bptr[k];
        int is = (int)s, ib = (int)b;
        lu -= s * (s + 2 * b);
        start -= s;
        if (!s)
            continue;
        if (b) {
            for (int64_t p = 0; p < b; p++)
                scratch[p] = x[bk[p]];
            gemm(&no, &no, &is, &column, &ib, &minus, (double *)lu + s * s, &is, scratch, &ib,
                 &one, x + start, &is);
        }
        trsm(&left, &upper, &no, &no, &is, &column, &one, (double *)lu, &is, x + start, &is);
    }
}
