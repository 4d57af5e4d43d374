/* The compiled loops of incproc: the event loop of the direct-method
   (Gillespie) kernel, incproc_slice, which keeps a run's clock and its stop
   rules; the channel steps of the condensate runs' two-site excursions,
   incproc_channels; and the replay of a stored path onto the metastable
   states of a site set, incproc_trace.

   incproc.simulate compiles this file once per source hash with
   cc -O2 -ffp-contract=off -shared -fPIC (no fused multiply-adds, so every
   weight rounds as the scalar definition does) and calls the three
   functions through ctypes.

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
