"""Oracles the tests check the package against.

These are exact or closed-form quantities that no command, criterion or
benchmark of the package computes: the outgoing moves of one
configuration, the exact crossing probability of a torus's two-site
channel (the gambler's-ruin quantity behind the reversible analysis of
Bianchi, Dommers and Giardina, EJP 2017) with the trace-rate kernel it
gives, and a lifted linear function on the torus.

``stationary_law`` is the exact stationary law of a small chain, solved
in rationals from its balance equations: the reference of the walk
measure and of the limit chain's law.

``draw`` reads one value of a replica's draws as the references of the
event kernel read them.

``superlu_reduction`` keeps the reduction onto the metastable states that
the exact solves made before they eliminated the whole jump chain once,
with SuperLU in place of the multifrontal factor: the interior system
``I - P_ii`` off every metastable state, eliminated in a given order; its
hitting columns, solved with one step of iterative refinement; the trace
generator ``G = R[xi] @ h``; and the stationary law off xi from the
refined transposed solve. It is the reference the exact solves are
checked against, and its hitting columns the one the Monte Carlo
absorption frequencies check.

``lockstep_runs`` keeps the numpy sampler of the condensate runs that the
compiled channel steps replaced: ``_lockstep`` steps the excursions of a
batch of replicas together, one array pass per channel step. The compiled
loop must give the same runs, bit for bit.

``NumpyStates`` and ``assemble`` keep the numpy state-space layer that the
compiled ``incproc_counts``, ``incproc_rank_many`` and ``incproc_assemble``
replaced: the states in rank order by a binary search per position, the
ranks, the moved ranks from per-state prefix sums, and the rate matrix or
generator gathered into CSR with scipy's row sum as the holding rate. They
call no compiled code, and the compiled layer must give the same arrays,
bit for bit.

``inner_closure`` is a region's inner core with every state one
positive-rate move inside R away from it, each moved state ranked on a
shifted copy of the counts by ``NumpyStates.rank_many``: the states whose
values the test function's oscillation spans.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import incproc.exact as exact
from incproc import Configuration, ProcessParams, SmoothFunction, TorusSpec, WalkSpec
from incproc.exact import _column_key
from incproc.model import _gth_stationary
from incproc.states import StateEnumeration
from incproc.thermo import (CHECKPOINTS, CondensateRun, _Channels, _channel_rates,
                            _CondensateReplica, _HOPPED)


def stationary_law(rates) -> list[Fraction]:
    """The stationary law of the chain with off-diagonal ``rates``, each
    float read as the rational it is: ``pi Q = 0`` with ``sum(pi) = 1`` in
    place of the last balance equation, by Gauss-Jordan elimination in
    ``Fraction``."""
    n = len(rates)
    q = [[Fraction(float(rates[i][j])) if i != j else Fraction(0) for j in range(n)]
         for i in range(n)]
    a = [[q[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = -sum(q[i])
    a[-1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    return [b[i] / a[i][i] for i in range(n)]


def relative_miss(got, want: Sequence[Fraction]) -> float:
    """The largest relative miss of the floats ``got`` from the rationals
    ``want``, entry by entry, computed exactly."""
    return float(max(abs(Fraction(float(g)) - w) / w for g, w in zip(got, want)))


def draw(blocks, kind: str) -> float:
    """The next ``kind`` ("exponential" or "uniform") of ``blocks``, an
    ``incproc.simulate._Blocks``, used."""
    value = float(getattr(blocks, kind + "s")(1)[0])
    blocks.use(kind == "uniform", kind == "exponential")
    return value


@dataclass(frozen=True)
class Reduction:
    """The reduction onto the metastable states by :func:`superlu_reduction`:
    the interior system ``system`` in the order ``order``, the hitting
    probabilities ``hitting[:, y]`` of xi^y per state, the trace generator,
    the stationary law, and the L+U nonzeros SuperLU stored."""

    order: np.ndarray
    system: sp.csr_matrix
    hitting: np.ndarray
    generator: np.ndarray
    stationary: np.ndarray
    lu_nnz: int


def superlu_reduction(spec: WalkSpec, params: ProcessParams, order=None) -> Reduction:
    """Reduce the jump chain onto its metastable states xi as the exact
    solves did with one factor of the interior system: ``I - P_ii`` off xi,
    its rows and columns in ``order`` (by default the order the exact
    solves eliminate the interior in), factored by SuperLU in that order
    (``NATURAL``). The kappa hitting columns solve ``(I - P_ii) h =
    P[i, xi]`` with one step of iterative refinement and are clipped to
    [0, 1]; ``G = R[xi] @ h`` off the diagonal, its negated row sums on it.
    On xi the stationary law is G's, by GTH; off xi the flux ``nu = mu *
    holding`` solves ``nu (I - P_ii) = mu_xi R[xi, interior]`` by the
    transposed solve with one refinement step, is clipped at zero and
    divided by the holding rates, and the law is normalised."""
    enum = StateEnumeration(spec.kappa, params.n)
    xi = np.array([enum.xi_index(x) for x in range(spec.kappa)])
    if order is None:
        order = exact._nested_dissection(enum.counts_matrix(), xi).perm[:-spec.kappa]
    rates = exact.build_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    p_i = sp.diags(1.0 / holding[order]) @ rates[order]
    a = sp.eye(order.size, format="csr") - p_i[:, order]
    lu = spla.splu(sp.csc_matrix(a), permc_spec="NATURAL")

    def solve(b, trans=False):
        side = "T" if trans else "N"
        x = lu.solve(b, trans=side)
        x -= lu.solve((a.T if trans else a) @ x - b, trans=side)
        return x

    h = np.zeros((enum.size, spec.kappa))
    h[xi, np.arange(spec.kappa)] = 1.0
    h[order] = np.clip(solve(p_i[:, xi].toarray()), 0.0, 1.0)
    g = rates[xi] @ h
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    mu = np.empty(enum.size)
    mu[xi] = _gth_stationary(g)
    nu = solve(rates[xi][:, order].T @ mu[xi], trans=True)
    mu[order] = np.clip(nu, 0.0, None) / holding[order]
    return Reduction(order, a, h, g, mu / mu.sum(), int(lu.nnz))


@dataclass(frozen=True)
class LocalKinetics:
    """Outgoing moves of one configuration: rates, holding rate, jump probs."""

    moves: tuple[tuple[int, int, float], ...]
    holding: float
    probs: tuple[tuple[int, int, float], ...]


def local_kinetics(spec: WalkSpec, params: ProcessParams,
                   eta: Configuration | Sequence[int]) -> LocalKinetics:
    """All positive-rate moves out of ``eta`` with the holding rate.

    The rate of the move x -> y is ``eta_x * (d + eta_y) * r(x, y)``; moves
    with zero rate are omitted.
    """
    counts = eta.counts if isinstance(eta, Configuration) else tuple(eta)
    r = spec.rates
    d = params.d
    moves = []
    holding = 0.0
    for x in range(spec.kappa):
        cx = counts[x]
        if cx == 0:
            continue
        for y in range(spec.kappa):
            rxy = r[x, y]
            if rxy == 0.0 or y == x:
                continue
            rate = cx * (d + counts[y]) * rxy
            moves.append((x, y, rate))
            holding += rate
    probs = tuple((x, y, rate / holding) for x, y, rate in moves)
    return LocalKinetics(moves=tuple(moves), holding=holding, probs=probs)


def _tube_crossing_probability(n: int, d: float, fwd: float, bwd: float) -> float:
    """Absorption at the far end of the two-site channel from one particle in.

    The birth-death chain of :func:`_channel_rates`, by the gambler's-ruin
    product form; ``cumprod`` and ``cumsum`` run in level order.
    """
    if fwd <= 0:
        return 0.0
    up, down = _channel_rates(n, d, fwd, bwd)
    with np.errstate(over="ignore"):   # an infinite sum is probability 0
        prods = np.cumprod(down[1:n] / up[1:n])
        return 1.0 / float(np.cumsum(np.concatenate(([1.0], prods)))[-1])


def tube_rates(spec: TorusSpec) -> dict[tuple[int, ...], float]:
    """Condensate jump-rate kernel by offset from the exact two-site-channel
    crossing probability, times the escape rate ``N d_L h(y)``."""
    out: dict[tuple[int, ...], float] = {}
    n, d_l = spec.n, spec.d_l
    offsets = set(spec.kernel)
    offsets.update(tuple(-v for v in off) for off in spec.kernel)
    for off in sorted(offsets):
        h_fwd = spec.h(off)
        h_bwd = spec.h(tuple(-v for v in off))
        rate = n * d_l * h_fwd * _tube_crossing_probability(n, d_l, h_fwd, h_bwd)
        if rate > 0:
            out[off] = rate
    return out


def linear_function(slope: Sequence[float] | float) -> SmoothFunction:
    """A lifted linear function (not periodic; useful for drift checks)."""
    a = np.atleast_1d(np.asarray(slope, dtype=float))
    return SmoothFunction(
        value=lambda u: float(a @ np.atleast_1d(u)),
        grad=lambda u: a.copy(),
        hess=lambda u: np.zeros((a.size, a.size)))


# excursions one lockstep pass holds when it gathers more than one replica
_LOCKSTEP_EXCURSIONS = 1 << 17
_STEP = np.array([-1, 1])


def lockstep_runs(spec: TorusSpec, t_rescaled: float, seed: int,
                  streams: Sequence[int]) -> list[CondensateRun]:
    """The condensate runs of ``streams`` by the lockstep sampler, each pass
    gathering the next chunk of as many replicas as fit in
    ``_LOCKSTEP_EXCURSIONS``."""
    horizon = spec.theta * t_rescaled
    checkpoints = horizon * (np.arange(1, CHECKPOINTS + 1) / CHECKPOINTS)
    ch = _Channels(spec)
    runs = [_CondensateReplica(ch, seed, s, horizon, checkpoints) for s in streams]
    queue = deque(runs)
    while queue:
        batch: list[_CondensateReplica] = []
        held = 0
        while queue:
            r = queue[0]
            size = len(r.chunk[1]) if r.chunk is not None else r.draw_chunk(ch)
            if batch and held + size > _LOCKSTEP_EXCURSIONS:
                break
            batch.append(queue.popleft())
            held += size
        _lockstep(ch, batch)
        queue.extend(r for r in batch if not r.finished)
    return [r.result() for r in runs]


def _lockstep(ch: _Channels, batch: list[_CondensateReplica]) -> None:
    """Run the excursions of every replica's current chunk together, one
    channel step per pass, and record their outcomes.

    At each step a replica takes one exponential and one uniform per active
    excursion, in excursion order, from its chunk's two channel streams. The
    draws sit in one buffer segment per replica, refilled from the streams
    when it runs short, so a step costs a fixed number of array operations.
    """
    sizes = [len(r.chunk[1]) for r in batch]
    n_rep, n_exc = len(batch), sum(sizes)
    rep = np.repeat(np.arange(n_rep), sizes)
    pos = np.concatenate([r.chunk[1] for r in batch]) * (ch.n + 1) + 1
    eid = np.arange(n_exc)
    dur = np.zeros(n_exc)
    status = np.zeros(n_exc, dtype=np.uint8)
    last = np.zeros(n_exc, dtype=np.int64)
    spent = np.zeros(n_exc)
    taken = np.zeros(n_exc, dtype=np.int64)

    width = 2 * np.array(sizes)
    seg = np.concatenate(([0], np.cumsum(width)[:-1]))
    ebuf = np.concatenate([r.exps.exponential(1.0, w) for r, w in zip(batch, width)])
    ubuf = np.concatenate([r.unis.random(w) for r, w in zip(batch, width)])
    used = np.zeros(n_rep, dtype=np.int64)
    counts = np.zeros(n_rep, dtype=np.int64)
    since = 0            # steps since ``used`` was brought up to date
    fresh = 0            # steps every segment can still serve

    n_steps = 0
    fin = ch.end[pos]
    while True:
        if np.count_nonzero(fin):
            done = np.flatnonzero(fin)
            status[eid[done]] = fin[done]
            spent[eid[done]] = dur[done]
            last[eid[done]] = pos[done]
            taken[eid[done]] = n_steps
            keep = fin == 0
            rep, pos, eid, dur = rep[keep], pos[keep], eid[keep], dur[keep]
            fresh = 0
        if not pos.size:
            break
        if not fresh:
            used += counts * since
            since = 0
            counts = np.bincount(rep, minlength=n_rep)
            short = np.flatnonzero(width - used < counts)
            for i, s, w, u in zip(short.tolist(), seg[short].tolist(),
                                  width[short].tolist(), used[short].tolist()):
                ebuf[s:s + w - u] = ebuf[s + u:s + w]
                ubuf[s:s + w - u] = ubuf[s + u:s + w]
                ebuf[s + w - u:s + w] = batch[i].exps.exponential(1.0, u)
                ubuf[s + w - u:s + w] = batch[i].unis.random(u)
                used[i] = 0
            live = counts > 0
            fresh = int(((width - used)[live] // counts[live]).min())
            first = np.cumsum(counts) - counts
            at = (seg + used - first)[rep] + np.arange(rep.size)
            stride = counts[rep]
        e = ebuf[at]
        u = ubuf[at]
        at += stride
        n_steps += 1
        since += 1
        fresh -= 1
        row = ch.rows[pos]
        dur += e / row[:, 0]
        hop = u >= row[:, 2]
        step = _STEP[(u < row[:, 1]).view(np.uint8)]
        pos += step
        fin = ch.end[pos]
        if np.count_nonzero(hop):
            fin[hop] = _HOPPED
            pos[hop] -= step[hop]

    lo = 0
    for r, size in zip(batch, sizes):
        part = slice(lo, lo + size)
        r.record(ch, status[part], last[part], spent[part], taken[part])
        lo += size


class NumpyStates:
    """The configuration space of ``n`` particles on ``kappa`` sites in the
    larger-counts-first order, by numpy alone."""

    def __init__(self, kappa: int, n: int):
        self.kappa, self.n = kappa, n
        self.size = comb(n + kappa - 1, kappa - 1)
        # cum[m, k] = number of compositions of totals 0..m into k parts
        self.cum = np.zeros((n + 1, kappa), dtype=np.int64)
        for m in range(n + 1):
            for k in range(1, kappa):
                self.cum[m, k] = comb(m + k, k)
        self.counts = self.unrank_many(np.arange(self.size)).astype(np.int32)

    def unrank_many(self, ranks: np.ndarray) -> np.ndarray:
        """Count vectors of valid ranks as a (len(ranks), kappa) int64 matrix."""
        r = np.array(ranks, dtype=np.int64)
        out = np.empty((r.size, self.kappa), dtype=np.int64)
        remaining = np.full(r.size, self.n, dtype=np.int64)
        for j in range(self.kappa - 1):
            parts_after = self.kappa - 1 - j
            # the block of states with count remaining - u at position j
            # starts at offset cum[u - 1, parts_after] (0 for u = 0), and the
            # offsets grow with u; u counts the block starts at or below r
            col = self.cum[:, parts_after]
            u = np.searchsorted(col, r, side="right")
            out[:, j] = remaining - u
            r -= np.where(u > 0, col[u - 1], 0)
            remaining = u
        out[:, -1] = remaining
        return out

    def rank_many(self, counts: np.ndarray) -> np.ndarray:
        """Ranks of a (m, kappa) array of valid configurations."""
        counts = np.asarray(counts, dtype=np.int64)
        m = counts.shape[0]
        r = np.zeros(m, dtype=np.int64)
        remaining = np.full(m, self.n, dtype=np.int64)
        for j in range(self.kappa - 1):
            parts_after = self.kappa - 1 - j
            v = counts[:, j]
            gap = remaining - v - 1
            mask = gap >= 0
            if mask.any():
                r[mask] += self.cum[gap[mask], parts_after]
            remaining -= v
        return r

    def move_ranks(self, index: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Ranks of the states ``index`` with one particle moved from
        ``xs[m]`` to ``ys[m]``, a (len(xs), len(index)) int64 matrix: the
        rank plus a difference of two entries of a per-state prefix sum over
        j of ``F_j(P_{j+1} -+ 1) - F_j(P_{j+1})``."""
        index = np.asarray(index, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        kappa, n = self.kappa, self.n
        counts = self.counts[index]
        # f[j, P + 1] = F_j(P) for P = -1 .. N + 1
        f = np.zeros((kappa - 1, n + 3), dtype=np.int64)
        f[:, :n + 1] = self.cum[::-1, :0:-1].T
        # steps[k] sums the change of F_j over j < k when P_{j+1} drops by
        # one, steps[kappa + k] when it rises by one
        steps = np.zeros((2 * kappa, index.size), dtype=np.int64)
        p = np.ones(index.size, dtype=np.int64)
        for j in range(kappa - 1):
            p += counts[:, j]
            here = f[j, p]
            steps[j + 1] = steps[j] + f[j, p - 1] - here
            steps[kappa + j + 1] = steps[kappa + j] + f[j, p + 1] - here
        forward = xs < ys
        hi = np.where(forward, ys, kappa + xs)
        lo = np.where(forward, xs, kappa + ys)
        moved = steps[hi]
        moved -= steps[lo]
        moved += index
        return moved


def inner_closure(region) -> np.ndarray:
    """The ranks, sorted, of the inner core of the ``RegionSpec`` ``region``
    and of every state one positive-rate move x -> y, x and y in R, away
    from it."""
    states = NumpyStates(region.enum.kappa, region.enum.n)
    counts = states.counts
    inner = region.inner_core
    reach = np.zeros(states.size, dtype=bool)
    reach[inner] = True
    for x in region.r_set:
        for y in region.r_set:
            if x == y or region.walk.rates[x, y] == 0.0:
                continue
            src = inner[counts[inner, x] >= 1]
            shifted = counts[src].astype(np.int64)
            shifted[:, x] -= 1
            shifted[:, y] += 1
            reach[states.rank_many(shifted)] = True
    return np.nonzero(reach)[0]


def assemble(spec: WalkSpec, params: ProcessParams, states: NumpyStates,
             generator: bool) -> sp.csr_matrix:
    """The jump-rate matrix, or the generator, gathered straight into CSR:
    each row lists its positive-rate moves in ``_column_key`` order, and
    the generator inserts scipy's row sum of the rate row, negated, at the
    diagonal's slot and drops its zero entries."""
    n = states.size
    counts = states.counts.T
    moves = sorted(((x, y) for x in range(spec.kappa) for y in range(spec.kappa)
                    if x != y and spec.rates[x, y] != 0.0), key=_column_key)
    xs, ys = np.array(moves, dtype=np.intp).T
    # the (move, state) arrays are read state by state through their transposes
    src = counts[xs]
    keep = (src >= 1).T
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    rates = sp.csr_matrix(
        ((src * (params.d + counts[ys]) * spec.rates[xs, ys, None]).T[keep],
         states.move_ranks(np.arange(n), xs, ys).T[keep], indptr), shape=(n, n))
    if not generator:
        return rates
    holding = np.asarray(rates.sum(axis=1)).ravel()
    # the diagonal follows the row's kept moves with y < x
    pos = indptr[:-1] + keep[:, ys < xs].sum(axis=1)
    q = sp.csr_matrix((np.insert(rates.data, pos, -holding),
                       np.insert(rates.indices, pos, np.arange(n)),
                       indptr + np.arange(n + 1)), shape=(n, n))
    q.eliminate_zeros()
    return q
