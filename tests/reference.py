"""Oracles the tests check the package against.

These are exact or closed-form quantities that no command, criterion or
benchmark of the package computes: the outgoing moves of one
configuration, the exact crossing probability of a torus's two-site
channel (the gambler's-ruin quantity behind the reversible analysis of
Bianchi, Dommers and Giardina, EJP 2017) with the trace-rate kernel it
gives, and a lifted linear function on the torus.

``draw`` reads one value of a replica's draws as the references of the
event kernel read them.

``lockstep_runs`` keeps the numpy sampler of the condensate runs that the
compiled channel steps replaced: ``_lockstep`` steps the excursions of a
batch of replicas together, one array pass per channel step. The compiled
loop must give the same runs, bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from incproc import Configuration, ProcessParams, SmoothFunction, TorusSpec, WalkSpec
from incproc.thermo import (CHECKPOINTS, CondensateRun, _Channels, _channel_rates,
                            _CondensateReplica, _HOPPED)


def draw(blocks, kind: str) -> float:
    """The next ``kind`` ("exponential" or "uniform") of ``blocks``, an
    ``incproc.simulate._Blocks``, used."""
    value = float(getattr(blocks, kind + "s")(1)[0])
    blocks.use(kind == "uniform", kind == "exponential")
    return value


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
