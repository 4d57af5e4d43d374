"""Inclusion process on a growing discrete torus: regimes, rates, condensate motion.

A translation-invariant kernel h on Z^d drives the walk; with density
rho = N / L^d fixed, the condensate moves ballistically (velocity rho * v) in
the totally asymmetric regime, diffusively with matrix S1 in the mean-zero
asymmetric regime, and diffusively with matrix S2 on the much longer L^2/d_L
scale in the symmetric regime.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (BudgetExceeded, ConditionNotSatisfied, NonSpanningSupport,
                     OutOfRange, SupportTooLarge, TooFewRelocations)
from .exact import reciprocal_sum_table
from .gordan import _bareiss
from .model import WalkSpec, log_weight_table
from .simulate import (_SLICE, Trajectory, _add_in_order, _Blocks, _check_replicas,
                       _Kernel, _map_batches, _StateCache, replica_rng, trace_project)

REGIMES = ("totally_asym", "mean_zero_asym", "symmetric")
_V_TOL = 1e-12
# The condensate runs refuse a torus whose exact condensate mass is below
# this. Off the condensed regime an excursion need not return to a one-site
# state: the 1-D torus L = 64, N = 32, d_L = 0.1 (mass 3.2e-7) never does.
# Tori of mass 0.022 (1-D L = 7, N = 7, d_L = 0.5) and 0.024 still run
# quickly, so a low mass alone does not show a hang; _STRETCH_EVENTS
# bounds the rest.
MIN_CONDENSATE_MASS = 1e-3
# events one excursion may take after it leaves its channel for a third
# site: about 10x the longest seen on condensed tori (4.3e5 events, 1-D
# L = 32, mass 0.012)
_STRETCH_EVENTS = 1 << 22


def _canonical_kernel(d: int, kernel: Mapping) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for key, weight in kernel.items():
        offset = (int(key),) if isinstance(key, (int, np.integer)) else tuple(int(v) for v in key)
        if len(offset) != d:
            raise OutOfRange(f"offset {offset} has dimension {len(offset)}, expected {d}")
        w = float(weight)
        if w < 0:
            raise OutOfRange(f"negative kernel weight at {offset}")
        if w == 0:
            continue
        if all(v == 0 for v in offset):
            raise OutOfRange("kernel weight at the origin must be zero")
        out[offset] = out.get(offset, 0.0) + w
    if not out:
        raise OutOfRange("kernel has empty support")
    return out


def _spans_lattice(offsets: Sequence[tuple[int, ...]], d: int) -> bool:
    """The subgroup generated by the offsets is all of Z^d iff the gcd of the
    d x d minors of the offset matrix is 1."""
    rows = [list(o) for o in offsets]
    if len(rows) < d:
        return False
    g = 0
    for subset in combinations(rows, d):
        minor = [list(r) for r in subset]
        g = math.gcd(g, minor[-1][-1] if _bareiss(minor, d) else 0)
        if g == 1:
            return True
    return False


@dataclass(frozen=True)
class TorusSpec:
    """Inclusion process on the d-dimensional torus of side L.

    ``kernel`` maps integer offsets to jump weights; ``n`` is the particle
    count ``round(rho * L**d)``. ``theta`` is the regime time scale:
    1/(d_L L^{d-1}), 1/(d_L L^{d-2}), or L^2/d_L.
    """

    d: int
    side: int
    kernel: dict[tuple[int, ...], float]
    rho: float
    d_l: float
    support_radius: int
    n: int
    regime: str
    v: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta: float

    @property
    def n_sites(self) -> int:
        return self.side ** self.d

    def h(self, offset: tuple[int, ...]) -> float:
        return self.kernel.get(tuple(offset), 0.0)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def build_torus(d: int, side: int, kernel: Mapping, rho: float, d_l: float) -> TorusSpec:
    """Validate and derive a torus model: regime, velocity, diffusion matrices."""
    if d < 1:
        raise OutOfRange("dimension must be >= 1")
    if not isinstance(side, numbers.Integral):
        raise OutOfRange(f"side must be an integer, got {side!r}")
    if not (math.isfinite(rho) and rho > 0):
        raise OutOfRange(f"density must be positive and finite, got {rho!r}")
    n = int(round(rho * side ** d))
    if n < 1:
        raise OutOfRange(f"density {rho!r} puts no particle on {side ** d} sites")
    if not (math.isfinite(d_l) and d_l > 0):
        raise OutOfRange(f"d_L must be positive and finite, got {d_l!r}")
    kern = _canonical_kernel(d, kernel)
    radius = max(max(abs(v) for v in off) for off in kern)
    if side <= 2 * radius:
        raise SupportTooLarge(f"side {side} <= 2 * support radius {radius}")
    if not _spans_lattice(list(kern), d):
        raise NonSpanningSupport("kernel support does not generate the lattice")

    v = np.zeros(d)
    for off, w in kern.items():
        v += w * np.asarray(off, dtype=float)
    symmetric = all(abs(w - kern.get(tuple(-x for x in off), 0.0)) <= _V_TOL
                    for off, w in kern.items())
    if np.abs(v).max() > _V_TOL:
        regime = "totally_asym"
    elif not symmetric:
        regime = "mean_zero_asym"
    else:
        regime = "symmetric"

    s1 = np.zeros((d, d))
    for off, w in kern.items():
        back = kern.get(tuple(-x for x in off), 0.0)
        if w > back:
            y = np.asarray(off, dtype=float)
            s1 += (w - back) * np.outer(y, y)
    s1 *= rho
    s2 = np.zeros((d, d))
    for off, w in kern.items():
        y = np.asarray(off, dtype=float)
        s2 += w * np.outer(y, y)

    if regime == "totally_asym":
        theta = 1.0 / (d_l * side ** (d - 1))
    elif regime == "mean_zero_asym":
        theta = 1.0 / (d_l * side ** (d - 2))
    else:
        theta = side ** 2 / d_l

    return TorusSpec(d=d, side=side, kernel=kern, rho=rho, d_l=d_l,
                     support_radius=radius, n=n, regime=regime, v=v,
                     s1=s1, s2=s2, sigma1=_sqrt_psd(s1), sigma2=_sqrt_psd(s2),
                     theta=theta)


def _lattice(spec: TorusSpec) -> tuple[np.ndarray, np.ndarray]:
    """The torus as a table: ``coords[x]`` are the coordinates of site x
    (row-major, the last axis fastest), and ``targets[k, x]`` is the site
    that x reaches by the k-th kernel offset."""
    shape = (spec.side,) * spec.d
    coords = np.stack(np.unravel_index(np.arange(spec.n_sites), shape), axis=1)
    offsets = np.array(list(spec.kernel), dtype=np.int64)
    strides = spec.side ** np.arange(spec.d - 1, -1, -1)
    return coords, ((coords + offsets[:, None]) % spec.side) @ strides


def _wrap(step: np.ndarray, side: int) -> np.ndarray:
    """The minimum-image lattice step: the shortest lift of ``step`` on the
    torus, each component in ``[-side // 2, side - side // 2)``."""
    half = side // 2
    return (step + half) % side - half


def torus_walk(spec: TorusSpec) -> WalkSpec:
    """The torus walk as an explicit site-set walk (small tori only)."""
    _, targets = _lattice(spec)
    rates = np.zeros((spec.n_sites, spec.n_sites))
    sites = np.arange(spec.n_sites)
    for to, w in zip(targets, spec.kernel.values()):
        rates[sites, to] += w
    return WalkSpec.from_matrix(rates)


@dataclass(frozen=True)
class TorusRates:
    """Trace jump rates between neighboring condensate positions."""

    method: str
    rates: dict[tuple[int, ...], float]


def _channel_rates(n: int, d: float, fwd: float, bwd: float) -> tuple[np.ndarray, np.ndarray]:
    """Up and down rates of a two-site channel at the levels 0..N, the count
    at the far site: ``(N - i)(d + i) fwd`` and ``i (d + N - i) bwd``."""
    level = np.arange(n + 1, dtype=float)
    return (n - level) * (d + level) * fwd, level * (d + n - level) * bwd


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


def torus_mean_rates(spec: TorusSpec, method: str = "formula") -> TorusRates:
    """Condensate jump-rate kernel by offset.

    ``formula`` uses the leading asymptotics: ``d_L N (h(y) - h(-y))`` on
    winning directions in the asymmetric regimes, ``d_L h(y)`` in the
    symmetric regime. ``tube`` computes the exact two-site-channel crossing
    probability and multiplies by the escape rate ``N d_L h(y)``.
    """
    if method not in ("formula", "tube"):
        raise OutOfRange(f"unknown method {method!r}")
    out: dict[tuple[int, ...], float] = {}
    n, d_l = spec.n, spec.d_l
    offsets = set(spec.kernel)
    offsets.update(tuple(-v for v in off) for off in spec.kernel)
    for off in sorted(offsets):
        h_fwd = spec.h(off)
        h_bwd = spec.h(tuple(-v for v in off))
        if method == "formula":
            if spec.regime == "symmetric":
                rate = d_l * h_fwd if h_fwd > 0 else 0.0
            else:
                rate = d_l * n * (h_fwd - h_bwd) if h_fwd > h_bwd else 0.0
        else:
            rate = n * d_l * h_fwd * _tube_crossing_probability(n, d_l, h_fwd, h_bwd)
        if rate > 0:
            out[off] = rate
    return TorusRates(method=method, rates=out)


def compare_rate_methods(spec: TorusSpec) -> dict[tuple[int, ...], tuple[float, float, float]]:
    """Per-offset (formula, tube, relative difference); difference is
    measured against the larger of the two."""
    formula = torus_mean_rates(spec, "formula").rates
    tube = torus_mean_rates(spec, "tube").rates
    report = {}
    for off in sorted(set(formula) | set(tube)):
        a = formula.get(off, 0.0)
        b = tube.get(off, 0.0)
        denom = max(abs(a), abs(b))
        report[off] = (a, b, abs(a - b) / denom if denom > 0 else 0.0)
    return report


@dataclass(frozen=True)
class SmoothFunction:
    """A torus function with gradient and Hessian evaluators."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def cosine_mode(freq: Sequence[int] | int) -> SmoothFunction:
    """cos(2 pi k . u) with exact derivatives."""
    k = np.atleast_1d(np.asarray(freq, dtype=float))
    two_pi_k = 2.0 * math.pi * k

    def value(u):
        return float(np.cos(two_pi_k @ np.atleast_1d(u)))

    def grad(u):
        return -np.sin(two_pi_k @ np.atleast_1d(u)) * two_pi_k

    def hess(u):
        return -np.cos(two_pi_k @ np.atleast_1d(u)) * np.outer(two_pi_k, two_pi_k)

    return SmoothFunction(value=value, grad=grad, hess=hess)


def linear_function(slope: Sequence[float] | float) -> SmoothFunction:
    """A lifted linear function (not periodic; useful for drift checks)."""
    a = np.atleast_1d(np.asarray(slope, dtype=float))
    return SmoothFunction(
        value=lambda u: float(a @ np.atleast_1d(u)),
        grad=lambda u: a.copy(),
        hess=lambda u: np.zeros((a.size, a.size)))


def limit_generator_apply(spec: TorusSpec, f: SmoothFunction, u) -> float:
    """Limiting generator of the rescaled condensate motion at point u:
    ``rho v . grad f``, ``tr(S1 hess f) / 2`` or ``tr(S2 hess f) / 2`` by
    regime."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if spec.regime == "totally_asym":
        return float(spec.rho * spec.v @ f.grad(u))
    s = spec.s1 if spec.regime == "mean_zero_asym" else spec.s2
    return 0.5 * float(np.sum(s * f.hess(u)))


def generator_gap(spec: TorusSpec, f: SmoothFunction, method: str = "formula") -> float:
    """Sup over lattice points of |rescaled discrete generator - limit|.

    The discrete generator applies the trace-rate kernel to f sampled at
    lattice points (lifted to R^d, which agrees with the torus for periodic
    f and keeps lifted linear functions exact).
    """
    rates = torus_mean_rates(spec, method).rates
    coords, _ = _lattice(spec)
    worst = 0.0
    for i in range(spec.n_sites):
        u = coords[i] / spec.side
        f_here = f.value(u)
        acc = 0.0
        for off, rate in rates.items():
            acc += rate * (f.value((coords[i] + np.asarray(off)) / spec.side) - f_here)
        gap = abs(spec.theta * acc - limit_generator_apply(spec, f, u))
        worst = max(worst, gap)
    return worst


@dataclass(frozen=True)
class CondensateRun:
    """One condensate trajectory's summary statistics."""

    relocations: int
    events: int                      # moves of the particles
    displacement: np.ndarray         # lattice units, unwrapped
    trace_time: float
    off_time: float
    positions: np.ndarray            # displacement at each trace checkpoint
    checkpoints: np.ndarray

    @property
    def off_fraction(self) -> float:
        wall = self.trace_time + self.off_time
        return self.off_time / wall if wall > 0 else 0.0


# sojourns a replica draws from its trace clock at first; each later chunk
# is twice as long, up to the second value
_CHUNKS = (1 << 12, 1 << 16)
# excursions one lockstep pass holds when it gathers more than one replica;
# a full pass peaks at about 25 MB
_LOCKSTEP_EXCURSIONS = 1 << 17
# how a channel excursion ends
_HOME, _MOVED, _HOPPED = 1, 2, 3
_STEP = np.array([-1, 1])


class _Channels:
    """The two-site channels of a torus, as flat tables over (offset, level).

    From the condensate state, N particles at x, one particle leaves for
    x + off with probability h(off) / sum h. The channel {x, x + off} is then
    a birth-death chain in the level i, the count at x + off: up at rate
    (N - i)(d + i) h(off), down at rate i (d + N - i) h(-off), and a hop to
    an empty third site at rate d ((N - i) sum_{o != off} h(o)
    + i sum_{o != -off} h(o)). Level 0 is home, level N a relocation by off.
    Row ``k (N + 1) + i`` of ``rows`` (the total rate, the probability of a
    step up, and of a step up or down) and of ``end`` belongs to offset k at
    level i.
    """

    def __init__(self, spec: TorusSpec):
        n, d = spec.n, spec.d_l
        self.spec, self.n = spec, n
        self.offsets = np.array(list(spec.kernel), dtype=np.int64)
        weights = np.array(list(spec.kernel.values()))
        self.cum_weights = np.cumsum(weights)
        self.leave_rate = n * d * float(weights.sum())
        level = np.arange(n + 1, dtype=float)
        up, move, total = [], [], []
        for off, h_fwd in spec.kernel.items():
            back = tuple(-v for v in off)
            rest_fwd = sum(w for o, w in spec.kernel.items() if o != off)
            rest_bwd = sum(w for o, w in spec.kernel.items() if o != back)
            rate_up, rate_down = _channel_rates(n, d, h_fwd, spec.h(back))
            rate = rate_up + rate_down + d * ((n - level) * rest_fwd + level * rest_bwd)
            up.append(rate_up / rate)
            move.append((rate_up + rate_down) / rate)
            total.append(rate)
        self.rows = np.stack([np.concatenate(total), np.concatenate(up),
                              np.concatenate(move)], axis=1)
        self.end = np.zeros(len(self.rows), dtype=np.uint8)
        self.end[0::n + 1] = _HOME
        self.end[n::n + 1] = _MOVED
        self.cache = _StateCache()
        self._out = None

    @property
    def out(self) -> list[list[tuple[int, float]]]:
        """The event kernel's move table, built on the first third-site hop."""
        if self._out is None:
            self.coords, targets = _lattice(self.spec)
            weights = list(self.spec.kernel.values())
            self._out = [list(zip(to, weights)) for to in targets.T.tolist()]
        return self._out


def _chunk_streams(key: tuple[int, int], chunk: int) -> list[np.random.Generator]:
    """The channel exponentials, channel uniforms and third-site stretches
    of a replica's chunk: its Philox key jumped 3c + 1, 3c + 2 and 3c + 3
    times for chunk c. Jump 0 is the replica's trace clock."""
    bits = np.random.Philox(key=key)
    return [np.random.Generator(bits.jumped(3 * chunk + j)) for j in (1, 2, 3)]


class _CondensateReplica:
    """One condensate run as a renewal process on the trace clock.

    The run alternates one-site sojourns, exponential at the rate of leaving
    the condensate, with excursions through a two-site channel. Sojourns and
    leaving offsets come from the stream ``(seed, stream)`` a chunk at a
    time; each chunk's excursions draw from streams of their own
    (:func:`_chunk_streams`), so nothing carries over from one chunk to the
    next, and a replica's draws do not depend on the replicas batched with
    it.
    """

    def __init__(self, ch: _Channels, seed: int, stream: int, horizon: float,
                 checkpoints: np.ndarray):
        self.key = (int(seed), int(stream))
        self.clock = replica_rng(seed, stream)
        self.horizon = horizon
        self.checkpoints = checkpoints
        self.chunks = 0
        self.chunk: tuple[np.ndarray, np.ndarray] | None = None
        self.finished = False
        self.trace_time = 0.0
        self.off_time = 0.0
        self.relocations = 0
        self.events = 0
        self.disp = np.zeros(ch.spec.d, dtype=np.int64)
        self.positions = np.zeros((len(checkpoints), ch.spec.d), dtype=np.int64)

    def draw_chunk(self, ch: _Channels) -> int:
        """Draw the next sojourns; keep the start times and channels of the
        excursions that begin before the horizon. Returns their number."""
        size = min(_CHUNKS[0] << self.chunks, _CHUNKS[1])
        self.exps, self.unis, self.hops = _chunk_streams(self.key, self.chunks)
        self.chunks += 1
        ends = np.cumsum(np.concatenate(
            ([self.trace_time], self.clock.exponential(1.0, size) / ch.leave_rate)))[1:]
        picks = self.clock.random(size)
        m = int(np.searchsorted(ends, self.horizon))
        self.finished = m < size
        self.trace_time = float(ends[min(m, size - 1)])
        k = np.searchsorted(ch.cum_weights, picks[:m] * ch.cum_weights[-1], side="right")
        self.chunk = ends[:m], np.minimum(k, len(ch.cum_weights) - 1)
        return m

    def record(self, ch: _Channels, status: np.ndarray, pos: np.ndarray,
               dur: np.ndarray, events: np.ndarray) -> None:
        """Add the outcomes of the current chunk's excursions: how each
        ended, its last channel position, its duration and its events."""
        starts, k = self.chunk
        self.chunk = None
        moves = np.zeros((len(k), ch.spec.d), dtype=np.int64)
        moved = status == _MOVED
        moves[moved] = ch.offsets[k[moved]]
        hopped = np.flatnonzero(status == _HOPPED)
        if len(hopped):
            third = _ThirdSite(ch, _Blocks(self.hops), self.key[1], self.chunks - 1)
            for j in hopped:
                extra, more, moves[j] = third.finish(int(pos[j]))
                dur[j] += extra
                events[j] += more
        self.off_time += float(dur.sum())
        self.events += len(events) + int(events.sum())
        self.relocations += int(moves.any(axis=1).sum())
        self.disp += moves.sum(axis=0)
        before = np.concatenate((np.zeros((1, ch.spec.d), dtype=np.int64),
                                 np.cumsum(moves, axis=0)))
        self.positions += before[np.searchsorted(starts, self.checkpoints)]

    def result(self) -> CondensateRun:
        return CondensateRun(relocations=self.relocations, events=self.events,
                             displacement=self.disp.astype(float),
                             trace_time=self.trace_time, off_time=self.off_time,
                             positions=self.positions.astype(float),
                             checkpoints=self.checkpoints)


class _ThirdSite:
    """The event kernel, for excursions that leave their channel for a third
    site. The condensate sits at site 0: the torus is translation invariant."""

    def __init__(self, ch: _Channels, blocks: _Blocks, stream: int, chunk: int):
        self.ch = ch
        self.blocks = blocks
        self.where = f"replica {stream}, chunk {chunk}"
        self.counts = [0] * ch.spec.n_sites
        self.occupied: list[int] = []
        self.kernel = _Kernel(self.counts, self.occupied, ch.out, ch.spec.d_l,
                              blocks, ch.cache)

    def finish(self, pos: int) -> tuple[float, int, np.ndarray]:
        """Finish an excursion whose last event left channel ``pos`` for a
        third site: pick that hop, then run the kernel until one site holds
        every particle. Returns the time and the events this took, and the
        condensate's move. Raises ``BudgetExceeded`` after
        ``_STRETCH_EVENTS`` events."""
        ch, counts, occupied = self.ch, self.counts, self.occupied
        n, d = ch.n, ch.spec.d_l
        k, level = divmod(pos, n + 1)
        for x in occupied:
            counts[x] = 0
        home, there = 0, ch.out[0][k][0]
        counts[home], counts[there] = n - level, level
        occupied[:] = [home, there]
        hops = [(x, y, c * d * w) for x, c, skip in ((home, n - level, there),
                                                   (there, level, home))
                for y, w in ch.out[x] if y != skip]
        u = self.blocks.uniform() * sum(w for _, _, w in hops)
        acc = 0.0
        for x, y, w in hops:
            acc += w
            if u <= acc:
                break
        counts[x] -= 1
        counts[y] += 1
        if not counts[x]:
            occupied.remove(x)
        if counts[y] == 1:
            occupied.append(y)
        t, taken = 0.0, 0
        while len(occupied) > 1:
            if taken >= _STRETCH_EVENTS:
                raise BudgetExceeded(
                    f"{self.where}: an excursion took {taken} events without "
                    "gathering every particle on one site")
            dts, moves = self.kernel.run(_SLICE)
            t = _add_in_order(t, dts)
            taken += len(moves)
        return t, taken, _wrap(ch.coords[occupied[0]] - ch.coords[home], ch.spec.side)


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


def _check_run(spec: TorusSpec, t_rescaled: float, n_checkpoints: int) -> None:
    """Refuse an empty torus, no checkpoint, a trace-clock horizon
    ``theta * t_rescaled`` that is not positive and finite, or a torus whose
    exact condensate mass is below ``MIN_CONDENSATE_MASS``."""
    if spec.n < 1:
        raise OutOfRange("the torus holds no particles")
    if not isinstance(n_checkpoints, numbers.Integral) or n_checkpoints < 1:
        raise OutOfRange(f"need at least one checkpoint, got {n_checkpoints!r}")
    if not (t_rescaled > 0 and math.isfinite(spec.theta * t_rescaled)):
        raise OutOfRange(f"t_rescaled must be positive and finite, got {t_rescaled!r}")
    mass, _, _ = _condensate_mass(spec)
    if mass < MIN_CONDENSATE_MASS:
        raise ConditionNotSatisfied(
            f"the torus is not condensed: its exact condensate mass {mass:.3g} "
            f"is below {MIN_CONDENSATE_MASS:g}")


def _condensate_runs(spec: TorusSpec, t_rescaled: float, seed: int,
                     n_checkpoints: int, streams: Sequence[int]) -> list[CondensateRun]:
    """One condensate run per stream, their excursions sampled in lockstep.

    Replicas take turns: each pass gathers the next chunk of as many
    replicas as fit in ``_LOCKSTEP_EXCURSIONS``, so memory does not grow
    with the horizon. Callers check the arguments with :func:`_check_run`.
    """
    horizon = spec.theta * t_rescaled
    checkpoints = horizon * (np.arange(1, n_checkpoints + 1) / n_checkpoints)
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


def run_condensate(spec: TorusSpec, t_rescaled: float, seed: int,
                   stream: int = 0, n_checkpoints: int = 4) -> CondensateRun:
    """One condensate run until the trace clock reaches ``t_rescaled * theta``.

    The run is sampled as a renewal process of sojourns and excursions, a
    bounded chunk at a time, so memory does not grow with the horizon. It is
    replica ``stream`` of :func:`measure_drift` and :func:`measure_diffusion`
    with the same seed. The walk is translation invariant, so the run has
    no start site: displacements are relative to where it starts. A torus
    whose exact condensate mass is below ``MIN_CONDENSATE_MASS`` is refused
    with ``ConditionNotSatisfied``, as in the measurements.
    """
    _check_run(spec, t_rescaled, n_checkpoints)
    return _condensate_runs(spec, t_rescaled, seed, n_checkpoints, [stream])[0]


def _replica_runs(spec: TorusSpec, t_rescaled: float, replicas: int, seed: int,
                  n_checkpoints: int, threads: int) -> list[CondensateRun]:
    """Runs of the streams ``0..replicas-1``, checked before any worker starts."""
    _check_replicas(replicas)
    _check_run(spec, t_rescaled, n_checkpoints)
    return _map_batches(partial(_condensate_runs, spec, t_rescaled, seed, n_checkpoints),
                        range(replicas), threads)


@dataclass(frozen=True)
class CondensateStats:
    """Rescaled drift, diffusion, and off-set occupation of one trajectory."""

    drift: np.ndarray
    diffusion: np.ndarray
    off_fraction: float
    relocations: int
    trace_time_rescaled: float


def condensate_statistics(traj: Trajectory, spec: TorusSpec,
                          min_relocations: int = 100,
                          n_windows: int = 20) -> CondensateStats:
    """Post-process a full trajectory on the torus into condensate statistics.

    Space is rescaled by 1/L and time by theta; the diffusion matrix comes
    from increments over equal trace-time windows. Use the streaming
    :func:`run_condensate` for horizons too long to store events.

    The condensate's path is the trace of the trajectory on the one-site
    states, :func:`incproc.simulate.trace_project` onto every site: each new
    label is a relocation, the displacement adds the wrapped steps between
    consecutive labels, and a window's position is that of the segment whose
    trace clock reaches the window's end.
    """
    counts = np.asarray(traj.initial, dtype=np.int64)
    if len(counts) != spec.n_sites or counts.sum() != spec.n:
        raise OutOfRange("trajectory does not match the torus spec")
    if np.count_nonzero(counts) != 1:
        raise OutOfRange("trajectory must start from a condensate state")
    path = trace_project(traj, range(spec.n_sites), 1.0)
    relocations = len(path.labels) - 1
    if relocations < min_relocations:
        raise TooFewRelocations(
            f"{relocations} relocations < required {min_relocations}")
    coords = _lattice(spec)[0][path.labels]
    steps = _wrap(coords[1:] - coords[:-1], spec.side)
    # walked[k]: the displacement while the condensate sits at labels[k]
    walked = np.concatenate((np.zeros((1, spec.d), dtype=np.int64),
                             np.cumsum(steps, axis=0)))
    disp = walked[-1]
    t_resc = path.trace_time / spec.theta
    drift = (disp / spec.side) / t_resc if t_resc > 0 else np.zeros(spec.d)
    # windows the trace clock never reaches are dropped; if it reaches none,
    # the final position stands for them
    windows = np.linspace(0.0, traj.horizon, n_windows + 1)[1:]
    crossed = np.searchsorted(path.ends, windows)
    crossed = crossed[crossed < len(walked)]
    pos = walked[crossed if len(crossed) else [-1]] / spec.side
    incs = np.diff(np.vstack([np.zeros(spec.d), pos]), axis=0)
    dt_resc = (windows[1] - windows[0]) / spec.theta if len(windows) > 1 else t_resc
    centered = incs - incs.mean(axis=0)
    diffusion = centered.T @ centered / (len(incs) * dt_resc)
    wall = path.trace_time + path.off_time
    return CondensateStats(drift=drift, diffusion=np.atleast_2d(diffusion),
                           off_fraction=path.off_time / wall if wall else 0.0,
                           relocations=relocations,
                           trace_time_rescaled=t_resc)


@dataclass(frozen=True)
class DriftEstimate:
    drift: np.ndarray
    stderr: np.ndarray
    off_fraction: float
    relocations_min: int
    per_replica: np.ndarray


def measure_drift(spec: TorusSpec, t_rescaled: float, seed: int,
                  replicas: int = 1, min_relocations: int = 100,
                  threads: int = 1) -> DriftEstimate:
    """Rescaled drift of the condensate over independent streamed runs."""
    runs = _replica_runs(spec, t_rescaled, replicas, seed, 4, threads)
    drifts = np.array([(run.displacement / spec.side) / (run.trace_time / spec.theta)
                       for run in runs])
    offs = np.array([run.off_fraction for run in runs])
    relocs = np.array([run.relocations for run in runs])
    if relocs.min() < min_relocations:
        raise TooFewRelocations(
            f"minimum replica relocations {relocs.min()} < {min_relocations}")
    stderr = (drifts.std(axis=0, ddof=1) / math.sqrt(replicas)
              if replicas > 1 else np.full(spec.d, float("nan")))
    return DriftEstimate(drift=drifts.mean(axis=0), stderr=stderr,
                         off_fraction=float(offs.mean()),
                         relocations_min=int(relocs.min()),
                         per_replica=drifts)


@dataclass(frozen=True)
class DiffusionEstimate:
    msd_slope: float
    drift: np.ndarray
    drift_stderr: np.ndarray
    covariance: np.ndarray
    off_fraction: float
    checkpoints: np.ndarray
    msd: np.ndarray
    total_relocations: int


def measure_diffusion(spec: TorusSpec, t_rescaled: float, replicas: int,
                      seed: int, n_checkpoints: int = 4,
                      threads: int = 1) -> DiffusionEstimate:
    """Mean-squared displacement across replicas with a through-origin slope.

    Positions are sampled on the trace clock at equally spaced rescaled
    times; the covariance estimate uses final displacements.
    """
    runs = _replica_runs(spec, t_rescaled, replicas, seed, n_checkpoints, threads)
    ck_resc = t_rescaled * (np.arange(1, n_checkpoints + 1) / n_checkpoints)
    # summed in replica order: a pairwise sum over replicas changes the bits
    sq = np.zeros(n_checkpoints)
    for run in runs:
        sq += ((run.positions / spec.side) ** 2).sum(axis=1)
    finals = np.array([run.positions[-1] / spec.side for run in runs])
    offs = np.array([run.off_fraction for run in runs])
    total_reloc = sum(run.relocations for run in runs)
    msd = sq / replicas
    slope = float((msd @ ck_resc) / (ck_resc @ ck_resc))
    drift = finals.mean(axis=0) / t_rescaled
    stderr = finals.std(axis=0, ddof=1) / math.sqrt(replicas) / t_rescaled
    cov = (finals - finals.mean(axis=0)).T @ (finals - finals.mean(axis=0))
    cov = np.atleast_2d(cov / (replicas * t_rescaled))
    return DiffusionEstimate(msd_slope=slope, drift=drift, drift_stderr=stderr,
                             covariance=cov, off_fraction=float(offs.mean()),
                             checkpoints=ck_resc, msd=msd,
                             total_relocations=total_reloc)


@dataclass(frozen=True)
class CondensationReport:
    """Stationary condensate mass on the torus with closed-form cross-checks."""

    e_mass: float
    per_site_mass: float
    log_partition: float
    w_ratio_max_dev: float          # max_k |w(k) k / d_L - 1| over k <= L
    remainder_bound: float          # partial multi-site-mass bound
    remainder_bound_terms: int
    bound_holds: bool


def _condensate_mass(spec: TorusSpec) -> tuple[float, np.ndarray, float]:
    """The exact condensate mass of ``spec`` (see :func:`torus_condensation`),
    the single-site log weights ``log w(0..N)`` and the log-partition value
    it is computed from."""
    n, d_l = spec.n, spec.d_l
    logw = log_weight_table(n, d_l)
    log_z = float(log_weight_table(n, d_l * spec.n_sites)[n])
    return math.exp(math.log(spec.n_sites) + logw[n] - log_z), logw, log_z


def torus_condensation(spec: TorusSpec, bound_terms: int = 8) -> CondensationReport:
    """Exact condensate mass from the product-form stationary measure.

    The torus walk is translation invariant, so the product form always
    applies. The single-site weights are the Taylor coefficients of
    ``(1-z)^(-d_L)``, so the partition value, the coefficient of ``z^N`` in
    their ``L^d``-th power, is ``Gamma(N + M) / (N! Gamma(M))`` with
    ``M = d_L L^d``: the single-site weight ``w(N)`` at parameter M. It is
    taken from :func:`incproc.model.log_weight_table` (O(N)), because the
    three lgamma terms of that closed form, each of order N log N, cancel to
    a value of order 1 and lose about 10x more digits. The multi-occupancy
    remainder is cross-checked against the reciprocal-sum bound.
    """
    n, d_l = spec.n, spec.d_l
    sites = spec.n_sites
    e_mass, logw, log_z = _condensate_mass(spec)

    ks = np.arange(1, min(spec.side, n) + 1)
    w_vals = np.exp(logw[ks])
    w_dev = float(np.abs(w_vals * ks / d_l - 1.0).max())

    terms = min(bound_terms, n, sites)
    table = reciprocal_sum_table(n, max(terms, 1), exact=False)
    bound = 0.0
    for i in range(2, terms + 1):
        log_choose = (math.lgamma(sites + 1) - math.lgamma(i + 1)
                      - math.lgamma(sites - i + 1))
        bound += math.exp(i * math.log(2 * d_l) + math.log(table[i][n])
                          + log_choose - log_z)
    return CondensationReport(
        e_mass=e_mass, per_site_mass=e_mass / sites, log_partition=log_z,
        w_ratio_max_dev=w_dev, remainder_bound=bound,
        remainder_bound_terms=terms, bound_holds=bool(1.0 - e_mass <= bound))
