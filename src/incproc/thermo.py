"""Inclusion process on a growing discrete torus: regimes, rates, condensate motion.

A translation-invariant kernel h on Z^d drives the walk; with density
rho = N / L^d fixed, the condensate moves ballistically (velocity rho * v) in
the totally asymmetric regime, diffusively with matrix S1 in the mean-zero
asymmetric regime, and diffusively with matrix S2 on the much longer L^2/d_L
scale in the symmetric regime.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import solve_banded

from ._native import _address, _compiled
from .errors import (BudgetExceeded, ConditionNotSatisfied, DimensionMismatch,
                     NonSpanningSupport, OutOfRange, SupportTooLarge, TooFewRelocations)
from .exact import reciprocal_sum_column
from .gordan import _bareiss
from .model import (WalkSpec, _add_in_order, finite_real, instance, integer, is_integer,
                    log_weight_table, real)
from .simulate import (_EXPONENTIALS, _SLICE, _UNIFORMS, MAX_KEY, Trajectory, _Blocks,
                       _Kernel, _map_batches, _philox_key, _substream, trace_project)

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
# positions a condensate run records, at equally spaced trace-clock times
CHECKPOINTS = 4
# equal trace-time windows whose increments give condensate_statistics its
# diffusion matrix
WINDOWS = 20
# terms of the reciprocal-sum bound on the multi-site mass
BOUND_TERMS = 8
# particles a torus may hold: torus_condensation keeps tables of N entries
# (1.7 s and 128 MB peak RSS at this N on a 64-site torus, 2-vCPU VM)
MAX_PARTICLES = 1 << 20


def _canonical_kernel(d: int, kernel: Mapping) -> dict[tuple[int, ...], float]:
    if not isinstance(kernel, Mapping):
        raise OutOfRange(f"kernel must map offsets to weights, got {kernel!r}")
    out: dict[tuple[int, ...], float] = {}
    for key, weight in kernel.items():
        offset = tuple(key) if isinstance(key, (tuple, list)) else (key,)
        if not all(map(is_integer, offset)):
            raise OutOfRange(f"offset {key!r} is not an integer or a tuple of integers")
        offset = tuple(int(v) for v in offset)
        if len(offset) != d:
            raise OutOfRange(f"offset {offset} has dimension {len(offset)}, expected {d}")
        if not finite_real(weight):
            raise OutOfRange(f"kernel weight {weight!r} at {offset} is not a finite number")
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
    integer(d, "dimension", 1)
    integer(side, "side", 1)
    real(rho, "density", above=0)
    mass = rho * side ** d
    n = int(round(mass)) if mass < MAX_PARTICLES + 1 else MAX_PARTICLES + 1
    if not 1 <= n <= MAX_PARTICLES:
        raise OutOfRange(f"density {rho!r} puts {mass:.10g} particles on {side ** d} "
                         f"sites; a torus holds 1 to {MAX_PARTICLES}")
    real(d_l, "d_L", above=0)
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
    _, targets = _lattice(instance(spec, TorusSpec, "spec"))
    rates = np.zeros((spec.n_sites, spec.n_sites))
    sites = np.arange(spec.n_sites)
    for to, w in zip(targets, spec.kernel.values()):
        rates[sites, to] += w
    return WalkSpec.from_matrix(rates)


def _channel_rates(n: int, d: float, fwd: float, bwd: float) -> tuple[np.ndarray, np.ndarray]:
    """Up and down rates of a two-site channel at the levels 0..N, the count
    at the far site: ``(N - i)(d + i) fwd`` and ``i (d + N - i) bwd``."""
    level = np.arange(n + 1, dtype=float)
    return (n - level) * (d + level) * fwd, level * (d + n - level) * bwd


def torus_mean_rates(spec: TorusSpec) -> dict[tuple[int, ...], float]:
    """Condensate jump-rate kernel by offset, from the leading asymptotics:
    ``d_L N (h(y) - h(-y))`` on winning directions in the asymmetric
    regimes, ``d_L h(y)`` in the symmetric regime."""
    out: dict[tuple[int, ...], float] = {}
    n, d_l = instance(spec, TorusSpec, "spec").n, spec.d_l
    offsets = set(spec.kernel)
    offsets.update(tuple(-v for v in off) for off in spec.kernel)
    for off in sorted(offsets):
        h_fwd = spec.h(off)
        h_bwd = spec.h(tuple(-v for v in off))
        if spec.regime == "symmetric":
            rate = d_l * h_fwd if h_fwd > 0 else 0.0
        else:
            rate = d_l * n * (h_fwd - h_bwd) if h_fwd > h_bwd else 0.0
        if rate > 0:
            out[off] = rate
    return out


@dataclass(frozen=True)
class SmoothFunction:
    """A torus function with gradient and Hessian evaluators; ``dim`` is the
    dimension of its argument, or None where it is not known."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    dim: int | None = None


def cosine_mode(freq: Sequence[int] | int) -> SmoothFunction:
    """cos(2 pi k . u) with exact derivatives. Raises ``OutOfRange`` unless
    ``freq`` is an integer or a nonempty sequence of integers (not bools):
    only an integer frequency is periodic on the torus."""
    values = [freq] if is_integer(freq) else freq
    integers = isinstance(values, (Sequence, np.ndarray)) and not isinstance(values, str) \
        and all(map(is_integer, values))
    if not (integers and len(values)):
        raise OutOfRange(f"frequency must be an integer or a nonempty sequence of "
                         f"integers, got {freq!r}")
    k = np.array(values, dtype=float)
    two_pi_k = 2.0 * math.pi * k

    def value(u):
        return float(np.cos(two_pi_k @ np.atleast_1d(u)))

    def grad(u):
        return -np.sin(two_pi_k @ np.atleast_1d(u)) * two_pi_k

    def hess(u):
        return -np.cos(two_pi_k @ np.atleast_1d(u)) * np.outer(two_pi_k, two_pi_k)

    return SmoothFunction(value=value, grad=grad, hess=hess, dim=len(k))


def limit_generator_apply(spec: TorusSpec, f: SmoothFunction, u) -> float:
    """Limiting generator of the rescaled condensate motion at point u:
    ``rho v . grad f``, ``tr(S1 hess f) / 2`` or ``tr(S2 hess f) / 2`` by
    regime."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if spec.regime == "totally_asym":
        return float(spec.rho * spec.v @ f.grad(u))
    s = spec.s1 if spec.regime == "mean_zero_asym" else spec.s2
    return 0.5 * float(np.sum(s * f.hess(u)))


def generator_gap(spec: TorusSpec, f: SmoothFunction) -> float:
    """Sup over lattice points of |rescaled discrete generator - limit|.

    The discrete generator applies the trace-rate kernel to f sampled at
    lattice points (lifted to R^d, which agrees with the torus for periodic
    f and keeps lifted linear functions exact). Raises ``DimensionMismatch``
    if ``f.dim`` is known and is not the torus dimension.
    """
    instance(spec, TorusSpec, "spec")
    if instance(f, SmoothFunction, "f").dim is not None and f.dim != spec.d:
        raise DimensionMismatch(f"the function takes {f.dim}-D points, the torus is {spec.d}-D")
    return _generator_gap(spec, f, torus_mean_rates(spec))


def _generator_gap(spec: TorusSpec, f: SmoothFunction,
                   rates: Mapping[tuple[int, ...], float]) -> float:
    """:func:`generator_gap` with the kernel ``rates`` in place of the
    leading-order one."""
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


# a replica's first chunk holds the sojourns expected before its horizon,
# four standard deviations and the first value more; each later chunk is
# twice as long, and none is longer than the second value
_CHUNKS = (16, 1 << 16)
# how a channel excursion ends
_HOME, _MOVED, _HOPPED = 1, 2, 3
# the purpose (Philox counter word 3) of the uniforms that pick a chunk's
# third-site hops, beside the kernel's exponentials and uniforms: apart, the
# kernel's two substreams stay in step, so its loop's calls end at piece ends
_HOP_PICKS = 2


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
    level i. ``mean_steps`` is the expected number of channel steps of an
    excursion, over the leaving offsets.
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
            rest_fwd = _add_in_order(0.0, [w for o, w in spec.kernel.items() if o != off])
            rest_bwd = _add_in_order(0.0, [w for o, w in spec.kernel.items() if o != back])
            rate_up, rate_down = _channel_rates(n, d, h_fwd, spec.h(back))
            rate = rate_up + rate_down + d * ((n - level) * rest_fwd + level * rest_bwd)
            up.append(rate_up / rate)
            move.append((rate_up + rate_down) / rate)
            total.append(rate)
        self.rows = np.stack([np.concatenate(total), np.concatenate(up),
                              np.concatenate(move)], axis=1)
        steps = [_excursion_steps(u, m - u) for u, m in zip(up, move)]
        self.mean_steps = float(np.dot(weights, steps) / weights.sum())
        self.end = np.zeros(len(self.rows), dtype=np.uint8)
        self.end[0::n + 1] = _HOME
        self.end[n::n + 1] = _MOVED
        self.tables = [_address(self.rows), _address(self.end)]
        self._third: _ThirdSite | None = None

    def third_site(self) -> _ThirdSite:
        """The torus's third-site kernel, built on the first third-site hop."""
        if self._third is None:
            self._third = _ThirdSite(self.spec)
        return self._third


def _excursion_steps(up: np.ndarray, down: np.ndarray) -> float:
    """The expected steps of a channel excursion from level 1 until level 0,
    level N or a third-site hop, where a step at level i goes up with
    probability ``up[i]`` and down with ``down[i]``: ``t[1]`` of
    ``t[i] = 1 + up[i] t[i + 1] + down[i] t[i - 1]``, ``t[0] = t[N] = 0``."""
    n = len(up) - 1
    if n < 2:
        return 0.0
    band = np.zeros((3, n - 1))
    band[0, 1:] = -up[1:n - 1]
    band[1] = 1.0
    band[2, :-1] = -down[2:n]
    return float(solve_banded((1, 1), band, np.ones(n - 1))[0])


class _CondensateReplica:
    """One condensate run as a renewal process on the trace clock.

    The run alternates one-site sojourns, exponential at the rate of leaving
    the condensate, with excursions through a two-site channel. Sojourns and
    leaving offsets come a chunk at a time from the two clock substreams of
    the key ``(seed, stream)``, at jump 0. Chunk c's channel steps draw from
    the substreams at jump 2c + 1, and its third-site stretches from those
    at jump 2c + 2, with their hop picks from purpose ``_HOP_PICKS`` there
    (:func:`incproc.simulate._substream`), so nothing carries over from one
    chunk to the next.
    """

    def __init__(self, ch: _Channels, seed: int, stream: int, horizon: float,
                 checkpoints: np.ndarray):
        self.key = _philox_key(seed, stream)
        self.sojourns = _substream(self.key, 0, _EXPONENTIALS)
        self.picks = _substream(self.key, 0, _UNIFORMS)
        expected = horizon * ch.leave_rate
        self.first = int(min(expected + 4 * math.sqrt(expected) + _CHUNKS[0], _CHUNKS[1]))
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
        """Draw the next sojourns and leaving offsets, each from its clock
        substream; keep the start times and channels of the excursions that
        begin before the horizon. Returns their number. The first chunk holds
        the sojourns expected before the horizon, ``horizon * leave_rate``,
        with a margin of four standard deviations and ``_CHUNKS[0]``, so it is
        almost always the only one; each later chunk is twice as long, up to
        ``_CHUNKS[1]``."""
        size = min(self.first << self.chunks, _CHUNKS[1])
        self.exps, self.unis = (_substream(self.key, 2 * self.chunks + 1, purpose)
                                for purpose in (_EXPONENTIALS, _UNIFORMS))
        self.chunks += 1
        ends = np.cumsum(np.concatenate(
            ([self.trace_time], self.sojourns.exponential(1.0, size) / ch.leave_rate)))[1:]
        picks = self.picks.random(size)
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
            # the stretches' substreams are built only for a chunk that hops
            third, blocks = ch.third_site(), _Blocks(self.key, 2 * self.chunks)
            picks = _substream(self.key, 2 * self.chunks, _HOP_PICKS).random(len(hopped))
            for j, pick in zip(hopped, picks.tolist()):
                extra, more, moves[j] = third.finish(
                    int(pos[j]), pick, blocks,
                    f"replica {int(self.key[1])}, chunk {self.chunks - 1}")
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
    """The event kernel of a torus, with its lattice coordinates, move table
    and counts, for the excursions that leave their channel for a third
    site. The condensate sits at site 0: the torus is translation invariant."""

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        self.coords, targets = _lattice(spec)
        self.out = [list(zip(to, spec.kernel.values())) for to in targets.T.tolist()]
        self.counts = np.zeros(spec.n_sites, dtype=np.int64)
        self.occupied: list[int] = []
        self.kernel = _Kernel(self.out, spec.d_l)

    def finish(self, pos: int, pick: float, blocks: _Blocks,
               where: str) -> tuple[float, int, np.ndarray]:
        """Finish an excursion whose last event left channel ``pos`` for a
        third site: pick that hop with the uniform ``pick``, then run the
        kernel on ``blocks`` until one site holds every particle. Returns the
        time and the events this took, and the condensate's move. After
        ``_STRETCH_EVENTS`` events, raises ``BudgetExceeded`` naming ``where``."""
        counts, occupied = self.counts, self.occupied
        n, d = self.spec.n, self.spec.d_l
        k, level = divmod(pos, n + 1)
        for x in occupied:
            counts[x] = 0
        home, there = 0, self.out[0][k][0]
        counts[home], counts[there] = n - level, level
        occupied[:] = [home, there]
        hops = [(x, y, c * d * w) for x, c, skip in ((home, n - level, there),
                                                   (there, level, home))
                for y, w in self.out[x] if y != skip]
        # picked as the kernel picks, by bisecting the running sums
        cum = list(accumulate(w for _, _, w in hops))
        x, y, _ = hops[bisect_left(cum, pick * cum[-1])]
        counts[x] -= 1
        counts[y] += 1
        if not counts[x]:
            occupied.remove(x)
        if counts[y] == 1:
            occupied.append(y)
        taken, t, gathered, _, _ = self.kernel.run(counts, occupied, blocks, _STRETCH_EVENTS)
        if not gathered:
            raise BudgetExceeded(f"{where}: an excursion took {taken} events without "
                                 "gathering every particle on one site")
        return t, taken, _wrap(self.coords[occupied[0]] - self.coords[home], self.spec.side)


def _channel_steps(ch: _Channels, r: _CondensateReplica) -> tuple[np.ndarray, ...]:
    """Step the excursions of ``r``'s current chunk to their ends in the
    compiled loop (``incproc_channels`` of ``_kernel.c``).

    At each step every excursion still running takes one exponential and one
    uniform, in excursion order, from the chunk's two channel substreams.
    The first draw holds the chunk's expected steps (``mean_steps`` per
    excursion) and ``_SLICE`` more. The loop returns at a step boundary when
    its draws run short; they are then topped up from the same substreams, a
    quarter of the first draw at first and twice as many each time after,
    and no draw holds more than two per excursion of a full chunk, so memory
    stays bounded. A substream's values do not depend on how it is cut, so
    these sizes move no result. Returns how each excursion ended, its last
    channel position, its duration and its steps.
    """
    k = r.chunk[1]
    pos = k * (ch.n + 1) + 1
    status = ch.end[pos]            # with one particle, level 1 is a relocation
    live = np.flatnonzero(status == 0)
    dur, taken = np.zeros(len(k)), np.zeros(len(k), dtype=np.int64)
    n_live, steps = np.array([len(live)], dtype=np.int64), np.zeros(1, dtype=np.int64)
    if not len(live):
        return status, pos, dur, taken
    state = [_address(a) for a in (live, n_live, steps, pos, dur, status, taken)]
    drawn = int(min(ch.mean_steps * len(k) + _SLICE, 2 * _CHUNKS[1]))
    exps, unis = r.exps.exponential(1.0, drawn), r.unis.random(drawn)
    drawn //= 4
    while True:
        used = _compiled().incproc_channels(*ch.tables, _HOPPED, *state, _address(exps),
                                            _address(unis), len(exps))
        if not n_live[0]:
            return status, pos, dur, taken
        exps = np.concatenate((exps[used:], r.exps.exponential(1.0, drawn)))
        unis = np.concatenate((unis[used:], r.unis.random(drawn)))
        drawn = min(2 * drawn, 2 * _CHUNKS[1])


def _check_run(spec: TorusSpec, t_rescaled: float) -> None:
    """Refuse an empty torus, a trace-clock horizon
    ``theta * t_rescaled`` that is not positive and finite, or a torus whose
    exact condensate mass is below ``MIN_CONDENSATE_MASS``."""
    if instance(spec, TorusSpec, "spec").n < 1:
        raise OutOfRange("the torus holds no particles")
    real(spec.theta * real(t_rescaled, "t_rescaled", above=0), "theta * t_rescaled", above=0)
    mass, _, _ = _condensate_mass(spec)
    if mass < MIN_CONDENSATE_MASS:
        raise ConditionNotSatisfied(
            f"the torus is not condensed: its exact condensate mass {mass:.3g} "
            f"is below {MIN_CONDENSATE_MASS:g}")


def _condensate_runs(spec: TorusSpec, t_rescaled: float, seed: int,
                     streams: Sequence[int]) -> list[CondensateRun]:
    """One condensate run per stream, one replica after another: each chunk
    of sojourns is drawn, its excursions stepped to their ends
    (:func:`_channel_steps`) and recorded, so memory does not grow with the
    horizon. Callers check the arguments with :func:`_check_run`.
    """
    horizon = spec.theta * t_rescaled
    checkpoints = horizon * (np.arange(1, CHECKPOINTS + 1) / CHECKPOINTS)
    ch = _Channels(spec)
    runs = []
    for stream in streams:
        r = _CondensateReplica(ch, seed, stream, horizon, checkpoints)
        while not r.finished:
            r.draw_chunk(ch)
            r.record(ch, *_channel_steps(ch, r))
        runs.append(r.result())
    return runs


def run_condensate(spec: TorusSpec, t_rescaled: float, seed: int,
                   stream: int = 0) -> CondensateRun:
    """One condensate run until the trace clock reaches ``t_rescaled * theta``.

    The run is sampled as a renewal process of sojourns and excursions, a
    bounded chunk at a time, so memory does not grow with the horizon. It is
    replica ``stream`` of :func:`measure_drift` and :func:`measure_diffusion`
    with the same seed, and records its position at ``CHECKPOINTS`` equally
    spaced trace-clock times. The walk is translation invariant, so the run has
    no start site: displacements are relative to where it starts. A torus
    whose exact condensate mass is below ``MIN_CONDENSATE_MASS`` is refused
    with ``ConditionNotSatisfied``, as in the measurements.
    """
    _check_run(spec, t_rescaled)
    integer(seed, "seed", 0, MAX_KEY)
    integer(stream, "stream", 0, MAX_KEY)
    return _condensate_runs(spec, t_rescaled, seed, [stream])[0]


def _replica_runs(spec: TorusSpec, t_rescaled: float, replicas: int, seed: int,
                  threads: int) -> list[CondensateRun]:
    """Runs of the streams ``0..replicas-1``, checked before any worker starts."""
    integer(replicas, "replicas", 1)
    _check_run(spec, t_rescaled)
    integer(seed, "seed", 0, MAX_KEY)
    return _map_batches(partial(_condensate_runs, spec, t_rescaled, seed),
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
                          min_relocations: int = 100) -> CondensateStats:
    """Post-process a full trajectory on the torus into condensate statistics.

    Space is rescaled by 1/L and time by theta; the diffusion matrix comes
    from increments over ``WINDOWS`` equal trace-time windows. Use the
    streaming :func:`run_condensate` for horizons too long to store events.

    The condensate's path is the trace of the trajectory on the one-site
    states, :func:`incproc.simulate.trace_project` onto every site: each new
    label is a relocation, the displacement adds the wrapped steps between
    consecutive labels, and a window's position is that of the segment whose
    trace clock reaches the window's end. Raises ``OutOfRange`` unless
    ``min_relocations`` is an integer >= 0.
    """
    integer(min_relocations, "min_relocations")
    instance(spec, TorusSpec, "spec")
    counts = np.asarray(instance(traj, Trajectory, "traj").initial, dtype=np.int64)
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
    windows = np.linspace(0.0, traj.horizon, WINDOWS + 1)[1:]
    crossed = np.searchsorted(path.ends, windows)
    crossed = crossed[crossed < len(walked)]
    pos = walked[crossed if len(crossed) else [-1]] / spec.side
    incs = np.diff(np.vstack([np.zeros(spec.d), pos]), axis=0)
    dt_resc = (windows[1] - windows[0]) / spec.theta
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
    """Rescaled drift of the condensate over independent streamed runs.
    Raises ``OutOfRange`` unless ``min_relocations`` is an integer >= 0."""
    integer(min_relocations, "min_relocations")
    runs = _replica_runs(spec, t_rescaled, replicas, seed, threads)
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
                      seed: int, threads: int = 1) -> DiffusionEstimate:
    """Mean-squared displacement across replicas with a through-origin slope.

    Positions are sampled on the trace clock at ``CHECKPOINTS`` equally spaced
    rescaled times; the covariance estimate uses final displacements.
    """
    runs = _replica_runs(spec, t_rescaled, replicas, seed, threads)
    ck_resc = t_rescaled * (np.arange(1, CHECKPOINTS + 1) / CHECKPOINTS)
    # summed in replica order: a pairwise sum over replicas changes the bits
    sq = np.zeros(CHECKPOINTS)
    for run in runs:
        sq += ((run.positions / spec.side) ** 2).sum(axis=1)
    finals = np.array([run.positions[-1] / spec.side for run in runs])
    offs = np.array([run.off_fraction for run in runs])
    total_reloc = sum(run.relocations for run in runs)
    msd = sq / replicas
    slope = float((msd @ ck_resc) / (ck_resc @ ck_resc))
    drift = finals.mean(axis=0) / t_rescaled
    stderr = (finals.std(axis=0, ddof=1) / math.sqrt(replicas) / t_rescaled
              if replicas > 1 else np.full(spec.d, float("nan")))
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


def torus_condensation(spec: TorusSpec) -> CondensationReport:
    """Exact condensate mass from the product-form stationary measure.

    The torus walk is translation invariant, so the product form always
    applies. The single-site weights are the Taylor coefficients of
    ``(1-z)^(-d_L)``, so the partition value, the coefficient of ``z^N`` in
    their ``L^d``-th power, is ``Gamma(N + M) / (N! Gamma(M))`` with
    ``M = d_L L^d``: the single-site weight ``w(N)`` at parameter M. It is
    taken from :func:`incproc.model.log_weight_table` (O(N)), because the
    three lgamma terms of that closed form, each of order N log N, cancel to
    a value of order 1 and lose about 10x more digits. The multi-occupancy
    remainder is cross-checked against the first ``BOUND_TERMS`` terms of the
    reciprocal-sum bound.
    """
    n, d_l = instance(spec, TorusSpec, "spec").n, spec.d_l
    sites = spec.n_sites
    e_mass, logw, log_z = _condensate_mass(spec)

    ks = np.arange(1, min(spec.side, n) + 1)
    w_vals = np.exp(logw[ks])
    w_dev = float(np.abs(w_vals * ks / d_l - 1.0).max())

    terms = min(BOUND_TERMS, n, sites)
    sums = reciprocal_sum_column(n, max(terms, 1))
    bound = 0.0
    for i in range(2, terms + 1):
        log_choose = (math.lgamma(sites + 1) - math.lgamma(i + 1)
                      - math.lgamma(sites - i + 1))
        bound += math.exp(i * math.log(2 * d_l) + math.log(sums[i])
                          + log_choose - log_z)
    return CondensationReport(
        e_mass=e_mass, per_site_mass=e_mass / sites, log_partition=log_z,
        w_ratio_max_dev=w_dev, remainder_bound=bound,
        remainder_bound_terms=terms, bound_holds=bool(1.0 - e_mass <= bound))
