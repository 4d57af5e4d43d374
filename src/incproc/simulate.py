"""Event-driven simulation, trace extraction, and Monte Carlo estimators.

Sampling is exact (exponential holding times, jump-probability kernel) and
fully reproducible. Every draw comes from the counter-based Philox generator
keyed by (master seed, stream index), so replica r is independent of
scheduling and identical across platforms. Each purpose draws from a
substream of its own under that key (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): counter word 3 holds the purpose
(exponentials or uniforms), word 2 a jump that separates the parts of one
replica (the condensate runs' chunks), and the draws advance word 0, so no
two substreams overlap. A substream is built on its first use and drawn
``_SLICE`` values at a time; its values do not depend on how it is cut.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from ._native import _address, _compiled
from .errors import BudgetExceeded, DegenerateData, OutOfRange
from .model import (Configuration, ProcessParams, WalkSpec, csv_line, finite_real, instance,
                    integer, real, site_set, state_counts, walk_and_params)

DEFAULT_STEP_CAP = 1_000_000_000
# the largest seed or stream: one word of the Philox key, the same on every platform
MAX_KEY = (1 << 64) - 1
_SLICE = 1 << 10
# the purposes of a replica's substreams: Philox counter word 3
_EXPONENTIALS, _UNIFORMS = 0, 1


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key ``(seed, stream)`` as two unsigned 64-bit words, so
    every value in ``[0, 2**64)`` keys the same stream on every platform."""
    return np.array([seed, stream], dtype=np.uint64)


def _substream(key: np.ndarray, jump: int, purpose: int) -> np.random.Generator:
    """The substream ``purpose`` of the Philox ``key`` at ``jump``: its
    counter starts at ``[0, 0, jump, purpose]``, the state that
    ``Philox(key).advance(purpose << 192).jumped(jump)`` holds."""
    return np.random.Generator(np.random.Philox(
        key=key, counter=np.array([0, 0, jump, purpose], dtype=np.uint64)))


class _Blocks:
    """The draws of one replica (or one part of it, at ``jump``), handed out
    as array slices in the order they are asked for.

    Exponentials and uniforms come from their own substreams of ``key``
    (:func:`_substream`), each built on its first use, so a chain that draws
    no exponentials builds no exponential stream. Each is drawn ``_SLICE``
    values at a time as its last piece runs out.
    """

    def __init__(self, key: np.ndarray, jump: int = 0):
        self._key, self._jump = key, jump
        self._exp_rng = self._uni_rng = None
        self._exp = self._uni = np.zeros(0)
        self._ei = self._ui = 0

    def exponentials(self, n: int) -> np.ndarray:
        """The next ``n`` exponentials, or the rest of the piece if fewer
        (at least one); :meth:`use` consumes them."""
        if self._ei == len(self._exp):
            if self._exp_rng is None:
                self._exp_rng = _substream(self._key, self._jump, _EXPONENTIALS)
            self._exp, self._ei = self._exp_rng.exponential(1.0, _SLICE), 0
        return self._exp[self._ei:self._ei + n]

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, or the rest of the piece if fewer (at
        least one); :meth:`use` consumes them."""
        if self._ui == len(self._uni):
            if self._uni_rng is None:
                self._uni_rng = _substream(self._key, self._jump, _UNIFORMS)
            self._uni, self._ui = self._uni_rng.random(_SLICE), 0
        return self._uni[self._ui:self._ui + n]

    def use(self, uniforms: int, exponentials: int) -> None:
        self._ui += uniforms
        self._ei += exponentials


@dataclass(frozen=True)
class Trajectory:
    """One continuous-time path: initial state plus a chronological move list.

    Raises ``OutOfRange`` unless ``times``, ``move_from`` and ``move_to``
    are 1-D and of one length, and every move is between the sites of
    ``initial`` (integers in ``0..len(initial) - 1``).
    """

    initial: tuple[int, ...]
    times: np.ndarray
    move_from: np.ndarray
    move_to: np.ndarray
    horizon: float
    seed: int
    stream: int

    def __post_init__(self):
        kappa = len(self.initial)
        moves = [np.asarray(m) for m in (self.move_from, self.move_to)]
        if not all(np.ndim(a) == 1 for a in (self.times, *moves)) or not (
                len(self.times) == len(moves[0]) == len(moves[1])):
            raise OutOfRange("times, move_from and move_to must be 1-D arrays of one length")
        if len(self.times) and not all(m.dtype.kind in "iu" and 0 <= m.min()
                                       and m.max() < kappa for m in moves):
            raise OutOfRange(f"trajectory moves leave the sites 0..{kappa - 1}")

    @property
    def n_events(self) -> int:
        return len(self.times)

    def final_state(self) -> tuple[int, ...]:
        kappa = len(self.initial)
        counts = (np.asarray(self.initial, dtype=np.int64)
                  + np.bincount(self.move_to, minlength=kappa)
                  - np.bincount(self.move_from, minlength=kappa))
        return tuple(int(v) for v in counts)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time,site_from,site_to\n")
            for t, x, y in zip(self.times, self.move_from, self.move_to):
                fh.write(csv_line((t, x, y)))


class _Kernel:
    """Exact direct-method (Gillespie) events of one chain, run by the
    compiled loop ``incproc_slice`` of ``_kernel.c``: the move table
    ``out[x] = [(y, coef), ...]`` (held as CSR arrays), ``d``, ``by_target``
    and the stop level ``stop``. Each step weighs the row of its state
    anew; nothing is cached. A kernel runs one replica at a time, with
    scratch arrays of its own.
    """

    def __init__(self, out: Sequence[Sequence[tuple[int, float]]], d: float,
                 by_target: bool = False, stop: float = -1):
        self.kappa = len(out)
        self.d, self.by_target, self.stop = d, by_target, stop
        first = np.cumsum([0] + [len(moves) for moves in out], dtype=np.int64)
        target = np.array([y for moves in out for y, _ in moves], dtype=np.int64)
        coef = np.array([c for moves in out for _, c in moves], dtype=float)
        if len(target) and not (0 <= target.min() and target.max() < self.kappa):
            raise OutOfRange(f"move targets must be sites 0..{self.kappa - 1}")
        # the running sums and move ids of a row, which holds at most one
        # entry per move of the table
        room = max(len(coef), 1)
        cum, ids = np.empty(room), np.empty(room, dtype=np.int64)
        self.sources = np.zeros(self.kappa, dtype=np.int64)
        self.n_sources = np.zeros(1, dtype=np.int64)
        self.clock, self.stopped = np.zeros(1), np.zeros(1, dtype=np.int64)
        # held, so the addresses passed to the loop stay valid
        self.arrays = (first, target, coef, cum, ids)
        self.table = [_address(a) for a in (first, target, coef)]
        self.scratch = [_address(cum), _address(ids), room]
        self.state = [_address(self.sources), _address(self.n_sources)]
        self.ends = [_address(self.clock), _address(self.stopped)]

    def run(self, counts: np.ndarray, sources: Sequence[int], blocks: _Blocks, cap,
            horizon: float = math.inf, record: bool = False) -> tuple:
        """Run a replica from ``blocks`` until the first event whose source is
        left with ``stop`` particles or fewer, ``cap`` events, or the last one
        at or before ``horizon``. An event picks a move of ``counts`` (int64,
        updated in place) in proportion to its weight and lasts an
        exponential over the total weight (1.0 when ``by_target``).
        ``sources`` (distinct sites) fixes the move order; a list holds the
        occupied sites in arrival order, kept so, and the run stops at one.
        Returns the events, the clock, whether the run stopped, and, if
        ``record``, the event times and move ids ``x * kappa + y``.
        """
        # the loop writes through the address of ``counts``, and checks the sources
        if not (counts.dtype == np.int64 and counts.flags.c_contiguous
                and len(counts) == self.kappa and len(sources) <= self.kappa):
            raise OutOfRange("counts must be a contiguous int64 array of one entry per "
                             "site, and the sources at most one per site")
        listed = isinstance(sources, list)
        self.n_sources[0] = len(sources)
        self.sources[:len(sources)] = sources
        self.clock[0], self.stopped[0] = 0.0, 0
        # recorded times and moves: room for a cap up to 2^20, else doubled from one piece
        size = cap if cap <= 1 << 20 else _SLICE
        out = [np.empty(size), np.empty(size, dtype=np.int64)] if record else []
        taken = 0
        while taken < cap:
            n = min(_SLICE, cap - taken)
            exps = None if self.by_target else blocks.exponentials(n)
            unis = blocks.uniforms(n if exps is None else len(exps))
            if out and taken + len(unis) > len(out[0]):
                out = [np.concatenate((a, np.empty_like(a))) for a in out]
            m = _compiled().incproc_slice(
                *self.table, self.kappa, self.d, self.by_target, self.stop, listed,
                _address(counts), *self.state, None if exps is None else _address(exps),
                _address(unis), len(unis), *self.scratch, horizon, *self.ends,
                *([_address(a[taken:]) for a in out] or [None, None]))
            if m < 0:
                raise OutOfRange("a state of the chain has no move of positive weight"
                                 if m == -1 else "sources must be distinct sites of the chain")
            blocks.use(m, 0 if exps is None else m)
            taken += m
            if m < len(unis) or self.stopped[0]:
                break
        if listed:
            sources[:] = self.sources[:self.n_sources[0]].tolist()
        return (taken, float(self.clock[0]), bool(self.stopped[0]),
                *([a if taken == len(a) else a[:taken].copy() for a in out] or [None, None]))


def _walk_moves(spec: WalkSpec) -> list[list[tuple[int, float]]]:
    """Outgoing moves ``out[x] = [(y, r(x, y)), ...]`` with positive rate."""
    return [[(y, float(spec.rates[x, y])) for y in range(spec.kappa)
             if y != x and spec.rates[x, y] > 0] for x in range(spec.kappa)]


def simulate(spec: WalkSpec, params: ProcessParams,
             eta0: Configuration | Sequence[int], horizon: float, seed: int,
             stream: int = 0, max_events: int | None = None) -> Trajectory:
    """Exact event-driven path of the inclusion process up to ``horizon``.

    ``max_events`` additionally truncates the event count (the recorded
    horizon is then the last event time).
    """
    walk_and_params(spec, params)
    return _simulate(_Kernel(_walk_moves(spec), params.d), spec, params, eta0,
                     horizon, seed, stream, max_events)


def _simulate(kernel: _Kernel, spec: WalkSpec, params: ProcessParams,
              eta0: Configuration | Sequence[int], horizon: float, seed: int,
              stream: int, max_events: int | None) -> Trajectory:
    """:func:`simulate` through ``kernel``, the event kernel of the walk, in one run."""
    real(horizon, "horizon", above=0)
    initial = state_counts(eta0, spec.kappa, params.n)
    if max_events is not None:
        integer(max_events, "max_events")
    integer(seed, "seed", 0, MAX_KEY)
    integer(stream, "stream", 0, MAX_KEY)
    counts, blocks = np.array(initial, dtype=np.int64), _Blocks(_philox_key(seed, stream))
    cap = math.inf if max_events is None else max_events
    n_events, _, _, times, moves = kernel.run(counts, range(spec.kappa), blocks, cap,
                                              horizon, record=True)
    move_from, move_to = np.divmod(moves.astype(np.int32), spec.kappa)
    real_horizon = horizon if n_events < cap else (float(times[-1]) if n_events else 0.0)
    return Trajectory(initial=initial, times=times, move_from=move_from, move_to=move_to,
                      horizon=real_horizon, seed=seed, stream=stream)


@dataclass(frozen=True)
class TracePath:
    """Trace of a trajectory on the metastable states of a site set.

    ``labels``/``sojourns`` list the visited sites with their trace-clock
    sojourn times (consecutive equal labels merged: the clock is frozen off
    the set), and ``ends`` the trace clock at the end of each of these
    segments, where the next one opens (the last ends at ``trace_time``).
    ``trace_time`` and ``off_time`` split the horizon into the time on the
    set's one-site states and the time off them. ``theta`` is the time
    scale the call was given, recorded only.
    """

    labels: np.ndarray
    sojourns: np.ndarray
    ends: np.ndarray
    trace_time: float
    off_time: float
    theta: float

    def transition_counts(self, kappa: int) -> np.ndarray:
        counts = np.zeros((kappa, kappa), dtype=np.int64)
        np.add.at(counts, (self.labels[:-1], self.labels[1:]), 1)
        return counts

    def time_at(self, kappa: int) -> np.ndarray:
        out = np.zeros(kappa)
        np.add.at(out, self.labels, self.sojourns)
        return out


def trace_project(traj: Trajectory, a_set, theta: float) -> TracePath:
    """Project a trajectory onto the metastable states of ``a_set``: the
    trace process (labels, sojourns and segment ends) and the split of the
    horizon into ``trace_time`` on those states and ``off_time`` off them.

    ``theta``, the time scale of the path, is recorded on the result only:
    no output depends on it. Raises ``OutOfRange`` unless it is a finite
    positive real.

    Interval ``i`` runs from event ``i - 1`` (or time 0) to event ``i`` (or
    the horizon) in the state left by the first ``i`` events. The path is
    replayed event by event in one pass of the compiled loop
    ``incproc_trace`` of ``_kernel.c``: after a move only its target can
    hold all N, and every clock, and every segment's sojourn, adds its
    intervals one at a time in path order.
    """
    kappa = len(instance(traj, Trajectory, "traj").initial)
    a_set = site_set(a_set, kappa)
    real(theta, "theta", above=0)
    counts = np.fromiter(traj.initial, np.int64, kappa)
    in_a = np.zeros(kappa, dtype=np.uint8)
    in_a[np.fromiter(a_set, np.intp, len(a_set))] = 1
    # no copy of a path as simulate stores it
    times = np.ascontiguousarray(traj.times, dtype=np.float64)
    src, dst = (np.ascontiguousarray(m, dtype=np.int32) for m in (traj.move_from, traj.move_to))
    # a segment opens at most at each event, and one is open at the start
    room = traj.n_events + 1
    labels, sojourns, ends = np.empty(room, dtype=np.int64), np.empty(room), np.empty(room)
    clocks = np.empty(2)
    m = _compiled().incproc_trace(
        _address(times), _address(src), _address(dst), traj.n_events, traj.horizon,
        kappa, sum(traj.initial), _address(in_a), _address(counts), _address(labels),
        _address(sojourns), _address(ends), _address(clocks))
    if m < 0:
        raise OutOfRange({-1: f"trajectory moves leave the sites 0..{kappa - 1}",
                          -2: "trajectory times must rise from 0 to the horizon, finite",
                          -3: "a trajectory move leaves an empty site"}[m])
    trace_time, off_time = clocks.tolist()
    return TracePath(labels=labels[:m].copy(), sojourns=sojourns[:m].copy(),
                     ends=ends[:m].copy(), trace_time=trace_time, off_time=off_time,
                     theta=theta)


@dataclass(frozen=True)
class MCTraceRates:
    """Maximum-likelihood trace-rate estimates with per-entry standard errors."""

    a_set: tuple[int, ...]
    estimate: np.ndarray
    stderr: np.ndarray
    jump_counts: np.ndarray
    time_at: np.ndarray
    no_transitions: np.ndarray
    replicas: int
    seed: int


def mc_mean_jump_rate(spec: WalkSpec, params: ProcessParams, a_set,
                      replicas: int, horizon: float, seed: int,
                      threads: int = 1) -> MCTraceRates:
    """Estimate trace rates as (#jumps x->y) / (trace time at x).

    Each replica runs an independent trajectory started from a metastable
    state (cycling over the set); entries never observed are flagged rather
    than raised.
    """
    walk_and_params(spec, params)
    integer(replicas, "replicas", 1)
    real(horizon, "horizon", above=0)
    integer(seed, "seed", 0, MAX_KEY)
    a_set = site_set(a_set, spec.kappa)
    kappa = spec.kappa
    results = _map_batches(partial(_trace_batch, spec, params, a_set, horizon, seed),
                           range(replicas), threads)
    jumps = np.zeros((kappa, kappa), dtype=np.int64)
    time_at = np.zeros(kappa)
    for cnt, tat in results:
        jumps += cnt
        time_at += tat
    a = list(a_set)
    sub_jumps, sub_time = jumps[np.ix_(a, a)], time_at[a]
    # x -> y is estimated where x != y was left at least once after some
    # time at x, and flagged as unobserved otherwise
    off = ~np.eye(len(a), dtype=bool)
    seen = off & (sub_jumps > 0) & (sub_time[:, None] > 0)
    est = np.divide(sub_jumps, sub_time[:, None], out=np.zeros(off.shape), where=seen)
    err = np.divide(np.sqrt(sub_jumps), sub_time[:, None], out=np.zeros(off.shape),
                    where=seen)
    return MCTraceRates(a_set=a_set, estimate=est, stderr=err,
                        jump_counts=sub_jumps, time_at=sub_time,
                        no_transitions=off & ~seen, replicas=replicas, seed=seed)


def _trace_batch(spec: WalkSpec, params: ProcessParams, a_set: tuple[int, ...],
                 horizon: float, seed: int, streams: Sequence[int]) -> list:
    """(jump counts, trace time at each site) of each replica in ``streams``;
    replica i starts on site ``a_set[i % len(a_set)]``."""
    kernel = _Kernel(_walk_moves(spec), params.d)
    results = []
    for i in streams:
        start = Configuration.single_site(spec.kappa, params.n, a_set[i % len(a_set)])
        traj = _simulate(kernel, spec, params, start, horizon, seed, i, None)
        path = trace_project(traj, a_set, theta=1.0)
        results.append((path.transition_counts(spec.kappa), path.time_at(spec.kappa)))
    return results


@dataclass(frozen=True)
class HittingTask:
    """One hitting-time experiment.

    ``chain`` selects the process: ``inclusion`` runs the particle system in
    continuous time until some site's count drops to ``threshold`` or below;
    ``auxiliary`` runs the discrete reversed chain on the inner-core closure
    of ``r_set`` until it leaves the inner core (threshold
    ``floor(eps * log N)``).
    """

    chain: str
    start: tuple[int, ...]
    replicas: int
    seed: int
    threshold: float | None = None
    r_set: tuple[int, ...] | None = None
    eps: float | None = None
    step_cap: int = DEFAULT_STEP_CAP

    def __post_init__(self):
        if self.chain not in ("inclusion", "auxiliary"):
            raise OutOfRange(f"unknown chain {self.chain!r}")
        if self.chain == "auxiliary" and self.r_set is None:
            raise OutOfRange("auxiliary chain needs r_set")
        # a nan or negative level is never reached; eps > 0 as RegionSpec requires
        if self.chain == "inclusion":
            real(self.threshold, "threshold", at_least=0)
        else:
            real(self.eps, "eps", above=0)
        integer(self.step_cap, "step_cap")
        integer(self.seed, "seed", 0, MAX_KEY)


@dataclass(frozen=True)
class MCHitting:
    """Per-replica hitting observations; censored entries hit the step cap."""

    values: np.ndarray
    censored: np.ndarray
    mean: float
    variance: float

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())


def mc_hitting(task: HittingTask, spec: WalkSpec, params: ProcessParams,
               threads: int = 1) -> MCHitting:
    """Monte Carlo hitting times; continuous time for the inclusion chain,
    step counts for the auxiliary chain.

    Capped replicas are reported as censored (value = budget consumed); the
    mean and variance use uncensored replicas only. Raises only when every
    replica is censored.
    """
    instance(task, HittingTask, "task")
    walk_and_params(spec, params)
    integer(task.replicas, "replicas", 1)
    state_counts(task.start, spec.kappa, params.n)
    if task.chain == "auxiliary":
        task = replace(task, r_set=site_set(task.r_set, spec.kappa))
        if any(task.start[x] for x in range(spec.kappa) if x not in task.r_set):
            raise OutOfRange("auxiliary-chain start must be supported on R")
    results = _map_batches(partial(_hitting_batch, task, spec, params),
                           range(task.replicas), threads)
    values = np.array([v for v, _ in results])
    censored = np.array([c for _, c in results], dtype=bool)
    if censored.all():
        raise BudgetExceeded(f"all {task.replicas} replicas hit the step cap")
    ok = values[~censored]
    return MCHitting(values=values, censored=censored,
                     mean=float(ok.mean()),
                     variance=float(ok.var(ddof=1)) if ok.size > 1 else 0.0)


def _hitting_batch(task: HittingTask, spec: WalkSpec, params: ProcessParams,
                   streams: Sequence[int]) -> list[tuple[float, bool]]:
    """(value, censored) of each replica in ``streams``.

    Each chain picks its sites, moves and stop level; then one run adds the
    event times (1.0 a step for the auxiliary chain, so its value is the step
    count) until a source count drops to ``stop`` or ``step_cap`` events.
    """
    if task.chain == "inclusion":
        stop = task.threshold
        sources, kernel = range(spec.kappa), _Kernel(_walk_moves(spec), params.d, stop=stop)
    else:
        sources = task.r_set
        # a level of N or more stops at once, also where eps * log N overflows
        stop = int(math.floor(min(task.eps * math.log(params.n), params.n)))
        # the reversed chain on R: x -> y weighted by c_y (d + c_x) r(y, x)
        kernel = _Kernel([[(y, float(spec.rates[y, x])) for y in sources
                           if y != x and spec.rates[y, x] > 0] if x in sources else []
                          for x in range(spec.kappa)], params.d, True, stop)
    if min(task.start[x] for x in sources) <= stop:
        return [(0.0, False)] * len(streams)
    results = []
    for i in streams:
        _, t, stopped, _, _ = kernel.run(np.array(task.start, dtype=np.int64), sources,
                                         _Blocks(_philox_key(task.seed, i)), task.step_cap)
        results.append((t, not stopped))
    return results


def _map_batches(batch, streams: Sequence[int], threads: int) -> list:
    """``batch(streams)`` in one process, or ``batch`` over ``threads``
    contiguous chunks of ``streams`` in a process pool; the only place a
    pool starts. The pool starts no more workers than there are chunks or
    CPUs: with the fork start method all of them start at once.

    Each call builds one event kernel per chain for all its streams and
    returns one result per stream, in stream order. ``threads`` must be an
    integer of at least one.
    """
    if integer(threads, "threads", 1) == 1 or len(streams) <= 1:
        return batch(streams)
    size = -(-len(streams) // threads)
    chunks = [streams[i:i + size] for i in range(0, len(streams), size)]
    with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
        return [res for part in pool.map(batch, chunks) for res in part]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def scaling_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Log-log least squares over (N, value) points, a sequence of pairs of
    finite reals (else ``OutOfRange``)."""
    if not (isinstance(points, Sequence) and all(
            isinstance(p, Sequence) and len(p) == 2 and all(map(finite_real, p)) for p in points)):
        raise OutOfRange(f"points must be (N, value) pairs of finite reals, got {points!r}")
    if len(points) < 3:
        raise DegenerateData(f"need at least 3 points, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    vs = np.array([p[1] for p in points], dtype=float)
    if (ns <= 0).any() or (vs <= 0).any():
        raise DegenerateData("log-log fit needs positive coordinates")
    x = np.log(ns)
    y = np.log(vs)
    if np.ptp(x) == 0:
        raise DegenerateData("all sizes identical")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=r2)
