"""Differential tests: every simulator against one small scalar reference.

The reference restates the direct method from the rate definition. At each
step it lists every candidate move ``(x, y, coef)`` in a fixed order, weighs
it, and walks the running sum until it reaches the uniform draw, never
stopping on a zero-weight move. Walks list all site pairs x-major; the
auxiliary chain weighs by the target count, ``c_y (d + c_x) r(y, x)``; the
torus lists the moves of occupied sites in the order the sites became
occupied. Draws come from the package's Philox purpose substreams, so the
simulators must reproduce the reference event for event. The compiled
kernel weighs each state's row anew at every event, so every event checks
its weights, not a cached copy.

``ref_trace_project`` replays a trajectory event by event in Python; the
compiled replay of ``trace_project`` must give the same labels, sojourns,
segment ends and clocks, bit for bit. ``condensate_statistics`` must match
the condensate following of ``RefCondensate`` the same way.

Condensate runs are the exception: they are sampled as a renewal process of
one-site sojourns and two-site excursions, with the draws in another order,
so they are compared with the reference in distribution. Each two-sample
Kolmogorov-Smirnov test below rejects a correct sampler with probability at
most 1e-3; the seeds are fixed, so every outcome is deterministic. Their
compiled channel steps must match the numpy lockstep they replaced
(``lockstep_runs`` of ``tests/reference.py``) bit for bit.
"""

import dataclasses
import gc
import hashlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from incproc import (BudgetExceeded, HittingTask, OutOfRange, ProcessParams, Trajectory,
                     WalkSpec, build_torus, condensate_statistics, mc_hitting,
                     measure_drift, run_condensate, simulate, torus_walk, trace_project)
from incproc.simulate import (_EXPONENTIALS, _SLICE, _UNIFORMS, _Blocks, _philox_key,
                              _substream)
from incproc.thermo import WINDOWS, _HOPPED, _condensate_runs, _CondensateReplica
from reference import draw, lockstep_runs

KS_LEVEL = 1e-3
KERNEL = sys.modules["incproc.simulate"]
THERMO = sys.modules["incproc.thermo"]

WALKS = ("cycle3", "two_sym", "two_asym", "up3", "chain4")
TORI = {
    "1d": lambda: build_torus(1, 8, {1: 0.7, -1: 0.3}, rho=1.5, d_l=1e-2),
    "2d": lambda: build_torus(2, 5, {(1, 0): 1.0, (-1, 0): 0.6, (0, 1): 0.8,
                                     (0, -1): 0.8}, rho=1.0, d_l=5e-2),
}


def ref_step(counts, moves, d, blocks, by_target=False):
    """One event: (dt, x, y); ``counts`` is left unchanged."""
    if by_target:
        weights = [counts[y] * (d + counts[x]) * c for x, y, c in moves]
    else:
        weights = [counts[x] * (d + counts[y]) * c for x, y, c in moves]
    total = 0.0
    for w in weights:
        total += w
    dt = 1.0 if by_target else draw(blocks, "exponential") / total
    u = draw(blocks, "uniform") * total
    acc = 0.0
    for (x, y, _), w in zip(moves, weights):
        acc += w
        if w > 0 and u <= acc:
            return dt, x, y
    raise AssertionError("no move selected")


def walk_moves(spec):
    k = spec.kappa
    return [(x, y, float(spec.rates[x, y]))
            for x in range(k) for y in range(k) if x != y]


def tick(t, dt):
    """The clock after an event of holding time ``dt``: one ulp on if ``dt``
    does not move it."""
    return max(t + dt, math.nextafter(t, math.inf))


def ref_simulate(spec, params, eta0, horizon, seed, stream=0, max_events=None):
    counts = list(eta0)
    moves = walk_moves(spec)
    blocks = _Blocks(_philox_key(seed, stream))
    times, efrom, eto = [], [], []
    t = 0.0
    while max_events is None or len(times) < max_events:
        dt, x, y = ref_step(counts, moves, params.d, blocks)
        t_next = tick(t, dt)
        if t_next > horizon:
            break
        t = t_next
        counts[x] -= 1
        counts[y] += 1
        times.append(t)
        efrom.append(x)
        eto.append(y)
    return times, efrom, eto


def ref_hit(task, spec, params, replica):
    """(value, censored) of one mc_hitting replica."""
    counts = list(task.start)
    blocks = _Blocks(_philox_key(task.seed, replica))
    if task.chain == "inclusion":
        stop = task.threshold
        moves = walk_moves(spec)
        sites = range(spec.kappa)
    else:
        stop = math.floor(task.eps * math.log(params.n))
        sites = sorted(set(task.r_set))
        moves = [(x, y, float(spec.rates[y, x]))
                 for x in sites for y in sites if x != y]
    if min(counts[x] for x in sites) <= stop:
        return 0.0, False
    clock = 0.0
    for _ in range(task.step_cap):
        dt, x, y = ref_step(counts, moves, params.d, blocks,
                            by_target=task.chain == "auxiliary")
        counts[x] -= 1
        counts[y] += 1
        clock = tick(clock, dt)
        if counts[x] <= stop:
            return clock, False
    return clock, True


class RefCondensate:
    """Condensate following: occupancy in insertion order, relocations,
    unwrapped displacement, and positions at trace-clock checkpoints.
    ``excursions`` lists ``[events, duration]`` of each stay off the
    one-site states; the events are those that start off them."""

    def __init__(self, spec, counts, checkpoints):
        self.spec = spec
        self.coords = [tuple((i // spec.side ** (spec.d - 1 - a)) % spec.side
                             for a in range(spec.d)) for i in range(spec.n_sites)]
        self.counts = list(counts)
        self.occupied = [x for x in range(spec.n_sites) if counts[x]]
        self.cur = self.occupied[0]
        self.in_e = True
        self.disp = [0] * spec.d
        self.relocations = 0
        self.trace = 0.0
        self.off = 0.0
        self.checkpoints = list(checkpoints)
        self.positions = []
        self.excursions = []

    def site(self, coord):
        flat = 0
        for v in coord:
            flat = flat * self.spec.side + v % self.spec.side
        return flat

    def dwell(self, dt):
        if self.in_e:
            self.trace += dt
            while (len(self.positions) < len(self.checkpoints)
                   and self.trace >= self.checkpoints[len(self.positions)]):
                self.positions.append(list(self.disp))
        else:
            self.off += dt
            self.excursions[-1][1] += dt

    def move(self, x, y):
        if self.in_e:
            self.excursions.append([0, 0.0])
        else:
            self.excursions[-1][0] += 1
        self.counts[x] -= 1
        self.counts[y] += 1
        if self.counts[x] == 0:
            self.occupied.remove(x)
        if self.counts[y] == 1:
            self.occupied.append(y)
        self.in_e = len(self.occupied) == 1
        if self.in_e and self.occupied[0] != self.cur:
            side, half = self.spec.side, self.spec.side // 2
            new = self.occupied[0]
            for a in range(self.spec.d):
                step = self.coords[new][a] - self.coords[self.cur][a]
                self.disp[a] += (step + half) % side - half
            self.cur = new
            self.relocations += 1


def ref_run_condensate(spec, t_rescaled, seed, stream=0, n_checkpoints=4,
                       start_site=0):
    horizon = spec.theta * t_rescaled
    counts = [0] * spec.n_sites
    counts[start_site] = spec.n
    ref = RefCondensate(spec, counts,
                        horizon * (np.arange(1, n_checkpoints + 1) / n_checkpoints))
    blocks = _Blocks(_philox_key(seed, stream))
    while True:
        moves = [(x, ref.site(c + o for c, o in zip(ref.coords[x], off)), w)
                 for x in ref.occupied for off, w in spec.kernel.items()]
        dt, x, y = ref_step(ref.counts, moves, spec.d_l, blocks)
        ref.dwell(dt)
        if len(ref.positions) == n_checkpoints:
            return ref
        ref.move(x, y)


@pytest.mark.parametrize("walk", WALKS)
def test_simulate_matches_reference(walk, request):
    spec = request.getfixturevalue(walk)
    params = ProcessParams(7, 0.3)
    eta0 = [0] * spec.kappa
    eta0[0], eta0[-1] = 3, 4
    for horizon, max_events in ((60.0, None), (1e300, 2_000)):
        traj = simulate(spec, params, eta0, horizon, seed=5, stream=2,
                        max_events=max_events)
        times, efrom, eto = ref_simulate(spec, params, eta0, horizon, seed=5,
                                         stream=2, max_events=max_events)
        assert traj.n_events > 0
        assert traj.times.tolist() == times
        assert traj.move_from.tolist() == efrom
        assert traj.move_to.tolist() == eto


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("chain", ["inclusion", "auxiliary"])
def test_mc_hitting_matches_reference(walk, chain, request):
    spec = request.getfixturevalue(walk)
    params = ProcessParams(24, 0.7)
    start = [0] * spec.kappa
    for i in range(24):
        start[i % spec.kappa] += 1
    extra = (dict(threshold=2.0) if chain == "inclusion"
             else dict(r_set=tuple(range(spec.kappa)), eps=0.4))
    for step_cap in (30, 100_000):
        task = HittingTask(chain=chain, start=tuple(start), replicas=6, seed=9,
                           step_cap=step_cap, **extra)
        expected = [ref_hit(task, spec, params, i) for i in range(task.replicas)]
        if all(c for _, c in expected):
            with pytest.raises(BudgetExceeded):
                mc_hitting(task, spec, params)
            continue
        res = mc_hitting(task, spec, params)
        assert res.values.tolist() == [v for v, _ in expected]
        assert res.censored.tolist() == [c for _, c in expected]


def sampled_runs(spec, t_rescaled, seed, streams):
    """Renewal-sampled runs, and the ``(status, events, duration)`` of every
    excursion they made, in excursion order."""
    seen = []
    record = _CondensateReplica.record

    def spy(self, ch, status, pos, dur, events):
        record(self, ch, status, pos, dur, events)
        seen.append((status.copy(), events.copy(), dur.copy()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_CondensateReplica, "record", spy)
        runs = _condensate_runs(spec, t_rescaled, seed, list(streams))
    return runs, [np.concatenate(part) for part in zip(*seen)]


# reference runs per torus: about 2,400 excursions on "1d", 200 on "2d",
# where a quarter of them hop to a third site and take 400 events on average
REF_RUNS = {"1d": 200, "2d": 12}


@pytest.mark.parametrize("torus", sorted(TORI))
def test_run_condensate_matches_reference(torus):
    # the events and the off-set duration of each excursion
    spec = TORI[torus]()
    runs = REF_RUNS[torus]
    ref = [ref_run_condensate(spec, 1.0, seed=13, stream=s) for s in range(runs)]
    ref_events, ref_dur = np.array([e for r in ref for e in r.excursions]).T
    _, (_, events, dur) = sampled_runs(spec, 1.0, seed=14, streams=range(2 * runs))
    assert len(ref_events) > 150 and len(events) > 300
    assert ks_2samp(ref_events, events).pvalue > KS_LEVEL
    assert ks_2samp(ref_dur, dur).pvalue > KS_LEVEL


def test_third_site_hops_match_reference():
    # d_L = 0.5 on 7 sites: half of all excursions hop to a third site and
    # finish in the event kernel; compare whole runs
    spec = build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5)
    ref = [ref_run_condensate(spec, 1.0, seed=19, stream=s) for s in range(300)]
    runs, (status, _, _) = sampled_runs(spec, 1.0, seed=20, streams=range(300))
    assert (status == _HOPPED).mean() > 0.3
    pairs = {
        "relocations": ([r.relocations for r in ref], [r.relocations for r in runs]),
        "displacement": ([r.disp[0] for r in ref], [r.displacement[0] for r in runs]),
        "midway": ([r.positions[1][0] for r in ref], [r.positions[1, 0] for r in runs]),
        "off_time": ([r.off for r in ref], [r.off_time for r in runs]),
        "trace_time": ([r.trace for r in ref], [r.trace_time for r in runs]),
        "events": ([len(r.excursions) + sum(e for e, _ in r.excursions) for r in ref],
                   [r.events for r in runs]),
    }
    for name, (want, got) in pairs.items():
        assert ks_2samp(want, got).pvalue > KS_LEVEL, name


# (torus, t_rescaled, seed, replicas, chunk lengths) of the channel-step
# comparison; None keeps the package's chunk lengths
CHANNEL_CASES = {
    # one particle: level 1 is a relocation, so every excursion takes 0 steps
    "one_particle": (lambda: build_torus(1, 4, {1: 0.6, -1: 0.4}, rho=0.25, d_l=0.5),
                     10.0, 9, 4, None),
    # about half the excursions hop to a third site
    "third_site": (lambda: build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5),
                   1.0, 20, 40, None),
    "2d": (TORI["2d"], 1.0, 5, 8, None),
    "totally_asym": (lambda: build_torus(1, 8, {1: 1.0}, rho=1.5, d_l=1e-2), 4.0, 3, 6, None),
    # the torus of the mc_ensemble benchmark, in chunks so short that the
    # compiled loop runs out of draws within a chunk
    "mc_ensemble": (lambda: build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=16.0 ** -5),
                    0.025, 4101, 32, (16, 64)),
}


@pytest.mark.parametrize("case", sorted(CHANNEL_CASES))
def test_channel_steps_match_the_lockstep(case, monkeypatch):
    make, t, seed, replicas, chunks = CHANNEL_CASES[case]
    if chunks is not None:
        monkeypatch.setattr(THERMO, "_CHUNKS", chunks)
    spec = make()
    library, calls, statuses = THERMO._compiled(), [], []
    record = _CondensateReplica.record

    def channels(*args):
        calls.append(args)
        return library.incproc_channels(*args)

    def spy(self, ch, status, pos, dur, events):
        statuses.append(status.copy())
        record(self, ch, status, pos, dur, events)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(THERMO, "_compiled", lambda: SimpleNamespace(incproc_channels=channels))
        mp.setattr(_CondensateReplica, "record", spy)
        runs = _condensate_runs(spec, t, seed, list(range(replicas)))
    ref = lockstep_runs(spec, t, seed, range(replicas))
    for run, want in zip(runs, ref, strict=True):
        for field in dataclasses.fields(run):
            assert np.array_equal(getattr(run, field.name), getattr(want, field.name)), field
    status = np.concatenate(statuses)
    assert len(status) > 20
    if case == "one_particle":
        assert sum(r.events for r in runs) == sum(r.relocations for r in runs) == len(status)
    if case == "third_site":
        assert (status == _HOPPED).sum() > 10
    if case == "mc_ensemble":
        # more loop calls than chunks: draws were topped up within a chunk
        assert len(calls) > len(statuses)


@pytest.mark.parametrize("torus", sorted(TORI))
def test_condensate_statistics_matches_reference(torus):
    spec = TORI[torus]()
    eta0 = [0] * spec.n_sites
    eta0[1] = spec.n
    traj = simulate(torus_walk(spec), ProcessParams(spec.n, spec.d_l), eta0,
                    horizon=20.0 * spec.theta, seed=17)
    ref = RefCondensate(spec, eta0, [traj.horizon])
    t_prev = 0.0
    for t, x, y in zip(traj.times.tolist(), traj.move_from.tolist(),
                       traj.move_to.tolist()):
        ref.dwell(t - t_prev)
        t_prev = t
        ref.move(x, y)
    ref.dwell(traj.horizon - t_prev)
    stats = condensate_statistics(traj, spec, min_relocations=1)
    t_resc = ref.trace / spec.theta
    assert stats.relocations == ref.relocations
    assert stats.trace_time_rescaled == t_resc
    assert stats.off_fraction == ref.off / (ref.trace + ref.off)
    assert stats.drift.tolist() == (np.asarray(ref.disp) / spec.side / t_resc).tolist()


def ref_condensate_statistics(traj, spec):
    """The event-by-event replay ``condensate_statistics`` replaced:
    (drift, diffusion, off_fraction, relocations, trace_time_rescaled)."""
    windows = np.linspace(0.0, traj.horizon, WINDOWS + 1)[1:]
    ref = RefCondensate(spec, traj.initial, windows)
    t_prev = 0.0
    for t, x, y in zip(traj.times.tolist(), traj.move_from.tolist(),
                       traj.move_to.tolist()):
        ref.dwell(t - t_prev)
        t_prev = t
        ref.move(x, y)
    ref.dwell(traj.horizon - t_prev)
    filled = len(ref.positions)
    positions = np.array(ref.positions + [ref.disp] * (WINDOWS - filled), dtype=float)
    t_resc = ref.trace / spec.theta
    drift = (np.asarray(ref.disp) / spec.side) / t_resc
    pos = positions[:max(filled, 1)] / spec.side
    incs = np.diff(np.vstack([np.zeros(spec.d), pos]), axis=0)
    dt_resc = (windows[1] - windows[0]) / spec.theta
    centered = incs - incs.mean(axis=0)
    diffusion = np.atleast_2d(centered.T @ centered / (len(incs) * dt_resc))
    wall = ref.trace + ref.off
    return drift, diffusion, ref.off / wall, ref.relocations, t_resc


# the replay's site loop on the largest torus a WalkSpec holds
REPLAY_TORI = {**TORI, "64": lambda: build_torus(
    2, 8, {(1, 0): 1.0, (-1, 0): 0.6, (0, 1): 0.8, (0, -1): 0.8}, rho=0.5, d_l=5e-2)}


@pytest.mark.parametrize("torus", sorted(REPLAY_TORI))
def test_condensate_statistics_matches_replay(torus):
    spec = REPLAY_TORI[torus]()
    walk, params = torus_walk(spec), ProcessParams(spec.n, spec.d_l)
    seen = 0
    for seed, (horizon, max_events) in enumerate(((0.4, None), (8.0, None),
                                                  (1e300, 3_000))):
        eta0 = [0] * spec.n_sites
        eta0[seed] = spec.n
        traj = simulate(walk, params, eta0, horizon=horizon * spec.theta,
                        seed=seed, max_events=max_events)
        stats = condensate_statistics(traj, spec, min_relocations=0)
        got = (stats.drift, stats.diffusion, stats.off_fraction,
               stats.relocations, stats.trace_time_rescaled)
        for name, a, b in zip(("drift", "diffusion", "off", "reloc", "t"), got,
                              ref_condensate_statistics(traj, spec)):
            assert np.array_equal(a, b), name
        seen += stats.relocations
    assert seen >= 3


def test_one_third_site_kernel_per_torus(monkeypatch):
    # the lattice move table is built once per torus, however many replicas
    # and chunks take a third-site hop
    kernels = []
    init = KERNEL._Kernel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    monkeypatch.setattr(KERNEL._Kernel, "__init__", spy)
    spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=2, d_l=0.05)
    measure_drift(spec, 10.0, seed=7, replicas=4, min_relocations=1)
    (kernel,) = kernels
    assert kernel.kappa == spec.n_sites


@pytest.mark.parametrize("chain", ["walk", "third_site"])
def test_runs_leave_nothing_for_the_cycle_collector(chain):
    # a run, and the kernel it drops, are freed at once: none of it is left
    # for the cycle collector
    if chain == "walk":
        spec = TORI["1d"]()
        run = lambda: simulate(torus_walk(spec), ProcessParams(spec.n, spec.d_l),
                               [2, 1, 2, 1, 2, 1, 2, 1], horizon=1e300, seed=2,
                               max_events=5_000)
    else:
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=2, d_l=0.05)
        run = lambda: measure_drift(spec, 10.0, seed=7, replicas=4, min_relocations=1)
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def replay(counts, sources, moves, kappa, listed):
    """The counts, and the sources, after ``moves``; ``listed`` sources hold
    the occupied sites in arrival order."""
    counts, sources = list(counts), list(sources)
    for move in moves:
        x, y = divmod(move, kappa)
        counts[x] -= 1
        counts[y] += 1
        if listed and counts[y] == 1:
            sources.append(y)
        if listed and not counts[x]:
            sources.remove(x)
    return counts, sources


def ring(sites, right):
    """The move table of a walk on a ring of ``sites``."""
    return [[((x + 1) % sites, right), ((x - 1) % sites, 1 - right)] for x in range(sites)]


# (move table, d, stop, start, list sources, event cap, runs per replica):
# a walk run ends on the cap, a hitting run on the cap or the stop level, a
# third-site run on the cap or with one site left; the walk's cap is no
# multiple of the draws' pieces, so its runs end, and start, inside a piece
RUN_CASES = {
    "limit": (ring(3, 0.7), 0.05, -1, [12, 0, 0], False, 700, 6),
    "stop": (ring(4, 0.6), 0.5, 1, [8, 8, 8, 8], False, 16, None),
    "one_site": (ring(9, 0.6), 0.3, -1, [0, 3, 3, 0, 0, 0, 0, 0, 0], True, 16, None),
}


def run_replica(kernel, case, stream):
    """Run one replica of ``case`` in kernel runs of at most the case's cap,
    checking after every run that the caller's counts and sources are the
    replay of the moves it returns, and that its clock is its last event's
    time. Returns the moves of each run and how each run ended."""
    out, _, stop, start, listed, cap, runs = case
    kappa = len(out)
    counts = np.array(start, dtype=np.int64)
    sources = [x for x in range(kappa) if counts[x]] if listed else range(kappa)
    blocks = _Blocks(_philox_key(11, stream))
    taken, ends = [], []
    while runs is None or len(taken) < runs:
        before = counts.tolist(), list(sources)
        events, clock, stopped, times, moves = kernel.run(counts, sources, blocks, cap,
                                                          record=True)
        moves = moves.tolist()
        assert (counts.tolist(), list(sources)) == replay(*before, moves, kappa, listed)
        assert events == len(moves) == len(times) and clock == times[-1]
        assert times[0] > 0 and (np.diff(times) > 0).all()
        taken.append(moves)
        if stopped:
            assert len(sources) == 1 if listed else counts[moves[-1] // kappa] <= stop
            ends.append("one_site" if listed else "stop")
            break
        assert events == cap
        ends.append("limit")
    return taken, ends


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_leaves_the_state_its_moves_lead_to(case):
    # the compiled loop updates the caller's counts, and list sources in
    # arrival order, event by event; a kernel run again over the same
    # replicas, with its scratch arrays used, takes the same events
    out, d, stop, *_ = RUN_CASES[case]
    kernel = KERNEL._Kernel(out, d, stop=stop)
    first = [run_replica(kernel, RUN_CASES[case], stream) for stream in range(4)]
    again = [run_replica(kernel, RUN_CASES[case], stream) for stream in range(4)]
    assert again == first
    ends = {end for _, run_ends in first for end in run_ends}
    assert ends == {"limit", case}


@pytest.mark.parametrize("counts, sources", [
    (np.array([3, 2, 1], dtype=np.int32), range(3)),
    (np.array([3, 2, 1], dtype=np.int64)[::-1], range(3)),
    (np.array([3, 2], dtype=np.int64), range(2)),
    (np.array([3, 2, 1], dtype=np.int64), (0, 3)),
    (np.array([3, 2, 1], dtype=np.int64), [-1, 2]),
    (np.array([3, 2, 1], dtype=np.int64), (0, 1, 2, 0)),
    (np.array([3, 2, 1], dtype=np.int64), (0, 0, 1)),
    (np.array([0, 2, 0], dtype=np.int64), (0, 2))],
    ids=["int32", "strided", "short", "past-end", "negative", "too-many", "repeated",
         "no-move"])
def test_run_refuses_what_the_compiled_loop_cannot_take(counts, sources):
    # the loop reads and writes through raw addresses: a count array of
    # another type, stride or length, a source that is not a site, and
    # repeated sources whose row outgrows the table are refused
    kernel = KERNEL._Kernel([[(1, 0.5), (2, 0.5)], [(0, 1.0)], [(0, 1.0)]], 0.1)
    with pytest.raises(OutOfRange):
        kernel.run(counts, sources, _Blocks(_philox_key(1, 0)), 8)


def pinned(key, jump, purpose):
    """The substream ``purpose`` at ``jump`` built from the documented Philox
    operations: the key's stream advanced by ``purpose * 2**192`` counter
    steps (counter word 3), then jumped ``jump`` times (word 2)."""
    return np.random.Generator(np.random.Philox(key=key).advance(purpose << 192).jumped(jump))


def test_substreams_are_pinned_to_their_counter_words():
    # exponentials are purpose 0 and uniforms purpose 1, in counter word 3;
    # the jump is word 2, and the draws advance word 0
    key = _philox_key(2**64 - 1, 12)
    assert (_EXPONENTIALS, _UNIFORMS) == (0, 1)
    for jump in (0, 1, 2, 81):
        for purpose in (_EXPONENTIALS, _UNIFORMS):
            got = _substream(key, jump, purpose)
            assert got.bit_generator.state["state"]["counter"].tolist() == [0, 0, jump, purpose]
            want = pinned(key, jump, purpose)
            assert got.exponential(1.0, 9).tolist() == want.exponential(1.0, 9).tolist()
            assert got.random(9).tolist() == want.random(9).tolist()
            assert got.bit_generator.state["state"]["counter"][1:].tolist() == [0, jump, purpose]


@pytest.mark.parametrize("jump", [0, 5])
def test_blocks_follow_the_substreams(jump):
    # drawn as the reference kernel draws, one exponential then one uniform:
    # each kind is its own substream, read in order
    key = _philox_key(4, 1)
    blocks = _Blocks(key, jump)
    n = 2 * _SLICE + 700
    exps, unis = [], []
    for _ in range(n):
        exps.append(draw(blocks, "exponential"))
        unis.append(draw(blocks, "uniform"))
    assert exps == pinned(key, jump, _EXPONENTIALS).exponential(1.0, n).tolist()
    assert unis == pinned(key, jump, _UNIFORMS).random(n).tolist()
    assert all(type(v) is float for v in exps[:3] + unis[:3])


@pytest.mark.parametrize("piece", [1, 7, 1024])
def test_a_substream_drawn_in_pieces_gives_one_draw(piece):
    # numpy's exponential sampler takes a varying number of raw draws per
    # value; cut anywhere, a substream still gives the values of one draw
    key = _philox_key(3, 9)
    n = 3 * _SLICE + 5
    for purpose, draw in ((_EXPONENTIALS, lambda g, m: g.exponential(1.0, m)),
                          (_UNIFORMS, lambda g, m: g.random(m))):
        whole = draw(_substream(key, 2, purpose), n)
        rng = _substream(key, 2, purpose)
        cut = np.concatenate([draw(rng, min(piece, n - i)) for i in range(0, n, piece)])
        assert cut.tolist() == whole.tolist()


def take_slices(blocks, kind, n):
    """``n`` draws of one kind, read a piece at a time as the kernel reads."""
    out = []
    while len(out) < n:
        if kind == "e":
            got = blocks.exponentials(n - len(out)).tolist()
            blocks.use(0, len(got))
        else:
            got = blocks.uniforms(n - len(out)).tolist()
            blocks.use(len(got), 0)
        out += got
    return out


@pytest.mark.parametrize("pattern", ["kernel", "uniforms_lead", "uniforms_only"])
def test_blocks_in_slices_follow_the_substreams(pattern):
    # the kernel takes a slice of exponentials, then the uniforms of its
    # events; a third-site stretch takes one uniform more per hop; the
    # auxiliary chain takes uniforms only. However the kinds interleave,
    # each reads its own substream in order, across many pieces
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 3 * _SLICE, 60).tolist()
    ops = []
    for m in sizes:
        if pattern == "uniforms_lead":
            ops.append(("u", 1 + m % 3))
        if pattern != "uniforms_only":
            ops.append(("e", m))
        ops.append(("u", m))
    key = _philox_key(6, 2)
    blocks = _Blocks(key)
    got = {"e": [], "u": []}
    for kind, m in ops:
        got[kind] += take_slices(blocks, kind, m)
    assert got["e"] == pinned(key, 0, _EXPONENTIALS).exponential(1.0, len(got["e"])).tolist()
    assert got["u"] == pinned(key, 0, _UNIFORMS).random(len(got["u"])).tolist()
    assert len(got["u"]) > 30 * _SLICE
    assert (blocks._exp_rng is None) == (pattern == "uniforms_only")


def test_uniforms_drawn_a_piece_at_a_time():
    # the first uniform draws one piece of the uniform substream and builds
    # no exponential substream
    key = _philox_key(8, 0)
    blocks = _Blocks(key)
    first = draw(blocks, "uniform")
    rng = pinned(key, 0, _UNIFORMS)
    piece = rng.random(_SLICE)
    assert first == piece[0]
    assert blocks.uniforms(_SLICE).tolist() == piece[1:].tolist()
    assert blocks._exp_rng is None
    # and has drawn nothing more from the substream
    assert blocks._uni_rng.random(4).tolist() == rng.random(4).tolist()


class ZeroedExponentials:
    """An exponential substream whose draws are 0.0 at the given positions,
    so the event there lasts 0.0 and does not move the clock."""

    def __init__(self, rng, zero_at):
        self.rng, self.zero_at, self.drawn = rng, np.asarray(zero_at), 0

    def exponential(self, scale, size):
        out = self.rng.exponential(scale, size)
        at = self.zero_at[(self.zero_at >= self.drawn) & (self.zero_at < self.drawn + size)]
        out[at - self.drawn] = 0.0
        self.drawn += size
        return out


def zeroed(monkeypatch, zero_at):
    """Plant zero draws at ``zero_at`` in every exponential substream, which
    the references read through ``_Blocks`` too."""
    real = _substream
    monkeypatch.setattr(KERNEL, "_substream", lambda key, jump, purpose: (
        ZeroedExponentials(real(key, jump, purpose), zero_at)
        if purpose == _EXPONENTIALS else real(key, jump, purpose)))


@pytest.mark.parametrize("walk", ["cycle3", "chain4"])
def test_simulate_clamp_matches_reference(walk, request, monkeypatch):
    # a step that does not move the clock advances it by one ulp: planted
    # inside the first piece of draws, on both sides of its end, and at the
    # first event of the third piece; a run reads the pieces in turn
    spec = request.getfixturevalue(walk)
    params = ProcessParams(30, 0.2)
    eta0 = [0] * spec.kappa
    eta0[0] = 30
    events = 3 * _SLICE + 300
    zero_at = [300, _SLICE - 1, _SLICE, 2 * _SLICE]
    zeroed(monkeypatch, zero_at)

    def check(horizon, max_events):
        traj = simulate(spec, params, eta0, horizon, seed=3, max_events=max_events)
        times, efrom, eto = ref_simulate(spec, params, eta0, horizon, seed=3,
                                         max_events=max_events)
        assert traj.times.tolist() == times
        assert traj.move_from.tolist() == efrom
        assert traj.move_to.tolist() == eto
        for k in zero_at:
            assert times[k] == math.nextafter(times[k - 1], math.inf)
        assert (np.diff(traj.times) > 0).all()
        return traj

    full = check(1e300, events)
    assert full.n_events == events
    # a horizon cut in the piece after the last clamp
    assert check(float(full.times[events - 100]), None).n_events == events - 99


@pytest.mark.parametrize("walk", ["cycle3", "chain4"])
def test_mc_hitting_clamp_matches_reference(walk, request, monkeypatch):
    # a zero holding time moves a hitting run's clock by one ulp, as in simulate
    spec = request.getfixturevalue(walk)
    params = ProcessParams(24, 0.7)
    start = [0] * spec.kappa
    for i in range(24):
        start[i % spec.kappa] += 1
    task = HittingTask(chain="inclusion", start=tuple(start), replicas=6, seed=9,
                       threshold=2.0)
    zeroed(monkeypatch, list(range(1, 4 * _SLICE, 3)))
    res = mc_hitting(task, spec, params)
    expected = [ref_hit(task, spec, params, i) for i in range(task.replicas)]
    assert not res.censored.any()
    assert res.values.tolist() == [v for v, _ in expected]


def ref_stretch(third, counts, occupied, blocks):
    """(clock, events, site) of a third-site stretch run event by event from
    ``counts`` until one site, of the ``occupied`` sites in arrival order, is
    left."""
    clock, events = 0.0, 0
    while len(occupied) > 1:
        moves = [(x, y, w) for x in occupied for y, w in third.out[x]]
        dt, x, y = ref_step(counts, moves, third.spec.d_l, blocks)
        clock, events = tick(clock, dt), events + 1
        counts[x] -= 1
        counts[y] += 1
        if counts[y] == 1:
            occupied.append(y)
        if not counts[x]:
            occupied.remove(x)
    return clock, events, occupied[0]


def test_third_site_stretch_clamp_matches_reference(monkeypatch):
    # stretches from the state after their hop, with zero holding times
    # planted, one at the first event, where the clock moves to 5e-324
    spec = build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5)
    zeroed(monkeypatch, [0, 5, 6, 100])
    third, starts = THERMO._ThirdSite(spec), []
    run = third.kernel.run

    def spy(counts, sources, *args):
        starts.append((counts.tolist(), list(sources)))
        return run(counts, sources, *args)

    monkeypatch.setattr(third.kernel, "run", spy)
    lengths = []
    for seed in range(6):
        t, taken, _ = third.finish(spec.n // 2, 0.3, _Blocks(_philox_key(seed, 0), 2), "")
        want = ref_stretch(third, *starts[-1], _Blocks(_philox_key(seed, 0), 2))
        assert (t, taken, third.occupied) == (want[0], want[1], [want[2]])
        lengths.append(taken)
    assert max(lengths) > 100


def test_stretch_cap_stops_at_exactly_that_many_events(monkeypatch):
    # a cap one event short of a stretch stops it there, inside a piece of
    # draws, and a cap of its length lets it gather
    spec = build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5)
    third = THERMO._ThirdSite(spec)

    def finish():
        return third.finish(spec.n // 2, 0.3, _Blocks(_philox_key(4, 0), 2), "chunk 0")

    t, taken, _ = finish()
    assert 16 < taken < _SLICE
    monkeypatch.setattr(THERMO, "_STRETCH_EVENTS", taken - 1)
    with pytest.raises(BudgetExceeded, match=f"chunk 0: an excursion took {taken - 1} events"):
        finish()
    monkeypatch.setattr(THERMO, "_STRETCH_EVENTS", taken)
    assert finish()[:2] == (t, taken)


def test_step_cap_stops_at_exactly_that_many_events():
    # the auxiliary chain's value is its step count: a replica the cap cuts
    # took exactly step_cap steps, and the others keep their uncapped values
    walk, params = WalkSpec.cycle(3, 0.7), ProcessParams(300, 1e-6)
    task = HittingTask(chain="auxiliary", start=(100, 100, 100), replicas=12, seed=12,
                       r_set=(0, 1, 2), eps=0.1)
    free = mc_hitting(task, walk, params)
    cap = 6 * _SLICE + 300
    capped = mc_hitting(dataclasses.replace(task, step_cap=cap), walk, params)
    assert 0 < capped.n_censored < task.replicas
    assert capped.censored.tolist() == (free.values > cap).tolist()
    assert capped.values.tolist() == np.minimum(free.values, cap).tolist()


# SHA-256 of the event streams below, recorded when each kind of draw
# moved to a purpose substream of its own; they are checked without the
# in-repo references, so a change in the draws shows even if a reference
# changes too
DIGESTS = {
    "cycle": (40_000, "eb4761378697a619e2cbbe1cb2a4891b92717ed74c0e385b22d360b53eb7e4e3"),
    "walk4": (3_535, "a344fc52f8bf1e15a68bd868d6e114a1f545350a56e6ba739bccc18f3552e71a"),
    "inclusion": "86da8ca10ff462824c07bc0d609496f6b8d939e4f0bec74b4fa009b615f70fe9",
    "auxiliary": "17ef7332ca4af66eb22d25886fd57560b5e4020470dd33fe98da39c0b7541010",
    # its one chunk's third-site stretches draw 45 pieces of each kind
    "condensate": (47_800, "60fefb4f6c2f39ce9058736e8634579bc4cfda2d48366a28ac41e2412c53175e"),
}


def sha256(*arrays):
    h = hashlib.sha256()
    for a, dtype in arrays:
        h.update(np.asarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def test_events_match_recorded_digests():
    got = {}
    walk4 = WalkSpec.from_matrix([[0.0, 1.0, 0.2, 0.5], [0.3, 0.0, 1.5, 0.0],
                                  [0.0, 0.4, 0.0, 1.0], [0.9, 0.0, 0.6, 0.0]])
    for name, args, kw in (
            ("cycle", (WalkSpec.cycle(3, 0.7), ProcessParams(100, 1e-5), (100, 0, 0)),
             dict(horizon=1e300, seed=4101, max_events=40_000)),
            ("walk4", (walk4, ProcessParams(7, 0.3), (3, 0, 4, 0)),
             dict(horizon=300.0, seed=7, stream=3))):
        traj = simulate(*args, **kw)
        got[name] = (traj.n_events, sha256((traj.times, "<f8"), (traj.move_from, "<i4"),
                                           (traj.move_to, "<i4")))
    allones = WalkSpec.from_matrix(np.ones((3, 3)) - np.eye(3))
    for name, task, walk, params in (
            ("inclusion", HittingTask(chain="inclusion", start=(14, 13, 13), replicas=8,
                                      seed=11, threshold=math.log(40)),
             allones, ProcessParams(40, 40.0 ** -3)),
            ("auxiliary", HittingTask(chain="auxiliary", start=(100, 100, 100), replicas=6,
                                      seed=12, r_set=(0, 1, 2), eps=0.1),
             WalkSpec.cycle(3, 0.7), ProcessParams(300, 1e-6))):
        res = mc_hitting(task, walk, params)
        got[name] = sha256((res.values, "<f8"), (res.censored, "u1"))
    run = run_condensate(build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5), 60.0,
                         seed=4)
    got["condensate"] = (run.events, sha256(
        ([run.relocations, run.events], "<i8"), (run.displacement, "<f8"),
        ([run.trace_time, run.off_time], "<f8"), (run.positions, "<f8")))
    assert got == DIGESTS


def ref_trace_project(traj, a_set):
    """The event-by-event replay ``trace_project`` replaced."""
    a_set = tuple(sorted(set(a_set)))
    counts = list(traj.initial)
    n = sum(counts)
    in_a = [x in a_set for x in range(len(counts))]

    def metastable_site():
        for x in a_set:
            if counts[x] == n:
                return x
        return None

    labels, sojourns, ends = [], [], []
    cur_label = seg_label = metastable_site()
    seg_time = trace_time = off_time = 0.0
    t_prev = 0.0

    def advance(until):
        nonlocal trace_time, off_time, seg_time, t_prev
        dt = until - t_prev
        if dt < 0:
            dt = 0.0
        if cur_label is not None:
            trace_time += dt
            seg_time += dt
        else:
            off_time += dt
        t_prev = until

    for t, x, y in zip(traj.times, traj.move_from, traj.move_to):
        advance(float(t))
        counts[x] -= 1
        counts[y] += 1
        new_label = y if (counts[y] == n and in_a[y]) else None
        if new_label is not None and new_label != seg_label:
            if seg_label is not None:
                labels.append(seg_label)
                sojourns.append(seg_time)
                ends.append(trace_time)
            seg_label = new_label
            seg_time = 0.0
        cur_label = new_label
    advance(traj.horizon)
    if seg_label is not None:
        labels.append(seg_label)
        sojourns.append(seg_time)
        ends.append(trace_time)
    return dict(labels=np.asarray(labels, dtype=np.int64),
                sojourns=np.asarray(sojourns, dtype=float),
                ends=np.asarray(ends, dtype=float),
                trace_time=trace_time, off_time=off_time)


def assert_same_trace(traj, a_set, theta=1.0):
    path = trace_project(traj, a_set, theta)
    ref = ref_trace_project(traj, a_set)
    for name, want in ref.items():
        got = getattr(path, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
        else:
            assert type(got) is type(want), name
            assert got == want, name
    return path


@pytest.mark.parametrize("walk", WALKS)
def test_trace_project_matches_reference(walk, request):
    spec = request.getfixturevalue(walk)
    k = spec.kappa
    params = ProcessParams(3, 0.3)
    spread = [1] * 3 + [0] * (k - 3) if k >= 3 else [2, 1]
    visits = 0
    for stream, eta0 in enumerate(([3] + [0] * (k - 1), spread)):
        for horizon, max_events in ((150.0, None), (1e300, 1_500)):
            traj = simulate(spec, params, eta0, horizon, seed=21, stream=stream,
                            max_events=max_events)
            for a_set in (range(k), (k - 1,), (0, k - 1)):
                visits += len(assert_same_trace(traj, a_set).labels)
    assert visits > 20


def long_path(seed):
    """The 300,000-event 3-cycle path of the ``long_path`` benchmark workload
    at ``seed`` (its first round), and the theta it is projected with."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    work = workloads.make("long_path", seed)
    (op,) = [op for op in work.operations() if op.name == "simulate_cycle"]
    return op.run(SimpleNamespace(call=lambda name, f, *a, count=None, **kw: f(*a, **kw)),
                  0), work.theta


@pytest.mark.parametrize("seed", [4101, 7919])
def test_trace_project_matches_reference_on_the_long_path(seed):
    traj, theta = long_path(seed)
    assert traj.n_events == 300_000
    path = assert_same_trace(traj, (0, 1, 2), theta)
    assert len(path.labels) > 100
    assert_same_trace(traj, (0,))


@pytest.mark.parametrize("seed, horizon, max_events", [(0, 20.0, None), (1, 1e300, 5_000)])
def test_trace_project_matches_reference_on_the_64_site_torus(seed, horizon, max_events):
    # a condensate that relocates tens of times in 20 theta
    spec = build_torus(2, 8, {(1, 0): 1.0, (-1, 0): 0.6, (0, 1): 0.8, (0, -1): 0.8},
                       rho=0.5, d_l=5e-3)
    walk, params = torus_walk(spec), ProcessParams(spec.n, spec.d_l)
    assert walk.kappa == 64
    eta0 = [0] * 64
    eta0[seed] = spec.n
    traj = simulate(walk, params, eta0, horizon=horizon * spec.theta, seed=seed,
                    max_events=max_events)
    labels = 0
    for a_set in (range(64), range(0, 64, 3)):
        labels += len(assert_same_trace(traj, a_set).labels)
    assert labels > 20


@pytest.mark.parametrize("layout", ["int64-moves", "uint8-moves", "strided-times"])
def test_trace_project_reads_a_path_stored_in_another_layout(layout, up3):
    # the replay reads the path as simulate stores it (contiguous float64
    # times, int32 moves) in place and converts any other layout first
    traj = simulate(up3, ProcessParams(3, 0.3), (1, 1, 1), 150.0, seed=5)
    if layout == "strided-times":
        spread = np.repeat(traj.times, 2)[::2]
        assert not spread.flags.c_contiguous
        other = dataclasses.replace(traj, times=spread)
    else:
        dtype = np.int64 if layout == "int64-moves" else np.uint8
        other = dataclasses.replace(traj, move_from=traj.move_from.astype(dtype),
                                    move_to=traj.move_to.astype(dtype))
    want = trace_project(traj, (0, 2), 1.0)
    got = trace_project(other, (0, 2), 1.0)
    assert len(want.labels) > 5
    for field in dataclasses.fields(want):
        a, b = getattr(want, field.name), getattr(got, field.name)
        if isinstance(a, np.ndarray):
            a, b = (a.dtype, a.tolist()), (b.dtype, b.tolist())
        assert a == b, field.name


def test_trace_project_empty_and_underflowing_paths():
    none = np.zeros(0)
    for eta0 in ((2, 0), (1, 1)):
        empty = Trajectory(initial=eta0, times=none, move_from=none.astype(np.int32),
                           move_to=none.astype(np.int32), horizon=5.0, seed=0, stream=0)
        for a_set in ((0,), (0, 1)):
            assert_same_trace(empty, a_set)
    # simulate bumps an event that would not advance the clock by one ulp
    times = [1.0]
    for _ in range(7):
        times.append(math.nextafter(times[-1], math.inf))
    times += [2.0, 2.0]        # and two events at one time, dt == 0
    move_from = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int32)
    bumped = Trajectory(initial=(1, 0), times=np.asarray(times), move_from=move_from,
                        move_to=1 - move_from, horizon=3.0, seed=0, stream=0)
    for a_set in ((0,), (1,), (0, 1)):
        assert_same_trace(bumped, a_set)
