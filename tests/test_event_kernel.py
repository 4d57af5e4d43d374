"""Differential tests: every simulator against one small scalar reference.

The reference restates the direct method from the rate definition. At each
step it lists every candidate move ``(x, y, coef)`` in a fixed order, weighs
it, and walks the running sum until it reaches the uniform draw, never
stopping on a zero-weight move. Walks list all site pairs x-major; the
auxiliary chain weighs by the target count, ``c_y (d + c_x) r(y, x)``; the
torus lists the moves of occupied sites in the order the sites became
occupied. Draws come from the package's Philox block streams, so the
simulators must reproduce the reference event for event.
"""

import math

import numpy as np
import pytest

from incproc import (BudgetExceeded, HittingTask, ProcessParams, build_torus,
                     condensate_statistics, mc_hitting, run_condensate,
                     simulate, torus_walk)
from incproc.simulate import _Blocks, replica_rng

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
    dt = 1.0 if by_target else blocks.exponential() / total
    u = blocks.uniform() * total
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


def ref_simulate(spec, params, eta0, horizon, seed, stream=0, max_events=None):
    counts = list(eta0)
    moves = walk_moves(spec)
    blocks = _Blocks(replica_rng(seed, stream))
    times, efrom, eto = [], [], []
    t = 0.0
    while max_events is None or len(times) < max_events:
        dt, x, y = ref_step(counts, moves, params.d, blocks)
        t_next = t + dt
        if t_next <= t:
            t_next = math.nextafter(t, math.inf)
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
    blocks = _Blocks(replica_rng(task.seed, replica))
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
        clock += dt
        if counts[x] <= stop:
            return clock, False
    return clock, True


class RefCondensate:
    """Condensate following: occupancy in insertion order, relocations,
    unwrapped displacement, and positions at trace-clock checkpoints."""

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

    def move(self, x, y):
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
    blocks = _Blocks(replica_rng(seed, stream))
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


@pytest.mark.parametrize("torus", sorted(TORI))
def test_run_condensate_matches_reference(torus):
    spec = TORI[torus]()
    for stream, start_site in ((0, 0), (3, spec.n_sites - 1)):
        run = run_condensate(spec, 1.0, seed=13, stream=stream,
                             start_site=start_site)
        ref = ref_run_condensate(spec, 1.0, seed=13, stream=stream,
                                 start_site=start_site)
        assert ref.relocations > 0
        assert run.relocations == ref.relocations
        assert run.displacement.tolist() == ref.disp
        assert run.trace_time == ref.trace
        assert run.off_time == ref.off
        assert run.positions.tolist() == ref.positions


@pytest.mark.parametrize("torus", sorted(TORI))
def test_condensate_statistics_matches_reference(torus):
    spec = TORI[torus]()
    eta0 = [0] * spec.n_sites
    eta0[1] = spec.n
    traj = simulate(torus_walk(spec), ProcessParams(spec.n, spec.d_l), eta0,
                    horizon=0.4 * spec.theta, seed=17)
    ref = RefCondensate(spec, eta0, [traj.horizon])
    t_prev = 0.0
    for t, x, y in zip(traj.times.tolist(), traj.move_from.tolist(),
                       traj.move_to.tolist()):
        ref.dwell(t - t_prev)
        t_prev = t
        ref.move(x, y)
    ref.dwell(traj.horizon - t_prev)
    stats = condensate_statistics(traj, spec, min_relocations=1, n_windows=1)
    t_resc = ref.trace / spec.theta
    assert stats.relocations == ref.relocations
    assert stats.trace_time_rescaled == t_resc
    assert stats.off_fraction == ref.off / (ref.trace + ref.off)
    assert stats.drift.tolist() == (np.asarray(ref.disp) / spec.side / t_resc).tolist()
