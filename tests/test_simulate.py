import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from scipy import stats

from incproc import (BudgetExceeded, Configuration, DegenerateData,
                     HittingTask, OutOfRange, ProcessParams, Trajectory, WalkSpec,
                     WindowExceedsTrajectory, build_torus, mc_hitting, mc_mean_jump_rate,
                     mean_jump_rate_exact, measure_diffusion, measure_drift,
                     replica_rng, run_condensate, scaling_fit, simulate,
                     stationary_exact, trace_project)
from incproc.simulate import CEMETERY, _Blocks
from reference import local_kinetics

SIMULATE = sys.modules["incproc.simulate"]


class TestSimulate:
    def test_seed_determinism(self, two_sym):
        params = ProcessParams(3, 0.2)
        eta0 = Configuration.single_site(2, 3, 0)
        a = simulate(two_sym, params, eta0, 50.0, seed=4)
        b = simulate(two_sym, params, eta0, 50.0, seed=4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.move_from, b.move_from)
        assert np.array_equal(a.move_to, b.move_to)
        c = simulate(two_sym, params, eta0, 50.0, seed=4, stream=1)
        assert not np.array_equal(a.times, c.times)

    def test_particle_conservation(self, up3):
        params = ProcessParams(6, 0.3)
        traj = simulate(up3, params, (2, 2, 2), 20.0, seed=11)
        counts = list(traj.initial)
        for x, y in zip(traj.move_from, traj.move_to):
            counts[x] -= 1
            counts[y] += 1
            assert min(counts) >= 0
        assert sum(counts) == 6
        assert sum(traj.final_state()) == 6

    def test_times_strictly_increasing(self, up3):
        traj = simulate(up3, ProcessParams(6, 0.3), (2, 2, 2), 20.0, seed=11)
        assert np.all(np.diff(traj.times) > 0)

    def test_mean_holding_at_metastable_state(self, two_sym):
        # escape rate N d lambda = 0.05, mean dwell 20
        params = ProcessParams(5, 0.01)
        eta0 = Configuration.single_site(2, 5, 0)
        dwells = []
        for r in range(400):
            traj = simulate(two_sym, params, eta0, 1e6, seed=21, stream=r,
                            max_events=1)
            dwells.append(traj.times[0])
        mean = np.mean(dwells)
        sigma = 20.0 / math.sqrt(len(dwells))
        assert abs(mean - 20.0) <= 3 * sigma

    def test_occupation_matches_stationary(self, up3):
        # ergodic average vs exact solve, total variation within 0.02
        params = ProcessParams(6, 0.2)
        mu = stationary_exact(up3, params)
        traj = simulate(up3, params, (2, 2, 2), horizon=1e9, seed=3,
                        max_events=1_000_000)
        # the state before each event is the initial state plus the moves
        # before it; each holds until its event
        rows = np.arange(traj.n_events)
        steps = np.zeros((traj.n_events, up3.kappa), dtype=np.int64)
        steps[rows, traj.move_to] = 1
        steps[rows, traj.move_from] = -1
        before = np.asarray(traj.initial) + np.cumsum(steps, axis=0) - steps
        occupation = np.bincount(mu.enum.rank_many(before),
                                 weights=np.diff(traj.times, prepend=0.0),
                                 minlength=mu.enum.size)
        occupation /= occupation.sum()
        tv = 0.5 * np.abs(occupation - mu.weights).sum()
        assert tv <= 0.02

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_horizon(self, cycle3, horizon):
        with pytest.raises(OutOfRange):
            simulate(cycle3, ProcessParams(5, 0.1), (0, 5, 0), horizon, seed=1,
                     max_events=10)

    @pytest.mark.parametrize("eta0", [(-1, 6, 0), (0, 2.5, 2.5), 5, None])
    def test_rejects_bad_counts(self, cycle3, eta0):
        # 5 and None raised a bare TypeError
        with pytest.raises(OutOfRange):
            simulate(cycle3, ProcessParams(5, 0.1), eta0, 1.0, seed=1,
                     max_events=10)

    @pytest.mark.parametrize("max_events", [-1, 2.5])
    def test_rejects_bad_max_events(self, cycle3, max_events):
        with pytest.raises(OutOfRange):
            simulate(cycle3, ProcessParams(5, 0.1), (0, 5, 0), 1.0, seed=1,
                     max_events=max_events)

    def test_a_state_with_no_move_of_positive_weight_is_refused(self, cycle3):
        # both raised a bare IndexError: an auxiliary chain on one site has
        # no move, and rates of 1e-300 with d = 1e-300 weigh 0.0
        task = HittingTask(chain="auxiliary", start=(30, 0, 0), replicas=2, seed=1,
                           r_set=(0,), eps=0.1)
        with pytest.raises(OutOfRange, match="no move of positive weight"):
            mc_hitting(task, cycle3, ProcessParams(30, 0.01))
        tiny = WalkSpec.from_matrix([[0, 1e-300, 0], [0, 0, 1e-300], [1e-300, 0, 0]])
        with pytest.raises(OutOfRange, match="no move of positive weight"):
            simulate(tiny, ProcessParams(1, 1e-300), (1, 0, 0), 10.0, seed=1)

    def test_zero_draw_never_picks_zero_rate_move(self, cycle3, monkeypatch):
        # Generator.random() can return exactly 0.0; site 0 is empty, so its
        # moves have rate 0 and must not be picked. The kernel reads its
        # uniforms a piece at a time; every one it is handed here is 0.0
        handed = []

        def zeros(self, n):
            handed.append(n)
            return np.zeros(n)

        monkeypatch.setattr(_Blocks, "uniforms", zeros)
        traj = simulate(cycle3, ProcessParams(5, 0.1), (0, 5, 0), 10.0,
                        seed=1, max_events=1)
        assert traj.move_from.tolist() == [1]
        assert min(traj.final_state()) >= 0
        # the kernel skips empty sites, so only a weight that underflows is
        # zero: 0 -> 1 weighs 1 * (1e-200 + 0) * 1e-200 == 0.0 and leads
        tiny = WalkSpec.from_matrix([[0.0, 1e-200, 1.0],
                                     [1.0, 0.0, 1.0],
                                     [1.0, 1.0, 0.0]])
        traj = simulate(tiny, ProcessParams(1, 1e-200), (1, 0, 0), 1e300,
                        seed=1, max_events=1)
        assert (traj.move_from.tolist(), traj.move_to.tolist()) == ([0], [2])
        assert handed == [1, 1]      # both picks drew from the patched source

    def test_jump_chain_frequencies_chi_square(self, up3):
        # empirical move frequencies per state vs the jump kernel
        params = ProcessParams(3, 0.5)
        traj = simulate(up3, params, (1, 1, 1), horizon=1e9, seed=17,
                        max_events=200_000)
        counts = {}
        state = list(traj.initial)
        for x, y in zip(traj.move_from, traj.move_to):
            key = (tuple(state), int(x), int(y))
            counts[key] = counts.get(key, 0) + 1
            state[x] -= 1
            state[y] += 1
        states = sorted({k[0] for k in counts})
        chi2 = 0.0
        dof = 0
        for s in states:
            kin = local_kinetics(up3, params, s)
            n_s = sum(counts.get((s, x, y), 0) for x, y, _ in kin.probs)
            if n_s < 50:
                continue
            for x, y, p in kin.probs:
                expected = n_s * p
                observed = counts.get((s, x, y), 0)
                chi2 += (observed - expected) ** 2 / expected
            dof += len(kin.probs) - 1
        threshold = stats.chi2.ppf(0.999, dof)
        assert chi2 <= threshold


def _loop_final_state(traj):
    counts = list(traj.initial)
    for x, y in zip(traj.move_from, traj.move_to):
        counts[x] -= 1
        counts[y] += 1
    return tuple(counts)


def _loop_transition_counts(path, kappa):
    counts = np.zeros((kappa, kappa), dtype=np.int64)
    for a, b in zip(path.labels[:-1], path.labels[1:]):
        counts[a, b] += 1
    return counts


def _loop_time_at(path, kappa):
    out = np.zeros(kappa)
    for lab, s in zip(path.labels, path.sojourns):
        out[lab] += s
    return out


class TestPathTallies:
    """Final states and trace tallies against the per-event loops they replace."""

    @pytest.mark.parametrize("name,n,d,horizon", [("up3", 6, 0.2, 500.0),
                                                  ("cycle3", 8, 0.05, 800.0),
                                                  ("chain4", 5, 0.1, 400.0),
                                                  ("two_sym", 4, 0.5, 1.0)])
    def test_match_loops(self, request, name, n, d, horizon):
        walk = request.getfixturevalue(name)
        traj = simulate(walk, ProcessParams(n, d), Configuration.single_site(walk.kappa, n, 0),
                        horizon, seed=17)
        final = traj.final_state()
        assert final == _loop_final_state(traj)
        assert all(type(v) is int for v in final)
        for a_set in (range(walk.kappa), (0,), (0, walk.kappa - 1)):
            path = trace_project(traj, a_set, theta=1.0)
            counts = path.transition_counts(walk.kappa)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _loop_transition_counts(path, walk.kappa))
            assert np.array_equal(path.time_at(walk.kappa), _loop_time_at(path, walk.kappa))

    def test_time_at_sums_in_path_order(self, up3):
        # sojourns over 16 decades, where the summation order shows in the last bits
        path = trace_project(simulate(up3, ProcessParams(6, 0.2), (6, 0, 0), 50.0, seed=3),
                             (0, 1, 2), theta=1.0)
        rng = np.random.Generator(np.random.Philox(key=(5, 0)))
        labels = rng.integers(0, 3, size=50_000)
        sojourns = rng.exponential(size=50_000) * 10.0 ** rng.integers(-8, 8, size=50_000)
        path = dataclasses.replace(path, labels=labels, sojourns=sojourns)
        assert np.array_equal(path.time_at(3), _loop_time_at(path, 3))
        assert np.array_equal(path.transition_counts(3), _loop_transition_counts(path, 3))


class TestTraceProject:
    @pytest.mark.parametrize("site", [-1, 5])
    def test_rejects_moves_off_the_sites(self, site):
        def path(to):
            return Trajectory(initial=(2, 0), times=np.array([1.0]),
                              move_from=np.array([0], dtype=np.int32),
                              move_to=np.array([to], dtype=np.int32),
                              horizon=2.0, seed=0, stream=0)
        with pytest.raises(OutOfRange):
            path(site)
        # a move changed in place after the checks is refused by the replay
        traj = path(1)
        traj.move_to[0] = site
        with pytest.raises(OutOfRange):
            trace_project(traj, (0, 1), 1.0)

    @pytest.mark.parametrize("times, move_from", [
        ([2.0, 1.0], [0, 1]), ([math.nan, 2.0], [0, 1]), ([1.0, math.inf], [0, 1]),
        ([-1.0, 1.0], [0, 1]), ([1.0, 3.5], [0, 1]), ([1.0, 2.0], [0, 0])],
        ids=["decreasing", "nan", "inf", "negative", "past-horizon", "empty-source"])
    def test_replay_refuses_impossible_times_and_counts(self, times, move_from):
        # a hand-made path on horizon 3.0 whose intervals would be negative
        # or nan, or whose move leaves an empty site: [2.0, 1.0] replayed to
        # a trace time of 4.0
        move_from = np.asarray(move_from, dtype=np.int32)
        traj = Trajectory(initial=(1, 0), times=np.asarray(times), move_from=move_from,
                          move_to=1 - move_from, horizon=3.0, seed=0, stream=0)
        with pytest.raises(OutOfRange):
            trace_project(traj, (0, 1), 1.0)

    @pytest.mark.parametrize("times, moves", [
        ([1.0], [[0, 1], [1, 0]]), ([1.0, 2.0, 3.0], [[0, 1], [1, 0]]),
        ([[1.0, 2.0]], [[0, 1], [1, 0]]), ([1.0, 2.0], [[[0, 1]], [[1, 0]]]),
        (1.0, [0, 1]), ([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])],
        ids=["times-short", "times-long", "times-2d", "moves-2d", "times-scalar",
             "moves-float"])
    def test_refuses_a_path_of_mismatched_shape(self, times, moves):
        # every consumer of a stored path, the compiled replay too, reads
        # one time and one move per event
        with pytest.raises(OutOfRange):
            Trajectory(initial=(1, 1), times=np.asarray(times),
                       move_from=np.asarray(moves[0]), move_to=np.asarray(moves[1]),
                       horizon=4.0, seed=0, stream=0)

    @pytest.mark.parametrize("kwargs", [
        dict(theta=math.nan), dict(theta=0), dict(theta=-1.0),
        dict(theta=1.0, window=math.nan),
        dict(theta=1.0, marginal_times="ab"), dict(theta=1.0, marginal_times=[math.nan]),
        dict(theta=1.0, marginal_times=[-1])],
        ids=["theta-nan", "theta-0", "theta-negative", "window-nan", "marginal-str",
             "marginal-nan", "marginal-negative"])
    def test_refuses_a_bad_time_argument(self, up3, kwargs):
        traj = simulate(up3, ProcessParams(4, 0.2), (4, 0, 0), 20.0, seed=9)
        with pytest.raises(OutOfRange):
            trace_project(traj, (0, 1, 2), **kwargs)

    def test_time_change_identity(self, up3):
        params = ProcessParams(6, 0.2)
        traj = simulate(up3, params, (6, 0, 0), 500.0, seed=9)
        path = trace_project(traj, (0, 1, 2), theta=1.0)
        assert path.trace_time + path.off_time == pytest.approx(
            traj.horizon, abs=1e-9 * traj.horizon)

    def test_replay_determinism(self, up3):
        params = ProcessParams(6, 0.2)
        traj = simulate(up3, params, (6, 0, 0), 200.0, seed=9)
        p1 = trace_project(traj, (0, 1, 2), theta=1.0)
        p2 = trace_project(traj, (0, 1, 2), theta=1.0)
        assert np.array_equal(p1.labels, p2.labels)
        assert np.array_equal(p1.sojourns, p2.sojourns)

    def test_no_excursion_trajectory(self, two_sym):
        # a horizon too short for any event: the path never leaves the state
        params = ProcessParams(5, 1e-8)
        traj = simulate(two_sym, params, Configuration.single_site(2, 5, 0),
                        horizon=1.0, seed=1)
        path = trace_project(traj, (0, 1), theta=1.0)
        assert path.off_time == 0.0
        assert list(path.labels) == [0]

    def test_revisits_merge(self, two_sym):
        params = ProcessParams(2, 0.5)
        traj = simulate(two_sym, params, (2, 0), 300.0, seed=5)
        path = trace_project(traj, (0, 1), theta=1.0)
        assert all(a != b for a, b in zip(path.labels[:-1], path.labels[1:]))

    def test_occupation_window_vs_mass(self, two_sym):
        # time fraction off the metastable pair matches the stationary mass
        params = ProcessParams(2, 0.1)
        mu = stationary_exact(two_sym, params)
        delta_mass = 1.0 - (mu.xi_mass(0) + mu.xi_mass(1))
        traj = simulate(two_sym, params, (2, 0), 20_000.0, seed=23)
        theta = 1.0 / params.d
        window = traj.horizon / theta
        path = trace_project(traj, (0, 1), theta=theta, window=window)
        measured = path.off_occupation / window
        sigma = delta_mass / math.sqrt(traj.horizon * params.d)  # crude scale
        assert abs(measured - delta_mass) <= max(3 * sigma, 0.25 * delta_mass)

    def test_window_exceeds(self, two_sym):
        traj = simulate(two_sym, ProcessParams(2, 0.1), (2, 0), 10.0, seed=2)
        with pytest.raises(WindowExceedsTrajectory):
            trace_project(traj, (0, 1), theta=100.0, window=1.0)

    @pytest.mark.parametrize("a_set", [(), (0, 2), (-1, 0), (1.5,), (0.9, 1), range(0),
                                       range(-1, 1), range(3), np.array([0, 2]),
                                       np.array([1, -1]), np.array([], dtype=np.int64)])
    def test_rejects_bad_site_set(self, two_sym, a_set):
        traj = simulate(two_sym, ProcessParams(2, 0.1), (2, 0), 10.0, seed=2)
        with pytest.raises(OutOfRange):
            trace_project(traj, a_set, theta=1.0)

    def test_marginal_sampling(self, two_sym):
        params = ProcessParams(2, 0.1)
        traj = simulate(two_sym, params, (2, 0), 100.0, seed=6)
        path = trace_project(traj, (0, 1), theta=10.0,
                             marginal_times=[0.5, 2.0, 9.0])
        assert path.marginal.shape == (3,)
        assert set(path.marginal) <= {0, 1, CEMETERY}


class TestMCMeanJumpRate:
    def test_two_site_within_three_sigma(self, two_sym):
        params = ProcessParams(2, 0.1)
        exact = mean_jump_rate_exact(two_sym, params, (0, 1))
        est = mc_mean_jump_rate(two_sym, params, (0, 1), replicas=100,
                                horizon=60.0, seed=31)
        dev = abs(est.estimate[0, 1] - exact.raw[0, 1])
        assert dev <= 3 * est.stderr[0, 1]

    def test_totally_asymmetric_within_three_sigma(self):
        spec = WalkSpec.from_matrix([[0.0, 1.0], [1e-300, 0.0]])
        params = ProcessParams(5, 0.01)
        est = mc_mean_jump_rate(spec, params, (0, 1), replicas=100,
                                horizon=400.0, seed=37)
        assert abs(est.estimate[0, 1] - 0.05) <= 3 * est.stderr[0, 1]

    def test_seed_determinism(self, two_sym):
        params = ProcessParams(2, 0.1)
        a = mc_mean_jump_rate(two_sym, params, (0, 1), 25, 30.0, seed=5)
        b = mc_mean_jump_rate(two_sym, params, (0, 1), 25, 30.0, seed=5)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.jump_counts, b.jump_counts)

    def test_no_transition_flag(self, two_sym):
        # horizon far below the mean escape time: nothing observed
        params = ProcessParams(5, 1e-9)
        est = mc_mean_jump_rate(two_sym, params, (0, 1), replicas=3,
                                horizon=0.001, seed=8)
        assert est.no_transitions.any()

    def test_zero_replicas(self, two_sym):
        with pytest.raises(OutOfRange):
            mc_mean_jump_rate(two_sym, ProcessParams(2, 0.1), (0, 1),
                              replicas=0, horizon=1.0, seed=1)

    def test_rejects_fractional_replicas(self, two_sym):
        with pytest.raises(OutOfRange):
            mc_mean_jump_rate(two_sym, ProcessParams(2, 0.1), (0, 1),
                              replicas=2.5, horizon=1.0, seed=1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_checks_horizon_before_any_worker_starts(self, two_sym, horizon, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", no_pool)
        with pytest.raises(OutOfRange):
            mc_mean_jump_rate(two_sym, ProcessParams(2, 0.1), (0, 1), replicas=4,
                              horizon=horizon, seed=1, threads=2)

    @pytest.mark.parametrize("a_set", [(), (0, 7)])
    def test_rejects_bad_site_set(self, two_sym, a_set):
        with pytest.raises(OutOfRange):
            mc_mean_jump_rate(two_sym, ProcessParams(2, 0.1), a_set,
                              replicas=2, horizon=1.0, seed=1)

    # 7 replicas of 40 time units on the 3-cycle: the pair (0, 2) is never
    # observed, the other off-diagonal pairs are
    CASE = dict(a_set=(0, 1, 2), replicas=7, horizon=40.0, seed=3)

    def test_threads_match_sequential(self, cycle3):
        params = ProcessParams(8, 0.05)
        seq = mc_mean_jump_rate(cycle3, params, threads=1, **self.CASE)
        par = mc_mean_jump_rate(cycle3, params, threads=2, **self.CASE)
        for name, value in vars(seq).items():
            assert np.array_equal(getattr(par, name), value), name

    def test_matches_the_looped_estimate(self, cycle3):
        # the per-pair loop the array expressions replaced, on replicas
        # simulated and traced one by one
        params = ProcessParams(8, 0.05)
        a_set, replicas = self.CASE["a_set"], self.CASE["replicas"]
        jumps = np.zeros((3, 3), dtype=np.int64)
        time_at = np.zeros(3)
        for i in range(replicas):
            start = Configuration.single_site(3, params.n, a_set[i % len(a_set)])
            traj = simulate(cycle3, params, start, self.CASE["horizon"],
                            self.CASE["seed"], stream=i)
            path = trace_project(traj, a_set, theta=1.0)
            jumps += path.transition_counts(3)
            time_at += path.time_at(3)
        est = np.zeros((3, 3))
        err = np.zeros((3, 3))
        miss = np.zeros((3, 3), dtype=bool)
        for i, x in enumerate(a_set):
            for j, y in enumerate(a_set):
                if x == y:
                    continue
                if time_at[x] > 0 and jumps[x, y] > 0:
                    est[i, j] = jumps[x, y] / time_at[x]
                    err[i, j] = math.sqrt(jumps[x, y]) / time_at[x]
                else:
                    miss[i, j] = True
        got = mc_mean_jump_rate(cycle3, params, **self.CASE)
        assert miss.any() and (est > 0).any()
        assert np.array_equal(got.estimate, est)
        assert np.array_equal(got.stderr, err)
        assert np.array_equal(got.no_transitions, miss)
        assert np.array_equal(got.jump_counts, jumps)
        assert np.array_equal(got.time_at, time_at)


class TestMCHitting:
    @pytest.mark.parametrize("r_set", [(0, 1, 2, 7), (-1, 0, 1, 2)])
    def test_auxiliary_rejects_bad_site_set(self, cycle3, r_set):
        task = HittingTask(chain="auxiliary", start=(5, 5, 5), replicas=2,
                           seed=3, r_set=r_set, eps=0.1)
        with pytest.raises(OutOfRange):
            mc_hitting(task, cycle3, ProcessParams(15, 1e-4))

    def test_start_on_inner_boundary_is_zero(self, cycle3):
        params = ProcessParams(30, 1e-4)
        # threshold floor(0.1 log 30) = 0: a zero coordinate is already out
        task = HittingTask(chain="auxiliary", start=(0, 15, 15), replicas=5,
                           seed=3, r_set=(0, 1, 2), eps=0.1)
        res = mc_hitting(task, cycle3, params)
        assert res.mean == 0.0

    def test_inclusion_threshold_zero_time(self, up3):
        task = HittingTask(chain="inclusion", start=(1, 5, 5), replicas=4,
                           seed=3, threshold=2.0)
        res = mc_hitting(task, up3, ProcessParams(11, 0.1))
        assert res.mean == 0.0

    def test_censoring_reported(self, cycle3):
        params = ProcessParams(60, 1e-4)
        task = HittingTask(chain="auxiliary", start=(20, 20, 20), replicas=6,
                           seed=3, r_set=(0, 1, 2), eps=0.1, step_cap=3)
        with pytest.raises(BudgetExceeded):
            mc_hitting(task, cycle3, params)

    def test_partial_censoring(self, cycle3):
        params = ProcessParams(30, 1e-4)
        task = HittingTask(chain="auxiliary", start=(10, 10, 10), replicas=40,
                           seed=3, r_set=(0, 1, 2), eps=0.1, step_cap=120)
        res = mc_hitting(task, cycle3, params)
        assert 0 < res.n_censored < 40
        assert res.values[res.censored].min() >= 120

    def test_threads_match_sequential(self, cycle3):
        params = ProcessParams(20, 1e-3)
        task = HittingTask(chain="auxiliary", start=(7, 7, 6), replicas=8,
                           seed=12, r_set=(0, 1, 2), eps=0.1)
        seq = mc_hitting(task, cycle3, params, threads=1)
        par = mc_hitting(task, cycle3, params, threads=2)
        assert np.array_equal(seq.values, par.values)

    def test_zero_replicas(self, cycle3):
        task = HittingTask(chain="inclusion", start=(10, 10, 10), replicas=0,
                           seed=1, threshold=2.0)
        with pytest.raises(OutOfRange):
            mc_hitting(task, cycle3, ProcessParams(30, 0.1))

    @pytest.mark.parametrize("start", [(4, 4), (4, 4, 4, 0), (-1, 7, 6), (4, 4, 5)],
                             ids=["too-few-sites", "too-many-sites", "negative-count",
                                  "thirteen-particles"])
    def test_rejects_start_off_the_state_space(self, cycle3, start):
        task = HittingTask(chain="inclusion", start=start, replicas=2, seed=1,
                           threshold=1.0)
        with pytest.raises(OutOfRange):
            mc_hitting(task, cycle3, ProcessParams(12, 0.1))

    def test_rejects_fractional_replicas(self, cycle3):
        task = HittingTask(chain="inclusion", start=(4, 4, 4), replicas=2.5, seed=1,
                           threshold=1.0)
        with pytest.raises(OutOfRange):
            mc_hitting(task, cycle3, ProcessParams(12, 0.1))

    def test_rejects_negative_step_cap(self):
        with pytest.raises(OutOfRange):
            HittingTask(chain="auxiliary", start=(5, 5, 5), replicas=2, seed=1,
                        r_set=(0, 1, 2), eps=0.1, step_cap=-1)

    @pytest.mark.parametrize("level", [
        {"chain": "inclusion", "threshold": v} for v in
        (math.nan, -1, -math.inf, math.inf, True, "3")] + [
        {"chain": "auxiliary", "r_set": (0, 1, 2), "eps": v} for v in
        (math.nan, math.inf, -0.5, 0.0, True, "0.1")])
    def test_rejects_a_level_the_chain_cannot_stop_at(self, level):
        # a nan threshold once stopped at the first slice, a negative one ran
        # to the step cap, and a bad eps raised a bare ValueError,
        # OverflowError or IndexError
        with pytest.raises(OutOfRange):
            HittingTask(start=(10, 10, 10), replicas=2, seed=1, **level)

    def test_eps_past_the_float_range_stops_at_once(self, cycle3):
        # eps * log N overflows to inf; the floor of N stops before any event
        task = HittingTask(chain="auxiliary", start=(10, 10, 10), replicas=2, seed=1,
                           r_set=(0, 1, 2), eps=1e308)
        assert mc_hitting(task, cycle3, ProcessParams(30, 0.1)).mean == 0.0

    def test_bad_task(self):
        with pytest.raises(ValueError):
            HittingTask(chain="inclusion", start=(1, 1), replicas=2, seed=0)
        with pytest.raises(ValueError):
            HittingTask(chain="bogus", start=(1, 1), replicas=2, seed=0,
                        threshold=1.0)


def entry_points(walk):
    """Each Monte Carlo entry point as a call of its seed, stream and
    threads, on inputs small enough to run in well under a second."""
    params = ProcessParams(4, 0.2)
    torus = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=2, d_l=0.05)

    def hitting(seed, threads):
        task = HittingTask(chain="inclusion", start=(2, 2), replicas=2, seed=seed,
                           threshold=0)
        return mc_hitting(task, walk, params, threads=threads)

    return {
        "simulate": lambda seed, stream=0, threads=1: simulate(
            walk, params, (4, 0), 1.0, seed=seed, stream=stream),
        "mc_hitting": lambda seed, stream=0, threads=1: hitting(seed, threads),
        "mc_mean_jump_rate": lambda seed, stream=0, threads=1: mc_mean_jump_rate(
            walk, params, (0, 1), replicas=2, horizon=1.0, seed=seed, threads=threads),
        "run_condensate": lambda seed, stream=0, threads=1: run_condensate(
            torus, 0.5, seed=seed, stream=stream),
        "measure_drift": lambda seed, stream=0, threads=1: measure_drift(
            torus, 0.5, seed=seed, replicas=2, min_relocations=0, threads=threads),
        "measure_diffusion": lambda seed, stream=0, threads=1: measure_diffusion(
            torus, 0.5, replicas=2, seed=seed, threads=threads),
    }


ENTRY_POINTS = ("simulate", "mc_hitting", "mc_mean_jump_rate", "run_condensate",
                "measure_drift", "measure_diffusion")
# a bool, a fraction, an integral float, a string, a negative value and one
# past the 64-bit key word
BAD_KEYS = (True, 1.5, 2.0, "1", -1, 2 ** 64)


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool started")


class TestEntryPointArguments:
    @pytest.mark.parametrize("seed", BAD_KEYS, ids=repr)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_seed_refused_before_any_worker_starts(self, two_sym, entry, seed,
                                                   monkeypatch):
        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", no_pool)
        with pytest.raises(OutOfRange, match="seed"):
            entry_points(two_sym)[entry](seed, threads=2)

    @pytest.mark.parametrize("stream", BAD_KEYS, ids=repr)
    @pytest.mark.parametrize("entry", ["simulate", "run_condensate"])
    def test_stream_refused(self, two_sym, entry, stream):
        with pytest.raises(OutOfRange, match="stream"):
            entry_points(two_sym)[entry](1, stream=stream)

    @pytest.mark.parametrize("seed, stream", [(True, 0), (0, False), (-1, 0), (0, -1),
                                              (1.5, 0), (2 ** 64, 0), (0, 2 ** 64)])
    def test_replica_rng_refuses_a_key_off_the_philox_word(self, seed, stream):
        with pytest.raises(OutOfRange):
            replica_rng(seed, stream)

    def test_largest_key_is_exact(self):
        # both words of the key are taken as given, with no float cast
        top = 2 ** 64 - 1
        for seed, stream in [(top, 0), (0, top), (top, top), (2 ** 63, 3)]:
            key = replica_rng(seed, stream).bit_generator.state["state"]["key"]
            assert key.tolist() == [seed, stream]

    @pytest.mark.parametrize("threads", [0, -1, 1.5, "2", True, None], ids=repr)
    @pytest.mark.parametrize("entry", ["mc_hitting", "mc_mean_jump_rate",
                                       "measure_drift", "measure_diffusion"])
    def test_threads_must_be_a_positive_integer(self, two_sym, entry, threads,
                                                monkeypatch):
        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", no_pool)
        with pytest.raises(OutOfRange, match="threads"):
            entry_points(two_sym)[entry](1, threads=threads)

    @pytest.mark.parametrize("horizon", [True, "5", 1j, None], ids=repr)
    def test_horizon_must_be_real(self, two_sym, horizon, monkeypatch):
        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", no_pool)
        params = ProcessParams(4, 0.2)
        with pytest.raises(OutOfRange, match="horizon"):
            simulate(two_sym, params, (4, 0), horizon, seed=1)
        with pytest.raises(OutOfRange, match="horizon"):
            mc_mean_jump_rate(two_sym, params, (0, 1), replicas=2, horizon=horizon,
                              seed=1, threads=2)

    @pytest.mark.parametrize("entry", ["mc_hitting", "mc_mean_jump_rate",
                                       "measure_drift", "measure_diffusion"])
    @pytest.mark.parametrize("threads, cpus, workers", [(64, 8, 2), (2, 8, 2), (64, 1, 1)])
    def test_pool_starts_no_more_workers_than_chunks_or_cpus(self, two_sym, entry, threads,
                                                             cpus, workers, monkeypatch):
        # every entry point runs 2 replicas, so 2 chunks; the fork start method
        # starts all max_workers processes at the first submit
        class InProcessPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        seen = []
        one = entry_points(two_sym)[entry](1, threads=1)
        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(SIMULATE.os, "cpu_count", lambda: cpus)
        pooled = entry_points(two_sym)[entry](1, threads=threads)
        assert seen == [workers]
        assert pickle.dumps(pooled) == pickle.dumps(one)

    def test_bool_event_budgets_are_refused(self, two_sym):
        with pytest.raises(OutOfRange, match="step_cap"):
            HittingTask(chain="inclusion", start=(2, 2), replicas=2, seed=1,
                        threshold=0, step_cap=True)
        with pytest.raises(OutOfRange, match="max_events"):
            simulate(two_sym, ProcessParams(4, 0.2), (4, 0), 1.0, seed=1, max_events=True)


class TestScalingFit:
    def test_linear(self):
        fit = scaling_fit([(10, 70.0), (20, 140.0), (40, 280.0)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_cubic(self):
        fit = scaling_fit([(n, 2.0 * n ** 3) for n in (5, 10, 20, 40)])
        assert fit.slope == pytest.approx(3.0, abs=1e-12)

    def test_noisy_cubic(self):
        rng = replica_rng(77, 0)
        pts = [(n, 2.0 * n ** 3 * (1 + 0.1 * (rng.random() - 0.5)))
               for n in (10, 20, 40, 80, 160)]
        fit = scaling_fit(pts)
        assert 2.8 <= fit.slope <= 3.2

    @pytest.mark.parametrize("points", [None, 3, [(1, "a"), (2, "b"), (3, "c")],
                                        [(1, 1.0), (2, 2.0), (3,)], [(1, 1.0), (2, 2.0), "ab"],
                                        [(1, 1.0), (2, math.nan), (3, 3.0)]])
    def test_refuses_points_that_are_not_pairs_of_reals(self, points):
        # None raised a bare TypeError, and string values a bare ValueError
        with pytest.raises(OutOfRange):
            scaling_fit(points)

    def test_degenerate(self):
        with pytest.raises(DegenerateData):
            scaling_fit([(1, 1.0), (2, 2.0)])
        with pytest.raises(DegenerateData):
            scaling_fit([(1, 1.0), (2, -2.0), (3, 3.0)])
        with pytest.raises(DegenerateData):
            scaling_fit([(2, 1.0), (2, 2.0), (2, 3.0)])
