import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import (BudgetExceeded, ConditionNotSatisfied, DimensionMismatch,
                     NonSpanningSupport,
                     OutOfRange, ProcessParams,
                     SupportTooLarge, TooFewRelocations, analyze_walk, build_torus,
                     condensate_statistics, cosine_mode, generator_gap,
                     measure_diffusion, measure_drift, run_condensate,
                     simulate, stationary_exact, torus_condensation,
                     torus_mean_rates, torus_walk)
from incproc.exact import reciprocal_sum_column
from incproc.model import log_weight_table
from incproc.thermo import (_MOVED, _HOPPED, _condensate_runs, _CondensateReplica,
                            _generator_gap, _lattice, limit_generator_apply)
from reference import _tube_crossing_probability, draw, linear_function, tube_rates

THERMO = sys.modules["incproc.thermo"]
SIMULATE = sys.modules["incproc.simulate"]


class TestBuildTorus:
    def test_totally_asymmetric_example(self):
        spec = build_torus(1, 24, {1: 0.8, -1: 0.2}, rho=3.0, d_l=1e-4)
        assert spec.n == 72
        assert spec.regime == "totally_asym"
        assert spec.v[0] == pytest.approx(0.6)
        assert spec.theta == pytest.approx(1e4)  # 1/(d_L L^0)

    def test_mean_zero_example(self):
        spec = build_torus(1, 24, {2: 0.2, -1: 0.4}, rho=2.0, d_l=1e-4)
        assert spec.regime == "mean_zero_asym"
        assert spec.v[0] == pytest.approx(0.0, abs=1e-14)
        assert spec.s1[0, 0] == pytest.approx(2.4)
        assert spec.theta == pytest.approx(24.0 / 1e-4)

    def test_symmetric_srw(self):
        spec = build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=1e-5)
        assert spec.regime == "symmetric"
        assert spec.s2[0, 0] == pytest.approx(1.0)
        assert spec.sigma2[0, 0] == pytest.approx(1.0)
        assert spec.theta == pytest.approx(16 ** 2 / 1e-5)

    def test_sigma_squares_to_s(self):
        spec = build_torus(2, 9, {(1, 0): 0.3, (-1, 0): 0.3,
                                  (0, 1): 0.2, (0, -1): 0.2}, rho=1.0, d_l=1e-4)
        assert np.abs(spec.sigma2 @ spec.sigma2 - spec.s2).max() <= 1e-12
        assert np.abs(spec.sigma1 @ spec.sigma1 - spec.s1).max() <= 1e-12

    def test_support_radius_guard(self):
        with pytest.raises(SupportTooLarge):
            build_torus(1, 6, {3: 1.0, -3: 1.0}, rho=1.0, d_l=1e-4)

    def test_spanning_guard(self):
        with pytest.raises(NonSpanningSupport):
            build_torus(1, 12, {2: 0.5, -2: 0.5}, rho=1.0, d_l=1e-4)
        with pytest.raises(NonSpanningSupport):
            build_torus(2, 12, {(1, 0): 1.0, (-1, 0): 1.0}, rho=1.0, d_l=1e-4)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            build_torus(1, 8, {0: 1.0}, rho=1.0, d_l=1e-4)
        with pytest.raises(ValueError):
            build_torus(1, 8, {1: -1.0}, rho=1.0, d_l=1e-4)

    @pytest.mark.parametrize("side", [8.5, 8.0, True])
    def test_rejects_non_integer_side(self, side):
        with pytest.raises(OutOfRange):
            build_torus(1, side, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-4)

    @pytest.mark.parametrize("d", [True, 1.0, "1", None])
    def test_rejects_non_integer_dimension(self, d):
        # True raised a bare TypeError
        with pytest.raises(OutOfRange):
            build_torus(d, 6, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-4)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), "x", None, True])
    def test_rejects_a_kernel_weight_that_is_not_finite(self, weight):
        # {1: nan, -1: 1.0} built a TorusSpec, and "x" raised a bare ValueError
        with pytest.raises(OutOfRange):
            build_torus(1, 6, {1: weight, -1: 1.0}, rho=1.0, d_l=1e-4)

    @pytest.mark.parametrize("kernel", [{1.5: 1.0, -1: 1.0}, {(1.5,): 1.0, -1: 1.0},
                                        {True: 1.0, -1: 1.0}, {"1": 1.0, -1: 1.0},
                                        [(1, 1.0), (-1, 1.0)]])
    def test_rejects_offsets_that_are_not_integers(self, kernel):
        # (1.5,) was read as offset 1, and 1.5 raised a bare TypeError
        with pytest.raises(OutOfRange):
            build_torus(1, 6, kernel, rho=1.0, d_l=1e-4)

    def test_accepts_numpy_offsets_and_weights(self):
        spec = build_torus(1, 6, {np.int64(1): np.float64(0.8), (np.int64(-1),): 0.2},
                           rho=np.float64(1.0), d_l=1e-4)
        assert spec.kernel == {(1,): 0.8, (-1,): 0.2}

    @pytest.mark.parametrize("field", ["rho", "d_l"])
    @pytest.mark.parametrize("value", ["1", None, True])
    def test_rejects_density_and_d_l_that_are_not_numbers(self, field, value):
        # "1" raised a bare TypeError
        args = {"rho": 1.0, "d_l": 1e-4, field: value}
        with pytest.raises(OutOfRange):
            build_torus(1, 6, {1: 0.8, -1: 0.2}, **args)

    @pytest.mark.parametrize("rho", [0.05, float("nan"), float("inf")])
    def test_rejects_density_without_finite_particles(self, rho):
        # rho = 0.05 rounds to N = 0 on 8 sites
        with pytest.raises(OutOfRange):
            build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=rho, d_l=1e-4)

    @pytest.mark.parametrize("rho", [1e300, 1.7e308, 2.0**64, 131072.125])
    def test_refuses_more_particles_than_a_torus_holds(self, rho):
        # rho = 1e300 built a spec of N = 8e300 particles, and 1.7e308 raised
        # a bare OverflowError; 131072.125 is one particle over the cap
        with pytest.raises(OutOfRange, match="a torus holds 1 to 1048576"):
            build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=rho, d_l=0.05)

    def test_holds_as_many_particles_as_the_cap(self):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=131072.0625, d_l=0.05)
        assert spec.n == THERMO.MAX_PARTICLES == 1 << 20

    @pytest.mark.parametrize("d_l", [0.0, float("nan"), float("inf")])
    def test_rejects_d_l_that_is_not_positive_and_finite(self, d_l):
        with pytest.raises(OutOfRange):
            build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0, d_l=d_l)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_regime_trichotomy(self, seed):
        rng = np.random.Generator(np.random.Philox(key=(19, seed)))
        kernel = {}
        for off in (-2, -1, 1, 2):
            if rng.random() < 0.6:
                kernel[off] = float(np.round(rng.random(), 3))
        kernel[1] = kernel.get(1, 0.0) + 0.25  # guarantee spanning support
        spec = build_torus(1, 12, kernel, rho=1.0, d_l=1e-4)
        v = sum(w * off[0] for off, w in spec.kernel.items())
        symmetric = all(abs(w - spec.kernel.get((-off[0],), 0.0)) <= 1e-12
                        for off, w in spec.kernel.items())
        expected = ("totally_asym" if abs(v) > 1e-12
                    else "symmetric" if symmetric else "mean_zero_asym")
        assert spec.regime == expected


class TestTorusRates:
    def test_asymmetric_formula(self):
        spec = build_torus(1, 24, {1: 0.8, -1: 0.2}, rho=3.0, d_l=1e-4)
        rates = torus_mean_rates(spec)
        assert rates[(1,)] == pytest.approx(1e-4 * 72 * 0.6)
        assert (-1,) not in rates

    def test_symmetric_formula(self):
        spec = build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=1e-5)
        rates = torus_mean_rates(spec)
        assert rates[(1,)] == pytest.approx(1e-5 * 0.5)
        assert rates[(-1,)] == pytest.approx(1e-5 * 0.5)

    def test_formula_vs_tube_close(self):
        spec = build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=1e-8)
        formula, tube = torus_mean_rates(spec), tube_rates(spec)
        for off in set(formula) | set(tube):
            a, b = formula.get(off, 0.0), tube.get(off, 0.0)
            assert abs(a - b) <= 0.02 * max(abs(a), abs(b)), off

    def test_tube_against_exact_trace_rate(self):
        # oracle: full-chain mean-jump rate on the smallest torus walk
        spec = build_torus(1, 5, {1: 0.7, -1: 0.3}, rho=2.0, d_l=1e-5)
        walk = torus_walk(spec)
        exact = None
        from incproc import mean_jump_rate_exact
        exact = mean_jump_rate_exact(walk, ProcessParams(spec.n, spec.d_l),
                                     tuple(range(5)))
        tube = tube_rates(spec)
        assert tube[(1,)] == pytest.approx(exact.raw[0, 1], rel=1e-3)


class TestLimitGenerator:
    def test_symmetric_cosine(self):
        spec = build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=1e-5)
        f = cosine_mode(1)
        for u in (0.0, 0.2, 0.37):
            assert limit_generator_apply(spec, f, u) == pytest.approx(
                -2 * math.pi ** 2 * math.cos(2 * math.pi * u), rel=1e-12)

    def test_totally_asymmetric_drift_term(self):
        spec = build_torus(1, 24, {1: 0.8, -1: 0.2}, rho=3.0, d_l=1e-4)
        f = linear_function(1.0)
        assert limit_generator_apply(spec, f, 0.1) == pytest.approx(1.8)

    def test_constant_function(self):
        spec = build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0, d_l=1e-4)
        const = linear_function(0.0)
        assert limit_generator_apply(spec, const, 0.3) == 0.0


class TestGeneratorGap:
    def test_symmetric_gap_shrinks(self):
        gaps = [generator_gap(build_torus(1, side, {1: 0.5, -1: 0.5},
                                          rho=1.0, d_l=float(side) ** -5),
                              cosine_mode(1))
                for side in (8, 16)]
        assert gaps[1] < gaps[0]

    def test_mean_zero_gap_shrinks(self):
        gaps = [generator_gap(build_torus(1, side, {2: 0.2, -1: 0.4},
                                          rho=1.0, d_l=float(side) ** -5),
                              cosine_mode(1))
                for side in (8, 16, 32)]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_linear_lifted_totally_asymmetric(self):
        # first-order Taylor is exact for linear f, so the leading-order
        # kernel gives a zero gap and the exact tube kernel's gap vanishes
        # with the finite-size corrections
        gaps = []
        for side in (8, 16, 32):
            spec = build_torus(1, side, {1: 0.8, -1: 0.2}, rho=1.0,
                               d_l=float(side) ** -4)
            assert generator_gap(spec, linear_function(1.0)) <= 1e-12
            gaps.append(_generator_gap(spec, linear_function(1.0), tube_rates(spec)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-4


    @pytest.mark.parametrize("freq", ["a", 1.5, True, [], [1, 0.5], None],
                             ids=repr)
    def test_cosine_mode_needs_integer_frequencies(self, freq):
        # only an integer frequency is periodic on the torus
        with pytest.raises(OutOfRange):
            cosine_mode(freq)

    def test_a_function_of_another_dimension_is_refused(self):
        spec = build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0, d_l=8.0 ** -5)
        with pytest.raises(DimensionMismatch):
            generator_gap(spec, cosine_mode((1, 1)))
        assert generator_gap(spec, cosine_mode(np.array([1]))) == \
            generator_gap(spec, cosine_mode(1))


class TestCondensateRuns:
    def test_streaming_run_consistency(self):
        # the off-condensate fraction of one run is heavy-tailed: it exceeds
        # 0.2 at 3-4% of seeds at t = 8, at 0.4% at t = 128 and at 0.1% at
        # t = 256 (1,000 seeds each)
        spec = build_torus(1, 12, {1: 0.8, -1: 0.2}, rho=2.0, d_l=1e-3)
        run = run_condensate(spec, t_rescaled=256.0, seed=41)
        assert run.relocations > 0
        assert run.trace_time >= 256.0 * spec.theta * (1 - 1e-9)
        assert 0.0 <= run.off_fraction < 0.2

    def test_replay_matches_streaming_semantics(self):
        # drive the replay path with a real trajectory on a small torus
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=2e-3)
        walk = torus_walk(spec)
        params = ProcessParams(spec.n, spec.d_l)
        eta0 = tuple(spec.n if i == 0 else 0 for i in range(8))
        traj = simulate(walk, params, eta0, horizon=35_000.0, seed=43)
        stats = condensate_statistics(traj, spec, min_relocations=100)
        assert stats.relocations >= 100
        assert stats.off_fraction <= 0.05
        # ballistic regime: drift close to rho * v = 0.6
        assert stats.drift[0] == pytest.approx(0.6, rel=0.25)

    def test_too_few_relocations(self):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=2e-3)
        walk = torus_walk(spec)
        params = ProcessParams(spec.n, spec.d_l)
        eta0 = tuple(spec.n if i == 0 else 0 for i in range(8))
        traj = simulate(walk, params, eta0, horizon=200.0, seed=44)
        with pytest.raises(TooFewRelocations):
            condensate_statistics(traj, spec, min_relocations=100)

    def test_torus_walk_is_uniform_measure(self):
        spec = build_torus(1, 6, {1: 0.7, -1: 0.3}, rho=1.0, d_l=1e-3)
        walk = torus_walk(spec)
        analysis = analyze_walk(walk)
        assert analysis.ui

    def test_drift_estimate_matches_target(self):
        spec = build_torus(1, 12, {1: 0.8, -1: 0.2}, rho=2.0, d_l=12.0 ** -3)
        est = measure_drift(spec, t_rescaled=12.0, seed=47, replicas=2,
                            min_relocations=30)
        target = spec.rho * spec.v[0]
        assert est.drift[0] == pytest.approx(target, rel=0.2)
        assert est.off_fraction <= 0.05

    def test_zero_replicas(self):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        with pytest.raises(OutOfRange):
            measure_drift(spec, t_rescaled=1.0, seed=1, replicas=0)
        with pytest.raises(OutOfRange):
            measure_diffusion(spec, t_rescaled=1.0, replicas=0, seed=1)

    def test_threads_match_sequential(self):
        spec = build_torus(1, 8, {1: 0.6, -1: 0.4}, rho=1.0, d_l=1e-3)
        for measure, kwargs in ((measure_drift, dict(replicas=3, min_relocations=0)),
                                (measure_diffusion, dict(replicas=5))):
            seq = measure(spec, t_rescaled=0.5, seed=3, threads=1, **kwargs)
            par = measure(spec, t_rescaled=0.5, seed=3, threads=2, **kwargs)
            for name, value in vars(seq).items():
                assert np.array_equal(getattr(par, name), value), name

    def test_diffusion_smoke(self):
        spec = build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0, d_l=1e-4)
        est = measure_diffusion(spec, t_rescaled=0.3, replicas=30, seed=51)
        assert 0.3 <= est.msd_slope <= 2.5
        assert est.off_fraction <= 0.05


class TestRenewalSampler:
    """The condensate runs are sampled as renewal processes: one-site
    sojourns on the trace clock, and excursions stepped on their two-site
    channel by the compiled loop, a replica's chunk at a time. Bands are
    stated per test."""

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, -1.0, 0.0, "2", None])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, t):
        # "2" and None raised a bare TypeError
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        with pytest.raises(OutOfRange):
            run_condensate(spec, t_rescaled=t, seed=1)
        with pytest.raises(OutOfRange):
            measure_drift(spec, t_rescaled=t, seed=1, replicas=2)
        with pytest.raises(OutOfRange):
            measure_diffusion(spec, t_rescaled=t, replicas=2, seed=1)

    @pytest.mark.parametrize("replicas, t", [(0, 1.0), (2, math.inf), (2, math.nan),
                                             (2.5, 1.0)])
    def test_measurements_check_before_any_worker_starts(self, replicas, t, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(SIMULATE, "ProcessPoolExecutor", no_pool)
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        with pytest.raises(OutOfRange):
            measure_drift(spec, t_rescaled=t, seed=1, replicas=replicas, threads=2)
        with pytest.raises(OutOfRange):
            measure_diffusion(spec, t_rescaled=t, replicas=replicas, seed=1, threads=2)

    @pytest.mark.parametrize("bad", [1.5, True, -3, None, "2"])
    def test_measure_drift_refuses_a_relocation_bound_that_is_not_a_count(self, bad):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        with pytest.raises(OutOfRange, match="min_relocations"):
            measure_drift(spec, t_rescaled=0.5, seed=1, replicas=2, min_relocations=bad)

    def test_one_diffusion_replica_has_no_stderr_and_no_warning(self):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = measure_diffusion(spec, t_rescaled=0.5, replicas=1, seed=1)
        assert np.isnan(est.drift_stderr).all() and est.drift_stderr.shape == (1,)
        assert np.isfinite(est.drift).all() and np.isfinite(est.msd).all()

    def test_rejects_an_empty_torus(self):
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        # build_torus rejects a density that rounds to no particle
        empty = dataclasses.replace(spec, n=0, rho=0.05)
        with pytest.raises(OutOfRange):
            run_condensate(empty, t_rescaled=1.0, seed=1)

    def test_refuses_a_torus_off_the_condensed_regime(self):
        # exact condensate mass 3.2e-7: an excursion from the one-site state
        # does not come back, and the sampler used to run on forever in
        # _ThirdSite.finish; the alarm fails the test instead of hanging
        spec = build_torus(1, 64, {1: 0.5, -1: 0.5}, rho=0.5, d_l=0.1)

        def hung(signum, frame):
            raise TimeoutError("the condensate run did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            for call in (lambda: run_condensate(spec, t_rescaled=1e-3, seed=3),
                         lambda: measure_drift(spec, t_rescaled=1e-3, seed=3),
                         lambda: measure_diffusion(spec, t_rescaled=1e-3, replicas=2,
                                                   seed=3)):
                start = time.perf_counter()
                with pytest.raises(ConditionNotSatisfied, match="3.2e-07"):
                    call()
                assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert torus_condensation(spec).e_mass < THERMO.MIN_CONDENSATE_MASS

    def test_mass_threshold_admits_the_third_site_tori(self):
        for spec in (build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5),
                     build_torus(2, 5, {(1, 0): 1.0, (-1, 0): 0.6, (0, 1): 0.8,
                                        (0, -1): 0.8}, rho=1.0, d_l=5e-2)):
            assert THERMO.MIN_CONDENSATE_MASS < torus_condensation(spec).e_mass < 0.03

    def test_a_stretch_over_its_event_bound_names_replica_and_chunk(self, monkeypatch):
        # d_L = 0.5 on 7 sites: about half the excursions hop to a third site
        monkeypatch.setattr(THERMO, "_STRETCH_EVENTS", 0)
        spec = build_torus(1, 7, {1: 0.6, -1: 0.4}, rho=1.0, d_l=0.5)
        with pytest.raises(BudgetExceeded, match="replica 5, chunk 0: an excursion"):
            run_condensate(spec, t_rescaled=1.0, seed=20, stream=5)

    def test_chunk_streams_are_the_jumped_replica_stream(self):
        # the clock is jump 0, chunk c's channel steps jump 2c + 1 and its
        # third-site stretches jump 2c + 2; exponentials (sojourns) are
        # purpose 0 and uniforms (leaving offsets) purpose 1 in counter word 3
        spec = build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=1.0, d_l=1e-3)
        ch = THERMO._Channels(spec)
        r = _CondensateReplica(ch, 2**64 - 1, 12, 1.0, np.ones(1))
        key = np.array([2**64 - 1, 12], dtype=np.uint64)

        def pinned(jump, purpose):
            bits = np.random.Philox(key=key).advance(purpose << 192).jumped(jump)
            return np.random.Generator(bits)

        assert r.sojourns.exponential(1.0, 4).tolist() == \
            pinned(0, 0).exponential(1.0, 4).tolist()
        assert r.picks.random(9).tolist() == pinned(0, 1).random(9).tolist()
        for c in range(3):
            r.draw_chunk(ch)
            assert r.exps.exponential(1.0, 9).tolist() == \
                pinned(2 * c + 1, 0).exponential(1.0, 9).tolist()
            assert r.unis.random(9).tolist() == pinned(2 * c + 1, 1).random(9).tolist()
        blocks = THERMO._Blocks(r.key, 2 * r.chunks)
        assert draw(blocks, "uniform") == pinned(2 * 3, 1).random(1)[0]
        assert draw(blocks, "exponential") == pinned(2 * 3, 0).exponential(1.0, 1)[0]

    @staticmethod
    def excursions(spec, t, seed, replicas):
        """(runs, channel index, outcome) of every excursion."""
        seen = []
        record = _CondensateReplica.record

        def spy(self, ch, status, pos, dur, events):
            seen.append((self.chunk[1].copy(), status.copy()))
            record(self, ch, status, pos, dur, events)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_CondensateReplica, "record", spy)
            runs = _condensate_runs(spec, t, seed, list(range(replicas)))
        channel, status = (np.concatenate(part) for part in zip(*seen))
        return runs, channel, status

    def test_relocation_probability_is_the_tube_crossing(self):
        # d_L = 1e-7: a hop to a third site has probability about 1e-6 per
        # excursion, far below the sampling error, so the excursions that
        # hop are left out. Each offset's crossing count must lie within 4.5
        # binomial standard deviations of the gambler's-ruin value
        # (two-sided level 7e-6 per offset).
        spec = build_torus(1, 10, {1: 0.55, -1: 0.45, 2: 0.25, -2: 0.25},
                           rho=1.6, d_l=1e-7)
        _, channel, status = self.excursions(spec, 30.0, seed=61, replicas=40)
        assert (status == _HOPPED).sum() <= 2
        channel = channel[status != _HOPPED]
        status = status[status != _HOPPED]
        for k, off in enumerate(spec.kernel):
            trials = int((channel == k).sum())
            moved = int(((channel == k) & (status == _MOVED)).sum())
            p = _tube_crossing_probability(spec.n, spec.d_l, spec.h(off),
                                           spec.h(tuple(-v for v in off)))
            assert trials > 2_000
            assert abs(moved - trials * p) <= 4.5 * math.sqrt(trials * p * (1 - p)), off

    @pytest.mark.parametrize("kernel", [{1: 0.8, -1: 0.2},
                                        {1: 0.3, -1: 0.3, 2: 0.2, -2: 0.2}])
    def test_relocation_rate_is_the_tube_rate(self, kernel):
        # relocations by offset per unit of trace time against the exact
        # channel rates; given the trace time, each offset's count is
        # Poisson, and must lie within 4.5 standard deviations of its mean
        # (two-sided level 7e-6 per offset). Third-site hops, about one in
        # 1e5 excursions, are left out.
        spec = build_torus(1, 12, kernel, rho=1.5, d_l=1e-6)
        leave = spec.n * spec.d_l * sum(spec.kernel.values())
        # about 2,000 excursions per replica
        runs, channel, status = self.excursions(spec, 2_000 / (spec.theta * leave),
                                                seed=67, replicas=30)
        trace = sum(r.trace_time for r in runs)
        rates = tube_rates(spec)
        assert (status == _HOPPED).sum() <= 3
        means = [rates.get(off, 0.0) * trace for off in spec.kernel]
        assert max(means) > 1_000
        for k, (off, mean) in enumerate(zip(spec.kernel, means)):
            got = int(((channel == k) & (status == _MOVED)).sum())
            # a mean below 1 (crossing against the drift) allows 4 crossings
            assert abs(got - mean) <= 4.5 * math.sqrt(max(mean, 1.0)), off

    @pytest.mark.parametrize("chunks", [None, (16, 64)])
    def test_run_condensate_is_a_replica_of_the_measurements(self, chunks, monkeypatch):
        # a replica's draws depend on its seed and stream only, at any
        # chunk lengths
        if chunks is not None:
            monkeypatch.setattr(THERMO, "_CHUNKS", chunks)
        spec = build_torus(1, 8, {1: 0.6, -1: 0.4}, rho=1.5, d_l=2e-2)
        t, seed, replicas = 4.0, 71, 6     # about 48 excursions per replica
        runs = [run_condensate(spec, t, seed, stream=i) for i in range(replicas)]
        assert sum(r.relocations for r in runs) > 20
        drift = measure_drift(spec, t, seed, replicas=replicas, min_relocations=0)
        for i, run in enumerate(runs):
            expected = (run.displacement / spec.side) / (run.trace_time / spec.theta)
            assert np.array_equal(drift.per_replica[i], expected)
        diff = measure_diffusion(spec, t, replicas=replicas, seed=seed)
        sq = np.zeros(THERMO.CHECKPOINTS)
        for run in runs:
            sq += ((run.positions / spec.side) ** 2).sum(axis=1)
        assert np.array_equal(diff.msd, sq / replicas)
        assert diff.total_relocations == sum(r.relocations for r in runs)
        assert diff.off_fraction == np.mean([r.off_fraction for r in runs])
        for run in runs:
            assert np.array_equal(run.positions[-1], run.displacement)
            assert run.trace_time >= t * spec.theta > run.checkpoints[-2]


def _logsumexp_convolve(a, b, n):
    out = np.full(n + 1, -np.inf)
    for k in range(n + 1):
        lo = max(0, k - (len(b) - 1))
        hi = min(k, len(a) - 1)
        if lo > hi:
            continue
        terms = a[lo:hi + 1] + b[k - hi:k - lo + 1][::-1]
        mx = terms.max()
        if mx > -np.inf:
            out[k] = mx + math.log(np.exp(terms - mx).sum())
    return out


def _convolution_condensation(spec, bound_terms=8):
    """(log_partition, e_mass, remainder_bound) from the log-space
    self-convolution of the single-site weights that the closed form
    replaced, kept as a reference. The reciprocal-sum table is checked
    against its own reference in test_exact.py."""
    n, d_l, sites = spec.n, spec.d_l, spec.n_sites
    logw = log_weight_table(n, d_l)
    result = np.full(n + 1, -np.inf)
    result[0] = 0.0
    base = logw.copy()
    power = sites
    while power > 0:
        if power & 1:
            result = _logsumexp_convolve(result, base, n)
        power >>= 1
        if power:
            base = _logsumexp_convolve(base, base, n)
    log_z = float(result[n])
    e_mass = math.exp(math.log(sites) + logw[n] - log_z)
    terms = min(bound_terms, n, sites)
    sums = reciprocal_sum_column(n, max(terms, 1))
    bound = 0.0
    for i in range(2, terms + 1):
        log_choose = (math.lgamma(sites + 1) - math.lgamma(i + 1)
                      - math.lgamma(sites - i + 1))
        bound += math.exp(i * math.log(2 * d_l) + math.log(sums[i])
                          + log_choose - log_z)
    return log_z, e_mass, bound


_NN2 = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}


CONDENSATION_MEMORY = """
from incproc import build_torus, torus_condensation

def status(key):
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith(key + ":")))

spec = build_torus(1, 64, {1: 0.5, -1: 0.5}, rho=2.0**18 / 64, d_l=0.1)
before = status("VmRSS")
torus_condensation(spec)
# KiB of peak RSS over the resident set before the call; exec starts this
# process afresh, so its VmHWM is its own
print(status("VmHWM") - before)
"""


class TestTorusCondensation:
    def test_memory_does_not_grow_with_n_times_k(self):
        # 2**18 particles: the (k + 1) x (N + 1) table of Python floats that
        # one column replaced added 96 MB here, the column's run adds 15 MB
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", CONDENSATION_MEMORY], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 40 * 1024

    @pytest.mark.parametrize("d, side, kernel, rho, d_l", [
        (1, 8, {1: 0.7, -1: 0.3}, 2.0, 1e-3),
        (1, 16, {1: 0.5, -1: 0.5}, 3.0, 1e-4),
        (1, 64, {1: 0.8, -1: 0.2}, 2.0, 1e-5),
        (2, 32, _NN2, 1.0, 32.0 ** -3),
    ])
    def test_closed_form_matches_convolution(self, d, side, kernel, rho, d_l):
        spec = build_torus(d, side, kernel, rho=rho, d_l=d_l)
        rep = torus_condensation(spec)
        log_z, e_mass, bound = _convolution_condensation(spec)
        assert rep.log_partition == pytest.approx(log_z, rel=1e-12, abs=0)
        assert rep.e_mass == pytest.approx(e_mass, rel=1e-12, abs=0)
        assert rep.remainder_bound == pytest.approx(bound, rel=1e-12, abs=0)

    def test_large_torus_is_fast(self):
        spec = build_torus(2, 128, _NN2, rho=3.0, d_l=1e-4)
        assert spec.n == 49_152
        start = time.perf_counter()
        rep = torus_condensation(spec)
        assert time.perf_counter() - start < 1.0
        assert 0.0 < rep.e_mass <= 1.0

    def test_small_torus_mass(self):
        spec = build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0, d_l=1e-6)
        rep = torus_condensation(spec)
        assert rep.e_mass > 0.99
        assert rep.per_site_mass == pytest.approx(rep.e_mass / 8)
        assert rep.bound_holds

    def test_against_exact_stationary_solve(self):
        # dual route: product-form partition vs full sparse balance solve
        spec = build_torus(1, 8, {1: 0.7, -1: 0.3}, rho=1.0, d_l=1e-3)
        rep = torus_condensation(spec)
        walk = torus_walk(spec)
        mu = stationary_exact(walk, ProcessParams(spec.n, spec.d_l))
        e_exact = sum(mu.xi_mass(x) for x in range(8))
        assert rep.e_mass == pytest.approx(e_exact, rel=1e-9)

    def test_w_ratio_uniform_bound(self):
        spec = build_torus(1, 64, {1: 0.5, -1: 0.5}, rho=1.0, d_l=1e-6)
        rep = torus_condensation(spec)
        assert rep.w_ratio_max_dev <= 0.01


# The code that the lattice table, the channel rates and the S1/S2 limit
# generator replaced, kept as references.

def _loop_site_coords(spec):
    idx = np.arange(spec.n_sites)
    out = np.zeros((spec.n_sites, spec.d), dtype=np.int64)
    for axis in range(spec.d - 1, -1, -1):
        out[:, axis] = idx % spec.side
        idx = idx // spec.side
    return out


def _loop_flat_index(coord, side):
    flat = 0
    for v in coord:
        flat = flat * side + int(v) % side
    return flat


def _loop_torus_walk_rates(spec):
    n_sites = spec.n_sites
    coords = _loop_site_coords(spec)
    rates = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        for off, w in spec.kernel.items():
            j = _loop_flat_index((coords[i] + np.asarray(off)) % spec.side, spec.side)
            rates[i, j] += w
    return rates


def _loop_tube_crossing_probability(n, d, fwd, bwd):
    if fwd <= 0:
        return 0.0
    total = 1.0
    prod = 1.0
    for j in range(1, n):
        up = (n - j) * (d + j) * fwd
        down = j * (d + n - j) * bwd
        prod *= down / up
        total += prod
        if prod == 0.0:
            break
    return 1.0 / total


def _kernel_sum_limit_generator(spec, f, u):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if spec.regime == "totally_asym":
        return float(spec.rho * spec.v @ f.grad(u))
    hess = f.hess(u)
    total = 0.0
    if spec.regime == "mean_zero_asym":
        for off, w in spec.kernel.items():
            back = spec.h(tuple(-v for v in off))
            if w > back:
                y = np.asarray(off, dtype=float)
                total += (w - back) * float(y @ hess @ y)
        return 0.5 * spec.rho * total
    for off, w in spec.kernel.items():
        y = np.asarray(off, dtype=float)
        total += w * float(y @ hess @ y)
    return 0.5 * total


# (dimension, side, kernel, regime), nearest-neighbour and longer range
_TORI = [
    (1, 7, {1: 0.7, -1: 0.3}, "totally_asym"),
    (1, 9, {2: 0.2, -1: 0.4}, "mean_zero_asym"),
    (1, 9, {1: 0.5, -1: 0.5, 3: 0.1, -3: 0.1}, "symmetric"),
    (2, 5, {(1, 0): 0.6, (0, 1): 0.3, (-1, 0): 0.1}, "totally_asym"),
    (2, 6, {(1, 1): 0.2, (-1, 0): 0.2, (0, -1): 0.2}, "mean_zero_asym"),
    (2, 7, {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25,
            (1, 1): 0.1, (-1, -1): 0.1, (2, -1): 0.05, (-2, 1): 0.05}, "symmetric"),
    (2, 6, {(1, 1): 0.3, (-2, 0): 0.2, (0, 1): 0.5}, "totally_asym"),
]


class TestAgainstReplacedCode:
    @pytest.mark.parametrize("d, side, kernel, regime", _TORI)
    def test_lattice_and_torus_walk(self, d, side, kernel, regime):
        spec = build_torus(d, side, kernel, rho=1.0, d_l=1e-3)
        assert spec.regime == regime
        coords, _ = _lattice(spec)
        assert np.array_equal(coords, _loop_site_coords(spec))
        assert np.array_equal(torus_walk(spec).rates, _loop_torus_walk_rates(spec))

    def test_tube_crossing_probability_bit_for_bit(self):
        for n in (1, 2, 5, 40, 700, 5000):
            for d in (1e-7, 1e-3, 0.5):
                for fwd, bwd in ((0.8, 0.2), (0.2, 0.8), (0.5, 0.5), (1.0, 0.0),
                                 (0.0, 1.0), (0.3, 1e-300)):
                    p = _tube_crossing_probability(n, d, fwd, bwd)
                    assert p == _loop_tube_crossing_probability(n, d, fwd, bwd), \
                        (n, d, fwd, bwd)

    def test_tube_crossing_grid_reaches_underflow(self):
        # the bit-for-bit grid above holds products that underflow to zero
        # before level N (where the loop stopped early) and ones that overflow
        n, d = 5000, 1e-3
        ratios = np.array([(j * (d + n - j) * 0.2) / ((n - j) * (d + j) * 0.8)
                           for j in range(1, n)])
        with np.errstate(over="ignore"):
            assert np.cumprod(ratios)[-1] == 0.0
            assert np.isinf(np.cumprod(1.0 / ratios)[-1])

    @pytest.mark.parametrize("d, side, kernel, regime", _TORI)
    def test_limit_generator_against_kernel_sum(self, d, side, kernel, regime):
        spec = build_torus(d, side, kernel, rho=1.7, d_l=1e-3)
        rng = np.random.Generator(np.random.Philox(key=(17, side)))
        for f in (cosine_mode([1] * d), cosine_mode([2] + [-1] * (d - 1)),
                  linear_function([0.3] * d)):
            for u in rng.random((5, d)):
                new = limit_generator_apply(spec, f, u)
                old = _kernel_sum_limit_generator(spec, f, u)
                # the size of the terms that cancel sets the rounding scale
                scale = max(abs(old), float(np.abs(spec.s1).sum() + np.abs(spec.s2).sum())
                            * float(np.abs(f.hess(u)).max()))
                assert abs(new - old) <= 1e-12 * scale
