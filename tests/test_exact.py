import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import (ConditionNotSatisfied, DimensionMismatch, IncprocError,
                     OutOfRange, ProcessParams,
                     RegionSpec, WalkSpec, analyze_walk, enumerate_states,
                     flow_profile, mean_jump_rate_exact, reciprocal_sum, region_masses,
                     stationary_closed_form, stationary_exact)
from incproc.exact import (STATIONARY_TOL, build_generator, reciprocal_bound_holds,
                           reciprocal_sum_column, reciprocal_sum_table)
from reference import superlu_reduction


def hitting_column(spec, params, y):
    """The probability, per starting state, of reaching xi^y first among the
    metastable states, from the reference reduction, and the enumeration.
    The exact solves read the trace generator built from these columns off
    their factor, and are checked against the reference's in
    test_exact_solver.py."""
    return superlu_reduction(spec, params).hitting[:, y], enumerate_states(spec.kappa, params.n)


class TestStationaryExact:
    def test_two_site_hand_balance(self, two_sym):
        mu = stationary_exact(two_sym, ProcessParams(2, 0.1))
        assert mu.weights == pytest.approx([11 / 24, 1 / 12, 11 / 24], abs=1e-14)

    def test_residual_identity(self, up3):
        params = ProcessParams(15, 0.01)
        mu = stationary_exact(up3, params)
        q = build_generator(up3, params, mu.enum)
        scale = np.abs(q.data).max()
        assert np.abs(mu.weights @ q).max() <= 1e-10 * scale

    def test_per_state_balance_relative(self, up3):
        # inflow equals outflow state by state, relative to the local flux
        from incproc.exact import build_rate_matrix
        params = ProcessParams(30, 1e-4)
        mu = stationary_exact(up3, params)
        rates = build_rate_matrix(up3, params, mu.enum)
        holding = np.asarray(rates.sum(axis=1)).ravel()
        inflow = mu.weights @ rates
        outflow = mu.weights * holding
        assert (np.abs(inflow - outflow) / outflow).max() <= 1e-10

    def test_totally_asymmetric_concentrates(self):
        spec = WalkSpec.from_matrix([[0.0, 1.0], [1e-30, 0.0]])
        # effectively one-way (tiny back rate keeps the walk irreducible)
        mu = stationary_exact(spec, ProcessParams(10, 1e-6))
        assert mu.xi_mass(1) > 0.99

    def test_matches_closed_form_under_ui(self, cycle3):
        for n, d in product((10, 30), (1e-2, 1e-4)):
            mu = stationary_exact(cycle3, ProcessParams(n, d))
            cf = stationary_closed_form(cycle3, ProcessParams(n, d))
            assert np.abs(mu.weights - cf.weights).max() <= 1e-10

    def test_matches_closed_form_under_rev(self, two_asym):
        mu = stationary_exact(two_asym, ProcessParams(20, 1e-3))
        cf = stationary_closed_form(two_asym, ProcessParams(20, 1e-3))
        assert np.abs(mu.weights - cf.weights).max() <= 1e-10

    def test_kappa4_agreement(self):
        spec = WalkSpec.cycle(4, 0.6)
        mu = stationary_exact(spec, ProcessParams(12, 1e-2))
        cf = stationary_closed_form(spec, ProcessParams(12, 1e-2))
        assert np.abs(mu.weights - cf.weights).max() <= 1e-10


@st.composite
def _rev_or_ui_walks(draw):
    """A reversible walk (symmetric conductances over a measure) or a
    uniform-measure walk (a weighted sum of permutation matrices)."""
    kappa = draw(st.integers(2, 4))
    weights = st.floats(0.2, 2.0)
    if draw(st.booleans()):
        cond = np.zeros((kappa, kappa))
        for x in range(kappa):
            for y in range(x + 1, kappa):
                # the ring x -- x + 1 keeps the walk irreducible
                ring = y == x + 1 or (x == 0 and y == kappa - 1)
                value = draw(weights if ring else st.sampled_from([0.0, 0.5, 1.5]))
                cond[x, y] = cond[y, x] = value
        measure = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=kappa, max_size=kappa)))
        rates = cond / measure[:, None]
    else:
        # zeroing the diagonal keeps row sums equal to column sums
        rates = np.zeros((kappa, kappa))
        shift = np.roll(np.arange(kappa), 1)  # a full cycle: irreducible
        perms = [shift] + draw(st.lists(st.permutations(range(kappa)), max_size=2))
        for perm in perms:
            rates[np.arange(kappa), list(perm)] += draw(weights)
        np.fill_diagonal(rates, 0.0)
    return WalkSpec.from_matrix(rates)


class TestClosedFormAgainstSolver:
    @given(_rev_or_ui_walks(), st.integers(1, 12), st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_solver(self, walk, n, d):
        an = analyze_walk(walk)
        assert an.rev or an.ui
        params = ProcessParams(n, d)
        mu = stationary_exact(walk, params)
        cf = stationary_closed_form(walk, params)
        q = build_generator(walk, params, cf.enum)
        scale = np.abs(q.data).max()
        # stationary_exact accepts mu only when |mu Q| <= STATIONARY_TOL * max|Q|;
        # the product form is exactly stationary, so its float rounding must
        # pass the same acceptance test
        assert np.abs(cf.weights @ q).max() <= STATIONARY_TOL * scale
        # on these spaces (at most 455 states, d >= 1e-4) the LU residuals are
        # near 1e-16 * max|Q|, far inside that bound, and both weight vectors
        # are probabilities, so they agree within STATIONARY_TOL, the bound
        # the fixed-walk tests above use (1e-14 was the worst seen)
        assert np.abs(mu.weights - cf.weights).max() <= STATIONARY_TOL


class TestClosedForm:
    def test_two_site_partition_value(self, two_sym):
        cf = stationary_closed_form(two_sym, ProcessParams(2, 0.1))
        assert cf.log_norm == pytest.approx(math.log(0.12), abs=1e-12)
        assert cf.weights == pytest.approx(
            np.array([0.055, 0.01, 0.055]) / 0.12, abs=1e-14)

    def test_requires_rev_or_ui(self, up3):
        an = analyze_walk(up3)
        assert not an.rev and not an.ui
        with pytest.raises(ConditionNotSatisfied):
            stationary_closed_form(up3, ProcessParams(5, 0.1))

    def test_uniform_measure_site_ratio_is_one(self, cycle3):
        an = analyze_walk(cycle3)
        assert an.ui
        assert np.abs(an.m / an.m_star - 1.0).max() <= 1e-12


class TestRegionMasses:
    def test_two_site_masses(self, two_sym):
        mu = stationary_exact(two_sym, ProcessParams(2, 0.1))
        rep = region_masses(mu)
        assert rep.e_mass == pytest.approx(22 / 24, abs=1e-14)
        # single-occupied mass is E; all-states mass is 1
        assert rep.b_mass[0] == pytest.approx(rep.e_mass, abs=1e-14)
        assert rep.b_mass[-1] == pytest.approx(1.0, abs=1e-14)

    def test_cycle_condensation(self, cycle3):
        mu = stationary_exact(cycle3, ProcessParams(100, 1e-5))
        rep = region_masses(mu)
        assert rep.e_mass >= 0.99

    def test_region_of_another_space_is_a_mismatch(self, up3):
        mu = stationary_exact(up3, ProcessParams(5, 0.1))
        reg = RegionSpec(up3, enumerate_states(3, 6), (0, 1), eps=0.1)
        with pytest.raises(DimensionMismatch):
            region_masses(mu, [reg])

    @pytest.mark.parametrize("kappa", [2, 5])
    def test_region_of_a_walk_of_another_site_count_is_a_mismatch(self, kappa):
        # a 5-site walk over the states of 3 sites built a region of 37
        # inner-core states whose epsilon check read the 5-site rates
        with pytest.raises(DimensionMismatch, match="over the states of 3 sites"):
            RegionSpec(WalkSpec.cycle(kappa, 0.7), enumerate_states(3, 40), (0, 1), eps=0.5)

    @pytest.mark.parametrize("regions", ["x", 5, [None], (0, 1)])
    def test_rejects_regions_that_are_not_region_specs(self, up3, regions):
        # "x" raised an AttributeError
        mu = stationary_exact(up3, ProcessParams(5, 0.1))
        with pytest.raises(OutOfRange):
            region_masses(mu, regions)

    def test_rejects_a_distribution_that_is_not_one(self, up3):
        mu = stationary_exact(up3, ProcessParams(5, 0.1))
        with pytest.raises(OutOfRange):
            region_masses(mu.weights)

    def test_region_decomposition(self, up3):
        params = ProcessParams(25, 1e-3)
        mu = stationary_exact(up3, params)
        reg = RegionSpec(up3, mu.enum, (0, 1, 2), eps=0.1)
        rep = region_masses(mu, [reg]).regions[0]
        total = rep.boundary + rep.outer_core + rep.inner_core
        assert total == pytest.approx(rep.tube, rel=1e-12)
        # slices at one site partition the tube
        assert rep.slices[0].sum() == pytest.approx(rep.tube, rel=1e-12)

    def test_region_identities(self, up3):
        mu = stationary_exact(up3, ProcessParams(20, 1e-3))
        reg = RegionSpec(up3, mu.enum, (0, 1), eps=0.1)
        sub = RegionSpec(up3, mu.enum, (1,), eps=0.1)
        slices = region_masses(mu, [reg]).regions[0].slices
        # extreme slices: all particles at x, and the tube without x
        assert slices[0, 20] == mu.xi_mass(0)
        assert slices[0, 0] == pytest.approx(mu.mass(sub.tube), rel=1e-12)

    def test_slice_bound_under_up(self, up3):
        # stationary slice masses obey the flow-derived ratio bound
        params = ProcessParams(20, 1e-3)
        mu = stationary_exact(up3, params)
        an = analyze_walk(up3)
        reg = RegionSpec(up3, mu.enum, (0, 1, 2), eps=0.1)
        sl = region_masses(mu, [reg]).regions[0].slices
        n, d = params.n, params.d
        for xi in range(3):
            for k in range(n - 1):
                cap = (an.r2 * (k + d) * (n - k)
                       / (an.r1 * (k + 1) * (n - k - 1 + d)))
                assert sl[xi, k + 1] <= cap * sl[xi, k] * (1 + 1e-9)

    @pytest.mark.parametrize("eps", [2.5, 2**64])
    def test_epsilon_validation_warns(self, up3, eps):
        # a huge threshold makes the slice-growth budget exceed N; at 2**64
        # the power C0 ** threshold overflowed
        enum = enumerate_states(3, 50)
        with pytest.warns(UserWarning, match="threshold"):
            RegionSpec(up3, enum, (0, 1, 2), eps=eps)

    def test_epsilon_check_reads_the_rates(self, monkeypatch):
        # irreducible only through a subnormal rate: the walk measure is
        # refused, but the slice constant needs only the smallest positive
        # and the largest rate, so the region builds and warns
        import incproc.model
        import incproc.regions
        walk = WalkSpec.from_matrix([[0, 1, 0], [0, 0, 1], [1e-310, 0, 0]])
        monkeypatch.setattr(incproc.model, "analyze_walk", None)
        monkeypatch.setattr(incproc.regions, "analyze_walk", None, raising=False)
        with pytest.warns(UserWarning, match="C0=inf"):
            reg = RegionSpec(walk, enumerate_states(3, 20), (0, 1, 2), eps=0.5)
            assert reg.threshold == 1 and reg.check_epsilon()[1] is False

    def test_default_epsilon_is_admissible(self, up3):
        import warnings
        enum = enumerate_states(3, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RegionSpec(up3, enum, (0, 1, 2), eps=0.1)

    def test_monotone_slice_decay(self, up3):
        params = ProcessParams(20, 1e-3)
        mu = stationary_exact(up3, params)
        an = analyze_walk(up3)
        reg = RegionSpec(up3, mu.enum, (0, 1, 2), eps=0.1)
        sl = region_masses(mu, [reg]).regions[0].slices
        c1 = an.r2 / an.r1 * params.n / (params.n - 1 + params.d)
        for xi in range(3):
            assert sl[xi, 1] <= c1 * params.d * sl[xi, 0]


class TestHitting:
    @pytest.mark.parametrize("walk", ["two_sym", "up3", "cycle3", "chain4"])
    def test_rows_sum_to_one(self, walk, request):
        # from every state the walk reaches some metastable state first
        spec = request.getfixturevalue(walk)
        enum = enumerate_states(spec.kappa, 7)
        h = superlu_reduction(spec, ProcessParams(7, 0.05)).hitting
        assert h.shape == (enum.size, spec.kappa)
        assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-10

    def test_symmetric_midpoint(self, two_sym):
        h, enum = hitting_column(two_sym, ProcessParams(2, 0.1), 1)
        assert h[enum.rank((1, 1))] == pytest.approx(0.5, abs=1e-12)

    def test_no_backward_moves(self):
        spec = WalkSpec.from_matrix([[0.0, 1.0], [1e-300, 0.0]])
        h, enum = hitting_column(spec, ProcessParams(6, 0.01), 1)
        for i in range(1, 6):
            assert h[enum.rank((6 - i, i))] == pytest.approx(1.0, abs=1e-12)

    def test_target_partition_of_unity(self, up3):
        params = ProcessParams(8, 0.05)
        total = None
        for y in range(3):
            h, enum = hitting_column(up3, params, y)
            total = h if total is None else total + h
        interior = [i for i in range(enum.size)
                    if i not in {enum.xi_index(x) for x in range(3)}]
        assert np.abs(total[interior] - 1.0).max() <= 1e-10

    def test_against_monte_carlo_absorption(self, up3):
        # independent oracle: direct jump-chain absorption frequencies
        from incproc.simulate import _Blocks, _philox_key
        from reference import draw
        params = ProcessParams(4, 0.3)
        h, enum = hitting_column(up3, params, 2)
        start = (2, 1, 1)
        targets = {enum.xi_index(x): x for x in range(3)}
        runs = 100_000
        blocks = _Blocks(_philox_key(99, 0))
        moves = [(x, y, up3.rates[x, y]) for x in range(3) for y in range(3)
                 if x != y and up3.rates[x, y] > 0]
        wins = 0
        for _ in range(runs):
            counts = list(start)
            while True:
                rates = [counts[x] * (params.d + counts[y]) * r
                         for x, y, r in moves]
                total = sum(rates)
                u = draw(blocks, "uniform") * total
                acc = 0.0
                for k, rate in enumerate(rates):
                    acc += rate
                    if u <= acc:
                        break
                x, y, _ = moves[k]
                counts[x] -= 1
                counts[y] += 1
                if max(counts) == params.n:
                    wins += counts.index(params.n) == 2
                    break
        p_exact = h[enum.rank(start)]
        sigma = math.sqrt(p_exact * (1 - p_exact) / runs)
        assert abs(wins / runs - p_exact) <= 3 * sigma


class TestMeanJumpRate:
    def test_two_site_symmetric_value(self, two_sym):
        tr = mean_jump_rate_exact(two_sym, ProcessParams(2, 0.1), (0, 1))
        assert tr.raw[0, 1] == pytest.approx(0.1, abs=1e-15)
        assert tr.normalized[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_totally_asymmetric_value(self):
        spec = WalkSpec.from_matrix([[0.0, 1.0], [1e-300, 0.0]])
        tr = mean_jump_rate_exact(spec, ProcessParams(5, 0.01), (0, 1))
        assert tr.raw[0, 1] == pytest.approx(0.05, rel=1e-12)

    def test_cycle_approaches_drift(self, cycle3):
        tr = mean_jump_rate_exact(cycle3, ProcessParams(60, 1e-6), (0, 1, 2))
        assert tr.normalized[0, 1] == pytest.approx(0.4, rel=0.05)
        assert tr.normalized[0, 2] < 0.01

    def test_trace_stationary_matches_conditioned_measure(self, up3):
        params = ProcessParams(12, 0.05)
        mu = stationary_exact(up3, params)
        tr = mean_jump_rate_exact(up3, params, (0, 1, 2))
        nu = tr.stationary()
        cond = np.array([mu.xi_mass(x) for x in range(3)])
        cond /= cond.sum()
        assert np.abs(nu - cond).max() <= 1e-8

    def test_row_sum_escape_minus_return(self, up3):
        params = ProcessParams(12, 0.05)
        tr = mean_jump_rate_exact(up3, params, (0, 1, 2))
        h0, enum = hitting_column(up3, params, 0)
        lam = up3.holding
        escape = tr.raw[0, 1] + tr.raw[0, 2]
        ret = sum(params.n * params.d * up3.rates[0, z]
                  * h0[enum.rank(tuple(params.n - 1 if i == 0 else (1 if i == z else 0)
                                       for i in range(3)))]
                  for z in (1, 2))
        assert escape == pytest.approx(params.n * params.d * lam[0] - ret,
                                       rel=1e-10)


class TestFlows:
    def test_two_site_example(self, two_sym):
        params = ProcessParams(2, 0.1)
        mu = stationary_exact(two_sym, params)
        up, down = flow_profile(two_sym, params, mu, (0, 1), 0)
        assert up[0] == pytest.approx(11 / 120, abs=1e-14)
        assert down[0] == pytest.approx(11 / 120, abs=1e-14)

    @pytest.mark.parametrize("kappa,n", [(4, 9), (2, 4), (3, 5)])
    def test_refuses_a_walk_of_another_space(self, cycle3, kappa, n):
        # a 4-site walk at N = 9 over the 3-site, N = 4 law gave flows, and a
        # 2-site walk raised a bare IndexError
        mu = stationary_exact(cycle3, ProcessParams(4, 0.1))
        with pytest.raises(DimensionMismatch):
            flow_profile(WalkSpec.cycle(kappa, 0.7), ProcessParams(n, 0.1), mu, (0, 1), 0)

    @pytest.mark.parametrize("walk,r_set,x", [("up3", (0, 1, 2), 0), ("up3", (0, 1), 1),
                                              ("cycle3", (0, 2), 2), ("chain4", (1, 2), 1),
                                              ("chain4", (0, 1, 2, 3), 3)])
    def test_profile_matches_loop_over_moves(self, walk, r_set, x, request):
        # level k of the profile, read one state and one move at a time
        spec = request.getfixturevalue(walk)
        params = ProcessParams(6, 0.2)
        mu = stationary_exact(spec, params)
        enum = mu.enum
        up, down = flow_profile(spec, params, mu, r_set, x)
        assert up.shape == down.shape == (params.n,)
        want_up, want_down = np.zeros(params.n), np.zeros(params.n)
        for i, eta in enumerate(enum.counts_matrix().tolist()):
            if any(eta[z] for z in range(spec.kappa) if z not in r_set):
                continue
            for y in r_set:
                if y != x and eta[y] >= 1:
                    want_up[eta[x]] += (mu.weights[i] * eta[y] * (params.d + eta[x])
                                        * spec.rates[y, x])
                if y != x and eta[x] >= 1:
                    want_down[eta[x] - 1] += (mu.weights[i] * eta[x] * (params.d + eta[y])
                                              * spec.rates[x, y])
        assert want_up.any() and want_down.any()
        assert up == pytest.approx(want_up, rel=1e-12, abs=1e-300)
        assert down == pytest.approx(want_down, rel=1e-12, abs=1e-300)

    def test_full_set_flow_symmetry(self, up3):
        params = ProcessParams(20, 1e-3)
        mu = stationary_exact(up3, params)
        for x in range(3):
            up, down = flow_profile(up3, params, mu, (0, 1, 2), x)
            assert np.abs(up - down).max() <= 1e-12


def _brute_reciprocal(n, k):
    total = Fraction(0)

    def rec(rem, parts, prod):
        nonlocal total
        if parts == 1:
            total += prod / rem
            return
        for a in range(1, rem - parts + 2):
            rec(rem - a, parts - 1, prod / a)

    rec(n, k, Fraction(1))
    return total


def _loop_reciprocal_table(n_max, k_max, exact):
    """The O(k n^2) recursion on the last part that the Stirling recurrence
    replaced, kept as a reference."""
    one = Fraction(1) if exact else 1.0
    inv = [None] + [one / m for m in range(1, n_max + 1)]
    table = [[None] * (n_max + 1) for _ in range(k_max + 1)]
    for n in range(1, n_max + 1):
        table[1][n] = inv[n]
    for k in range(2, k_max + 1):
        for n in range(k, n_max + 1):
            acc = table[k - 1][n - 1] * inv[1]
            for m in range(2, n - k + 2):
                acc += table[k - 1][n - m] * inv[m]
            table[k][n] = acc
    return table


def _float_stirling_table(n_max, k_max):
    """The float Stirling recurrence on ``[n k] / n!`` as it stood when exact
    mode moved to integers, kept as a reference: float mode must not change."""
    table = [[0.0] * (n_max + 1) for _ in range(k_max + 1)]
    table[0][0] = 1.0
    for m in range(n_max):
        for k in range(1, k_max + 1):
            table[k][m + 1] = (m * table[k][m] + table[k - 1][m]) / (m + 1)
    factorial = 1.0
    for k in range(1, k_max + 1):
        factorial *= k
        table[k] = [factorial * t for t in table[k]]
    return table


class TestReciprocalSums:
    def test_exact_table_matches_loop(self):
        ref = _loop_reciprocal_table(300, 6, exact=True)
        table = reciprocal_sum_table(300, 6)
        for k in range(1, 7):
            for n in range(k, 301):
                assert isinstance(table[k][n], Fraction)
                assert table[k][n] == ref[k][n], (n, k)

    def test_float_table_matches_loop(self):
        ref = _loop_reciprocal_table(600, 8, exact=False)
        for n in range(1, 601):
            column = reciprocal_sum_column(n, 8)
            for k in range(1, min(n, 8) + 1):
                assert column[k] == pytest.approx(ref[k][n], rel=1e-12, abs=0), (n, k)

    def test_float_table_is_bit_identical(self):
        # column n of the float table that the column replaced, at every n
        for n_max, k_max in ((600, 8), (5, 8)):
            table = _float_stirling_table(n_max, k_max)
            for n in range(n_max + 1):
                assert reciprocal_sum_column(n, k_max) == [row[n] for row in table], n

    def test_exact_sum_matches_table(self):
        table = reciprocal_sum_table(300, 8)
        for n in (1, 2, 9, 57, 200, 299, 300):
            for k in range(1, min(n, 8) + 1):
                value = reciprocal_sum(n, k).value
                assert isinstance(value, Fraction)
                assert value == table[k][n], (n, k)

    def test_empty_compositions_are_zero(self):
        table = reciprocal_sum_table(5, 3)
        assert table[0][0] == 1
        assert all(table[k][n] == 0 for k in range(1, 4) for n in range(k))

    def test_largest_float_sum_is_fast(self):
        start = time.perf_counter()
        res = reciprocal_sum(10_000, 8)
        assert time.perf_counter() - start < 1.0
        assert res.within_bound


    def test_single_part(self):
        for n in (1, 7, 50):
            assert reciprocal_sum(n, 1).value == Fraction(1, n)

    def test_spot_values(self):
        assert reciprocal_sum(3, 2).value == Fraction(1)
        assert reciprocal_sum(4, 2).value == Fraction(11, 12)

    def test_recursion_matches_enumeration(self):
        for n in range(1, 11):
            for k in range(1, min(n, 5) + 1):
                assert reciprocal_sum(n, k).value == _brute_reciprocal(n, k)

    def test_bound_small_grid(self):
        for n in range(1, 61):
            for k in range(1, min(n, 6) + 1):
                assert reciprocal_sum(n, k).within_bound

    def test_float_mode_beyond_exact_limit(self):
        res = reciprocal_sum(1000, 3)
        assert isinstance(res.value, float)
        assert res.within_bound

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            reciprocal_sum(5, 6)
        with pytest.raises(OutOfRange):
            reciprocal_sum(20_000, 2)

    @pytest.mark.parametrize("n,k", [(12.0, 2), (12, 2.0), (12.5, 2), (True, 1),
                                     (3, True)])
    def test_rejects_non_integer_arguments(self, n, k):
        with pytest.raises(OutOfRange):
            reciprocal_sum(n, k)

    def test_bound_helper_exact_at_k1(self):
        # the k = 1 bound is an equality; rational comparison must accept it
        assert reciprocal_bound_holds(Fraction(1, 3), 3, 1)


@pytest.mark.parametrize("call", [
    lambda walk: ProcessParams(0, 0.1),
    lambda walk: flow_profile(walk, ProcessParams(4, 0.1),
                              stationary_exact(walk, ProcessParams(4, 0.1)), (0, 1), 2),
    *[lambda walk, x=x: flow_profile(walk, ProcessParams(4, 0.1),
                                     stationary_exact(walk, ProcessParams(4, 0.1)), (0, 1), x)
      for x in (1.0, True)],
    lambda walk: flow_profile(walk, ProcessParams(4, 0.1),
                              stationary_exact(walk, ProcessParams(4, 0.1)), (0, 1.0), 0),
    *[lambda walk, x=x: mean_jump_rate_exact(walk, ProcessParams(4, 0.1), (0, x))
      for x in (1.0, True)],
    *[lambda walk, x=x: RegionSpec(walk, enumerate_states(3, 4), (0, x))
      for x in (1.0, True)],
], ids=["params_n_zero", "flow_site_outside_r", "flow_profile_site_float",
        "flow_profile_site_bool", "flow_profile_r_set_float", "trace_site_float",
        "trace_site_bool", "region_site_float", "region_site_bool"])
def test_bad_arguments_raise_incproc_error(up3, call):
    with pytest.raises(IncprocError):
        call(up3)
