import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import (Configuration, IncprocError, NonIrreducibleWalk,
                     OutOfRange, ProcessParams, WalkSpec, analyze_walk, asymptotics,
                     log_weight_table, region_masses, schedule_fixed, schedule_power,
                     states, stationary_exact, thermo)
from incproc.asymptotics import _harmonics
from incproc.model import site_set
from reference import local_kinetics, relative_miss, stationary_law


def _loop_pair_constants(spec, m):
    """q_pair, q and rev as the double loops that analyze_walk replaced."""
    r = spec.rates
    kappa = spec.kappa
    q_pair = np.full((kappa, kappa), np.nan)
    q = 0.0
    for x in range(kappa):
        for y in range(kappa):
            if x == y:
                continue
            hi = max(r[x, y], r[y, x])
            if hi > 0:
                lo = min(r[x, y], r[y, x])
                q_pair[x, y] = lo / hi
                if r[x, y] != r[y, x]:
                    q = max(q, lo / hi)
    rev = True
    for x in range(kappa):
        for y in range(kappa):
            if abs(m[x] * r[x, y] - m[y] * r[y, x]) > 1e-12:
                rev = False
    return q_pair, q, rev


@st.composite
def _walks(draw):
    """Irreducible walks; about half are symmetrized, so reversible."""
    kappa = draw(st.integers(2, 6))
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.5, 1.0, 2.0]),
                           min_size=kappa * kappa, max_size=kappa * kappa))
    rates = np.array(values).reshape(kappa, kappa)
    if draw(st.booleans()):
        rates = rates + rates.T
    rates += np.roll(np.eye(kappa), 1, axis=1) * 0.25   # a cycle: irreducible
    np.fill_diagonal(rates, 0.0)
    return WalkSpec.from_matrix(rates)


@st.composite
def _dyadic_walks(draw):
    """Irreducible walks whose rates are powers of two from 2**-30 to 2**4,
    or zero: measures that span many orders of magnitude."""
    kappa = draw(st.integers(2, 6))
    exponents = draw(st.lists(st.one_of(st.none(), st.integers(-30, 4)),
                              min_size=kappa * kappa, max_size=kappa * kappa))
    rates = np.array([0.0 if e is None else 2.0 ** e for e in exponents]).reshape(kappa, kappa)
    rates += np.roll(np.eye(kappa), 1, axis=1) * 2.0 ** -20   # a cycle: irreducible
    np.fill_diagonal(rates, 0.0)
    return WalkSpec.from_matrix(rates)


class TestAnalyzeWalk:
    def test_doubly_stochastic_cycle(self, cycle3):
        an = analyze_walk(cycle3)
        assert np.allclose(an.m, 1.0 / 3.0, atol=1e-14)
        assert an.ui and not an.rev
        assert an.up
        assert an.q == pytest.approx(3.0 / 7.0, abs=1e-15)

    def test_two_site_balance(self, two_asym):
        an = analyze_walk(two_asym)
        assert an.m == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-14)
        assert an.rev and not an.ui
        assert an.m_star == pytest.approx(2.0 / 3.0)
        assert an.s_max == (1,)

    def test_constants(self, up3):
        an = analyze_walk(up3)
        assert an.r1 == 0.3
        assert an.r2 == 1.2
        assert an.lam == pytest.approx(1.5)  # max row sum
        assert an.up

    def test_q_pair_symmetric(self, up3):
        an = analyze_walk(up3)
        qp = an.q_pair
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert qp[x, y] == pytest.approx(qp[y, x], abs=0)

    def test_q_zero_when_all_pairs_symmetric(self, two_sym):
        assert analyze_walk(two_sym).q == 0.0

    @given(_walks())
    @settings(max_examples=150, deadline=None)
    def test_pair_constants_match_loops(self, walk):
        an = analyze_walk(walk)
        q_pair, q, rev = _loop_pair_constants(walk, an.m)
        assert np.array_equal(an.q_pair, q_pair, equal_nan=True)
        assert an.q == q
        assert an.rev is rev

    def test_pair_constants_match_loops_on_fixtures(self, cycle3, two_asym, up3, chain4):
        # the last cycle misses detailed balance by about 1e-7 per pair
        for walk in (cycle3, two_asym, up3, chain4, WalkSpec.cycle(3, 0.5 + 1e-7)):
            an = analyze_walk(walk)
            q_pair, q, rev = _loop_pair_constants(walk, an.m)
            assert np.array_equal(an.q_pair, q_pair, equal_nan=True)
            assert (an.q, an.rev) == (q, rev)

    @pytest.mark.parametrize("kappa, down", [(5, 1e-2), (5, 1e-4), (6, 1e-3), (6, 1e-8)])
    def test_birth_death_measure_matches_the_rational_solve(self, kappa, down):
        # up-rate 1, down-rate `down`: the measure spans a factor down**(1 - kappa),
        # 1e40 at (6, 1e-8); the dense balance solve missed it by 1.1e-11,
        # 2.9e-9, 2.8e-5 and 1.4e15 relative
        rates = np.diag(np.ones(kappa - 1), 1) + np.diag(np.full(kappa - 1, down), -1)
        m = analyze_walk(WalkSpec.from_matrix(rates)).m
        assert relative_miss(m, stationary_law(rates)) <= 1e-14

    @given(_dyadic_walks())
    @settings(max_examples=100, deadline=None)
    def test_measure_matches_the_rational_solve(self, walk):
        assert relative_miss(analyze_walk(walk).m, stationary_law(walk.rates)) <= 1e-14

    def test_stationarity_residual(self, up3):
        an = analyze_walk(up3)
        lam = up3.holding
        for y in range(3):
            inflow = sum(an.m[x] * up3.rates[x, y] for x in range(3))
            assert abs(inflow - an.m[y] * lam[y]) <= 1e-12


class TestWalkSpec:
    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            WalkSpec(("a",), np.zeros((1, 1)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            WalkSpec.from_matrix([[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_non_irreducible(self):
        with pytest.raises(NonIrreducibleWalk):
            WalkSpec.from_matrix([[0.0, 1.0], [0.0, 0.0]])

    def test_nan_residual_is_refused(self):
        # subnormal rates: a dense balance solve gave the measure [inf, -inf,
        # -0.5], whose residual is nan; without its subnormal rates the walk
        # only jumps 2 -> 1
        walk = WalkSpec.from_matrix([[0, 5e-324, 0], [5e-324, 0, 5e-324], [5e-324, 2, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonIrreducibleWalk,
                               match=r"4 subnormal rates, at \[\(0, 1\), \(1, 0\)"):
                analyze_walk(walk)

    def test_singular_solve_is_refused(self):
        # subnormal rates whose balance system is singular in floats: a dense
        # solve raised a bare LinAlgError; without them the walk has two
        # closed classes, {0, 4} and {1, 2}
        t = 5e-324
        walk = WalkSpec.from_matrix([[0, t, 0, 0, 0.701031981], [0, 0, 0.940526789, 0, 0],
                                     [0, 0.739747656, 0, t, 0], [t, 0.99999, t, 0, 3.0],
                                     [0.590747174, t, 0, 0, 0]])
        with pytest.raises(NonIrreducibleWalk, match="reached from every other.*5 subnormal"):
            analyze_walk(walk)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_rates(self, rate):
        with pytest.raises(OutOfRange):
            WalkSpec.from_matrix([[0.0, rate], [1.0, 0.0]])

    @pytest.mark.parametrize("kappa, p", [(True, 0.7), (3.0, 0.7), (1, 0.5), (-2, 0.5),
                                          (1 << 40, 0.5), ("3", 0.7), (3, "a"), (3, None),
                                          (3, 1.5), (3, -0.1), (3, True)])
    def test_cycle_rejects_bad_arguments(self, kappa, p):
        # (True, 0.7) and (3.0, 0.7) raised a bare TypeError, (-2, 0.5) a
        # numpy ValueError; 2**40 sites would allocate before any check
        with pytest.raises(OutOfRange):
            WalkSpec.cycle(kappa, p)

    @pytest.mark.parametrize("rates", ["x", 5.0, None, [[0, "a"], [1, 0]], [1.0, 2.0],
                                       [[0, 1j], [1, 0]]])
    def test_from_matrix_rejects_what_is_not_a_numeric_matrix(self, rates):
        # "x" raised a bare ValueError and 5.0 an IndexError
        with pytest.raises(OutOfRange):
            WalkSpec.from_matrix(rates)

    def test_json_round_trip(self, up3):
        doc = json.dumps({"sites": list(up3.sites), "rates": up3.rates.tolist()})
        again = WalkSpec.from_json(doc)
        assert again.sites == up3.sites
        assert np.array_equal(again.rates, up3.rates)

    def test_json_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WalkSpec.from_json({"sites": ["a", "b"], "rates": [[0.0, 1.0]]})

    def test_json_rejects_unknown_keys(self):
        doc = {"sites": ["a", "b"], "rates": [[0, 1], [1, 0]], "extra": 1}
        with pytest.raises(ValueError, match="unknown"):
            WalkSpec.from_json(doc)

    @pytest.mark.parametrize("doc, field", [
        (5, "object"), ("5", "object"), ("{bad", "JSON"),
        ({"sites": 5, "rates": [[0, 1], [1, 0]]}, "'sites'"),
        ({"sites": ["a", "b"], "rates": [[0, "x"], [1, 0]]}, "'rates'"),
        ({"sites": ["a", "b"], "rates": 7}, "shape")],
        ids=["number", "json-number", "json-malformed", "sites-number", "rates-string",
             "rates-scalar"])
    def test_json_rejects_malformed_documents(self, doc, field):
        with pytest.raises(IncprocError, match=field):
            WalkSpec.from_json(doc)


class TestSiteSet:
    @pytest.mark.parametrize("sites", [range(5), range(4, -1, -1), range(1, 5, 2),
                                       np.array([3, 1, 3, 0]), np.array([4, 0], dtype=np.uint8)])
    def test_a_range_or_an_integer_array_names_its_entries(self, sites):
        got = site_set(sites, 5)
        assert got == site_set([int(x) for x in sites], 5)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("sites", [range(0), range(-1, 3), range(6), range(5, -1, -1),
                                       np.array([], dtype=np.int64), np.array([0, 5]),
                                       np.array([-1, 2]), np.array([[0, 1]])])
    def test_a_bad_range_or_integer_array_is_refused(self, sites):
        with pytest.raises(OutOfRange):
            site_set(sites, 5)


class TestConfiguration:
    def test_single_site(self):
        assert Configuration.single_site(3, 5, 2).counts == (0, 0, 5)
        assert Configuration.single_site(3, 5, np.int64(0)).counts == (5, 0, 0)

    @pytest.mark.parametrize("x", [-1, 3, 7, 1.0, "1", True])
    def test_single_site_rejects_a_site_off_the_walk(self, x):
        with pytest.raises(OutOfRange):
            Configuration.single_site(3, 5, x)

    @pytest.mark.parametrize("kappa, n", [(1.5, 5), ("2", 5), (None, 5), (2**64, 5), (0, 5),
                                          (3, 1.5), (3, -1), (3, 2**64)])
    def test_single_site_rejects_a_bad_site_count_or_particle_count(self, kappa, n):
        # a kappa of 1.5, "2" or None raised a bare TypeError, and 2**64 an OverflowError
        with pytest.raises(OutOfRange):
            Configuration.single_site(kappa, n, 0)

    @pytest.mark.parametrize("counts", [(1.5, 1), (True, 1), (-1, 2)],
                             ids=["float", "bool", "negative"])
    def test_rejects_counts_that_are_not_particle_counts(self, counts):
        with pytest.raises(OutOfRange):
            Configuration(counts)


class TestKinetics:
    def test_example_rates(self, two_sym):
        kin = local_kinetics(two_sym, ProcessParams(3, 0.1), (2, 1))
        rates = {(x, y): r for x, y, r in kin.moves}
        assert rates[(0, 1)] == pytest.approx(2 * 1.1)
        assert rates[(1, 0)] == pytest.approx(1 * 2.1)
        assert kin.holding == pytest.approx(4.3)

    def test_metastable_holding(self):
        spec = WalkSpec.from_matrix([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5],
                                     [0.5, 0.5, 0.0]])
        kin = local_kinetics(spec, ProcessParams(5, 0.01), (5, 0, 0))
        # escape rate N * d * lambda(x) with lambda = 1
        assert kin.holding == pytest.approx(5 * 0.01 * 1.0)

    def test_tube_holding_formula(self, up3):
        n, d, i = 9, 0.02, 4
        x, y = 0, 1
        eta = [0, 0, 0]
        eta[x], eta[y] = n - i, i
        kin = local_kinetics(up3, ProcessParams(n, d), tuple(eta))
        lam = up3.holding
        expected = (i * (n - i) * (up3.rates[x, y] + up3.rates[y, x])
                    + d * ((n - i) * lam[x] + i * lam[y]))
        assert kin.holding == pytest.approx(expected, rel=1e-14)

    def test_rate_decomposition(self, up3):
        # attraction part plus diffusion part, exactly
        d = 0.07
        kin = local_kinetics(up3, ProcessParams(6, d), (3, 2, 1))
        eta = (3, 2, 1)
        for x, y, rate in kin.moves:
            r = up3.rates[x, y]
            assert rate == pytest.approx(eta[x] * eta[y] * r + d * eta[x] * r,
                                         rel=1e-15)

    def test_probs_sum_to_one(self, up3):
        kin = local_kinetics(up3, ProcessParams(6, 0.3), (2, 2, 2))
        assert sum(p for _, _, p in kin.probs) == pytest.approx(1.0, abs=1e-12)


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProcessParams(0, 0.1)
        with pytest.raises(ValueError):
            ProcessParams(5, 0.0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(OutOfRange):
            ProcessParams(n, 0.1)

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_rejects_non_finite_d(self, d):
        with pytest.raises(OutOfRange):
            ProcessParams(5, d)

    @pytest.mark.parametrize("d", ["0.1", None, True, 1j, [0.1]])
    def test_rejects_non_real_d(self, d):
        with pytest.raises(OutOfRange):
            ProcessParams(4, d)

    def test_accepts_numpy_integer_n(self):
        assert ProcessParams(np.int64(5), 0.1).n == 5

    def test_accepts_numpy_and_integer_d(self):
        assert ProcessParams(5, np.float64(0.1)).d == 0.1
        assert ProcessParams(5, 1).d == 1

    def test_schedules_deterministic(self):
        pw = schedule_power(2.0, 3.0)
        assert pw(10) == pw(10) == 2.0 * 10.0 ** -3
        assert schedule_fixed(1e-4)(999) == 1e-4

    @pytest.mark.parametrize("make", [lambda: schedule_fixed(-1.0),
                                      lambda: schedule_fixed(math.nan),
                                      lambda: schedule_power(math.nan, 1),
                                      lambda: schedule_power(1.0, math.inf)],
                             ids=["fixed-negative", "fixed-nan", "power-nan-coeff",
                                  "power-inf-exponent"])
    def test_schedules_refuse_a_value_that_is_no_d(self, make):
        with pytest.raises(OutOfRange):
            make()

    @pytest.mark.parametrize("n, d", [(True, 0.1), (2.0, 0.1), (-1, 0.1), (3, math.nan),
                                      (3, -1), (3, 0.0), (3, True)],
                             ids=["n-bool", "n-float", "n-negative", "d-nan", "d-negative",
                                  "d-zero", "d-bool"])
    def test_weight_table_refuses_bad_arguments(self, n, d):
        with pytest.raises(OutOfRange):
            log_weight_table(n, d)

    def test_weight_table(self):
        logw = log_weight_table(2, 0.1)
        assert math.exp(logw[0]) == pytest.approx(1.0)
        assert math.exp(logw[1]) == pytest.approx(0.1)
        assert math.exp(logw[2]) == pytest.approx(0.055)

    @pytest.mark.parametrize("n", [0, 30, 1024, 49_152])
    def test_weight_table_matches_loop(self, n):
        def loop(d):
            logw = np.zeros(n + 1)
            for k in range(1, n + 1):
                logw[k] = logw[k - 1] + math.log((k - 1 + d) / k)
            return logw

        for d in (1e-16, 1e-8, 1e-4, 1e-3, 0.1, 0.5, 0.7):
            assert np.array_equal(log_weight_table(n, d), loop(d)), d


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # from Python 3.12 the builtin sum adds floats with compensated summation;
    # emulated here with math.fsum, it must not move the harmonic numbers,
    # the torus channel rows or the condensate mass of a stationary law
    torus = thermo.build_torus(2, 5, {(1, 0): 0.1, (-1, 0): 0.2, (0, 1): 0.4,
                                      (0, -1): 0.3}, rho=1.0, d_l=0.05)
    rng = np.random.default_rng(5)
    walks = []
    for i in range(60):
        rates = rng.uniform(0.1, 1.0, (3 + i % 3, 3 + i % 3))
        np.fill_diagonal(rates, 0.0)
        walks.append(WalkSpec.from_matrix(rates))

    values = {
        "harmonic": lambda: _harmonics(199).tolist(),
        "channels": lambda: thermo._Channels(torus).rows.tolist(),
        "E_mass": lambda: [region_masses(stationary_exact(w, ProcessParams(6, 0.3))).e_mass
                           for w in walks],
    }
    before = {name: value() for name, value in values.items()}
    left_to_right = [0.0]
    for j in range(1, 200):
        left_to_right.append(left_to_right[-1] + 1.0 / j)
    assert before["harmonic"] == left_to_right
    for module in (asymptotics, states, thermo):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    for name, value in values.items():
        assert value() == before[name], name
