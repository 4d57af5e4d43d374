import importlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import (ErrorScale, NonIrreducibleWalk, NotSemiAttracting,
                     NotSkewSymmetric, OutOfRange, PremiseViolated, ProcessParams,
                     WalkSpec, analyze_walk, classify, gordan_certificate,
                     limit_chain, mean_jump_rate_exact, predicted_mean_rate,
                     stationary_exact)
from incproc import test_function as make_test_function
from incproc.model import dense_stationary
from incproc.asymptotics import _harmonic


def _closure(adj):
    """Reflexive transitive closure of a boolean adjacency (Warshall)."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= np.outer(reach[:, k], reach[k])
    return reach


def _closure_classification(walk):
    """Components, terminal components, s0 and irreducible_on_s0 of the
    drift digraph, read off its transitive closure."""
    r = walk.rates
    reach = _closure(r - r.T > 0)
    comps = sorted({tuple(np.flatnonzero(reach[x] & reach[:, x]).tolist())
                    for x in range(walk.kappa)})
    terminal = [c for c in comps if set(np.flatnonzero(reach[c[0]]).tolist()) <= set(c)]
    s0 = tuple(sorted(v for c in terminal for v in c))
    return tuple(comps), tuple(terminal), s0, len(terminal) == 1


@st.composite
def _rate_matrices(draw):
    kappa = draw(st.integers(2, 6))
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
                           min_size=kappa * kappa, max_size=kappa * kappa))
    rates = np.array(values).reshape(kappa, kappa)
    np.fill_diagonal(rates, 0.0)
    return rates


def _check_against_closure(walk):
    cls = classify(walk)
    assert (cls.components, cls.terminal_components, cls.s0,
            cls.irreducible_on_s0) == _closure_classification(walk)
    if cls.symmetric_on_s0 and cls.is_attracting(cls.s0):
        sub = walk.rates[np.ix_(cls.s0, cls.s0)]
        if _closure(sub > 0).all():
            assert limit_chain(walk, cls, "rv").sites == cls.s0
        else:
            with pytest.raises(PremiseViolated, match="not irreducible"):
                limit_chain(walk, cls, "rv")


def _loop_drift(walk, r_set, n, d, eps):
    """The scalar drift loop of ``test_function``, one state and one move at a
    time (reference): (drift, row sums, oscillation)."""
    from incproc import RegionSpec
    from incproc.states import StateEnumeration
    rmat = walk.rates
    q = np.array([[rmat[x, y] - rmat[y, x] for y in r_set] for x in r_set])
    cert = gordan_certificate(q)
    coeff = cert.vector
    enum = StateEnumeration(walk.kappa, n)
    reg = RegionSpec(walk, enum, r_set, eps=eps)
    counts = enum.counts_matrix()
    hmax = np.zeros(n + 2)
    for k in range(1, n + 2):
        hmax[k] = hmax[k - 1] + 1.0 / k
    col = {x: i for i, x in enumerate(r_set)}

    def f0_of(row) -> float:
        return float(sum(coeff[col[x]] * hmax[row[x]] for x in r_set))

    inner = reg.inner_core
    closure_vals = {int(i): f0_of(counts[i]) for i in reg.inner_closure}
    oscillation = 0.0
    if closure_vals:
        vals = np.array(list(closure_vals.values()))
        oscillation = float(vals.max() - vals.min())
    drift = np.zeros(inner.size)
    row_sums = np.zeros(inner.size)
    for pos, i in enumerate(inner):
        s = counts[i]
        f_here = closure_vals[int(i)]
        w_state = 0.0
        for x in r_set:
            for y in r_set:
                if x == y:
                    continue
                w_state += s[x] * (d + s[y]) * rmat[x, y]
        acc = 0.0
        rs = 0.0
        for x in r_set:
            if s[x] == 0:
                continue
            for y in r_set:
                if y == x:
                    continue
                weight = s[y] * (d + s[x]) * rmat[y, x]
                if weight == 0.0:
                    continue
                moved = s.astype(np.int64).copy()
                moved[x] -= 1
                moved[y] += 1
                j = enum.rank(tuple(int(v) for v in moved))
                f_there = closure_vals.get(j)
                if f_there is None:
                    f_there = f0_of(counts[j])
                acc += weight * (f_there - f_here)
                rs += weight
        drift[pos] = acc / w_state
        row_sums[pos] = rs / w_state
    return drift, row_sums, oscillation


def _assert_drift_matches_loop(walk, r_set, n, d, eps):
    tf = make_test_function(walk, r_set, n=n, d=d, eps=eps)
    drift, row_sums, oscillation = _loop_drift(walk, r_set, n, d, eps)
    assert np.array_equal(tf.drift, drift)
    assert tf.oscillation == oscillation
    if drift.size:
        assert tf.min_drift == drift.min()
        assert tf.row_sum_range == (row_sums.min(), row_sums.max())


@st.composite
def _walks_positive_in_r(draw):
    """A walk and a site set R of at least two sites with every rate inside R
    positive; rates are dyadic, so the drift matrix on R is exact."""
    kappa = draw(st.integers(2, 4))
    r_set = tuple(sorted(draw(st.sets(st.integers(0, kappa - 1), min_size=2))))
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                           min_size=kappa * kappa, max_size=kappa * kappa))
    rates = np.array(values).reshape(kappa, kappa)
    for x in r_set:
        for y in r_set:
            if rates[x, y] == 0.0:
                rates[x, y] = 0.75
    for x in range(kappa):  # a cycle through every site keeps the walk irreducible
        rates[x, (x + 1) % kappa] = max(rates[x, (x + 1) % kappa], 0.5)
    np.fill_diagonal(rates, 0.0)
    return WalkSpec.from_matrix(rates), r_set


class TestClassify:
    @pytest.mark.parametrize("name", ["cycle3", "two_sym", "two_asym", "up3", "chain4"])
    def test_against_closure_fixtures(self, name, request):
        _check_against_closure(request.getfixturevalue(name))

    def test_against_closure_split_recurrent_set(self):
        # drift 1 -> 0 and 1 -> 2: s0 = {0, 2} is attracting and symmetric,
        # but the walk restricted to it has no edges, so "rv" must refuse it
        walk = WalkSpec.from_matrix([[0.0, 1.0, 0.0],
                                     [2.0, 0.0, 2.0],
                                     [0.0, 1.0, 0.0]])
        assert classify(walk).terminal_components == ((0,), (2,))
        _check_against_closure(walk)

    @given(_rate_matrices())
    @settings(max_examples=150, deadline=None)
    def test_against_closure_random(self, rates):
        if not _closure(rates > 0).all():
            with pytest.raises(NonIrreducibleWalk):
                WalkSpec.from_matrix(rates)
            return
        _check_against_closure(WalkSpec.from_matrix(rates))

    def test_cycle_recurrent_everywhere(self, cycle3):
        cls = classify(cycle3)
        assert cls.s0 == (0, 1, 2)
        assert cls.irreducible_on_s0
        assert not cls.symmetric_on_s0

    def test_chain_example(self, chain4):
        cls = classify(chain4)
        assert cls.s0 == (1, 2)
        assert not cls.irreducible_on_s0          # no drift edges inside S0
        assert cls.symmetric_on_s0
        assert cls.is_attracting((1, 2))
        assert len(cls.terminal_components) == 2

    @pytest.mark.parametrize("a_set", [(1.5, 2.7), (True, 2), (1, 7), (), 5, None])
    def test_attracting_checks_refuse_a_bad_site_set(self, chain4, a_set):
        # (1.5, 2.7) and (True, 2) were read as (1, 2), and (1, 7) raised a bare IndexError
        cls = classify(chain4)
        for check in (cls.is_attracting, cls.is_semi_attracting):
            with pytest.raises(OutOfRange):
                check(a_set)

    def test_s0_always_semi_attracting(self, cycle3, chain4, up3, two_sym):
        for spec in (cycle3, chain4, up3, two_sym):
            cls = classify(spec)
            assert cls.is_semi_attracting(cls.s0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_s0_semi_attracting_random(self, seed):
        rng = np.random.Generator(np.random.Philox(key=(11, seed)))
        kappa = int(rng.integers(2, 6))
        rates = rng.random((kappa, kappa)) * (rng.random((kappa, kappa)) < 0.7)
        np.fill_diagonal(rates, 0.0)
        rates += np.eye(kappa, k=1, M=kappa) * 0.5  # keep it irreducible
        rates[kappa - 1, 0] += 0.5
        cls = classify(WalkSpec.from_matrix(rates))
        assert cls.is_semi_attracting(cls.s0)
        assert len(cls.s0) >= 1

    def test_symmetric_walk_everything_recurrent(self, two_sym):
        cls = classify(two_sym)
        assert cls.s0 == (0, 1)
        assert cls.symmetric_on_s0


def _loop_limit_rates(walk, cls, mode):
    """The limit chain's rates as the loop that limit_chain replaced with
    one ``np.ix_`` restriction: of b for ``nrv``, of the walk for ``rv``."""
    source = cls.b if mode == "nrv" else walk.rates
    s0 = cls.s0
    idx = {x: i for i, x in enumerate(s0)}
    rates = np.zeros((len(s0), len(s0)))
    for x in s0:
        for y in s0:
            if x != y:
                rates[idx[x], idx[y]] = source[x, y]
    return rates


def _check_limit_rates_against_loop(walk):
    """Each route the premises admit gives the loop's rates; the others
    raise as before."""
    cls = classify(walk)
    admitted = 0
    for mode in ("nrv", "rv"):
        try:
            lc = limit_chain(walk, cls, mode)
        except PremiseViolated:
            continue
        admitted += 1
        rates = _loop_limit_rates(walk, cls, mode)
        assert np.array_equal(lc.rates, rates)
        assert np.array_equal(lc.nu, dense_stationary(rates - np.diag(rates.sum(axis=1))))
        assert (lc.mode, lc.sites) == (mode, cls.s0)
    return admitted


class TestLimitChain:
    def test_cycle_nrv(self, cycle3):
        cls = classify(cycle3)
        lc = limit_chain(cycle3, cls, "nrv")
        assert lc.scale == "1/(N*d_N)"
        assert lc.rates[0, 1] == pytest.approx(0.4)
        assert lc.rates[1, 0] == 0.0
        assert lc.nu == pytest.approx([1 / 3] * 3, abs=1e-12)
        assert lc.theta(100, 1e-4) == pytest.approx(1e2)

    def test_symmetric_cycle_rv(self):
        spec = WalkSpec.cycle(4, 0.5)
        cls = classify(spec)
        lc = limit_chain(spec, cls, "rv")
        assert lc.scale == "1/d_N"
        assert lc.rates[0, 1] == pytest.approx(0.5)
        assert lc.rates[0, 3] == pytest.approx(0.5)
        assert lc.theta(100, 1e-4) == pytest.approx(1e4)

    def test_chain_example_rv(self, chain4):
        cls = classify(chain4)
        lc = limit_chain(chain4, cls, "rv")
        assert lc.sites == (1, 2)
        assert lc.rates[0, 1] == pytest.approx(1.0)
        assert lc.nu == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_chain_example_nrv_premise_fails(self, chain4):
        cls = classify(chain4)
        with pytest.raises(PremiseViolated, match="irreducible"):
            limit_chain(chain4, cls, "nrv")

    def test_rv_premise_symmetry(self, cycle3):
        cls = classify(cycle3)
        with pytest.raises(PremiseViolated, match="symmetric"):
            limit_chain(cycle3, cls, "rv")

    def test_rates_match_loop_on_fixtures(self, cycle3, two_sym, two_asym, up3, chain4):
        admitted = [_check_limit_rates_against_loop(walk)
                    for walk in (cycle3, two_sym, two_asym, up3, chain4,
                                 WalkSpec.cycle(4, 0.5))]
        assert all(admitted)

    @given(_rate_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rates_match_loop_random(self, rates):
        if _closure(rates > 0).all():
            _check_limit_rates_against_loop(WalkSpec.from_matrix(rates))

    def test_limit_nu_is_invariant(self, chain4):
        cls = classify(chain4)
        lc = limit_chain(chain4, cls, "rv")
        gen = lc.rates - np.diag(lc.rates.sum(axis=1))
        assert np.abs(lc.nu @ gen).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["rv", "nrv"])
    @pytest.mark.parametrize("n, d", [(0, 0.1), (True, 0.1), (2.5, 0.1), (100, 0.0),
                                      (100, -1e-4), (100, math.nan), (100, "0.1")])
    def test_theta_rejects_bad_n_and_d(self, n, d, mode):
        # theta(0, 0.1) divided by zero in the nrv mode
        walk = WalkSpec.cycle(4, 0.5) if mode == "rv" else WalkSpec.cycle(3, 0.7)
        lc = limit_chain(walk, classify(walk), mode)
        with pytest.raises(OutOfRange):
            lc.theta(n, d)


class TestPredictedMeanRate:
    def test_cycle_values(self, cycle3):
        pred = predicted_mean_rate(cycle3, (0, 1, 2), 100, 1e-4)
        assert pred.normalized[0, 1] == pytest.approx(0.4)
        assert pred.normalized[0, 2] == 0.0
        assert pred.error_family == "O(ell_N)"  # whole set is attracting

    def test_symmetric_pair_scale(self, two_sym):
        pred = predicted_mean_rate(two_sym, (0, 1), 50, 1e-5)
        assert pred.normalized[0, 1] == pytest.approx(1.0 / 50)

    def test_error_scale_value(self):
        scale = ErrorScale(n=100, d=1e-4, q=3 / 7)
        assert scale.ell == pytest.approx(4.6e-4, rel=0.01)

    @pytest.mark.parametrize("n, d", [(0, 0.1), (-3, 0.1), (True, 0.1), (100, 0.0),
                                      (100, math.inf), (100, "1e-4")])
    def test_rejects_bad_n_and_d(self, cycle3, n, d):
        # n = 0 raised a math-domain ValueError from log(0)
        with pytest.raises(OutOfRange):
            predicted_mean_rate(cycle3, (0, 1, 2), n, d)
        with pytest.raises(OutOfRange):
            ErrorScale(n=n, d=d, q=3 / 7)

    def test_not_semi_attracting(self, cycle3):
        with pytest.raises(NotSemiAttracting):
            predicted_mean_rate(cycle3, (0,), 100, 1e-4)

    @pytest.mark.parametrize("a_set", [(), (0, 7), (-1, 0)])
    def test_rejects_bad_site_set(self, cycle3, a_set):
        with pytest.raises(OutOfRange):
            predicted_mean_rate(cycle3, a_set, 100, 1e-4)

    @pytest.mark.parametrize("n", (50, 100, 200, 400))
    @pytest.mark.parametrize("d", (1e-5, 1e-7))
    def test_agreement_with_exact(self, cycle3, n, d):
        # fitted constant stays below 10 across the regression grid
        pred = predicted_mean_rate(cycle3, (0, 1, 2), n, d)
        exact = mean_jump_rate_exact(cycle3, ProcessParams(n, d), (0, 1, 2))
        budget = 1.0 / n + pred.error_scale.ell
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                dev = abs(exact.normalized[i, j] - pred.normalized[i, j])
                rel = dev / max(pred.normalized[i, j], 1.0 / n)
                assert rel <= 10.0 * budget


def _exactly_negative(q, v) -> bool:
    """Every entry of q @ v is negative in rational arithmetic."""
    vx = [Fraction(float(x)) for x in v]
    return all(sum(Fraction(float(qij)) * x for qij, x in zip(row, vx)) < 0 for row in q)


class TestGordan:
    def test_two_site(self):
        cert = gordan_certificate(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert cert.variant == "alpha"
        assert (cert.q @ cert.vector).max() < 0

    def test_cycle_kernel_vector(self, cycle3):
        q = cycle3.rates - cycle3.rates.T
        cert = gordan_certificate(q)
        assert cert.variant == "beta"
        assert np.all(cert.vector <= 0)
        assert np.linalg.norm(cert.vector) == pytest.approx(1.0, abs=1e-12)
        assert cert.vector == pytest.approx(-np.ones(3) / math.sqrt(3), abs=1e-9)

    def test_zero_matrix(self):
        cert = gordan_certificate(np.zeros((3, 3)))
        assert cert.variant == "beta"
        assert np.abs(cert.q @ cert.vector).max() == 0.0

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            gordan_certificate(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("q", [[[0.0, math.nan], [math.nan, 0.0]],
                                   [[0.0, math.inf], [-math.inf, 0.0]],
                                   np.zeros((0, 0))],
                             ids=["nan", "inf", "empty"])
    def test_rejects_non_finite_or_empty(self, q):
        with pytest.raises(NotSkewSymmetric):
            gordan_certificate(q)

    @pytest.mark.parametrize("q", [[[0, "a"], ["a", 0]], [[0, 1j], [-1j, 0]],
                                   [[0, [1]], [[1], 0]]],
                             ids=["str", "complex", "ragged"])
    def test_rejects_entries_that_are_not_reals(self, q):
        with pytest.raises(NotSkewSymmetric):
            gordan_certificate(q)

    def test_random_64_sites(self):
        rng = np.random.Generator(np.random.Philox(key=(13, 64)))
        a = rng.normal(size=(64, 64))
        q = a - a.T
        start = time.perf_counter()
        cert = gordan_certificate(q)
        assert time.perf_counter() - start < 5.0
        assert cert.variant == "alpha"
        assert _exactly_negative(q, cert.vector)

    def test_borderline_32_sites(self):
        # the analysis benchmark's 32-site matrix at seed 201, on which a
        # float simplex finds only a non-strict alpha
        rng = np.random.Generator(np.random.Philox(key=(201, 3)))
        for size in (8, 16, 24):
            rng.normal(size=(size, size))
        a = rng.normal(size=(32, 32))
        q = a - a.T
        start = time.perf_counter()
        cert = gordan_certificate(q)
        assert time.perf_counter() - start < 5.0
        assert cert.variant == "alpha"
        assert _exactly_negative(q, cert.vector)
        assert cert.residual == pytest.approx(-0.1 * np.abs(q).max(), rel=1e-9)

    def test_isolated_site(self):
        # site 5 has no rates, so -e_5 is a kernel vector, one of several
        q = np.zeros((6, 6))
        q[0, 1:5] = [0.2, -0.1, 0.2, 0.2]
        q[2, 3] = -0.2
        q = q - q.T
        cert = gordan_certificate(q)
        assert cert.variant == "beta"
        assert np.all(cert.vector <= 0) and np.any(cert.vector < 0)
        assert np.abs(q @ cert.vector).max() <= 1e-15

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_dichotomy_random(self, seed):
        rng = np.random.Generator(np.random.Philox(key=(13, seed)))
        size = int(rng.integers(2, 10))
        a = rng.normal(size=(size, size))
        q = a - a.T
        cert = gordan_certificate(q)
        scale = max(np.abs(q).max(), 1.0)
        if cert.variant == "alpha":
            assert (q @ cert.vector).max() <= -1e-9 * scale
            assert _exactly_negative(q, cert.vector)
        else:
            assert np.abs(q @ cert.vector).max() <= 1e-9 * scale
            assert np.all(cert.vector <= 0)
            assert np.any(cert.vector < 0)


def _inner_boundary(region):
    """Inner-closure states outside the inner core."""
    inner = np.zeros(region.enum.size, dtype=bool)
    inner[region.inner_core] = True
    return region.inner_closure[~inner[region.inner_closure]]


def auxiliary_kernel_row(walk, d, region, eta):
    """One row of the auxiliary reversed kernel at ``eta``: (moves, self-loop).

    Moves are (x, y, probability) of relocating a particle from x to y, with
    probability proportional to ``eta_y (d + eta_x) r(y, x)``, kept only when
    the target stays in the inner-core closure; the self-loop remainder
    absorbs the rest (positive only on the inner boundary, where the chain
    is effectively stopped).
    """
    r_set = region.r_set
    rmat = walk.rates
    closure = set(int(i) for i in region.inner_closure)
    if region.enum.rank(tuple(int(v) for v in eta)) not in closure:
        raise OutOfRange("state is outside the inner-core closure")
    w = 0.0
    for a in r_set:
        for b in r_set:
            if a != b:
                w += eta[a] * (d + eta[b]) * rmat[a, b]
    moves = []
    for x in r_set:
        if eta[x] == 0:
            continue
        for y in r_set:
            if y == x:
                continue
            weight = eta[y] * (d + eta[x]) * rmat[y, x]
            if weight == 0:
                continue
            moved = list(int(v) for v in eta)
            moved[x] -= 1
            moved[y] += 1
            if region.enum.rank(tuple(moved)) in closure:
                moves.append((x, y, weight / w))
    return moves, 1.0 - sum(p for _, _, p in moves)


class TestTestFunction:
    def test_harmonic_values(self):
        assert _harmonic(3) == pytest.approx(11 / 6)
        assert _harmonic(0) == 0.0

    def test_kernel_rows(self, cycle3):
        from incproc import RegionSpec
        from incproc.states import StateEnumeration
        n, d = 30, 1e-4
        enum = StateEnumeration(3, n)
        reg = RegionSpec(cycle3, enum, (0, 1, 2), eps=0.4)  # threshold 1
        # inner-core state: row sums to one
        moves, self_loop = auxiliary_kernel_row(cycle3, d, reg, (10, 10, 10))
        assert sum(p for _, _, p in moves) == pytest.approx(1.0, abs=1e-12)
        assert self_loop == pytest.approx(0.0, abs=1e-12)
        # inner-boundary state: some mass goes to the self-loop
        boundary_state = tuple(int(v) for v in
                               enum.counts_matrix()[_inner_boundary(reg)[0]])
        moves, self_loop = auxiliary_kernel_row(cycle3, d, reg, boundary_state)
        assert self_loop > 0
        assert sum(p for _, _, p in moves) + self_loop == pytest.approx(1.0)

    @pytest.mark.parametrize("walk_name, r_set, start", [
        ("cycle3", (0, 1, 2), (10, 10, 10)),
        ("up3", (0, 1, 2), (10, 10, 10)),
        ("chain4", (1, 2), (0, 15, 15, 0))])
    def test_auxiliary_chain_steps_by_kernel_rows(self, request, monkeypatch,
                                                  walk_name, r_set, start):
        # the step law mc_hitting runs on the auxiliary chain, read from the
        # move table and weight rule of its event kernel at every inner-core
        # state, is the row of the reversed kernel: the same moves, with no
        # self-loop
        from incproc import HittingTask, RegionSpec, mc_hitting
        from incproc.states import StateEnumeration
        sim = importlib.import_module("incproc.simulate")
        walk = request.getfixturevalue(walk_name)
        n, d, eps = 30, 1e-4, 0.4
        init, built = sim._Kernel.__init__, []

        def spy(self, out, d, by_target=False, stop=-1):
            built.append((out, d, by_target))
            init(self, out, d, by_target, stop)

        monkeypatch.setattr(sim._Kernel, "__init__", spy)
        task = HittingTask(chain="auxiliary", start=start, replicas=1, seed=5,
                           r_set=r_set, eps=eps)
        mc_hitting(task, walk, ProcessParams(n, d))
        ((table, d_run, by_target),) = built
        assert by_target is True and d_run == d

        enum = StateEnumeration(walk.kappa, n)
        reg = RegionSpec(walk, enum, r_set, eps=eps)
        for eta in enum.counts_matrix()[reg.inner_core]:
            # the kernel's weight of x -> y when by_target: c_y (d + c_x) coef
            weights = {(x, y): eta[y] * (d + eta[x]) * coef
                       for x in r_set for y, coef in table[x]}
            total = sum(weights.values())
            law = {xy: w / total for xy, w in weights.items()}
            moves, self_loop = auxiliary_kernel_row(walk, d, reg, eta)
            assert self_loop == pytest.approx(0.0, abs=1e-12)
            assert {(x, y) for x, y, _ in moves} == {xy for xy, p in law.items() if p > 0}
            for x, y, p in moves:
                assert law[(x, y)] == pytest.approx(p, rel=1e-12)

    def test_positive_drift_beta_variant(self, cycle3):
        tf = make_test_function(cycle3, (0, 1, 2), n=40, d=1e-6, eps=0.1)
        assert tf.variant == "beta"
        assert tf.min_drift > 0
        assert tf.oscillation <= 5 * math.log(40)
        assert tf.row_sum_range[0] == pytest.approx(1.0, abs=1e-12)

    def test_positive_drift_alpha_variant(self, up3):
        # within R = {0, 1} the drift matrix is nonsingular: alpha branch
        tf = make_test_function(up3, (0, 1), n=40, d=1e-6, eps=0.1)
        assert tf.variant == "alpha"
        assert tf.min_drift > 0

    FIXTURE_CASES = [("cycle3", (0, 1, 2)), ("up3", (0, 1, 2)), ("up3", (0, 1)),
                     ("two_sym", (0, 1)), ("two_asym", (0, 1)), ("chain4", (1, 2)),
                     ("chain4", (0, 1))]

    @pytest.mark.parametrize("name,r_set", FIXTURE_CASES)
    def test_drift_matches_loop(self, request, name, r_set):
        walk = request.getfixturevalue(name)
        _assert_drift_matches_loop(walk, r_set, n=40, d=1e-6, eps=0.1)

    @given(_walks_positive_in_r(), st.integers(3, 30), st.sampled_from([1e-2, 1e-4, 1e-6]))
    @settings(max_examples=60, deadline=None)
    def test_drift_matches_loop_random(self, walk_r, n, d):
        walk, r_set = walk_r
        _assert_drift_matches_loop(walk, r_set, n=n, d=d, eps=0.1)

    def test_large_cycle_is_fast(self, cycle3):
        # 20,301 states; the scalar loop needed several seconds here
        start = time.perf_counter()
        tf = make_test_function(cycle3, (0, 1, 2), n=200, d=1e-6, eps=0.1)
        assert time.perf_counter() - start < 1.0
        assert tf.min_drift > 0

    @pytest.mark.parametrize("r_set,d", [((0,), 1e-6), ((0, 1, 2), math.nan),
                                         ((0, 1, 2), math.inf), ((0, 1, 2), 0.0),
                                         ((0, 1, 2), -0.5), ((0, 1, 2), "x"),
                                         ((0, 1, 2), True)])
    def test_rejects_single_site_r_or_bad_d(self, cycle3, r_set, d):
        # "x" raised a bare TypeError, and True was taken as d = 1
        with pytest.raises(OutOfRange):
            make_test_function(cycle3, r_set, n=20, d=d, eps=0.1)

    def test_rejects_sites_outside_the_walk(self, cycle3):
        with pytest.raises(OutOfRange):
            make_test_function(cycle3, (0, 7), n=20, d=1e-4, eps=0.1)

    def test_requires_positive_rates_in_r(self, chain4):
        with pytest.raises(PremiseViolated):
            make_test_function(chain4, (0, 2), n=20, d=1e-4, eps=0.1)


def _stationarity_residual(pi, rates):
    """``max_x |sum_y pi(x) a(x,y) - sum_y pi(y) a(y,x)|`` for the limit
    chain rates ``a``."""
    return float(np.abs(pi * rates.sum(axis=1) - pi @ rates).max())


class TestLimitMasses:
    def test_cycle_masses_stabilize(self, cycle3):
        points = []
        for n in (40, 80, 160):
            mu = stationary_exact(cycle3, ProcessParams(n, 1e-6))
            xi = np.array([mu.xi_mass(x) for x in range(3)])
            points.append(xi / xi.sum())
        cls = classify(cycle3)
        lc = limit_chain(cycle3, cls, "nrv")
        cauchy = [np.abs(b - a).max() for a, b in zip(points, points[1:])]
        assert cauchy[-1] <= cauchy[0] + 1e-12
        assert _stationarity_residual(points[-1], lc.rates) <= 1e-6

    def test_chain_example_rv_masses(self, chain4):
        # conditioned metastable masses approach the symmetric-pair limit
        points = []
        for n in (12, 24, 48):
            mu = stationary_exact(chain4, ProcessParams(n, 1e-5))
            xi = np.array([mu.xi_mass(x) for x in (1, 2)])
            points.append(xi / xi.sum())
        cls = classify(chain4)
        lc = limit_chain(chain4, cls, "rv")
        assert _stationarity_residual(points[-1], lc.rates) <= 0.05
        assert np.abs(points[-1] - 0.5).max() <= 0.05


class TestTrichotomy:
    def test_every_interacting_pair_in_one_case(self, up3, cycle3, chain4):
        for spec in (up3, cycle3, chain4):
            r = spec.rates
            for x in range(spec.kappa):
                for y in range(spec.kappa):
                    if x == y or r[x, y] + r[y, x] == 0:
                        continue
                    cases = [r[x, y] > r[y, x], r[x, y] < r[y, x],
                             r[x, y] == r[y, x]]
                    assert sum(cases) == 1
