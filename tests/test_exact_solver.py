"""The exact LU path against a reference solver, plus its diagnostics.

The reference below is the solver the nested-dissection path replaced: one
SuperLU factorization per system in ``MMD_AT_PLUS_A`` order, the stationary
law from the transposed generator with one balance row replaced by a pin on
the heaviest metastable state, and one hitting solve per target. The code
solves the stationary law as the hitting system of that pinned state
instead, transposed, and reads the trace rates off the rate matrix's rows;
``pinned_balance`` and ``loop_trace_rates`` keep what it replaced.
"""

import math
import os
import pickle
import subprocess
import sys
import time
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import incproc.exact as exact
from incproc import (OutOfRange, ProcessParams, RegionSpec, SolverFailure,
                     StateSpaceTooLarge, WalkSpec, analyze_walk, enumerate_states,
                     flow_profile, mean_jump_rate_exact, stationary_exact)
from incproc.exact import (HITTING_TOL, STATIONARY_TOL, build_generator,
                           build_rate_matrix)
from incproc.thermo import build_torus, torus_walk

AGREE = 1e-12


def _reference_solve(a, b):
    lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(b)
    x -= lu.solve(a @ x - b)
    return x


def pinned_balance(spec, params):
    """The transposed generator with one row pinned, and its right side."""
    enum = enumerate_states(spec.kappa, params.n)
    q = build_generator(spec, params, enum)
    ref = enum.xi_index(int(np.argmax(analyze_walk(spec).m)))
    a = q.T.tolil()
    a.rows[ref] = [ref]
    a.data[ref] = [1.0]
    b = np.zeros(enum.size)
    b[ref] = 1.0
    return a.tocsc(), b


def reference_stationary(spec, params):
    mu = np.clip(_reference_solve(*pinned_balance(spec, params)), 0.0, None)
    return mu / mu.sum()


def reference_hitting(spec, params, a_set, y):
    enum = enumerate_states(spec.kappa, params.n)
    rates = build_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    p = (sp.diags(1.0 / holding) @ rates).tocsc()
    boundary = np.zeros(enum.size, dtype=bool)
    boundary[[enum.xi_index(x) for x in a_set]] = True
    interior = np.nonzero(~boundary)[0]
    a_mat = (sp.eye(interior.size) - p[interior][:, interior]).tocsc()
    b = np.asarray(p[interior][:, [enum.xi_index(y)]].todense()).ravel()
    h = np.zeros(enum.size)
    h[interior] = np.clip(_reference_solve(a_mat, b), 0.0, 1.0)
    h[enum.xi_index(y)] = 1.0
    return h


def loop_trace_rates(spec, params, enum, a_set, h):
    """The trace rates summed over the moves out of each xi^x, state by state."""
    n, d = params.n, params.d
    raw = np.zeros((len(a_set), len(a_set)))
    for i, x in enumerate(a_set):
        for z in range(spec.kappa):
            if z == x or spec.rates[x, z] == 0.0:
                continue
            eta = [0] * spec.kappa
            eta[x] = n - 1
            eta[z] = 1
            raw[i] += n * d * spec.rates[x, z] * h[enum.rank(eta)]
    np.fill_diagonal(raw, 0.0)
    return raw


def reference_trace_rates(spec, params, a_set):
    enum = enumerate_states(spec.kappa, params.n)
    h = np.column_stack([reference_hitting(spec, params, a_set, y) for y in a_set])
    return loop_trace_rates(spec, params, enum, a_set, h)


def close(new, ref, what):
    new, ref = np.asarray(new), np.asarray(ref)
    err = np.abs(new - ref).max() / max(np.abs(ref).max(), 1e-300)
    assert err <= AGREE, f"{what}: relative deviation {err:.2e}"


KAPPA4 = WalkSpec.from_matrix([[0.0, 1.2, 0.3, 0.7],
                               [0.4, 0.0, 1.1, 0.2],
                               [0.9, 0.5, 0.0, 1.3],
                               [0.6, 0.8, 0.2, 0.0]])


@pytest.mark.parametrize("walk, params, a_set", [
    ("cycle3", ProcessParams(30, 1e-4), (0, 1, 2)),
    ("two_sym", ProcessParams(12, 0.1), (0, 1)),
    ("two_asym", ProcessParams(20, 1e-3), (0, 1)),
    ("up3", ProcessParams(18, 0.05), (0, 2)),
    ("chain4", ProcessParams(9, 1e-2), (0, 1, 2, 3)),
    (KAPPA4, ProcessParams(12, 1e-3), (0, 1, 2, 3)),
])
def test_agrees_with_reference_solver(request, walk, params, a_set):
    spec = request.getfixturevalue(walk) if isinstance(walk, str) else walk
    close(stationary_exact(spec, params).weights,
          reference_stationary(spec, params), "stationary law")
    h = exact._hitting_matrix(spec, params, enumerate_states(spec.kappa, params.n), a_set)[0]
    for y, column in zip(a_set, h.T):
        close(column, reference_hitting(spec, params, a_set, y), f"h_{y}")
    close(mean_jump_rate_exact(spec, params, a_set).raw,
          reference_trace_rates(spec, params, a_set), "trace rates")


def test_kappa4_walk_is_non_reversible():
    assert not analyze_walk(KAPPA4).rev


def random_walk(seed: int) -> tuple[WalkSpec, ProcessParams]:
    """An irreducible walk on 2..5 sites with some zero rates, and a small N."""
    rng = np.random.default_rng(seed)
    kappa = int(rng.integers(2, 6))
    rates = rng.uniform(0.1, 2.0, size=(kappa, kappa))
    rates[rng.random((kappa, kappa)) < 0.3] = 0.0
    cycle = rng.permutation(kappa)
    rates[cycle, np.roll(cycle, -1)] = rng.uniform(0.1, 2.0, size=kappa)
    np.fill_diagonal(rates, 0.0)
    n_max = {2: 40, 3: 20, 4: 10, 5: 7}[kappa]
    params = ProcessParams(int(rng.integers(2, n_max + 1)),
                           float(10.0 ** rng.uniform(-4, -0.5)))
    return WalkSpec.from_matrix(rates), params


class TestRandomWalks:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_hitting_partition_of_unity(self, seed):
        spec, params = random_walk(seed)
        enum = enumerate_states(spec.kappa, params.n)
        a_set = tuple(range(spec.kappa))
        h = exact._hitting_matrix(spec, params, enum, a_set)[0]
        assert h.shape == (enum.size, spec.kappa)
        assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-12

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_stationary_residual(self, seed):
        spec, params = random_walk(seed)
        mu = stationary_exact(spec, params)
        q = build_generator(spec, params, mu.enum)
        scale = float(np.abs(q.data).max())
        assert np.abs(mu.weights @ q).max() <= STATIONARY_TOL * scale
        assert mu.solver.path == "lu"

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_stationary_agrees_with_pinned_solve(self, seed):
        spec, params = random_walk(seed)
        close(stationary_exact(spec, params).weights,
              reference_stationary(spec, params), "stationary law")

    def test_benchmark_walk_agrees_with_pinned_solve(self):
        # the perfbench exact_lu size: a positive 4-site walk at N = 35
        params = ProcessParams(35, 1e-4)
        close(stationary_exact(KAPPA4, params).weights,
              reference_stationary(KAPPA4, params), "stationary law")

    @given(st.integers(0, 100_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_trace_rates_match_loop(self, seed, data):
        # the rate rows times h sum the same terms in the same order as the loop
        spec, params = random_walk(seed)
        a_set = tuple(sorted(data.draw(st.sets(st.integers(0, spec.kappa - 1),
                                                min_size=1))))
        enum = enumerate_states(spec.kappa, params.n)
        h = exact._hitting_matrix(spec, params, enum, a_set)[0]
        assert np.array_equal(mean_jump_rate_exact(spec, params, a_set).raw,
                              loop_trace_rates(spec, params, enum, a_set, h))

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_trace_law_is_normalised_xi_mass(self, seed):
        spec, params = random_walk(seed)
        mu = stationary_exact(spec, params)
        a_set = tuple(range(spec.kappa))
        nu = mean_jump_rate_exact(spec, params, a_set).stationary()
        xi = np.array([mu.xi_mass(x) for x in a_set])
        assert np.abs(nu - xi / xi.sum()).max() <= 1e-8

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_nested_dissection_is_a_permutation(self, seed):
        spec, params = random_walk(seed)
        enum = enumerate_states(spec.kappa, params.n)
        perm, _ = exact._nested_dissection(enum.counts_matrix())
        assert np.array_equal(np.sort(perm), np.arange(enum.size))


def single_count_order(coords):
    """The order the subset-sum dissection replaced: split each block at the
    median of its widest single count, ``eta_j == v``."""
    order = []

    def dissect(idx):
        if idx.size <= exact.ND_LEAF:
            order.append(idx)
            return
        sub = coords[idx]
        span = sub.max(axis=0) - sub.min(axis=0)
        col = sub[:, int(np.argmax(span))]
        v = np.partition(col, col.size // 2)[col.size // 2]
        dissect(idx[col < v])
        dissect(idx[col > v])
        order.append(idx[col == v])

    dissect(np.arange(coords.shape[0]))
    return np.concatenate(order)


def solve_all(spec, params, a_set):
    """The stationary law, the hitting vectors of every target and the trace rates."""
    enum = enumerate_states(spec.kappa, params.n)
    h = exact._hitting_matrix(spec, params, enum, a_set)[0]
    return (stationary_exact(spec, params).weights, h.T,
            mean_jump_rate_exact(spec, params, a_set).raw)


def agree_with_single_count_order(spec, params, a_set):
    new = solve_all(spec, params, a_set)
    with mock.patch.object(exact, "_nested_dissection",
                           lambda coords: (single_count_order(coords), 0)):
        ref = solve_all(spec, params, a_set)
    close(new[0], ref[0], "stationary law")
    for y, h_new, h_ref in zip(a_set, new[1], ref[1]):
        close(h_new, h_ref, f"h_{y}")
    close(new[2], ref[2], "trace rates")


TORUS8 = build_torus(1, 8, {1: 0.7, -1: 0.3}, rho=1.0, d_l=1e-3)


class TestNestedDissection:
    def test_separator_splits_the_move_graph(self):
        # the top separator, ordered last, is one level set eta(S) == v of a
        # subset sum, no rate-matrix entry links its two sides, and it is
        # smaller than the single-count separator it replaced
        params = ProcessParams(12, 1e-2)
        for walk in (WalkSpec.cycle(4, 0.6), KAPPA4, WalkSpec.cycle(5, 0.6)):
            enum = enumerate_states(walk.kappa, params.n)
            counts = enum.counts_matrix().astype(int)
            perm, _ = exact._nested_dissection(counts)
            rates = build_rate_matrix(walk, params, enum).tocoo()
            found = []
            for size in range(1, walk.kappa):
                for s in combinations(range(walk.kappa), size):
                    eta_s = counts[:, list(s)].sum(axis=1)
                    v = eta_s[perm[-1]]
                    level = np.flatnonzero(eta_s == v)
                    if set(perm[-level.size:]) == set(level):
                        found.append(level.size)
                        side = np.sign(eta_s - v)
                        assert (side < 0).any() and (side > 0).any()
                        assert (side[rates.row] * side[rates.col] >= 0).all()
            assert found
            # it is the smallest median level set of any |S| <= kappa/2
            smallest = min(
                (eta_s == np.sort(eta_s)[enum.size // 2]).sum()
                for size in range(1, walk.kappa // 2 + 1)
                for eta_s in (counts[:, list(s)].sum(axis=1)
                              for s in combinations(range(walk.kappa), size)))
            assert min(found) == smallest
            j = int(np.argmax(counts.max(axis=0) - counts.min(axis=0)))
            v = np.sort(counts[:, j])[enum.size // 2]
            assert smallest < (counts[:, j] == v).sum()

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_single_count_order(self, seed):
        spec, params = random_walk(seed)
        agree_with_single_count_order(spec, params, tuple(range(spec.kappa)))

    def test_benchmark_walk_agrees_with_single_count_order(self):
        # the perfbench exact_lu size: a positive 4-site walk at N = 35
        agree_with_single_count_order(KAPPA4, ProcessParams(35, 1e-4), (0, 1, 2, 3))

    @pytest.mark.parametrize("walk, params, single_count_nnz", [
        (KAPPA4, ProcessParams(35, 1e-4), 2_618_826),
        (WalkSpec.cycle(5, 0.7), ProcessParams(20, 1e-4), 10_235_138),
        (torus_walk(TORUS8), ProcessParams(TORUS8.n, TORUS8.d_l), 11_791_144),
    ])
    def test_fill_and_its_prediction(self, walk, params, single_count_nnz):
        # single_count_nnz: L+U of the stationary system under the single-count order
        solver = stationary_exact(walk, params).solver
        assert solver.lu_nnz <= single_count_nnz
        assert solver.lu_nnz / 2 <= solver.predicted_nnz <= 2 * solver.lu_nnz

    def test_hitting_fill_below_single_count_order(self):
        solver = mean_jump_rate_exact(KAPPA4, ProcessParams(35, 1e-4), (0, 1, 2, 3)).solver
        assert solver.lu_nnz <= 2_761_282
        assert solver.lu_nnz / 2 <= solver.predicted_nnz <= 2 * solver.lu_nnz

    def test_candidate_family_is_bounded(self):
        # every |S| <= kappa/2 up to eight sites, half-size sets once per
        # complement pair; the single sites beyond, so a 40-site walk orders
        # quickly
        assert [exact._candidate_sets(k).shape[1] for k in (2, 3, 4, 5, 8, 9, 40)] == [
            1, 3, 7, 15, 127, 9, 40]
        assert (exact._candidate_sets(40) == np.eye(40, dtype=int)).all()
        counts = enumerate_states(40, 3).counts_matrix()
        start = time.perf_counter()
        perm, predicted = exact._nested_dissection(counts)
        assert time.perf_counter() - start < 2.0
        assert np.array_equal(np.sort(perm), np.arange(counts.shape[0]))
        assert predicted > 0

    def test_less_fill_than_minimum_degree(self):
        # at desk scale on four sites the count-coordinate dissection beats
        # the generic minimum-degree ordering on the stationary system
        spec, params = KAPPA4, ProcessParams(25, 1e-4)
        a, _ = pinned_balance(spec, params)
        mmd = spla.splu(a, permc_spec="MMD_AT_PLUS_A").nnz
        assert stationary_exact(spec, params).solver.lu_nnz < 0.8 * mmd


REFUSE = """
import resource, sys
import incproc.exact as exact
from incproc import ProcessParams, StateSpaceTooLarge, WalkSpec, stationary_exact
# the budget of an 8 GiB machine; factoring must not start
exact._lu_memory_budget = lambda: 4 * 2**30
exact.spla.splu = None
for kappa, n in ((4, 140), (5, 44)):
    try:
        stationary_exact(WalkSpec.cycle(kappa, 0.7), ProcessParams(n, 1e-4))
    except StateSpaceTooLarge as exc:
        print(exc)
    else:
        sys.exit("not refused")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestFillCap:
    def test_budget_is_half_the_physical_memory(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert exact._lu_memory_budget() == physical // 2

    def test_refused_before_factoring(self):
        # 477,191 states on four sites and 194,580 on five fit the state cap,
        # but their factors would not fit in memory
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", REFUSE], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out[0].startswith("state space has 477191 configurations")
        assert out[1].startswith("state space has 194580 configurations")
        assert all("GiB, over the budget of 4.0 GiB" in line for line in out[:2])
        assert int(out[2]) < 500 * 1024     # ru_maxrss is in KiB on Linux

    def test_refusal_names_the_budget(self, cycle3, monkeypatch):
        monkeypatch.setattr(exact, "_lu_memory_budget", lambda: 1000)
        with pytest.raises(StateSpaceTooLarge, match="over the budget") as exc:
            mean_jump_rate_exact(cycle3, ProcessParams(10, 0.1), (0, 1))
        # the size of the state space, the two target states included
        assert exc.value.size == 66 and exc.value.cap is None


class TestDiagnostics:
    def test_stationary_records_lu(self, up3):
        mu = stationary_exact(up3, ProcessParams(15, 0.01))
        assert mu.solver.path == "lu"
        assert 0.0 <= mu.solver.residual <= mu.solver.bound
        assert mu.solver.lu_nnz >= mu.enum.size

    @pytest.mark.parametrize("negative", [True, False])
    def test_stationary_failed_solve_raises(self, up3, monkeypatch, negative):
        # a solution with negative entries, and a positive one that misses
        # the residual bound: there is no fallback
        def broken(a, b):
            return (-np.ones_like(b) if negative else np.linspace(1.0, 2.0, len(b))), 7
        monkeypatch.setattr(exact, "_solve_refined", broken)
        with pytest.raises(SolverFailure, match="stationary residual"):
            stationary_exact(up3, ProcessParams(6, 0.2))

    def test_nan_hitting_solve_raises(self, cycle3, monkeypatch):
        # a nan fails the residual bound as any other miss does
        solve = exact._solve_refined

        def planted(a, b):
            h, lu_nnz = solve(a, b)
            h[0, 0] = np.nan
            return h, lu_nnz

        monkeypatch.setattr(exact, "_solve_refined", planted)
        with pytest.raises(SolverFailure, match="hitting-probability residual"):
            mean_jump_rate_exact(cycle3, ProcessParams(6, 0.1), (0, 1, 2))

    def test_closed_form_has_no_solver(self, cycle3):
        assert exact.stationary_closed_form(cycle3, ProcessParams(5, 0.1)).solver is None

    def test_trace_rates_record_one_factorization(self, up3):
        tr = mean_jump_rate_exact(up3, ProcessParams(12, 0.05), (0, 1, 2))
        assert tr.solver.path == "lu"
        assert tr.solver.bound == HITTING_TOL
        assert 0.0 <= tr.solver.residual <= HITTING_TOL
        assert tr.solver.lu_nnz > 0

    def test_stage_times_stay_off_the_results(self, up3):
        # the results pickle the same run to run; stage_times sums the
        # seconds of the solves inside its block only
        params = ProcessParams(12, 0.05)
        with exact.stage_times() as times:
            first = mean_jump_rate_exact(up3, params, (0, 1, 2))
            assert exact._stage_times.get() is times
        assert set(times) == set(exact.STAGES)
        assert all(t >= 0.0 for t in times.values()) and times["factor_s"] > 0.0
        assert exact._stage_times.get() is None
        second = mean_jump_rate_exact(up3, params, (0, 1, 2))
        assert pickle.dumps(first) == pickle.dumps(second)
        with exact.stage_times() as outer:
            stationary_exact(up3, params)
            with exact.stage_times() as inner:
                stationary_exact(up3, params)
            assert inner["factor_s"] > 0.0
        assert outer["factor_s"] > 0.0

    def test_trace_rates_factor_once(self, up3, monkeypatch):
        calls = []
        solve = exact._solve_refined

        def counted(a, b):
            calls.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(exact, "_solve_refined", counted)
        mean_jump_rate_exact(up3, ProcessParams(8, 0.05), (0, 1, 2))
        assert calls == [(42, 3)]


class TestSiteSets:
    def test_trace_rates_reject_out_of_range_site(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(4, 0.1), (0, 7))

    def test_trace_rates_reject_empty_set(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(4, 0.1), ())

    def test_hitting_rejects_out_of_range_site(self, cycle3):
        with pytest.raises(OutOfRange):
            exact._hitting_matrix(cycle3, ProcessParams(4, 0.1), enumerate_states(3, 4),
                                  (0, 7))

    def test_hitting_rejects_negative_site(self, cycle3):
        with pytest.raises(OutOfRange):
            exact._hitting_matrix(cycle3, ProcessParams(4, 0.1), enumerate_states(3, 4),
                                  (-1, 0))

    def test_trace_rates_reject_negative_site(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(4, 0.1), (-1, 0))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, "x", True, 1.7e308])
    def test_region_rejects_non_finite_eps(self, cycle3, eps):
        # "x" raised a bare TypeError, and True was taken as eps = 1; at
        # 1.7e308 the threshold eps * log N overflowed to a bare OverflowError
        with pytest.raises(OutOfRange):
            RegionSpec(cycle3, enumerate_states(3, 4), (0, 1), eps=eps)

    @pytest.mark.parametrize("r_set", [(), (0, 5)])
    def test_region_rejects_bad_set(self, cycle3, r_set):
        with pytest.raises(OutOfRange):
            RegionSpec(cycle3, enumerate_states(3, 4), r_set)

    def test_flow_profile_rejects_out_of_range_site(self, cycle3):
        params = ProcessParams(4, 0.1)
        mu = stationary_exact(cycle3, params)
        with pytest.raises(OutOfRange):
            flow_profile(cycle3, params, mu, (0, 5), 0)


class TestSmallSystems:
    def test_hitting_every_state_metastable(self, cycle3):
        # N = 1 and A = every site: no interior states, nothing to solve
        enum = enumerate_states(3, 1)
        h, rates, solver = exact._hitting_matrix(cycle3, ProcessParams(1, 0.1), enum,
                                                 (0, 1, 2))
        for y in range(3):
            want = np.zeros(enum.size)
            want[enum.xi_index(y)] = 1.0
            assert h[:, y].tolist() == want.tolist()
        assert rates is None and solver.residual == 0.0

    def test_one_target_is_reached_from_every_state(self):
        # rates 1.23 and 0.11 at N = 30: the interior pivots cancelled to an
        # exact zero and SuperLU raised a bare RuntimeError
        spec, params = random_walk(295)
        enum = enumerate_states(spec.kappa, params.n)
        h, rates, solver = exact._hitting_matrix(spec, params, enum, (0,))
        assert h.tolist() == [[1.0]] * enum.size
        assert rates.shape == (enum.size, enum.size) and solver.residual == 0.0
        assert mean_jump_rate_exact(spec, params, (0,)).raw.tolist() == [[0.0]]

    def test_hitting_refuses_holding_rates_it_cannot_invert(self, cycle3):
        # d = 5e-324 leaves each metastable state a subnormal holding rate,
        # whose reciprocal overflows; with A = (0, 1), xi^2 is interior, and
        # the stationary solve pins one metastable state, so the others are
        params = ProcessParams(3, 5e-324)
        with pytest.raises(OutOfRange, match="too small to invert"):
            mean_jump_rate_exact(cycle3, params, (0, 1))
        for subnormal in (params, ProcessParams(8, 1e-320)):
            with pytest.raises(OutOfRange, match="too small to invert"):
                stationary_exact(cycle3, subnormal)
        # with A = every site only the boundary has them, and it is not inverted
        enum = enumerate_states(3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = exact._hitting_matrix(cycle3, params, enum, (0, 1, 2))[0]
        assert np.isfinite(h).all() and h[enum.xi_index(0), 0] == 1.0

    def test_trace_rates_need_two_particles(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(1, 0.1), (0, 1, 2))
