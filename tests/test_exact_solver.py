"""The exact LU path against a reference solver, plus its diagnostics.

The reference below is the solver the nested-dissection path replaced: one
SuperLU factorization per system in ``MMD_AT_PLUS_A`` order, the stationary
pin on the heaviest metastable state, and one hitting solve per target.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import incproc.exact as exact
from incproc import (OutOfRange, ProcessParams, RegionSpec, SolverFailure, WalkSpec,
                     analyze_walk, enumerate_states, flow_profile,
                     hitting_probabilities, m_function, mean_jump_rate_exact,
                     stationary_exact)
from incproc.exact import (HITTING_TOL, STATIONARY_TOL, build_generator,
                           build_rate_matrix)

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


def reference_trace_rates(spec, params, a_set):
    enum = enumerate_states(spec.kappa, params.n)
    n, d = params.n, params.d
    raw = np.zeros((len(a_set), len(a_set)))
    for j, y in enumerate(a_set):
        h = reference_hitting(spec, params, a_set, y)
        for i, x in enumerate(a_set):
            if x == y:
                continue
            for z in range(spec.kappa):
                if z != x and spec.rates[x, z] > 0:
                    eta = [0] * spec.kappa
                    eta[x] = n - 1
                    eta[z] = 1
                    raw[i, j] += n * d * spec.rates[x, z] * h[enum.rank(eta)]
    return raw


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
    for y in a_set:
        h, _ = hitting_probabilities(spec, params, a_set, y)
        close(h, reference_hitting(spec, params, a_set, y), f"h_{y}")
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
        h, _ = exact._hitting_matrix(enum, build_rate_matrix(spec, params, enum),
                                     a_set, HITTING_TOL)
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
        perm = exact._nested_dissection(enum.counts_matrix())
        assert np.array_equal(np.sort(perm), np.arange(enum.size))


class TestNestedDissection:
    def test_separator_splits_the_move_graph(self):
        # the last block of the top-level split separates the two halves:
        # no single move links a state ordered before the separator on one
        # side with a state on the other side
        spec, params = WalkSpec.cycle(4, 0.6), ProcessParams(20, 1e-2)
        enum = enumerate_states(spec.kappa, params.n)
        counts = enum.counts_matrix()
        span = counts.max(axis=0) - counts.min(axis=0)
        j = int(np.argmax(span))
        v = np.sort(counts[:, j])[enum.size // 2]
        side = np.sign(counts[:, j].astype(int) - v)
        rates = build_rate_matrix(spec, params, enum).tocoo()
        assert (side[rates.row] * side[rates.col] >= 0).all()
        perm = exact._nested_dissection(counts)
        sep = perm[-int((side == 0).sum()):]
        assert (counts[sep, j] == v).all()

    def test_less_fill_than_minimum_degree(self):
        # at desk scale on four sites the count-coordinate dissection beats
        # the generic minimum-degree ordering on the stationary system
        spec, params = KAPPA4, ProcessParams(25, 1e-4)
        a, _ = pinned_balance(spec, params)
        mmd = spla.splu(a, permc_spec="MMD_AT_PLUS_A").nnz
        assert stationary_exact(spec, params).solver.lu_nnz < 0.8 * mmd


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
        def broken(a, b, coords):
            return (-np.ones_like(b) if negative else np.linspace(1.0, 2.0, len(b))), 7
        monkeypatch.setattr(exact, "_solve_refined", broken)
        with pytest.raises(SolverFailure, match="stationary residual"):
            stationary_exact(up3, ProcessParams(6, 0.2))

    def test_closed_form_has_no_solver(self, cycle3):
        assert exact.stationary_closed_form(cycle3, ProcessParams(5, 0.1)).solver is None

    def test_trace_rates_record_one_factorization(self, up3):
        tr = mean_jump_rate_exact(up3, ProcessParams(12, 0.05), (0, 1, 2))
        assert tr.solver.path == "lu"
        assert tr.solver.bound == HITTING_TOL
        assert 0.0 <= tr.solver.residual <= HITTING_TOL
        assert tr.solver.lu_nnz > 0

    def test_trace_rates_factor_once(self, up3, monkeypatch):
        calls = []
        solve = exact._solve_refined

        def counted(a, b, coords):
            calls.append(b.shape)
            return solve(a, b, coords)

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
            hitting_probabilities(cycle3, ProcessParams(4, 0.1), (0, 7), 7)

    def test_hitting_rejects_negative_site(self, cycle3):
        with pytest.raises(OutOfRange):
            hitting_probabilities(cycle3, ProcessParams(4, 0.1), (-1, 0), 0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_region_rejects_non_finite_eps(self, cycle3, eps):
        with pytest.raises(OutOfRange):
            RegionSpec(cycle3, enumerate_states(3, 4), (0, 1), eps=eps)

    @pytest.mark.parametrize("r_set", [(), (0, 5)])
    def test_region_rejects_bad_set(self, cycle3, r_set):
        with pytest.raises(OutOfRange):
            RegionSpec(cycle3, enumerate_states(3, 4), r_set)

    @pytest.mark.parametrize("r_set", [(-1,), (0, 5)])
    def test_m_function_rejects_bad_site(self, cycle3, r_set):
        # (-1,) used to wrap round to the last site; (0, 5) an IndexError
        mu = stationary_exact(cycle3, ProcessParams(4, 0.1))
        with pytest.raises(OutOfRange):
            m_function(mu, r_set)

    def test_flow_profile_rejects_out_of_range_site(self, cycle3):
        params = ProcessParams(4, 0.1)
        mu = stationary_exact(cycle3, params)
        with pytest.raises(OutOfRange):
            flow_profile(cycle3, params, mu, (0, 5), 0)


class TestSmallSystems:
    def test_hitting_every_state_metastable(self, cycle3):
        # N = 1 and A = every site: no interior states, nothing to solve
        for y in range(3):
            h, enum = hitting_probabilities(cycle3, ProcessParams(1, 0.1),
                                            (0, 1, 2), y)
            want = np.zeros(enum.size)
            want[enum.xi_index(y)] = 1.0
            assert h.tolist() == want.tolist()

    def test_hitting_refuses_holding_rates_it_cannot_invert(self, cycle3):
        # d = 5e-324 leaves each metastable state a subnormal holding rate,
        # whose reciprocal overflows; with A = (0, 1), xi^2 is interior
        params = ProcessParams(3, 5e-324)
        with pytest.raises(OutOfRange, match="too small to invert"):
            hitting_probabilities(cycle3, params, (0, 1), 0)
        # with A = every site only the boundary has them, and it is not inverted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, enum = hitting_probabilities(cycle3, params, (0, 1, 2), 0)
        assert np.isfinite(h).all() and h[enum.xi_index(0)] == 1.0

    def test_trace_rates_need_two_particles(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(1, 0.1), (0, 1, 2))
