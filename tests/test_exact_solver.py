"""The exact LU path against reference solvers, plus its diagnostics.

Every exact solve reads one reduction: the interior system ``I - P_ii`` of
the jump chain off every metastable state, factored once. Its kappa hitting
columns give the generator G of the trace chain on the metastable states.
The stationary law is G's stationary law there, by GTH elimination, and the
transposed solve of the same factor off them; the trace rates on A are the
GTH Schur complement of G onto A.

The references below are the solvers this replaced, one SuperLU
factorization per system in ``MMD_AT_PLUS_A`` order: the stationary law
from the transposed generator with one balance row replaced by a pin on the
heaviest metastable state (``pinned_balance``), and one hitting solve per
target of A on the system off the metastable states of A alone
(``per_a_system``), with the trace rates summed move by move
(``loop_trace_rates``). ``oracle_trace_rates`` solves that per-A system in
exact rational arithmetic. The multifrontal factor is checked against
``reference.superlu_solver``, SuperLU on the same interior system in the
same order.
"""

import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import incproc.exact as exact
import incproc.model as model
from incproc import (OutOfRange, ProcessParams, RegionSpec, SolverFailure,
                     StateSpaceTooLarge, WalkSpec, analyze_walk, enumerate_states,
                     flow_profile, mean_jump_rate_exact, stationary_exact)
from incproc.exact import (HITTING_TOL, STATIONARY_TOL, build_generator,
                           build_rate_matrix)
from incproc.thermo import build_torus, torus_walk
from reference import superlu_solver

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


def per_a_system(spec, params, a_set):
    """The hitting system ``I - P_ii`` off the metastable states of ``a_set``
    alone, the jump probabilities into each of them as columns, and the
    interior states."""
    enum = enumerate_states(spec.kappa, params.n)
    rates = build_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    p = (sp.diags(1.0 / holding) @ rates).tocsc()
    interior = np.setdiff1d(np.arange(enum.size), [enum.xi_index(x) for x in a_set])
    a_mat = (sp.eye(interior.size) - p[interior][:, interior]).tocsc()
    return a_mat, p[interior][:, [enum.xi_index(y) for y in a_set]].toarray(), interior


def reference_hitting(spec, params, a_set):
    """Per state, the probability of reaching each xi^y, y in ``a_set``,
    first among the metastable states of ``a_set``: one solve per target."""
    enum = enumerate_states(spec.kappa, params.n)
    a_mat, b, interior = per_a_system(spec, params, a_set)
    h = np.zeros((enum.size, len(a_set)))
    h[[enum.xi_index(y) for y in a_set], np.arange(len(a_set))] = 1.0
    for j, column in enumerate(b.T):
        h[interior, j] = np.clip(_reference_solve(a_mat, column), 0.0, 1.0)
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
    return loop_trace_rates(spec, params, enum, a_set, reference_hitting(spec, params, a_set))


def exact_solve(rows, b):
    """Solve ``rows x = b`` in rational arithmetic: ``rows`` holds one
    ``{column: Fraction}`` dict per equation, ``b`` one list of right sides
    per equation. Sparse Gaussian elimination, any nonzero pivot."""
    rows, b = [dict(row) for row in rows], [list(rhs) for rhs in b]
    n = len(rows)
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i].get(k))
        rows[k], rows[p], b[k], b[p] = rows[p], rows[k], b[p], b[k]
        for i in range(k + 1, n):
            f = rows[i].pop(k, 0)
            if f:
                f /= rows[k][k]
                for j, v in rows[k].items():
                    if j != k:
                        rows[i][j] = rows[i].get(j, 0) - f * v
                b[i] = [x - f * y for x, y in zip(b[i], b[k])]
    x = [None] * n
    for k in range(n - 1, -1, -1):
        rhs = b[k]
        for j, v in rows[k].items():
            if j != k:
                rhs = [r - v * c for r, c in zip(rhs, x[j])]
        x[k] = [r / rows[k][k] for r in rhs]
    return x


def oracle_trace_rates(spec, params, a_set):
    """The trace rates on ``a_set`` from the per-A hitting system built and
    solved in exact rational arithmetic from the walk's float rates and d,
    which convert exactly; only the result is rounded."""
    enum = enumerate_states(spec.kappa, params.n)
    counts = enum.counts_matrix().astype(int)
    n, d = params.n, Fraction(params.d)
    r = [[Fraction(float(v)) for v in row] for row in spec.rates]
    xi = [enum.xi_index(x) for x in a_set]
    interior = [i for i in range(enum.size) if i not in xi]
    pos = {state: k for k, state in enumerate(interior)}
    rows, b = [], []
    for i in interior:
        c = counts[i]
        moves = [(x, y, c[x] * (d + c[y]) * r[x][y]) for x in range(spec.kappa)
                 for y in range(spec.kappa) if x != y and c[x] and r[x][y]]
        holding = sum(rate for *_, rate in moves)
        row, rhs = {pos[i]: Fraction(1)}, [Fraction(0)] * len(a_set)
        for x, y, rate in moves:
            eta = c.copy()
            eta[x] -= 1
            eta[y] += 1
            j = enum.rank(eta)
            if j in xi:
                rhs[xi.index(j)] += rate / holding
            else:
                row[pos[j]] = row.get(pos[j], 0) - rate / holding
        rows.append(row)
        b.append(rhs)
    h = exact_solve(rows, b)
    raw = np.zeros((len(a_set), len(a_set)))
    for s, x in enumerate(a_set):
        for t in range(len(a_set)):
            if t == s:
                continue
            total = Fraction(0)
            for z in range(spec.kappa):
                if z != x and r[x][z]:
                    eta = [0] * spec.kappa
                    eta[x], eta[z] = n - 1, 1
                    j = enum.rank(eta)
                    hit = h[pos[j]][t] if j in pos else Fraction(j == xi[t])
                    total += n * d * r[x][z] * hit
            raw[s, t] = float(total)
    return raw


def close(new, ref, what, tol=AGREE):
    new, ref = np.asarray(new), np.asarray(ref)
    err = np.abs(new - ref).max() / max(np.abs(ref).max(), 1e-300)
    assert err <= tol, f"{what}: relative deviation {err:.2e}"


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
    h = exact._trace_chain(spec, params).hitting
    every = tuple(range(spec.kappa))
    for y, column, want in zip(every, h.T, reference_hitting(spec, params, every).T):
        close(column, want, f"h_{y}")
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
        h = exact._trace_chain(spec, params).hitting
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

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_trace_rates_match_loop(self, seed):
        # on every site the rates are G off its diagonal: the rate rows
        # times h sum the same terms in the same order as the loop
        spec, params = random_walk(seed)
        a_set = tuple(range(spec.kappa))
        enum = enumerate_states(spec.kappa, params.n)
        h = exact._trace_chain(spec, params).hitting
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
        perm = exact._nested_dissection(enum.counts_matrix()).perm
        assert np.array_equal(np.sort(perm), np.arange(enum.size))


def one_way_walk(seed: int) -> tuple[WalkSpec, ProcessParams]:
    """An irreducible walk on 3..5 sites none of whose moves has its reverse
    (a directed cycle and some chords along it), and a small N."""
    rng = np.random.default_rng(seed)
    kappa = int(rng.integers(3, 6))
    cycle = rng.permutation(kappa)
    rates = np.zeros((kappa, kappa))
    rates[cycle, np.roll(cycle, -1)] = rng.uniform(0.1, 2.0, size=kappa)
    i, j = np.triu_indices(kappa, 2)
    chord = (j - i < kappa - 1) & (rng.random(i.size) < 0.5)
    rates[cycle[i[chord]], cycle[j[chord]]] = rng.uniform(0.1, 2.0, size=int(chord.sum()))
    n_max = {3: 20, 4: 10, 5: 7}[kappa]
    params = ProcessParams(int(rng.integers(2, n_max + 1)),
                           float(10.0 ** rng.uniform(-4, -0.5)))
    return WalkSpec.from_matrix(rates), params


def condition(a):
    """The 1-norm condition number of the sparse matrix ``a``, its inverse's
    norm estimated by ``onenormest`` through a SuperLU factor."""
    lu = spla.splu(sp.csc_matrix(a))
    inverse = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda x: lu.solve(x, trans="T"))
    return spla.norm(a, 1) * spla.onenormest(inverse)


def agree_with_superlu(spec, params, a_set):
    """The stationary law, the hitting matrix and the trace rates agree with
    SuperLU factoring the same interior system in the same order: within
    AGREE, or within cond(A) * eps where the condition number of the system
    A puts that above AGREE. Two backward-stable solves of A may differ by
    about that much: on one of 600 random walks, with cond(A) = 2.9e8,
    SuperLU in two orders agreed to 1e-21 and missed the exact solution by
    1.1e-9, where the multifrontal factor missed it by 9.3e-11. The trace
    rates also agree with one SuperLU solve per target of the system off the
    metastable states of A alone, within AGREE or that system's cond * eps."""
    cond = []
    solver = exact._solver

    def measured(a, tree):
        if not cond:    # every solve factors the same system
            cond.append(condition(a))
        return solver(a, tree)

    with mock.patch.object(exact, "_solver", measured):
        new = solve_all(spec, params, a_set)
    with mock.patch.object(exact, "_solver", superlu_solver):
        ref = solve_all(spec, params, a_set)
    eps = np.finfo(float).eps
    for what, got, want in zip(("stationary law", "hitting matrix", "trace rates"), new, ref):
        close(got, want, what, max(AGREE, cond[0] * eps))
    close(new[2], reference_trace_rates(spec, params, a_set), "trace rates, per target",
          max(AGREE, condition(per_a_system(spec, params, a_set)[0]) * eps))


class TestAgainstSuperLU:
    @given(st.integers(0, 100_000), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_walks_agree(self, seed, one_way, data):
        spec, params = (one_way_walk if one_way else random_walk)(seed)
        if one_way:
            assert not ((spec.rates > 0) & (spec.rates.T > 0)).any()
        a_set = tuple(sorted(data.draw(st.sets(st.integers(0, spec.kappa - 1),
                                                min_size=1))))
        agree_with_superlu(spec, params, a_set)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_one_way_walk_agrees_for_every_target_set(self, up3, size):
        for a_set in combinations(range(3), size):
            agree_with_superlu(up3, ProcessParams(14, 0.05), a_set)

    def test_benchmark_walk_agrees(self):
        agree_with_superlu(KAPPA4, ProcessParams(35, 1e-4), (0, 1, 2, 3))

    def test_a_perturbed_front_entry_fails(self, monkeypatch):
        # block 0 assembles row 0 of the system from its first stored entry,
        # here 0.1% off: the hitting residual check of the one reduction
        # catches it in every exact solve
        factor = exact._factor

        def planted(a, tree):
            a = a.tocsr(copy=True)
            a.data[0] *= 1.0 + 1e-3
            return factor(a, tree)

        monkeypatch.setattr(exact, "_factor", planted)
        params = ProcessParams(12, 1e-3)
        with pytest.raises(SolverFailure, match="hitting-probability residual"):
            stationary_exact(KAPPA4, params)
        with pytest.raises(SolverFailure, match="hitting-probability residual"):
            mean_jump_rate_exact(KAPPA4, params, (0,))

    def test_a_perturbed_transposed_solve_fails(self, monkeypatch):
        # the transposed solve 1e-9 off stays inside the stationary residual
        # bound, and the comparison with SuperLU catches it
        solver = exact._solver

        def planted(a, tree):
            solve, lu_nnz = solver(a, tree)
            return (lambda b, trans=False: solve(b, trans) * (1.0 + 1e-9 * trans)), lu_nnz

        monkeypatch.setattr(exact, "_solver", planted)
        with pytest.raises(AssertionError, match="stationary law"):
            agree_with_superlu(KAPPA4, ProcessParams(12, 1e-3), (0, 1))

    def test_transposed_sweep_matches_a_sparse_solve(self, chain4):
        # incproc_lu_solve with trans solves a.T x = b on the factor of a:
        # the U^T and U12^T sweep down, then L21^T, L^T and the swaps undone
        # in reverse; here blocks pivot more than once, so the order shows
        _, systems = solves_of(lambda: exact._trace_chain(chain4, ProcessParams(9, 1e-2)))
        (a, tree), = systems
        lu, ipiv = exact._factor(a, tree)
        b = np.random.default_rng(7).random((a.shape[0], 3))
        want = spla.spsolve(a.T.tocsc(), b)
        close(exact._lu_solve(tree, lu, ipiv, b, trans=True), want, "a.T x = b", 1e-13)
        close(exact._lu_solve(tree, lu, ipiv, b), spla.spsolve(a.tocsc(), b), "a x = b", 1e-13)


class TestOracle:
    def test_trace_rates_match_an_exact_solve(self):
        # 66 states; the system off xi^1 and xi^2 alone has cond * eps of
        # 5e-7, and solving it in floats missed these rates by 6.4e-10; the
        # system off every metastable state has 2e-14
        spec, params = random_walk(6)
        assert enumerate_states(spec.kappa, params.n).size == 66
        a_set = (1, 2)
        close(mean_jump_rate_exact(spec, params, a_set).raw,
              oracle_trace_rates(spec, params, a_set), "trace rates")

    @pytest.mark.parametrize("slow, n", [(1e-150, 2), (1e-100, 3)])
    def test_a_slow_site_outside_a(self, slow, n):
        # site 2 leaves only for site 0, at rate 1e-150 or 1e-100, so its
        # row of G is near the underflow threshold; the system off xi^0 and
        # xi^1 alone has cond * eps of 1.4 and 7.6, and solving it in floats
        # put these rates 1% off (0.00995 and 0.00992, not 0.01005 and 0.01011)
        spec = WalkSpec.from_matrix([[0, 1, 1], [1, 0, 0], [slow, 0, 0]])
        params = ProcessParams(n, 0.01)
        close(mean_jump_rate_exact(spec, params, (0, 1)).raw,
              oracle_trace_rates(spec, params, (0, 1)), "trace rates", 1e-15)


def solves_of(run):
    """The result of ``run()`` and the ``(a, tree)`` of each factor it made."""
    systems = []
    solver = exact._solver

    def spy(a, tree):
        systems.append((a, tree))
        return solver(a, tree)

    with mock.patch.object(exact, "_solver", spy):
        return run(), systems


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
    return (stationary_exact(spec, params).weights, exact._trace_chain(spec, params).hitting.T,
            mean_jump_rate_exact(spec, params, a_set).raw)


def single_count_tree(coords):
    """What the solves read of a tree, for the single-count order; SuperLU
    factors the system in that order."""
    return SimpleNamespace(perm=single_count_order(coords), stored=0, factor_bytes=0)


def agree_with_single_count_order(spec, params, a_set):
    new = solve_all(spec, params, a_set)
    with mock.patch.object(exact, "_nested_dissection", single_count_tree), \
            mock.patch.object(exact, "_solver", superlu_solver):
        ref = solve_all(spec, params, a_set)
    close(new[0], ref[0], "stationary law")
    for y, h_new, h_ref in zip(range(spec.kappa), new[1], ref[1]):
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
            perm = exact._nested_dissection(counts).perm
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
        # single_count_nnz: SuperLU's L+U of the pinned stationary system
        # under the single-count order; the order's quality is read the same
        # way, on the system off every metastable state
        with mock.patch.object(exact, "_solver", superlu_solver):
            assert stationary_exact(walk, params).solver.lu_nnz <= single_count_nnz
        solver = stationary_exact(walk, params).solver
        assert solver.lu_nnz == solver.predicted_nnz

    def test_hitting_fill_below_single_count_order(self):
        params, a_set = ProcessParams(35, 1e-4), (0, 1, 2, 3)
        with mock.patch.object(exact, "_solver", superlu_solver):
            assert mean_jump_rate_exact(KAPPA4, params, a_set).solver.lu_nnz <= 2_761_282
        solver = mean_jump_rate_exact(KAPPA4, params, a_set).solver
        assert solver.lu_nnz == solver.predicted_nnz

    def test_candidate_family_is_bounded(self):
        # every |S| <= kappa/2 up to eight sites, half-size sets once per
        # complement pair; the single sites beyond, so a 40-site walk orders
        # quickly
        assert [exact._candidate_sets(k).shape[1] for k in (2, 3, 4, 5, 8, 9, 40)] == [
            1, 3, 7, 15, 127, 9, 40]
        assert (exact._candidate_sets(40) == np.eye(40, dtype=int)).all()
        counts = enumerate_states(40, 3).counts_matrix()
        start = time.perf_counter()
        tree = exact._nested_dissection(counts)
        assert time.perf_counter() - start < 2.0
        assert np.array_equal(np.sort(tree.perm), np.arange(counts.shape[0]))
        assert tree.stored > 0

    def test_less_fill_than_minimum_degree(self):
        # at desk scale on four sites the count-coordinate dissection beats
        # the generic minimum-degree ordering on the system every solve factors
        _, systems = solves_of(lambda: stationary_exact(KAPPA4, ProcessParams(25, 1e-4)))
        (a, _), = systems
        mmd = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").nnz
        assert superlu_solver(a)[1] < 0.8 * mmd


REFUSE = """
import sys
import incproc.exact as exact
from incproc import ProcessParams, StateSpaceTooLarge, WalkSpec, stationary_exact
# the budget of an 8 GiB machine; factoring must not start
exact._lu_memory_budget = lambda: 4 * 2**30
exact._factor = None
for kappa, n in ((4, 140), (5, 44)):
    try:
        stationary_exact(WalkSpec.cycle(kappa, 0.7), ProcessParams(n, 1e-4))
    except StateSpaceTooLarge as exc:
        print(exc)
    else:
        sys.exit("not refused")
# this process's own peak RSS in KiB: exec starts it afresh, where
# ru_maxrss would carry the peak of the process that started it
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
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
        assert int(out[2]) < 500 * 1024

    def test_guard_counts_what_the_factor_allocates(self):
        # the factor's entries and its update matrices alive at once are the
        # guard's bytes; beyond them it allocates the column copy of the
        # system and index arrays of a few bytes a state
        _, systems = solves_of(lambda: stationary_exact(KAPPA4, ProcessParams(35, 1e-4)))
        (a, tree), = systems
        assert (tree.stored, tree.updates) == (2_700_650, 615_089)
        n = a.shape[0]
        columns = a.tocsc()
        copied = columns.data.nbytes + columns.indices.nbytes + columns.indptr.nbytes
        index = 4 * n + 4 * n + 4 * tree.widest + 8 * tree.sizes.size
        exact._factor(a, tree)      # the library and the BLAS table load once
        tracemalloc.start()
        try:
            lu, ipiv = exact._factor(a, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lu.nbytes == 8 * tree.stored and ipiv.nbytes == 4 * n
        assert 0 <= peak - (tree.factor_bytes + copied + index) < 16 * 1024

    def test_refusal_names_the_budget(self, cycle3, monkeypatch):
        monkeypatch.setattr(exact, "_lu_memory_budget", lambda: 1000)
        with pytest.raises(StateSpaceTooLarge, match="over the budget") as exc:
            mean_jump_rate_exact(cycle3, ProcessParams(10, 0.1), (0, 1))
        # the size of the state space, the metastable states included
        assert exc.value.size == 66 and exc.value.cap is None


class TestDiagnostics:
    def test_stationary_records_lu(self, up3):
        mu = stationary_exact(up3, ProcessParams(15, 0.01))
        assert mu.solver.path == "lu"
        assert 0.0 <= mu.solver.residual <= mu.solver.bound
        assert mu.solver.lu_nnz >= mu.enum.size

    @pytest.mark.parametrize("negative", [True, False])
    def test_stationary_failed_solve_raises(self, up3, monkeypatch, negative):
        # a transposed solve with negative entries, and a positive one that
        # misses the residual bound: there is no fallback
        solver = exact._solver

        def broken(a, tree):
            solve, lu_nnz = solver(a, tree)

            def bad(b, trans=False):
                if not trans:
                    return solve(b)
                return -np.ones_like(b) if negative else np.linspace(1.0, 2.0, len(b))

            return bad, lu_nnz

        monkeypatch.setattr(exact, "_solver", broken)
        with pytest.raises(SolverFailure, match="stationary residual"):
            stationary_exact(up3, ProcessParams(6, 0.2))

    @pytest.mark.parametrize("stationary", [True, False])
    def test_nan_hitting_solve_raises(self, cycle3, monkeypatch, stationary):
        # a nan fails the residual bound as any other miss does, in both solves
        solver = exact._solver

        def planted(a, tree):
            solve, lu_nnz = solver(a, tree)

            def nan_first(b, trans=False):
                x = solve(b, trans)
                x.flat[0] = np.nan
                return x

            return nan_first, lu_nnz

        monkeypatch.setattr(exact, "_solver", planted)
        with pytest.raises(SolverFailure, match="hitting-probability residual"):
            if stationary:
                stationary_exact(cycle3, ProcessParams(6, 0.1))
            else:
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

    def test_one_factor_serves_every_solve(self, up3, monkeypatch):
        # 42 interior states: the three hitting columns, then for the
        # stationary law one transposed column, on one factor per call
        factors, solves = [], []
        solver = exact._solver

        def counted(a, tree):
            factors.append(a.shape)
            solve, lu_nnz = solver(a, tree)

            def each(b, trans=False):
                solves.append((b.shape, trans))
                return solve(b, trans)

            return each, lu_nnz

        monkeypatch.setattr(exact, "_solver", counted)
        params = ProcessParams(8, 0.05)
        for a_set in ((0, 1, 2), (0, 2), (1,)):
            mean_jump_rate_exact(up3, params, a_set)
        assert factors == [(42, 42)] * 3 and solves == [((42, 3), False)] * 3
        factors.clear()
        solves.clear()
        stationary_exact(up3, params)
        assert factors == [(42, 42)] and solves == [((42, 3), False), ((42,), True)]


class TestSiteSets:
    def test_trace_rates_reject_out_of_range_site(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(4, 0.1), (0, 7))

    def test_trace_rates_reject_empty_set(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(4, 0.1), ())

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


class TestGTH:
    def test_schur_complement_of_the_generator(self):
        # the trace rates on A are the Schur complement of G onto A, off
        # its diagonal
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.1, 2.0, (5, 5))
        np.fill_diagonal(rates, 0.0)
        g = rates - np.diag(rates.sum(axis=1))
        keep, rest = [3, 1], [0, 2, 4]
        want = g[np.ix_(keep, keep)] - g[np.ix_(keep, rest)] @ np.linalg.solve(
            g[np.ix_(rest, rest)], g[np.ix_(rest, keep)])
        got = model._gth(g, keep)[1][:2, :2]
        off = ~np.eye(2, dtype=bool)
        close(got[off], want[off], "trace rates", 1e-14)

    def test_states_go_by_the_path_they_reach_the_kept_states_by(self):
        # the cycle 0 -> 1 -> 3 -> 2 -> 0: 2 reaches 0 in one jump, 3 in
        # two and 1 in three
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 3] = rates[3, 2] = rates[2, 0] = 1.0
        assert model._reaching(rates, [0]) == [0, 2, 3, 1]
        order, q = model._gth(rates, [0, 1])
        assert order == [0, 1, 2, 3] and q[0, 1] == q[1, 0] == 1.0
        assert model._gth_stationary(rates).tolist() == [0.25] * 4

    def test_a_state_that_reaches_no_kept_state_is_refused(self):
        # state 2 has no rate left to 0 or 1: eliminating it divided 0 by 0,
        # and the trace rates came back nan with a warning
        rates = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SolverFailure, match=r"states \[2\] reach none of \[0, 1\]"):
            model._gth(rates, [0, 1])

    def test_stationary_law_of_a_birth_death_chain(self):
        # seven states whose shares fall by 1e-6 a step, to 1e-36: GTH keeps
        # every share to a few ulps of the product formula
        up, down = 1e-6, 1.0
        rates = np.diag(np.full(6, up), 1) + np.diag(np.full(6, down), -1)
        want = up ** np.arange(7) / (up ** np.arange(7)).sum()
        got = model._gth_stationary(rates)
        assert np.abs(got / want - 1.0).max() <= 1e-14

    def test_stationary_law_starts_from_the_closed_class(self):
        # state 0 is left at rate 1 and never entered: the law sits on 1
        # and 2, and eliminating down to 0 divided by zero
        rates = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert model._gth_stationary(rates).tolist() == [0.0, 1 / 3, 2 / 3]

    def test_two_closed_classes_are_refused(self):
        # 0 leaves for 1 or 2, which never leave
        rates = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SolverFailure, match="reached from every other"):
            model._gth_stationary(rates)

    def test_shares_beyond_the_float_range_are_refused(self):
        # state 1 outweighs state 0 by 1e310
        rates = np.array([[0.0, 1e10], [1e-300, 0.0]])
        with pytest.raises(SolverFailure, match="float range"):
            model._gth_stationary(rates)

    def test_one_state_chain(self):
        assert model._gth_stationary(np.zeros((1, 1))).tolist() == [1.0]


class TestSmallSystems:
    def test_every_state_metastable(self, cycle3):
        # N = 1: every state is metastable, the interior is empty, G is the
        # rate matrix, and the stationary law is the walk's
        chain = exact._trace_chain(cycle3, ProcessParams(1, 0.1))
        assert chain.order.size == 0 and chain.solver.residual == 0.0
        assert chain.hitting[chain.xi].tolist() == np.eye(3).tolist()
        mu = stationary_exact(cycle3, ProcessParams(1, 0.1))
        close(mu.weights[chain.xi], analyze_walk(cycle3).m, "stationary law", 1e-15)

    def test_one_target_is_reached_from_every_state(self):
        # rates 1.23 and 0.11 at N = 30: the system off xi^0 alone had
        # interior pivots that cancelled to an exact zero, and SuperLU raised
        # a bare RuntimeError; the GTH reduction onto one state leaves no rate
        spec, params = random_walk(295)
        assert mean_jump_rate_exact(spec, params, (0,)).raw.tolist() == [[0.0]]
        assert mean_jump_rate_exact(spec, params, (0,)).stationary().tolist() == [1.0]

    def test_hitting_refuses_holding_rates_it_cannot_invert(self, cycle3, up3):
        # d = 5e-324 leaves each metastable state a subnormal holding rate of
        # one or two bits, and the rates read from it lose their digits: the
        # trace rates on the 3-cycle were 1/3 each where d = 1e-200 gives
        # 0.4342 and 0.0342. Every exact solve refuses a holding rate below
        # the smallest normal float
        params = ProcessParams(3, 5e-324)
        for a_set in ((0, 1), (0, 1, 2)):
            with pytest.raises(OutOfRange, match="3 states have a subnormal holding rate"):
                mean_jump_rate_exact(cycle3, params, a_set)
        for walk, subnormal in ((cycle3, params), (cycle3, ProcessParams(8, 1e-320)),
                                (up3, ProcessParams(8, 1e-320))):
            with pytest.raises(OutOfRange, match="too small to invert"):
                stationary_exact(walk, subnormal)
            with pytest.raises(OutOfRange, match="too small to invert"):
                mean_jump_rate_exact(walk, subnormal, (0, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = mean_jump_rate_exact(cycle3, ProcessParams(3, 1e-200), (0, 1, 2))
        assert tr.normalized[0, 1] == pytest.approx(0.4341772152, rel=1e-9)
        assert tr.normalized[0, 2] == pytest.approx(0.0341772152, rel=1e-9)

    def test_stationary_law_when_a_trace_rate_underflows(self):
        # site 1 leaves for site 0 at rate 1e-300, so G's rate from xi^1 to
        # xi^0 rounds to zero: the GTH elimination starts from xi^1, which
        # every metastable state reaches, and does not divide by that zero
        spec = WalkSpec.from_matrix([[0, 1], [1e-300, 0]])
        params = ProcessParams(5, 0.01)
        assert exact._trace_chain(spec, params).generator[1, 0] == 0.0
        mu = stationary_exact(spec, params)
        assert np.array_equal(mu.weights, reference_stationary(spec, params))

    def test_trace_rates_through_a_site_whose_rates_underflow(self):
        # site 2 leaves only for site 0, at rate 1e-300: its row of G rounds
        # to zero, so nothing is left to share its exits between xi^0 and
        # xi^1 (eliminating it divided 0 by 0). The system off xi^0 and
        # xi^1 alone fails its residual check here too
        spec = WalkSpec.from_matrix([[0, 1, 1], [1, 0, 0], [1e-300, 0, 0]])
        params = ProcessParams(5, 0.01)
        with pytest.raises(SolverFailure, match=r"states \[2\] reach none of \[0, 1\]"):
            mean_jump_rate_exact(spec, params, (0, 1))
        # the stationary law needs no exit from xi^2 to be shared out
        close(stationary_exact(spec, params).weights, reference_stationary(spec, params),
              "stationary law")

    def test_trace_rates_need_two_particles(self, cycle3):
        with pytest.raises(OutOfRange):
            mean_jump_rate_exact(cycle3, ProcessParams(1, 0.1), (0, 1, 2))
