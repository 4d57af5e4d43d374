"""Rate-matrix assembly and move ranks against the code they replaced.

The references below rank every moved state with ``rank_many`` on a shifted
copy of the counts, one move at a time: the COO build of the rate matrix,
with the generator as the sparse difference ``rates - diag(holding)``, the
one-move closure of a region's inner core and the stationary interior
system through LIL. The new code must reproduce them bit for bit.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import incproc.exact as exact
from incproc import (NonIrreducibleWalk, ProcessParams, RegionSpec, WalkSpec, analyze_walk,
                     stationary_exact)
from incproc.exact import build_generator, build_rate_matrix
from incproc.states import StateEnumeration


def _coo_rate_matrix(spec, params, enum):
    counts = enum.counts_matrix()
    d = params.d
    rows, cols, vals = [], [], []
    for x in range(spec.kappa):
        cx = counts[:, x]
        src = np.nonzero(cx >= 1)[0]
        if src.size == 0:
            continue
        for y in range(spec.kappa):
            rxy = spec.rates[x, y]
            if y == x or rxy == 0.0:
                continue
            shifted = counts[src].astype(np.int64)
            shifted[:, x] -= 1
            shifted[:, y] += 1
            rows.append(src)
            cols.append(enum.rank_many(shifted))
            vals.append(cx[src] * (d + counts[src, y]) * rxy)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(enum.size, enum.size))


def _coo_generator(spec, params, enum):
    rates = _coo_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    return (rates - sp.diags(holding)).tocsr()


def _loop_inner_closure(reg):
    counts = reg.enum.counts_matrix()
    inner = reg.inner_core
    reach = np.zeros(reg.enum.size, dtype=bool)
    reach[inner] = True
    for x in reg.r_set:
        for y in reg.r_set:
            if x == y or reg.walk.rates[x, y] == 0.0:
                continue
            src = inner[counts[inner, x] >= 1]
            if src.size == 0:
                continue
            shifted = counts[src].astype(np.int64)
            shifted[:, x] -= 1
            shifted[:, y] += 1
            reach[reg.enum.rank_many(shifted)] = True
    return np.nonzero(reach)[0]


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# Rates: a positive cycle keeps the walk irreducible; the smallest subnormal
# underflows to a zero jump rate from states with few particles at the
# source and makes rows with no nonzero move.
_RATE = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.05, 3.0))


@st.composite
def _walks(draw):
    kappa = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    rates = np.array([[draw(_RATE) if x != y else 0.0 for y in range(kappa)]
                      for x in range(kappa)])
    for x in range(kappa):
        if rates[x, (x + 1) % kappa] == 0.0:
            rates[x, (x + 1) % kappa] = draw(st.sampled_from([5e-324, 1.0]))
    d = draw(st.floats(1e-6, 0.5))
    return WalkSpec.from_matrix(rates), ProcessParams(n, d)


class TestAssembly:
    @given(_walks())
    @settings(max_examples=150, deadline=None)
    def test_builders_match_coo_reference(self, walk_params):
        walk, params = walk_params
        enum = StateEnumeration(walk.kappa, params.n)
        _assert_same_csr(build_rate_matrix(walk, params, enum),
                         _coo_rate_matrix(walk, params, enum))
        _assert_same_csr(build_generator(walk, params, enum),
                         _coo_generator(walk, params, enum))

    def test_rows_without_a_nonzero_move(self):
        # every move out of site 0 underflows to 0 from (4, 0, 0)
        walk = WalkSpec.from_matrix([[0.0, 5e-324, 0.0],
                                     [0.0, 0.0, 1.0],
                                     [1.0, 0.0, 0.0]])
        params = ProcessParams(4, 1e-3)
        enum = StateEnumeration(3, 4)
        rates = build_rate_matrix(walk, params, enum)
        q = build_generator(walk, params, enum)
        assert (rates.data == 0.0).any()
        assert q.indptr[enum.xi_index(0) + 1] == q.indptr[enum.xi_index(0)]
        _assert_same_csr(rates, _coo_rate_matrix(walk, params, enum))
        _assert_same_csr(q, _coo_generator(walk, params, enum))

    def test_analysis_size_generator(self):
        rates = np.zeros((5, 5))
        for shift, weight in ((1, 0.7), (2, 1.1), (4, 1.3)):
            rates[np.arange(5), (np.arange(5) + shift) % 5] += weight
        walk, params = WalkSpec.from_matrix(rates), ProcessParams(30, 1e-3)
        enum = StateEnumeration(5, 30)
        _assert_same_csr(build_generator(walk, params, enum),
                         _coo_generator(walk, params, enum))


class TestMoveRanks:
    @given(st.integers(2, 6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_every_move_matches_rank_many(self, kappa, n):
        enum = StateEnumeration(kappa, n)
        counts = enum.counts_matrix()
        xs, ys = np.array([(x, y) for x in range(kappa) for y in range(kappa)
                           if x != y]).T
        moved = enum.move_ranks(np.arange(enum.size), xs, ys)
        assert moved.shape == (xs.size, enum.size)
        for row, x, y in zip(moved, xs, ys):
            src = np.nonzero(counts[:, x] >= 1)[0]
            shifted = counts[src].astype(np.int64)
            shifted[:, x] -= 1
            shifted[:, y] += 1
            assert np.array_equal(row[src], enum.rank_many(shifted)), (x, y)

    def test_subset_of_states(self):
        enum = StateEnumeration(4, 9)
        xs, ys = np.array([3, 0, 2]), np.array([1, 2, 0])
        full = enum.move_ranks(np.arange(enum.size), xs, ys)
        index = np.arange(enum.size)[::-1][::3]
        assert np.array_equal(enum.move_ranks(index, xs, ys), full[:, index])
        assert enum.move_ranks(index[:0], xs, ys).shape == (3, 0)


@given(_walks(), st.data())
@settings(max_examples=60, deadline=None)
def test_inner_closure_matches_loop(walk_params, data):
    walk, params = walk_params
    if params.n < 2:
        params = ProcessParams(2, params.d)
    enum = StateEnumeration(walk.kappa, params.n)
    r_set = data.draw(st.lists(st.integers(0, walk.kappa - 1), min_size=1,
                               unique=True))
    eps = data.draw(st.floats(0.05, 1.0))
    with warnings.catch_warnings():
        # on walks with subnormal rates the threshold check overflows and
        # warns; the closure is built whatever it finds
        warnings.simplefilter("ignore")
        try:
            reg = RegionSpec(walk, enum, r_set, eps=eps)
        except NonIrreducibleWalk:
            # subnormal rates whose invariant measure solves to non-finite
            # values: the eps check refuses the walk
            with pytest.raises(NonIrreducibleWalk):
                analyze_walk(walk)
            return
    assert np.array_equal(reg.inner_closure, _loop_inner_closure(reg))


@pytest.mark.parametrize("walk,n", [("up3", 12), ("cycle3", 9), ("chain4", 7)])
def test_stationary_system_matches_lil(walk, n, request, monkeypatch):
    # the stationary solve hands over (I - P_ii)^T off the pinned state and
    # the pinned row of the rates, with the interior states in elimination
    # order, here built entry by entry through LIL
    walk = request.getfixturevalue(walk)
    params = ProcessParams(n, 1e-3)
    enum = StateEnumeration(walk.kappa, n)
    coo = _coo_rate_matrix(walk, params, enum)
    holding = np.asarray(coo.sum(axis=1)).ravel()
    rates = coo.tolil()
    ref = enum.xi_index(int(np.argmax(analyze_walk(walk).m)))
    interior = np.array([i for i in range(enum.size) if i != ref])
    order = interior[exact._nested_dissection(enum.counts_matrix()[interior]).perm]
    col = {state: k for k, state in enumerate(order)}
    lil = sp.lil_matrix((len(order), len(order)))
    for k, i in enumerate(order):
        lil[k, k] = 1.0
        for j, r in zip(rates.rows[i], rates.data[i]):
            if j != ref:
                lil[col[j], k] = -((1.0 / holding[i]) * r)
    systems = []
    solve = exact._solve_refined

    def spy(a, b, tree):
        systems.append((a, b))
        return solve(a, b, tree)

    monkeypatch.setattr(exact, "_solve_refined", spy)
    stationary_exact(walk, params)
    a, b = systems[0]
    _assert_same_csr(a.tocsr(), lil.tocsr())
    assert np.array_equal(b, rates[ref].toarray().ravel()[order])


@pytest.mark.parametrize("walk,n,a_set", [("up3", 10, (0, 1, 2)), ("cycle3", 9, (0, 1)),
                                          ("chain4", 7, (1, 2)), ("chain4", 6, (0, 3)),
                                          ("two_asym", 8, (0, 1))])
def test_hitting_system_matches_lil(walk, n, a_set, request, monkeypatch):
    # the hitting solve hands over I - P_ii off the metastable states of A
    # and the jump probabilities into each of them, with the interior states
    # in elimination order, here built entry by entry through LIL
    walk = request.getfixturevalue(walk)
    params = ProcessParams(n, 1e-3)
    enum = StateEnumeration(walk.kappa, n)
    coo = _coo_rate_matrix(walk, params, enum)
    holding = np.asarray(coo.sum(axis=1)).ravel()
    rates = coo.tolil()
    xi = [enum.xi_index(x) for x in a_set]
    interior = np.array([i for i in range(enum.size) if i not in xi])
    order = interior[exact._nested_dissection(enum.counts_matrix()[interior]).perm]
    row = {state: k for k, state in enumerate(order)}
    lil = sp.lil_matrix((len(order), len(order)))
    want_b = np.zeros((len(order), len(xi)))
    for k, i in enumerate(order):
        lil[k, k] = 1.0
        for j, r in zip(rates.rows[i], rates.data[i]):
            if j in xi:
                want_b[k, xi.index(j)] = r * (1.0 / holding[i])
            else:
                lil[k, row[j]] = -((1.0 / holding[i]) * r)
    systems = []
    solve = exact._solve_refined

    def spy(a, b, tree):
        systems.append((a, b))
        return solve(a, b, tree)

    monkeypatch.setattr(exact, "_solve_refined", spy)
    exact._hitting_matrix(walk, params, enum, a_set)
    a, b = systems[0]
    # the identity minus P_ii stores a row's entries in another column order
    _assert_same_csr(a.tocsr().sorted_indices(), lil.tocsr())
    assert np.array_equal(b, want_b)
