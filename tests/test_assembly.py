"""Rate-matrix assembly against the code it replaced.

The references below take the states and their ranks from the numpy layer
of ``reference.NumpyStates``, which calls no compiled code, and rank every
moved state on a shifted copy of the counts, one move at a time: the COO
build of the rate matrix, with the generator as the sparse difference
``rates - diag(holding)``, and the stationary interior system through
LIL. ``reference.assemble`` is the numpy CSR gather the compiled
``incproc_assemble`` replaced. The compiled layer must reproduce them bit
for bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import incproc.exact as exact
from incproc import DimensionMismatch, ProcessParams, WalkSpec, stationary_exact
from incproc.exact import build_generator, build_rate_matrix
from incproc.states import StateEnumeration
from reference import NumpyStates, assemble


def _coo_rate_matrix(spec, params, enum):
    states = NumpyStates(enum.kappa, enum.n)
    counts = states.counts
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
            cols.append(states.rank_many(shifted))
            vals.append(cx[src] * (d + counts[src, y]) * rxy)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(enum.size, enum.size))


def _coo_generator(spec, params, enum):
    rates = _coo_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    return (rates - sp.diags(holding)).tocsr()


def _assert_same_csr(got, want):
    """The same CSR arrays, dtypes and every bit of every value."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# Rates: a positive cycle keeps the walk irreducible; the smallest subnormal
# underflows to a zero jump rate from states with few particles at the
# source and makes rows with no nonzero move.
_RATE = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.05, 3.0))


@st.composite
def _walks(draw, one_way=False):
    kappa = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    # a one-way walk moves only around its cycle, x -> x + 1
    if one_way:
        one_way = draw(st.booleans())
    rates = np.array([[draw(_RATE) if x != y and not one_way else 0.0
                       for y in range(kappa)] for x in range(kappa)])
    for x in range(kappa):
        if rates[x, (x + 1) % kappa] == 0.0:
            rates[x, (x + 1) % kappa] = draw(st.sampled_from([5e-324, 1.0]))
    d = draw(st.floats(1e-6, 0.5))
    return WalkSpec.from_matrix(rates), ProcessParams(n, d)


def _dense_walk(kappa, seed, dense):
    """A walk around the cycle whose first ``dense`` sites also move to
    almost every site, so a state on them has a row of up to
    ``dense (kappa - 1)`` entries, with zero and subnormal rates among them.
    Their rates spread over nine decades, so that sums in another order
    round differently."""
    rng = np.random.Generator(np.random.Philox(key=(31, seed)))
    rates = np.zeros((kappa, kappa))
    rates[:dense] = 10.0 ** rng.uniform(-6.0, 3.0, size=(dense, kappa))
    rates[:dense][rng.random((dense, kappa)) < 0.1] = 0.0
    rates[:dense][rng.random((dense, kappa)) < 0.05] = 5e-324
    np.fill_diagonal(rates, 0.0)
    rates[np.arange(kappa), (np.arange(kappa) + 1) % kappa] = 1.0
    return WalkSpec.from_matrix(rates)


class TestAgainstNumpyAssembly:
    """Both builders against the numpy gather they replaced: the same
    ``indptr``, ``indices`` and ``data``, dtypes and bits. The holding rate
    must round as scipy's row sum does, ``np.add.reduceat``: the first entry
    plus numpy's pairwise sum of the rest, eight running sums from 8 terms
    on and halves from 129 on (``TestAssembly.test_long_rows``)."""

    @given(_walks(one_way=True))
    @settings(max_examples=200, deadline=None)
    def test_builders_match(self, walk_params):
        walk, params = walk_params
        enum, states = StateEnumeration(walk.kappa, params.n), NumpyStates(walk.kappa, params.n)
        _assert_same_csr(build_rate_matrix(walk, params, enum),
                         assemble(walk, params, states, generator=False))
        _assert_same_csr(build_generator(walk, params, enum),
                         assemble(walk, params, states, generator=True))


def _benchmark_walk(name, seed):
    """The walk and parameters of the ``name`` benchmark workload at ``seed``."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        # workloads puts the package's src before it
        sys.path.remove(bench)
    work = workloads.make(name, seed)
    return work.walk, work.params


@pytest.mark.parametrize("seed", [4101, 2718])
@pytest.mark.parametrize("name", ["analysis", "exact_lu"])
def test_benchmark_walks_match_numpy_assembly(name, seed):
    walk, params = _benchmark_walk(name, seed)
    enum, states = StateEnumeration(walk.kappa, params.n), NumpyStates(walk.kappa, params.n)
    _assert_same_csr(build_rate_matrix(walk, params, enum),
                     assemble(walk, params, states, generator=False))
    _assert_same_csr(build_generator(walk, params, enum),
                     assemble(walk, params, states, generator=True))


class TestAssembly:
    @pytest.mark.parametrize("kappa,n,d,dense", [(6, 12, 0.3, 6), (8, 6, 1e-3, 8),
                                                 (64, 3, 0.3, 4)])
    def test_long_rows(self, kappa, n, d, dense):
        # rows of more than 8 entries, and at kappa = 64 four of more than
        # 129, where numpy's pairwise sum splits in halves; d = 0.3 makes the
        # subnormal rates' entries round to zero. The reference is the COO
        # build, whose memory grows with the entries, not with moves x states
        walk, params = _dense_walk(kappa, n, dense), ProcessParams(n, d)
        enum = StateEnumeration(kappa, n)
        q = build_generator(walk, params, enum)
        assert np.diff(q.indptr).max() > (129 if kappa == 64 else 8)
        _assert_same_csr(build_rate_matrix(walk, params, enum),
                         _coo_rate_matrix(walk, params, enum))
        _assert_same_csr(q, _coo_generator(walk, params, enum))

    @given(_walks())
    @settings(max_examples=150, deadline=None)
    def test_builders_match_coo_reference(self, walk_params):
        walk, params = walk_params
        enum = StateEnumeration(walk.kappa, params.n)
        _assert_same_csr(build_rate_matrix(walk, params, enum),
                         _coo_rate_matrix(walk, params, enum))
        _assert_same_csr(build_generator(walk, params, enum),
                         _coo_generator(walk, params, enum))

    @pytest.mark.parametrize("kappa,n", [(3, 10), (3, 4), (4, 6), (2, 6)])
    def test_enumeration_of_another_space_is_refused(self, kappa, n):
        # a walk on 3 sites with N = 6 over fewer or more particles, or
        # sites: the compiled pass would write past the arrays sized from
        # the walk, or read past the enumeration's tables
        walk, params = WalkSpec.cycle(3, 0.7), ProcessParams(6, 0.1)
        enum = StateEnumeration(kappa, n)
        for build in (build_rate_matrix, build_generator):
            with pytest.raises(DimensionMismatch, match="over the states of"):
                build(walk, params, enum)
        assert build_generator(walk, params, StateEnumeration(3, 6)).shape == (28, 28)

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


@pytest.mark.parametrize("walk,n", [("up3", 12), ("up3", 10), ("cycle3", 9), ("chain4", 7),
                                    ("chain4", 6), ("two_asym", 8)])
def test_interior_system_matches_lil(walk, n, request, monkeypatch):
    # every exact solve factors I - P_ii off every metastable state, with
    # the interior states in elimination order, here built entry by entry
    # through LIL; the hitting solve hands over the jump probabilities into
    # each metastable state, and the stationary solve then the flux into the
    # interior from mu on them, transposed
    walk = request.getfixturevalue(walk)
    params = ProcessParams(n, 1e-3)
    enum = StateEnumeration(walk.kappa, n)
    coo = _coo_rate_matrix(walk, params, enum)
    holding = np.asarray(coo.sum(axis=1)).ravel()
    rates = coo.tolil()
    xi = [enum.xi_index(x) for x in range(walk.kappa)]
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
    systems, rights = [], []
    solver = exact._solver

    def spy(a, tree):
        systems.append(a)
        solve, lu_nnz = solver(a, tree)

        def each(b, trans=False):
            rights.append((b, trans))
            return solve(b, trans)

        return each, lu_nnz

    monkeypatch.setattr(exact, "_solver", spy)
    stationary_exact(walk, params)
    (a,) = systems
    # the identity minus P_ii stores a row's entries in another column order
    _assert_same_csr(a.tocsr().sorted_indices(), lil.tocsr())
    (b, trans), (flux, flux_trans) = rights
    assert np.array_equal(b, want_b) and not trans and flux_trans
    mu_xi = exact._gth_stationary(exact._trace_chain(walk, params).generator)
    np.testing.assert_allclose(flux, rates[xi][:, order].toarray().T @ mu_xi, rtol=1e-14)
