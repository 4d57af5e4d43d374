from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import (DimensionMismatch, Distribution, IncprocError, OutOfRange,
                     StateSpaceTooLarge, region_masses, space_size)
from incproc.states import StateEnumeration, b_set_masses
from reference import NumpyStates


def _loop_counts_matrix(enum):
    """Every state in rank order by the successor rule (reference)."""
    mat = np.zeros((enum.size, enum.kappa), dtype=np.int32)
    state = [0] * enum.kappa
    state[0] = enum.n
    for i in range(enum.size):
        mat[i] = state
        if i + 1 == enum.size:
            break
        # next state in larger-counts-first order
        j = enum.kappa - 2
        while state[j] == 0:
            j -= 1
        tail = sum(state[j + 1:])
        state[j] -= 1
        for t in range(j + 1, enum.kappa):
            state[t] = 0
        state[j + 1] = tail + 1
    return mat


def _loop_unrank(enum, index):
    """One state by a linear scan over the blocks of each position (reference)."""
    out = []
    remaining = enum.n
    r = index
    for j in range(enum.kappa - 1):
        parts_after = enum.kappa - 1 - j
        v = remaining
        while v > 0 and comb(remaining - v + parts_after, parts_after) <= r:
            v -= 1
        if v < remaining:
            r -= comb(remaining - v - 1 + parts_after, parts_after)
        out.append(v)
        remaining -= v
    out.append(remaining)
    return tuple(out)


def _loop_rank(enum, eta):
    """The per-site rank loop that ``rank`` replaced with ``rank_many``."""
    r = 0
    remaining = enum.n
    for j in range(enum.kappa - 1):
        v = eta[j]
        if v < remaining:
            r += comb(remaining - v - 1 + enum.kappa - 1 - j, enum.kappa - 1 - j)
        remaining -= v
    return r


class TestUnrankAgainstLoops:
    CASES = [(2, 1), (2, 5), (3, 120), (4, 35), (5, 30), (8, 8)]

    @pytest.mark.parametrize("kappa,n", CASES)
    def test_counts_matrix_matches_loop(self, kappa, n):
        enum = StateEnumeration(kappa, n)
        mat = enum.counts_matrix()
        ref = _loop_counts_matrix(enum)
        assert mat.dtype == ref.dtype == np.int32
        assert np.array_equal(mat, ref)
        assert not mat.flags.writeable

    @pytest.mark.parametrize("kappa,n", CASES)
    def test_counts_matrix_rows_match_loop_unrank(self, kappa, n):
        enum = StateEnumeration(kappa, n)
        ranks = np.unique(np.r_[0, enum.size - 1,
                                np.linspace(0, enum.size - 1, 400).astype(int)])
        got = enum.counts_matrix()[ranks]
        ref = np.array([_loop_unrank(enum, int(i)) for i in ranks])
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("kappa,n", CASES)
    def test_rank_matches_loop(self, kappa, n):
        enum = StateEnumeration(kappa, n)
        rng = np.random.Generator(np.random.Philox(key=(19, 1000 * kappa + n)))
        # random compositions: n particles dropped on uniform sites
        states = [np.bincount(rng.integers(kappa, size=n), minlength=kappa)
                  for _ in range(200)]
        states += [enum.counts_matrix()[0], enum.counts_matrix()[-1]]
        for eta in states:
            got = enum.rank(eta)
            assert type(got) is int
            assert got == _loop_rank(enum, eta)


class TestAgainstNumpyStates:
    """The compiled states, ranks and moved ranks against the numpy layer
    they replaced (``reference.NumpyStates``), entry for entry."""

    CASES = [(2, 1), (2, 40), (3, 120), (5, 30), (8, 8), (64, 3)]

    @pytest.mark.parametrize("kappa,n", CASES)
    def test_counts_ranks_and_moves(self, kappa, n):
        enum, states = StateEnumeration(kappa, n), NumpyStates(kappa, n)
        counts = enum.counts_matrix()
        assert counts.dtype == states.counts.dtype == np.int32
        assert np.array_equal(counts, states.counts)
        rng = np.random.Generator(np.random.Philox(key=(23, 1000 * kappa + n)))
        rows = rng.integers(enum.size, size=300)
        assert np.array_equal(enum.rank_many(counts[rows]), states.rank_many(counts[rows]))
        assert np.array_equal(enum.rank_many(counts), np.arange(enum.size))
        xs, ys = rng.integers(kappa, size=(2, 40))
        assert np.array_equal(enum.move_ranks(rows, xs, ys), states.move_ranks(rows, xs, ys))


class TestRankingInputs:
    """The ranking methods refuse what is not a state, a rank or a site of
    the space; each case was once answered with a wrong rank, a silent
    wrap-around or a bare IndexError."""

    enum = StateEnumeration(3, 4)     # 15 states

    @pytest.mark.parametrize("counts", [[[1, 1, 1]], [[-1, 5, 0]], [[5, 0, -1]],
                                        [[4, 0, 0], [0, 0, 5]], [[2**62, 2**62, 0]]])
    def test_rank_many_refuses_a_row_that_is_not_a_state(self, counts):
        # [[1, 1, 1]] ranked 8 and [[-1, 5, 0]] 15, one past the last rank
        with pytest.raises(OutOfRange):
            self.enum.rank_many(np.array(counts))

    @pytest.mark.parametrize("counts", [[[1, 2]], [[1, 1, 1, 1]], [4, 0, 0], np.zeros((1, 3, 1))])
    def test_rank_many_refuses_another_width(self, counts):
        # [[1, 2]] ranked 7
        with pytest.raises(DimensionMismatch):
            self.enum.rank_many(np.array(counts))

    @pytest.mark.parametrize("counts", [[[4.0, 0.0, 0.0]], [[True, False, False]]])
    def test_rank_many_refuses_counts_that_are_not_integers(self, counts):
        with pytest.raises(OutOfRange):
            self.enum.rank_many(np.array(counts))

    def test_rank_many_of_no_rows(self):
        assert self.enum.rank_many(np.zeros((0, 3), dtype=int)).shape == (0,)

    @pytest.mark.parametrize("index", [[-1], [99], [15], [0, 2**40]])
    def test_move_ranks_refuses_an_index_off_the_space(self, index):
        # [-1] wrapped round to the last state and [99] raised an IndexError
        with pytest.raises(OutOfRange):
            self.enum.move_ranks(np.array(index), np.array([0]), np.array([1]))

    @pytest.mark.parametrize("xs,ys", [([3], [0]), ([0], [3]), ([-1], [0]), ([0], [-1])])
    def test_move_ranks_refuses_a_site_off_the_walk(self, xs, ys):
        with pytest.raises(OutOfRange):
            self.enum.move_ranks(np.array([0]), np.array(xs), np.array(ys))

    @pytest.mark.parametrize("index,xs,ys", [([0.0], [0], [1]), ([0], [0.5], [1]),
                                             ([0], [0], ["1"])])
    def test_move_ranks_refuses_values_that_are_not_integers(self, index, xs, ys):
        with pytest.raises(OutOfRange):
            self.enum.move_ranks(np.array(index), np.array(xs), np.array(ys))

    @pytest.mark.parametrize("index,xs,ys", [([[0]], [0], [1]), ([0], [0, 1], [1]),
                                             ([0], [[0]], [[1]])])
    def test_move_ranks_refuses_other_shapes(self, index, xs, ys):
        with pytest.raises(DimensionMismatch):
            self.enum.move_ranks(np.array(index), np.array(xs), np.array(ys))


class TestEnumeration:
    @pytest.mark.parametrize("kappa,n", [(3, 2.5), (3.0, 2), (3, "4"), (3, True)])
    def test_rejects_non_integer_sizes(self, kappa, n):
        with pytest.raises(OutOfRange):
            StateEnumeration(kappa, n)

    def test_two_site_order(self):
        enum = StateEnumeration(2, 2)
        assert enum.size == 3
        assert enum.counts_matrix().tolist() == [[2, 0], [1, 1], [0, 2]]

    def test_three_site_size(self):
        assert StateEnumeration(3, 2).size == 6
        assert space_size(3, 2) == 6

    def test_bijection_full(self):
        enum = StateEnumeration(4, 7)
        seen = set()
        for i, state in enumerate(enum.counts_matrix().tolist()):
            assert enum.rank(state) == i
            seen.add(tuple(state))
        assert len(seen) == enum.size

    def test_rank_many(self):
        enum = StateEnumeration(3, 6)
        mat = enum.counts_matrix()
        ranks = enum.rank_many(mat)
        assert np.array_equal(ranks, np.arange(enum.size))

    @given(st.integers(2, 5), st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bijection_random(self, kappa, n, data):
        enum = StateEnumeration(kappa, n)
        i = data.draw(st.integers(0, enum.size - 1))
        assert enum.rank(enum.counts_matrix()[i]) == i

    def test_cap_enforced(self):
        with pytest.raises(StateSpaceTooLarge) as exc:
            StateEnumeration(3, 2000)
        assert exc.value.size == space_size(3, 2000)

    def test_xi_index(self):
        enum = StateEnumeration(3, 4)
        assert enum.counts_matrix()[enum.xi_index(1)].tolist() == [0, 4, 0]

    @pytest.mark.parametrize("x", [-1, 3, 1.0, True])
    def test_xi_index_rejects_a_site_off_the_walk(self, x):
        # -1 once read the last site and True site 1
        with pytest.raises(OutOfRange):
            StateEnumeration(3, 4).xi_index(x)

    def test_rank_rejects_bad_state(self):
        enum = StateEnumeration(2, 3)
        with pytest.raises(ValueError):
            enum.rank((1, 1))

    @pytest.mark.parametrize("eta", [(1.5, 2.5), (1.0, 2.0), (True, 2), ("1", "2"), 5, None])
    def test_rank_rejects_counts_that_are_not_integers(self, eta):
        # each sequence was truncated and ranked as (1, 2); 5 and None raised
        # a bare TypeError
        with pytest.raises(OutOfRange):
            StateEnumeration(2, 3).rank(eta)

    @pytest.mark.parametrize("eta", [(3,), (1, 1, 1), ()])
    def test_rank_of_a_state_on_other_sites_is_a_mismatch(self, eta):
        with pytest.raises(DimensionMismatch):
            StateEnumeration(2, 3).rank(eta)


class TestSpaceSize:
    @pytest.mark.parametrize("kappa, n, size", [(3, 2, 6), (2, 5, 6), (1, 4, 1),
                                                (4, 0, 1), (np.int64(3), np.int64(2), 6)])
    def test_counts_compositions(self, kappa, n, size):
        assert space_size(kappa, n) == size == comb(n + kappa - 1, kappa - 1)

    @pytest.mark.parametrize("kappa, n", [(True, 2), (3, True), (3, 2.5), (3.0, 2),
                                          (3, "2"), (None, 2), (3, -1), (-2, 3), (0, 2)])
    def test_rejects_non_integer_or_negative_arguments(self, kappa, n):
        # (3, True) and (3, -1) were counted; (3, 2.5) raised a TypeError
        with pytest.raises(OutOfRange):
            space_size(kappa, n)


class TestDistribution:
    def test_normalized_check(self):
        enum = StateEnumeration(2, 2)
        with pytest.raises(ValueError):
            Distribution(enum, np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("weights", [0.5, [1.0, 2.0], np.ones((3, 1)), np.ones(4)])
    def test_weights_of_another_shape_are_a_mismatch(self, weights):
        # a scalar raised an IndexError while the message was built
        with pytest.raises(DimensionMismatch):
            Distribution(StateEnumeration(2, 2), weights)

    @pytest.mark.parametrize("weights", [[np.nan, 0, 0, 0], [2.0, -1.0, 0, 0],
                                         [np.inf, 0, 0, 0], [0.5, 0.5, -0.0, -1e-300]])
    def test_refuses_weights_that_are_not_finite_and_nonnegative(self, weights):
        # nan and [2, -1, 0, 0] passed the sum check
        with pytest.raises(OutOfRange):
            Distribution(StateEnumeration(2, 3), np.array(weights))

    @pytest.mark.parametrize("weights", [[0.1, 0.2, 0.3, 0.5], [0.0, 0.0, 0.0, 0.0],
                                         [0.25, 0.25, 0.25, 0.25 + 1e-11]])
    def test_refuses_weights_that_do_not_sum_to_one(self, weights):
        with pytest.raises(OutOfRange, match="sum to 1"):
            Distribution(StateEnumeration(2, 3), np.array(weights))

    def test_mass_sums_the_given_ranks(self):
        dist = Distribution(StateEnumeration(2, 3), np.array([0.1, 0.2, 0.3, 0.4]))
        assert dist.mass([1, 3]) == 0.2 + 0.4
        assert dist.mass(np.array([0, 1, 2, 3], dtype=np.intp)) == dist.weights.sum()
        assert dist.mass([]) == 0.0
        assert dist.mass(np.array([], dtype=np.intp)) == 0.0

    @pytest.mark.parametrize("indices", [[99], [4], [-1], [0, -4], [1.0], [True, False], ["a"]])
    def test_mass_rejects_a_rank_off_the_space(self, indices):
        # [99] raised an IndexError and [-1] read the last state
        dist = Distribution(StateEnumeration(2, 3), np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(IncprocError):
            dist.mass(indices)

    def test_summary_identities(self):
        enum = StateEnumeration(3, 3)
        dist = Distribution(enum, np.ones(enum.size) / enum.size)
        report = region_masses(dist)
        # one-occupied-site mass equals the metastable mass; full count is 1
        assert report.e_mass == pytest.approx(sum(report.xi_mass))

    def test_summary_ratios_from_b_set_masses(self):
        enum = StateEnumeration(3, 4)
        weights = np.arange(1.0, enum.size + 1.0)
        dist = Distribution(enum, weights / weights.sum())
        b_mass = b_set_masses(dist.weights, enum)
        occ = (enum.counts_matrix() > 0).sum(axis=1)
        assert b_mass == pytest.approx([dist.weights[occ <= k].sum() for k in (1, 2, 3)])
        assert b_mass[-1] == pytest.approx(1.0)
        assert region_masses(dist).b_ratios.tolist() == [b_mass[1] / b_mass[0],
                                                         b_mass[2] / b_mass[1]]

    def test_csv_round_trip_stable(self, tmp_path):
        enum = StateEnumeration(2, 3)
        dist = Distribution(enum, np.array([0.1, 0.2, 0.3, 0.4]))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dist.to_csv(p1)
        dist.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "rank,0,1,weight"
        assert len(lines) == 5
