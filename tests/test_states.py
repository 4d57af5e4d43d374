import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incproc import Distribution, StateSpaceTooLarge, space_size
from incproc.states import StateEnumeration, b_set_masses


class TestEnumeration:
    def test_two_site_order(self):
        enum = StateEnumeration(2, 2)
        assert enum.size == 3
        assert list(enum) == [(2, 0), (1, 1), (0, 2)]

    def test_three_site_size(self):
        assert StateEnumeration(3, 2).size == 6
        assert space_size(3, 2) == 6

    def test_bijection_full(self):
        enum = StateEnumeration(4, 7)
        seen = set()
        for i in range(enum.size):
            state = enum.unrank(i)
            assert enum.rank(state) == i
            seen.add(state)
        assert len(seen) == enum.size

    def test_counts_matrix_matches_unrank(self):
        enum = StateEnumeration(3, 5)
        mat = enum.counts_matrix()
        for i in range(enum.size):
            assert tuple(int(v) for v in mat[i]) == enum.unrank(i)

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
        assert enum.rank(enum.unrank(i)) == i

    def test_cap_enforced(self):
        with pytest.raises(StateSpaceTooLarge) as exc:
            StateEnumeration(3, 2000, cap=1000)
        assert exc.value.size == space_size(3, 2000)

    def test_xi_index(self):
        enum = StateEnumeration(3, 4)
        assert enum.unrank(enum.xi_index(1)) == (0, 4, 0)

    def test_rank_rejects_bad_state(self):
        enum = StateEnumeration(2, 3)
        with pytest.raises(ValueError):
            enum.rank((1, 1))


class TestDistribution:
    def test_normalized_check(self):
        enum = StateEnumeration(2, 2)
        with pytest.raises(ValueError):
            Distribution(enum, np.array([0.5, 0.5, 0.5]), normalized=True)

    def test_normalize(self):
        enum = StateEnumeration(2, 2)
        dist = Distribution(enum, np.array([1.0, 2.0, 1.0])).normalize()
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert dist.normalized

    def test_summary_identities(self):
        enum = StateEnumeration(3, 3)
        dist = Distribution(enum, np.ones(enum.size)).normalize()
        summary = dist.summary()
        # one-occupied-site mass equals the metastable mass; full count is 1
        assert summary["E_mass"] == pytest.approx(
            sum(summary["per_site_xi_mass"].values()))

    def test_summary_ratios_from_b_set_masses(self):
        enum = StateEnumeration(3, 4)
        weights = np.arange(1.0, enum.size + 1.0)
        dist = Distribution(enum, weights / weights.sum(), normalized=True)
        b_mass = b_set_masses(dist.weights, enum)
        occ = (enum.counts_matrix() > 0).sum(axis=1)
        assert b_mass == pytest.approx([dist.weights[occ <= k].sum() for k in (1, 2, 3)])
        assert b_mass[-1] == pytest.approx(1.0)
        assert dist.summary()["ratios"] == [b_mass[1] / b_mass[0], b_mass[2] / b_mass[1]]

    def test_csv_round_trip_stable(self, tmp_path):
        enum = StateEnumeration(2, 3)
        dist = Distribution(enum, np.array([0.1, 0.2, 0.3, 0.4]), normalized=True)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dist.to_csv(p1)
        dist.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "rank,0,1,weight"
        assert len(lines) == 5
