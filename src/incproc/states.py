"""Ranked enumeration of the configuration space and distributions over it."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StateSpaceTooLarge
from .model import _add_in_order, check_site, csv_line, integer, state_counts

DEFAULT_CAP = 500_000


def space_size(kappa: int, n: int) -> int:
    """Number of configurations of n particles on kappa sites, for integers
    ``kappa`` >= 1 and ``n`` >= 0."""
    kappa, n = integer(kappa, "kappa", 1), integer(n, "N")
    return comb(n + kappa - 1, kappa - 1)


class StateEnumeration:
    """Ranked enumeration of all count vectors summing to N.

    States are ordered lexicographically with larger counts first, so rank 0
    is ``(N, 0, ..., 0)`` and the last rank is ``(0, ..., 0, N)``.
    """

    def __init__(self, kappa: int, n: int):
        size = space_size(integer(kappa, "kappa", 2), integer(n, "N", 1))
        if size > DEFAULT_CAP:
            raise StateSpaceTooLarge(size, DEFAULT_CAP)
        self.kappa = kappa
        self.n = n
        self.size = size
        # cum[m, k] = number of compositions of totals 0..m into k parts
        #           = sum_{u=0}^{m} C(u+k-1, k-1) = C(m+k, k)
        self._cum = np.zeros((n + 1, kappa), dtype=np.int64)
        for m in range(n + 1):
            for k in range(1, kappa):
                self._cum[m, k] = comb(m + k, k)
        self._counts_matrix: np.ndarray | None = None

    def rank(self, eta: Sequence[int]) -> int:
        if hasattr(eta, "__len__") and len(eta) != self.kappa:
            raise DimensionMismatch(f"state has {len(eta)} sites, expected {self.kappa}")
        return int(self.rank_many(np.array([state_counts(eta, self.kappa, self.n)]))[0])

    def _unrank_many(self, ranks: np.ndarray) -> np.ndarray:
        """Count vectors of valid ranks as a (len(ranks), kappa) int64 matrix."""
        r = np.array(ranks, dtype=np.int64)
        out = np.empty((r.size, self.kappa), dtype=np.int64)
        remaining = np.full(r.size, self.n, dtype=np.int64)
        for j in range(self.kappa - 1):
            parts_after = self.kappa - 1 - j
            # the block of states with count remaining - u at position j
            # starts at offset cum[u - 1, parts_after] (0 for u = 0), and the
            # offsets grow with u; u counts the block starts at or below r
            col = self._cum[:, parts_after]
            u = np.searchsorted(col, r, side="right")
            out[:, j] = remaining - u
            r -= np.where(u > 0, col[u - 1], 0)
            remaining = u
        out[:, -1] = remaining
        return out

    def xi_index(self, x: int) -> int:
        """Rank of the configuration with all particles at site x."""
        eta = [0] * self.kappa
        eta[check_site(x, range(self.kappa), f"0..{self.kappa - 1}")] = self.n
        return self.rank(eta)

    def counts_matrix(self) -> np.ndarray:
        """All states as a (size, kappa) int32 matrix, in rank order."""
        if self._counts_matrix is None:
            mat = self._unrank_many(np.arange(self.size)).astype(np.int32)
            mat.setflags(write=False)
            self._counts_matrix = mat
        return self._counts_matrix

    def rank_many(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized rank of a (m, kappa) array of valid configurations."""
        counts = np.asarray(counts, dtype=np.int64)
        m = counts.shape[0]
        r = np.zeros(m, dtype=np.int64)
        remaining = np.full(m, self.n, dtype=np.int64)
        for j in range(self.kappa - 1):
            parts_after = self.kappa - 1 - j
            v = counts[:, j]
            gap = remaining - v - 1
            mask = gap >= 0
            if mask.any():
                r[mask] += self._cum[gap[mask], parts_after]
            remaining -= v
        return r

    def move_ranks(self, index: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Ranks of the states ``index`` (valid ranks) with one particle moved
        from site ``xs[m]`` to site ``ys[m]``, as a (len(xs), len(index)) int64
        matrix, one row per move.

        Entry (m, i) is valid where state ``index[i]`` holds a particle at
        ``xs[m]``; elsewhere it is meaningless, and callers mask it out.

        With ``P_{j+1}`` the count prefix sum through site j, the loop of
        :meth:`rank` is ``rank(eta) = sum_{j < kappa-1} F_j(P_{j+1})`` with
        ``F_j(P) = cum[N - P - 1, kappa - 1 - j]`` for ``P < N`` and 0 beyond.
        A move from x to y lowers ``P_{j+1}`` by one for ``x <= j < y``, raises
        it by one for ``y <= j < x`` and keeps it elsewhere, so the moved rank
        is the rank plus a difference of two entries of a per-state prefix sum
        over j of ``F_j(P_{j+1} -+ 1) - F_j(P_{j+1})``.
        """
        index = np.asarray(index, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        kappa, n = self.kappa, self.n
        counts = self.counts_matrix()[index]
        # f[j, P + 1] = F_j(P) for P = -1 .. N + 1
        f = np.zeros((kappa - 1, n + 3), dtype=np.int64)
        f[:, :n + 1] = self._cum[::-1, :0:-1].T
        # steps[k] sums the change of F_j over j < k when P_{j+1} drops by
        # one, steps[kappa + k] when it rises by one
        steps = np.zeros((2 * kappa, index.size), dtype=np.int64)
        p = np.ones(index.size, dtype=np.int64)
        for j in range(kappa - 1):
            p += counts[:, j]
            here = f[j, p]
            steps[j + 1] = steps[j] + f[j, p - 1] - here
            steps[kappa + j + 1] = steps[kappa + j] + f[j, p + 1] - here
        forward = xs < ys
        hi = np.where(forward, ys, kappa + xs)
        lo = np.where(forward, xs, kappa + ys)
        moved = steps[hi]
        moved -= steps[lo]
        moved += index
        return moved

    def occupied_counts(self) -> np.ndarray:
        """Number of occupied sites per state, in rank order."""
        return (self.counts_matrix() > 0).sum(axis=1)

    def same_space(self, other: "StateEnumeration") -> bool:
        return self.kappa == other.kappa and self.n == other.n


def b_set_masses(weights: np.ndarray, enum: StateEnumeration) -> np.ndarray:
    """Masses of the at-most-k-occupied-sites sets, k = 1..kappa."""
    occ = enum.occupied_counts()
    return np.array([float(weights[occ <= k].sum()) for k in range(1, enum.kappa + 1)])


@dataclass(frozen=True)
class SolverReport:
    """How an exact linear solve produced its result.

    ``path`` is always ``"lu"``, the sparse direct solve; it names the
    solver in reports. ``residual`` is the final max-norm
    residual and ``bound`` the tolerance it was checked against. ``lu_nnz``
    counts the nonzeros SuperLU stored for L and U of the one factorization,
    and ``predicted_nnz`` those the elimination order predicted before it.
    The stage times are not here, so that a result is the same run to run;
    :func:`incproc.exact.stage_times` records them.
    """

    path: str
    residual: float
    bound: float
    lu_nnz: int
    predicted_nnz: int = 0


@dataclass
class Distribution:
    """A probability per enumerated state: finite, nonnegative weights that
    sum to 1 within 1e-12.

    ``log_norm`` carries the log-partition value of closed-form constructions;
    it is None for distributions obtained from linear solves. ``solver``
    records how a solved distribution was obtained; None for closed forms.
    """

    enum: StateEnumeration
    weights: np.ndarray
    log_norm: float | None = None
    solver: SolverReport | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.enum.size,):
            raise DimensionMismatch(
                f"weights of shape {self.weights.shape} for {self.enum.size} states")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise OutOfRange("weights must be finite and nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise OutOfRange("a distribution must sum to 1 within 1e-12")

    def mass(self, indices) -> float:
        """Total weight of the states of the given ranks."""
        idx = np.asarray(indices)
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0
                         or idx.max() >= self.enum.size):
            raise OutOfRange(f"state ranks must be integers in [0, {self.enum.size})")
        return float(self.weights[idx.astype(np.int64)].sum())

    def xi_mass(self, x: int) -> float:
        return float(self.weights[self.enum.xi_index(x)])

    def to_csv(self, path, site_labels: Sequence[str] | None = None) -> None:
        """Write (rank, counts..., weight) rows; floats use repr round-trip."""
        labels = list(site_labels) if site_labels is not None else [
            str(i) for i in range(self.enum.kappa)]
        with open(path, "w", newline="") as fh:
            fh.write(csv_line(["rank"] + labels + ["weight"]))
            for i, row in enumerate(self.enum.counts_matrix()):
                fh.write(csv_line([i, *row.tolist(), self.weights[i]]))

    def summary(self) -> dict:
        """JSON-ready summary: condensate masses, the masses ``B_mass`` of
        the occupied-count sets and their ratios."""
        enum = self.enum
        xi = {str(x): float(self.weights[enum.xi_index(x)]) for x in range(enum.kappa)}
        e_mass = _add_in_order(0.0, list(xi.values()))
        b_mass = b_set_masses(self.weights, enum)
        ratios = [float(b_mass[k] / b_mass[k - 1]) if b_mass[k - 1] > 0 else float("inf")
                  for k in range(1, enum.kappa)]
        return {
            "E_mass": float(e_mass),
            "per_site_xi_mass": xi,
            "ratios": ratios,
            "B_mass": b_mass.tolist(),
        }
