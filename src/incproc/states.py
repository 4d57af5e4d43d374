"""Ranked enumeration of the configuration space and distributions over it."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from ._native import _address, _compiled
from .errors import DimensionMismatch, OutOfRange, StateSpaceTooLarge
from .model import check_site, csv_line, integer, state_counts

DEFAULT_CAP = 500_000


def space_size(kappa: int, n: int) -> int:
    """Number of configurations of n particles on kappa sites, for integers
    ``kappa`` >= 1 and ``n`` >= 0."""
    kappa, n = integer(kappa, "kappa", 1), integer(n, "N")
    return comb(n + kappa - 1, kappa - 1)


class StateEnumeration:
    """Ranked enumeration of all count vectors summing to N.

    States are ordered lexicographically with larger counts first, so rank 0
    is ``(N, 0, ..., 0)`` and the last rank is ``(0, ..., 0, N)``. The
    states in rank order, the ranks and the moved ranks are computed by the
    compiled state-space functions of ``_kernel.c``, which are built on the
    first call that needs them (:func:`incproc._native._compiled`).
    """

    def __init__(self, kappa: int, n: int):
        size = space_size(integer(kappa, "kappa", 2), integer(n, "N", 1))
        if size > DEFAULT_CAP:
            raise StateSpaceTooLarge(size, DEFAULT_CAP)
        self.kappa = kappa
        self.n = n
        self.size = size
        # cum[m, k] = number of compositions of totals 0..m into k parts
        #           = sum_{u=0}^{m} C(u+k-1, k-1) = C(m+k, k): each column is
        #           the running sum of the one before
        self._cum = np.ones((n + 1, kappa), dtype=np.int64)
        for k in range(1, kappa):
            np.cumsum(self._cum[:, k - 1], out=self._cum[:, k])
        self._counts_matrix: np.ndarray | None = None

    def rank(self, eta: Sequence[int]) -> int:
        if hasattr(eta, "__len__") and len(eta) != self.kappa:
            raise DimensionMismatch(f"state has {len(eta)} sites, expected {self.kappa}")
        return int(self.rank_many(np.array([state_counts(eta, self.kappa, self.n)]))[0])

    def xi_index(self, x: int) -> int:
        """Rank of the configuration with all particles at site x."""
        eta = [0] * self.kappa
        eta[check_site(x, range(self.kappa), f"0..{self.kappa - 1}")] = self.n
        return self.rank(eta)

    def counts_matrix(self) -> np.ndarray:
        """All states as a read-only (size, kappa) int32 matrix, in rank
        order, made once by the compiled successor loop ``incproc_counts``."""
        if self._counts_matrix is None:
            mat = np.empty((self.size, self.kappa), dtype=np.int32)
            _compiled().incproc_counts(self.kappa, self.n, self.size, _address(mat))
            mat.setflags(write=False)
            self._counts_matrix = mat
        return self._counts_matrix

    def rank_many(self, counts: np.ndarray) -> np.ndarray:
        """Ranks of the rows of an (m, kappa) integer array of states, as an
        int64 array, by ``incproc_rank_many``.

        Raises ``DimensionMismatch`` unless ``counts`` has two dimensions and
        kappa columns, and ``OutOfRange`` if it is not of integers or a row
        is not a state: a negative count, or counts that do not sum to N.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[1] != self.kappa:
            raise DimensionMismatch(f"states of shape {counts.shape}, expected rows of "
                                    f"{self.kappa} sites")
        counts = _integers(counts, "state counts")
        ranks = np.empty(counts.shape[0], dtype=np.int64)
        done = _compiled().incproc_rank_many(self.kappa, self.n, _address(self._cum),
                                             _address(counts), ranks.size, _address(ranks))
        if done < ranks.size:
            raise OutOfRange(f"row {done}, {counts[done].tolist()}, is not a state of "
                             f"N = {self.n} particles: counts must be >= 0 and sum to N")
        return ranks

    def move_ranks(self, index: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Ranks of the states ``index`` with one particle moved from site
        ``xs[m]`` to site ``ys[m]``, as a (len(xs), len(index)) int64 matrix,
        one row per move, by ``incproc_move_ranks``.

        Entry (m, i) is valid where state ``index[i]`` holds a particle at
        ``xs[m]``; elsewhere it is meaningless, and callers mask it out.
        Raises ``DimensionMismatch`` unless the three are 1-D and ``xs`` and
        ``ys`` of one length, and ``OutOfRange`` unless they are integers,
        ``index`` in ``[0, size)`` and the sites in ``0..kappa-1``.

        With ``P_{j+1}`` the count prefix sum through site j, the rank of
        ``eta`` is ``sum_{j < kappa-1} F_j(P_{j+1})`` with
        ``F_j(P) = cum[N - P - 1, kappa - 1 - j]`` for ``P < N`` and 0 beyond.
        A move from x to y lowers ``P_{j+1}`` by one for ``x <= j < y``, raises
        it by one for ``y <= j < x`` and keeps it elsewhere, so the moved rank
        is the rank plus a difference of two entries of a per-state prefix sum
        over j of ``F_j(P_{j+1} -+ 1) - F_j(P_{j+1})``; each state's prefix row
        is made once for all the moves.
        """
        index, xs, ys = (np.asarray(a) for a in (index, xs, ys))
        if index.ndim != 1 or xs.ndim != 1 or xs.shape != ys.shape:
            raise DimensionMismatch(f"index of shape {index.shape} and moves of shapes "
                                    f"{xs.shape} and {ys.shape}; expected 1-D, the moves "
                                    "of one length")
        index, xs, ys = (_integers(a, name) for a, name in
                         ((index, "state ranks"), (xs, "sites"), (ys, "sites")))
        moved = np.empty((xs.size, index.size), dtype=np.int64)
        steps = np.empty(2 * self.kappa, dtype=np.int64)
        status = _compiled().incproc_move_ranks(
            self.kappa, self.n, _address(self._cum), _address(self.counts_matrix()), self.size,
            _address(index), index.size, _address(xs), _address(ys), xs.size,
            _address(steps), _address(moved))
        if status:
            raise OutOfRange(f"sites must lie in 0..{self.kappa - 1}" if status == -1 else
                             f"state ranks must lie in [0, {self.size})")
        return moved

    def occupied_counts(self) -> np.ndarray:
        """Number of occupied sites per state, in rank order."""
        return (self.counts_matrix() > 0).sum(axis=1)

    def same_space(self, other: "StateEnumeration") -> bool:
        return self.kappa == other.kappa and self.n == other.n


def _integers(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as a contiguous int64 array; ``OutOfRange`` unless its values
    are integers."""
    if a.size and a.dtype.kind not in "iu":
        raise OutOfRange(f"{name} must be integers, got an array of {a.dtype}")
    return np.ascontiguousarray(a, dtype=np.int64)


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
    counts the entries the multifrontal factor stored for L and U, and
    ``predicted_nnz`` those the separator tree gave before it; they are
    equal.
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
