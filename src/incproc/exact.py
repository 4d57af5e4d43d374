"""Exact stationary distributions, hitting probabilities, trace rates, flows.

Everything here is a direct linear-algebra computation on the enumerated
configuration space; no asymptotics. Every exact solve factors one interior
system ``I - P_ii`` of the jump chain off a set of target states: the
hitting and trace-rate solves take the metastable states of ``A`` as
targets, and the stationary law is the hitting system of its one pinned
state, solved transposed. Sparse direct solves eliminate the states in
nested-dissection order, split on level sets of subset sums of their
counts, carry one step of iterative refinement and are checked against
explicit residual tolerances. The separator tree of the order predicts the
L+U fill before anything is built, and a system whose predicted factors do
not fit in half the physical memory is refused with ``StateSpaceTooLarge``.
The results are the same from run to run; :func:`stage_times` records the
seconds each solve spends ordering, building, factoring and solving.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, log
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConditionNotSatisfied, DimensionMismatch, OutOfRange,
                     SolverFailure, StateSpaceTooLarge)
from .model import (ProcessParams, WalkSpec, analyze_walk, check_site, dense_stationary,
                    integer, log_weight_table, site_set)
from .regions import RegionSpec, supported_on
from .states import Distribution, SolverReport, StateEnumeration, b_set_masses

STATIONARY_TOL = 1e-10
HITTING_TOL = 1e-12
ND_LEAF = 32
ND_ALL_SUBSETS = 8
LU_BYTES_PER_NNZ = 12   # a float64 value and an int32 index
STAGES = ("order_s", "build_s", "factor_s", "solve_s")

_stage_times: ContextVar[dict[str, float] | None] = ContextVar("stage_times", default=None)


@contextmanager
def stage_times() -> Iterator[dict[str, float]]:
    """Record the seconds the sparse solves run inside the block spend
    finding the order (``order_s``), building the rate matrix and the
    interior system (``build_s``), factoring (``factor_s``) and solving with
    one refinement step (``solve_s``), summed over solves.

    Yields the dict it fills. The times stay off the returned results, whose
    contents do not change from run to run.
    """
    times = dict.fromkeys(STAGES, 0.0)
    token = _stage_times.set(times)
    try:
        yield times
    finally:
        _stage_times.reset(token)


def _record(**seconds: float) -> None:
    """Add ``seconds`` to the stages of the enclosing :func:`stage_times` block."""
    times = _stage_times.get()
    if times is not None:
        for stage, value in seconds.items():
            times[stage] += value


def _column_key(move: tuple[int, int]) -> tuple[int, int, int]:
    """Sort key of a move x -> y by the rank of the state it leads to.

    ``eta - e_x + e_y`` and ``eta`` first differ at site ``min(x, y)``, so the
    moved state ranks below ``eta`` exactly when y < x, and two moves from
    ``eta`` compare like ``e_y - e_x`` in the larger-first order, whatever
    ``eta`` is: the moves with y < x by increasing y, then decreasing x, come
    before the diagonal, and the moves with x < y by decreasing x, then
    increasing y, after it.
    """
    x, y = move
    return (0, y, -x) if y < x else (1, -x, y)


def _assemble(spec: WalkSpec, params: ProcessParams, enum: StateEnumeration,
              generator: bool) -> sp.csr_matrix:
    """The jump-rate matrix, or the generator, assembled straight into CSR.

    Every row lists the positive-rate moves in one fixed order (see
    :func:`_column_key`), which is the sorted column order in every row; a
    move exists where its source site is occupied. The generator inserts the
    holding rate, scipy's ``sum(axis=1)`` of the rate row, at the diagonal's
    fixed slot and keeps the nonzero entries only, like the sparse difference
    ``rates - diag(holding)`` it replaces.
    """
    n = enum.size
    counts = enum.counts_matrix().T
    moves = sorted(((x, y) for x in range(spec.kappa) for y in range(spec.kappa)
                    if x != y and spec.rates[x, y] != 0.0), key=_column_key)
    xs, ys = np.array(moves, dtype=np.intp).T
    # the (move, state) arrays are read state by state through their transposes
    src = counts[xs]
    keep = (src >= 1).T
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    rates = sp.csr_matrix(
        ((src * (params.d + counts[ys]) * spec.rates[xs, ys, None]).T[keep],
         enum.move_ranks(np.arange(n), xs, ys).T[keep], indptr), shape=(n, n))
    if not generator:
        return rates
    holding = np.asarray(rates.sum(axis=1)).ravel()
    # the diagonal follows the row's kept moves with y < x
    pos = indptr[:-1] + keep[:, ys < xs].sum(axis=1)
    q = sp.csr_matrix((np.insert(rates.data, pos, -holding),
                       np.insert(rates.indices, pos, np.arange(n)),
                       indptr + np.arange(n + 1)), shape=(n, n))
    q.eliminate_zeros()
    return q


def build_rate_matrix(spec: WalkSpec, params: ProcessParams,
                      enum: StateEnumeration) -> sp.csr_matrix:
    """Sparse jump-rate matrix over the enumeration (zero diagonal)."""
    return _assemble(spec, params, enum, generator=False)


def build_generator(spec: WalkSpec, params: ProcessParams,
                    enum: StateEnumeration) -> sp.csr_matrix:
    """Sparse generator: the jump rates minus the holding rates on the diagonal."""
    return _assemble(spec, params, enum, generator=True)


def enumerate_states(kappa: int, n: int) -> StateEnumeration:
    """Lexicographic (largest-first) enumeration of all configurations."""
    return StateEnumeration(kappa, n)


def _candidate_sets(kappa: int) -> np.ndarray:
    """Indicator columns of the candidate site sets of a split, by size,
    then in ``itertools.combinations`` order: every set of at most
    ``kappa / 2`` sites up to ``ND_ALL_SUBSETS`` sites, the single sites
    beyond. For even ``kappa`` a half-size set without site 0 is left out:
    its complement is listed, and ``eta(S^c) = N - eta(S)`` has the same
    level sets."""
    max_size = kappa // 2 if kappa <= ND_ALL_SUBSETS else 1
    sets = [s for size in range(1, max_size + 1)
            for s in combinations(range(kappa), size)
            if 2 * size < kappa or s[0] == 0]
    masks = np.zeros((kappa, len(sets)), dtype=np.int64)
    for c, s in enumerate(sets):
        masks[list(s), c] = 1
    return masks


def _smallest_level_set(sums: np.ndarray) -> tuple[int, int]:
    """The column of ``sums`` whose level set at its median is smallest (the
    first on ties), and that median."""
    rows = sums.T.copy()    # a partition along contiguous rows is faster
    half = rows.shape[1] // 2
    rows.partition(half, axis=1)
    med = rows[:, half]
    size = (rows == med[:, None]).sum(axis=1)
    c = int(np.argmin(size))
    return c, med[c]


def _nested_dissection(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """Fill-reducing elimination order from the count coordinates, and the
    L+U nonzeros it is predicted to store.

    A move changes the subset sum ``eta(S) = sum_{j in S} eta_j`` of any
    site set S by at most one, so the states with ``eta(S) == v`` separate
    those with ``eta(S) < v`` from those with ``eta(S) > v``, whatever the
    walk. Each block is split on the level set at the median of the
    candidate S whose level set there is smallest, the first candidate on
    ties; both sides are ordered recursively, and the separator goes last.
    Blocks of at most ``ND_LEAF`` states keep their given order. The
    candidates are those of :func:`_candidate_sets`: every S of at most
    ``kappa / 2`` sites up to ``ND_ALL_SUBSETS`` sites, the single sites
    beyond, so the family stays small on large walks. Their sums are
    tabulated once and scored per block all at once.

    The prediction models each block, separator or leaf, of s states whose
    b boundary states (earlier separators it may touch) are eliminated
    after it: it fills a dense s x s block and s x b entries each in L and
    in U, so it adds ``s (s + 2 b)``. A separator state z of an earlier split
    can touch the ``eta(S) < v`` side only if ``eta_z(S) <= v``, and the
    ``eta(S) > v`` side only if ``eta_z(S) >= v``.
    """
    n, kappa = coords.shape
    dtype = np.min_scalar_type(int(coords.sum(axis=1).max(initial=0)))
    table = coords.astype(dtype) @ _candidate_sets(kappa).astype(dtype)

    order = []
    fill = 0

    def dissect(idx: np.ndarray, bnd: np.ndarray) -> None:
        nonlocal fill
        sep = idx
        if idx.size > ND_LEAF:
            c, v = _smallest_level_set(table[idx])
            col, side = table[idx, c], table[bnd, c]
            sep = idx[col == v]
            dissect(idx[col < v], np.concatenate((bnd[side <= v], sep)))
            dissect(idx[col > v], np.concatenate((bnd[side >= v], sep)))
        order.append(sep)
        fill += sep.size * (sep.size + 2 * bnd.size)

    dissect(np.arange(n), np.zeros(0, dtype=np.intp))
    return np.concatenate(order), fill


def _lu_memory_budget() -> int:
    """Bytes the LU factors may take: half the physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _solve_refined(a: sp.spmatrix, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``a x = b`` by one sparse LU plus one step of iterative refinement.

    The unknowns are eliminated in the order ``a`` lists them, which
    :func:`_interior_system` makes the nested-dissection order. ``b`` may
    hold several right-hand sides as columns. Returns the solution and the
    nonzeros SuperLU stored for L and U. The factor and solve times go to
    :func:`stage_times`.
    """
    start = time.perf_counter()
    a = a.tocsc()       # no copy of the stationary solve's transpose
    lu = spla.splu(a, permc_spec="NATURAL")
    factored = time.perf_counter()
    x = lu.solve(b)
    x -= lu.solve(a @ x - b)
    _record(factor_s=factored - start, solve_s=time.perf_counter() - factored)
    return x, int(lu.nnz)


def _interior_system(spec: WalkSpec, params: ProcessParams,
                     enum: StateEnumeration, targets) -> tuple:
    """The system ``I - P_ii`` of the jump chain on the interior states, those
    off ``targets``, that every exact solve factors: the interior states in
    their elimination order, the L+U nonzeros that order is predicted to
    store, ``I - P_ii`` in CSR with its rows and columns in that order, and
    the rate matrix and holding rates of every state.

    The interior is ordered before anything is built. ``StateSpaceTooLarge``
    refuses it then if its predicted factors, at ``LU_BYTES_PER_NNZ`` bytes a
    nonzero, exceed :func:`_lu_memory_budget`; ``OutOfRange`` refuses an
    interior holding rate too small to invert.
    """
    start = time.perf_counter()
    interior = np.setdiff1d(np.arange(enum.size), targets)
    perm, predicted = _nested_dissection(enum.counts_matrix()[interior])
    need, budget = predicted * LU_BYTES_PER_NNZ, _lu_memory_budget()
    if need > budget:
        raise StateSpaceTooLarge(enum.size, reason=(
            f"its LU factors are predicted to hold {predicted:,} nonzeros, "
            f"{need / 2**30:.1f} GiB, over the budget of {budget / 2**30:.1f} GiB "
            "(half the physical memory)"))
    order = interior[perm]
    ordered = time.perf_counter()
    rates = build_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    stuck = holding[order] < 1.0 / np.finfo(float).max     # 1 / holding overflows
    if stuck.any():
        raise OutOfRange(f"{int(stuck.sum())} states off the target set have a "
                         "holding rate too small to invert (d_N too small)")
    p_i = sp.diags(1.0 / holding[order]) @ rates[order]
    a = sp.eye(order.size, format="csr") - p_i[:, order]
    _record(order_s=ordered - start, build_s=time.perf_counter() - ordered)
    return order, predicted, a, rates, holding


def stationary_exact(spec: WalkSpec, params: ProcessParams) -> Distribution:
    """Stationary distribution as the hitting system of one pinned state.

    The pin is the heaviest metastable state by the walk measure, so the
    solution stays well scaled. With ``mu_ref = 1``, the flux ``nu = mu *
    holding`` of the other states solves the transposed interior system
    ``nu (I - P_ii) = R[ref, interior]``; the law is clipped at zero and
    normalized. Raises ``SolverFailure`` if it misses the residual target
    ``|mu R - mu * holding| <= STATIONARY_TOL * max(holding)``, which is
    ``|mu Q| <= STATIONARY_TOL * max|Q|`` for the generator Q. ``solver``
    records the solve.
    """
    enum = enumerate_states(spec.kappa, params.n)
    ref = enum.xi_index(int(np.argmax(analyze_walk(spec).m)))
    order, predicted, a, rates, holding = _interior_system(spec, params, enum, [ref])
    nu, lu_nnz = _solve_refined(a.T, rates[ref].toarray().ravel()[order])
    mu = np.ones(enum.size)
    mu[order] = np.clip(nu, 0.0, None) / holding[order]
    mu /= mu.sum()
    residual = float(np.abs(mu @ rates - mu * holding).max())
    bound = STATIONARY_TOL * float(holding.max())
    if not residual <= bound:
        raise SolverFailure(f"stationary residual {residual:.3e} > "
                            f"{STATIONARY_TOL:.1e} * {holding.max():.3e}")
    return Distribution(enum, mu, solver=SolverReport("lu", residual, bound, lu_nnz,
                                                      predicted))


def stationary_closed_form(spec: WalkSpec, params: ProcessParams) -> Distribution:
    """Product-form stationary distribution, valid under reversibility or a
    uniform walk measure.

    Weight of a state is ``prod_x (m(x)/m_star)**eta_x * w(eta_x)`` with the
    occupation weights ``w`` from :func:`incproc.model.log_weight_table`; all
    products run in log space and the log-partition value is returned on the
    distribution.
    """
    analysis = analyze_walk(spec)
    if not (analysis.rev or analysis.ui):
        raise ConditionNotSatisfied(
            "closed form requires a reversible walk or a uniform invariant measure")
    enum = enumerate_states(spec.kappa, params.n)
    counts = enum.counts_matrix()
    logw = log_weight_table(params.n, params.d)
    log_site_ratio = np.log(analysis.m / analysis.m_star)
    logs = logw[counts].sum(axis=1) + counts @ log_site_ratio
    shift = logs.max()
    unnorm = np.exp(logs - shift)
    total = unnorm.sum()
    log_norm = float(shift + np.log(total))
    return Distribution(enum, unnorm / total, log_norm=log_norm)


@dataclass(frozen=True)
class RegionMassReport:
    """Masses of one R-tube's pieces under a distribution."""

    r_set: tuple[int, ...]
    eps: float
    threshold: int
    tube: float
    boundary: float
    outer_core: float
    inner_core: float
    slices: np.ndarray  # (len(r_set), N+1): slice masses per site and count


@dataclass(frozen=True)
class MassReport:
    """Condensate and tube masses of a distribution."""

    e_mass: float
    xi_mass: np.ndarray
    b_mass: np.ndarray
    b_ratios: np.ndarray
    regions: tuple[RegionMassReport, ...]


def region_masses(mu: Distribution, regions: Sequence[RegionSpec] = ()) -> MassReport:
    """Masses of the metastable states, occupied-count sets, and given tubes."""
    if not isinstance(mu, Distribution):
        raise OutOfRange(f"mu must be a Distribution, got {mu!r}")
    if not (isinstance(regions, Sequence)
            and all(isinstance(reg, RegionSpec) for reg in regions)):
        raise OutOfRange(f"regions must be a sequence of RegionSpec, got {regions!r}")
    enum = mu.enum
    for reg in regions:
        if not reg.enum.same_space(enum):
            raise DimensionMismatch("region built for a different state space")
    xi = np.array([mu.weights[enum.xi_index(x)] for x in range(enum.kappa)])
    b_mass = b_set_masses(mu.weights, enum)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_ratios = b_mass[1:] / b_mass[:-1]
    counts = enum.counts_matrix()
    reports = []
    for reg in regions:
        n = enum.n
        slices = np.zeros((len(reg.r_set), n + 1))
        tube_idx = reg.tube
        tube_w = mu.weights[tube_idx]
        for i, x in enumerate(reg.r_set):
            slices[i] = np.bincount(counts[tube_idx, x], weights=tube_w,
                                    minlength=n + 1)
        reports.append(RegionMassReport(
            r_set=reg.r_set, eps=reg.eps, threshold=reg.threshold,
            tube=mu.mass(reg.tube), boundary=mu.mass(reg.boundary),
            outer_core=mu.mass(reg.outer_core), inner_core=mu.mass(reg.inner_core),
            slices=slices))
    return MassReport(e_mass=float(xi.sum()), xi_mass=xi, b_mass=b_mass,
                      b_ratios=b_ratios, regions=tuple(reports))


def _hitting_matrix(spec: WalkSpec, params: ProcessParams, enum: StateEnumeration,
                    a_set: tuple[int, ...]) -> tuple:
    """Hitting probabilities of every metastable state of ``a_set`` at once,
    the rate matrix they were read from (None when every state is a target)
    and the solve.

    Column j holds, per starting state, the probability of reaching
    xi^{a_set[j]} before any other metastable state of ``a_set``. The ``|A|``
    boundary columns are solved together against one factor of the interior
    system; every column's residual is checked against ``HITTING_TOL``.
    """
    xi = np.asarray([enum.xi_index(x) for x in a_set], dtype=np.int64)
    h = np.zeros((enum.size, len(a_set)))
    h[xi, np.arange(len(a_set))] = 1.0
    if enum.size == len(a_set):
        # every state is metastable (N = 1, A = all sites): nothing to solve
        return h, None, SolverReport("lu", 0.0, HITTING_TOL, 0)
    if len(a_set) == 1:
        # the one target is reached first from every state; when it is hard
        # to reach, the pivots of the interior system cancel to an exact zero
        h[:] = 1.0
        return h, build_rate_matrix(spec, params, enum), SolverReport("lu", 0.0, HITTING_TOL, 0)

    order, predicted, a, rates, holding = _interior_system(spec, params, enum, xi)
    b = rates[:, xi][order].toarray() * (1.0 / holding[order])[:, None]
    h_int, lu_nnz = _solve_refined(a, b)
    residual = float(np.abs(a @ h_int - b).max())
    if not residual <= HITTING_TOL:     # a nan residual fails too
        raise SolverFailure(
            f"hitting-probability residual {residual:.3e} > {HITTING_TOL:.1e}")

    h[order] = np.clip(h_int, 0.0, 1.0)
    return h, rates, SolverReport("lu", residual, HITTING_TOL, lu_nnz, predicted)


@dataclass(frozen=True)
class TraceRateMatrix:
    """Mean-jump rates of the trace process on the metastable states of A.

    ``raw[i, j]`` is the trace jump rate from xi^{A[i]} to xi^{A[j]};
    ``normalized`` is ``raw / (d * N)``. ``solver`` records the one
    factorization of the hitting system the rates were read from.
    """

    a_set: tuple[int, ...]
    raw: np.ndarray
    normalized: np.ndarray
    n: int
    d: float
    solver: SolverReport | None = None

    def generator(self) -> np.ndarray:
        gen = self.raw.copy()
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))
        return gen

    def stationary(self) -> np.ndarray:
        """Stationary distribution of the trace chain on A."""
        return dense_stationary(self.generator())


def mean_jump_rate_exact(spec: WalkSpec, params: ProcessParams, a_set) -> TraceRateMatrix:
    """Exact trace-process mean-jump rates between metastable states.

    Uses the first-step decomposition: the rate from xi^x to xi^y equals
    ``sum_z N d r(x, z) * h(one particle moved from x to z)`` where h is the
    exact probability of reaching xi^y before the rest of the metastable set,
    that is the row of xi^x in the rate matrix times the hitting matrix.
    """
    a_set = site_set(a_set, spec.kappa)
    n, d = params.n, params.d
    if n < 2:
        raise OutOfRange(f"trace rates need N >= 2, got N = {n}")
    enum = enumerate_states(spec.kappa, params.n)
    h, rates, solver = _hitting_matrix(spec, params, enum, a_set)
    raw = rates[[enum.xi_index(x) for x in a_set]] @ h
    np.fill_diagonal(raw, 0.0)
    return TraceRateMatrix(a_set=a_set, raw=raw, normalized=raw / (d * n),
                           n=n, d=d, solver=solver)


def flow_profile(spec: WalkSpec, params: ProcessParams, mu: Distribution,
                 r_set, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary probability flows across the slices of an R-tube at site x.

    Returns arrays (up, down) of length N: ``up[k]`` sums
    ``mu(eta) * rate(eta -> zeta)`` over moves raising the count at x from k
    to k+1 inside the tube, ``down[k]`` over the reverse moves.
    """
    enum = mu.enum
    r_set = site_set(r_set, enum.kappa)
    x = check_site(x, r_set, f"R {r_set}")
    counts = enum.counts_matrix()
    tube = np.nonzero(supported_on(enum, r_set))[0]
    n, d = enum.n, params.d
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    w = mu.weights
    for y in r_set:
        if y == x:
            continue
        # up-moves: particle y -> x from states with eta_y >= 1
        ryx = spec.rates[y, x]
        if ryx > 0:
            src = tube[counts[tube, y] >= 1]
            k = counts[src, x]
            rate = counts[src, y] * (d + k) * ryx
            np.add.at(up, k, w[src] * rate)
        # down-moves: particle x -> y from states with eta_x >= 1
        rxy = spec.rates[x, y]
        if rxy > 0:
            src = tube[counts[tube, x] >= 1]
            k = counts[src, x]
            rate = k * (d + counts[src, y]) * rxy
            np.add.at(down, k - 1, w[src] * rate)
    return up[:n], down[:n]


EXACT_RATIONAL_LIMIT = 300
RECIPROCAL_N_MAX = 10_000
RECIPROCAL_K_MAX = 8


@dataclass(frozen=True)
class ReciprocalSum:
    """One reciprocal-composition sum with its logarithmic bound check."""

    n: int
    k: int
    value: Fraction | float
    bound: float
    within_bound: bool


def _stirling_first(n_max: int, k_max: int) -> list[list[int]]:
    """Unsigned Stirling numbers of the first kind as integers: row k holds
    ``[m k]`` for m = 0..n_max, by ``[m+1 k] = m [m k] + [m k-1]``."""
    rows = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    rows[0][0] = 1
    for m in range(n_max):
        for k in range(1, k_max + 1):
            rows[k][m + 1] = m * rows[k][m] + rows[k - 1][m]
    return rows


def reciprocal_sum_table(n_max: int, k_max: int, exact: bool):
    """Table ``table[k][n]`` of the sums S(n, k), over compositions of n into
    k positive parts, of the product of the parts' reciprocals.

    ``(-log(1-z))^k / k!`` generates ``[n k] / n!``, the unsigned Stirling
    numbers of the first kind over n!, so ``S(n, k) = k! [n k] / n!``. Exact
    mode (n_max <= 300) runs the Stirling recurrence on integers and makes one
    ``Fraction`` per entry. Float mode runs it on ``T(n, k) = [n k] / n!``,
    ``T(m+1, k) = (m T(m, k) + T(m, k-1)) / (m+1)`` from ``T(0, 0) = 1``,
    whose terms are all positive, so nothing cancels. Both cost O(n_max k_max)
    steps. Entries with n < k are 0.
    """
    if exact:
        fact = [factorial(m) for m in range(max(n_max, k_max) + 1)]
        return [[Fraction(fact[k] * s, fact[m]) for m, s in enumerate(row)]
                for k, row in enumerate(_stirling_first(n_max, k_max))]
    table = [[0.0] * (n_max + 1) for _ in range(k_max + 1)]
    table[0][0] = 1.0
    for m in range(n_max):
        for k in range(1, k_max + 1):
            table[k][m + 1] = (m * table[k][m] + table[k - 1][m]) / (m + 1)
    scale = 1.0
    for k in range(1, k_max + 1):
        scale *= k
        table[k] = [scale * t for t in table[k]]
    return table


def reciprocal_bound_holds(value, n: int, k: int) -> bool:
    """Check ``value <= (3 log(n+1))**(k-1) / n`` without rounding artifacts.

    At k = 1 the bound is exactly 1/n and the sum attains it, so the
    comparison must be rational; for k >= 2 the inequality carries a real
    margin and the float bound is compared directly (Fraction <= float
    compares against the float's exact rational value).
    """
    if k == 1:
        rhs = Fraction(1, n)
        return value <= rhs if isinstance(value, Fraction) else value <= float(rhs)
    return value <= (3.0 * log(n + 1.0)) ** (k - 1) / n


def reciprocal_sum(n: int, k: int) -> ReciprocalSum:
    """Reciprocal-composition sum S(n, k) and its bound flag.

    Exact rational for n <= 300, float beyond; the bound checked is
    ``(3 log(n+1))**(k-1) / n``.
    """
    n = integer(n, "n", 1, RECIPROCAL_N_MAX)
    k = integer(k, "k", 1, min(n, RECIPROCAL_K_MAX))
    if n <= EXACT_RATIONAL_LIMIT:
        value = Fraction(factorial(k) * _stirling_first(n, k)[k][n], factorial(n))
    else:
        value = reciprocal_sum_table(n, k, exact=False)[k][n]
    bound = (3.0 * log(n + 1.0)) ** (k - 1) / n
    return ReciprocalSum(n=n, k=k, value=value, bound=bound,
                         within_bound=reciprocal_bound_holds(value, n, k))
