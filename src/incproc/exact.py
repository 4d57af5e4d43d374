"""Exact stationary distributions, hitting probabilities, trace rates, flows.

Everything here is a direct linear-algebra computation on the enumerated
configuration space; no asymptotics. Every exact solve reads one reduction
onto the metastable states xi = {xi^x}, the trace process of Beltran and
Landim (J. Stat. Phys. 140, 2010): the interior system ``I - P_ii`` of the
jump chain off every metastable state is factored once, its kappa hitting
columns h give the trace generator ``G = R[xi] @ h``, and the stationary
law and the trace rates on any A come from G by the subtraction-free
elimination of Grassmann, Taksar and Heyman (Oper. Res. 33, 1985). The
stationary law off xi is the transposed solve of the same factor.

Sparse direct solves eliminate the states in nested-dissection order,
split on level sets of subset sums of their counts, carry one step of
iterative refinement and are checked against explicit residual tolerances.
The separator tree of the order is what the factor runs on: a multifrontal
LU, one dense front per block, in the compiled ``_kernel.c`` on scipy's
BLAS and LAPACK. So the tree gives the factor's size before anything is
built, and a system whose factor and update matrices do not fit in half
the physical memory is refused with ``StateSpaceTooLarge``. The results are
the same from run to run; :func:`stage_times` records the seconds each
solve spends ordering, building, factoring and solving.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import factorial, log
from operator import mul
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from ._native import _address, _compiled, _lapack
from .errors import (ConditionNotSatisfied, DimensionMismatch, OutOfRange,
                     SolverFailure, StateSpaceTooLarge)
from .model import (ProcessParams, WalkSpec, _add_in_order, _gth, _gth_stationary,
                    _subnormal_rates, analyze_walk, check_site, instance, integer,
                    log_weight_table, site_set, walk_and_params)
from .regions import RegionSpec, supported_on
from .states import (Distribution, SolverReport, StateEnumeration, b_set_masses,
                     space_size)

STATIONARY_TOL = 1e-10
HITTING_TOL = 1e-12
ND_LEAF = 32
ND_ALL_SUBSETS = 8
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


def _check_space(spec: WalkSpec, params: ProcessParams, enum: StateEnumeration) -> None:
    """``OutOfRange`` unless the arguments are a walk, its parameters and an
    enumeration; ``DimensionMismatch`` unless the enumeration is of the
    walk's site count and N."""
    walk_and_params(spec, params)
    instance(enum, StateEnumeration, "enum")
    if (spec.kappa, params.n) != (enum.kappa, enum.n):
        raise DimensionMismatch(f"a walk on {spec.kappa} sites with N = {params.n} over "
                                f"the states of {enum.kappa} sites and N = {enum.n}")


def _assemble(spec: WalkSpec, params: ProcessParams, enum: StateEnumeration,
              generator: bool) -> sp.csr_matrix:
    """The jump-rate matrix, or the generator, written straight into CSR in
    one pass over the states in rank order, by ``incproc_assemble`` of
    ``_kernel.c``.

    Every row lists the positive-rate moves in one fixed order (see
    :func:`_column_key`), which is the sorted column order in every row; a
    move exists where its source site is occupied, and its column is the
    moved state's rank, the state's rank plus a difference of two of its
    prefix steps (``prefix_steps`` in ``_kernel.c``). The generator puts the
    holding rate, scipy's ``sum(axis=1)`` of the rate row, at the diagonal's
    fixed slot and keeps the nonzero entries only, like the sparse
    difference ``rates - diag(holding)``.

    A move out of site x exists in the ``space_size(kappa, N - 1)`` states
    that occupy x, so the arrays are sized exactly; only a generator with
    rates that round to zero keeps fewer entries, and is cut to them. The
    index arrays are int32, as scipy keeps them at these sizes;
    ``StateSpaceTooLarge`` refuses a matrix of more entries than that.
    :func:`_check_space` refuses an enumeration of another site count or N
    than the walk's, whose tables the compiled pass would read past.
    """
    _check_space(spec, params, enum)
    n = enum.size
    moves = sorted(((x, y) for x in range(spec.kappa) for y in range(spec.kappa)
                    if x != y and spec.rates[x, y] != 0.0), key=_column_key)
    xs, ys = np.array(moves, dtype=np.int64).reshape(-1, 2).T.copy()
    room = xs.size * space_size(spec.kappa, params.n - 1) + (n if generator else 0)
    if room > np.iinfo(np.int32).max:
        raise StateSpaceTooLarge(n, reason=f"its rate matrix has {room:,} entries, more "
                                 "than 32-bit indices can count")
    # every array the call reads or writes is held by a name until it returns
    rates, counts = spec.rates[xs, ys], enum.counts_matrix()
    indptr, indices, data = (np.empty(size, dtype=dtype) for size, dtype in
                             ((n + 1, np.int32), (room, np.int32), (room, float)))
    row, cols = np.empty(xs.size), np.empty(xs.size, dtype=np.int32)
    steps = np.empty(2 * spec.kappa, dtype=np.int64)
    nnz = _compiled().incproc_assemble(
        spec.kappa, params.n, _address(enum._cum), _address(counts), n, _address(xs),
        _address(ys), _address(rates), xs.size, int((ys < xs).sum()), params.d, generator,
        *map(_address, (indptr, indices, data, row, cols, steps)))
    if nnz < room:
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_rate_matrix(spec: WalkSpec, params: ProcessParams,
                      enum: StateEnumeration) -> sp.csr_matrix:
    """Sparse jump-rate matrix over the enumeration (zero diagonal), with a
    stored entry, zero or not, for every move out of an occupied site;
    written by the compiled ``incproc_assemble`` (see :func:`_assemble`)."""
    return _assemble(spec, params, enum, generator=False)


def build_generator(spec: WalkSpec, params: ProcessParams,
                    enum: StateEnumeration) -> sp.csr_matrix:
    """Sparse generator: the jump rates minus the holding rates on the
    diagonal, with no stored zeros. The holding rate rounds as scipy's
    ``build_rate_matrix(...).sum(axis=1)`` does; the compiled
    ``incproc_assemble`` writes the CSR arrays in one pass (see
    :func:`_assemble`)."""
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


@dataclass(frozen=True)
class _Tree:
    """The separator tree of a nested-dissection order: its blocks, each a
    separator or a leaf, in elimination order.

    Block k eliminates the next ``sizes[k]`` states of ``perm``. Its
    boundary, ``bounds[bound_ptr[k]:bound_ptr[k + 1]]``, holds the
    positions, ascending, of the later states it or a block below it may
    touch; its ``children[k]`` children are the last blocks before it whose
    boundaries it takes in. ``stored`` counts the entries the factor
    stores, ``s (s + 2 b)`` for a block of s states and b boundary states,
    and ``updates`` the most entries of update matrices alive at once.
    """

    perm: np.ndarray
    sizes: np.ndarray
    children: np.ndarray
    bound_ptr: np.ndarray
    bounds: np.ndarray
    stored: int
    updates: int

    @property
    def factor_bytes(self) -> int:
        """Bytes of the factor and of its update matrices, 8 an entry."""
        return 8 * (self.stored + self.updates)

    @property
    def widest(self) -> int:
        """The size of the largest boundary."""
        return int(np.diff(self.bound_ptr).max(initial=0))


def _nested_dissection(coords: np.ndarray) -> _Tree:
    """Fill-reducing elimination order from the count coordinates, as the
    separator tree the factor runs on.

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

    A block's boundary is the states of earlier splits' separators, which
    are eliminated after it, that it may touch: a separator state z of an
    earlier split can touch the ``eta(S) < v`` side only if
    ``eta_z(S) <= v``, and the ``eta(S) > v`` side only if ``eta_z(S) >= v``.
    The two sides are the children of the split's separator.
    """
    n, kappa = coords.shape
    dtype = np.min_scalar_type(int(coords.sum(axis=1).max(initial=0)))
    table = coords.astype(dtype) @ _candidate_sets(kappa).astype(dtype)
    blocks = []     # (states, boundary, children) in elimination order

    def dissect(idx: np.ndarray, bnd: np.ndarray) -> tuple[int, int, int]:
        """Order the states ``idx`` inside the boundary ``bnd``. Returns the
        blocks it leaves for the caller to take in (none when ``idx`` is
        empty, else one), the entries of that block's update matrix, and
        the most update entries alive at once while ``idx`` is factored."""
        if not idx.size:
            return 0, 0, 0
        sep, children, below, peak = idx, 0, 0, 0
        if idx.size > ND_LEAF:
            c, v = _smallest_level_set(table[idx])
            col, side = table[idx, c], table[bnd, c]
            sep = idx[col == v]
            for part, near in ((col < v, side <= v), (col > v, side >= v)):
                added, update, most = dissect(idx[part], np.concatenate((bnd[near], sep)))
                children += added
                peak = max(peak, below + most)
                below += update
        blocks.append((sep, bnd, children))
        return 1, bnd.size ** 2, max(peak, below + bnd.size ** 2)

    updates = dissect(np.arange(n), np.zeros(0, dtype=np.intp))[2]
    seps, bnds, children = zip(*blocks) if blocks else ((), (), ())
    perm = np.concatenate((np.zeros(0, dtype=np.intp), *seps))
    sizes = np.array([sep.size for sep in seps], dtype=np.int64)
    widths = np.array([bnd.size for bnd in bnds], dtype=np.int64)
    bound_ptr = np.concatenate(([0], np.cumsum(widths)))
    # each boundary's positions in the order, sorted within its block
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    block = np.repeat(np.arange(sizes.size, dtype=np.int64), widths) * n
    bounds = np.sort(pos[np.concatenate((np.zeros(0, dtype=np.intp), *bnds))] + block) - block
    return _Tree(perm, sizes, np.array(children, dtype=np.int64), bound_ptr,
                 bounds.astype(np.int32), int((sizes * (sizes + 2 * widths)).sum()), updates)


def _lu_memory_budget() -> int:
    """Bytes the LU factor and its update matrices may take: half the
    physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _factor(a: sp.spmatrix, tree: _Tree) -> tuple[np.ndarray, np.ndarray]:
    """The multifrontal LU factor of ``a``, whose rows and columns are in
    the order of ``tree``, on the blocks of that tree: ``incproc_lu_factor``
    of ``_kernel.c``, which reaches scipy's BLAS and LAPACK.

    Each block factors its dense front and pivots inside its own states.
    That is stable here: ``I - P_ii`` is a nonsingular M-matrix, row
    diagonally dominant, its transpose column diagonally dominant, and
    Schur complements keep both (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 9.5). Returns the factor's
    ``tree.stored`` entries and its row swaps; the update matrices take
    ``tree.updates`` entries while it runs.
    """
    n = tree.perm.size
    if a.shape != (n, n):
        raise DimensionMismatch(f"a {a.shape} system for a tree of {n} states")
    # its rows and its columns; scipy keeps 32-bit indices at these sizes,
    # so only the conversion copies
    matrix = [np.asarray(part, dtype=dtype) for m in (a.tocsr(), a.tocsc())
              for part, dtype in ((m.indptr, np.int32), (m.indices, np.int32), (m.data, float))]
    lu, ipiv, work = np.empty(tree.stored), np.empty(n, dtype=np.intc), np.empty(tree.updates)
    where, loc = np.full(n, -1, dtype=np.int32), np.empty(tree.widest, dtype=np.int32)
    ids = np.empty(tree.sizes.size, dtype=np.int64)
    status = _compiled().incproc_lu_factor(
        tree.sizes.size, *map(_address, (tree.sizes, tree.children, tree.bound_ptr,
                                         tree.bounds, *matrix, lu, ipiv, work)),
        tree.updates, *map(_address, (ids, where, loc)), _lapack())
    if status:
        raise SolverFailure(f"the separator tree does not cover the interior system "
                            f"(factor status {status})")
    return lu, ipiv


def _lu_solve(tree: _Tree, lu: np.ndarray, ipiv: np.ndarray, b: np.ndarray,
              trans: bool = False) -> np.ndarray:
    """Solve ``a x = b``, or ``a.T x = b`` with ``trans``, with the factor
    :func:`_factor` made of ``a``, by ``incproc_lu_solve``; ``b`` may hold
    several right-hand sides as columns."""
    x = np.array(b, dtype=float, order="F")
    if x.shape[0] != tree.perm.size:
        raise DimensionMismatch(f"{x.shape[0]} right-hand rows for a tree of "
                                f"{tree.perm.size} states")
    nrhs = x.shape[1] if x.ndim == 2 else 1
    scratch = np.empty(tree.widest * nrhs)
    _compiled().incproc_lu_solve(tree.sizes.size, *map(_address, (
        tree.sizes, tree.bound_ptr, tree.bounds, lu, ipiv)), x.shape[0], nrhs,
        _address(x), _address(scratch), trans, _lapack())
    return x


def _solver(a: sp.csr_matrix, tree: _Tree) -> tuple[Callable, int]:
    """Factor ``a`` once, by the multifrontal LU on ``tree``, whose order is
    the order ``a`` lists its unknowns in. Returns ``solve(b, trans=False)``,
    which solves ``a x = b``, or ``a.T x = b`` with ``trans``, plus one step
    of iterative refinement, and the entries stored for L and U. ``b`` may
    hold several right-hand sides as columns. The factor and solve times go
    to :func:`stage_times`.
    """
    start = time.perf_counter()
    lu, ipiv = _factor(a, tree)
    _record(factor_s=time.perf_counter() - start)

    def solve(b: np.ndarray, trans: bool = False) -> np.ndarray:
        start = time.perf_counter()
        x = _lu_solve(tree, lu, ipiv, b, trans)
        x -= _lu_solve(tree, lu, ipiv, (a.T if trans else a) @ x - b, trans)
        _record(solve_s=time.perf_counter() - start)
        return x

    return solve, lu.size


@dataclass(frozen=True)
class _TraceChain:
    """The reduction of the walk's state space onto its metastable states
    (see :func:`_trace_chain`).

    ``xi[x]`` is the rank of xi^x and ``order`` the interior states, every
    other, in elimination order. ``hitting[:, y]`` holds, per state, the
    probability of reaching xi^y first among the metastable states, and
    ``generator`` is the kappa x kappa generator G of the trace chain on
    xi, its rows and columns by site. ``solve`` solves the interior system
    ``I - P_ii``, in ``order``, with its one factor (see :func:`_solver`);
    ``solver`` records the hitting solve.
    """

    enum: StateEnumeration
    xi: np.ndarray
    order: np.ndarray
    rates: sp.csr_matrix
    holding: np.ndarray
    hitting: np.ndarray
    generator: np.ndarray
    solve: Callable
    solver: SolverReport


def _trace_chain(spec: WalkSpec, params: ProcessParams) -> _TraceChain:
    """The trace of the walk's inclusion process on its metastable states,
    from one factor of the interior system ``I - P_ii`` of the jump chain
    off every metastable state.

    The interior is ordered before anything is built. ``StateSpaceTooLarge``
    refuses it then if its factor and update matrices, at 8 bytes an entry,
    exceed :func:`_lu_memory_budget`; ``OutOfRange`` refuses a holding rate
    below the smallest normal float, whose reciprocal overflows or whose
    rate row keeps too few bits; the message names the walk's subnormal
    rates, or blames d_N where there are none. The kappa hitting columns,
    the probability of reaching each xi^y first, are solved against that
    factor and checked against ``HITTING_TOL``; the trace generator is then
    ``G = R[xi] @ h``, off the diagonal, with the diagonal its negated row
    sums (Beltran and Landim, J. Stat. Phys. 140 (2010)).
    """
    enum = enumerate_states(spec.kappa, params.n)
    start = time.perf_counter()
    xi = np.array([enum.xi_index(x) for x in range(spec.kappa)], dtype=np.int64)
    interior = np.setdiff1d(np.arange(enum.size), xi)
    tree = _nested_dissection(enum.counts_matrix()[interior])
    need, budget = tree.factor_bytes, _lu_memory_budget()
    if need > budget:
        raise StateSpaceTooLarge(enum.size, reason=(
            f"its LU factor holds {tree.stored:,} entries and its update matrices "
            f"{tree.updates:,} at once, {need / 2**30:.1f} GiB, over the budget of "
            f"{budget / 2**30:.1f} GiB (half the physical memory)"))
    order = interior[tree.perm]
    ordered = time.perf_counter()
    rates = build_rate_matrix(spec, params, enum)
    holding = np.asarray(rates.sum(axis=1)).ravel()
    stuck = holding < np.finfo(float).tiny
    if stuck.any():
        tiny = _subnormal_rates(spec.rates)
        why = f"the walk's {len(tiny)} subnormal rates, at {tiny}" if tiny else "d_N too small"
        raise OutOfRange(f"{int(stuck.sum())} states have a subnormal holding rate, too "
                         f"small to invert ({why})")
    p_i = sp.diags(1.0 / holding[order]) @ rates[order]
    a = sp.eye(order.size, format="csr") - p_i[:, order]
    b = p_i[:, xi].toarray()
    _record(order_s=ordered - start, build_s=time.perf_counter() - ordered)

    solve, lu_nnz = _solver(a, tree)
    h_int = solve(b)
    residual = float(np.abs(a @ h_int - b).max(initial=0.0))
    if not residual <= HITTING_TOL:     # a nan residual fails too
        raise SolverFailure(f"hitting-probability residual {residual:.3e} > {HITTING_TOL:.1e}")
    h = np.zeros((enum.size, spec.kappa))
    h[xi, np.arange(spec.kappa)] = 1.0
    h[order] = np.clip(h_int, 0.0, 1.0)
    g = rates[xi] @ h
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return _TraceChain(enum, xi, order, rates, holding, h, g, solve,
                       SolverReport("lu", residual, HITTING_TOL, lu_nnz, tree.stored))


def stationary_exact(spec: WalkSpec, params: ProcessParams) -> Distribution:
    """Stationary distribution from the trace chain on the metastable states.

    On xi, mu is the stationary law of the trace generator G of
    :func:`_trace_chain`, by GTH elimination towards a metastable state
    every other reaches at rates above zero, so a rate of G that underflows
    is never divided by. Off xi, the flux ``nu = mu *
    holding`` solves the transposed interior system ``nu (I - P_ii) =
    mu_xi R[xi, interior]`` with the same factor; the law is clipped at
    zero and normalized. Raises ``SolverFailure`` if it misses the residual
    target ``|mu R - mu * holding| <= STATIONARY_TOL * max(holding)``, which
    is ``|mu Q| <= STATIONARY_TOL * max|Q|`` for the generator Q.
    ``solver`` records the solve.
    """
    walk_and_params(spec, params)
    chain = _trace_chain(spec, params)
    enum, rates, holding, order = chain.enum, chain.rates, chain.holding, chain.order
    mu = np.empty(enum.size)
    mu[chain.xi] = _gth_stationary(chain.generator)
    nu = chain.solve(rates[chain.xi][:, order].T @ mu[chain.xi], trans=True)
    mu[order] = np.clip(nu, 0.0, None) / holding[order]
    mu /= mu.sum()
    residual = float(np.abs(mu @ rates - mu * holding).max())
    bound = STATIONARY_TOL * float(holding.max())
    if not residual <= bound:
        raise SolverFailure(f"stationary residual {residual:.3e} > "
                            f"{STATIONARY_TOL:.1e} * {holding.max():.3e}")
    return Distribution(enum, mu, solver=SolverReport("lu", residual, bound,
                                                      chain.solver.lu_nnz,
                                                      chain.solver.predicted_nnz))


def stationary_closed_form(spec: WalkSpec, params: ProcessParams) -> Distribution:
    """Product-form stationary distribution, valid under reversibility or a
    uniform walk measure.

    Weight of a state is ``prod_x (m(x)/m_star)**eta_x * w(eta_x)`` with the
    occupation weights ``w`` from :func:`incproc.model.log_weight_table`; all
    products run in log space and the log-partition value is returned on the
    distribution.
    """
    walk_and_params(spec, params)
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
    """Condensate and tube masses of a distribution.

    ``e_mass`` is the masses ``xi_mass`` of the metastable states added
    left to right, ``b_mass`` those of the at-most-k-occupied-sites sets and
    ``b_ratios`` the ratios of consecutive ones."""

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
    return MassReport(e_mass=_add_in_order(0.0, xi), xi_mass=xi, b_mass=b_mass,
                      b_ratios=b_ratios, regions=tuple(reports))


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

    def stationary(self) -> np.ndarray:
        """Stationary distribution of the trace chain on A, by GTH elimination."""
        return _gth_stationary(self.raw)


def mean_jump_rate_exact(spec: WalkSpec, params: ProcessParams, a_set) -> TraceRateMatrix:
    """Exact trace-process mean-jump rates between the metastable states of A.

    Traces compose, so the trace chain on A is the trace, onto A, of the
    trace chain on every metastable state: the GTH Schur complement of the
    generator G of :func:`_trace_chain` onto A. Off the diagonal G is the
    first-step sum ``sum_z N d r(x, z) h_y(one particle moved from x to z)``,
    the row of xi^x in the rate matrix times the exact probability of
    reaching xi^y first among the metastable states. Raises
    ``SolverFailure`` if a metastable state outside A reaches A at no rate
    of G above zero: its row of G underflowed, and with it how its exits
    share out over A.
    """
    walk_and_params(spec, params)
    a_set = site_set(a_set, spec.kappa)
    n, d = params.n, params.d
    if n < 2:
        raise OutOfRange(f"trace rates need N >= 2, got N = {n}")
    chain = _trace_chain(spec, params)
    raw = _gth(chain.generator, a_set)[1][:len(a_set), :len(a_set)]
    np.fill_diagonal(raw, 0.0)
    return TraceRateMatrix(a_set=a_set, raw=raw, normalized=raw / (d * n),
                           n=n, d=d, solver=chain.solver)


def flow_profile(spec: WalkSpec, params: ProcessParams, mu: Distribution,
                 r_set, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary probability flows across the slices of an R-tube at site x.

    Returns arrays (up, down) of length N: ``up[k]`` sums
    ``mu(eta) * rate(eta -> zeta)`` over moves raising the count at x from k
    to k+1 inside the tube, ``down[k]`` over the reverse moves.
    ``DimensionMismatch`` refuses a ``mu`` over the states of another site
    count or N than the walk's (see :func:`_check_space`).
    """
    enum = instance(mu, Distribution, "mu").enum
    _check_space(spec, params, enum)
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


def reciprocal_sum_table(n_max: int, k_max: int) -> list[list[Fraction]]:
    """Exact ``table[k][n]`` of S(n, k), the sum over compositions of n into
    k positive parts of the product of the parts' reciprocals (0 for n < k).

    ``(-log(1-z))^k / k!`` generates ``[n k] / n!``, the unsigned Stirling
    numbers of the first kind over n!, so ``S(n, k) = k! [n k] / n!``: the
    recurrence runs on integers in O(n_max k_max) steps, one ``Fraction`` an entry.
    """
    fact = [factorial(m) for m in range(max(n_max, k_max) + 1)]
    return [[Fraction(fact[k] * s, fact[m]) for m, s in enumerate(row)]
            for k, row in enumerate(_stirling_first(n_max, k_max))]


def reciprocal_sum_column(n: int, k_max: int) -> list[float]:
    """S(n, 0..k_max) in floats and O(k_max) memory: ``T(m, k) = [m k] / m!``
    updated in place from k = k_max down to 1 by ``T(m+1, k) = (m T(m, k) +
    T(m, k-1)) / (m+1)``, whose terms are all positive, so nothing cancels."""
    col = [1.0] + [0.0] * k_max
    for m in range(n):
        for k in range(k_max, 0, -1):
            col[k] = (m * col[k] + col[k - 1]) / (m + 1)
        col[0] = 0.0
    return [scale * t for scale, t in zip(accumulate(range(1, k_max + 1), mul, initial=1.0), col)]


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
        value = reciprocal_sum_column(n, k)[k]
    bound = (3.0 * log(n + 1.0)) ** (k - 1) / n
    return ReciprocalSum(n=n, k=k, value=value, bound=bound,
                         within_bound=reciprocal_bound_holds(value, n, k))
