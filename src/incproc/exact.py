"""Exact stationary distributions, hitting probabilities, trace rates, flows.

Everything here is a direct linear-algebra computation on the enumerated
configuration space; no asymptotics. Sparse direct solves eliminate the
states in nested-dissection order on their count coordinates, carry one step
of iterative refinement and are checked against explicit residual tolerances.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConditionNotSatisfied, DimensionMismatch, OutOfRange,
                     SolverFailure)
from .model import (ProcessParams, WalkSpec, analyze_walk, dense_stationary,
                    log_weight_table, site_set)
from .regions import RegionSpec
from .states import (DEFAULT_CAP, Distribution, SolverReport, StateEnumeration,
                     b_set_masses)

STATIONARY_TOL = 1e-10
HITTING_TOL = 1e-12
ND_LEAF = 32


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


def enumerate_states(kappa: int, n: int, cap: int = DEFAULT_CAP) -> StateEnumeration:
    """Lexicographic (largest-first) enumeration of all configurations."""
    return StateEnumeration(kappa, n, cap=cap)


def _nested_dissection(coords: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order from the count coordinates.

    A move changes every count by at most one, so the states with
    ``eta_j == v`` separate those with ``eta_j < v`` from those with
    ``eta_j > v``. Each block is split at the median of its widest
    coordinate, both sides are ordered recursively, and the separator goes
    last. Blocks of at most ``ND_LEAF`` states keep their given order.
    """
    order = []

    def dissect(idx: np.ndarray) -> None:
        if idx.size <= ND_LEAF:
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


def _solve_refined(a: sp.spmatrix, b: np.ndarray,
                   coords: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``a x = b`` by one sparse LU plus one step of iterative refinement.

    The unknowns are the states whose count vectors are the rows of
    ``coords``; they are eliminated in nested-dissection order. ``b`` may
    hold several right-hand sides as columns. Returns the solution and the
    number of nonzeros stored for L and U.
    """
    perm = _nested_dissection(coords)
    ap = a.tocsr()[perm][:, perm].tocsc()
    bp = b[perm]
    lu = spla.splu(ap, permc_spec="NATURAL")
    y = lu.solve(bp)
    y -= lu.solve(ap @ y - bp)
    x = np.empty_like(y)
    x[perm] = y
    return x, int(lu.nnz)


def stationary_exact(spec: WalkSpec, params: ProcessParams,
                     cap: int = DEFAULT_CAP, tol: float = STATIONARY_TOL) -> Distribution:
    """Stationary distribution by sparse direct solve of the balance system.

    One balance row of the transposed generator is replaced by a pin on a
    reference state (the heaviest metastable state by the walk measure, so
    the solution stays well scaled), keeping the system fully sparse; the
    result is renormalized afterwards. Raises ``SolverFailure`` if it misses
    the residual target ``tol * max|Q|``. The returned distribution records
    the solve in ``solver``.
    """
    enum = enumerate_states(spec.kappa, params.n, cap=cap)
    q = build_generator(spec, params, enum)
    n = enum.size
    ref = enum.xi_index(int(np.argmax(analyze_walk(spec).m)))
    # q^T in CSR is q in CSC; its row ref becomes the pin
    qt = q.tocsc()
    lo, hi = qt.indptr[ref], qt.indptr[ref + 1]
    indptr = qt.indptr.copy()
    indptr[ref + 1:] -= hi - lo - 1
    a = sp.csr_matrix((np.concatenate((qt.data[:lo], [1.0], qt.data[hi:])),
                       np.concatenate((qt.indices[:lo], [ref], qt.indices[hi:])),
                       indptr), shape=(n, n))
    b = np.zeros(n)
    b[ref] = 1.0
    scale = float(np.abs(q.data).max())
    bound = tol * scale

    mu, lu_nnz = _solve_refined(a, b, enum.counts_matrix())
    residual = np.inf
    if mu.min() >= -1e-9 * max(mu.max(), 1.0):
        mu = np.clip(mu, 0.0, None)
        mu /= mu.sum()
        residual = float(np.abs(mu @ q).max())
    if residual > bound:
        raise SolverFailure(
            f"stationary residual {residual:.3e} > {tol:.1e} * {scale:.3e}")
    return Distribution(enum, mu, normalized=True,
                        solver=SolverReport("lu", residual, bound, lu_nnz))


def stationary_closed_form(spec: WalkSpec, params: ProcessParams,
                           cap: int = DEFAULT_CAP) -> Distribution:
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
    enum = enumerate_states(spec.kappa, params.n, cap=cap)
    counts = enum.counts_matrix()
    logw = log_weight_table(params.n, params.d)
    log_site_ratio = np.log(analysis.m / analysis.m_star)
    logs = logw[counts].sum(axis=1) + counts @ log_site_ratio
    shift = logs.max()
    unnorm = np.exp(logs - shift)
    total = unnorm.sum()
    log_norm = float(shift + np.log(total))
    return Distribution(enum, unnorm / total, normalized=True, log_norm=log_norm)


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


def _hitting_matrix(enum: StateEnumeration, rates: sp.csr_matrix,
                    a_set: tuple[int, ...], tol: float) -> tuple[np.ndarray, SolverReport]:
    """Hitting probabilities of every metastable state of ``a_set`` at once.

    Column j holds, per starting state, the probability of reaching
    xi^{a_set[j]} before any other metastable state of ``a_set``. The
    interior system ``I - P_ii`` does not depend on the target, so it is
    built and factored once and the ``|A|`` boundary columns are solved
    together; every column's residual is checked against ``tol``.
    """
    xi = np.asarray([enum.xi_index(x) for x in a_set], dtype=np.int64)
    interior = np.setdiff1d(np.arange(enum.size), xi)
    h = np.zeros((enum.size, len(a_set)))
    h[xi, np.arange(len(a_set))] = 1.0
    if interior.size == 0:
        # every state is metastable (N = 1, A = all sites): nothing to solve
        return h, SolverReport("lu", 0.0, tol, 0)

    rates_i = rates[interior]
    holding = np.asarray(rates_i.sum(axis=1)).ravel()
    stuck = holding < 1.0 / np.finfo(float).max     # 1 / holding overflows
    if stuck.any():
        raise OutOfRange(f"{int(stuck.sum())} states off the target set have a "
                         "holding rate too small to invert (d_N too small)")
    p_i = sp.diags(1.0 / holding) @ rates_i
    a_mat = (sp.eye(interior.size) - p_i[:, interior]).tocsc()
    b = p_i[:, xi].toarray()
    h_int, lu_nnz = _solve_refined(a_mat, b, enum.counts_matrix()[interior])
    residual = float(np.abs(a_mat @ h_int - b).max())
    if residual > tol:
        raise SolverFailure(f"hitting-probability residual {residual:.3e} > {tol:.1e}")

    h[interior] = np.clip(h_int, 0.0, 1.0)
    return h, SolverReport("lu", residual, tol, lu_nnz)


def hitting_probabilities(spec: WalkSpec, params: ProcessParams, a_set, y: int,
                          cap: int = DEFAULT_CAP,
                          tol: float = HITTING_TOL) -> tuple[np.ndarray, StateEnumeration]:
    """Probability, per starting state, of reaching all-particles-at-y before
    any other all-particles-at-z with z in the target set.

    Solves the first-step system with boundary values 1 at xi^y and 0 at the
    other metastable states of ``a_set``; returns the full state-indexed
    vector and the enumeration.
    """
    a_set = site_set(a_set, spec.kappa)
    if y not in a_set:
        raise OutOfRange(f"site {y} not in target set {a_set}")
    enum = enumerate_states(spec.kappa, params.n, cap=cap)
    h, _ = _hitting_matrix(enum, build_rate_matrix(spec, params, enum), a_set, tol)
    return h[:, a_set.index(y)].copy(), enum


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


def mean_jump_rate_exact(spec: WalkSpec, params: ProcessParams, a_set,
                         cap: int = DEFAULT_CAP) -> TraceRateMatrix:
    """Exact trace-process mean-jump rates between metastable states.

    Uses the first-step decomposition: the rate from xi^x to xi^y equals
    ``sum_z N d r(x, z) * h(one particle moved from x to z)`` where h is the
    exact probability of reaching xi^y before the rest of the metastable set.
    """
    a_set = site_set(a_set, spec.kappa)
    n, d = params.n, params.d
    if n < 2:
        raise OutOfRange(f"trace rates need N >= 2, got N = {n}")
    enum = enumerate_states(spec.kappa, params.n, cap=cap)
    rates = build_rate_matrix(spec, params, enum)
    h, solver = _hitting_matrix(enum, rates, a_set, HITTING_TOL)
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
    if x not in r_set:
        raise OutOfRange(f"site {x} not in R {r_set}")
    # only the tube mask is needed; the occupancy threshold is irrelevant here
    reg = RegionSpec(spec, enum, r_set, eps=0.1, validate_eps=False)
    counts = enum.counts_matrix()
    tube = reg.tube
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


def flow(spec: WalkSpec, params: ProcessParams, mu: Distribution,
         r_set, x: int, k: int) -> tuple[float, float]:
    """Flow pair (up, down) across level k -> k+1 of the slice at site x."""
    n = mu.enum.n
    if not 0 <= k <= n - 1:
        raise OutOfRange(f"k={k} outside [0, {n - 1}]")
    up, down = flow_profile(spec, params, mu, r_set, x)
    return float(up[k]), float(down[k])


def m_function(mu: Distribution, r_set) -> np.ndarray:
    """State-indexed values ``mu(eta) * prod_{x in R} eta_x``."""
    r_set = site_set(r_set, mu.enum.kappa)
    counts = mu.enum.counts_matrix()
    prod = counts[:, list(r_set)].astype(float).prod(axis=1)
    return mu.weights * prod


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
    if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral)):
        raise OutOfRange(f"n and k must be integers, got n={n!r}, k={k!r}")
    if not (1 <= k <= n):
        raise OutOfRange(f"need n >= k >= 1, got n={n}, k={k}")
    if n > RECIPROCAL_N_MAX or k > RECIPROCAL_K_MAX:
        raise OutOfRange(
            f"supported range is n <= {RECIPROCAL_N_MAX}, k <= {RECIPROCAL_K_MAX}")
    if n <= EXACT_RATIONAL_LIMIT:
        value = Fraction(factorial(k) * _stirling_first(n, k)[k][n], factorial(n))
    else:
        value = reciprocal_sum_table(n, k, exact=False)[k][n]
    bound = (3.0 * log(n + 1.0)) ** (k - 1) / n
    return ReciprocalSum(n=n, k=k, value=value, bound=bound,
                         within_bound=reciprocal_bound_holds(value, n, k))
