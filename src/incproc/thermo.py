"""Inclusion process on a growing discrete torus: regimes, rates, condensate motion.

A translation-invariant kernel h on Z^d drives the walk; with density
rho = N / L^d fixed, the condensate moves ballistically (velocity rho * v) in
the totally asymmetric regime, diffusively with matrix S1 in the mean-zero
asymmetric regime, and diffusively with matrix S2 on the much longer L^2/d_L
scale in the symmetric regime.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (NonSpanningSupport, OutOfRange, SupportTooLarge,
                     TooFewRelocations)
from .exact import reciprocal_sum_table
from .gordan import _bareiss
from .model import WalkSpec, log_weight_table
from .simulate import (Trajectory, _Blocks, _events, _map_replicas,
                       _StateCache, replica_rng)

REGIMES = ("totally_asym", "mean_zero_asym", "symmetric")
_V_TOL = 1e-12


def _canonical_kernel(d: int, kernel: Mapping) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for key, weight in kernel.items():
        offset = (int(key),) if isinstance(key, (int, np.integer)) else tuple(int(v) for v in key)
        if len(offset) != d:
            raise OutOfRange(f"offset {offset} has dimension {len(offset)}, expected {d}")
        w = float(weight)
        if w < 0:
            raise OutOfRange(f"negative kernel weight at {offset}")
        if w == 0:
            continue
        if all(v == 0 for v in offset):
            raise OutOfRange("kernel weight at the origin must be zero")
        out[offset] = out.get(offset, 0.0) + w
    if not out:
        raise OutOfRange("kernel has empty support")
    return out


def _spans_lattice(offsets: Sequence[tuple[int, ...]], d: int) -> bool:
    """The subgroup generated by the offsets is all of Z^d iff the gcd of the
    d x d minors of the offset matrix is 1."""
    rows = [list(o) for o in offsets]
    if len(rows) < d:
        return False
    g = 0
    for subset in combinations(rows, d):
        minor = [list(r) for r in subset]
        g = math.gcd(g, minor[-1][-1] if _bareiss(minor, d) else 0)
        if g == 1:
            return True
    return False


@dataclass(frozen=True)
class TorusSpec:
    """Inclusion process on the d-dimensional torus of side L.

    ``kernel`` maps integer offsets to jump weights; ``n`` is the particle
    count ``round(rho * L**d)``. ``theta`` is the regime time scale:
    1/(d_L L^{d-1}), 1/(d_L L^{d-2}), or L^2/d_L.
    """

    d: int
    side: int
    kernel: dict[tuple[int, ...], float]
    rho: float
    d_l: float
    support_radius: int
    n: int
    regime: str
    v: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta: float

    @property
    def n_sites(self) -> int:
        return self.side ** self.d

    def h(self, offset: tuple[int, ...]) -> float:
        return self.kernel.get(tuple(offset), 0.0)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def build_torus(d: int, side: int, kernel: Mapping, rho: float, d_l: float) -> TorusSpec:
    """Validate and derive a torus model: regime, velocity, diffusion matrices."""
    if d < 1:
        raise OutOfRange("dimension must be >= 1")
    if not isinstance(side, numbers.Integral):
        raise OutOfRange(f"side must be an integer, got {side!r}")
    if rho <= 0:
        raise OutOfRange("density must be positive")
    if not d_l > 0:
        raise OutOfRange("d_L must be positive")
    kern = _canonical_kernel(d, kernel)
    radius = max(max(abs(v) for v in off) for off in kern)
    if side <= 2 * radius:
        raise SupportTooLarge(f"side {side} <= 2 * support radius {radius}")
    if not _spans_lattice(list(kern), d):
        raise NonSpanningSupport("kernel support does not generate the lattice")

    v = np.zeros(d)
    for off, w in kern.items():
        v += w * np.asarray(off, dtype=float)
    symmetric = all(abs(w - kern.get(tuple(-x for x in off), 0.0)) <= _V_TOL
                    for off, w in kern.items())
    if np.abs(v).max() > _V_TOL:
        regime = "totally_asym"
    elif not symmetric:
        regime = "mean_zero_asym"
    else:
        regime = "symmetric"

    s1 = np.zeros((d, d))
    for off, w in kern.items():
        back = kern.get(tuple(-x for x in off), 0.0)
        if w > back:
            y = np.asarray(off, dtype=float)
            s1 += (w - back) * np.outer(y, y)
    s1 *= rho
    s2 = np.zeros((d, d))
    for off, w in kern.items():
        y = np.asarray(off, dtype=float)
        s2 += w * np.outer(y, y)

    n = int(round(rho * side ** d))
    if regime == "totally_asym":
        theta = 1.0 / (d_l * side ** (d - 1))
    elif regime == "mean_zero_asym":
        theta = 1.0 / (d_l * side ** (d - 2))
    else:
        theta = side ** 2 / d_l

    return TorusSpec(d=d, side=side, kernel=kern, rho=rho, d_l=d_l,
                     support_radius=radius, n=n, regime=regime, v=v,
                     s1=s1, s2=s2, sigma1=_sqrt_psd(s1), sigma2=_sqrt_psd(s2),
                     theta=theta)


def torus_walk(spec: TorusSpec) -> WalkSpec:
    """The torus walk as an explicit site-set walk (small tori only)."""
    n_sites = spec.n_sites
    coords = _site_coords(spec)
    rates = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        for off, w in spec.kernel.items():
            j = _flat_index((coords[i] + np.asarray(off)) % spec.side, spec.side)
            rates[i, j] += w
    return WalkSpec.from_matrix(rates)


def _site_coords(spec: TorusSpec) -> np.ndarray:
    idx = np.arange(spec.n_sites)
    out = np.zeros((spec.n_sites, spec.d), dtype=np.int64)
    for axis in range(spec.d - 1, -1, -1):
        out[:, axis] = idx % spec.side
        idx = idx // spec.side
    return out


def _flat_index(coord: np.ndarray, side: int) -> int:
    flat = 0
    for v in coord:
        flat = flat * side + int(v) % side
    return flat


@dataclass(frozen=True)
class TorusRates:
    """Trace jump rates between neighboring condensate positions."""

    method: str
    rates: dict[tuple[int, ...], float]

    def total(self) -> float:
        return sum(self.rates.values())


def _tube_crossing_probability(n: int, d: float, fwd: float, bwd: float) -> float:
    """Absorption at the far end of the two-site channel from one particle in.

    Birth-death chain with up-rate (N-i)(d+i)*fwd and down-rate
    i(d+N-i)*bwd at level i; gambler's-ruin product form.
    """
    if fwd <= 0:
        return 0.0
    total = 1.0
    prod = 1.0
    for j in range(1, n):
        up = (n - j) * (d + j) * fwd
        down = j * (d + n - j) * bwd
        prod *= down / up
        total += prod
        if prod == 0.0:
            break
    return 1.0 / total


def torus_mean_rates(spec: TorusSpec, method: str = "formula") -> TorusRates:
    """Condensate jump-rate kernel by offset.

    ``formula`` uses the leading asymptotics: ``d_L N (h(y) - h(-y))`` on
    winning directions in the asymmetric regimes, ``d_L h(y)`` in the
    symmetric regime. ``tube`` computes the exact two-site-channel crossing
    probability and multiplies by the escape rate ``N d_L h(y)``.
    """
    if method not in ("formula", "tube"):
        raise OutOfRange(f"unknown method {method!r}")
    out: dict[tuple[int, ...], float] = {}
    n, d_l = spec.n, spec.d_l
    offsets = set(spec.kernel)
    offsets.update(tuple(-v for v in off) for off in spec.kernel)
    for off in sorted(offsets):
        h_fwd = spec.h(off)
        h_bwd = spec.h(tuple(-v for v in off))
        if method == "formula":
            if spec.regime == "symmetric":
                rate = d_l * h_fwd if h_fwd > 0 else 0.0
            else:
                rate = d_l * n * (h_fwd - h_bwd) if h_fwd > h_bwd else 0.0
        else:
            rate = n * d_l * h_fwd * _tube_crossing_probability(n, d_l, h_fwd, h_bwd)
        if rate > 0:
            out[off] = rate
    return TorusRates(method=method, rates=out)


def compare_rate_methods(spec: TorusSpec) -> dict[tuple[int, ...], tuple[float, float, float]]:
    """Per-offset (formula, tube, relative difference); difference is
    measured against the larger of the two."""
    formula = torus_mean_rates(spec, "formula").rates
    tube = torus_mean_rates(spec, "tube").rates
    report = {}
    for off in sorted(set(formula) | set(tube)):
        a = formula.get(off, 0.0)
        b = tube.get(off, 0.0)
        denom = max(abs(a), abs(b))
        report[off] = (a, b, abs(a - b) / denom if denom > 0 else 0.0)
    return report


@dataclass(frozen=True)
class SmoothFunction:
    """A torus function with gradient and Hessian evaluators."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def cosine_mode(freq: Sequence[int] | int) -> SmoothFunction:
    """cos(2 pi k . u) with exact derivatives."""
    k = np.atleast_1d(np.asarray(freq, dtype=float))
    two_pi_k = 2.0 * math.pi * k

    def value(u):
        return float(np.cos(two_pi_k @ np.atleast_1d(u)))

    def grad(u):
        return -np.sin(two_pi_k @ np.atleast_1d(u)) * two_pi_k

    def hess(u):
        return -np.cos(two_pi_k @ np.atleast_1d(u)) * np.outer(two_pi_k, two_pi_k)

    return SmoothFunction(value=value, grad=grad, hess=hess)


def linear_function(slope: Sequence[float] | float) -> SmoothFunction:
    """A lifted linear function (not periodic; useful for drift checks)."""
    a = np.atleast_1d(np.asarray(slope, dtype=float))
    return SmoothFunction(
        value=lambda u: float(a @ np.atleast_1d(u)),
        grad=lambda u: a.copy(),
        hess=lambda u: np.zeros((a.size, a.size)))


def limit_generator_apply(spec: TorusSpec, f: SmoothFunction, u) -> float:
    """Limiting generator of the rescaled condensate motion at point u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if spec.regime == "totally_asym":
        return float(spec.rho * spec.v @ f.grad(u))
    hess = f.hess(u)
    total = 0.0
    if spec.regime == "mean_zero_asym":
        for off, w in spec.kernel.items():
            back = spec.h(tuple(-v for v in off))
            if w > back:
                y = np.asarray(off, dtype=float)
                total += (w - back) * float(y @ hess @ y)
        return 0.5 * spec.rho * total
    for off, w in spec.kernel.items():
        y = np.asarray(off, dtype=float)
        total += w * float(y @ hess @ y)
    return 0.5 * total


def generator_gap(spec: TorusSpec, f: SmoothFunction, method: str = "formula") -> float:
    """Sup over lattice points of |rescaled discrete generator - limit|.

    The discrete generator applies the trace-rate kernel to f sampled at
    lattice points (lifted to R^d, which agrees with the torus for periodic
    f and keeps lifted linear functions exact).
    """
    rates = torus_mean_rates(spec, method).rates
    coords = _site_coords(spec)
    worst = 0.0
    for i in range(spec.n_sites):
        u = coords[i] / spec.side
        f_here = f.value(u)
        acc = 0.0
        for off, rate in rates.items():
            acc += rate * (f.value((coords[i] + np.asarray(off)) / spec.side) - f_here)
        gap = abs(spec.theta * acc - limit_generator_apply(spec, f, u))
        worst = max(worst, gap)
    return worst


@dataclass
class _CondensateAccumulator:
    """Streams condensate events: relocations, clocks, checkpoint positions."""

    spec: TorusSpec
    start_site: int
    checkpoints: np.ndarray          # trace-clock times, increasing

    def __post_init__(self):
        self.coords = _site_coords(self.spec)
        self.cur = self.start_site
        self.occupied = [self.start_site]    # insertion order fixes move order
        self.in_e = True
        self.disp = np.zeros(self.spec.d, dtype=np.int64)
        self.trace_time = 0.0
        self.off_time = 0.0
        self.relocations = 0
        self.ck = 0
        self.positions = np.zeros((len(self.checkpoints), self.spec.d))
        self.unwrap_consistent = True
        self._start_coord = self.coords[self.start_site].copy()

    def dwell(self, dt: float) -> None:
        if self.in_e:
            self.trace_time += dt
            while (self.ck < len(self.checkpoints)
                   and self.trace_time >= self.checkpoints[self.ck]):
                self.positions[self.ck] = self.disp
                self.ck += 1
        else:
            self.off_time += dt

    def moved(self, counts: list[int], x: int, y: int) -> None:
        """Follow the move ``x -> y``, already applied to ``counts``."""
        occupied = self.occupied
        if counts[x] == 0:
            occupied.remove(x)
        if counts[y] == 1:
            occupied.append(y)
        self.in_e = len(occupied) == 1
        if self.in_e:
            self.enter(occupied[0])

    def enter(self, site: int) -> None:
        if site == self.cur:
            return
        # minimal image; relocations stay within the kernel support radius,
        # which is below side/2, so the image is unique
        half = self.spec.side // 2
        delta = (self.coords[site] - self.coords[self.cur] + half) % self.spec.side - half
        self.disp += delta
        self.cur = site
        self.relocations += 1
        wrapped = (self._start_coord + self.disp) % self.spec.side
        if not np.array_equal(wrapped, self.coords[site]):
            self.unwrap_consistent = False

    def finish(self) -> None:
        while self.ck < len(self.checkpoints):
            self.positions[self.ck] = self.disp
            self.ck += 1

    @property
    def done(self) -> bool:
        return self.ck >= len(self.checkpoints)


@dataclass(frozen=True)
class CondensateRun:
    """One condensate trajectory's summary statistics."""

    relocations: int
    displacement: np.ndarray         # lattice units, unwrapped
    trace_time: float
    off_time: float
    positions: np.ndarray            # displacement at each trace checkpoint
    checkpoints: np.ndarray
    unwrap_consistent: bool

    @property
    def off_fraction(self) -> float:
        wall = self.trace_time + self.off_time
        return self.off_time / wall if wall > 0 else 0.0


def run_condensate(spec: TorusSpec, t_rescaled: float, seed: int,
                   stream: int = 0, n_checkpoints: int = 4,
                   start_site: int = 0) -> CondensateRun:
    """Stream one condensate run until the trace clock reaches
    ``t_rescaled * theta``; memory stays O(relocations)."""
    return _condensate_replica(
        (spec, t_rescaled, seed, stream, n_checkpoints, start_site), _StateCache())


def _condensate_replica(arg, cache: _StateCache) -> CondensateRun:
    """:func:`run_condensate` with a state cache shared with other runs."""
    spec, t_rescaled, seed, stream, n_checkpoints, start_site = arg
    if n_checkpoints < 1:
        raise OutOfRange(f"need at least one checkpoint, got {n_checkpoints}")
    horizon = spec.theta * t_rescaled
    checkpoints = horizon * (np.arange(1, n_checkpoints + 1) / n_checkpoints)
    acc = _CondensateAccumulator(spec=spec, start_site=start_site,
                                 checkpoints=checkpoints)
    side = spec.side
    out = [[(_flat_index(acc.coords[x] + np.asarray(off), side), w)
            for off, w in spec.kernel.items()] for x in range(spec.n_sites)]
    counts = [0] * spec.n_sites
    counts[start_site] = spec.n
    events = _events(counts, acc.occupied, out, spec.d_l,
                     _Blocks(replica_rng(seed, stream)), cache)
    for dt, x, y in events:
        acc.dwell(dt)
        if acc.done:
            break
        acc.moved(counts, x, y)
    acc.finish()
    return CondensateRun(relocations=acc.relocations,
                         displacement=acc.disp.astype(float),
                         trace_time=acc.trace_time, off_time=acc.off_time,
                         positions=acc.positions, checkpoints=checkpoints,
                         unwrap_consistent=acc.unwrap_consistent)


@dataclass(frozen=True)
class CondensateStats:
    """Rescaled drift, diffusion, and off-set occupation of one trajectory."""

    drift: np.ndarray
    diffusion: np.ndarray
    off_fraction: float
    relocations: int
    trace_time_rescaled: float


def condensate_statistics(traj: Trajectory, spec: TorusSpec,
                          min_relocations: int = 100,
                          n_windows: int = 20) -> CondensateStats:
    """Post-process a full trajectory on the torus into condensate statistics.

    Space is rescaled by 1/L and time by theta; the diffusion matrix comes
    from increments over equal trace-time windows. Use the streaming
    :func:`run_condensate` for horizons too long to store events.
    """
    counts = list(traj.initial)
    if len(counts) != spec.n_sites or sum(counts) != spec.n:
        raise OutOfRange("trajectory does not match the torus spec")
    occ = [x for x in range(spec.n_sites) if counts[x] > 0]
    if len(occ) != 1:
        raise OutOfRange("trajectory must start from a condensate state")
    start = occ[0]
    windows = np.linspace(0.0, traj.horizon, n_windows + 1)[1:]
    acc = _CondensateAccumulator(spec=spec, start_site=start, checkpoints=windows)
    t_prev = 0.0
    for t, x, y in zip(traj.times.tolist(), traj.move_from.tolist(),
                       traj.move_to.tolist()):
        acc.dwell(t - t_prev)
        t_prev = t
        counts[x] -= 1
        counts[y] += 1
        acc.moved(counts, x, y)
    acc.dwell(traj.horizon - t_prev)
    filled = acc.ck  # windows actually crossed by the trace clock
    acc.finish()
    if acc.relocations < min_relocations:
        raise TooFewRelocations(
            f"{acc.relocations} relocations < required {min_relocations}")
    t_resc = acc.trace_time / spec.theta
    drift = (acc.disp / spec.side) / t_resc if t_resc > 0 else np.zeros(spec.d)
    pos = acc.positions[:max(filled, 1)] / spec.side
    incs = np.diff(np.vstack([np.zeros(spec.d), pos]), axis=0)
    dt_resc = (windows[1] - windows[0]) / spec.theta if len(windows) > 1 else t_resc
    centered = incs - incs.mean(axis=0)
    diffusion = centered.T @ centered / (len(incs) * dt_resc)
    wall = acc.trace_time + acc.off_time
    return CondensateStats(drift=drift, diffusion=np.atleast_2d(diffusion),
                           off_fraction=acc.off_time / wall if wall else 0.0,
                           relocations=acc.relocations,
                           trace_time_rescaled=t_resc)


@dataclass(frozen=True)
class DriftEstimate:
    drift: np.ndarray
    stderr: np.ndarray
    off_fraction: float
    relocations_min: int
    per_replica: np.ndarray


def measure_drift(spec: TorusSpec, t_rescaled: float, seed: int,
                  replicas: int = 1, min_relocations: int = 100,
                  threads: int = 1) -> DriftEstimate:
    """Rescaled drift of the condensate over independent streamed runs."""
    if replicas < 1:
        raise OutOfRange(f"need at least one replica, got {replicas}")
    drifts = np.zeros((replicas, spec.d))
    offs = np.zeros(replicas)
    relocs = np.zeros(replicas, dtype=int)
    runs = _map_replicas(_condensate_replica,
                         [(spec, t_rescaled, seed, i, 4, 0) for i in range(replicas)],
                         threads)
    for i, run in enumerate(runs):
        t_resc = run.trace_time / spec.theta
        drifts[i] = (run.displacement / spec.side) / t_resc
        offs[i] = run.off_fraction
        relocs[i] = run.relocations
    if relocs.min() < min_relocations:
        raise TooFewRelocations(
            f"minimum replica relocations {relocs.min()} < {min_relocations}")
    stderr = (drifts.std(axis=0, ddof=1) / math.sqrt(replicas)
              if replicas > 1 else np.full(spec.d, float("nan")))
    return DriftEstimate(drift=drifts.mean(axis=0), stderr=stderr,
                         off_fraction=float(offs.mean()),
                         relocations_min=int(relocs.min()),
                         per_replica=drifts)


@dataclass(frozen=True)
class DiffusionEstimate:
    msd_slope: float
    drift: np.ndarray
    drift_stderr: np.ndarray
    covariance: np.ndarray
    off_fraction: float
    checkpoints: np.ndarray
    msd: np.ndarray
    total_relocations: int


def measure_diffusion(spec: TorusSpec, t_rescaled: float, replicas: int,
                      seed: int, n_checkpoints: int = 4,
                      threads: int = 1) -> DiffusionEstimate:
    """Mean-squared displacement across replicas with a through-origin slope.

    Positions are sampled on the trace clock at equally spaced rescaled
    times; the covariance estimate uses final displacements.
    """
    if replicas < 1:
        raise OutOfRange(f"need at least one replica, got {replicas}")
    ck_resc = t_rescaled * (np.arange(1, n_checkpoints + 1) / n_checkpoints)
    sq = np.zeros(n_checkpoints)
    finals = np.zeros((replicas, spec.d))
    offs = np.zeros(replicas)
    total_reloc = 0
    runs = _map_replicas(
        _condensate_replica,
        [(spec, t_rescaled, seed, i, n_checkpoints, 0) for i in range(replicas)],
        threads)
    for i, run in enumerate(runs):
        pos = run.positions / spec.side
        sq += (pos ** 2).sum(axis=1)
        finals[i] = pos[-1]
        offs[i] = run.off_fraction
        total_reloc += run.relocations
    msd = sq / replicas
    slope = float((msd @ ck_resc) / (ck_resc @ ck_resc))
    drift = finals.mean(axis=0) / t_rescaled
    stderr = finals.std(axis=0, ddof=1) / math.sqrt(replicas) / t_rescaled
    cov = (finals - finals.mean(axis=0)).T @ (finals - finals.mean(axis=0))
    cov = np.atleast_2d(cov / (replicas * t_rescaled))
    return DiffusionEstimate(msd_slope=slope, drift=drift, drift_stderr=stderr,
                             covariance=cov, off_fraction=float(offs.mean()),
                             checkpoints=ck_resc, msd=msd,
                             total_relocations=total_reloc)


@dataclass(frozen=True)
class CondensationReport:
    """Stationary condensate mass on the torus with closed-form cross-checks."""

    e_mass: float
    per_site_mass: float
    log_partition: float
    w_ratio_max_dev: float          # max_k |w(k) k / d_L - 1| over k <= L
    remainder_bound: float          # partial multi-site-mass bound
    remainder_bound_terms: int
    bound_holds: bool


def torus_condensation(spec: TorusSpec, bound_terms: int = 8) -> CondensationReport:
    """Exact condensate mass from the product-form stationary measure.

    The torus walk is translation invariant, so the product form always
    applies. The single-site weights are the Taylor coefficients of
    ``(1-z)^(-d_L)``, so the partition value, the coefficient of ``z^N`` in
    their ``L^d``-th power, is ``Gamma(N + M) / (N! Gamma(M))`` with
    ``M = d_L L^d``: the single-site weight ``w(N)`` at parameter M. It is
    taken from :func:`incproc.model.log_weight_table` (O(N)), because the
    three lgamma terms of that closed form, each of order N log N, cancel to
    a value of order 1 and lose about 10x more digits. The multi-occupancy
    remainder is cross-checked against the reciprocal-sum bound.
    """
    n, d_l = spec.n, spec.d_l
    sites = spec.n_sites
    logw = log_weight_table(n, d_l)
    log_z = float(log_weight_table(n, d_l * sites)[n])
    log_e_mass = math.log(sites) + logw[n] - log_z
    e_mass = math.exp(log_e_mass)

    ks = np.arange(1, min(spec.side, n) + 1)
    w_vals = np.exp(logw[ks])
    w_dev = float(np.abs(w_vals * ks / d_l - 1.0).max())

    terms = min(bound_terms, n, sites)
    table = reciprocal_sum_table(n, max(terms, 1), exact=False)
    bound = 0.0
    for i in range(2, terms + 1):
        log_choose = (math.lgamma(sites + 1) - math.lgamma(i + 1)
                      - math.lgamma(sites - i + 1))
        bound += math.exp(i * math.log(2 * d_l) + math.log(table[i][n])
                          + log_choose - log_z)
    return CondensationReport(
        e_mass=e_mass, per_site_mass=e_mass / sites, log_partition=log_z,
        w_ratio_max_dev=w_dev, remainder_bound=bound,
        remainder_bound_terms=terms, bound_holds=bool(1.0 - e_mass <= bound))
