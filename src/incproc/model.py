"""Underlying random walk, particle configurations, and inclusion-process kinetics.

The model is an interacting particle system on a finite site set: a particle
at site x jumps to y at rate ``eta_x * (d + eta_y) * r(x, y)``, the sum of an
attractive term ``eta_x * eta_y * r`` and a diffusive term ``d * eta_x * r``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import IncprocError, NonIrreducibleWalk, OutOfRange, SolverFailure

MAX_SITES = 64

_FLAG_TOL = 1e-12


def _add_in_order(total: float, terms) -> float:
    """``total + terms[0] + terms[1] + ...``, added left to right (from
    Python 3.12 the builtin ``sum`` compensates float sums)."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def is_integer(value) -> bool:
    """``value`` is an integer and not a bool."""
    # an int passes without the slower abstract-class check
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def integer(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int, once checked to be an integer (not a bool) of at
    least ``low`` and, unless ``high`` is None, at most ``high``; else
    ``OutOfRange`` naming ``name``."""
    if not (is_integer(value) and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise OutOfRange(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def finite_real(value) -> bool:
    """``value`` is a finite real number and not a bool; an integer or a
    fraction beyond the float range is not finite."""
    try:
        return ((type(value) is float or isinstance(value, numbers.Real)
                 and not isinstance(value, bool)) and math.isfinite(value))
    except OverflowError:
        return False


def real(value, name: str, above: float | None = None, at_least: float | None = None,
         at_most: float | None = None) -> float:
    """``value`` as a float, once checked to be a finite real (not a bool)
    above ``above``, at least ``at_least`` and at most ``at_most``, each
    bound where given; else ``OutOfRange`` naming ``name``."""
    if not (finite_real(value) and (above is None or value > above)
            and (at_least is None or value >= at_least)
            and (at_most is None or value <= at_most)):
        bounds = [f"{op} {b}" for op, b in ((">", above), (">=", at_least), ("<=", at_most))
                  if b is not None]
        raise OutOfRange(f"{name} must be a finite real{' ' if bounds else ''}"
                         f"{' and '.join(bounds)}, got {value!r}")
    return float(value)


def check_site(x, sites, name: str) -> int:
    """``x`` as an int, once checked to be an integer (not a bool) in ``sites``."""
    if not is_integer(x) or x not in sites:
        raise OutOfRange(f"site {x!r} not in {name}")
    return int(x)


def instance(value, cls: type, name: str):
    """``value``, once checked to be a ``cls``; else ``OutOfRange`` naming
    ``name``."""
    if not isinstance(value, cls):
        raise OutOfRange(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def site_set(sites, kappa: int) -> tuple[int, ...]:
    """Sorted distinct site indices of a nonempty set inside ``0..kappa-1``;
    a range or a 1-D integer array is checked at its two ends once sorted."""
    within, name = range(kappa), f"0..{kappa - 1}"
    if isinstance(sites, range) or (isinstance(sites, np.ndarray) and sites.ndim == 1
                                    and sites.dtype.kind in "iu"):
        out = tuple(sorted(sites) if isinstance(sites, range) else np.unique(sites).tolist())
        for x in out[:1] + out[-1:]:
            check_site(x, within, name)
    else:
        try:
            out = tuple(sorted({check_site(x, within, name) for x in sites}))
        except TypeError:   # not iterable
            raise OutOfRange(f"a site set must be an iterable of sites, got {sites!r}") from None
    if not out:
        raise OutOfRange("site set must be nonempty")
    return out


@dataclass(frozen=True)
class WalkSpec:
    """An irreducible continuous-time random walk on a finite label set.

    Parameters
    ----------
    sites : tuple of str
        External site labels; internally sites are indices ``0..kappa-1``.
    rates : ndarray, shape (kappa, kappa)
        Nonnegative jump rates with zero diagonal, units 1/time.
    """

    sites: tuple[str, ...]
    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", r)
        if not isinstance(self.sites, Sequence):
            raise OutOfRange(f"sites must be a sequence of labels, got {self.sites!r}")
        kappa = len(self.sites)
        if kappa < 2:
            raise OutOfRange("need at least 2 sites")
        if kappa > MAX_SITES:
            raise OutOfRange(f"at most {MAX_SITES} sites supported")
        if r.shape != (kappa, kappa):
            raise OutOfRange(f"rate matrix shape {r.shape} != ({kappa}, {kappa})")
        if not np.isfinite(r).all():
            raise OutOfRange("rates must be finite")
        if (r < 0).any():
            raise OutOfRange("rates must be nonnegative")
        if np.diagonal(r).any():
            raise OutOfRange("rate matrix diagonal must be zero")
        if connected_components(r > 0, connection="strong")[0] != 1:
            raise NonIrreducibleWalk("rate graph is not strongly connected")
        r.setflags(write=False)

    @property
    def kappa(self) -> int:
        return len(self.sites)

    @property
    def holding(self) -> np.ndarray:
        """Per-site holding rates ``lambda(x) = sum_y r(x, y)``."""
        return self.rates.sum(axis=1)

    @classmethod
    def from_matrix(cls, rates, sites: Sequence[str] | None = None) -> "WalkSpec":
        """The walk of the square rate matrix ``rates``, with the labels
        ``sites`` (``"0"``, ``"1"``, ... by default)."""
        try:
            r = np.asarray(rates, dtype=float)
        except (TypeError, ValueError) as exc:
            raise OutOfRange(f"rates must be a numeric matrix: {exc}") from None
        if r.ndim != 2:
            raise OutOfRange(f"rates must be a matrix, got shape {r.shape}")
        if sites is None:
            sites = tuple(str(i) for i in range(r.shape[0]))
        return cls(tuple(str(s) for s in sites), r)

    @classmethod
    def cycle(cls, kappa: int, p: float) -> "WalkSpec":
        """Directed cycle: rate ``p`` to x+1 and ``1-p`` to x-1, for an
        integer ``kappa`` of 2 to ``MAX_SITES`` sites and a real ``p`` in
        [0, 1]."""
        integer(kappa, "kappa", 2, MAX_SITES)
        real(p, "p", at_least=0, at_most=1)
        r = np.zeros((kappa, kappa))
        for x in range(kappa):
            r[x, (x + 1) % kappa] += p
            r[x, (x - 1) % kappa] += 1.0 - p
        return cls.from_matrix(r)

    @classmethod
    def from_json(cls, doc: str | Mapping) -> "WalkSpec":
        try:
            data = json.loads(doc) if isinstance(doc, str) else doc
        except json.JSONDecodeError as exc:
            raise OutOfRange(f"walk document is not JSON: {exc}") from None
        if not isinstance(data, Mapping):
            raise OutOfRange(f"walk document must be an object, got {data!r}")
        unknown = set(data) - {"sites", "rates"}
        if unknown:
            raise OutOfRange(f"unknown keys in walk document: {sorted(unknown)}")
        if "sites" not in data or "rates" not in data:
            raise OutOfRange("walk document needs 'sites' and 'rates'")
        if not isinstance(data["sites"], (list, tuple)):
            raise OutOfRange(f"walk document 'sites' must be a list, got {data['sites']!r}")
        sites = tuple(str(s) for s in data["sites"])
        try:
            rates = np.asarray(data["rates"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise OutOfRange(f"walk document 'rates' must be a numeric matrix: {exc}") from None
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1] or rates.shape[0] != len(sites):
            raise OutOfRange("rate matrix shape does not match the site list")
        return cls(sites, rates)


@dataclass(frozen=True)
class WalkAnalysis:
    """Derived quantities of a walk: invariant measure, constants, flags.

    ``q_pair[x, y]`` is ``min(r(x,y), r(y,x)) / max(r(x,y), r(y,x))`` for
    interacting pairs and NaN elsewhere; ``q`` is its maximum over pairs with
    unequal rates (0 when every interacting pair is symmetric, the tightest
    consistent choice since q only feeds error bounds).
    """

    m: np.ndarray
    m_star: float
    s_max: tuple[int, ...]
    r1: float
    r2: float
    lam: float
    q_pair: np.ndarray
    q: float
    rev: bool
    ui: bool
    up: bool


def _reaching(rates: np.ndarray, first: Sequence[int]) -> list[int]:
    """``first``, then the states that reach it along positive off-diagonal
    ``rates``, by the fewest jumps they take, then by index."""
    edge = rates > 0.0
    order = list(first)
    seen = np.zeros(rates.shape[0], dtype=bool)
    seen[order] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = (edge @ frontier) & ~seen    # a boolean product: one jump back
        seen |= frontier
        order += np.flatnonzero(frontier).tolist()
    return order


def _gth(rates: np.ndarray, keep: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """Grassmann-Taksar-Heyman elimination (Oper. Res. 33 (1985)) onto the
    states ``keep`` of the chain with off-diagonal rates ``rates``; the
    diagonal is never read.

    The states are put in :func:`_reaching` order and eliminated last
    first (:func:`_eliminate`). Raises ``SolverFailure`` if a state reaches
    none of ``keep`` along rates above zero, which in floats means its
    rates underflowed. Returns the order and the rates in it: the leading
    block holds the trace chain on ``keep``, in the order given, off its
    diagonal, and row and column k the rates at k's elimination.
    """
    order = _reaching(rates, keep)
    if len(order) < rates.shape[0]:
        lost = sorted(set(range(rates.shape[0])) - set(order))
        raise SolverFailure(f"states {lost} reach none of {list(keep)} at rates above "
                            "zero: their rates underflow")
    return order, _eliminate(rates, order, len(keep))


def _eliminate(rates: np.ndarray, order: list[int], kept: int) -> np.ndarray:
    """``rates`` in ``order``, with the states after the first ``kept``
    eliminated last first. Eliminating k adds the flow through k,
    ``q[i, k] q[k, j] / s_k``, to each rate i -> j of the states before it,
    where ``s_k`` is k's rate to them summed: nothing is subtracted, so
    positive rates stay positive however small, and ``s_k`` is at least k's
    rate to the state before it that it reaches the first ``kept`` through.
    """
    q = np.array(rates, dtype=float)[np.ix_(order, order)]
    for k in range(q.shape[0] - 1, kept - 1, -1):
        q[:k, :k] += np.outer(q[:k, k], q[k, :k] / q[k, :k].sum())
    return q


def _gth_stationary(rates: np.ndarray) -> np.ndarray:
    """The stationary law of the chain with off-diagonal rates ``rates``:
    :func:`_eliminate` down to the first state that every state reaches,
    then back, ``pi_k = sum_{i<k} pi_i q[i, k] / s_k``, which is
    subtraction-free too. Raises ``SolverFailure`` if no state is reached
    from every other, or if the shares span more than the float range."""
    n = rates.shape[0]
    for root in range(n):
        order = _reaching(rates, [root])
        if len(order) == n:
            break
    else:
        raise SolverFailure("no state is reached from every other at rates above zero: "
                            "the rates underflow")
    q = _eliminate(rates, order, 1)
    pi = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):      # judged below
        for k in range(1, n):
            pi[k] = pi[:k] @ q[:k, k] / q[k, :k].sum()
        total = pi.sum()
    if not np.isfinite(total):
        raise SolverFailure("the stationary shares span more than the float range")
    law = np.empty(n)
    law[order] = pi / total
    return law


def _normal_stationary(rates: np.ndarray, refuse: type[IncprocError]) -> np.ndarray:
    """:func:`_gth_stationary` of the small chain with off-diagonal rates
    ``rates``, its rates below the smallest normal float taken as zero, as
    the exact solves take a subnormal holding rate. Raises ``refuse``
    unless the chain is irreducible on the rates left and every share is
    positive in floats; the message names the subnormal rates."""
    normal = rates >= np.finfo(float).tiny
    try:
        law = _gth_stationary(np.where(normal, rates, 0.0))
    except SolverFailure as exc:
        why = str(exc)
    else:
        if law.all():
            return law
        why = f"states {np.flatnonzero(law == 0.0).tolist()} get a stationary share of zero"
    tiny = [(int(x), int(y)) for x, y in np.argwhere((rates > 0.0) & ~normal)]
    raise refuse(why + (f"; the {len(tiny)} subnormal rates, at {tiny}, count as zero"
                        if tiny else ""))


def analyze_walk(spec: WalkSpec) -> WalkAnalysis:
    """Find the walk's invariant measure by GTH elimination and derive its
    constants. Raises ``NonIrreducibleWalk`` unless the walk is irreducible
    on its rates of at least the smallest normal float, or if the measure
    misses the residual bound ``1e-10 * max(1, max r)``; ``OutOfRange``
    refuses a ``spec`` that is not a :class:`WalkSpec`."""
    instance(spec, WalkSpec, "spec")
    r = spec.rates
    kappa = spec.kappa
    m = _normal_stationary(r, NonIrreducibleWalk)
    with np.errstate(invalid="ignore", over="ignore"):     # judged by the check below
        residual = np.abs(m @ (r - np.diag(spec.holding))).max()
    # a nan residual fails too
    if not residual <= 1e-10 * max(1.0, np.abs(r).max()):
        raise NonIrreducibleWalk(f"stationary solve residual {residual:.2e}")

    m_star = float(m.max())
    s_max = tuple(int(i) for i in np.nonzero(m >= m_star - _FLAG_TOL)[0])
    positive = r[r > 0]
    r1 = float(positive.min())
    r2 = float(r.max())
    lam = float(spec.holding.max())

    hi = np.maximum(r, r.T)
    pair = (hi > 0) & ~np.eye(kappa, dtype=bool)
    q_pair = np.full((kappa, kappa), np.nan)
    q_pair[pair] = np.minimum(r, r.T)[pair] / hi[pair]
    unequal = pair & (r != r.T)
    q = float(q_pair[unequal].max()) if unequal.any() else 0.0

    flux = m[:, None] * r
    rev = not (np.abs(flux - flux.T) > _FLAG_TOL).any()
    ui = bool(np.abs(m - 1.0 / kappa).max() <= _FLAG_TOL)
    off_diag = r[~np.eye(kappa, dtype=bool)]
    up = bool(off_diag.min() > 0)

    return WalkAnalysis(
        m=m, m_star=m_star, s_max=s_max, r1=r1, r2=r2, lam=lam,
        q_pair=q_pair, q=q, rev=rev, ui=ui, up=up,
    )


@dataclass(frozen=True)
class ProcessParams:
    """Particle count N and diffusion parameter d_N for one system size."""

    n: int
    d: float

    def __post_init__(self):
        integer(self.n, "N", 1)
        real(self.d, "d_N", above=0)


def schedule_power(coeff: float, exponent: float) -> Callable[[int], float]:
    """Deterministic schedule N -> coeff * N**(-exponent), for a finite real
    ``coeff`` > 0 and a finite real ``exponent``."""
    real(coeff, "coeff", above=0)
    real(exponent, "exponent")

    def d_of_n(n: int) -> float:
        return coeff * float(n) ** (-exponent)
    return d_of_n


def schedule_fixed(value: float) -> Callable[[int], float]:
    """Constant schedule N -> value, for a finite real ``value`` > 0."""
    real(value, "value", above=0)

    def d_of_n(n: int) -> float:
        return value
    return d_of_n


@dataclass(frozen=True)
class Configuration:
    """Particle counts per site, summing to the total N."""

    counts: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", int(sum(_counts(self.counts))))

    @classmethod
    def single_site(cls, kappa: int, n: int, x: int) -> "Configuration":
        """All n particles at site x, one of ``0..kappa-1``, for an integer
        ``kappa`` of 1 to ``MAX_SITES``."""
        counts = [0] * integer(kappa, "kappa", 1, MAX_SITES)
        counts[check_site(x, range(kappa), f"0..{kappa - 1}")] = n
        return cls(tuple(counts))

    def __getitem__(self, x: int) -> int:
        return self.counts[x]

    def __len__(self) -> int:
        return len(self.counts)


def _counts(values) -> tuple:
    """``values`` as a tuple, once checked to be particle counts: integers
    (not bools) of 0 to 2**63 - 1, the range of the int64 count arrays."""
    try:
        counts = tuple(values)
    except TypeError:   # not iterable
        raise OutOfRange(f"counts must be a sequence of integers, got {values!r}") from None
    if not all(is_integer(c) and 0 <= c < 1 << 63 for c in counts):
        raise OutOfRange(f"counts must be integers in [0, 2**63), got {counts}")
    return counts


def state_counts(eta: Configuration | Sequence[int], kappa: int,
                 n: int) -> tuple[int, ...]:
    """The counts of ``eta`` as a tuple of ints, once checked to be a state of
    N = ``n`` particles on ``kappa`` sites: ``kappa`` nonnegative integer
    counts that sum to ``n``."""
    counts = _counts(eta.counts if isinstance(eta, Configuration) else eta)
    if len(counts) != kappa:
        raise OutOfRange(f"state has {len(counts)} sites, the walk has {kappa}")
    if sum(counts) != n:
        raise OutOfRange(f"state holds {sum(counts)} particles, N is {n}")
    return tuple(int(c) for c in counts)


def log_weight_table(n: int, d: float) -> np.ndarray:
    """Log of the single-site occupation weights w(0..n).

    w(0) = 1 and w(k+1) = w(k) * (k + d) / (k + 1); equivalently
    w(k) = Gamma(k + d) / (k! Gamma(d)). Computed in log space because the
    products underflow for large n. Raises ``OutOfRange`` unless ``n`` is an
    integer >= 0 and ``d`` a finite real > 0.
    """
    integer(n, "n")
    real(d, "d", above=0)
    # math.log, not np.log: numpy's SIMD log can differ from libm's in the
    # last bit, which would make the table depend on the CPU
    steps = [math.log((k - 1 + d) / k) for k in range(1, n + 1)]
    return np.concatenate(([0.0], np.cumsum(steps)))


def csv_line(cells) -> str:
    """One line of a CSV artifact: a float cell as the shortest repr that
    round-trips (a numpy float as the Python float it equals), any other
    cell as ``str``."""
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in cells) + "\n"
