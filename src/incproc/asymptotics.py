"""Closed-form predictions and classification of the condensate dynamics.

The drift digraph ``b(x, y) = max(r(x,y) - r(y,x), 0)`` determines which
sites survive in the long-time limit (the terminal strongly connected
components), which limiting chain describes the condensate motion, and on
which time scale (1/d_N for symmetric motion, 1/(N d_N) otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, NotSemiAttracting, OutOfRange, PremiseViolated
from .gordan import GordanCertificate, gordan_certificate
from .model import (ProcessParams, WalkSpec, _normal_stationary, analyze_walk, instance, real,
                    site_set)
from .regions import RegionSpec
from .states import StateEnumeration


@dataclass(frozen=True)
class ErrorScale:
    """The error scale ell_N = d_N log N + q**N with its two components;
    ``n`` and ``d`` are checked as :class:`ProcessParams` checks them, and
    ``q`` must be a real in [0, 1]."""

    n: int
    d: float
    q: float

    def __post_init__(self):
        ProcessParams(self.n, self.d)
        real(self.q, "q", at_least=0, at_most=1)

    @property
    def log_term(self) -> float:
        return self.d * math.log(self.n)

    @property
    def geometric_term(self) -> float:
        return self.q ** self.n if self.q > 0 else 0.0

    @property
    def ell(self) -> float:
        return self.log_term + self.geometric_term


@dataclass(frozen=True)
class Classification:
    """Recurrent structure of the drift digraph of a walk.

    ``components`` are the strongly connected components of the digraph
    ``b > 0``, and ``terminal_components`` are those that no edge leaves.
    Each component is a sorted tuple of sites, and both tuples of
    components are sorted by smallest site.
    """

    walk: WalkSpec
    b: np.ndarray
    components: tuple[tuple[int, ...], ...]
    terminal_components: tuple[tuple[int, ...], ...]
    s0: tuple[int, ...]
    irreducible_on_s0: bool
    symmetric_on_s0: bool

    def is_attracting(self, a_set) -> bool:
        """Every interacting pair leaving A has strictly larger inward rate."""
        return self._attracting(a_set, strict=True)

    def is_semi_attracting(self, a_set) -> bool:
        """Every interacting pair leaving A has at least as large inward rate."""
        return self._attracting(a_set, strict=False)

    def _attracting(self, a_set, strict: bool) -> bool:
        a = set(site_set(a_set, self.walk.kappa))
        r = self.walk.rates
        for x in a:
            for y in range(self.walk.kappa):
                if y in a:
                    continue
                if r[x, y] + r[y, x] == 0:
                    continue
                if strict:
                    if not r[x, y] < r[y, x]:
                        return False
                elif not r[x, y] <= r[y, x]:
                    return False
        return True


def classify(walk: WalkSpec) -> Classification:
    """Drift kernel, its recurrent set, and the limiting-chain flags.

    The recurrent set is the union of terminal strongly connected components
    of the strict-positivity digraph of ``b``; it is always semi-attracting.
    ``OutOfRange`` refuses a ``walk`` that is not a :class:`WalkSpec`.
    """
    r = instance(walk, WalkSpec, "walk").rates
    b = np.maximum(r - r.T, 0.0)
    n_comps, label = connected_components(b > 0, connection="strong")
    comps = sorted(tuple(np.flatnonzero(label == c).tolist()) for c in range(n_comps))
    src, dst = np.nonzero(b > 0)
    exits = set(label[src[label[src] != label[dst]]].tolist())
    terminal = [comp for comp in comps if label[comp[0]] not in exits]
    s0 = tuple(sorted(v for comp in terminal for v in comp))
    symmetric = all(r[x, y] == r[y, x] for x in s0 for y in s0)
    return Classification(
        walk=walk, b=b,
        components=tuple(comps),
        terminal_components=tuple(terminal),
        s0=s0,
        irreducible_on_s0=(len(terminal) == 1),
        symmetric_on_s0=symmetric,
    )


@dataclass(frozen=True)
class LimitChain:
    """Limiting condensate chain on the surviving sites with its time scale."""

    mode: str  # "rv" | "nrv"
    sites: tuple[int, ...]
    rates: np.ndarray
    scale: str  # "1/d_N" | "1/(N*d_N)"
    nu: np.ndarray

    def theta(self, n: int, d: float) -> float:
        """The time scale at N = ``n`` and d_N = ``d``, checked as
        :class:`ProcessParams` checks them."""
        ProcessParams(n, d)
        return 1.0 / d if self.mode == "rv" else 1.0 / (n * d)


def limit_chain(walk: WalkSpec, classification: Classification, mode: str) -> LimitChain:
    """Build the limiting chain for the requested route.

    ``nrv``: drift rates on the recurrent set at scale 1/(N d_N); requires a
    single terminal component. ``rv``: the walk restricted to the recurrent
    set at scale 1/d_N; requires symmetric rates on it, an attracting
    recurrent set, and irreducibility of the restriction. In either, the
    chain must be irreducible on its rates of at least the smallest normal
    float, whose stationary law is ``nu``.

    ``OutOfRange`` refuses a ``walk`` that is not a :class:`WalkSpec` or a
    ``classification`` that is not a :class:`Classification`, and
    ``DimensionMismatch`` a classification of another walk.
    """
    instance(walk, WalkSpec, "walk")
    other = instance(classification, Classification, "classification").walk
    if other is not walk and (other.sites != walk.sites
                              or not np.array_equal(other.rates, walk.rates)):
        raise DimensionMismatch("the classification is of another walk")
    s0 = classification.s0
    if mode == "nrv":
        if not classification.irreducible_on_s0:
            raise PremiseViolated(
                "drift chain restricted to the recurrent set is not irreducible "
                f"({len(classification.terminal_components)} terminal components)")
        rates, scale = classification.b[np.ix_(s0, s0)], "1/(N*d_N)"
    elif mode == "rv":
        if not classification.symmetric_on_s0:
            raise PremiseViolated("rates are not symmetric on the recurrent set")
        if not classification.is_attracting(s0):
            raise PremiseViolated("recurrent set is not attracting")
        rates, scale = walk.rates[np.ix_(s0, s0)], "1/d_N"
        if connected_components(rates > 0, connection="strong")[0] != 1:
            raise PremiseViolated(
                "walk restricted to the recurrent set is not irreducible")
    else:
        raise OutOfRange(f"unknown mode {mode!r}; expected 'rv' or 'nrv'")
    return LimitChain(mode=mode, sites=s0, rates=rates, scale=scale,
                      nu=_normal_stationary(rates, PremiseViolated))


@dataclass(frozen=True)
class MeanRatePrediction:
    """Predicted normalized trace rates with the applicable error family."""

    a_set: tuple[int, ...]
    normalized: np.ndarray
    error_family: str  # "O(1/N + ell_N)" | "O(ell_N)"
    error_scale: ErrorScale
    error_budget: float


def predicted_mean_rate(walk: WalkSpec, a_set, n: int, d: float) -> MeanRatePrediction:
    """Leading-order prediction for trace rates normalized by d*N.

    For x, y in A: ``r(x,y) - r(y,x)`` when positive, 0 when negative,
    ``r(x,y)/N`` for symmetric pairs. The error budget is 1/N + ell_N for a
    semi-attracting A and ell_N when A is attracting.
    """
    a_set = site_set(a_set, instance(walk, WalkSpec, "walk").kappa)
    cls = classify(walk)
    if not cls.is_semi_attracting(a_set):
        raise NotSemiAttracting(f"set {a_set} is not semi-attracting")
    analysis = analyze_walk(walk)
    scale = ErrorScale(n=n, d=d, q=analysis.q)
    attracting = cls.is_attracting(a_set)
    family = "O(ell_N)" if attracting else "O(1/N + ell_N)"
    budget = scale.ell if attracting else 1.0 / n + scale.ell
    k = len(a_set)
    pred = np.zeros((k, k))
    r = walk.rates
    for i, x in enumerate(a_set):
        for j, y in enumerate(a_set):
            if x == y:
                continue
            if r[x, y] > r[y, x]:
                pred[i, j] = r[x, y] - r[y, x]
            elif r[x, y] == r[y, x]:
                pred[i, j] = r[x, y] / n
    return MeanRatePrediction(a_set=a_set, normalized=pred, error_family=family,
                              error_scale=scale, error_budget=budget)


@dataclass(frozen=True)
class TestFunction:
    """Harmonic-sum drift witness on the inner core of an R-tube.

    The function is ``f0(eta) = sum_x coeff_x * H(eta_x)``, with H the
    harmonic numbers and ``coeff`` the ``coefficients``; its drift under the
    auxiliary kernel is positive everywhere on the inner core, which is what
    the hitting-time bound needs.
    """

    variant: str            # certificate branch: "alpha" | "beta"
    r_set: tuple[int, ...]
    coefficients: np.ndarray
    certificate: GordanCertificate
    oscillation: float
    min_drift: float
    drift: np.ndarray       # per inner-core state, in region index order
    inner_core: np.ndarray
    row_sum_range: tuple[float, float]  # kernel row sums over the inner core


def _harmonics(n: int) -> np.ndarray:
    """The harmonic numbers ``H(0..n)``, each added left to right."""
    return np.cumsum(np.concatenate(([0.0], 1.0 / np.arange(1, n + 1))))


def test_function(walk: WalkSpec, r_set, n: int, d: float, eps: float) -> TestFunction:
    """Build the harmonic test function and evaluate its drift exactly under
    the discrete auxiliary chain whose step weights swap source and target
    roles (weight of moving a particle x -> y is ``eta_y (d + eta_x) r(y, x)``,
    normalized per state). Needs at least two sites in R, strictly positive
    rates inside R and a finite d > 0.
    """
    r_set = site_set(r_set, instance(walk, WalkSpec, "walk").kappa)
    if len(r_set) < 2:
        raise OutOfRange(f"R needs at least two sites, got {r_set}")
    d = real(d, "d", above=0)
    rmat = walk.rates
    for x in r_set:
        for y in r_set:
            if x != y and rmat[x, y] == 0.0:
                raise PremiseViolated(
                    f"rates must be positive within R; r({x},{y}) = 0")

    q = np.array([[rmat[x, y] - rmat[y, x] for y in r_set] for x in r_set])
    cert = gordan_certificate(q)
    coeff = cert.vector

    enum = StateEnumeration(walk.kappa, n)
    reg = RegionSpec(walk, enum, r_set, eps=eps)
    hmax = _harmonics(n + 1)

    def f0(c: np.ndarray) -> np.ndarray:
        """f0 of the states of the count rows c, summed over R in order."""
        out = np.zeros(c.shape[0])
        for i, x in enumerate(r_set):
            out += coeff[i] * hmax[c[:, x]]
        return out

    # every inner-core state at once; each (x, y) pass adds in the order of
    # the scalar sums, so every entry is the scalar loop's float. Inner-core
    # states hold at least one particle at every site of R, rates inside R
    # are positive and d > 0, so every move below exists and has positive
    # weight: nothing needs masking, and the inner core with its moved
    # states is the inner closure whose oscillation f0 reports.
    inner = reg.inner_core
    s = enum.counts_matrix()[inner]
    f_here = f0(s)
    closure = [f_here]
    w_state = np.zeros(inner.size)
    acc = np.zeros(inner.size)
    rs = np.zeros(inner.size)
    for x in r_set:
        for y in r_set:
            if y == x:
                continue
            moved = s.copy()
            moved[:, x] -= 1
            moved[:, y] += 1
            f_there = f0(moved)
            closure.append(f_there)
            w_state += s[:, x] * (d + s[:, y]) * rmat[x, y]
            weight = s[:, y] * (d + s[:, x]) * rmat[y, x]
            acc += weight * (f_there - f_here)
            rs += weight
    closure_vals = np.concatenate(closure)
    oscillation = (float(closure_vals.max() - closure_vals.min())
                   if closure_vals.size else 0.0)
    drift = acc / w_state
    row_sums = rs / w_state
    min_drift = float(drift.min()) if drift.size else float("nan")
    rng = ((float(row_sums.min()), float(row_sums.max()))
           if row_sums.size else (float("nan"), float("nan")))
    return TestFunction(
        variant=cert.variant, r_set=r_set,
        coefficients=np.asarray(coeff, dtype=float), certificate=cert,
        oscillation=oscillation, min_drift=min_drift, drift=drift,
        inner_core=inner, row_sum_range=rng)
