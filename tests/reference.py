"""Oracles the tests check the package against.

These are exact or closed-form quantities that no command, criterion or
benchmark of the package computes: the outgoing moves of one
configuration, the exact crossing probability of a torus's two-site
channel (the gambler's-ruin quantity behind the reversible analysis of
Bianchi, Dommers and Giardina, EJP 2017) with the trace-rate kernel it
gives, and a lifted linear function on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from incproc import Configuration, ProcessParams, SmoothFunction, TorusSpec, WalkSpec
from incproc.thermo import _channel_rates


@dataclass(frozen=True)
class LocalKinetics:
    """Outgoing moves of one configuration: rates, holding rate, jump probs."""

    moves: tuple[tuple[int, int, float], ...]
    holding: float
    probs: tuple[tuple[int, int, float], ...]


def local_kinetics(spec: WalkSpec, params: ProcessParams,
                   eta: Configuration | Sequence[int]) -> LocalKinetics:
    """All positive-rate moves out of ``eta`` with the holding rate.

    The rate of the move x -> y is ``eta_x * (d + eta_y) * r(x, y)``; moves
    with zero rate are omitted.
    """
    counts = eta.counts if isinstance(eta, Configuration) else tuple(eta)
    r = spec.rates
    d = params.d
    moves = []
    holding = 0.0
    for x in range(spec.kappa):
        cx = counts[x]
        if cx == 0:
            continue
        for y in range(spec.kappa):
            rxy = r[x, y]
            if rxy == 0.0 or y == x:
                continue
            rate = cx * (d + counts[y]) * rxy
            moves.append((x, y, rate))
            holding += rate
    probs = tuple((x, y, rate / holding) for x, y, rate in moves)
    return LocalKinetics(moves=tuple(moves), holding=holding, probs=probs)


def _tube_crossing_probability(n: int, d: float, fwd: float, bwd: float) -> float:
    """Absorption at the far end of the two-site channel from one particle in.

    The birth-death chain of :func:`_channel_rates`, by the gambler's-ruin
    product form; ``cumprod`` and ``cumsum`` run in level order.
    """
    if fwd <= 0:
        return 0.0
    up, down = _channel_rates(n, d, fwd, bwd)
    with np.errstate(over="ignore"):   # an infinite sum is probability 0
        prods = np.cumprod(down[1:n] / up[1:n])
        return 1.0 / float(np.cumsum(np.concatenate(([1.0], prods)))[-1])


def tube_rates(spec: TorusSpec) -> dict[tuple[int, ...], float]:
    """Condensate jump-rate kernel by offset from the exact two-site-channel
    crossing probability, times the escape rate ``N d_L h(y)``."""
    out: dict[tuple[int, ...], float] = {}
    n, d_l = spec.n, spec.d_l
    offsets = set(spec.kernel)
    offsets.update(tuple(-v for v in off) for off in spec.kernel)
    for off in sorted(offsets):
        h_fwd = spec.h(off)
        h_bwd = spec.h(tuple(-v for v in off))
        rate = n * d_l * h_fwd * _tube_crossing_probability(n, d_l, h_fwd, h_bwd)
        if rate > 0:
            out[off] = rate
    return out


def linear_function(slope: Sequence[float] | float) -> SmoothFunction:
    """A lifted linear function (not periodic; useful for drift checks)."""
    a = np.atleast_1d(np.asarray(slope, dtype=float))
    return SmoothFunction(
        value=lambda u: float(a @ np.atleast_1d(u)),
        grad=lambda u: a.copy(),
        hess=lambda u: np.zeros((a.size, a.size)))
