"""Tube and core index sets used by the condensation analysis.

For a site subset R the R-tube holds the configurations supported on R. It
splits into the boundary (some site of R empty), the outer core (all sites of
R occupied, some at most ``floor(eps*log N)`` particles), and the inner core
(every site of R above that threshold).
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .model import WalkSpec, instance, real, site_set
from .states import StateEnumeration


def supported_on(enum: StateEnumeration, r_set: tuple[int, ...]) -> np.ndarray:
    """Mask, in rank order, of the states with no particle off the sites of
    ``r_set``: the R-tube."""
    off_r = np.ones(enum.kappa, dtype=bool)
    off_r[list(r_set)] = False
    return (enum.counts_matrix()[:, off_r] == 0).all(axis=1)


class RegionSpec:
    """Index sets of one R-tube at threshold ``floor(eps * log N)``.

    All members are sorted int64 index arrays into the enumeration.
    """

    def __init__(self, walk: WalkSpec, enum: StateEnumeration,
                 r_set, eps: float = 0.1):
        self.walk = instance(walk, WalkSpec, "walk")
        self.enum = instance(enum, StateEnumeration, "enum")
        r_set = site_set(r_set, enum.kappa)
        real(eps, "eps", above=0)
        self.r_set = r_set
        self.eps = eps
        self.threshold = int(math.floor(real(eps * math.log(enum.n), "eps * log N")))
        if self.threshold > 0:
            self.check_epsilon()

    @cached_property
    def _in_r(self) -> np.ndarray:
        mask = np.zeros(self.enum.kappa, dtype=bool)
        mask[list(self.r_set)] = True
        return mask

    @cached_property
    def tube_mask(self) -> np.ndarray:
        return supported_on(self.enum, self.r_set)

    @cached_property
    def tube(self) -> np.ndarray:
        return np.nonzero(self.tube_mask)[0]

    @cached_property
    def boundary(self) -> np.ndarray:
        """Tube states with some site of R empty."""
        counts = self.enum.counts_matrix()
        some_empty = (counts[:, self._in_r] == 0).any(axis=1)
        return np.nonzero(self.tube_mask & some_empty)[0]

    @cached_property
    def outer_core(self) -> np.ndarray:
        counts = self.enum.counts_matrix()
        all_occ = (counts[:, self._in_r] > 0).all(axis=1)
        low = (counts[:, self._in_r] <= self.threshold).any(axis=1)
        return np.nonzero(self.tube_mask & all_occ & low)[0]

    @cached_property
    def inner_core(self) -> np.ndarray:
        counts = self.enum.counts_matrix()
        deep = (counts[:, self._in_r] > self.threshold).all(axis=1)
        return np.nonzero(self.tube_mask & deep)[0]

    @cached_property
    def inner_closure(self) -> np.ndarray:
        """Inner core plus states one positive-rate move away from it."""
        counts = self.enum.counts_matrix()
        inner = self.inner_core
        reach = np.zeros(self.enum.size, dtype=bool)
        reach[inner] = True
        rates = self.walk.rates
        xs, ys = np.array([(x, y) for x in self.r_set for y in self.r_set
                           if x != y and rates[x, y] != 0.0], dtype=np.intp).reshape(-1, 2).T
        moved = self.enum.move_ranks(inner, xs, ys)
        reach[moved[counts[inner][:, xs].T >= 1]] = True
        return np.nonzero(reach)[0]

    def check_epsilon(self) -> tuple[float, bool]:
        """Validate that the slice-growth constant stays polynomially bounded.

        The slice recursion multiplies at most C0 per level, with C0 = max
        over k of R2 (k + d)(N - k) / (R1 (k + 1)(N - k - 1 + d)) at d -> 0,
        R1 and R2 the walk's smallest positive and largest rates; the threshold
        is admissible when C0 ** threshold <= N, decided in logs so that a
        huge threshold does not overflow. Warns (and returns False) otherwise.
        """
        n = self.enum.n
        rates = self.walk.rates
        r1, r2 = float(rates[rates > 0].min()), float(rates.max())
        ks = np.arange(0, n - 1, dtype=float)
        with np.errstate(over="ignore"):    # a subnormal r1 gives C0 = inf, refused below
            ratios = r2 * np.maximum(ks, 1.0) * (n - ks) / (r1 * (ks + 1.0) * (n - ks - 1.0))
        c0 = float(ratios.max()) if ratios.size else r2 / r1
        ok = c0 <= 1 or self.threshold * math.log(c0) <= math.log(n)
        if not ok:
            warnings.warn(
                f"threshold {self.threshold} too large for slice constant "
                f"C0={c0:.3g}: C0**threshold exceeds N={n}; decrease eps",
                stacklevel=2)
        return c0, ok

