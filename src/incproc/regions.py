"""Tube, core, and slice index sets used by the condensation analysis.

For a site subset R the R-tube holds the configurations supported on R. It
splits into the boundary (some site of R empty), the outer core (all sites of
R occupied, some at most ``floor(eps*log N)`` particles), and the inner core
(every site of R above that threshold). Slices fix the count at one site.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .model import WalkAnalysis, WalkSpec, analyze_walk, check_site, real, site_set
from .states import StateEnumeration


class RegionSpec:
    """Index sets of one R-tube at threshold ``floor(eps * log N)``.

    All members are sorted int64 index arrays into the enumeration.
    """

    def __init__(self, walk: WalkSpec, enum: StateEnumeration,
                 r_set, eps: float = 0.1, validate_eps: bool = True):
        r_set = site_set(r_set, enum.kappa)
        real(eps, "eps", above=0)
        self.walk = walk
        self.enum = enum
        self.r_set = r_set
        self.eps = eps
        self.threshold = int(math.floor(real(eps * math.log(enum.n), "eps * log N")))
        if validate_eps and self.threshold > 0:
            self.check_epsilon(analyze_walk(walk))

    @cached_property
    def _in_r(self) -> np.ndarray:
        mask = np.zeros(self.enum.kappa, dtype=bool)
        mask[list(self.r_set)] = True
        return mask

    @cached_property
    def tube_mask(self) -> np.ndarray:
        counts = self.enum.counts_matrix()
        return (counts[:, ~self._in_r] == 0).all(axis=1)

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

    def slice_indices(self, x: int, k: int) -> np.ndarray:
        """Tube states with exactly k particles at site x: the slice set of the
        condensation analysis, public for callers that check the slice
        bounds on a solved distribution."""
        x = check_site(x, self.r_set, f"R {self.r_set}")
        counts = self.enum.counts_matrix()
        return np.nonzero(self.tube_mask & (counts[:, x] == k))[0]

    def check_epsilon(self, analysis: WalkAnalysis) -> tuple[float, bool]:
        """Validate that the slice-growth constant stays polynomially bounded.

        The slice recursion multiplies at most C0 per level, with
        C0 = max over k of R2 (k + d)(N - k) / (R1 (k + 1)(N - k - 1 + d))
        evaluated at d -> 0; the threshold is admissible when
        C0 ** threshold <= N, decided in logs so that a huge threshold does
        not overflow. Warns (and returns False) otherwise.
        """
        n = self.enum.n
        ks = np.arange(0, n - 1, dtype=float)
        ratios = (analysis.r2 * np.maximum(ks, 1.0) * (n - ks)
                  / (analysis.r1 * (ks + 1.0) * (n - ks - 1.0)))
        c0 = float(ratios.max()) if ratios.size else analysis.r2 / analysis.r1
        ok = c0 <= 1 or self.threshold * math.log(c0) <= math.log(n)
        if not ok:
            warnings.warn(
                f"threshold {self.threshold} too large for slice constant "
                f"C0={c0:.3g}: C0**threshold exceeds N={n}; decrease eps",
                stacklevel=2)
        return c0, ok

