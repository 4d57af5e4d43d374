"""Linear-feasibility certificates for skew-symmetric drift matrices.

For a skew-symmetric Q exactly one of two certificates exists: a direction
``alpha`` with every component of ``Q @ alpha`` strictly negative, or a
nonzero nonpositive vector ``beta`` in the kernel of Q. One HiGHS linear
program (``scipy.optimize.linprog``) finds both: alpha from its solution,
beta from its duals. A branch is accepted only after one check in exact
arithmetic against the skew part ``(q - q^T) / 2`` of the input: the sign of
every entry of ``Q @ alpha``, or an exact kernel vector by rational
elimination on the support of the duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotSkewSymmetric, SolverFailure

SKEW_TOL = 1e-12
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class GordanCertificate:
    """Exactly one of the two alternatives for a skew-symmetric matrix."""

    variant: str  # "alpha" | "beta"
    vector: np.ndarray
    q: np.ndarray
    residual: float


def _integers(values) -> list[int]:
    """Integers proportional to the floats ``values``, with a positive factor."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    return [p * (den // d) for p, d in ratios]


def _skew_exact(q: np.ndarray) -> list[list[int]]:
    """The exact skew part ``(q - q^T) / 2`` times a positive constant, which
    changes no sign and no kernel: both exact checks run on these integers."""
    n = q.shape[0]
    z = _integers(q.ravel())
    return [[z[i * n + j] - z[j * n + i] for j in range(n)] for i in range(n)]


def _bareiss(rows: list[list[int]], ncols: int) -> bool:
    """Fraction-free (Bareiss) forward elimination on the first ``ncols``
    columns of the integer matrix ``rows``, in place.

    Column c takes the first row at or below c with a nonzero entry there as
    its pivot, swapped into row c, and every row below it is updated across
    all columns, with exact integer division by the previous pivot. Then
    ``rows[c][c]`` is, up to sign, the leading (c+1) x (c+1) minor, so a
    square matrix has determinant ``+-rows[-1][-1]``. Returns False when
    some column has no pivot (the columns are dependent; ``rows`` is then
    left part-way).
    """
    prev = 1
    for c in range(ncols):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return False
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c]
        for r in range(c + 1, len(rows)):
            rows[r] = [(piv[c] * a - rows[r][c] * b) // prev for a, b in zip(rows[r], piv)]
        prev = piv[c]
    return True


def _exact_kernel(k: list[list[int]], support: list[int]) -> list[Fraction] | None:
    """The unique gamma with ``K[:, support] gamma = 0`` and ``sum(gamma) = 1``.

    Bareiss elimination, then back substitution in rationals. Returns None
    when the solution does not exist or is not unique.
    """
    m = len(support)
    rows = [[row[j] for j in support] + [0] for row in k] + [[1] * (m + 1)]
    if not _bareiss(rows, m):
        return None  # dependent columns
    if any(row[m] for row in rows[m:]):
        return None  # inconsistent
    gamma = [Fraction(0)] * m
    for c in reversed(range(m)):
        rest = sum(rows[c][j] * gamma[j] for j in range(c + 1, m))
        gamma[c] = (rows[c][m] - rest) / Fraction(rows[c][c])
    return gamma


def _certify(q: np.ndarray, scale: float) -> tuple[str, np.ndarray]:
    # imported here: scipy.optimize adds about 0.2 s and 15 MB to `import incproc`
    from scipy.optimize import linprog

    n = q.shape[0]
    k = _skew_exact(q)
    # alpha: max t s.t. Q alpha + t 1 <= 0, t <= 1; the optimum is 1 on this branch
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([q, np.ones((n, 1))]),
                  b_ub=np.zeros(n), bounds=[(None, None)] * n + [(None, 1.0)],
                  method="highs")
    if res.status == 0:
        alpha = res.x[:n]
        margin = float(np.max(q @ alpha))
        if margin < 0:
            alpha = alpha * (-max(0.1 * scale, 1e-300) / margin)
            a = _integers(alpha)
            if all(sum(kij * aj for kij, aj in zip(row, a)) < 0 for row in k):
                return "alpha", alpha
        # beta = -gamma: at t = 0 the bound t <= 1 is slack, so the duals
        # gamma = -marginals satisfy gamma >= 0, Q^T gamma = 0, sum gamma = 1
        support = [int(j) for j in np.flatnonzero(-res.ineqlin.marginals > SUPPORT_TOL)]
        gamma = _exact_kernel(k, support)
        if gamma is not None and all(g > 0 for g in gamma):
            beta = np.zeros(n)
            beta[support] = [-float(g) for g in gamma]
            return "beta", beta
    raise SolverFailure("neither certificate branch verified in exact arithmetic")


def gordan_certificate(q) -> GordanCertificate:
    """Produce the unique certificate branch for a skew-symmetric matrix.

    The returned alpha satisfies ``max(Q @ alpha) = -0.1 * max|Q|`` with
    every entry of ``Q @ alpha`` negative in exact arithmetic; the returned
    beta is nonpositive with unit norm, the rounding of an exact kernel
    vector. Raises SolverFailure when neither branch verifies exactly.

    The certificate is exclusive: for skew Q, ``beta^T Q alpha =
    -(Q beta)^T alpha = 0`` contradicts ``beta <= 0, beta != 0, Q alpha < 0``,
    so a branch verified exactly rules out the other.
    """
    try:
        q = np.asarray(q, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NotSkewSymmetric(f"matrix entries must be real numbers: {exc}") from None
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise NotSkewSymmetric(f"matrix shape {q.shape} is not square and nonempty")
    if not np.isfinite(q).all():
        raise NotSkewSymmetric("matrix has non-finite entries")
    scale = float(np.abs(q).max())
    if np.abs(q + q.T).max() > SKEW_TOL * max(scale, 1.0):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")

    variant, vec = _certify(q, scale)
    if variant == "alpha":
        residual = float(np.max(q @ vec))
    else:
        vec = vec / np.linalg.norm(vec)
        residual = float(np.abs(q @ vec).max())
    return GordanCertificate(variant=variant, vector=vec, q=q, residual=residual)
