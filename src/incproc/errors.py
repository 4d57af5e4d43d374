"""Exception types shared across the package."""


class IncprocError(Exception):
    """Base class for all package errors."""


class NonIrreducibleWalk(IncprocError):
    """The rate graph of the underlying walk is not strongly connected."""


class StateSpaceTooLarge(IncprocError):
    """The configuration space exceeds the enumeration cap, or its LU
    factor the memory budget or its rate matrix 32-bit indices; ``cap`` is
    None then, and ``reason`` says why."""

    def __init__(self, size: int, cap: int | None = None, reason: str | None = None):
        self.size = size
        self.cap = cap
        super().__init__(f"state space has {size} configurations, "
                         + (reason or f"cap is {cap}"))


class SolverFailure(IncprocError):
    """A linear solve did not meet its residual tolerance."""


class ConditionNotSatisfied(IncprocError):
    """A closed-form formula was requested outside its validity conditions."""


class DimensionMismatch(IncprocError):
    """Inputs refer to different state spaces or site sets."""


class OutOfRange(IncprocError, ValueError):
    """Arguments outside the supported parameter range.

    Also a ``ValueError``, so callers that catch that keep working."""


class NotSemiAttracting(IncprocError):
    """The queried set is not semi-attracting, so no prediction applies."""


class PremiseViolated(IncprocError):
    """A limiting-chain hypothesis fails; the message names the hypothesis."""


class NotSkewSymmetric(IncprocError):
    """The certificate solver requires a skew-symmetric matrix."""


class BudgetExceeded(IncprocError):
    """Every replica hit the step cap; no uncensored observations exist."""


class DegenerateData(IncprocError):
    """Data unusable for a log-log fit (too few or nonpositive points)."""


class SupportTooLarge(IncprocError):
    """Kernel support radius is too large for the torus side (needs L > 2M)."""


class NonSpanningSupport(IncprocError):
    """Kernel support does not generate the full integer lattice."""


class TooFewRelocations(IncprocError):
    """Trajectory contains too few condensate relocations for estimation."""


class ConfigError(IncprocError):
    """Invalid experiment configuration; the message carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
