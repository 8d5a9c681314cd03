"""Exception types shared across the package."""


class PlaneForestError(Exception):
    """Base class for all errors raised by this package."""


class EmptySequence(PlaneForestError):
    """Degree sequence has no nodes."""


class NotAForest(PlaneForestError):
    """Degree counts do not describe any plane forest (tree count <= 0)."""


class Infeasible(PlaneForestError):
    """Requested degree sequence cannot be built by the fix-up rule."""


class NotAWalk(PlaneForestError):
    """Degree vector does not produce a walk terminating below zero."""


class MalformedBridge(PlaneForestError):
    """Integer path violates bridge / first-passage invariants."""


class CapExceeded(PlaneForestError):
    """Simulation ran past its time cap; treat the replicate as censored."""


class TooLarge(PlaneForestError):
    """Input exceeds the size cap of exhaustive enumeration."""


class EmptySample(PlaneForestError):
    """Statistic requested on an empty sample."""


class DomainError(PlaneForestError, ValueError):
    """Argument outside the mathematical domain of the function."""
