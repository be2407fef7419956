"""Typed failure signals.

Partiality of exact finite-level computations is surfaced through these
exceptions rather than silent approximation.  Callers that can retry at a
different level catch PrecisionObstruction.  Every Obstruction (precision,
norm, level, unsupported orbit) is a computation that cannot be rendered
as asked, not a defect: the CLI exits 3 on one and the verify suites report
it as "obstructed" rather than "failed".
"""


class CmcurveError(Exception):
    """Base class for all library-specific errors."""


class Obstruction(CmcurveError):
    """Base class for the errors that report an obstruction."""


class PrecisionObstruction(Obstruction):
    """An exact computation cannot be rendered at the requested level.

    Carries the offending prime; the caller must pick a coprime level or a
    different representative.
    """

    def __init__(self, prime, message=""):
        self.prime = prime
        super().__init__(message or f"level meets prime {prime} of the exact data")


class NormObstruction(Obstruction):
    """A rational norm equation is certified unsolvable at a place."""

    def __init__(self, place, message=""):
        self.place = place
        super().__init__(message or f"local obstruction at place {place}")


class LevelObstruction(Obstruction):
    """The good-level condition gcd(N, 2*prod(M)) = 1 fails."""

    def __init__(self, level, support, message=""):
        self.level = level
        self.support = tuple(support)
        super().__init__(
            message or f"level {level} is bad for support {tuple(support)}"
        )


class UnsupportedOrbit(Obstruction):
    """A shadow was asked to act on a point outside its supported orbits."""

    def __init__(self, m, message=""):
        self.m = m
        super().__init__(message or f"orbit sqrt(-{m}) not in shadow support")


class RViolation(CmcurveError):
    """A mapping table fails the four-point relation at the given row."""

    def __init__(self, index, message=""):
        self.index = index
        super().__init__(message or f"relation fails at table row {index}")


class NotSubdirect(CmcurveError):
    """A subgroup of A x B does not project onto both factors."""

    def __init__(self, side, message=""):
        self.side = side
        super().__init__(message or f"projection onto {side} factor is not onto")
