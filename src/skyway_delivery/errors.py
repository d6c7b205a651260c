"""Exception types raised across the package."""
from __future__ import annotations


class SkywayError(Exception):
    """Base class for every error this package raises on purpose."""


# -- network construction and queries ---------------------------------------

class DuplicateNodeId(SkywayError):
    pass


class UnknownEndpoint(SkywayError):
    pass


class SelfLoopSegment(SkywayError):
    pass


class DuplicateSegment(SkywayError):
    pass


class ZeroLengthSegment(SkywayError):
    """Two distinct nodes share a position, which would give a 0 m segment."""


class NonFiniteLength(SkywayError):
    """A segment or a flight move is too long to measure: its length or its
    duration overflows."""


class DisconnectedNetwork(SkywayError):
    def __init__(self, unreachable):
        self.unreachable = frozenset(unreachable)
        names = ", ".join(sorted(self.unreachable))
        super().__init__(f"network is disconnected; unreachable nodes: {names}")


class UnknownNode(SkywayError):
    pass


# -- planning ----------------------------------------------------------------

class InfeasiblePayload(SkywayError):
    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.violations))


class UnknownDestination(SkywayError):
    pass


class InvalidPackage(SkywayError):
    """A package delivers to the source, or shares its id with another."""


class TooManyPackagesForExhaustive(SkywayError):
    pass


# -- energy ------------------------------------------------------------------

class NegativePayload(SkywayError):
    pass


class BatteryDepleted(SkywayError):
    pass


# -- flight simulation ---------------------------------------------------------

class InvalidLevel(SkywayError):
    pass


class InconsistentAssignment(SkywayError):
    pass


# -- scenario I/O --------------------------------------------------------------

class ScenarioSyntaxError(SkywayError):
    """The scenario document is not valid JSON at all."""


class ValidationError(SkywayError, ValueError):
    """One or more fields break a rule; each entry starts with a locator.

    A constructor names the field (``max_payload: must be > 0 (got 0.0)``); the
    scenario parser puts the document path in front (``drone.max_payload: ...``).
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("\n".join(self.violations))


class InvalidParams(SkywayError):
    pass

