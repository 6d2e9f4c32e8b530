"""Exception hierarchy shared across the package."""

from dataclasses import FrozenInstanceError


def refuse_assignment(row, name, value):
    """``__setattr__`` of a named-tuple row: like a frozen dataclass, it
    refuses to set a field or any other attribute. Construction never calls it."""
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


class QkdNetError(Exception):
    """Base class for all package errors."""


class ValidationError(QkdNetError):
    """A configuration document violates the schema."""


class ConfigurationError(QkdNetError):
    """A runtime object is wired inconsistently (unknown port, bad binding)."""


class InsufficientSampleError(QkdNetError):
    """QBER sample would be below the configured minimum."""


class UnsupportedRegimeError(QkdNetError):
    """Error rate outside the range the reconciler is built for."""


class ReconciliationFailure(QkdNetError):
    """Post-reconciliation verification hash mismatch; block must be discarded."""


class InvalidRequestError(QkdNetError):
    """Caller asked for something structurally impossible (e.g. PA output longer than input)."""


class KeyStarvation(QkdNetError):
    """A reservoir cannot satisfy a consume request. Flow control, not fatal."""


class AuthenticationStarvation(KeyStarvation):
    """Authentication key budget exhausted; the session must halt."""


class DuplicateSegmentError(QkdNetError):
    """Replay guard: a segment id was deposited twice for the same pair."""


class NoPathError(QkdNetError):
    """No qualifying relay path between the requested endpoints."""


class InvariantViolation(QkdNetError):
    """A runtime invariant was broken; the run must abort with a diagnostic."""
