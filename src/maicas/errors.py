"""Exception types shared across the sensor twin.

Domain failures are deliberately fine-grained so callers (and the CLI) can
map them to stable machine-readable names.
"""

from __future__ import annotations


class MaicasError(Exception):
    """Base class for all domain errors raised by this package."""


class DomainError(MaicasError):
    """An argument is outside the mathematical domain of an operation."""


def require_positive(obj, *names: str) -> None:
    """DomainError for the first of the named fields of obj that is <= 0."""
    for name in names:
        value = getattr(obj, name)
        if value <= 0:
            raise DomainError(f"{name} must be > 0, got {value}")


class OutOfModelRange(MaicasError):
    """A kinematic state maps to strain outside the validity window."""


class CalibrationFailed(MaicasError):
    """A bounded deterministic fit could not meet its target."""


class NoResonance(MaicasError):
    """No dip deep enough to call a resonance."""


class GridTooCoarse(MaicasError):
    """The dip sits at a sweep endpoint; the grid does not bracket it."""


class DegenerateInput(MaicasError):
    """Input data cannot support the requested estimate (e.g. all x equal)."""


class DegenerateModel(MaicasError):
    """A fitted model cannot be inverted (e.g. zero slope)."""


class IncompleteCycle(MaicasError):
    """A cycle series is missing a loaded or released phase."""


class FrameError(MaicasError):
    """Base class for telemetry wire-format failures."""


class BadMagic(FrameError):
    """Frame does not start with the expected magic bytes."""


class UnsupportedVersion(FrameError):
    """Frame version byte is not supported by this decoder."""


class ChecksumMismatch(FrameError):
    """Frame CRC-32 does not match its payload."""


class MalformedLength(FrameError):
    """Frame length is inconsistent with its declared point count."""


class InvalidGrid(FrameError):
    """Frame frequency grid is not a valid sweep axis."""
