"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the package produces with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class PatternError(ReproError):
    """Raised for malformed patterns or invalid pattern operations."""


class SeriesError(ReproError):
    """Raised for invalid feature series or segmentations."""


class MiningError(ReproError):
    """Raised for invalid mining parameters (period, confidence, ranges)."""


class EncodingError(ReproError):
    """Raised by :mod:`repro.encoding` for unknown letters, out-of-range
    bitmasks, or vocabularies unusable for the requested period."""


class TaxonomyError(ReproError):
    """Raised for malformed feature taxonomies in multi-level mining."""


class GeneratorError(ReproError):
    """Raised for invalid synthetic-workload parameters."""


class ServeError(ReproError):
    """Raised by :mod:`repro.serve`: malformed requests, unknown series
    names, or a server asked to run in an unusable configuration."""


class DeadlineExceeded(ServeError):
    """A served request exhausted its wall-clock budget
    (:class:`repro.serve.deadline.Deadline`) before it was answered."""


class StreamError(ReproError):
    """Raised by :mod:`repro.streaming`: invalid window geometry, events
    older than the watermark allows being force-fed past quarantine, or a
    retirement strategy asked to retire more than it retains."""


class DurabilityError(ReproError):
    """Raised by :mod:`repro.durability`: unusable checkpoint directories,
    malformed state payloads, or a recovery with nothing valid to restore."""


class SnapshotCorruption(DurabilityError):
    """A snapshot file failed validation (truncated, checksum mismatch,
    or unparseable) — recoverable by falling back to an older snapshot."""
