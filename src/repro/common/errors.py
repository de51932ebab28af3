"""Exception hierarchy shared by every subsystem.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.  Subsystems raise the most specific
subclass available; error messages always include the offending identifier
so production logs are actionable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IdentifierError(ReproError):
    """Raised when an entity/predicate identifier is malformed or unknown."""


class OntologyError(ReproError):
    """Raised for unknown types/predicates or schema violations."""


class StoreError(ReproError):
    """Raised by triple-store operations (bad pattern, missing fact, ...)."""


class EmbeddingError(ReproError):
    """Raised by the embedding pipeline (untrained model, shape mismatch)."""


class ModelRegistryError(EmbeddingError):
    """Raised when resolving a model name/version fails."""


class IndexError_(ReproError):
    """Raised by vector-index operations.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`, which callers may legitimately need to catch
    separately.
    """


class ExtractionError(ReproError):
    """Raised by ODKE extractors and the corroboration model."""


class SyncError(ReproError):
    """Raised by the on-device sync protocol."""


class DeviceError(ReproError):
    """Raised when a device cannot satisfy a resource request."""


class PipelineStateError(ReproError):
    """Raised when an incremental pipeline is driven from an illegal state
    (e.g. resuming a pipeline that was never started)."""
