"""Exception types shared across the library."""
from __future__ import annotations

__all__ = [
    "SymcoverError",
    "GraphParseError",
    "FamilySpecError",
    "PreconditionError",
    "NotAHittingSetError",
    "WeightConstructionError",
    "ResourceLimitError",
    "VerificationError",
]


class SymcoverError(Exception):
    """Base class for every error raised on purpose by this library."""


class GraphParseError(SymcoverError):
    """Malformed serialized graph.  ``offset`` is the byte position of the
    first offending character, when one can be pinpointed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class FamilySpecError(SymcoverError):
    """Invalid graph family specification string or parameters."""


class PreconditionError(SymcoverError, ValueError):
    """Input violates an operation's stated contract: the one error for a
    bad argument, so it is a ``ValueError`` too."""


class NotAHittingSetError(PreconditionError):
    """A marked set was required to hit every copy footprint but misses one.

    ``footprint`` is one witness footprint with no marked vertex.
    """

    def __init__(self, footprint):
        self.footprint = tuple(footprint)
        super().__init__(
            f"marked set misses the copy footprint {self.footprint}"
        )


class WeightConstructionError(SymcoverError):
    """A weight layout cannot be built because the required slots around the
    chosen vertex pair cannot all be filled."""


class ResourceLimitError(SymcoverError):
    """An explicit budget ran out: a search's node count, or a cap on the
    footprints, vertices, family size or orbit size a call may build.

    Carries whatever partial knowledge the computation had, so callers can
    report honest bounds instead of a silently truncated answer.  When both
    bounds are known the message ends with ``; optimum in [lower, upper]``.
    """

    def __init__(self, message: str, *, limit=None,
                 best_lower=None, best_upper=None):
        if best_lower is not None and best_upper is not None:
            message = f"{message}; optimum in [{best_lower}, {best_upper}]"
        super().__init__(message)
        self.limit = limit
        self.best_lower = best_lower
        self.best_upper = best_upper


class VerificationError(SymcoverError):
    """A result re-checked from its serialized form came out differently,
    or an internal consistency check failed."""
