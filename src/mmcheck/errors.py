"""Exception types shared across the package."""

from __future__ import annotations


class MmcheckError(Exception):
    """Base class for all package-specific errors."""


class TraceSyntaxError(MmcheckError):
    """Malformed trace document; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class DuplicateValueError(MmcheckError):
    """A value is written more than once to the same variable."""


class UnsourcedReadError(MmcheckError):
    """A read has no write supplying its value."""


class AmbiguousRfError(MmcheckError):
    """An explicit reads-from edge contradicts the events it connects."""


class DanglingRefError(MmcheckError):
    """An event reference names a thread or position that does not exist."""


class InvalidDpError(MmcheckError):
    """A dependency edge is not a read-sourced program-order edge."""


class UnknownModelError(MmcheckError):
    """The requested memory model is not supported."""


class ResourceBoundError(MmcheckError):
    """An input exceeds a resource bound (the command exits 3)."""


class KTooLargeForOracleError(ResourceBoundError):
    """The write count exceeds the factorial-enumeration bound."""


class SearchSpaceTooLargeError(ResourceBoundError):
    """The store-order search space exceeds the enumeration bound."""


class NotAPermutationError(MmcheckError):
    """A claimed write order is not a permutation of the write events."""


class InternalWitnessInvalidError(MmcheckError):
    """The solver produced a witness that fails re-verification (a bug)."""


class NotThreeSatError(MmcheckError):
    """A CNF clause does not have exactly three literal slots."""


class MalformedDimacsError(MmcheckError):
    """The DIMACS document cannot be parsed."""


class TooManyVarsError(MmcheckError):
    """The formula exceeds the brute-force variable bound."""


class NoAlternativeWriterError(MmcheckError):
    """No read in the history can be rewired to a different writer."""


class InitialReadVisibilityWarning(UserWarning):
    """An initial write sources a read that a relaxed model hides.

    Initial writes precede every other event in program order, so the
    externally-visible reads-from relation of TSO/PSO/RMO drops such pairs.
    The package no longer emits it; `bench/run.py` filters it by name.
    """
