"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from QspathError so callers (and the
CLI) can distinguish precondition violations from genuine bugs.  A failed
self-check on a computed result raises InternalError, which deliberately
sits outside that hierarchy.
"""
from __future__ import annotations


class QspathError(Exception):
    """Base class for all errors raised by qspath."""


class FamilyError(QspathError):
    """The graph is not of the family an operation requires."""


class InvalidPathError(QspathError):
    """An arc sequence is not a valid simple path in the given graph."""


class NoPathError(QspathError):
    """No source-target path exists."""


class PathLimitExceeded(QspathError):
    """Path enumeration found more paths than the caller allowed."""

    def __init__(self, limit: int):
        super().__init__(f"more than {limit} paths, the path limit")
        self.limit = limit


class CyclicGraphError(QspathError):
    """An operation that is only sound on acyclic graphs got a cyclic one."""


class ScaleError(QspathError):
    """Input is larger than the desk-scale bound of an exact procedure."""


class FormatError(QspathError):
    """Malformed instance or QAP text."""


class InternalError(Exception):
    """A self-check on a computed result failed: a bug, not a bad input.

    Not a QspathError, so the CLI never reports it as a usage error.
    """
