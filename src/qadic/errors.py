"""Shared exception types.

All precondition failures raise one of these so the CLI can map them to a
stable exit code.
"""


class QadicError(Exception):
    """Base class for all package-specific errors."""


class InsufficientPrecision(QadicError):
    """A 2-adic value was read beyond its known bits."""


class CuntzRelationViolation(QadicError):
    """A pair of isometries does not satisfy S0 S0* + S1 S1* = 1."""


class UnsupportedIsometry(QadicError):
    """The element is not a single monomial isometry with full domain."""


class MemoryBudgetExceeded(QadicError):
    """A computation would allocate more than its fixed memory budget."""


class ParseError(QadicError):
    """Malformed expression source.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" +
                         (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)
