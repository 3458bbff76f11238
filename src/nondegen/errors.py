"""Exception types shared across the package.

Every error that callers are expected to catch carries enough structure
(indices, bounds, exact gaps) to act on programmatically; the message is
for humans.
"""

from __future__ import annotations


TOKEN_QUOTE_LIMIT = 64


def quote_token(token: str, quote="'{}'".format) -> str:
    """``quote(token)``, by default ``'token'``, for a message.  A token
    longer than ``TOKEN_QUOTE_LIMIT`` characters is quoted by its first 32
    and counted instead, so that a message stays one short line whatever the
    input."""
    if len(token) <= TOKEN_QUOTE_LIMIT:
        return quote(token)
    digits = sum(ch.isdigit() for ch in token)
    return f"{quote(token[:32])}... ({len(token)} characters, {digits} digits)"


class NondegenError(Exception):
    """Base class for all errors raised by this package."""


class RationalParseError(NondegenError):
    def __init__(self, token: str, reason: str = "not of the form 'n' or 'n/d'"):
        self.token = token
        self.reason = reason
        super().__init__(f"bad rational token {quote_token(token, repr)}: {reason}")


class DimensionMismatchError(NondegenError):
    def __init__(self, what: str, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected {expected}, got {got}")


class OutsideDomainError(NondegenError):
    """A point violates a domain constraint (the subdifferential there is empty)."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"point violates constraint {index}")


class EmptyGeneratedSetError(NondegenError):
    def __init__(self):
        super().__init__("generated set has no convex generators (empty set)")


class NotOptimalError(NondegenError):
    """The supplied point is not an optimal solution of the linear program.

    ``gap`` is the exact rational difference between the true optimum and the
    objective value at the point, or ``None`` when the point is infeasible or
    the program has no optimum at all.
    """

    def __init__(self, reason: str, gap=None):
        self.gap = gap
        super().__init__(reason if gap is None else f"{reason}: objective gap {gap}")


class EnumerationBoundError(NondegenError):
    """An enumeration the bound refuses: ``count`` generators above ``bound``,
    or, with ``subsets``, ``count`` plane subsets above ``2^bound``."""

    def __init__(self, count: int, bound: int, subsets: bool = False):
        self.count = count
        self.bound = bound
        what = f"plane subsets, above 2^{bound} for" if subsets else "generators, above"
        super().__init__(f"instance has {count} {what} the enumeration bound {bound}")


class InfeasibleDomainError(NondegenError):
    def __init__(self, farkas=None):
        self.farkas = farkas
        super().__init__("domain polyhedron is empty")


class DegeneratePolytopeError(NondegenError):
    """A vertex list that is empty, or has fewer distinct vertices than the operation needs."""


class InternalError(NondegenError):
    """An exact internal invariant failed; this indicates a bug, not bad input."""


class ProblemParseError(NondegenError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ImproperFunctionError(ProblemParseError):
    """The file describes no function: neither pieces nor constraints (nor vertices)."""
