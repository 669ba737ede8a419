"""Exception types shared across the package, and the work meter:
``metered`` arms a budget of work for a ``with`` block, and ``charge``
spends from it before the work it pays for; unarmed, it never refuses."""

from __future__ import annotations

from contextlib import contextmanager

#: The units one armed block may spend: above any test's 131,070 and an order-15 trace's 65,536
#: rows, below a 17th step's 262,142 and an order-17 trace's 262,144 rows.
WORK_LIMIT = 200_000
_spent = None  # spent in the armed block; None when unarmed


class HamelcheckError(Exception):
    """Base class for all package-specific errors."""


class InvalidIncrement(HamelcheckError, ValueError):
    """An increment is zero, has a negative coordinate, or uses a symbol
    not declared positive."""


class UntabulatedPoint(HamelcheckError, LookupError):
    """A tabulated function was queried outside its table; the scenario
    definition is incomplete."""

    def __init__(self, point: object):
        super().__init__(f"no tabulated value at {point}")
        self.point = point


class NonTerminatingJ(HamelcheckError, ValueError):
    """A closure increment has no strictly positive coordinate, so the
    geometric-series sum would not terminate."""


class EvenOrder(HamelcheckError, ValueError):
    """An even order was supplied where only odd orders are verified."""


class UnknownCandidate(HamelcheckError, ValueError):
    """No documented probe candidate with the requested id."""


class DefinitionError(HamelcheckError):
    """Problem in a scenario definition file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", col {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class ParseError(DefinitionError):
    """Definition file text does not match the grammar."""


class UnknownSymbol(DefinitionError):
    """A definition file refers to an undeclared name."""


def superlinear(words: int) -> int:
    """The units for a ``**`` or ``math.comb`` result of ``words`` 64-bit
    words: one a word, times one more per 2^15 words, as a word costs more
    the longer the result. On CPython 3.11 (2 cores) ``**`` took 1.0, 5.0
    and 9.5 µs a word at 2,000, 39,000 and 197,000 words, and ``comb`` 3,
    18 and 28 µs at 2,700, 104,000 and 200,000."""
    return words * (1 + (words >> 15))


@contextmanager
def metered():
    """Arm the work meter, with nothing spent, for the length of the block."""
    global _spent
    outer, _spent = _spent, 0
    try:
        yield
    finally:
        _spent = outer


def charge(units: int, what: str) -> None:
    """Spend ``units`` on ``what`` (give back, if negative); armed, refuse past the limit."""
    global _spent
    if _spent is not None:
        _spent += units
        if _spent > WORK_LIMIT:
            after = f" after {_spent - units}" if _spent > units else ""
            count = units if units.bit_length() < 64 else f"2^{units.bit_length() - 1} or more"
            raise HamelcheckError(f"{what} of {count} units of work{after} refused"
                                  f" (work limit {WORK_LIMIT})")
