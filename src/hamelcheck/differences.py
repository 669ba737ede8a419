"""Mixed higher-order forward/backward differences and convexity probes.

Every mixed difference over ``hs`` is one expansion: the terms ``{e: c}``
of ``prod((z**h - 1) for h in hs)``, multiplied out one run of equal
adjacent increments at a time (a run of m is one binomial row) with equal
keys merged, give the value ``sum(c * f(x + e))``. ``_chain`` alone
chooses the keys, by the function's type. A ``Composite`` ``f = K(a(.))``,
or ``c * f`` as ``Scaled``, is keyed by the scalars ``a(h)``, so the sum
runs along one line: ``sum(c * K(a(x) + e))``, with every coefficient
times ``c``. Any other function is keyed by the points ``h`` themselves
and read once at each distinct subset sum. There is no memo. The
alternating subset-sum expansion is the independent oracle:
``difference_table`` alone signs its rows, ``group_sums`` alone totals
them by subset size, and ``forward_diff_closed`` sums the signed rows.
The backward difference is not a further route: it is the forward
difference at ``x - sum(hs)``.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .basis import ZERO, Frozen, Point, Scalar, check_increment, exact, point_combine, subset_sums
from .errors import InvalidIncrement
from .functions import Composite, PointFunction, Scaled

Increments = Sequence[Point]


def _checked(hs: Increments) -> tuple[Point, ...]:
    hs = tuple(hs)
    if not hs:
        raise InvalidIncrement("increment list must be nonempty")
    for h in hs:
        check_increment(h)
    return hs


class _Expansion(PointFunction, Frozen):
    """The mixed difference as one expansion: ``factor * prod(z**s - 1)``
    over the steps ``s``, multiplied out one run of equal adjacent steps
    at a time into terms ``{e: c}``, has the value
    ``sum(c * evaluate(project(x) + e))`` at ``x``. Cancelled terms are
    kept, so ``evaluate`` reads every distinct subset sum exactly once, in
    the order the recursive operator ``g(x + h) - g(x)`` (first increment
    outermost) first reads it; a zero factor leaves no terms and the
    value 0."""

    project: Callable[[Point], object]
    evaluate: Callable[[object], Scalar]
    terms: tuple[tuple[object, Scalar], ...]

    def __init__(self, steps: Iterable, zero: object, project: Callable,
                 evaluate: Callable, factor: Scalar = 1):
        poly: dict = {zero: factor} if factor else {}
        for s, run in groupby(steps):
            # (z**s - 1)**m has the row (-1)**(m - j) * C(m, j) at z**(j*s),
            # j = m..0, each entry from the one before; the j = 0 entry is
            # left in b and keeps e itself as its key.
            m = sum(1 for _ in run)
            row, b = [], 1
            for j in range(m, 0, -1):
                row.append((j * s, b))
                b = -b * j // (m - j + 1)
            nxt: dict = {}
            for e, c in poly.items():
                for t, bj in row:
                    up = e + t
                    nxt[up] = nxt.get(up, 0) + c * bj
                nxt[e] = nxt.get(e, 0) + c * b
            poly = nxt
        self.__dict__.update(project=project, evaluate=evaluate, terms=tuple(poly.items()))

    def value(self, x: Point) -> Scalar:
        base = self.project(x)
        evaluate = self.evaluate
        total = 0
        for e, c in self.terms:
            total += c * evaluate(base + e)
        return exact(total)


def _chain(f: PointFunction, hs: tuple[Point, ...]) -> _Expansion:
    """The evaluator of the mixed difference over checked ``hs``. A
    ``Composite`` ``K(a(.))``, or a ``Scaled`` one (the difference is
    linear, so the factor scales every coefficient), is keyed by the
    scalars ``a(h)`` along one line; any other function by the points
    ``h``. Every difference and probe gets its keys here."""
    factor = 1
    if type(f) is Scaled and type(f.inner) is Composite:
        f, factor = f.inner, f.factor
    if type(f) is Composite:
        return _Expansion(map(f.functional, hs), 0, f.functional, f.kernel.apply, factor)
    return _Expansion(hs, ZERO, lambda x: x, f.value)


def forward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed forward difference over ``hs`` at ``x``, by the expansion
    ``_chain`` keys for ``f``."""
    return _chain(f, _checked(hs)).value(x)


def forward_diff_closed(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Same value via the alternating sum over all subsets of ``hs``: the
    signed rows of ``difference_table``, never ``_Expansion``."""
    return sum(row.sign * row.value for row in difference_table(f, x, hs))


def backward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed backward difference over ``hs`` at ``x``: the forward
    difference at ``x - sum(hs)``. A point-keyed expansion reads ``f`` at
    the points the backward recursion ``g(x) - g(x - h)`` would, in the
    order it would first read them (by induction on the increments)."""
    hs = _checked(hs)
    base = point_combine(((1, x), *((-1, h) for h in hs)))
    return _chain(f, hs).value(base)


class TableRow(NamedTuple):
    """One evaluation of the subset-sum expansion: sign * f(point)."""

    size: int
    point: Point
    value: Scalar
    sign: int


def difference_table(f: PointFunction, x: Point, hs: Increments) -> tuple[TableRow, ...]:
    """All 2^k evaluations of the expansion, grouped by subset size
    descending, subsets in index-lexicographic order within a group."""
    hs = _checked(hs)
    k = len(hs)
    return tuple(
        TableRow(len(subset), p, f.value(p), -1 if (k - len(subset)) % 2 else 1)
        for subset, p in subset_sums(x, hs)
    )


def group_sums(rows: Iterable[TableRow]) -> list[tuple[int, int, Scalar]]:
    """``(size, sign, sum of the values)`` for each run of equal sizes in
    ``rows``, a ``difference_table``, in table order."""
    out = []
    for size, group in groupby(rows, attrgetter("size")):
        group = list(group)
        out.append((size, group[0].sign, sum(row.value for row in group)))
    return out


class Violation(NamedTuple):
    """A sample at which the probed difference is negative. Its
    2^(n+1)-row table is ``difference_table(f, x, increments)``."""

    index: int
    x: Point
    increments: tuple[Point, ...]
    value: Scalar


def jensen_convexity_probe(
    f: PointFunction, n: int, samples: Iterable[tuple[Point, Point]]
) -> tuple[Violation, ...]:
    """The samples at which the (n+1)-fold equal-increment difference over
    the given (x, h) pairs is negative; see ``wright_convexity_probe``."""
    return wright_convexity_probe(f, n, ((x, (h,) * (n + 1)) for x, h in samples))


def wright_convexity_probe(
    f: PointFunction, n: int, samples: Iterable[tuple[Point, Sequence[Point]]]
) -> tuple[Violation, ...]:
    """The samples at which the mixed (n+1)-increment forward difference
    over the given (x, hs) pairs is negative. A sample that cannot be
    evaluated stops the probe with the error ``forward_diff`` would raise
    there (``UntabulatedPoint`` off a table's domain). Samples with the
    same increments share one expansion for the length of this call; the
    increments are checked when their expansion is built, since equal
    tuples hold equal points."""
    violations: list[Violation] = []
    chains: dict[tuple[Point, ...], _Expansion] = {}
    for index, (x, hs) in enumerate(samples):
        hs = tuple(hs)
        if len(hs) != n + 1:
            raise InvalidIncrement(
                f"sample {index}: expected {n + 1} increments, got {len(hs)}"
            )
        chain = chains.get(hs)
        if chain is None:
            for h in hs:
                check_increment(h)
            chain = chains[hs] = _chain(f, hs)
        v = chain.value(x)
        if v < 0:
            violations.append(Violation(index, x, hs, v))
    return tuple(violations)
