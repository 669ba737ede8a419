"""Mixed higher-order forward/backward differences and convexity probes.

Every mixed difference over ``hs`` is one expansion: the terms ``{e: c}``
of ``prod((z**h - 1) for h in hs)``, multiplied out one run of equal
adjacent increments at a time (a run of m is one binomial row) with equal
keys merged, give the value ``sum(c * f(x + e))``. Each run is charged to
the work meter before it is multiplied out, since every term is built
before the first read. ``_chain`` alone chooses the keys, by the
function's type, and each expansion reads the one function it is built
for. A ``Composite`` ``f = K(a(.))`` is keyed by the scalars ``a(h)``, so
the sum runs along one line: ``sum(c * K(a(x) + e))``. Any other function
is keyed by the points ``h`` as coordinate tuples over one basis, the
sorted symbols of the increments and the base point, and read through
``value`` once at each distinct subset sum, at the point
``Point.from_coords`` builds from its tuple. That point keeps the tuple,
so a reader over the same basis needs no conversion. The expansion holds
no memo of values. The alternating subset-sum expansion is the independent
oracle, on ``Point``s: ``difference_rows`` alone signs its rows,
``group_sums`` alone totals them by subset size, and
``forward_diff_closed`` sums the signed rows. The backward difference is
not a further route: it is the forward difference at ``x - sum(hs)``.
"""

from __future__ import annotations

from itertools import groupby
from operator import add, attrgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .basis import (
    ZERO, AdditiveFunctional, Frozen, Point, Scalar, Symbol, check_increment, exact,
    point_combine, subset_sums,
)
from .errors import InvalidIncrement, charge
from .functions import Composite, PointFunction

Increments = Sequence[Point]


def _checked(hs: Increments) -> tuple[Point, ...]:
    hs = tuple(hs)
    if not hs:
        raise InvalidIncrement("increment list must be nonempty")
    for h in hs:
        check_increment(h)
    return hs


class _Expansion(Frozen):
    """The mixed difference as one expansion: ``prod(z**s - 1)`` over the
    steps ``s``, multiplied out one run of equal adjacent steps at a time
    into terms ``{e: c}``, has the value ``sum(c * f(x + e))`` at ``x``.
    The keys are scalars along one line (`_Line`) or coordinate tuples over
    one basis (`_Points`). Cancelled terms are kept, so the value reads
    every distinct subset sum exactly once, in the order the recursive
    operator ``g(x + h) - g(x)`` (first increment outermost) first reads
    it. A run of m equal steps times the terms so far gives up to
    ``len(poly) * (m + 1)`` keys of up to m more bits, charged a unit per
    key and one more per 4 KiB (unmetered, 80,000 equal steps took 7.8 s
    and 1.2 GiB). Each subclass gives its keys' ``_times(j, s)``, the
    multiple ``j * s`` of a step, and ``_plus(e, t)``, their sum."""

    terms: tuple[tuple[object, Scalar], ...]

    def __init__(self, steps: Iterable, zero: object, **fields):
        times, plus = self._times, self._plus
        poly: dict = {zero: 1}
        for s, run in groupby(steps):
            # (z**s - 1)**m has the row (-1)**(m - j) * C(m, j) at z**(j*s),
            # j = m..0, each entry from the one before; the j = 0 entry is
            # left in b and keeps e itself as its key. A new key under a
            # multiplier of 1 takes the row's own coefficient, not a copy.
            m = sum(1 for _ in run)
            charge(len(poly) * (m + 1) * (1 + (m >> 15)), "difference expansion")
            row, b = [], 1
            for j in range(m, 0, -1):
                row.append((times(j, s), b))
                b = -b * j // (m - j + 1)
            nxt: dict = {}
            for e, c in poly.items():
                for t, bj in row:
                    up = plus(e, t)
                    old = nxt.get(up)
                    nxt[up] = (bj if c == 1 else c * bj) if old is None else old + c * bj
                nxt[e] = nxt.get(e, 0) + c * b
            poly = nxt
            del row
        self.__dict__.update(fields, terms=tuple(poly.items()))


class _Line(_Expansion):
    """A ``Composite`` ``K(a(.))`` keyed by the scalars ``a(h)``: the value
    at ``x`` is ``sum(c * K(a(x) + e))``."""

    project: AdditiveFunctional
    evaluate: Callable[[Scalar], Scalar]
    _times, _plus = staticmethod(mul), staticmethod(add)

    def __init__(self, f: Composite, hs: tuple[Point, ...]):
        super().__init__(map(f.functional, hs), 0,
                         project=f.functional, evaluate=f.kernel.apply)

    def value(self, x: Point) -> Scalar:
        base = self.project(x)
        evaluate = self.evaluate
        total = 0
        for e, c in self.terms:
            total += c * evaluate(base + e)
        return exact(total)


class _Points(_Expansion):
    """The function ``f`` keyed by the increments as coordinate tuples
    over ``basis``, the sorted symbols of the increments, of a base point
    and of ``wider``: the value at ``x`` is ``sum(c * f(x + e))``, read at
    the point ``Point.from_coords`` builds from each key shifted by the
    tuple of ``x``. A base point off that basis has no value here: the
    probe builds a wider expansion for it."""

    basis: tuple[Symbol, ...]
    f: PointFunction
    _times = staticmethod(lambda j, s: tuple([j * c for c in s]))
    _plus = staticmethod(lambda e, t: tuple(map(add, e, t)))

    def __init__(self, f: PointFunction, hs: tuple[Point, ...], x: Point,
                 wider: tuple[Symbol, ...] = ()):
        basis = tuple(sorted({*wider, *(s for p in (x, *hs) for s, _ in p.terms)}))
        steps = {h: h.coords(basis) for h in dict.fromkeys(hs)}
        super().__init__(map(steps.__getitem__, hs), (0,) * len(basis), basis=basis, f=f)

    def value(self, x: Point) -> Scalar:
        basis = self.basis
        base = x.coords(basis)
        shift = any(base)
        read = self.f.value
        total = 0
        for e, c in self.terms:
            total += c * read(Point.from_coords(basis, map(add, base, e) if shift else e))
        return exact(total)


def _chain(f: PointFunction, hs: tuple[Point, ...], x: Point = ZERO) -> _Line | _Points:
    """The evaluator of the mixed difference over checked ``hs``, for base
    points like ``x``. A ``Composite`` ``K(a(.))`` is keyed by the scalars
    ``a(h)`` along one line; any other function by coordinate tuples.
    Every difference and probe gets its keys here."""
    if type(f) is Composite:
        return _Line(f, hs)
    return _Points(f, hs, x)


def forward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed forward difference over ``hs`` at ``x``, by the expansion
    ``_chain`` keys for ``f``."""
    return _chain(f, _checked(hs), x).value(x)


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
    return _chain(f, hs, base).value(base)


class TableRow(NamedTuple):
    """One evaluation of the subset-sum expansion: sign * f(point)."""

    size: int
    point: Point
    value: Scalar
    sign: int


def difference_rows(f: PointFunction, x: Point, hs: Increments) -> Iterator[TableRow]:
    """All 2^k evaluations of the expansion, one row at a time as
    ``subset_sums`` yields its point, grouped by subset size descending,
    subsets in index-lexicographic order within a group. The 2^k rows are
    charged to the work meter, a unit a row, before the first is built."""
    hs = _checked(hs)
    k = len(hs)
    charge(1 << k, "difference table")
    for subset, p in subset_sums(x, hs):
        yield TableRow(len(subset), p, f.value(p), -1 if (k - len(subset)) % 2 else 1)


def difference_table(f: PointFunction, x: Point, hs: Increments) -> tuple[TableRow, ...]:
    """The rows of ``difference_rows``, all held in one tuple."""
    return tuple(difference_rows(f, x, hs))


def group_sums(rows: Iterable[TableRow]) -> list[tuple[int, int, Scalar]]:
    """``(size, sign, sum of the values)`` for each run of equal sizes in
    ``rows``, the rows of a difference table, in table order; each row is
    summed as it comes, and none is kept."""
    out = []
    for size, group in groupby(rows, attrgetter("size")):
        first = next(group)
        out.append((size, first.sign, sum((row.value for row in group), first.value)))
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
    tuples hold equal points. A sample off a point-keyed expansion's basis
    replaces it with one over that basis widened by the sample's symbols,
    so each increment tuple is rebuilt at most once per new symbol."""
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
            chain = chains[hs] = _chain(f, hs, x)
        elif type(chain) is _Points and x.coords(chain.basis) is None:
            chain = chains[hs] = _Points(chain.f, hs, x, chain.basis)
        v = chain.value(x)
        if v < 0:
            violations.append(Violation(index, x, hs, v))
    return tuple(violations)
