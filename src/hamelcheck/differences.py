"""Mixed higher-order forward/backward differences and convexity probes.

Three independent evaluation routes are kept side by side, and tests hold
them equal. A ``Composite`` ``f = K(a(.))``, or ``c * f`` as ``Scaled``,
takes the scalar-line route: its mixed difference over ``hs`` at ``x`` is
``sum(c_e * K(a(x) + e))``, where ``{e: c_e}`` are the terms of
``c * prod((z**a(h) - 1) for h in hs)`` (``c = 1`` for a bare
``Composite``). Every other function takes the recursive operator
definition. The alternating subset-sum expansion is the oracle, and the
only route behind ``difference_table``. ``_chain`` alone chooses the
route, by the function's type. The backward difference is not a further
route: it is the forward difference at ``x - sum(hs)``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .basis import Frozen, Point, Scalar, check_increment, exact, point_combine, subset_sums
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


class _Step(PointFunction, Frozen):
    """One level of the operator chain: ``inner(x + step) - inner(x)``.
    ``memo`` is a ``{Point: Scalar}`` dict when the chain's increments
    repeat, so that the coinciding subset sums below this level are
    evaluated once; otherwise it is None."""

    inner: PointFunction
    step: Point
    memo: dict[Point, Scalar] | None

    def __init__(self, inner: PointFunction, step: Point, memo: dict[Point, Scalar] | None):
        self.__dict__.update(inner=inner, step=step, memo=memo)

    def value(self, x: Point) -> Scalar:
        memo = self.memo
        if memo is None:
            return self.inner.value(x + self.step) - self.inner.value(x)
        v = memo.get(x)
        if v is None:
            # Stored only once computed: a raise leaves no entry behind.
            v = memo[x] = self.inner.value(x + self.step) - self.inner.value(x)
        return v


class _Line(PointFunction, Frozen):
    """The scalar-line route for ``f = K(a(.))``, or a multiple of it: the
    mixed difference at ``x`` is ``sum(c * K(a(x) + e) for e, c in terms)``,
    where the coefficients ``c`` carry the multiple. An increment off
    the functional's support (``a(h) = 0``) cancels every term, and the
    value is 0."""

    f: Composite
    terms: tuple[tuple[Scalar, Scalar], ...]

    def __init__(self, f: Composite, terms: tuple[tuple[Scalar, Scalar], ...]):
        self.__dict__.update(f=f, terms=terms)

    def value(self, x: Point) -> Scalar:
        t = self.f.functional(x)
        apply = self.f.kernel.apply
        total = 0
        for e, c in self.terms:
            total += c * apply(t + e)
        return exact(total)


def _line(f: Composite, hs: tuple[Point, ...], factor: Scalar = 1) -> _Line:
    """The terms ``{e: factor * c}`` of ``factor * prod(z**a(h) - 1)`` over
    ``hs``, one increment at a time, with cancelled terms dropped; a zero
    factor leaves no terms."""
    if not factor:
        return _Line(f, ())
    poly: dict[Scalar, int] = {0: 1}
    for h in hs:
        s = f.functional(h)
        nxt: dict[Scalar, int] = {}
        for e, c in poly.items():
            up = exact(e + s)
            nxt[up] = nxt.get(up, 0) + c
            nxt[e] = nxt.get(e, 0) - c
        poly = {e: c for e, c in nxt.items() if c}
    return _Line(f, tuple((e, c * factor) for e, c in poly.items()))


def _recursive(f: PointFunction, hs: tuple[Point, ...]) -> _Step:
    """The recursive operator over checked ``hs``, last increment innermost.

    With a repeated increment, k levels see O(k^2) distinct points instead
    of 2^k, so each level memoises. With pairwise-distinct increments the
    points seldom coincide and a memo would only add hashing.
    """
    memoise = len(set(hs)) < len(hs)
    g = f
    for h in reversed(hs):
        g = _Step(g, h, {} if memoise else None)
    return g


def _chain(f: PointFunction, hs: tuple[Point, ...]) -> PointFunction:
    """The evaluator of the mixed difference over checked ``hs``: the
    scalar-line route for a ``Composite`` or a ``Scaled`` one (the
    difference is linear, so the factor scales every coefficient), the
    recursive operator for any other function. Every difference and probe
    gets its route here."""
    if type(f) is Composite:
        return _line(f, hs)
    if type(f) is Scaled and type(f.inner) is Composite:
        return _line(f.inner, hs, f.factor)
    return _recursive(f, hs)


def forward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed forward difference over ``hs`` at ``x``, by the route
    ``_chain`` chooses for ``f``."""
    return _chain(f, _checked(hs)).value(x)


def forward_diff_closed(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Same value via the alternating sum over all subsets of ``hs``."""
    hs = _checked(hs)
    k = len(hs)
    total = 0
    for size, p in subset_sums(x, hs):
        v = f.value(p)
        total += -v if (k - size) % 2 else v
    return total


def backward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed backward difference over ``hs`` at ``x``: the forward
    difference at ``x - sum(hs)``. On the recursive route it evaluates
    ``f`` at the same points, in the same order, as the backward
    recursion ``g(x) - g(x - h)`` would (by induction on the levels)."""
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
        TableRow(size, p, f.value(p), -1 if (k - size) % 2 else 1)
        for size, p in subset_sums(x, hs)
    )


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
    same increments share one chain (its line terms, or its level memos)
    for the length of this call; the increments are checked when their
    chain is built, since equal tuples hold equal points."""
    violations: list[Violation] = []
    chains: dict[tuple[Point, ...], PointFunction] = {}
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
