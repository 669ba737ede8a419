"""Mixed higher-order forward/backward differences and convexity probes.

Two independent evaluation routes are kept side by side: the recursive
operator definition (primary) and the alternating subset-sum expansion
(oracle). Tests hold them equal. The backward difference is not a third
route: it is the recursive forward difference at ``x - sum(hs)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .basis import Point, Scalar, check_increment, subset_sums
from .errors import InvalidIncrement, UntabulatedPoint
from .functions import PointFunction

Increments = Sequence[Point]


def _checked(hs: Increments) -> tuple[Point, ...]:
    hs = tuple(hs)
    if not hs:
        raise InvalidIncrement("increment list must be nonempty")
    for h in hs:
        check_increment(h)
    return hs


@dataclass(frozen=True, eq=False)
class _Step(PointFunction):
    """One level of the operator chain: ``inner(x + step) - inner(x)``.
    ``memo`` is a ``{Point: Scalar}`` dict when the chain's increments
    repeat, so that the coinciding subset sums below this level are
    evaluated once; otherwise it is None."""

    inner: PointFunction
    step: Point
    memo: dict[Point, Scalar] | None

    def value(self, x: Point) -> Scalar:
        memo = self.memo
        if memo is None:
            return self.inner.value(x + self.step) - self.inner.value(x)
        v = memo.get(x)
        if v is None:
            # Stored only once computed: a raise leaves no entry behind.
            v = memo[x] = self.inner.value(x + self.step) - self.inner.value(x)
        return v


def _chain(f: PointFunction, hs: tuple[Point, ...]) -> _Step:
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


def forward_diff(f: PointFunction, x: Point, hs: Increments) -> Scalar:
    """Mixed forward difference over ``hs`` at ``x``, by the recursive
    definition: the last increment is applied innermost."""
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
    difference at ``x - sum(hs)``. By induction on the levels it evaluates
    ``f`` at the same points, in the same order, as the backward
    recursion ``g(x) - g(x - h)`` would."""
    hs = _checked(hs)
    base = x
    for h in hs:
        base = base - h
    return _chain(f, hs).value(base)


def equal_increment_diff(f: PointFunction, x: Point, h: Point, m: int) -> Scalar:
    """m-fold forward difference with the single increment ``h``."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    return forward_diff(f, x, (h,) * m)


@dataclass(frozen=True)
class TableRow:
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


@dataclass(frozen=True)
class Violation:
    index: int
    x: Point
    increments: tuple[Point, ...]
    value: Scalar
    function: PointFunction

    @cached_property
    def table(self) -> tuple[TableRow, ...]:
        """All 2^k evaluations at this sample, built on first read; a
        probe that only counts violations never pays for them."""
        return difference_table(self.function, self.x, self.increments)


@dataclass(frozen=True)
class SkippedSample:
    index: int
    x: Point
    increments: tuple[Point, ...]
    reason: str


@dataclass(frozen=True)
class ProbeOutcome:
    violations: tuple[Violation, ...]
    skipped: tuple[SkippedSample, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def jensen_convexity_probe(
    f: PointFunction, n: int, samples: Iterable[tuple[Point, Point]]
) -> ProbeOutcome:
    """Check the (n+1)-fold equal-increment difference >= 0 on the given
    (x, h) samples; untabulated samples are skipped with a record."""
    return wright_convexity_probe(f, n, ((x, (h,) * (n + 1)) for x, h in samples))


def wright_convexity_probe(
    f: PointFunction, n: int, samples: Iterable[tuple[Point, Sequence[Point]]]
) -> ProbeOutcome:
    """Check the mixed (n+1)-increment forward difference >= 0 on the
    given (x, hs) samples. Samples with the same increments share one
    operator chain, and so its level memos, for the length of this call."""
    violations: list[Violation] = []
    skipped: list[SkippedSample] = []
    chains: dict[tuple[Point, ...], _Step] = {}
    for index, (x, hs) in enumerate(samples):
        hs = tuple(hs)
        if len(hs) != n + 1:
            raise InvalidIncrement(
                f"sample {index}: expected {n + 1} increments, got {len(hs)}"
            )
        for h in hs:
            check_increment(h)
        chain = chains.get(hs)
        if chain is None:
            chain = chains[hs] = _chain(f, hs)
        try:
            v = chain.value(x)
        except UntabulatedPoint as exc:
            skipped.append(SkippedSample(index, x, hs, str(exc)))
            continue
        if v < 0:
            violations.append(Violation(index, x, hs, v, f))
    return ProbeOutcome(tuple(violations), tuple(skipped))
