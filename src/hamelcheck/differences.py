"""Mixed higher-order forward/backward differences and convexity probes.

Two independent evaluation routes are kept side by side: the recursive
operator definition (primary) and the alternating subset-sum expansion
(oracle). Tests hold them equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .basis import Point, check_increment
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
class _ForwardStep(PointFunction):
    inner: PointFunction
    step: Point

    def value(self, x: Point) -> Fraction:
        return self.inner.value(x + self.step) - self.inner.value(x)


@dataclass(frozen=True, eq=False)
class _BackwardStep(PointFunction):
    inner: PointFunction
    step: Point

    def value(self, x: Point) -> Fraction:
        return self.inner.value(x) - self.inner.value(x - self.step)


def forward_diff(f: PointFunction, x: Point, hs: Increments) -> Fraction:
    """Mixed forward difference over ``hs`` at ``x``, by the recursive
    definition: the last increment is applied innermost."""
    g = f
    for h in reversed(_checked(hs)):
        g = _ForwardStep(g, h)
    return g.value(x)


def forward_diff_closed(f: PointFunction, x: Point, hs: Increments) -> Fraction:
    """Same value via the alternating sum over all subsets of ``hs``."""
    hs = _checked(hs)
    k = len(hs)
    total = Fraction(0)
    for mask in range(1 << k):
        p = x
        bits = 0
        for i in range(k):
            if mask >> i & 1:
                p = p + hs[i]
                bits += 1
        v = f.value(p)
        total += v if (k - bits) % 2 == 0 else -v
    return total


def backward_diff(f: PointFunction, x: Point, hs: Increments) -> Fraction:
    """Mixed backward difference over ``hs`` at ``x``."""
    g = f
    for h in reversed(_checked(hs)):
        g = _BackwardStep(g, h)
    return g.value(x)


def equal_increment_diff(f: PointFunction, x: Point, h: Point, m: int) -> Fraction:
    """m-fold forward difference with the single increment ``h``."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    return forward_diff(f, x, (h,) * m)


@dataclass(frozen=True)
class TableRow:
    """One evaluation of the subset-sum expansion: sign * f(point)."""

    size: int
    point: Point
    value: Fraction
    sign: int


def difference_table(f: PointFunction, x: Point, hs: Increments) -> tuple[TableRow, ...]:
    """All 2^k evaluations of the expansion, grouped by subset size
    descending, subsets in index-lexicographic order within a group."""
    hs = _checked(hs)
    k = len(hs)
    rows: list[TableRow] = []
    for size in range(k, -1, -1):
        sign = 1 if (k - size) % 2 == 0 else -1
        for combo in combinations(range(k), size):
            p = x
            for i in combo:
                p = p + hs[i]
            rows.append(TableRow(size, p, f.value(p), sign))
    return tuple(rows)


@dataclass(frozen=True)
class Violation:
    index: int
    x: Point
    increments: tuple[Point, ...]
    value: Fraction
    table: tuple[TableRow, ...]


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
    given (x, hs) samples."""
    violations: list[Violation] = []
    skipped: list[SkippedSample] = []
    for index, (x, hs) in enumerate(samples):
        hs = tuple(hs)
        if len(hs) != n + 1:
            raise InvalidIncrement(
                f"sample {index}: expected {n + 1} increments, got {len(hs)}"
            )
        for h in hs:
            check_increment(h)
        try:
            v = forward_diff(f, x, hs)
        except UntabulatedPoint as exc:
            skipped.append(SkippedSample(index, x, hs, str(exc)))
            continue
        if v < 0:
            violations.append(Violation(index, x, hs, v, difference_table(f, x, hs)))
    return ProbeOutcome(tuple(violations), tuple(skipped))
