"""Atomic signed measures as lazy expression trees with exact pointwise
atom-mass evaluation.

Closure nodes have infinite support, so measures are never materialized;
every query is a finite representation count, bounded through per-symbol
lower bounds on each subtree's support. Each closure node memoises the
masses it has computed for as long as the node lives.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .basis import (
    Frozen, Point, Scalar, Symbol, check_increment, exact, is_positive_increment,
    subset_sums, unit,
)
from .errors import InvalidIncrement, NonTerminatingJ


class MeasureExpr(Frozen):
    """Base class; `support_floor` bounds every support coordinate below."""

    support_floor: Point


class Dirac(MeasureExpr):
    """Unit atom at a point."""

    point: Point

    def __init__(self, point: Point):
        self.__dict__.update(point=point, support_floor=point)


class Shift(MeasureExpr):
    """Translation: mass at x taken from the inner measure at x - step."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise InvalidIncrement(f"shift step must be a positive increment: {step}")
        self.__dict__.update(
            inner=inner, step=step, support_floor=inner.support_floor + step
        )


class Sum(MeasureExpr):
    terms: tuple[MeasureExpr, ...]

    def __init__(self, terms: tuple[MeasureExpr, ...]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("sum of measures needs at least one term")
        floors = [t.support_floor for t in terms]
        syms = {s for f in floors for s, _ in f.terms}
        low = {s: min(f.coordinate(s) for f in floors) for s in syms}
        self.__dict__.update(terms=terms, support_floor=Point(low))


class Scale(MeasureExpr):
    factor: Scalar
    inner: MeasureExpr

    def __init__(self, factor: Scalar, inner: MeasureExpr):
        self.__dict__.update(
            factor=exact(factor), inner=inner, support_floor=inner.support_floor
        )


class JClosure(MeasureExpr):
    """Geometric-series closure: the sum of all nonnegative-integer
    multiples of ``step`` applied as translations."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise NonTerminatingJ(f"closure step must be a positive increment: {step}")
        # Support only grows upward, so the inner floor is exact. ``_memo``
        # maps Point -> mass of this closure, filled by _closure_mass.
        self.__dict__.update(
            inner=inner, step=step, support_floor=inner.support_floor, _memo={}
        )


def atom_mass(mu: MeasureExpr, x: Point) -> Scalar:
    """Exact signed mass of the atom of ``mu`` at ``x``.

    Closure nodes sum finitely many translates: each step lowers some
    coordinate, and below the support floor every mass is zero.
    """
    return _mass(mu, x)


def _mass(mu: MeasureExpr, x: Point) -> Scalar:
    kind = type(mu)
    if kind is Dirac:
        return 1 if x == mu.point else 0
    if kind is Shift:
        return _mass(mu.inner, x - mu.step)
    if kind is Scale:
        return mu.factor * _mass(mu.inner, x) if mu.factor else 0
    if kind is Sum:
        out = 0
        for t in mu.terms:
            out += _mass(t, x)
        return out
    if kind is JClosure:
        return _closure_mass(mu, x)
    raise TypeError(f"not a measure expression: {mu!r}")


def _closure_mass(mu: JClosure, x: Point) -> Scalar:
    """J(x) = inner(x) + J(x - step), and J = 0 at any point that is not at
    or above the support floor in every coordinate. Walks down to a
    memoised point or off the floor, then adds upward, so the depth of
    Python recursion does not grow with the number of translates."""
    memo = mu._memo
    floor = mu.support_floor
    pending: list[Point] = []
    p = x
    while p not in memo and all(c > 0 for _, c in (p - floor).terms):
        pending.append(p)
        p = p - mu.step
    total = memo.get(p, 0)
    for p in reversed(pending):
        total += _mass(mu.inner, p)
        memo[p] = total
    return total


def nabla(mu: MeasureExpr, hs: Sequence[Point]) -> MeasureExpr:
    """Iterated difference against the shift: fold of mu - shift(mu, h)."""
    acc = mu
    for h in hs:
        check_increment(h)
        acc = Sum((acc, Scale(-1, Shift(acc, h))))
    return acc


def j_op(nu: MeasureExpr, hs: Sequence[Point]) -> MeasureExpr:
    """Nested closures in the given order; the first increment is outermost."""
    acc = nu
    for h in reversed(tuple(hs)):
        acc = JClosure(acc, h)
    return acc


def _unit_increments(syms: Sequence[Symbol]) -> list[Point]:
    if len(set(syms)) != len(syms):
        raise ValueError("basis symbols must be distinct")
    pts = [unit(s) for s in syms]
    for p in pts:
        check_increment(p)
    return pts


def build_mu_i(i: int, syms: Sequence[Symbol]) -> MeasureExpr:
    """Closure of the unit atom at the i-th symbol (1-based) over all of
    the given symbols."""
    if not 1 <= i <= len(syms):
        raise ValueError(f"index {i} out of range 1..{len(syms)}")
    pts = _unit_increments(syms)
    return j_op(Dirac(pts[i - 1]), pts)


def signed_sum(mus: Sequence[MeasureExpr]) -> MeasureExpr:
    """The signed combination of the closures mu_1..mu_(n+1): every one
    but the first, minus the first."""
    return Sum(tuple(mus[1:]) + (Scale(-1, mus[0]),))


def build_mu(syms: Sequence[Symbol]) -> MeasureExpr:
    """Signed combination: the closures of atoms 2..n+1 minus the first."""
    return signed_sum([build_mu_i(i, syms) for i in range(1, len(syms) + 1)])


class ASets(NamedTuple):
    """The 0/1-combination evaluation sets: one per symbol plus the union."""

    sets: tuple[frozenset[Point], ...]
    union: frozenset[Point]


def build_a_sets(syms: Sequence[Symbol]) -> ASets:
    """Enumerate, for each symbol, its unit point plus every 0/1
    combination of the others, and the union over all symbols."""
    pts = _unit_increments(syms)
    parts = [
        frozenset(p for _, p in subset_sums(base, pts[:i] + pts[i + 1:]))
        for i, base in enumerate(pts)
    ]
    return ASets(tuple(parts), frozenset().union(*parts))


def sorted_points(points: Iterable[Point]) -> list[Point]:
    """Deterministic ordering for reports and quantified checks."""
    return sorted(points, key=lambda p: tuple((s.name, c) for s, c in p.terms))
