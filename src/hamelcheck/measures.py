"""Atomic signed measures as lazy expression trees with exact pointwise
atom-mass evaluation.

Closure nodes have infinite support, so measures are never materialized.
Each node evaluates on coordinate tuples over its basis, the sorted symbols
of its subtree's points; a closure walks a chain of translates whose length
is read off the support floor, and memoises its masses, keyed by tuples
over its own basis, for as long as the node lives.
"""

from __future__ import annotations

from operator import ge, itemgetter, sub
from typing import NamedTuple, Sequence

from .basis import (
    ZERO, Frozen, Point, Scalar, Symbol, check_increment, exact, is_positive_increment,
    subset_sums, unit,
)
from .errors import InvalidIncrement, NonTerminatingJ


def _coords(basis: Sequence[Symbol], p: Point) -> tuple[Scalar, ...]:
    get = dict(p.terms).get
    return tuple([get(s, 0) for s in basis])


def _picker(idx: list[int]) -> itemgetter:
    """An itemgetter of the positions ``idx`` that returns a tuple: a slice
    when they run consecutively (none, one, or the whole basis)."""
    lo = idx[0] if idx else 0
    run = idx == list(range(lo, lo + len(idx)))
    return itemgetter(slice(lo, lo + len(idx))) if run else itemgetter(*idx)


class MeasureExpr(Frozen):
    """Base class. `support_floor` bounds every support coordinate below.
    Over `_basis`, `_own` is the node's atom or step and `_floor` its floor
    as tuples. `_edges` holds `(child, keep, drop, zeros)` per child: a tuple
    `v` has child mass only if `drop(v) == zeros`, and the child sees `keep(v)`."""

    support_floor: Point

    def _fill(self, children: Sequence[MeasureExpr], own: Point = ZERO, **fields) -> None:
        basis = tuple(sorted(set(own.support).union(*(c._basis for c in children))))
        edges = []
        for child in children:
            keep = [i for i, s in enumerate(basis) if s in child._basis]
            drop = [i for i, s in enumerate(basis) if s not in child._basis]
            edges.append((child, _picker(keep), _picker(drop), (0,) * len(drop)))
        self.__dict__.update(
            fields, _basis=basis, _own=_coords(basis, own), _edges=tuple(edges),
            _floor=_coords(basis, fields["support_floor"]),
        )


class Dirac(MeasureExpr):
    """Unit atom at a point."""

    point: Point

    def __init__(self, point: Point):
        self._fill((), point, point=point, support_floor=point)


class Shift(MeasureExpr):
    """Translation: mass at x taken from the inner measure at x - step."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise InvalidIncrement(f"shift step must be a positive increment: {step}")
        self._fill([inner], step, inner=inner, step=step, support_floor=inner.support_floor + step)


class Sum(MeasureExpr):
    terms: tuple[MeasureExpr, ...]

    def __init__(self, terms: tuple[MeasureExpr, ...]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("sum of measures needs at least one term")
        floors = [t.support_floor for t in terms]
        low = {s: min(g.coordinate(s) for g in floors) for f in floors for s in f.support}
        self._fill(terms, terms=terms, support_floor=Point(low))


class Scale(MeasureExpr):
    factor: Scalar
    inner: MeasureExpr

    def __init__(self, factor: Scalar, inner: MeasureExpr):
        self._fill([inner], factor=exact(factor), inner=inner, support_floor=inner.support_floor)


class JClosure(MeasureExpr):
    """Geometric-series closure: the sum of all nonnegative-integer
    multiples of ``step`` applied as translations."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise NonTerminatingJ(f"closure step must be a positive increment: {step}")
        # Support only grows upward, so the inner floor is exact.
        self._fill(
            [inner], step, inner=inner, step=step, support_floor=inner.support_floor, _memo={}
        )


def atom_mass(mu: MeasureExpr, x: Point) -> Scalar:
    """Exact signed mass of the atom of ``mu`` at ``x``.

    Closure nodes sum finitely many translates: each step lowers some
    coordinate, and below the support floor every mass is zero.
    """
    coords = dict(x.terms)
    v = tuple([coords.pop(s, 0) for s in mu._basis])
    # Every atom lies in the span of the basis, so a point off it has none.
    return 0 if coords else _mass(mu, v)


def _mass(mu: MeasureExpr, x: tuple[Scalar, ...]) -> Scalar:
    kind = type(mu)
    if kind is Dirac:
        return 1 if x == mu._own else 0
    if kind is Shift:
        (inner, keep, drop, zeros), = mu._edges
        x = tuple(map(sub, x, mu._own))
        return _mass(inner, keep(x)) if drop(x) == zeros else 0
    if kind is Scale:
        return mu.factor * _mass(mu.inner, x) if mu.factor else 0
    if kind is Sum:
        out = 0
        for t, keep, drop, zeros in mu._edges:
            if drop(x) == zeros:
                out += _mass(t, keep(x))
        return out
    if kind is JClosure:
        return _closure_mass(mu, x)
    raise TypeError(f"not a measure expression: {mu!r}")


def _closure_mass(mu: JClosure, x: tuple[Scalar, ...]) -> Scalar:
    """J(x) = inner(x) + J(x - step), and J = 0 below the support floor, so
    the walk from x takes ``min((x_i - floor_i) // step_i)`` steps over the
    step's nonzero coordinates. It stops at a memoised point, then adds
    upward, so Python recursion does not deepen with the translates."""
    memo = mu._memo
    total = memo.get(x)
    if total is not None:
        return total
    floor, step = mu._floor, mu._own
    if not all(map(ge, x, floor)):
        return 0
    pending = [x]
    for _ in range(min([(c - f) // s for c, f, s in zip(x, floor, step) if s])):
        x = tuple(map(sub, x, step))
        total = memo.get(x)
        if total is not None:
            break
        pending.append(x)
    else:
        total = 0
    (inner, keep, drop, zeros), = mu._edges
    for p in reversed(pending):
        if drop(p) == zeros:
            total += _mass(inner, keep(p))
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
