"""Atomic signed measures as one linear form over closure leaves, with
exact pointwise atom-mass evaluation.

Closure nodes have infinite support, so measures are never materialized.
Every node works on coordinate tuples over its basis, the sorted symbols
of its subtree's points, and is folded at construction into one linear
form there: merged atoms, plus merged closure leaves, each at an offset
and with a weight. The support floor is folded with the form, as the
minimum of the parts' floors in the same tuples, translated with them.
`Shift`, `Scale` and `Sum` only build forms, so a query reads the atoms
and walks the closures; nothing recurses through them. A closure's form
describes its inner measure. It walks a chain of translates whose length
is read off the support floor, and memoises its masses, keyed by tuples
over its own basis, for as long as the node lives. A closure is never
cancelled against a difference: it stays a leaf that its walk evaluates.
"""

from __future__ import annotations

from operator import add, ge, itemgetter, sub
from typing import NamedTuple, Sequence

from .basis import (
    ZERO, Frozen, Point, Scalar, Symbol, check_increment, exact, is_positive_increment,
    subset_sums, unit,
)
from .errors import InvalidIncrement, NonTerminatingJ


def _coords(basis: Sequence[Symbol], terms) -> tuple[Scalar, ...]:
    """The ``(symbol, coordinate)`` pairs ``terms`` as a tuple over ``basis``."""
    get = dict(terms).get
    return tuple([get(s, 0) for s in basis])


def _picker(idx: list[int]) -> itemgetter:
    """An itemgetter of the positions ``idx`` that returns a tuple: a slice
    when they run consecutively (none, one, or the whole basis)."""
    lo = idx[0] if idx else 0
    run = idx == list(range(lo, lo + len(idx)))
    return itemgetter(slice(lo, lo + len(idx))) if run else itemgetter(*idx)


def _lift(basis: tuple[Symbol, ...], part: tuple[Symbol, ...], t: tuple[Scalar, ...]):
    """``t`` over ``part``, a subset of ``basis``, as the tuple over
    ``basis`` that is zero on every other symbol."""
    return t if part == basis else _coords(basis, zip(part, t))


def _plus(a: tuple[Scalar, ...] | None, b: tuple[Scalar, ...] | None):
    """The sum of two offsets; None is the zero offset."""
    if a is None or b is None:
        return b if a is None else a
    return tuple(map(add, a, b))


class MeasureExpr(Frozen):
    """Base class. Over `_basis`, `_own` is the node's atom or step and
    `_floor` bounds every support coordinate below, as tuples, and
    `_atoms` and `_terms` are its linear form (a closure's describes its
    inner measure). The mass at `v` is `_atoms.get(v, 0)` plus, for each
    term `(closure, offset, keep, drop, zeros, c)` with `w = v - offset`
    (`v` itself when `offset` is None) and `drop(w) == zeros`, `c` times
    the closure's mass at `keep(w)`."""

    @property
    def support_floor(self) -> Point:
        """The floor as a point: no support coordinate lies below it."""
        return Point(zip(self._basis, self._floor))

    def _fill(
        self, parts: Sequence[tuple[Scalar, MeasureExpr | None]], own: Point = ZERO,
        shift: bool = False, **fields,
    ) -> None:
        """Fold ``Σ c·child`` over ``parts`` into this node's form,
        translated by ``own`` when ``shift``. A child of None is the unit
        atom at the origin, and a closure child is one term. The floor is
        the coordinatewise minimum of the parts' floors (the unit atom's
        is 0; a closure's is its inner's, since its support only grows
        upward), translated likewise."""
        bases = (child._basis for _, child in parts if child is not None)
        basis = tuple(sorted(set(own.support).union(*bases)))
        own_coords = _coords(basis, own.terms)
        offset = own_coords if shift else None
        floors = [
            (0,) * len(basis) if child is None else _lift(basis, child._basis, child._floor)
            for _, child in parts
        ]
        floor = _plus(tuple(map(min, zip(*floors))), offset)
        atoms: dict[tuple[Scalar, ...], Scalar] = {}
        terms: dict[tuple[JClosure, tuple[Scalar, ...] | None], Scalar] = {}
        for c, child in parts:
            if child is None:
                atoms[offset] = atoms.get(offset, 0) + c
                continue
            if type(child) is JClosure:
                key = child, offset
                terms[key] = terms.get(key, 0) + c
                continue
            part = child._basis
            for v, w in child._atoms.items():
                key = _plus(_lift(basis, part, v), offset)
                atoms[key] = atoms.get(key, 0) + c * w
            for closure, off, *_, w in child._terms:
                key = closure, _plus(None if off is None else _lift(basis, part, off), offset)
                terms[key] = terms.get(key, 0) + c * w
        pickers: dict[JClosure, tuple] = {}
        form = []
        for (closure, off), w in terms.items():
            if not w:
                continue
            pick = pickers.get(closure)
            if pick is None:
                keep = [i for i, s in enumerate(basis) if s in closure._basis]
                drop = [i for i, s in enumerate(basis) if s not in closure._basis]
                pick = pickers[closure] = _picker(keep), _picker(drop), (0,) * len(drop)
            form.append((closure, off, *pick, exact(w)))
        self.__dict__.update(
            fields, _basis=basis, _own=own_coords, _floor=floor,
            _atoms={v: exact(w) for v, w in atoms.items() if w} if atoms else atoms,
            _terms=tuple(form),
        )


class Dirac(MeasureExpr):
    """Unit atom at a point."""

    point: Point

    def __init__(self, point: Point):
        self._fill([(1, None)], point, True, point=point)


class Shift(MeasureExpr):
    """Translation: mass at x taken from the inner measure at x - step."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise InvalidIncrement(f"shift step must be a positive increment: {step}")
        self._fill([(1, inner)], step, True, inner=inner, step=step)


class Sum(MeasureExpr):
    terms: tuple[MeasureExpr, ...]

    def __init__(self, terms: tuple[MeasureExpr, ...]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("sum of measures needs at least one term")
        self._fill([(1, t) for t in terms], terms=terms)


class Scale(MeasureExpr):
    factor: Scalar
    inner: MeasureExpr

    def __init__(self, factor: Scalar, inner: MeasureExpr):
        factor = exact(factor)
        self._fill([(factor, inner)], factor=factor, inner=inner)


class JClosure(MeasureExpr):
    """Geometric-series closure: the sum of all nonnegative-integer
    multiples of ``step`` applied as translations."""

    inner: MeasureExpr
    step: Point

    def __init__(self, inner: MeasureExpr, step: Point):
        if not is_positive_increment(step):
            raise NonTerminatingJ(f"closure step must be a positive increment: {step}")
        self._fill([(1, inner)], step, inner=inner, step=step, _memo={})


def atom_mass(mu: MeasureExpr, x: Point) -> Scalar:
    """Exact signed mass of the atom of ``mu`` at ``x``.

    Closure nodes sum finitely many translates: each step lowers some
    coordinate, and below the support floor every mass is zero.
    """
    coords = dict(x.terms)
    v = tuple([coords.pop(s, 0) for s in mu._basis])
    # Every atom lies in the span of the basis, so a point off it has none.
    if coords:
        return 0
    if type(mu) is JClosure:
        return _closure_mass(mu, v)
    total = mu._atoms.get(v, 0)
    for closure, off, keep, drop, zeros, c in mu._terms:
        w = v if off is None else tuple(map(sub, v, off))
        if drop(w) == zeros:
            total += c * _closure_mass(closure, keep(w))
    return total


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
    # The inner form's mass at each pending point, read as in `atom_mass`
    # but inline: a call per translate would cost more than the step.
    atoms, terms = mu._atoms, mu._terms
    for p in reversed(pending):
        if atoms:
            total += atoms.get(p, 0)
        for closure, off, keep, drop, zeros, c in terms:
            w = p if off is None else tuple(map(sub, p, off))
            if drop(w) == zeros:
                total += c * _closure_mass(closure, keep(w))
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
    """The 0/1 combinations of the unit points, enumerated once: ``A_i``
    is the sums whose subset contains index i, and the union is every
    nonempty subset's sum."""
    pts = _unit_increments(syms)
    parts: list[list[Point]] = [[] for _ in pts]
    for subset, p in subset_sums(ZERO, pts):
        for i in subset:
            parts[i].append(p)
    return ASets(tuple(map(frozenset, parts)), frozenset().union(*parts))
