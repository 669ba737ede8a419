"""Formal basis symbols, exact lattice points, and additive functionals.

Symbols are opaque tokens assumed rationally independent; they are never
tied to real-number values, so every computation downstream is exact.
Every point is built by ``Point.from_coords`` from a coordinate tuple
over a sorted basis, and keeps that tuple. ``Point(pairs)``,
``point_combine`` and ``+`` first sum coefficients per symbol, ``*``
scales the kept tuple, ``subset_sums`` sums tuples directly, and
``box_coords`` writes each coefficient of a box over symbols at its
symbol's position in their sorted basis; ``box_points`` builds its
points from those tuples, and ``sample_box`` returns the tuples. ``+``
and ``*`` are the chained route the tests hold ``point_combine`` to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import InvalidIncrement

Scalar = Union[int, Fraction]


def exact(v) -> Scalar:
    """The canonical form of an exact scalar: ``int`` when integral,
    ``Fraction`` otherwise. Both compare and hash alike, so the form only
    keeps arithmetic on the fast integer path. Every constructor that takes
    a scalar from a caller normalises it here; nothing else decides the
    form."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class Symbol(NamedTuple):
    """An abstract basis symbol with a declared (not computed) sign. The
    sign is part of identity, so a sum of points never depends on which
    operand's flag a shared name keeps. Symbols order by name, then sign."""

    name: str
    positive: bool = False

    def __repr__(self) -> str:
        flag = "+" if self.positive else ""
        return f"Symbol({self.name}{flag})"


class Frozen:
    """Base of the package's immutable classes. A subclass's ``__init__``
    validates its arguments and then fills ``self.__dict__`` once; any later
    assignment or deletion of an attribute raises ``AttributeError``.
    Instances compare by identity unless a subclass defines equality."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        cls = type(self)
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items()
            if not k.startswith("_") and not hasattr(cls, k)
        )
        return f"{cls.__name__}({fields})"


def symbols(names: str, positive: bool = False) -> list[Symbol]:
    """Declare several symbols at once from a whitespace-separated string."""
    return [Symbol(n, positive) for n in names.split()]


class Point:
    """Finitely supported rational coordinate vector over basis symbols.

    Canonical form: zero coefficients are dropped, integral ones are held
    as ``int`` (see ``exact``) and terms are sorted by symbol, so equality
    and hashing are structural. ``Point(pairs)`` sums the coefficients
    given for each symbol and builds the point with ``from_coords``, as
    every other constructor does; every point keeps the tuple it was built
    from for ``coords``, and nothing changes a point once it is built.
    """

    __slots__ = ("_terms", "_hash", "_read")

    def __new__(cls, coords: Mapping[Symbol, Scalar] | Iterable[tuple[Symbol, Scalar]] = ()):
        items = coords.items() if isinstance(coords, Mapping) else coords
        acc: dict[Symbol, Scalar] = {}
        for s, c in items:
            acc[s] = acc.get(s, 0) + exact(c)
        return cls.from_coords(*_sorted_coords(acc))

    @classmethod
    def from_coords(cls, basis: tuple[Symbol, ...], coords: Iterable[Scalar]) -> "Point":
        """The canonical point with coordinates ``coords`` over ``basis``, a
        tuple of distinct symbols in sorted order with one coordinate each.
        Every point is built here. Coordinates that are not all ``int`` go
        through ``exact``, and the zero ones are dropped from the terms. The
        tuple of exact coordinates is kept as the answer of ``coords`` over
        ``basis`` or an equal basis, and never enters equality."""
        v = tuple(coords)
        if {*map(type, v)} - {int}:
            v = tuple(map(exact, v))
        p = object.__new__(cls)
        p._terms = tuple(compress(zip(basis, v), v))
        p._hash = None
        p._read = basis, v
        return p

    @property
    def terms(self) -> tuple[tuple[Symbol, Scalar], ...]:
        return self._terms

    @property
    def support(self) -> tuple[Symbol, ...]:
        return tuple(s for s, _ in self._terms)

    def coords(self, basis: tuple[Symbol, ...]) -> tuple[Scalar, ...] | None:
        """The coordinates as a tuple over ``basis``, or None when the
        support is not inside it: the kept tuple when ``basis`` equals the
        one the point was built over (every point keeps one), None at once
        when the support has more symbols than ``basis``, else a conversion
        that is not kept."""
        built, v = self._read
        if built == basis:
            return v
        if len(self._terms) > len(basis):
            return None
        rest = dict(self._terms)
        v = tuple([rest.pop(s, 0) for s in basis])
        return None if rest else v

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for s, c in other._terms:
            acc[s] = acc.get(s, 0) + c
        return Point.from_coords(*_sorted_coords(acc))

    def __sub__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        return point_combine(((1, self), (-1, other)))

    def __mul__(self, scalar: Scalar) -> "Point":
        q = exact(scalar)
        basis, v = self._read
        return Point.from_coords(basis, [q * c for c in v])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point) and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._terms)
        return h

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for s, c in self._terms:
            mag = -c if c < 0 else c
            t = s.name if mag == 1 else f"{mag}*{s.name}"
            if not parts:
                parts.append(("-" if c < 0 else "") + t)
            else:
                parts.append(("- " if c < 0 else "+ ") + t)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Point({self})"


def _sorted_coords(acc: dict[Symbol, Scalar]) -> tuple[tuple[Symbol, ...], list[Scalar]]:
    """The sorted symbols of a coefficient dict and their coefficients, the
    arguments of ``Point.from_coords``."""
    basis = tuple(sorted(acc))
    return basis, [acc[s] for s in basis]


#: The zero point (empty support).
ZERO = Point.from_coords((), ())


def unit(sym: Symbol) -> Point:
    """The point consisting of a single basis symbol."""
    return Point.from_coords((sym,), (1,))


def subset_sums(x: Point, hs: Sequence[Point]) -> Iterator[tuple[tuple[int, ...], Point]]:
    """``(subset, x + sum(hs[i] for i in subset))`` for every tuple of
    indices into ``hs``: sizes descending, index-lexicographic within a
    size. This is the one enumeration of the subset sums. Each sum is
    built by summing coordinate tuples over the sorted symbols of ``x``
    and ``hs``; it equals the ``point_combine`` of the same points."""
    basis = tuple(sorted({s for p in (x, *hs) for s, _ in p.terms}))
    at = {s: j for j, s in enumerate(basis)}
    base, *rows = [[(at[s], c) for s, c in p.terms] for p in (x, *hs)]
    for size in range(len(hs), -1, -1):
        for subset in combinations(range(len(hs)), size):
            v = [0] * len(basis)
            for row in (base, *(rows[i] for i in subset)):
                for j, c in row:
                    v[j] += c
            yield subset, Point.from_coords(basis, v)


def box_coords(
    syms: Sequence[Symbol], lo: int, width: int, indices: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the coordinate tuples over ``tuple(sorted(syms))`` at
    ``indices`` into the box over the distinct ``syms`` with integer
    coefficients in ``lo..lo + width - 1``, the first symbol varying
    slowest, one at a time. Each index is read as digits in base
    ``width``, and each digit, plus ``lo``, is written at its symbol's
    position in the sorted basis. This is the one box decoder."""
    basis = tuple(sorted(syms))
    pos = [basis.index(s) for s in reversed(syms)]
    for i in indices:
        v = [0] * len(basis)
        for j in pos:
            i, c = divmod(i, width)
            v[j] = c + lo
        yield tuple(v)


def box_points(
    syms: Sequence[Symbol], lo: int, width: int, indices: Iterable[int]
) -> Iterator[Point]:
    """The points of the tuples ``box_coords`` yields, in its order."""
    basis = tuple(sorted(syms))
    return (Point.from_coords(basis, v) for v in box_coords(syms, lo, width, indices))


def sample_box(
    rng, syms: Sequence[Symbol], lo: int, hi: int, k: int
) -> list[tuple[int, ...]]:
    """``rng.sample`` of ``k`` points from the box over ``syms`` with integer
    coefficients in ``lo..hi``, listed in ``box_coords`` order, without
    building the box, each as its coordinate tuple over
    ``tuple(sorted(syms))``: ``rng`` draws k indices into the box, decoded
    by ``box_coords``, so the points and the state of ``rng`` afterwards
    are the same."""
    width = max(hi - lo + 1, 0)
    return list(box_coords(syms, lo, width, rng.sample(range(width ** len(syms)), k)))


def point_combine(terms: Iterable[tuple[Scalar, Point]]) -> Point:
    """Canonical linear combination of points; zero coefficients vanish."""
    acc: dict[Symbol, Scalar] = {}
    for coeff, p in terms:
        q = exact(coeff)
        if q:
            for s, c in p.terms:
                acc[s] = acc.get(s, 0) + q * c
    return Point.from_coords(*_sorted_coords(acc))


class AdditiveFunctional:
    """A rational-linear functional fixed by finitely many basis values.

    Symbols outside the assignment take value zero; evaluation on a point
    is the linear pairing with the point's coordinates.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[Symbol, Scalar] | Iterable[tuple[Symbol, Scalar]] = ()):
        items = values.items() if isinstance(values, Mapping) else values
        acc: dict[Symbol, Scalar] = {}
        for sym, v in items:
            q = exact(v)
            if q:
                acc[sym] = q
            else:
                acc.pop(sym, None)
        self._values = acc

    def __call__(self, x: Point) -> Scalar:
        total = 0
        get = self._values.get
        for s, c in x.terms:
            v = get(s)
            if v is not None:
                total += c * v
        return total if type(total) is int else exact(total)

    def __repr__(self) -> str:
        body = ", ".join(f"{s.name}: {v}" for s, v in sorted(self._values.items()))
        return f"AdditiveFunctional({{{body}}})"


def is_positive_increment(p: Point) -> bool:
    """True iff ``p`` is nonzero, has only positive-declared symbols, and
    all coordinates nonnegative (hence, canonically, positive).

    Signs of mixed combinations of unvalued symbols are undecidable, so
    anything else is rejected rather than guessed.
    """
    if p.is_zero():
        return False
    return all(s.positive and c > 0 for s, c in p.terms)


def check_increment(p: Point) -> Point:
    """Validate a single increment, returning it unchanged."""
    if not is_positive_increment(p):
        raise InvalidIncrement(f"not a positive increment: {p}")
    return p
