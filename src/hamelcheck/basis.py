"""Formal basis symbols, exact lattice points, and additive functionals.

Symbols are opaque tokens assumed rationally independent; they are never
tied to real-number values, so every computation downstream is exact.
A point is assembled by one ``point_combine``, which sorts once; ``+``,
``*`` and ``unit`` are the fast paths for two operands or one symbol.
A point whose coordinates are already a tuple over a sorted basis is
built from that tuple by ``Point.from_coords``, which keeps it: the box
and subset-sum enumerations and ``Point(pairs)`` build their points so.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from operator import itemgetter
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
    given for each symbol and, like ``from_coords``, keeps the tuple it was
    built from for ``coords``; nothing changes a point once it is built.
    """

    __slots__ = ("_terms", "_hash", "_read")

    def __init__(self, coords: Mapping[Symbol, Scalar] | Iterable[tuple[Symbol, Scalar]] = ()):
        items = coords.items() if isinstance(coords, Mapping) else coords
        acc: dict[Symbol, Scalar] = {}
        for s, c in items:
            acc[s] = acc.get(s, 0) + exact(c)
        basis = tuple(sorted(acc))
        self._set_coords(basis, [acc[s] for s in basis])

    def _set_coords(self, basis: tuple[Symbol, ...], coords: Iterable[Scalar]) -> None:
        v = tuple(map(exact, coords))
        self._terms = tuple(compress(zip(basis, v), v))
        self._hash = None
        self._read = basis, v

    @classmethod
    def _wrap(cls, terms: tuple[tuple[Symbol, Scalar], ...]) -> "Point":
        p = object.__new__(cls)
        p._terms = terms
        p._hash = p._read = None
        return p

    @classmethod
    def from_coords(cls, basis: tuple[Symbol, ...], coords: Iterable[Scalar]) -> "Point":
        """The canonical point with coordinates ``coords`` over ``basis``, a
        tuple of distinct symbols in sorted order with one coordinate each.
        Every coordinate goes through ``exact`` and the zero ones are
        dropped from the terms. The tuple of exact coordinates is kept as
        the answer of ``coords`` over ``basis`` or an equal basis, and
        never enters equality."""
        p = object.__new__(cls)
        p._set_coords(basis, coords)
        return p

    @property
    def terms(self) -> tuple[tuple[Symbol, Scalar], ...]:
        return self._terms

    @property
    def support(self) -> tuple[Symbol, ...]:
        return tuple(s for s, _ in self._terms)

    def coordinate(self, sym: Symbol) -> Scalar:
        for s, c in self._terms:
            if s == sym:
                return c
        return 0

    def coords(self, basis: tuple[Symbol, ...]) -> tuple[Scalar, ...] | None:
        """The coordinates as a tuple over ``basis``, or None when the
        support is not inside it: the kept tuple when ``basis`` equals the
        one the point was built over, else a conversion that is not kept."""
        read = self._read
        if read is not None and read[0] == basis:
            return read[1]
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
            q = acc.get(s, 0) + c
            if q:
                acc[s] = q if type(q) is int else exact(q)
            else:
                del acc[s]
        return Point._wrap(_sorted_terms(acc))

    def __sub__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        return point_combine(((1, self), (-1, other)))

    def __mul__(self, scalar: Scalar) -> "Point":
        q = exact(scalar)
        if not q:
            return ZERO
        return Point._wrap(tuple((s, exact(c * q)) for s, c in self._terms))

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


_symbol_of = itemgetter(0)


def _sorted_terms(acc: dict[Symbol, Scalar]) -> tuple[tuple[Symbol, Scalar], ...]:
    """The terms of a canonical coordinate dict, sorted by symbol."""
    return tuple(sorted(acc.items(), key=_symbol_of))


#: The zero point (empty support).
ZERO = Point._wrap(())


def unit(sym: Symbol) -> Point:
    """The point consisting of a single basis symbol."""
    return Point._wrap(((sym, 1),))


def _span(points: Sequence[Point]) -> tuple[tuple[Symbol, ...], list[list[tuple[int, Scalar]]]]:
    """The sorted symbols of all ``points``, and each point's coordinates
    over them as ``(position, coefficient)`` pairs, zeros left out."""
    basis = tuple(sorted({s for p in points for s, _ in p.terms}))
    at = {s: j for j, s in enumerate(basis)}
    return basis, [[(at[s], c) for s, c in p.terms] for p in points]


def subset_sums(x: Point, hs: Sequence[Point]) -> Iterator[tuple[tuple[int, ...], Point]]:
    """``(subset, x + sum(hs[i] for i in subset))`` for every tuple of
    indices into ``hs``: sizes descending, index-lexicographic within a
    size. This is the one enumeration of the subset sums. Each sum is
    built from coordinate tuples over the sorted symbols of ``x`` and
    ``hs`` and keeps its tuple over them (``Point.from_coords``); it equals
    the ``point_combine`` of the same points."""
    basis, (base, *rows) = _span((x, *hs))
    for size in range(len(hs), -1, -1):
        for subset in combinations(range(len(hs)), size):
            v = [0] * len(basis)
            for row in (base, *(rows[i] for i in subset)):
                for j, c in row:
                    v[j] += c
            yield subset, Point.from_coords(basis, v)


def _box_points(
    units: Sequence[Point], lo: int, width: int, indices: Iterable[int]
) -> Iterator[Point]:
    """Yield the points at ``indices`` into the box of ``units`` with
    integer coefficients in ``lo..lo + width - 1``, the first unit varying
    slowest, one at a time. Each is built from coordinate tuples over the
    sorted symbols of ``units`` and keeps its tuple over them
    (``Point.from_coords``); it equals the ``point_combine`` of the same
    coefficients."""
    basis, rows = _span(units)
    for i in indices:
        v = [0] * len(basis)
        for row in reversed(rows):
            i, c = divmod(i, width)
            c += lo
            for j, x in row:
                v[j] += c * x
        yield Point.from_coords(basis, v)


def lattice_box(units: Sequence[Point], lo: int, hi: int) -> list[Point]:
    """Every combination of ``units`` with integer coefficients in
    ``lo..hi``, the first unit varying slowest: ``_box_points`` at every
    index of the box, so each point keeps its coordinate tuple over the
    sorted symbols of ``units``."""
    width = max(hi - lo + 1, 0)
    return list(_box_points(units, lo, width, range(width ** len(units))))


def sample_box(rng, units: Sequence[Point], lo: int, hi: int, k: int) -> list[Point]:
    """``rng.sample(lattice_box(units, lo, hi), k)`` without building the box:
    ``rng`` draws k indices into it, decoded by ``_box_points`` as
    ``lattice_box`` decodes them, so the points and the state of ``rng``
    afterwards are the same."""
    width = max(hi - lo + 1, 0)
    return list(_box_points(units, lo, width, rng.sample(range(width ** len(units)), k)))


def point_combine(terms: Iterable[tuple[Scalar, Point]]) -> Point:
    """Canonical linear combination of points; zero coefficients vanish."""
    acc: dict[Symbol, Scalar] = {}
    for coeff, p in terms:
        q = exact(coeff)
        if q:
            for s, c in p.terms:
                acc[s] = acc.get(s, 0) + q * c
    return Point._wrap(_sorted_terms({s: exact(c) for s, c in acc.items() if c}))


class AdditiveFunctional:
    """A rational-linear functional fixed by finitely many basis values.

    Symbols outside the assignment take value zero; evaluation on a point
    is the linear pairing with the point's coordinates.
    """

    __slots__ = ("_values", "_items")

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
        self._items = tuple(sorted(acc.items()))

    def __call__(self, x: Point) -> Scalar:
        total = 0
        get = self._values.get
        for s, c in x.terms:
            v = get(s)
            if v is not None:
                total += c * v
        return total if type(total) is int else exact(total)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AdditiveFunctional) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{s.name}: {v}" for s, v in self._items)
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
