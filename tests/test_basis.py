"""Points, additive functionals, and the exact scalar type."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hamelcheck import (
    ZERO,
    AdditiveFunctional,
    InvalidIncrement,
    Point,
    Symbol,
    is_positive_increment,
    point_combine,
    symbols,
    unit,
)
from hamelcheck.basis import box_coords, box_points, check_increment, sample_box, subset_sums
from hamelcheck.definitions import parse_definition
from hamelcheck.differences import Violation
from hamelcheck.functions import Composite, PositivePartPower
from hamelcheck.measures import Dirac, JClosure, Shift, atom_mass, nabla
from hamelcheck.reports import Report
from helpers import as_drawn, coordinate, coords_over, lattice_box


def test_rational_is_exact_and_canonical():
    # Lowest terms, positive denominator, arbitrary precision.
    q = Fraction(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)
    big = Fraction(10**50, 3)
    assert big * 3 == 10**50
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_symbol_ordering_and_identity():
    a, b = Symbol("a", positive=True), Symbol("b")
    assert a < b
    # The positivity flag is part of identity.
    assert Symbol("a") != Symbol("a", positive=True)


def test_coordinates_are_int_when_integral():
    (h,) = symbols("h", positive=True)
    p, q = Point({h: Fraction(2)}), Point({h: 2})
    assert p == q and hash(p) == hash(q)
    c = coordinate(Fraction(3, 2) * unit(h) + Fraction(1, 2) * unit(h), h)
    assert type(c) is int and c == 2
    assert type(coordinate(unit(h) - Fraction(1, 2) * unit(h), h)) is Fraction
    v = AdditiveFunctional({h: 1})(3 * unit(h))
    assert type(v) is int and v == 3
    assert type(AdditiveFunctional({h: Fraction(1, 2)})(2 * unit(h))) is int


def test_point_combine_sum():
    h1, h2 = symbols("h1 h2", positive=True)
    p = point_combine([(1, unit(h1)), (1, unit(h2))])
    assert coordinate(p, h1) == 1 and coordinate(p, h2) == 1
    assert p == unit(h1) + unit(h2)


def test_point_combine_cancellation():
    (h1,) = symbols("h1", positive=True)
    p = point_combine([(1, unit(h1)), (-1, unit(h1))])
    assert p == ZERO
    assert p.is_zero() and p.terms == ()


def test_point_combine_cube_root_square():
    # (3*cbrt2 - 2)^2 expanded by hand: 9*cbrt4 - 12*cbrt2 + 4.
    one, cbrt2, cbrt4 = symbols("one cbrt2 cbrt4", positive=True)
    p = point_combine([(9, unit(cbrt4)), (-12, unit(cbrt2)), (4, unit(one))])
    assert coordinate(p, cbrt4) == 9
    assert coordinate(p, cbrt2) == -12
    assert coordinate(p, one) == 4
    assert len(p.terms) == 3


def test_coordinate_lookup():
    h1, h2, h3 = symbols("h1 h2 h3", positive=True)
    p = unit(h1) + unit(h2)
    assert coordinate(p, h1) == 1
    assert coordinate(p, h3) == 0
    assert coordinate(ZERO, h1) == 0


def test_point_no_zero_coefficients_stored():
    h1, h2 = symbols("h1 h2")
    p = Point({h1: Fraction(0), h2: Fraction(2)})
    assert p.support == (h2,)
    q = (p - 2 * unit(h2)) + unit(h1)
    assert q.support == (h1,)


def test_point_equality_is_structural():
    h1, h2 = symbols("h1 h2")
    assert Point({h1: 1, h2: 2}) == Point([(h2, 2), (h1, 1)])
    assert hash(Point({h1: 1})) == hash(unit(h1))
    assert Point({h1: 1}) != Point({h1: 2})


def test_point_rendering():
    h1, h2 = symbols("h1 h2")
    assert str(ZERO) == "0"
    assert str(unit(h1) - unit(h2)) == "h1 - h2"
    assert str(Point({h2: Fraction(-3, 2)})) == "-3/2*h2"


def test_additive_eval_forced_value():
    # a(h2+h3+h4) = 3 for the mapping with value 1 on each of h2..h4.
    h1, h2, h3, h4 = symbols("h1 h2 h3 h4", positive=True)
    a = AdditiveFunctional({h1: -1, h2: 1, h3: 1, h4: 1})
    x = unit(h2) + unit(h3) + unit(h4)
    assert a(x) == 3


def test_additive_eval_cancel():
    h1, h2 = symbols("h1 h2", positive=True)
    a = AdditiveFunctional({h1: -1, h2: 1})
    assert a(unit(h1) + unit(h2)) == 0


def test_additive_eval_quadratic_argument():
    # Value at the expanded square 9*cbrt4 - 12*cbrt2 + 4*one with the
    # completion value 4 assigned directly to cbrt4.
    one, sqrt2, cbrt2, cbrt4 = symbols("one sqrt2 cbrt2 cbrt4", positive=True)
    a = AdditiveFunctional({one: -9, sqrt2: 4, cbrt4: 4})
    x = point_combine([(9, unit(cbrt4)), (-12, unit(cbrt2)), (4, unit(one))])
    assert a(x) == 0


def test_additive_eval_linearity_seeded():
    rng = random.Random(101)
    pool = symbols("a b c d e", positive=True)
    for _ in range(200):
        a = AdditiveFunctional(
            {s: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for s in pool}
        )
        x = Point({s: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for s in pool})
        y = Point({s: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for s in pool})
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert a(x + y) == a(x) + a(y)
        assert a(q * x) == q * a(x)


def test_point_combine_round_trip_seeded():
    rng = random.Random(202)
    pool = symbols("a b c d", positive=True)
    for _ in range(100):
        coords = {s: Fraction(rng.randint(-4, 4)) for s in pool}
        p = point_combine((c, unit(s)) for s, c in coords.items())
        assert all(coordinate(p, s) == c for s, c in coords.items())
        rebuilt = point_combine((c, unit(s)) for s, c in p.terms)
        assert rebuilt == p


def test_subset_sums_yield_each_index_subset_once_in_order():
    a, b, c = (unit(s) for s in symbols("a b c", positive=True))
    # Equal points at different indices are different subsets.
    hs = (a, b, a, 2 * c)
    x = Fraction(1, 2) * b
    got = list(subset_sums(x, hs))
    expected = sorted(
        (tuple(i for i in range(4) if mask >> i & 1) for mask in range(16)),
        key=lambda subset: (-len(subset), subset),
    )
    assert [subset for subset, _ in got] == expected
    for subset, p in got:
        chained = x
        for i in subset:
            chained = chained + hs[i]
        assert p == chained
    assert list(subset_sums(x, ())) == [((), x)]


def _chained(pairs):
    """``sum(c * unit(s))`` over ``(s, c)`` pairs, one ``+`` per term."""
    acc = ZERO
    for s, c in pairs:
        acc = acc + c * unit(s)
    return acc


def _same(p, q):
    """Equal points whose coordinates also have the same int/Fraction form."""
    return p == q and [type(c) for _, c in p.terms] == [type(c) for _, c in q.terms]


def test_combined_points_match_chained_arithmetic_seeded():
    # p - q, parsed points and lattice_box are built by point_combine, and
    # Point(pairs) from coordinate tuples; the chained + and * route is
    # independent of both.
    rng = random.Random(717)
    pool = symbols("a b c d e", positive=True)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(200):
        pairs = [(rng.choice(pool), rational()) for _ in range(rng.randint(0, 7))]
        p = Point(pairs)
        assert _same(p, _chained(pairs))
        assert _same(Point(dict(pairs)), _chained(dict(pairs).items()))
        q = Point((rng.choice(pool), rational()) for _ in range(rng.randint(0, 7)))
        assert _same(p - q, p + (-1) * q)
        assert _same(p - p, ZERO)

    for _ in range(30):
        units = [rational() * unit(s) for s in rng.sample(pool, rng.randint(0, 3))]
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(0, 2)
        chained = [ZERO]
        for u in units:
            chained = [p + c * u for p in chained for c in range(lo, hi + 1)]
        box = lattice_box(units, lo, hi)
        assert len(box) == len(chained)
        assert all(_same(p, q) for p, q in zip(box, chained))

    header = "".join(f"symbol {s.name} positive\n" for s in pool)
    for _ in range(50):
        pairs = [(rng.choice(pool), rational()) for _ in range(rng.randint(1, 6))]
        text = " + ".join(
            s.name if c == 1 and rng.random() < 0.5 else f"{c}*{s.name}" for s, c in pairs
        )
        parsed = parse_definition(header + f"point p = {text}\n").points["p"]
        assert _same(parsed, _chained(pairs))


def test_equality_is_congruence_for_combine():
    h1, h2 = symbols("h1 h2")
    p = Point({h1: 1, h2: 1})
    q = unit(h1) + unit(h2)
    assert p == q
    r1 = point_combine([(2, p), (1, unit(h1))])
    r2 = point_combine([(2, q), (1, unit(h1))])
    assert r1 == r2


def test_positive_increment_rules():
    pos, neg = Symbol("p", positive=True), Symbol("m")
    assert is_positive_increment(unit(pos))
    assert is_positive_increment(2 * unit(pos))
    assert not is_positive_increment(ZERO)
    assert not is_positive_increment(unit(neg))  # not declared positive
    assert not is_positive_increment(unit(pos) - unit(pos) * Fraction(2))  # negative coord
    with pytest.raises(InvalidIncrement):
        check_increment(unit(neg))


def test_sign_flag_mix_is_order_independent():
    # A name reused with both signs must not let the left operand's flag win.
    plain, pos = Symbol("h"), Symbol("h", positive=True)
    left, right = unit(plain) + unit(pos), unit(pos) + unit(plain)
    assert left == right
    assert not is_positive_increment(left)
    assert not is_positive_increment(right)


def test_frozen_classes_refuse_assignment_and_deletion():
    (s,) = symbols("s", positive=True)
    f = Composite(PositivePartPower(2), AdditiveFunctional({s: 1}))
    closure = JClosure(Dirac(unit(s)), unit(s))
    violation = Violation(0, ZERO, (unit(s),), -1)
    report = Report("demo", ())
    for obj, name in ((f, "kernel"), (closure, "step"), (violation, "value"), (report, "claims")):
        kept = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, name) is kept and not hasattr(obj, "extra")


def test_coords_follow_the_basis_asked_seeded():
    # One point read on bases in turn, identical and equal but distinct
    # ones among them, gives its coordinates on each, or None when a symbol
    # of its support is missing; the kept tuple never leaks across bases.
    syms = symbols("a b c d", positive=True)
    rng = random.Random(2121)
    bases = [tuple(s) for k in range(5) for s in combinations(syms, k)]
    for _ in range(40):
        p = point_combine((rng.choice((-2, 0, 1, Fraction(1, 2))), unit(s)) for s in syms)
        twin = Point(p.terms)
        for _ in range(30):
            basis = rng.choice(bases)
            if rng.random() < 0.5:
                basis = tuple(list(basis))
            coords = dict(p.terms)
            want = None if set(coords) - set(basis) else tuple(coords.get(s, 0) for s in basis)
            assert p.coords(basis) == twin.coords(basis) == want
            assert p.coords(basis) == want
        assert p == twin and hash(p) == hash(twin)


def _all_same(ps, qs):
    """Two lists of points pairwise ``_same``, in the same order."""
    ps, qs = list(ps), list(qs)
    return len(ps) == len(qs) and all(map(_same, ps, qs))


def _generators(rng, pool):
    """0-4 points to combine, in an order their symbols do not sort in:
    units, Fraction multiples, multi-symbol points, points sharing a symbol
    (halves that sum to integral coordinates, and cancelling pairs)."""
    out = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(unit(rng.choice(pool)))
        elif kind == 1:
            out.append(Fraction(rng.choice((-3, -1, 1, 2, 3)), rng.randint(1, 3)) * unit(rng.choice(pool)))
        elif kind == 2:
            out.append(point_combine(
                (Fraction(rng.randint(-2, 2), rng.randint(1, 2)), unit(s))
                for s in rng.sample(pool, rng.randint(2, 3))
            ))
        else:
            s = rng.choice(pool)
            half = Fraction(1, 2) * unit(s)
            out.append(half + unit(rng.choice(pool)) if rng.random() < 0.5 else -1 * half)
            out.append(half)
    return out[:4]


def test_tuple_built_points_match_point_combine_seeded():
    # box_coords decodes a box's indices into tuples over the sorted
    # symbols, box_points builds its points from them, sample_box returns
    # the sampled tuples, and subset_sums builds each point as a tuple;
    # point_combine of the same coefficients is the oracle: the same
    # points, or their coefficients, with the same scalar forms, in the
    # same order, and the same rng state after a sample. A box is given by its
    # symbols, here in an order they do not sort in, and lattice_box
    # builds it from their unit points.
    pool = symbols("d b e a c", positive=True)
    rng = random.Random(4321)
    seen = set()
    for _ in range(300):
        gens = _generators(rng, pool)
        syms = rng.sample(pool, rng.randint(0, 3))
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(-2, 2)
        box = lattice_box([unit(s) for s in syms], lo, hi)
        width = max(hi - lo + 1, 0)
        assert _all_same(box_points(syms, lo, width, range(width ** len(syms))), box)
        basis = tuple(sorted(syms))
        tuples = list(box_coords(syms, lo, width, range(width ** len(syms))))
        assert as_drawn(tuples) == as_drawn(coords_over(p, basis) for p in box)

        for k in {0, min(1, len(box)), len(box) // 2, len(box)}:
            seed = rng.random()
            fast, full = random.Random(seed), random.Random(seed)
            sample = sample_box(fast, syms, lo, hi, k)
            assert as_drawn(sample) == as_drawn(coords_over(p, basis) for p in full.sample(box, k))
            assert fast.getstate() == full.getstate()
        if not box:
            with pytest.raises(ValueError):
                sample_box(random.Random(0), syms, lo, hi, 1)

        x = rng.choice([ZERO, *gens]) if gens else ZERO
        sums = list(subset_sums(x, gens))
        want = [
            (subset, point_combine([(1, x), *((1, gens[i]) for i in subset)]))
            for size in range(len(gens), -1, -1)
            for subset in combinations(range(len(gens)), size)
        ]
        assert [s for s, _ in sums] == [s for s, _ in want]
        assert _all_same((p for _, p in sums), (p for _, p in want))
        fraction = any(type(c) is Fraction for _, p in sums for _, c in p.terms)
        seen.add((len(syms), lo > hi, syms != sorted(syms), len(gens), fraction))
    assert {(3, False, True), (2, True, True), (0, False, False)} <= {s[:3] for s in seen}
    assert {(4, True), (3, True), (0, False)} <= {s[3:] for s in seen}


def test_kept_tuple_answers_coords_seeded():
    # A point built from a tuple keeps it as the answer of coords on the
    # construction basis: the tuple a fresh equal point converts to, there
    # and on an equal but distinct basis tuple. Nothing changes a point once
    # it is built: reading another basis converts afresh, and building a
    # measure on the point or reading a mass there leaves the kept tuple as
    # it was. No read changes equality or hash.
    pool = symbols("c a d b", positive=True)
    rng = random.Random(99)
    bases = [tuple(s) for k in range(5) for s in combinations(sorted(pool), k)]

    def fresh_coords(p, basis):
        twin = point_combine([(1, p)])
        return twin.coords(basis)

    built = []
    for _ in range(60):
        basis = rng.choice(bases)
        coords = [rng.choice((0, 1, -2, Fraction(1, 2), Fraction(4, 2))) for _ in basis]
        built.append((basis, Point.from_coords(basis, coords)))
        pairs = [(rng.choice(pool), rng.choice((1, -1, Fraction(1, 3)))) for _ in range(rng.randint(0, 4))]
        p = Point(pairs)
        built.append((tuple(sorted({s for s, _ in pairs})), p))
        gens = _generators(rng, pool)
        span = tuple(sorted({s for g in gens for s, _ in g.terms}))
        sums = [q for _, q in subset_sums(ZERO, gens)][:3]
        built += [(span, q) for q in [*box_points(span[::-1], -1, 3, range(3)), *sums]]
    steps = 0
    for basis, p in built:
        want = fresh_coords(p, basis)
        assert want is not None and all(type(c) is int or type(c) is Fraction and c.denominator > 1
                                        for c in want)
        assert p._read == (basis, want)
        assert p.coords(tuple(list(basis))) == want
        assert p.coords(basis) is p._read[1]
        h = hash(p)
        assert p == point_combine([(1, p)])
        other = rng.choice(bases)
        assert p.coords(other) == fresh_coords(p, other)
        assert p._read == (basis, want)
        assert p.coords(basis) == want
        assert hash(p) == h and p == point_combine([(1, p)])
        u = unit(rng.choice(pool))
        mus = [Dirac(p)]
        if is_positive_increment(p):
            steps += 1
            mus += [Shift(Dirac(u), p), JClosure(Dirac(u), p), nabla(Dirac(u), [p, u])]
        assert all(atom_mass(mu, p) == atom_mass(mu, point_combine([(1, p)])) for mu in mus)
        assert p._read == (basis, want)
    assert steps > 40
    # The same point built over bases of different size is one point.
    a, b = sorted(pool)[:2]
    wide, narrow = Point.from_coords((a, b), (3, 0)), Point.from_coords((a,), (3,))
    assert wide == narrow and hash(wide) == hash(narrow)
    assert wide.coords((a,)) == narrow.coords((a,)) == (3,)
    assert wide.coords((b,)) is None


def test_from_coords_is_canonical():
    a, b, c = symbols("a b c", positive=True)
    p = Point.from_coords((a, b, c), (Fraction(4, 2), 0, Fraction(-1, 3)))
    assert _same(p, point_combine([(2, unit(a)), (Fraction(-1, 3), unit(c))]))
    assert [type(x) for _, x in p.terms] == [int, Fraction]
    assert p.coords((a, b, c)) == (2, 0, Fraction(-1, 3))
    assert [type(x) for x in p.coords((a, b, c))] == [int, int, Fraction]
    assert Point.from_coords((a, b), (0, 0)) == ZERO and Point.from_coords((), ()) == ZERO
    assert Point([(b, 1), (a, 2), (b, -1)]).terms == ((a, 2),)


def test_every_route_builds_a_point_that_keeps_its_tuple_seeded():
    # Every constructor ends in Point.from_coords, so every point keeps the
    # tuple it was built from: the tuple rebuilds the same point, and coords
    # over the kept basis hands back the kept tuple itself.
    pool = symbols("c a d b", positive=True)
    rng = random.Random(29)
    kinds = set()

    def coeff():
        return Fraction(rng.choice((-3, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3)))

    built = [ZERO]
    for _ in range(3):
        s, t, u = rng.sample(pool, 3)
        c, d = coeff(), coeff()
        built += [
            Point([(s, c), (t, d), (s, -c), (u, 1), (t, d)]),  # repeated and cancelling
            point_combine([(c, unit(s)), (Fraction(1, 2), unit(t)), (-c, unit(s))]),
        ]
        p, q = rng.sample(built, 2)
        built += [p + q, p - q, p - p, p * 0, p * -rng.randint(1, 3), Fraction(1, 3) * p]
        built += [unit(u), Point.from_coords(tuple(sorted((s, t))), (c, 0))]
        gens = [unit(s), c * unit(t), unit(s) + unit(u)]
        built += [q for _, q in subset_sums(unit(t), gens)][:3]
        built += box_points([t, s], -1, 3, rng.sample(range(9), 2))
    for p in built:
        basis, v = p._read
        assert _same(Point.from_coords(basis, v), p)
        assert p.coords(basis) is v
        kinds.add((p.is_zero(), any(type(c) is Fraction for _, c in p.terms)))
    assert kinds == {(True, False), (False, False), (False, True)}
