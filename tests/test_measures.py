"""Atomic measure expressions: masses, closures, and the mass pattern
on the 0/1-combination sets."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hamelcheck import (
    ZERO,
    Dirac,
    InvalidIncrement,
    JClosure,
    MeasureMass,
    NonTerminatingJ,
    PointwisePower,
    Scale,
    Scaled,
    Shift,
    Sum,
    SumOf,
    Tabulated,
    atom_mass,
    build_a_sets,
    build_mu,
    build_mu_i,
    forward_diff,
    j_op,
    make_claim,
    nabla,
    point_combine,
    symbols,
    unit,
    verify_lemma_4_4,
)
from hamelcheck.basis import lattice_box
from helpers import standard_function


def _units(n):
    syms = symbols(" ".join(f"h{i}" for i in range(1, n + 2)), positive=True)
    return syms, [unit(s) for s in syms]


def materialize(expr):
    """Independent atom-dict oracle for closure-free trees."""
    if isinstance(expr, Dirac):
        return {expr.point: Fraction(1)}
    if isinstance(expr, Shift):
        return {p + expr.step: m for p, m in materialize(expr.inner).items()}
    if isinstance(expr, Scale):
        return {p: expr.factor * m for p, m in materialize(expr.inner).items()}
    if isinstance(expr, Sum):
        acc = {}
        for t in expr.terms:
            for p, m in materialize(t).items():
                acc[p] = acc.get(p, Fraction(0)) + m
        return acc
    raise TypeError(expr)


def materialize_truncated(expr, kmax):
    """Oracle including closures, truncated at kmax translates per level;
    valid for probe points within reach of kmax steps."""
    if isinstance(expr, JClosure):
        inner = materialize_truncated(expr.inner, kmax)
        acc = {}
        for k in range(kmax + 1):
            shift = k * expr.step
            for p, m in inner.items():
                q = p + shift
                acc[q] = acc.get(q, Fraction(0)) + m
        return acc
    if isinstance(expr, Shift):
        return {p + expr.step: m for p, m in materialize_truncated(expr.inner, kmax).items()}
    if isinstance(expr, Scale):
        return {p: expr.factor * m for p, m in materialize_truncated(expr.inner, kmax).items()}
    if isinstance(expr, Sum):
        acc = {}
        for t in expr.terms:
            for p, m in materialize_truncated(t, kmax).items():
                acc[p] = acc.get(p, Fraction(0)) + m
        return acc
    return materialize(expr)


def test_dirac_masses():
    _, (u1, u2) = _units(1)
    assert atom_mass(Dirac(u1), u1) == 1
    assert atom_mass(Dirac(u1), u2) == 0


def test_single_closure_unique_representation():
    (h,) = symbols("h", positive=True)
    j = JClosure(Dirac(ZERO), unit(h))
    assert atom_mass(j, 3 * unit(h)) == 1
    assert atom_mass(j, ZERO) == 1
    assert atom_mass(j, -1 * unit(h)) == 0
    assert atom_mass(j, 10**4 * unit(h)) == 1


def test_double_closure_counts_representations():
    (h,) = symbols("h", positive=True)
    jj = JClosure(JClosure(Dirac(ZERO), unit(h)), unit(h))
    # pairs (j1, j2) of nonnegative integers with j1 + j2 = 2
    assert atom_mass(jj, 2 * unit(h)) == 3
    assert atom_mass(jj, 300 * unit(h)) == 301


def test_closure_construction_rejects_bad_steps():
    (h,) = symbols("h", positive=True)
    (m,) = symbols("m")
    with pytest.raises(NonTerminatingJ):
        JClosure(Dirac(ZERO), ZERO)
    with pytest.raises(NonTerminatingJ):
        JClosure(Dirac(ZERO), unit(m))
    with pytest.raises(InvalidIncrement):
        Shift(Dirac(ZERO), ZERO)
    with pytest.raises(ValueError):
        Sum(())


def test_nabla_of_unit_atom():
    syms, units = _units(3)
    expr = nabla(Dirac(units[0]), units)
    assert atom_mass(expr, sum(units, ZERO)) == -1  # (-1)^n for n = 3


def test_nabla_simple_cases():
    (h,) = symbols("h", positive=True)
    x = 2 * unit(h)
    assert atom_mass(nabla(Dirac(x), [unit(h)]), x) == 1
    zero_measure = Scale(0, Dirac(x))
    expr = nabla(zero_measure, [unit(h)])
    for p in (ZERO, x, x + unit(h)):
        assert atom_mass(expr, p) == 0


def test_j_op_masses():
    _, (u1, u2) = _units(1)
    j = j_op(Dirac(u1), [u1, u2])
    assert atom_mass(j, u1) == 1
    assert atom_mass(j, u2) == 0  # u2 - u1 has a negative coordinate


def test_j_op_order_three_membership():
    syms, units = _units(3)
    mu1 = j_op(Dirac(units[0]), units)
    assert atom_mass(mu1, units[0] + units[1]) == 1


def test_build_mu_i_masses():
    syms, units = _units(3)
    mu1 = build_mu_i(1, syms)
    mu2 = build_mu_i(2, syms)
    assert atom_mass(mu1, units[0]) == 1
    assert atom_mass(mu2, units[0]) == 0
    syms1, units1 = _units(1)
    assert atom_mass(build_mu_i(1, syms1), units1[0] + units1[1]) == 1
    with pytest.raises(ValueError):
        build_mu_i(5, syms)


def test_build_mu_masses():
    syms, units = _units(3)
    mu = build_mu(syms)
    assert atom_mass(mu, units[0]) == -1
    assert atom_mass(mu, units[0] + units[1]) == 0
    assert atom_mass(mu, units[1] + units[2]) == 2


def test_build_a_sets_order_one():
    syms, (u1, u2) = _units(1)
    a = build_a_sets(syms)
    assert a.sets[0] == {u1, u1 + u2}
    assert a.sets[1] == {u2, u1 + u2}
    assert a.union == {u1, u2, u1 + u2}


def test_build_a_sets_counts():
    syms, units = _units(3)
    a = build_a_sets(syms)
    assert all(len(s) == 8 for s in a.sets)
    assert len(a.union) == 15
    assert units[0] in a.union and units[0] not in a.sets[1]


def test_build_a_sets_matches_mask_enumeration():
    # The oracle builds each A_i on its own, by chained additions over a
    # bit mask; build_a_sets filters one enumeration of every subset.
    for n in range(1, 10):
        syms, units = _units(n)
        expected = []
        for i, base in enumerate(units):
            others = units[:i] + units[i + 1:]
            members = set()
            for mask in range(1 << len(others)):
                p = base
                for j, q in enumerate(others):
                    if mask >> j & 1:
                        p = p + q
                members.add(p)
            expected.append(members)
        a = build_a_sets(syms)
        assert list(a.sets) == expected
        assert a.union == set().union(*expected)


def test_mass_pattern_on_a_sets():
    # Unit mass on the own set, zero off it, negative only at the first
    # unit point, and the positive-part shift, for orders 1, 3, 5.
    for n in (1, 3, 5):
        syms, units = _units(n)
        mus = [build_mu_i(i, syms) for i in range(1, n + 2)]
        mu = build_mu(syms)
        a = build_a_sets(syms)
        for i, mi in enumerate(mus):
            assert all(atom_mass(mi, x) == 1 for x in a.sets[i])
            assert all(atom_mass(mi, x) == 0 for x in a.union - a.sets[i])
        negatives = {x for x in a.union if atom_mass(mu, x) < 0}
        assert negatives == {units[0]}
        assert atom_mass(mu, units[0]) == -1
        assert all(
            max(atom_mass(mu, x), Fraction(0))
            == atom_mass(mu, x) + atom_mass(Dirac(units[0]), x)
            for x in a.union
        )


def test_product_identity_on_a_sets():
    # Product of closure masses equals the closure of the combined atom.
    n = 3
    syms, units = _units(n)
    mus = [build_mu_i(i, syms) for i in range(1, n + 2)]
    a = build_a_sets(syms)
    for k in range(1, n + 2):
        for idxs in combinations(range(n + 1), k):
            target = sum((units[i] for i in idxs), ZERO)
            closed = j_op(Dirac(target), units)
            for x in a.union:
                prod = Fraction(1)
                for i in idxs:
                    prod *= atom_mass(mus[i], x)
                assert prod == atom_mass(closed, x)


def test_closure_lattice_spot_checks_seeded():
    rng = random.Random(707)
    n = 3
    syms, units = _units(n)
    for i in range(1, n + 2):
        mi = build_mu_i(i, syms)
        for _ in range(10):
            x = units[i - 1] + point_combine(
                (rng.randint(0, 3), u) for u in units
            )
            assert atom_mass(mi, x) == 1


def test_shift_composition_seeded():
    rng = random.Random(808)
    syms = symbols("a b", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(50):
        atoms = Sum(
            tuple(
                Scale(
                    rng.randint(-3, 3),
                    Dirac(point_combine((rng.randint(-3, 3), u) for u in units)),
                )
                for _ in range(rng.randint(1, 4))
            )
        )
        h = rng.randint(1, 2) * rng.choice(units)
        k = rng.randint(1, 2) * rng.choice(units)
        x = point_combine((rng.randint(-4, 6), u) for u in units)
        assert atom_mass(Shift(Shift(atoms, h), k), x) == atom_mass(atoms, x - h - k)


def test_sum_scale_linearity_seeded():
    rng = random.Random(909)
    (s,) = symbols("s", positive=True)
    u = unit(s)
    for _ in range(50):
        m1 = Dirac(rng.randint(-2, 4) * u)
        m2 = Dirac(rng.randint(-2, 4) * u)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        x = rng.randint(-2, 4) * u
        assert atom_mass(Sum((m1, m2)), x) == atom_mass(m1, x) + atom_mass(m2, x)
        assert atom_mass(Scale(c, m1), x) == c * atom_mass(m1, x)


def _random_finite_tree(rng, units, depth):
    if depth == 0 or rng.random() < 0.3:
        return Dirac(point_combine((rng.randint(-3, 3), u) for u in units))
    kind = rng.randrange(3)
    if kind == 0:
        return Shift(_random_finite_tree(rng, units, depth - 1), rng.randint(1, 2) * rng.choice(units))
    if kind == 1:
        return Scale(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            _random_finite_tree(rng, units, depth - 1),
        )
    return Sum(
        tuple(_random_finite_tree(rng, units, depth - 1) for _ in range(rng.randint(1, 3)))
    )


def test_mass_matches_materialized_oracle_seeded():
    rng = random.Random(1010)
    syms = symbols("a b", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(60):
        tree = _random_finite_tree(rng, units, 3)
        atoms = materialize(tree)
        for p, m in atoms.items():
            assert atom_mass(tree, p) == m
        off = point_combine((9, u) for u in units)
        assert atom_mass(tree, off) == atoms.get(off, Fraction(0))


def test_closure_mass_matches_truncated_oracle_seeded():
    rng = random.Random(1111)
    syms = symbols("a b", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(30):
        tree = _random_finite_tree(rng, units, 2)
        for _ in range(rng.randint(1, 2)):
            tree = JClosure(tree, rng.randint(1, 2) * rng.choice(units))
        oracle = materialize_truncated(tree, 25)
        for _ in range(10):
            x = point_combine((rng.randint(-4, 8), u) for u in units)
            assert atom_mass(tree, x) == oracle.get(x, Fraction(0))


def test_round_trip_recovers_source_seeded():
    rng = random.Random(1212)
    syms = symbols("a b c", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(20):
        atoms = Sum(
            tuple(
                Scale(
                    rng.randint(1, 3),
                    Dirac(point_combine((rng.randint(0, 5), u) for u in units)),
                )
                for _ in range(rng.randint(1, 5))
            )
        )
        hs = [rng.randint(1, 2) * rng.choice(units) for _ in range(rng.randint(1, 3))]
        closed = j_op(atoms, hs)
        recovered = nabla(closed, hs)
        fixed = j_op(nabla(closed, hs), hs)
        for _ in range(50):
            x = point_combine((rng.randint(-1, 7), u) for u in units)
            assert atom_mass(recovered, x) == atom_mass(atoms, x)
            assert atom_mass(fixed, x) == atom_mass(closed, x)


def test_cache_matches_reference_configuration_seeded():
    # Warm memos against cold ones: one tree answers shuffled points twice,
    # and each answer must equal a freshly built identical tree's answer.
    rng = random.Random(1313)
    syms = symbols("a b", positive=True)
    units = [unit(s) for s in syms]

    def build(seed):
        r = random.Random(seed)
        return JClosure(_random_finite_tree(r, units, 2), r.choice(units))

    for _ in range(20):
        seed = rng.getrandbits(32)
        tree = build(seed)
        points = [point_combine((rng.randint(-3, 6), u) for u in units) for _ in range(8)]
        for _ in range(2):
            rng.shuffle(points)
            for x in points:
                assert atom_mass(tree, x) == atom_mass(build(seed), x)


def test_measure_mass_function_bridge():
    syms, units = _units(3)
    p = units[1] + units[2]
    f = MeasureMass(Dirac(p))
    assert f.value(p) == 1
    assert f.value(units[0]) == 0

    mu = build_mu(syms)
    powered = PointwisePower(MeasureMass(mu), 3)
    assert powered.value(p) == 8  # mass 2 cubed

    combined = SumOf(
        (MeasureMass(mu), MeasureMass(Dirac(units[0])))
    )
    assert combined.value(units[0]) == 0  # -1 + 1


def test_values_are_int_on_integral_inputs():
    # basis.exact is the one owner of the scalar form: integral inputs
    # keep every function value, mass and claim on the int path.
    syms, a, f = standard_function(3)
    units = [unit(s) for s in syms]
    assert type(forward_diff(f, ZERO, units)) is int
    assert type(f.value(ZERO)) is int
    assert type(atom_mass(build_mu(syms), units[0])) is int

    nu = Sum((Scale(2, Dirac(units[1])), Dirac(units[0] + units[2])))
    hs = (units[0], 2 * units[1])
    closed = j_op(nu, hs)
    round_trip = j_op(nabla(closed, hs), hs)
    masses = [atom_mass(round_trip, units[0] + k * units[1]) for k in range(-1, 6)]
    assert any(masses) and all(type(m) is int for m in masses)

    for c in verify_lemma_4_4(3).claims:
        assert type(c.computed) in (int, bool), c.label

    # The four entry points normalise a scalar given from outside.
    assert type(Scale(Fraction(4, 2), Dirac(ZERO)).factor) is int
    assert type(Scaled(Fraction(9, 3), f).factor) is int
    assert type(Tabulated({ZERO: Fraction(5, 1)}).value(ZERO)) is int
    assert type(make_claim("c", "", Fraction(-2, 2), Fraction(-1)).computed) is int


def test_fractional_scale_masses_match_truncated_sum():
    syms, units = _units(1)
    nu = Sum(
        (Scale(Fraction(1, 3), Dirac(units[0])), Scale(Fraction(-1, 2), Dirac(units[1])))
    )
    tree = j_op(nu, units)
    oracle = materialize_truncated(tree, 8)
    box = [i * units[0] + j * units[1] for i in range(-1, 6) for j in range(-1, 6)]
    masses = {x: atom_mass(tree, x) for x in box}
    for x, m in masses.items():
        assert m == oracle.get(x, 0)
    fractional = {m for m in masses.values() if type(m) is Fraction and m.denominator > 1}
    assert fractional == {Fraction(1, 3), Fraction(-1, 2), Fraction(-1, 6)}


# The coordinates of atoms, steps and query points in the mixed-basis
# trees below. Every support coordinate is >= -2 and every step coordinate
# >= 1/2, so a query with coordinates <= 4 is reached in at most 12
# translates per closure, and materialize_truncated(tree, 12) is exact there.
_ATOM = (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))
_STEP = (1, 2, Fraction(1, 2), Fraction(3, 2))
_QUERY = (-3, -1, 0, 1, 2, 3, 4, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2))


def _on_some(rng, units, values, at_least):
    """A point on a random subset of ``units`` (at least ``at_least`` of them)."""
    chosen = rng.sample(units, rng.randint(at_least, len(units)))
    return point_combine((rng.choice(values), u) for u in chosen)


def _random_mixed_tree(rng, units, depth):
    """Nodes over different symbol sets: atoms on any subset (the zero
    point included), and steps on symbols their inner measure may lack."""
    if depth == 0 or rng.random() < 0.25:
        return Dirac(_on_some(rng, units, _ATOM, 0))
    kind = rng.randrange(4)
    if kind == 0:
        return Shift(_random_mixed_tree(rng, units, depth - 1), _on_some(rng, units, _STEP, 1))
    if kind == 1:
        return JClosure(_random_mixed_tree(rng, units, depth - 1), _on_some(rng, units, _STEP, 1))
    if kind == 2:
        return Scale(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            _random_mixed_tree(rng, units, depth - 1),
        )
    return Sum(tuple(_random_mixed_tree(rng, units, depth - 1) for _ in range(rng.randint(1, 3))))


def test_mixed_basis_trees_match_truncated_oracle_seeded():
    rng = random.Random(1414)
    syms = symbols("a b c", positive=True)
    units = [unit(s) for s in syms]
    (foreign,) = symbols("d", positive=True)
    for _ in range(40):
        tree = _random_mixed_tree(rng, units, 3)
        oracle = materialize_truncated(tree, 12)
        # Every atom of the oracle within reach, then random points, some
        # with a coordinate on a symbol no node of the tree uses.
        queries = [p for p in oracle if all(c <= 4 for _, c in p.terms)]
        for _ in range(30):
            x = _on_some(rng, units, _QUERY, 0)
            if rng.random() < 0.3:
                x = x + rng.choice((1, -1, Fraction(1, 2))) * unit(foreign)
            queries.append(x)
        for x in queries:
            assert atom_mass(tree, x) == oracle.get(x, 0), (tree, x)


def test_zero_atom_has_an_empty_basis():
    a, b = symbols("a b", positive=True)
    zero = Dirac(ZERO)
    assert atom_mass(zero, ZERO) == 1
    assert atom_mass(zero, unit(a)) == 0 and atom_mass(zero, -1 * unit(b)) == 0
    tree = Sum((zero, Shift(zero, unit(a)), JClosure(zero, 2 * unit(b))))
    oracle = materialize_truncated(tree, 5)
    for x in lattice_box([unit(a), unit(b)], -1, 4):
        assert atom_mass(tree, x) == oracle.get(x, 0)


def test_closure_shared_by_roots_over_different_bases():
    # A closure keys its memo by tuples over its own basis, so a root over
    # a wider basis reaches the same entries as a narrow one: warm answers
    # equal cold ones, and a second root adds no entry for a point the
    # first already asked for.
    a, b, c = symbols("a b c", positive=True)
    ua, ub, uc = unit(a), unit(b), unit(c)

    def build():
        shared = JClosure(Sum((Dirac(ua), Scale(Fraction(1, 2), Dirac(2 * ua)))), ua)
        return shared, Sum((shared, Dirac(ub))), Shift(shared, uc)

    shared, wide, shifted = build()
    queries = [k * ua for k in range(-1, 8)]
    for x in queries:
        assert atom_mass(wide, x + ub) == atom_mass(build()[1], x + ub)
        assert atom_mass(wide, x) == atom_mass(shared, x)
    entries = len(shared._memo)
    assert entries
    for x in queries:
        assert atom_mass(shifted, x + uc) == atom_mass(build()[2], x + uc) == atom_mass(shared, x)
    assert len(shared._memo) == entries
    oracle = materialize_truncated(shifted, 10)
    for x in queries:
        assert atom_mass(shifted, x + uc) == oracle.get(x + uc, 0)


def _constructor_floor(expr, seen):
    """The support floor by the rules the constructors applied to points:
    a Dirac's point, a shift's inner floor plus its step, a sum's termwise
    minimum (a coordinate a floor lacks counts as 0), and a scale's or a
    closure's inner floor. Every node it reaches must report that floor
    as its ``support_floor``."""
    floor = seen.get(expr)
    if floor is None:
        if isinstance(expr, Dirac):
            floor = expr.point
        elif isinstance(expr, Shift):
            floor = _constructor_floor(expr.inner, seen) + expr.step
        elif isinstance(expr, Sum):
            floors = [_constructor_floor(t, seen) for t in expr.terms]
            floor = point_combine(
                (min(g.coordinate(s) for g in floors), unit(s))
                for s in {s for f in floors for s in f.support}
            )
        else:
            floor = _constructor_floor(expr.inner, seen)
        assert expr.support_floor == floor, expr
        seen[expr] = floor
    return floor


def test_sum_floor_matches_the_termwise_minimum_seeded():
    # Every node takes its floor in its linear form, as the minimum of its
    # parts' floors; it must equal the floor of the constructor rules on
    # every node of sums with mixed supports, of closures and nabla steps
    # over them, of mixed-basis trees and of shared DAGs.
    rng = random.Random(1515)
    syms = symbols("a b c d", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(60):
        terms = tuple(
            Shift(Dirac(_on_some(rng, units, _ATOM, 0)), _on_some(rng, units, _STEP, 1))
            if rng.random() < 0.3 else Dirac(_on_some(rng, units, _ATOM, 0))
            for _ in range(rng.randint(1, 6))
        )
        steps = [_on_some(rng, units, _STEP, 1) for _ in range(2)]
        seen = {}
        for root in (
            Sum(terms),
            JClosure(Scale(Fraction(-1, 2), Sum(terms)), steps[0]),
            nabla(Sum(terms), steps),
            Shift(nabla(JClosure(terms[0], steps[1]), steps[:1]), steps[0]),
            _random_mixed_tree(rng, units, 3),
            _random_dag(rng, units, 7),
        ):
            _constructor_floor(root, seen)


def _random_dag(rng, units, size):
    """A measure over a pool of nodes that later nodes share, as `nabla`'s
    trees do: a node may be the child of several, a closure may be reached
    at several offsets, and weights, atoms and offsets may be fractional.
    No chain nests more than two closures, so the truncated oracle stays
    small."""
    pool = [(Dirac(_on_some(rng, units, _ATOM, 0)), 0) for _ in range(3)]
    for _ in range(size):
        node, nested = rng.choice(pool)
        step = _on_some(rng, units, _STEP, 1)
        kind = rng.randrange(6)
        if kind == 0:
            node = Shift(node, step)
        elif kind == 1 and nested < 2:
            node, nested = JClosure(node, step), nested + 1
        elif kind == 2:
            node = Scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), node)
        elif kind == 3:
            picked = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            node = Sum(tuple(m for m, _ in picked))
            nested = max(n for _, n in picked)
        else:
            node = nabla(node, [step])
        pool.append((node, nested))
    return pool[-1][0]


def test_linear_form_matches_truncated_oracle_on_shared_trees_seeded():
    rng = random.Random(1616)
    syms = symbols("a b c", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(40):
        tree = _random_dag(rng, units, 7)
        oracle = materialize_truncated(tree, 12)
        queries = [p for p in oracle if all(c <= 4 for _, c in p.terms)]
        queries += [_on_some(rng, units, _QUERY, 0) for _ in range(20)]
        for x in queries:
            assert atom_mass(tree, x) == oracle.get(x, 0), (tree, x)


def test_cancelled_and_zero_forms_are_empty():
    rng = random.Random(1717)
    syms = symbols("a b c", positive=True)
    units = [unit(s) for s in syms]
    for _ in range(20):
        m = _random_mixed_tree(rng, units, 3)
        for zero in (Sum((m, Scale(-1, m))), Scale(0, m)):
            assert zero._atoms == {} and zero._terms == ()
            for _ in range(10):
                assert atom_mass(zero, _on_some(rng, units, _QUERY, 0)) == 0


def test_one_closure_at_several_offsets():
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    closure = JClosure(Sum((Dirac(ZERO), Scale(Fraction(1, 3), Dirac(ub)))), ua)
    tree = Sum((
        closure,
        Shift(closure, ub),
        Scale(Fraction(-1, 2), Shift(closure, Fraction(1, 2) * ua)),
        Scale(2, Shift(closure, ub)),
        Shift(Shift(closure, Fraction(1, 2) * ua), Fraction(1, 2) * ua),
    ))
    # Offsets 0, b, a/2 and a: the two at b merge into one term of weight 3.
    assert sorted(t[5] for t in tree._terms) == [Fraction(-1, 2), 1, 1, 3]
    assert [t[1] for t in tree._terms].count(None) == 1
    oracle = materialize_truncated(tree, 12)
    for x in lattice_box([Fraction(1, 2) * ua, Fraction(1, 3) * ub], -1, 7):
        assert atom_mass(tree, x) == oracle.get(x, 0)


def test_nabla_of_a_closure_merges_equal_offsets():
    # Equal increments put 2^k translates of the closure at only k + 1
    # offsets; increments on distinct symbols keep all 2^k apart.
    syms = symbols("h g1 g2 g3 g4", positive=True)
    uh, *others = [unit(s) for s in syms]
    closure = JClosure(Dirac(uh), uh)
    for k in range(1, 6):
        equal = nabla(closure, (uh,) * k)
        assert len(equal._terms) == k + 1
        # The difference undoes one closure: what is left is nabla^(k-1) of the atom.
        assert atom_mass(equal, k * uh) == (-1) ** (k - 1)
    for k in range(1, 5):
        distinct = nabla(closure, others[:k])
        assert len(distinct._terms) == 2**k
        assert atom_mass(distinct, uh + sum(others[:k], ZERO)) == (-1) ** k
