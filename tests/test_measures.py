"""Atomic measure expressions: masses, closures, and the mass pattern
on the 0/1-combination sets."""

import random
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import combinations
from operator import add

import pytest

from hamelcheck import (
    ZERO,
    Dirac,
    InvalidIncrement,
    JClosure,
    NonTerminatingJ,
    Point,
    Scale,
    Shift,
    Sum,
    Symbol,
    Tabulated,
    atom_mass,
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
from hamelcheck import errors, measures, scenarios
from hamelcheck.basis import sample_box
from hamelcheck.measures import Form, build_a_sets, signed_sum
from helpers import (
    MeasureMass, PointwisePower, Scaled, SumOf, coordinate, lattice_box, materialize,
    materialize_truncated, nested_nabla, standard_function, support_floor,
)


def _units(n):
    syms = symbols(" ".join(f"h{i}" for i in range(1, n + 2)), positive=True)
    return syms, [unit(s) for s in syms]


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


def test_one_chain_mu_matches_one_chain_per_closure_seeded():
    # Lemma 4.6 builds mu as one chain of closures over the signed unit
    # atoms; lemma 4.4 sums one chain per atom. Both must equal the
    # truncated sum of the per-closure route at every point of A and at
    # sampled points with coordinates in -1..2 (kmax = 2 reaches them all).
    rng = random.Random(4646)
    for n in (1, 3, 5, 7):
        syms, _ = _units(n)
        one_chain = build_mu(syms)
        per_closure = signed_sum([build_mu_i(i, syms) for i in range(1, n + 2)])
        truncated = materialize_truncated(per_closure, 2)
        probes = set(build_a_sets(syms).union)
        probes.update(sample_box(rng, syms, -1, 2, min(4 ** (n + 1), 200)))
        for x in probes:
            want = truncated.get(x, 0)
            assert atom_mass(one_chain, x) == atom_mass(per_closure, x) == want, (n, x)


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
    assert type(Scale(Fraction(4, 2), Dirac(ZERO)).parts[0][0]) is int
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


def _termwise_minimum(floors):
    """The coordinatewise minimum of points (a coordinate a point lacks counts as 0)."""
    return point_combine(
        (min(coordinate(g, s) for g in floors), unit(s))
        for s in {s for f in floors for s in f.support}
    )


def _constructor_floor(expr, seen):
    """The support floor by the rules the constructors applied to points:
    a closure's inner floor, and a form's termwise minimum of its parts'
    floors, each its child's floor (the origin for the unit atom) plus the
    part's offset, and of those plus each sum of its increments. Every
    node it reaches must report that floor as its ``support_floor``."""
    floor = seen.get(expr)
    if floor is None:
        if isinstance(expr, JClosure):
            floor = _constructor_floor(expr.inner, seen)
        else:
            floors = [
                (ZERO if child is None else _constructor_floor(child, seen))
                + (ZERO if at is None else at)
                for _, child, at in expr.parts
            ]
            for h in expr.diffs:
                floors += [f + h for f in floors]
            floor = _termwise_minimum(floors)
        assert support_floor(expr) == floor, expr
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
    """A measure over a pool of nodes that later nodes share, as the nested
    fold of a difference does: a node may be the child of several, a closure may be reached
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
    assert sorted(t[-1] for t in tree._terms) == [Fraction(-1, 2), 1, 1, 3]
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


def _memo_roots(ua, ub):
    """A closure, its inner form, and non-closure roots over it: a sum with
    an atom, a scaling, a shift and a nabla result, all over the basis
    ``(a, b)`` except the inner form, whose basis is ``(a,)``."""
    inner = Sum((Dirac(ZERO), Scale(Fraction(1, 2), Dirac(2 * ua))))
    closure = JClosure(inner, ua)
    return [
        inner,
        closure,
        Sum((closure, Dirac(ub))),
        Scale(3, Shift(closure, ub)),
        Shift(closure, ua + ub),
        nabla(Shift(closure, ub), [ua, ub]),
    ]


def test_every_node_answers_repeats_as_a_fresh_tree_seeded():
    # Each root memoises its own totals. Two rounds of shuffled queries,
    # interleaved across roots and asked through equal but distinct
    # points, must answer as a freshly built tree does and as the
    # truncated sum; a memo shared between nodes, or a total stored
    # before the closure terms are added, answers wrong the second time.
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    rng = random.Random(1818)
    roots = _memo_roots(ua, ub)
    oracles = [materialize_truncated(r, 12) for r in roots]
    box = lattice_box([ua, ub], -1, 5)
    for _ in range(2):
        order = [(i, x) for i in range(len(roots)) for x in box]
        rng.shuffle(order)
        for i, x in order:
            got = atom_mass(roots[i], Point(x.terms))
            assert got == atom_mass(_memo_roots(ua, ub)[i], x) == oracles[i].get(x, 0), (i, x)
    for root in roots[2:]:
        assert len(root._memo) == len(box)


def test_off_basis_query_returns_zero_and_stores_nothing():
    # A point with a coordinate off a node's basis has mass 0 there and
    # leaves its memo as it was, cold or warm. The warm point is on every
    # basis; a non-closure node holds it as its one entry.
    a, b, c = symbols("a b c", positive=True)
    ua, ub, uc = unit(a), unit(b), unit(c)
    for i, root in enumerate(_memo_roots(ua, ub)):
        for warm in (False, True):
            if warm:
                for _ in range(2):
                    assert atom_mass(root, 2 * ua) == atom_mass(_memo_roots(ua, ub)[i], 2 * ua)
                if i != 1:
                    assert len(root._memo) == 1
            entries = dict(root._memo)
            assert atom_mass(root, 2 * ua + ub + uc) == 0
            assert atom_mass(root, uc) == 0
            assert root._memo == entries


def test_repeated_lemma46_queries_keep_one_entry_per_point():
    # Lemma 4.6 asks mu at every point of A in several claims, and the
    # unit atom at h1 alongside it; mu keeps one entry per distinct point,
    # the same after every repeat. mu's root is a unit-step chain: with its
    # record it answers each point in closed form and stores just those,
    # |A| entries; walking, it runs down to the support floor, the origin,
    # and stores that too, |A| + 1.
    for n in (1, 3, 5):
        syms, _ = _units(n)
        a_sets = build_a_sets(syms)
        origin = (0,) * (n + 1)
        for walks in (False, True):
            with _walks_only() if walks else nullcontext():
                mu = build_mu(syms)
                fresh = build_mu(syms)
            assert (mu._runs is None) == walks
            expected = {x: atom_mass(fresh, x) for x in a_sets.union}
            delta1 = Dirac(unit(syms[0]))
            power = PointwisePower(SumOf((MeasureMass(mu), MeasureMass(delta1))), n)
            for _ in range(3):
                for x in a_sets.union:
                    assert atom_mass(mu, Point(x.terms)) == expected[x]
                    power.value(x)
                    atom_mass(delta1, x)
                assert len(mu._memo) == len(a_sets.union) + walks
            assert mu._memo.get(origin) == (0 if walks else None)
            # h1 is the one point of A on the atom's basis; the rest are off it.
            assert list(delta1._memo) == [(1,)]


@contextmanager
def _walks_only():
    """Closures built in the block get no chain record, so they walk: the
    oracle a record closure is held to."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_chain_runs", lambda inner, step: None)
        yield


def _random_chain(rng, units):
    """A chain of one to three closures over a finite atomic measure, and a
    root over it. Each symbol has one step value, 1, 2, 1/2 or 3/2 times
    its unit, and may be stepped more than once; the atoms may be
    fractional, of negative weight, or off the stepped symbols. The root is
    the chain, or a shift, a scaling, a nabla, a sum with an atom or a
    closure along two symbols, which walks, above it."""
    step_of = {u: rng.choice(_STEP) * u for u in units}
    nu = Sum(tuple(
        Scale(rng.choice((1, -1, 2, Fraction(-1, 2))), Dirac(_on_some(rng, units, _ATOM, 0)))
        for _ in range(rng.randint(1, 4))
    ))
    chain = nu
    for _ in range(rng.randint(1, 3)):
        chain = JClosure(chain, step_of[rng.choice(units)])
    step = _on_some(rng, units, _STEP, 1)
    root = rng.choice((
        chain, Shift(chain, step), Scale(Fraction(-3, 2), chain), nabla(chain, [step]),
        Sum((chain, Dirac(_on_some(rng, units, _ATOM, 0)))),
        JClosure(chain, _on_some(rng, units, _STEP, 2)),
    ))
    return chain, root


def test_chain_records_match_the_walk_and_the_truncated_sum_seeded():
    # A chain record's closed form must answer as the same tree does with
    # its records cleared, which walks, and as the truncated sum, at the
    # atoms within reach, at random points and at points off the basis.
    rng = random.Random(2020)
    syms = symbols("a b c", positive=True)
    units = [unit(s) for s in syms]
    (foreign,) = symbols("d", positive=True)
    for _ in range(40):
        seed = rng.random()
        chain, root = _random_chain(random.Random(seed), units)
        with _walks_only():
            walk_chain, walk = _random_chain(random.Random(seed), units)
        assert chain._runs is not None and walk_chain._runs is None
        oracle = materialize_truncated(root, 12)
        queries = [p for p in oracle if all(c <= 4 for _, c in p.terms)]
        for _ in range(30):
            x = _on_some(rng, units, _QUERY, 0)
            if rng.random() < 0.3:
                x = x + rng.choice((1, -1, Fraction(1, 2))) * unit(foreign)
            queries.append(x)
        for x in queries:
            assert atom_mass(root, x) == atom_mass(walk, x) == oracle.get(x, 0), (root, x)
    # The closure lemmas' chains, over all of A and a box around it.
    for n in (1, 3):
        syms, units = _units(n)
        with _walks_only():
            walks = [build_mu(syms)] + [build_mu_i(i, syms) for i in range(1, n + 2)]
        records = [build_mu(syms)] + [build_mu_i(i, syms) for i in range(1, n + 2)]
        for x in lattice_box(units, -1, 2):
            assert [atom_mass(r, x) for r in records] == [atom_mass(w, x) for w in walks], x


def test_a_chain_record_tests_each_atom_only_above_the_floor():
    # A read is never below the floor, so it tests an atom only at the
    # coordinates where the atom's quotient is above the floor's: each of
    # build_mu's atoms at one, build_mu_i's single atom, the floor itself,
    # at none; the chain answers as its walk does at every point of A.
    syms, units = _units(5)
    records = [build_mu(syms), build_mu_i(2, syms)]
    with _walks_only():
        walks = [build_mu(syms), build_mu_i(2, syms)]
    for x in lattice_box(units, 0, 1):
        assert [atom_mass(r, x) for r in records] == [atom_mass(w, x) for w in walks], x
    tested = [sorted(len(q) for atoms in r._index[-1].values() for *_, q in atoms)
              for r in records]
    assert tested == [[1] * 6, [0]]


def test_only_axis_aligned_chains_over_atoms_keep_a_record():
    # Runs (symbol, step value, multiplicity), whatever the chain's order.
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    atom = Dirac(ua)
    assert JClosure(atom, ua)._runs == ((a, 1, 1),)
    assert JClosure(JClosure(atom, ua), ua)._runs == ((a, 1, 2),)
    assert JClosure(JClosure(JClosure(atom, 2 * ub), ua), 2 * ub)._runs == ((b, 2, 2), (a, 1, 1))
    assert JClosure(Sum((atom, Scale(-1, Dirac(ub)))), Fraction(1, 2) * ub)._runs is not None
    for walks in (
        JClosure(atom, ua + ub),                       # a step on two symbols
        JClosure(JClosure(atom, ua), 2 * ua),          # h beside 2*h
        JClosure(JClosure(atom, ua + ub), ua),         # over a walking closure
        JClosure(Sum((JClosure(atom, ua), atom)), ub),  # over a form with a closure term
        JClosure(Shift(JClosure(atom, ua), ub), ub),
    ):
        assert walks._runs is None


def test_a_repeated_basis_symbol_is_refused():
    a, b = symbols("a b", positive=True)
    for build in (build_mu, build_a_sets, lambda syms: build_mu_i(1, syms)):
        with pytest.raises(ValueError, match=r"^basis symbols must be distinct$"):
            build([a, b, a])


def test_fixed_by_reads_the_chain_record_runs_atoms_and_weights():
    # A renaming fixes a chain record when it maps its runs and its
    # weighted atoms onto themselves; a node with no record, or a renaming
    # that leaves the basis, is never certified.
    a, b, c = symbols("a b c", positive=True)
    ua, ub, uc = unit(a), unit(b), unit(c)
    swap, cycle = {a: b, b: a}, {a: b, b: c, c: a}
    mu = build_mu([c, a, b])  # -1 at c, +1 at a and b
    assert measures.fixed_by(mu, swap) and measures.fixed_by(mu, {})
    assert not measures.fixed_by(mu, cycle)
    assert not measures.fixed_by(mu, {a: c, c: a})  # the weights of a and c differ
    assert not measures.fixed_by(mu, {a: b})  # not a permutation of the basis
    assert not measures.fixed_by(mu, {a: b, b: Symbol("d", positive=True)})
    # Equal atoms over runs of unequal steps or multiplicities.
    atoms = Sum((Dirac(ua), Dirac(ub)))
    assert measures.fixed_by(j_op(atoms, [ua, ub]), swap)
    assert not measures.fixed_by(j_op(atoms, [ua, 2 * ub]), swap)
    assert not measures.fixed_by(j_op(atoms, [ua, ua, ub]), swap)
    # Atoms h_a + 2h_b, h_b + 2h_c, h_c + 2h_a: fixed by the cycle alone.
    ring = Sum([Dirac(point_combine(((1, p), (2, q)))) for p, q in ((ua, ub), (ub, uc), (uc, ua))])
    closed = j_op(ring, [ua, ub, uc])
    assert measures.fixed_by(closed, cycle) and not measures.fixed_by(closed, swap)
    for node in (atoms, JClosure(atoms, ua + ub), Sum((mu, Dirac(uc)))):
        assert not measures.fixed_by(node, {})


def test_fixed_by_maps_a_chain_record_onto_an_image_node():
    # With an image, a renaming must carry one node's chain record onto
    # the other's: the closure of the unit atom at a onto that at b, by any
    # renaming that sends a to b and permutes the basis.
    a, b, c = symbols("a b c", positive=True)
    ua, ub, uc = unit(a), unit(b), unit(c)
    swap, cycle = {a: b, b: a}, {a: b, b: c, c: a}
    mu_a, mu_b, mu_c = (build_mu_i(i, [a, b, c]) for i in (1, 2, 3))
    assert measures.fixed_by(mu_a, swap, mu_b) and measures.fixed_by(mu_b, swap, mu_a)
    assert measures.fixed_by(mu_a, cycle, mu_b) and measures.fixed_by(mu_c, cycle, mu_a)
    assert measures.fixed_by(mu_c, swap, mu_c) and measures.fixed_by(mu_c, swap)
    assert not measures.fixed_by(mu_a, swap) and not measures.fixed_by(mu_a, {}, mu_b)
    assert not measures.fixed_by(mu_a, cycle, mu_c)
    # An image over another basis, with another step or an extra atom, or
    # with no chain record, is never reached.
    for image in (build_mu_i(2, [a, b]), j_op(Dirac(ub), [ua, 2 * ub, uc]),
                  j_op(Sum((Dirac(ub), Dirac(2 * uc))), [ua, ub, uc]), Dirac(ub),
                  JClosure(Dirac(ub), ua + ub)):
        assert not measures.fixed_by(mu_a, swap, image)


def _probe_roots(units, rng):
    """A source measure on the first symbol only, its closure along a step
    on two symbols (so the closure's basis is larger than its inner's),
    and roots over two and three symbols built on both."""
    ua, ub, uc = units
    nu = Sum(tuple(
        Scale(rng.choice((1, 2, Fraction(-1, 2))), Dirac(rng.randint(-1, 2) * ua))
        for _ in range(rng.randint(1, 3))
    ))
    step = ua + rng.choice((1, 2)) * ub
    closure = JClosure(nu, step)
    return [
        nu,
        closure,
        nabla(closure, [step]),
        Sum((closure, Dirac(ub + uc))),
        Shift(nu, uc),
        JClosure(Sum((nu, Scale(-1, Shift(closure, ua)))), ub),
    ]


def test_points_read_once_per_basis_answer_as_fresh_trees_seeded():
    # A point keeps its coordinates over the last basis it was read on. The
    # same Point objects and equal but distinct ones are read, interleaved,
    # on roots over one, two and three symbols, some off every basis; a
    # stale tuple kept across bases, or an off-basis point read as on it,
    # answers differently from a fresh tree and the truncated sum.
    a, b, c, d = symbols("a b c d", positive=True)
    units = [unit(s) for s in (a, b, c)]
    rng = random.Random(1919)
    for trial in range(12):
        seed = rng.random()
        roots = _probe_roots(units, random.Random(seed))
        oracles = [materialize_truncated(r, 12) for r in roots]
        pool = [point_combine((rng.randint(-1, 4), u) for u in units) for _ in range(30)]
        pool += [p + rng.choice((1, -1)) * unit(d) for p in pool[:6]]
        for _ in range(400):
            i = rng.randrange(len(roots))
            x = rng.choice(pool)
            if rng.random() < 0.5:
                x = Point(x.terms)
            fresh = _probe_roots(units, random.Random(seed))[i]
            assert atom_mass(roots[i], x) == atom_mass(fresh, x) == oracles[i].get(x, 0), (
                trial, i, x,
            )


def test_doubling_dag_folds_without_exponential_work():
    # m = sum(m, m), k times: 2^k paths reach the atom, but each level
    # folds its one child's form once, so every node holds one atom and
    # the weight doubles.
    (s,) = symbols("s", positive=True)
    u = unit(s)
    k = 200
    m = Shift(Dirac(ZERO), u)
    for _ in range(k):
        assert len(m._atoms) == 1 and m._terms == ()
        m = Sum((m, m))
    assert m._atoms == {(1,): 2**k} and m._terms == ()
    assert atom_mass(m, u) == 2**k
    assert atom_mass(JClosure(m, u), 3 * u) == 2**k


def _form(mu):
    """A node's form: basis, floor, atoms and terms in order, each term's
    pickers read as the positions they pick."""
    idx = tuple(range(len(mu._basis)))
    return mu._basis, mu._floor, list(mu._atoms.items()), [
        (closure, off, None if keep is None else (keep(idx), drop(idx)), c)
        for closure, off, keep, drop, c in mu._terms
    ]


def _increments(rng, hs, foreign):
    """``hs`` in a random order with more increments: a repeat of one (equal
    increments merge), the sum of two (h1 + h2 = h3 cancels an offset),
    a fractional multiple of one, or a step on the symbol ``foreign``."""
    hs = list(hs)
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(4)
        if kind == 0:
            hs.append(rng.choice(hs))
        elif kind == 1:
            pair = rng.sample(hs, 2) if len(hs) > 1 else hs * 2
            hs.append(pair[0] + pair[1])
        elif kind == 2:
            hs.append(Fraction(rng.choice((1, 3)), 2) * rng.choice(hs))
        else:
            hs.append(rng.choice((1, 2, Fraction(1, 2))) * unit(foreign))
    rng.shuffle(hs)
    return hs


def test_nabla_is_the_nested_fold_form_for_form_seeded():
    # nabla builds Π(1 − T_h) mu as one node; it must hold the form of the
    # nested Sum/Scale/Shift fold in tests/helpers: the same basis and
    # floor, the same atoms, and the same terms in the same order with the
    # same weights, and so the same masses. The measures are prop43's
    # instances and their closures (with a chain record and walking), a
    # difference of a closure, and shared DAGs, and a cancelling sum
    # h1 + h2 = h3 comes back on a closure at every round.
    rng = random.Random(3535)
    units = [unit(s) for s in symbols("s1 s2 s3", positive=True)]
    (foreign,) = symbols("t", positive=True)
    merged = cancelled = 0
    for _ in range(40):
        nu, hs, _ = scenarios._random_instance(rng)
        closed = j_op(nu, hs)
        with _walks_only():
            walks = j_op(nu, hs)
        h1, h2 = units[0], rng.choice(units[1:])
        roots = [
            (closed, _increments(rng, hs, foreign)),
            (walks, _increments(rng, hs, foreign)),
            (nu, _increments(rng, hs, foreign)),
            (nabla(closed, hs[:1]), _increments(rng, hs, foreign)),
            (_random_dag(rng, units, 5), _increments(rng, [h1, h2], foreign)),
            (closed, [h1, h2, h1 + h2, rng.choice((h1, h2))]),
        ]
        for mu, steps in roots:
            got, want = nabla(mu, steps), nested_nabla(mu, steps)
            assert type(got) is Form and got.diffs == tuple(steps)
            assert _form(got) == _form(want), (mu, steps)
            n = len(got._basis)
            for x in sample_box(rng, got._basis, -1, 6, min(8 ** n, 30)):
                assert atom_mass(got, x) == atom_mass(want, x), (mu, steps, x)
            # Equal increments merge a closure's translates at some offsets.
            merged += type(mu) is JClosure and len(got._terms) < 2 ** len(steps)
        # h1 + h2 cancels the closure at offset h1 + h2 once the sum is
        # taken, and the last increment brings it back.
        cancelled += (closed, tuple(map(add, *(p.coords(got._basis) for p in (h1, h2))))) in {
            t[:2] for t in got._terms}
    assert merged and cancelled == 40


def test_nabla_of_no_increment_is_mu_and_the_first_bad_one_is_named():
    (a,) = symbols("a", positive=True)
    (m,) = symbols("m")
    ua = unit(a)
    mu = JClosure(Dirac(ua), ua)
    assert nabla(mu, []) is mu and nabla(mu, ()) is mu
    for bad, first in (
        ([ZERO], ZERO),
        ([ua, -1 * ua, ZERO], -1 * ua),
        ([Fraction(1, 2) * ua, unit(m), ZERO], unit(m)),
    ):
        with pytest.raises(InvalidIncrement) as got:
            nabla(mu, bad)
        with pytest.raises(InvalidIncrement) as want:
            nested_nabla(mu, bad)
        assert str(got.value) == str(want.value) == f"not a positive increment: {first}"


def test_a_metered_difference_of_a_walking_closure_charges_as_before():
    # A closure along a + b walks; the difference of it reads it at the
    # eight translates of each query. The walks charge the translates they
    # take, less those the memo saves: 27 units for the first query and 17
    # for the second, as the nested fold charged.
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    walk = JClosure(Sum((Dirac(ZERO), Scale(2, Dirac(ub)))), ua + ub)
    mu = nabla(walk, [ua, ub, ua])
    assert walk._runs is None
    with errors.metered():
        first = atom_mass(mu, 9 * ua + 7 * ub)
        spent = errors._spent
        second = atom_mass(mu, 11 * ua + 10 * ub)
        assert (first, spent, second, errors._spent) == (1, 27, -1, 44)
    assert len(walk._memo) == 49


def test_a_repeated_query_is_answered_from_the_memo(monkeypatch):
    # A closure answers a point it has answered from its memo: a chain
    # record makes no second closed-form call there, and a walk is charged
    # nothing the second time.
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    record = JClosure(Sum((Dirac(ua), Dirac(ua + ub))), ua)
    assert record._runs is not None
    calls = []
    real = measures._chain_mass
    monkeypatch.setattr(measures, "_chain_mass", lambda mu, v: calls.append(v) or real(mu, v))
    assert [atom_mass(record, 5 * ua + ub) for _ in range(2)] == [1, 1]
    assert len(calls) == 1
    walk = JClosure(Sum((Dirac(ZERO), Scale(2, Dirac(ub)))), ua + ub)
    assert walk._runs is None
    x = 9 * ua + 7 * ub
    with errors.metered():
        first = atom_mass(walk, x)
        spent = errors._spent
        assert spent > 0
        assert atom_mass(walk, x) == first and errors._spent == spent


def test_a_term_the_memo_or_the_floor_answers_is_read_without_a_call(monkeypatch):
    # The difference of a closure reads it at four translates. Once the
    # closure has answered each, the read takes the memo's total and makes
    # no call into the closure: the one call is the query's own. A
    # translate below the closure's floor is 0, read with no call too.
    a, b = symbols("a b", positive=True)
    ua, ub = unit(a), unit(b)
    x, y = 4 * ua + 3 * ub, ua + ub

    def build():
        closure = JClosure(Sum((Dirac(ua), Scale(Fraction(-1, 2), Dirac(ub)))), ua + ub)
        return closure, nabla(closure, [ua, 2 * ub])

    want = {p: atom_mass(build()[1], p) for p in (x, y)}
    closure, mu = build()
    for w in (x, x - ua, x - 2 * ub, x - ua - 2 * ub):
        atom_mass(closure, w)
    calls = []
    real = measures._mass
    monkeypatch.setattr(measures, "_mass", lambda node, v: calls.append(node) or real(node, v))
    assert atom_mass(mu, x) == want[x]
    assert calls == [mu]
    # A cold closure is called into at each: no translate lies on
    # another's walk.
    closure, mu = build()
    calls.clear()
    assert atom_mass(mu, x) == want[x]
    assert calls.count(closure) == 4
    # At a + b, the translates a + b - 2b and b - 2b lie below the floor.
    closure, mu = build()
    calls.clear()
    assert atom_mass(mu, y) == want[y]
    assert calls == [mu, closure, closure]
    # So is a query of the closure itself there.
    assert atom_mass(closure, y - 2 * ub) == 0 and len(calls) == 3
