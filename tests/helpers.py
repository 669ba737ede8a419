"""Shared generators for seeded randomized suites, and the kernels, point
functions, point readers and reference measures that only the tests use."""

from fractions import Fraction
from itertools import product

from hamelcheck import (
    ZERO,
    AdditiveFunctional,
    Composite,
    Dirac,
    JClosure,
    Point,
    PointFunction,
    PositivePartPower,
    Scale,
    Shift,
    Sum,
    Symbol,
    Tabulated,
    atom_mass,
    backward_diff,
    build_mu,
    build_mu_i,
    point_combine,
    scenarios,
    unit,
)
from hamelcheck.basis import Frozen, check_increment, exact
from hamelcheck.functions import Kernel
from hamelcheck.measures import Form, build_a_sets, signed_sum


class AbsoluteValue(Kernel):
    """t -> |t|."""

    def apply(self, t):
        return -t if t < 0 else t


class Power(Kernel):
    """t -> t**power, power >= 0 (0**0 == 1)."""

    def __init__(self, power):
        if power < 0:
            raise ValueError("power must be nonnegative")
        self.__dict__.update(power=power)

    def apply(self, t):
        return t ** self.power


class Identity(Kernel):
    """t -> t."""

    def apply(self, t):
        return t


class Scaled(PointFunction, Frozen):
    """x -> factor * inner(x): not a ``Composite``, so its differences are
    keyed by points."""

    def __init__(self, factor, inner):
        self.__dict__.update(factor=exact(factor), inner=inner)

    def value(self, x):
        if not self.factor:
            return 0
        return self.factor * self.inner.value(x)


class SumOf(PointFunction, Frozen):
    """x -> the sum of ``parts`` at x: ``SumOf((f,))`` is ``f`` read on the
    point-keyed route."""

    def __init__(self, parts):
        self.__dict__.update(parts=tuple(parts))

    def value(self, x):
        total = 0
        for f in self.parts:
            total += f.value(x)
        return total


class MeasureMass(PointFunction, Frozen):
    """x -> the atom mass of ``measure`` at x."""

    def __init__(self, measure):
        self.__dict__.update(measure=measure)

    def value(self, x):
        return atom_mass(self.measure, x)


class PointwisePower(PointFunction, Frozen):
    """x -> inner(x)**power, power >= 1."""

    def __init__(self, inner, power):
        if power < 1:
            raise ValueError("power must be a positive integer")
        self.__dict__.update(inner=inner, power=power)

    def value(self, x):
        return self.inner.value(x) ** self.power


def coordinate(p, sym):
    """The coefficient of ``sym`` in the point ``p`` (0 off its support)."""
    return dict(p.terms).get(sym, 0)


def support_floor(mu):
    """The floor of the measure ``mu`` as a point: no support coordinate
    lies below it."""
    return Point.from_coords(mu._basis, mu._floor)


def lattice_box(gens, lo, hi):
    """Every combination of the points ``gens`` with integer coefficients
    in ``lo..hi``, the first varying slowest, each built by
    ``point_combine``: over unit points, the order ``sample_box`` draws
    from, built independently of ``box_points``."""
    return [point_combine(zip(cs, gens)) for cs in product(range(lo, hi + 1), repeat=len(gens))]


def nested_nabla(mu, hs):
    """The iterated difference as the fold of ``acc − T_h acc`` over ``hs``,
    one ``Sum``, ``Scale`` and ``Shift`` node for each increment: the
    reference ``nabla``'s one node is held to, form for form."""
    acc = mu
    for h in hs:
        check_increment(h)
        acc = Sum((acc, Scale(-1, Shift(acc, h))))
    return acc


def _difference(atoms, steps):
    """The atom dict ``atoms`` with ``acc − T_h acc`` taken for each step."""
    for h in steps:
        acc = dict(atoms)
        for p, m in atoms.items():
            acc[p + h] = acc.get(p + h, Fraction(0)) - m
        atoms = acc
    return atoms


def _form_atoms(expr, child_atoms):
    """The atom dict of a `Form`, by Point arithmetic: ``c`` times each
    part's child (``child_atoms`` of it; the unit atom at the origin for
    None) moved by the part's offset, summed, then ``acc − T_h acc`` for
    each increment."""
    acc = {}
    for c, child, at in expr.parts:
        atoms = {ZERO: Fraction(1)} if child is None else child_atoms(child)
        for p, m in atoms.items():
            q = p if at is None else p + at
            acc[q] = acc.get(q, Fraction(0)) + c * m
    return _difference(acc, expr.diffs)


def materialize(expr):
    """Independent atom-dict oracle for closure-free trees."""
    if type(expr) is not Form:
        raise TypeError(expr)
    return _form_atoms(expr, materialize)


def materialize_truncated(expr, kmax, memo=None):
    """Oracle including closures, truncated at kmax translates per level;
    valid for probe points within reach of kmax steps. ``memo`` holds the
    dict of each node already reached, so a node shared in a DAG is
    expanded once."""
    memo = {} if memo is None else memo
    atoms = memo.get(expr)
    if atoms is not None:
        return atoms
    if isinstance(expr, JClosure):
        inner = materialize_truncated(expr.inner, kmax, memo)
        atoms = {}
        for k in range(kmax + 1):
            shift = k * expr.step
            for p, m in inner.items():
                q = p + shift
                atoms[q] = atoms.get(q, Fraction(0)) + m
    else:
        atoms = _form_atoms(expr, lambda child: materialize_truncated(child, kmax, memo))
    memo[expr] = atoms
    return atoms


def standard_function(n):
    """Symbols h1..h(n+1), additive map -1/1/.../1, composed with t_+^n."""
    syms = [Symbol(f"h{i}", positive=True) for i in range(1, n + 2)]
    values = {syms[0]: -1}
    values.update({s: 1 for s in syms[1:]})
    a = AdditiveFunctional(values)
    return syms, a, Composite(PositivePartPower(n), a)


def random_increments(rng, units, k):
    """k positive increments: scaled units or small nonnegative combos."""
    out = []
    for _ in range(k):
        if len(units) == 1 or rng.random() < 0.6:
            out.append(rng.randint(1, 2) * rng.choice(units))
        else:
            coords = [rng.randint(0, 2) for _ in units]
            if not any(coords):
                coords[rng.randrange(len(units))] = 1
            out.append(point_combine(zip(coords, units)))
    return tuple(out)


def random_tabulated_instance(rng, max_increments=5):
    """A tabulated function holding random exact values at precisely the
    subset-sum points needed for a k-fold difference at x."""
    nsym = rng.randint(1, 3)
    units = [unit(Symbol(f"b{i + 1}", positive=True)) for i in range(nsym)]
    k = rng.randint(1, max_increments)
    hs = random_increments(rng, units, k)
    x = point_combine((rng.randint(-2, 2), u) for u in units)
    table = {}
    for mask in range(1 << k):
        p = x
        for i in range(k):
            if mask >> i & 1:
                p = p + hs[i]
        if p not in table:
            table[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Tabulated(table), x, hs


def random_lattice_point(rng, units, lo=0, hi=3):
    return point_combine((rng.randint(lo, hi), u) for u in units)


def lemma_4_6_full(n):
    """Each claim's computed value of ``verify_lemma_4_6(n)`` by the full
    route, the oracle of its class route: every pointwise claim reads all
    2^(n+1) - 1 points of A from ``build_a_sets``, and each of the three
    measure-path differences is one ``backward_diff`` expansion over the
    2^(n+1) subset sums of the units."""
    syms, units, a, f, top = scenarios._standard_setup(n)
    mu = build_mu(syms)
    union = build_a_sets(syms).union
    delta1 = Dirac(units[0])
    sign_n = (-1) ** n
    combined_pow = PointwisePower(MeasureMass(Sum((mu, delta1))), n)
    mu_pow_diff = backward_diff(PointwisePower(MeasureMass(mu), n), top, units)
    atom_diff = backward_diff(MeasureMass(delta1), top, units)
    measure_path = backward_diff(combined_pow, top, units)
    direct_path = backward_diff(f, top, units)
    return {
        "additive-matches-mass-on-A": all(a(x) == atom_mass(mu, x) for x in union),
        "mass-power-identity-on-A": all(f.value(x) == combined_pow.value(x) for x in union),
        "binomial-reduction-on-A": all(
            combined_pow.value(x) == atom_mass(mu, x) ** n - sign_n * atom_mass(delta1, x)
            for x in union),
        "power-mass-diff-at-top": mu_pow_diff,
        "unit-atom-diff-at-top": atom_diff,
        "chain-measure-path": measure_path,
        "chain-direct-path": direct_path,
        "paths-agree": measure_path == direct_path,
    }


def lemma_4_4_full(n):
    """Each claim's computed value of ``verify_lemma_4_4(n)`` by the full
    route, the oracle of its class route: every mu_i is read at all of its
    A_i and of the rest of A, and mu at all 2^(n+1) - 1 points of A, from
    ``build_a_sets``."""
    syms, units, _, _, _ = scenarios._standard_setup(n)
    mus = [build_mu_i(i, syms) for i in range(1, n + 2)]
    mu = signed_sum(mus)
    a_sets = build_a_sets(syms)
    h1 = units[0]
    delta1 = Dirac(h1)
    return {
        "a-unit-mass-on-own-set": all(
            atom_mass(mus[i], x) == 1 for i in range(n + 1) for x in a_sets.sets[i]),
        "b-zero-mass-off-set": all(
            atom_mass(mus[i], x) == 0
            for i in range(n + 1) for x in a_sets.union - a_sets.sets[i]),
        "c-negative-only-at-h1": {x for x in a_sets.union if atom_mass(mu, x) < 0} == {h1},
        "d-mass-at-h1": atom_mass(mu, h1),
        "d-only-first-closure-at-h1": atom_mass(mus[0], h1) == 1 and all(
            atom_mass(m, h1) == 0 for m in mus[1:]),
        "e-positive-part-shift": all(
            max(atom_mass(mu, x), 0) == atom_mass(mu, x) + atom_mass(delta1, x)
            for x in a_sets.union),
    }
