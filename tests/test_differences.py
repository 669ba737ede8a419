"""Forward/backward difference operators and convexity probes."""

import math
import random
from fractions import Fraction

import pytest

from hamelcheck import (
    ZERO,
    AbsoluteValue,
    AdditiveFunctional,
    Composite,
    Identity,
    InvalidIncrement,
    PointFunction,
    PositivePartPower,
    Power,
    Scaled,
    SumOf,
    Tabulated,
    UntabulatedPoint,
    backward_diff,
    difference_table,
    differences,
    forward_diff,
    forward_diff_closed,
    jensen_convexity_probe,
    point_combine,
    symbols,
    tabulated_abs,
    unit,
    wright_convexity_probe,
)
from hamelcheck.basis import exact, subset_sums
from hamelcheck.differences import group_sums
from helpers import random_tabulated_instance, standard_function


def test_second_difference_of_affine_vanishes():
    h1, h2 = symbols("h1 h2", positive=True)
    a = AdditiveFunctional({h1: Fraction(2), h2: Fraction(-5, 3)})
    f = Composite(Identity(), a)
    x = 3 * unit(h1) - unit(h2)
    assert forward_diff(f, x, (unit(h1), unit(h2))) == 0


def test_forward_diff_order_three_instance():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    assert forward_diff(f, ZERO, units) == -1
    assert forward_diff_closed(f, ZERO, units) == -1


def test_forward_diff_tabulated_magnitudes():
    (s,) = symbols("s", positive=True)
    su = unit(s)
    f = tabulated_abs({ZERO: -9, su: 4, 2 * su: 7, 3 * su: 0})
    assert forward_diff(f, ZERO, (su, su, su)) == -18


def test_closed_form_annihilates_constants():
    (s,) = symbols("s", positive=True)
    const = Composite(Power(0), AdditiveFunctional({}))
    for k in range(1, 4):
        assert forward_diff_closed(const, ZERO, (unit(s),) * k) == 0
        assert forward_diff(const, ZERO, (unit(s),) * k) == 0
        assert backward_diff(const, ZERO, (unit(s),) * k) == 0


def test_closed_form_order_one_instance():
    # Brute force over the 4 subset sums: 0 - 0 - 1 + 0.
    syms, _, f = standard_function(1)
    units = [unit(s) for s in syms]
    assert forward_diff_closed(f, ZERO, units) == -1


def test_backward_single_step():
    (h,) = symbols("h", positive=True)
    x = 2 * unit(h)
    f = Tabulated({x: Fraction(1), x - unit(h): Fraction(0)})
    assert backward_diff(f, x, (unit(h),)) == 1


def test_backward_equals_forward_at_shifted_argument():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    top = sum(units, ZERO)
    assert backward_diff(f, top, units) == -1


def test_equal_increment_diff_examples():
    # Reflected square: third difference -c^2 with c = -1.
    (u,) = symbols("u", positive=True)
    a = AdditiveFunctional({u: -1})
    f = Composite(PositivePartPower(2), a)
    assert forward_diff(f, -1 * unit(u), (unit(u),) * 3) == -1

    # Exact witness with a(x) = 1, a(h) = -2.
    s, t = symbols("s t", positive=True)
    wa = AdditiveFunctional({s: 1, t: -2})
    wf = Composite(PositivePartPower(2), wa)
    assert forward_diff(wf, unit(s), (unit(t),) * 3) == -1

    # Order 1 is the plain step.
    assert forward_diff(wf, unit(s), (unit(t),)) == wf.value(
        unit(s) + unit(t)
    ) - wf.value(unit(s))


def test_oracle_equivalence_seeded():
    rng = random.Random(404)
    for _ in range(40):
        f, x, hs = random_tabulated_instance(rng)
        assert forward_diff(f, x, hs) == forward_diff_closed(f, x, hs)


def test_permutation_symmetry_seeded():
    rng = random.Random(505)
    for _ in range(40):
        f, x, hs = random_tabulated_instance(rng)
        shuffled = list(hs)
        rng.shuffle(shuffled)
        v = forward_diff_closed(f, x, hs)
        assert forward_diff_closed(f, x, shuffled) == v
        assert forward_diff(f, x, shuffled) == v


def test_backward_forward_identity_seeded():
    rng = random.Random(606)
    for _ in range(40):
        f, x, hs = random_tabulated_instance(rng)
        top = x
        for h in hs:
            top = top + h
        assert backward_diff(f, top, hs) == forward_diff(f, x, hs)


def test_difference_table_structure():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    rows = difference_table(f, ZERO, units)
    assert len(rows) == 16
    assert [r.size for r in rows] == [4] + [3] * 4 + [2] * 6 + [1] * 4 + [0]
    assert [r.value for r in rows] == [8, 1, 1, 1, 27, 0, 0, 0, 8, 8, 8, 0, 1, 1, 1, 0]
    assert [r.sign for r in rows] == [(-1) ** (4 - r.size) for r in rows]
    assert sum(r.sign * r.value for r in rows) == -1
    # The walkthrough's 8 - 30 + 24 - 3 + 0.
    assert group_sums(rows) == [(4, 1, 8), (3, -1, 30), (2, 1, 24), (1, -1, 3), (0, 1, 0)]


def test_jensen_probe_clean_on_lattice():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    samples = [
        (x, h)
        for x in (ZERO, units[0], units[1] + units[2], sum(units, ZERO))
        for h in units
    ]
    assert jensen_convexity_probe(f, 3, samples) == ()


def test_jensen_probe_flags_witness():
    s, t = symbols("s t", positive=True)
    a = AdditiveFunctional({s: 1, t: -2})
    f = Composite(PositivePartPower(2), a)
    (v,) = jensen_convexity_probe(f, 2, [(unit(s), unit(t))])
    assert v == (0, unit(s), (unit(t),) * 3, -1)


def test_jensen_probe_scaled_square_grid():
    (u,) = symbols("u", positive=True)
    a = AdditiveFunctional({u: 1})
    f = Composite(PositivePartPower(2), a)
    g = Scaled(4, f)
    samples = [(j * unit(u), h) for j in range(-3, 4) for h in (unit(u), 2 * unit(u))]
    assert jensen_convexity_probe(g, 2, samples) == ()


def test_jensen_probe_raises_at_first_untabulated_sample():
    # The table lacks 2s. Samples at x = -2s and -s fit below it; x = 0 is
    # the first sample whose difference needs 2s, and the probe stops there
    # with the message forward_diff gives at that sample.
    (s,) = symbols("s", positive=True)
    su = unit(s)
    f = Tabulated({j * su: j * j for j in (-2, -1, 0, 1, 3)})
    samples = [(j * su, su) for j in (-2, -1, 0, 1)]
    assert jensen_convexity_probe(f, 1, samples[:2]) == ()
    with pytest.raises(UntabulatedPoint) as fresh:
        forward_diff(f, ZERO, (su, su))
    with pytest.raises(UntabulatedPoint) as probed:
        jensen_convexity_probe(f, 1, samples)
    assert str(probed.value) == str(fresh.value) == f"no tabulated value at {2 * su}"


def test_wright_probe_flags_mixed_violation():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    (v,) = wright_convexity_probe(f, 3, [(ZERO, units)])
    assert v.value == -1


def test_wright_probe_clean_for_convex_kernel():
    (s,) = symbols("s", positive=True)
    a = AdditiveFunctional({s: 1})
    f = Composite(PositivePartPower(3), a)
    su = unit(s)
    samples = [
        (j * su, (su, 2 * su, su, su)) for j in range(-2, 3)
    ]
    assert wright_convexity_probe(f, 3, samples) == ()


def test_wright_probe_constant_clean():
    (s,) = symbols("s", positive=True)
    const = Composite(Power(0), AdditiveFunctional({}))
    samples = [(ZERO, (unit(s),) * 2)]
    assert wright_convexity_probe(const, 1, samples) == ()


def test_wright_specializes_to_jensen():
    # With all increments equal the two probes flag exactly the same samples.
    s, t = symbols("s t", positive=True)
    a = AdditiveFunctional({s: 1, t: -2})
    f = Composite(PositivePartPower(2), a)
    pairs = [(unit(s), unit(t)), (unit(s), unit(s)), (ZERO, unit(t))]
    jensen = jensen_convexity_probe(f, 2, pairs)
    wright = wright_convexity_probe(f, 2, [(x, (h,) * 3) for x, h in pairs])
    assert jensen == wright and len(jensen) == 1


def test_increment_validation():
    s, m = symbols("s", positive=True) + symbols("m")
    _, _, f = standard_function(1)
    with pytest.raises(InvalidIncrement):
        forward_diff(f, ZERO, ())
    with pytest.raises(InvalidIncrement):
        forward_diff(f, ZERO, (ZERO,))
    with pytest.raises(InvalidIncrement):
        forward_diff(f, ZERO, (unit(m),))
    with pytest.raises(InvalidIncrement):
        backward_diff(f, ZERO, (unit(s) - 2 * unit(s),))
    with pytest.raises(InvalidIncrement):
        wright_convexity_probe(f, 2, [(ZERO, (unit(s),))])  # wrong arity


def test_probe_rejects_an_invalid_increment_at_its_sample():
    # Increments are checked once per distinct tuple, when its chain is
    # built; a bad one still stops the probe at the first sample holding it.
    (s,), (m,) = symbols("s", positive=True), symbols("m")
    us, um = unit(s), unit(m)
    f = Composite(PositivePartPower(3), AdditiveFunctional({s: 1, m: 1}))
    for bad in ((um,) * 4, (us, us, um, us), (us, 2 * us - 3 * us, us, us)):
        drawn = []

        def samples():
            for index, hs in enumerate(((us,) * 4, (2 * us,) * 4, (us,) * 4, bad, (us,) * 4)):
                drawn.append(index)
                yield index * us, hs

        with pytest.raises(InvalidIncrement) as err:
            wright_convexity_probe(f, 3, samples())
        assert drawn == [0, 1, 2, 3]
        assert str(err.value) == f"not a positive increment: {next(h for h in bad if h != us)}"
    with pytest.raises(InvalidIncrement, match="^sample 1: expected 4 increments, got 3$"):
        wright_convexity_probe(f, 3, [(ZERO, (us,) * 4), (ZERO, (us,) * 3)])
    with pytest.raises(InvalidIncrement, match=f"^not a positive increment: {um}$"):
        jensen_convexity_probe(f, 3, [(ZERO, us), (us, us), (ZERO, um)])


class _Recording(PointFunction):
    """Records, in order, the points at which the function it wraps is
    evaluated."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    def value(self, x):
        self.points.append(x)
        return self.inner.value(x)


def test_equal_increments_evaluate_each_level_point_once():
    # Delta_h^k t^k = k! when a(h) = 1; the 2^k subset sums of k equal
    # increments are k + 1 distinct points, each read once.
    (h,) = symbols("h", positive=True)
    k = 16
    x = -3 * unit(h)
    hs = (unit(h),) * k
    f = Composite(Power(k), AdditiveFunctional({h: 1}))
    fwd, bwd = _Recording(f), _Recording(f)
    assert forward_diff(fwd, x, hs) == math.factorial(k)
    assert backward_diff(bwd, x + k * unit(h), hs) == math.factorial(k)
    assert len(fwd.points) <= k + 1
    assert len(bwd.points) <= k + 1


def test_each_distinct_point_is_read_once():
    # u1 + u2 is a subset sum twice over; in the first tuple its two terms
    # cancel, and it is read all the same, once.
    h1, h2 = symbols("h1 h2", positive=True)
    u1, u2 = unit(h1), unit(h2)
    x = u1 - 2 * u2
    for hs in ((u1, u2, u1 + u2), (u1, u1, u2, u1 + u2)):
        f = _Recording(Composite(Power(3), AdditiveFunctional({h1: 2, h2: -1})))
        assert forward_diff(f, x, hs) == forward_diff_closed(f.inner, x, hs)
        assert sorted(map(str, f.points)) == sorted({str(p) for _, p in subset_sums(x, hs)})


def _shifted(x, hs):
    for h in hs:
        x = x - h
    return x


def test_backward_evaluates_as_forward_at_shifted_point():
    # Distinct, repeated and half-integer increments: the backward
    # difference at x calls f at the points, in the order, of the forward
    # difference at x - sum(hs).
    h1, h2 = symbols("h1 h2", positive=True)
    u1, u2 = unit(h1), unit(h2)
    half = Fraction(1, 2) * u1
    f = Composite(PositivePartPower(3), AdditiveFunctional({h1: -1, h2: Fraction(3, 2)}))
    x = 2 * u1 - u2
    for hs in (
        (u1, u2, u1 + u2, 2 * u2),
        (u1, u2, u1, u1, u2, u1),
        (half, Fraction(3, 2) * u2, half, u1 + half),
    ):
        bwd, fwd = _Recording(f), _Recording(f)
        assert backward_diff(bwd, x, hs) == forward_diff(fwd, _shifted(x, hs), hs)
        assert bwd.points == fwd.points
        assert set(bwd.points) == {p for _, p in subset_sums(_shifted(x, hs), hs)}


def test_backward_shifts_by_the_sum_over_many_distinct_symbols():
    # x and the increments span 50 symbols, so the one combine that forms
    # x - sum(hs) must cancel and keep coordinates across all of them.
    rng = random.Random(5050)
    syms = symbols(" ".join(f"b{i}" for i in range(50)), positive=True)
    units = [unit(s) for s in syms]
    a = AdditiveFunctional({s: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for s in syms})
    x = point_combine((rng.choice((-3, -1, Fraction(1, 2), 2)), u) for u in units)
    assert len(x.terms) == 50
    spread = tuple(
        point_combine((Fraction(rng.randint(1, 4), rng.randint(1, 2)), u) for u in rng.sample(units, 8))
        for _ in range(6)
    )
    composite = Composite(PositivePartPower(5), a)
    for f, hs in (
        (composite, tuple(rng.randint(1, 2) * u for u in units)),
        (composite, spread),
        (Scaled(Fraction(-3, 2), composite), spread),
        (SumOf((composite, Composite(AbsoluteValue(), a))), spread),
    ):
        base = _shifted(x, hs)
        assert backward_diff(f, x, hs) == forward_diff(f, base, hs)
    assert backward_diff(f, x, hs) == forward_diff_closed(f, base, hs) != 0


def test_backward_and_forward_miss_the_same_point_first():
    rng = random.Random(4242)
    for _ in range(20):
        full, x, hs = random_tabulated_instance(rng)
        top = x
        for h in hs:
            top = top + h
        for missing in full.table:
            f = Tabulated({p: v for p, v in full.table.items() if p != missing})
            with pytest.raises(UntabulatedPoint) as fwd:
                forward_diff(f, x, hs)
            with pytest.raises(UntabulatedPoint) as bwd:
                backward_diff(f, top, hs)
            assert str(bwd.value) == str(fwd.value) == f"no tabulated value at {missing}"


def test_repeated_increments_match_oracle():
    h1, h2 = symbols("h1 h2", positive=True)
    u1, u2 = unit(h1), unit(h2)
    f = Composite(PositivePartPower(3), AdditiveFunctional({h1: -1, h2: Fraction(3, 2)}))
    x = 2 * u1 - u2
    for pattern in ((u1,), (u1, u1, u2, u1 + u2)):
        for k in range(1, 13):
            hs = (pattern * k)[:k]
            top = x
            for h in hs:
                top = top + h
            v = forward_diff_closed(f, x, hs)
            assert forward_diff(f, x, hs) == v
            assert backward_diff(f, top, hs) == v


def _one_step_terms(steps, zero, factor=1):
    """The expansion multiplied out one step at a time: the reference for
    the terms of the grouped expansion."""
    poly = {zero: 1} if factor else {}
    for s in steps:
        nxt = {}
        for e, c in poly.items():
            up = e + s
            nxt[up] = nxt.get(up, 0) + c
            nxt[e] = nxt.get(e, 0) - c
        poly = nxt
    return [(e, c * factor) for e, c in poly.items()]


def test_grouped_expansion_matches_one_step_loop_seeded():
    # Adjacent and non-adjacent repeats, sums that coincide (u1 + u2 beside
    # u1 and u2), and scalar steps that are zero (a(z) = 0), negative and
    # fractional: the same keys and coefficients, in the same order.
    h1, h2, z = symbols("h1 h2 z", positive=True)
    u1, u2, uz = unit(h1), unit(h2), unit(z)
    a = AdditiveFunctional({h1: -1, h2: Fraction(3, 2)})
    pool = (u1, u2, u1 + u2, 2 * u1, Fraction(1, 2) * u2, uz)
    rng = random.Random(1616)
    for _ in range(300):
        hs = ()
        while len(hs) < 10 and rng.random() < 0.8:
            hs += (rng.choice(pool),) * rng.randint(1, 4)
        hs = hs or (rng.choice(pool),)
        f = Composite(rng.choice(_KERNELS), a)
        factor = rng.choice(_FACTORS)
        point_keyed = differences._chain(SumOf((f,)), hs).terms
        assert list(point_keyed) == _one_step_terms(hs, ZERO), hs
        line = differences._chain(Scaled(factor, f), hs).terms
        assert list(line) == _one_step_terms(map(a, hs), 0, factor), (hs, factor)


def test_equal_increments_expand_as_one_binomial_row():
    (h,) = symbols("h", positive=True)
    u = unit(h)
    f = SumOf((Composite(Identity(), AdditiveFunctional({h: 1})),))
    for k in (1, 2, 3, 7, 64, 500, 2000):
        terms = differences._chain(f, (u,) * k).terms
        assert terms == tuple((j * u, (-1) ** (k - j) * math.comb(k, j)) for j in range(k, -1, -1))


def test_probe_chain_sharing_matches_fresh_differences():
    # The samples of one step share one expansion of the repeated
    # increments: later samples reuse the terms built for the first.
    (s,) = symbols("s", positive=True)
    su = unit(s)
    rng = random.Random(707)
    f = Tabulated({j * su: rng.randint(-9, 9) for j in range(13)})
    samples = [(j * su, step * su) for step in (1, 2) for j in range(7)]
    violations = jensen_convexity_probe(f, 2, samples)
    expected = []
    for index, (x, h) in enumerate(samples):
        v = forward_diff(f, x, (h,) * 3)
        if v < 0:
            expected.append((index, v))
    assert [(v.index, v.value) for v in violations] == expected
    assert expected and len(expected) < len(samples)


def test_fractional_coordinates_and_values_match_oracle():
    # Half-integer increments drift coordinates between int and Fraction
    # along the chain, and a(h1) = 1/3 makes the values non-integral.
    h1, h2 = symbols("h1 h2", positive=True)
    u1, u2 = unit(h1), unit(h2)
    f = Composite(PositivePartPower(3), AdditiveFunctional({h1: Fraction(1, 3), h2: -1}))
    x = Fraction(1, 2) * u1
    half = Fraction(1, 2) * u1
    for hs in (
        (half, Fraction(3, 2) * u2, u1 + Fraction(1, 2) * u2, 3 * u1),
        (half, half, Fraction(1, 2) * u2, half),
    ):
        top = x
        for h in hs:
            top = top + h
        v = forward_diff_closed(f, x, hs)
        assert v.denominator > 1
        assert forward_diff(f, x, hs) == v
        assert backward_diff(f, top, hs) == v


_KERNELS = (PositivePartPower(3), AbsoluteValue(), Power(4), Identity())
# Integer, fractional, negative and zero multiples for ``Scaled``.
_FACTORS = (3, Fraction(5, 2), Fraction(-2, 3), 0)


def _three_routes(f, x, hs):
    """The scalar-keyed, point-keyed (``SumOf((f,))`` is not a
    ``Composite``) and subset-sum values, and the backward difference at
    the top point, which is scalar-keyed."""
    top = x
    for h in hs:
        top = top + h
    return (
        forward_diff(f, x, hs),
        forward_diff(SumOf((f,)), x, hs),
        forward_diff_closed(f, x, hs),
        backward_diff(f, top, hs),
    )


def test_three_routes_agree_seeded():
    # a(h) negative, fractional, repeated and zero (z is off the support).
    h1, h2, h3, z = symbols("h1 h2 h3 z", positive=True)
    units = [unit(h1), unit(h2), unit(h3), unit(z)]
    a = AdditiveFunctional({h1: -1, h2: Fraction(3, 2), h3: Fraction(-2, 3)})
    pool = units[:3] + [units[0] + units[1], 2 * units[2], Fraction(1, 2) * units[1]]
    rng = random.Random(808)
    for k in range(1, 14):
        for i, kernel in enumerate(_KERNELS if k <= 8 else _KERNELS[k % 4 : k % 4 + 1]):
            f = Composite(kernel, a)
            factor = _FACTORS[(k + i) % len(_FACTORS)]
            hs = tuple(rng.choice(pool) for _ in range(k))
            x = point_combine((rng.randint(-2, 2), u) for u in units)
            line, points, closed, backward = _three_routes(f, x, hs)
            assert line == points == closed == backward, (kernel, k)
            assert type(line) is type(exact(line))
            scaled = _three_routes(Scaled(factor, f), x, hs)
            assert scaled == (factor * line,) * 4, (kernel, k, factor)
            assert type(scaled[0]) is type(exact(scaled[0]))
            chain = differences._chain(Scaled(factor, f), hs)
            assert chain.project == f.functional
            assert chain.terms == () if factor == 0 else len(chain.terms) > 0
            zeroed = hs[:-1] + (units[3],)
            assert set(_three_routes(f, x, zeroed)) == {0}
            assert {c for _, c in differences._chain(f, zeroed).terms} == {0}


def test_three_routes_agree_at_theorem23_setup():
    for n in range(1, 13):
        syms, _, f = standard_function(n)
        units = [unit(s) for s in syms]
        assert _three_routes(f, ZERO, units) == (-1, -1, -1, -1)
        factor = _FACTORS[n % len(_FACTORS)]
        assert _three_routes(Scaled(factor, f), ZERO, units) == (-factor,) * 4


def test_theorem23_value_is_minus_one_at_even_orders_too():
    # (z^-1 - 1)(z - 1)^n = -z^-1 (z - 1)^(n+1): the odd hypothesis never
    # enters the Wright half of Theorem 2.3.
    for n in (2, 4, 6):
        syms, _, f = standard_function(n)
        units = [unit(s) for s in syms]
        terms = dict(differences._chain(f, tuple(units)).terms)
        assert terms == {
            j - 1: (-1) ** (n - j) * math.comb(n + 1, j) for j in range(n + 2)
        }
        assert forward_diff(f, ZERO, units) == -1


def test_composite_probes_match_point_keyed_per_sample():
    s, t = symbols("s t", positive=True)
    us, ut = unit(s), unit(t)
    xs = [i * us + j * ut for i in range(-2, 3) for j in (-1, 0, 2)]
    pairs = [(x, h) for x in xs for h in (us, ut, us + ut)]
    mixed = [(x, (us, ut, us, us + ut)) for x in xs]
    for kernel, factor in zip(_KERNELS, _FACTORS):
        composite = Composite(kernel, AdditiveFunctional({s: 1, t: Fraction(-2, 3)}))
        for f in (composite, Scaled(factor, composite)):
            for violations, samples in (
                (jensen_convexity_probe(f, 2, pairs), [(x, (h,) * 3) for x, h in pairs]),
                (wright_convexity_probe(f, 3, mixed), mixed),
            ):
                expected = []
                for index, (x, hs) in enumerate(samples):
                    v = forward_diff(SumOf((f,)), x, hs)
                    if v < 0:
                        expected.append((index, v))
                assert [(v.index, v.value) for v in violations] == expected
                assert expected or kernel == Identity() or f is not composite
