"""Forward/backward difference operators and convexity probes."""

import math
import random
from fractions import Fraction

import pytest

from hamelcheck import (
    ZERO,
    AdditiveFunctional,
    Composite,
    Identity,
    InvalidIncrement,
    PointFunction,
    PositivePartPower,
    Power,
    Scaled,
    Tabulated,
    UntabulatedPoint,
    backward_diff,
    difference_table,
    differences,
    equal_increment_diff,
    forward_diff,
    forward_diff_closed,
    jensen_convexity_probe,
    symbols,
    tabulated_abs,
    unit,
    wright_convexity_probe,
)
from hamelcheck.basis import subset_sums
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
    assert equal_increment_diff(f, -1 * unit(u), unit(u), 3) == -1

    # Exact witness with a(x) = 1, a(h) = -2.
    s, t = symbols("s t", positive=True)
    wa = AdditiveFunctional({s: 1, t: -2})
    wf = Composite(PositivePartPower(2), wa)
    assert equal_increment_diff(wf, unit(s), unit(t), 3) == -1

    # Order 1 is the plain step.
    assert equal_increment_diff(wf, unit(s), unit(t), 1) == wf.value(
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
    assert sum(r.sign * r.value for r in rows) == -1


def test_jensen_probe_clean_on_lattice():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    samples = [
        (x, h)
        for x in (ZERO, units[0], units[1] + units[2], sum(units, ZERO))
        for h in units
    ]
    outcome = jensen_convexity_probe(f, 3, samples)
    assert outcome.clean and not outcome.skipped


def test_jensen_probe_flags_witness():
    s, t = symbols("s t", positive=True)
    a = AdditiveFunctional({s: 1, t: -2})
    f = Composite(PositivePartPower(2), a)
    outcome = jensen_convexity_probe(f, 2, [(unit(s), unit(t))])
    assert len(outcome.violations) == 1
    v = outcome.violations[0]
    assert v.value == -1
    assert len(v.table) == 8  # all 2^3 evaluations retained


def test_violation_table_is_built_on_first_read(monkeypatch):
    calls = []
    table = differences.difference_table

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(differences, "difference_table", counting)
    s, t = symbols("s t", positive=True)
    f = Composite(PositivePartPower(2), AdditiveFunctional({s: 1, t: -2}))
    outcome = jensen_convexity_probe(f, 2, [(unit(s), unit(t))] * 3)
    assert len(outcome.violations) == 3 and not calls
    v = outcome.violations[0]
    assert v.table == table(f, v.x, v.increments)
    assert v.table is v.table and len(calls) == 1


def test_jensen_probe_scaled_square_grid():
    (u,) = symbols("u", positive=True)
    a = AdditiveFunctional({u: 1})
    f = Composite(PositivePartPower(2), a)
    g = Scaled(4, f)
    samples = [(j * unit(u), h) for j in range(-3, 4) for h in (unit(u), 2 * unit(u))]
    assert jensen_convexity_probe(g, 2, samples).clean


def test_jensen_probe_skips_untabulated():
    (s,) = symbols("s", positive=True)
    su = unit(s)
    f = Tabulated({ZERO: Fraction(0), su: Fraction(1)})
    outcome = jensen_convexity_probe(f, 1, [(ZERO, su), (su, su)])
    assert not outcome.violations
    assert len(outcome.skipped) == 2  # order-2 checks need points beyond the table
    assert outcome.skipped[0].index == 0


def test_wright_probe_flags_mixed_violation():
    syms, _, f = standard_function(3)
    units = [unit(s) for s in syms]
    outcome = wright_convexity_probe(f, 3, [(ZERO, units)])
    assert len(outcome.violations) == 1
    assert outcome.violations[0].value == -1


def test_wright_probe_clean_for_convex_kernel():
    (s,) = symbols("s", positive=True)
    a = AdditiveFunctional({s: 1})
    f = Composite(PositivePartPower(3), a)
    su = unit(s)
    samples = [
        (j * su, (su, 2 * su, su, su)) for j in range(-2, 3)
    ]
    assert wright_convexity_probe(f, 3, samples).clean


def test_wright_probe_constant_clean():
    (s,) = symbols("s", positive=True)
    const = Composite(Power(0), AdditiveFunctional({}))
    samples = [(ZERO, (unit(s),) * 2)]
    assert wright_convexity_probe(const, 1, samples).clean


def test_wright_specializes_to_jensen():
    # With all increments equal the two probes flag exactly the same samples.
    s, t = symbols("s t", positive=True)
    a = AdditiveFunctional({s: 1, t: -2})
    f = Composite(PositivePartPower(2), a)
    pairs = [(unit(s), unit(t)), (unit(s), unit(s)), (ZERO, unit(t))]
    jensen = jensen_convexity_probe(f, 2, pairs)
    wright = wright_convexity_probe(f, 2, [(x, (h,) * 3) for x, h in pairs])
    assert [v.index for v in jensen.violations] == [v.index for v in wright.violations]
    assert [v.value for v in jensen.violations] == [v.value for v in wright.violations]


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
    with pytest.raises(ValueError):
        equal_increment_diff(f, ZERO, unit(s), 0)


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
    # Delta_h^k t^k = k! when a(h) = 1; the expansion would take 2^k calls.
    (h,) = symbols("h", positive=True)
    k = 16
    x = -3 * unit(h)
    hs = (unit(h),) * k
    f = Composite(Power(k), AdditiveFunctional({h: 1}))
    fwd, bwd = _Recording(f), _Recording(f)
    assert forward_diff(fwd, x, hs) == math.factorial(k)
    assert backward_diff(bwd, x + k * unit(h), hs) == math.factorial(k)
    assert len(fwd.points) <= 2 * (k + 1)
    assert len(bwd.points) <= 2 * (k + 1)


def _shifted(x, hs):
    for h in hs:
        x = x - h
    return x


def test_backward_evaluates_as_forward_at_shifted_point():
    # Distinct, repeated (memoised levels) and half-integer increments: the
    # backward difference at x calls f at the points, in the order, of the
    # forward difference at x - sum(hs).
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


def test_probe_chain_sharing_survives_untabulated_samples():
    # The point 2s is missing: the sample at x = 0 raises after inner levels
    # have stored values, and the sample at x = s shares that chain.
    (s,) = symbols("s", positive=True)
    su = unit(s)
    rng = random.Random(707)
    f = Tabulated({j * su: rng.randint(-9, 9) for j in range(13) if j != 2})
    samples = [(j * su, step * su) for step in (1, 2) for j in range(7)]
    outcome = jensen_convexity_probe(f, 2, samples)

    expected_skipped, expected_values = [], {}
    for index, (x, h) in enumerate(samples):
        try:
            expected_values[index] = forward_diff(f, x, (h,) * 3)
        except UntabulatedPoint as exc:
            expected_skipped.append((index, x, (h,) * 3, str(exc)))
    assert [
        (r.index, r.x, r.increments, r.reason) for r in outcome.skipped
    ] == expected_skipped
    assert [r.index for r in outcome.skipped][:2] == [0, 1]
    assert [(v.index, v.value) for v in outcome.violations] == [
        (i, v) for i, v in expected_values.items() if v < 0
    ]
    assert outcome.violations
    for v in outcome.violations:
        assert v.table == difference_table(f, v.x, v.increments)


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
