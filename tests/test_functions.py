"""Scalar kernels and point functions."""

import random
from fractions import Fraction

import pytest

from hamelcheck import (
    ZERO,
    AdditiveFunctional,
    Composite,
    PositivePartPower,
    Tabulated,
    UntabulatedPoint,
    symbols,
    tabulated_abs,
    unit,
)
from hamelcheck import errors, functions
from hamelcheck.errors import HamelcheckError
from helpers import AbsoluteValue, Identity, PointwisePower, Power, Scaled, SumOf


def _theorem_function(n=3):
    syms = symbols(" ".join(f"h{i}" for i in range(1, n + 2)), positive=True)
    values = {syms[0]: -1}
    values.update({s: 1 for s in syms[1:]})
    a = AdditiveFunctional(values)
    return syms, a, Composite(PositivePartPower(n), a)


def test_kernels():
    assert PositivePartPower(3).apply(Fraction(2)) == 8
    assert PositivePartPower(3).apply(Fraction(-2)) == 0
    assert AbsoluteValue().apply(Fraction(-7, 2)) == Fraction(7, 2)
    assert Power(0).apply(Fraction(0)) == 1
    assert Power(2).apply(Fraction(-3)) == 9
    assert Identity().apply(Fraction(5, 3)) == Fraction(5, 3)
    with pytest.raises(ValueError):
        PositivePartPower(0)
    with pytest.raises(ValueError):
        Power(-1)


def test_pospartpow_charges_only_a_result_of_a_word_or_more(monkeypatch):
    # A read is charged by its result's 64-bit words: the power times
    # ceil(log2) of the value's numerator and of its denominator, shifted
    # by 6 and weighed by superlinear. Under 64 bits that is 0 units, and
    # the read makes no call to the meter; from 64 bits on it charges.
    calls = []
    real = functions.charge
    monkeypatch.setattr(
        functions, "charge", lambda units, what: calls.append(units) or real(units, what))
    with errors.metered():
        # 21 * 1, 3 * (3 + 2), 1 * 63 and 31 * 2 bits; 1 is 0 bits at any
        # power. A value <= 0 reads no bits, also at 0 to a power of 64 or
        # more, where ceil(log2) of 0's numerator, (-1).bit_length(), would
        # make 64.
        reads = ((21, 2), (3, Fraction(5, 3)), (1, 2**63), (31, 4), (64, 1), (10**8, 1),
                 (7, -2**100), (5, 0), (64, 0), (20000, 0))
        for power, t in reads:
            assert PositivePartPower(power).apply(t) == max(t, 0) ** power
        assert calls == [] and errors._spent == 0
        # 1 * 64 bits; 1 * 65; 32 * 2; 64 * 100 = 6400 bits, 100 words;
        # 3 * (101 + 2) = 309 bits, 4 words; 2100 * 999 bits, 32,779
        # words, weighed twice past 2^15 words.
        reads = ((1, 2**64), (1, 2**64 + 1), (32, 4), (64, 2**100),
                 (3, Fraction(2**100 + 1, 3)), (2100, 2**999))
        for power, t in reads:
            assert PositivePartPower(power).apply(t) == t**power
        assert calls == [1, 1, 1, 100, 4, 65558] and errors._spent == sum(calls)
    monkeypatch.setattr(errors, "WORK_LIMIT", 99)
    with errors.metered(), pytest.raises(HamelcheckError) as raised:
        PositivePartPower(64).apply(2**100)
    assert str(raised.value) == "pospartpow result of 100 units of work refused (work limit 99)"


def test_function_eval_cube_values():
    syms, _, f = _theorem_function(3)
    h1, h2, h3, h4 = syms
    assert f.value(unit(h1) + unit(h2) + unit(h3) + unit(h4)) == 8
    assert f.value(unit(h2) + unit(h3) + unit(h4)) == 27
    assert f.value(unit(h1)) == 0


def test_scale_function():
    _, _, f = _theorem_function(3)
    (u,) = symbols("u", positive=True)
    assert Scaled(0, f).value(ZERO) == 0
    assert Scaled(1, f).value(unit(u)) == f.value(unit(u))
    # c^2 * x_+^2 shape used by the order-2 grid scenario
    a = AdditiveFunctional({u: 1})
    g = Scaled(4, Composite(PositivePartPower(2), a))
    assert g.value(3 * unit(u)) == 36
    assert g.value(-2 * unit(u)) == 0


def test_tabulated_and_untabulated():
    (s,) = symbols("s", positive=True)
    f = Tabulated({ZERO: Fraction(1), unit(s): Fraction(-2)})
    assert f.value(unit(s)) == -2
    with pytest.raises(UntabulatedPoint):
        f.value(2 * unit(s))


def test_tabulated_abs():
    (s,) = symbols("s", positive=True)
    f = tabulated_abs({ZERO: Fraction(-9), unit(s): Fraction(4)})
    assert f.value(ZERO) == 9
    assert f.value(unit(s)) == 4


def test_composite_matches_kernel_of_additive_seeded():
    rng = random.Random(303)
    pool = symbols("a b c", positive=True)
    for n in (1, 3):
        kern = PositivePartPower(n)
        for _ in range(100):
            a = AdditiveFunctional({s: rng.randint(-3, 3) for s in pool})
            x = sum((rng.randint(0, 3) * unit(s) for s in pool), ZERO)
            assert Composite(kern, a).value(x) == kern.apply(a(x))


def test_trivial_wrappers_are_identities():
    _, _, f = _theorem_function(1)
    (s,) = symbols("h2", positive=True)
    pts = [ZERO, unit(s), 3 * unit(s)]
    for p in pts:
        assert PointwisePower(f, 1).value(p) == f.value(p)
        assert SumOf((f,)).value(p) == f.value(p)


def test_sum_and_power_combinators():
    (s,) = symbols("s", positive=True)
    a = AdditiveFunctional({s: 1})
    f = Composite(Identity(), a)
    g = SumOf((f, Scaled(Fraction(2), f)))
    assert g.value(5 * unit(s)) == 15
    assert PointwisePower(g, 2).value(5 * unit(s)) == 225
    with pytest.raises(ValueError):
        PointwisePower(f, 0)
