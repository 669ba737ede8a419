"""Evaluatable exact functions of lattice points.

Every function maps Point -> exact scalar (see ``basis.exact``) and is
total on its declared domain; only tabulated functions have a partial
domain. ``value`` is the one way to read a function: point-keyed
differences read it at points that keep their coordinate tuples.
"""

from __future__ import annotations

from typing import Mapping

from .basis import AdditiveFunctional, Frozen, Point, Scalar, exact
from .errors import UntabulatedPoint, charge, superlinear


class Kernel(Frozen):
    """A scalar kernel ``t -> K(t)``, read through ``apply``."""

    def apply(self, t: Scalar) -> Scalar:
        raise NotImplementedError


class PositivePartPower(Kernel):
    """t -> (max(t, 0))**power, power >= 1, charged by its result's words
    (``superlinear``), its bits taken as the power times the ceiling of
    log2 of the numerator and of the denominator, ``(p - 1).bit_length()``,
    within ``power`` bits a part of the true count. A result of under 64
    bits is under one word and charges nothing, so t = 1 is free at any
    power."""

    power: int

    def __init__(self, power: int):
        if power < 1:
            raise ValueError("power must be a positive integer")
        self.__dict__.update(power=power)

    def apply(self, t: Scalar) -> Scalar:
        if t <= 0:
            return 0
        bits = self.power * ((t.numerator - 1).bit_length() + (t.denominator - 1).bit_length())
        if bits >= 64:
            charge(superlinear(bits >> 6), "pospartpow result")
        return t ** self.power


class PointFunction:
    """Base class; subclasses implement ``value``."""

    def value(self, x: Point) -> Scalar:
        raise NotImplementedError


class Composite(PointFunction, Frozen):
    """Scalar kernel applied to the value of an additive functional."""

    kernel: Kernel
    functional: AdditiveFunctional

    def __init__(self, kernel: Kernel, functional: AdditiveFunctional):
        self.__dict__.update(kernel=kernel, functional=functional)

    def value(self, x: Point) -> Scalar:
        return self.kernel.apply(self.functional(x))


class Tabulated(PointFunction, Frozen):
    """Finite table of exact values; queries off the table raise
    UntabulatedPoint (an incomplete scenario, not a zero)."""

    table: Mapping[Point, Scalar]

    def __init__(self, table: Mapping[Point, Scalar]):
        self.__dict__.update(table={p: exact(v) for p, v in dict(table).items()})

    def value(self, x: Point) -> Scalar:
        try:
            return self.table[x]
        except KeyError:
            raise UntabulatedPoint(x) from None


def tabulated_abs(table: Mapping[Point, Scalar]) -> Tabulated:
    """Tabulated function holding the absolute values of ``table``."""
    return Tabulated({p: abs(exact(v)) for p, v in table.items()})
