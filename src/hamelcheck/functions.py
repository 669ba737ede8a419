"""Evaluatable exact functions of lattice points.

Every function maps Point -> exact scalar (see ``basis.exact``) and is
total on its declared domain; only tabulated functions have a partial
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .basis import AdditiveFunctional, Point, Scalar, exact
from .errors import UntabulatedPoint
from .measures import MeasureExpr, atom_mass


@dataclass(frozen=True)
class PositivePartPower:
    """t -> (max(t, 0))**power, power >= 1."""

    power: int

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be a positive integer")

    def apply(self, t: Scalar) -> Scalar:
        return (t if t > 0 else 0) ** self.power


@dataclass(frozen=True)
class AbsoluteValue:
    """t -> |t|."""

    def apply(self, t: Scalar) -> Scalar:
        return -t if t < 0 else t


@dataclass(frozen=True)
class Power:
    """t -> t**power, power >= 0 (0**0 == 1)."""

    power: int

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    def apply(self, t: Scalar) -> Scalar:
        return t ** self.power


@dataclass(frozen=True)
class Identity:
    """t -> t."""

    def apply(self, t: Scalar) -> Scalar:
        return t


Kernel = Union[PositivePartPower, AbsoluteValue, Power, Identity]


class PointFunction:
    """Base class; subclasses implement ``value``."""

    def value(self, x: Point) -> Scalar:
        raise NotImplementedError

    def __call__(self, x: Point) -> Scalar:
        return self.value(x)


@dataclass(frozen=True, eq=False)
class Composite(PointFunction):
    """Scalar kernel applied to the value of an additive functional."""

    kernel: Kernel
    functional: AdditiveFunctional

    def value(self, x: Point) -> Scalar:
        return self.kernel.apply(self.functional(x))


@dataclass(frozen=True, eq=False)
class Tabulated(PointFunction):
    """Finite table of exact values; queries off the table raise
    UntabulatedPoint (an incomplete scenario, not a zero)."""

    table: Mapping[Point, Scalar]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "table", {p: exact(v) for p, v in dict(self.table).items()}
        )

    def value(self, x: Point) -> Scalar:
        try:
            return self.table[x]
        except KeyError:
            raise UntabulatedPoint(x) from None


@dataclass(frozen=True, eq=False)
class MeasureMass(PointFunction):
    """x -> atom mass of a measure at x."""

    measure: MeasureExpr

    def value(self, x: Point) -> Scalar:
        return atom_mass(self.measure, x)


@dataclass(frozen=True, eq=False)
class Scaled(PointFunction):
    factor: Scalar
    inner: PointFunction

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", exact(self.factor))

    def value(self, x: Point) -> Scalar:
        if not self.factor:
            return 0
        return self.factor * self.inner.value(x)


@dataclass(frozen=True, eq=False)
class SumOf(PointFunction):
    parts: tuple[PointFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def value(self, x: Point) -> Scalar:
        total = 0
        for f in self.parts:
            total += f.value(x)
        return total


@dataclass(frozen=True, eq=False)
class PointwisePower(PointFunction):
    inner: PointFunction
    power: int

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be a positive integer")

    def value(self, x: Point) -> Scalar:
        return self.inner.value(x) ** self.power


def tabulated_abs(table: Mapping[Point, Scalar]) -> Tabulated:
    """Tabulated function holding the absolute values of ``table``."""
    return Tabulated({p: abs(exact(v)) for p, v in table.items()})
