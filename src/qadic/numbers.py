"""Exact dyadic and truncated 2-adic arithmetic.

The layer below everything else: rationals with power-of-two denominators,
2-adic integers and 2-adic numbers at a fixed bit precision, roots of unity
with exact dyadic angles, and canonical points of the solenoid
(R x Q_2)/diagonal together with its character.

All values are immutable; reading a 2-adic value beyond its known bits
raises InsufficientPrecision instead of returning garbage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientPrecision

DEFAULT_PRECISION = 64

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=True)
class DyadicRational:
    """numerator / 2**exponent with numerator odd (or 0/1 for zero)."""

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be non-negative")
        if self.numerator == 0:
            if self.exponent != 0:
                raise ValueError("zero must be (0, 0); use dyadic()")
        elif self.exponent > 0 and self.numerator % 2 == 0:
            raise ValueError("numerator must be odd when exponent > 0; use dyadic()")

    def __add__(self, other):
        other = as_dyadic(other)
        e = max(self.exponent, other.exponent)
        n = (self.numerator << (e - self.exponent)) + (other.numerator << (e - other.exponent))
        return dyadic(n, e)

    def __neg__(self):
        return DyadicRational(-self.numerator, self.exponent)

    def __sub__(self, other):
        return self + (-as_dyadic(other))

    def __mul__(self, other):
        other = as_dyadic(other)
        return dyadic(self.numerator * other.numerator, self.exponent + other.exponent)

    def __rmul__(self, other):
        return self * other

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self):
        return self.numerator / (1 << self.exponent)

    def floor(self) -> int:
        return self.numerator >> self.exponent

    def frac_mod1(self) -> "DyadicRational":
        """Representative of this value mod 1, reduced into [0, 1)."""
        return dyadic(self.numerator - (self.floor() << self.exponent), self.exponent)

    def __str__(self):
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"


def dyadic(numerator: int, exponent: int = 0) -> DyadicRational:
    """Canonical dyadic rational numerator / 2**exponent."""
    if numerator == 0:
        return DyadicRational(0, 0)
    while exponent > 0 and numerator % 2 == 0:
        numerator //= 2
        exponent -= 1
    if exponent < 0:
        numerator <<= -exponent
        exponent = 0
    return DyadicRational(numerator, exponent)


def as_dyadic(x) -> DyadicRational:
    if isinstance(x, DyadicRational):
        return x
    if isinstance(x, int):
        return dyadic(x, 0)
    raise TypeError(f"cannot interpret {x!r} as a dyadic rational")


@dataclass(frozen=True, order=True)
class PowerOfTwo:
    """2**exponent as a multiplicative group element; exponent may be negative."""

    exponent: int

    def __mul__(self, other):
        return PowerOfTwo(self.exponent + other.exponent)

    def inverse(self) -> "PowerOfTwo":
        return PowerOfTwo(-self.exponent)

    def __truediv__(self, other):
        return PowerOfTwo(self.exponent - other.exponent)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(1 << self.exponent)
        return Fraction(1, 1 << -self.exponent)

    def as_dyadic(self) -> DyadicRational:
        return dyadic(1, -self.exponent) if self.exponent < 0 else dyadic(1 << self.exponent, 0)

    def __float__(self):
        return 2.0 ** self.exponent

    def __int__(self):
        if self.exponent < 0:
            raise ValueError(f"2^{self.exponent} is not an integer")
        return 1 << self.exponent

    def __str__(self):
        return f"2^{self.exponent}"


@dataclass(frozen=True)
class PadicInt:
    """A 2-adic integer known mod 2**precision."""

    residue: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.precision <= 0:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "residue", self.residue % (1 << self.precision))

    def reduce(self, precision: int) -> "PadicInt":
        """Coerce to a lower precision (reduction mod 2**precision)."""
        if precision > self.precision:
            raise InsufficientPrecision(
                f"value known mod 2^{self.precision}, requested mod 2^{precision}")
        return PadicInt(self.residue, precision)

    def _binary(self, other, op):
        other = as_padic_int(other, self.precision)
        n = min(self.precision, other.precision)
        return PadicInt(op(self.residue, other.residue), n)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __neg__(self):
        return PadicInt(-self.residue, self.precision)


def as_padic_int(x, precision: int = DEFAULT_PRECISION) -> PadicInt:
    if isinstance(x, PadicInt):
        return x
    if isinstance(x, int):
        return PadicInt(x, precision)
    raise TypeError(f"cannot interpret {x!r} as a 2-adic integer")


@dataclass(frozen=True)
class PadicNumber:
    """unit / 2**shift with unit a PadicInt; shift is non-negative."""

    unit: PadicInt
    shift: int = 0

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be non-negative")

    @property
    def precision(self) -> int:
        return self.unit.precision

    def _align(self, other):
        other = as_padic(other, self.precision)
        v = max(self.shift, other.shift)
        # scaling a unit by 2^k is exact: known mod 2^(N+k)
        u1 = PadicInt(self.unit.residue << (v - self.shift),
                      self.unit.precision + (v - self.shift))
        u2 = PadicInt(other.unit.residue << (v - other.shift),
                      other.unit.precision + (v - other.shift))
        return u1, u2, v

    def __add__(self, other):
        u1, u2, v = self._align(other)
        return PadicNumber(u1 + u2, v)

    def __mul__(self, other):
        other = as_padic(other, self.precision)
        return PadicNumber(self.unit * other.unit, self.shift + other.shift)


def as_padic(x, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    if isinstance(x, PadicNumber):
        return x
    if isinstance(x, PadicInt):
        return PadicNumber(x, 0)
    if isinstance(x, int):
        return PadicNumber(PadicInt(x, precision), 0)
    if isinstance(x, DyadicRational):
        return PadicNumber(PadicInt(x.numerator, precision), x.exponent)
    raise TypeError(f"cannot interpret {x!r} as a 2-adic number")


def fractional_part(x: PadicNumber) -> DyadicRational:
    """The unique d in Z[1/2] with 0 <= d < 1 and x - d a 2-adic integer.

    Needs the unit known at least mod 2**shift.
    """
    x = as_padic(x)
    if x.shift > x.precision:
        raise InsufficientPrecision(
            f"fractional part needs {x.shift} low bits, only {x.precision} known")
    if x.shift == 0:
        return dyadic(0)
    return dyadic(x.unit.residue % (1 << x.shift), x.shift)


def integer_part(x: PadicNumber) -> PadicInt:
    """x - fractional_part(x) as a PadicInt (precision drops by shift)."""
    x = as_padic(x)
    if x.shift >= x.precision:
        raise InsufficientPrecision(
            f"integer part needs more than {x.shift} low bits, only {x.precision} known")
    if x.shift == 0:
        return x.unit
    low = x.unit.residue % (1 << x.shift)
    return PadicInt((x.unit.residue - low) >> x.shift, x.precision - x.shift)


@dataclass(frozen=True)
class RootOfUnity:
    """e(angle) with angle an exact dyadic rational reduced into [0, 1)."""

    angle: DyadicRational

    def __post_init__(self):
        object.__setattr__(self, "angle", self.angle.frac_mod1())

    def __mul__(self, other):
        return RootOfUnity(self.angle + other.angle)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.angle)

    def __complex__(self):
        return cmath.exp(1j * TWO_PI * float(self.angle))


def character(x: PadicNumber) -> RootOfUnity:
    """The standard additive character e(fractional_part(x)) on Q_2."""
    return RootOfUnity(fractional_part(x))


@dataclass(frozen=True)
class SolenoidPoint:
    """Canonical representative (r, z) of a point of (R x Q_2)/diagonal.

    r lies in [0, 1) and z is a 2-adic integer; r is the only approximate
    (floating-point) field in this module.
    """

    r: float
    z: PadicInt


def solenoid_canonical(r: float, x: PadicNumber | PadicInt | int,
                       precision: int = DEFAULT_PRECISION) -> SolenoidPoint:
    """Reduce (r, x) mod the diagonal copy of Z[1/2] to the canonical form.

    First subtract the dyadic fractional part of x from both coordinates
    (landing in R x Z_2), then subtract the integer floor of the real
    coordinate from both.
    """
    x = as_padic(x, precision)
    b1 = fractional_part(x)
    z = integer_part(x)
    r1 = r - float(b1)
    n = math.floor(r1)
    return SolenoidPoint(r1 - n, z - n)


def solenoid_character(point: SolenoidPoint, b: DyadicRational | int) -> complex:
    """Value at b of the character attached to a canonical solenoid point.

    Returns e(r*b) * e(-fractional_part(z*b)); the 2-adic factor is computed
    exactly as a root of unity before conversion to a complex double.
    """
    b = as_dyadic(b)
    twist = character(as_padic(point.z) * b).inverse()
    return cmath.exp(1j * TWO_PI * point.r * float(b)) * complex(twist)
