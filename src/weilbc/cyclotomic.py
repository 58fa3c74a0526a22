"""Exact arithmetic in Q(ζ_p) for an odd prime p.

A value is stored as an integer numerator vector (c_0, ..., c_{p-2}) and a
positive denominator, representing (Σ c_k ζ^k)/den in the reduced basis
1, ζ, ..., ζ^{p-2} (so Σ_k ζ^k = -1 eliminates ζ^{p-1}).  The reduced form is
unique, hence equality is coefficient-wise.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, DivisionByZero, InvariantBroken


class CycNum:
    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num, den: int = 1):
        num = tuple(int(c) for c in num)
        if len(num) != p - 1:
            raise DimensionMismatch("numerator vector must have length p-1")
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        if den > 1:
            g = den
            for c in num:
                g = gcd(g, abs(c))
                if g == 1:
                    break
            if g > 1:
                num = tuple(c // g for c in num)
                den //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycNum is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, p: int, a: int, b: int = 1) -> "CycNum":
        return cls(p, (a,) + (0,) * (p - 2), b)

    @classmethod
    def zero(cls, p: int) -> "CycNum":
        return cls.rational(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycNum":
        return cls.rational(p, 1)

    @classmethod
    def root_of_unity(cls, p: int, k: int) -> "CycNum":
        k %= p
        if k == p - 1:
            return cls(p, tuple(-1 for _ in range(p - 1)))
        vec = [0] * (p - 1)
        vec[k] = 1
        return cls(p, vec)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "CycNum") -> "CycNum":
        other = self._coerce(other)
        a, b = self, other
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return CycNum(self.p, num, a.den * b.den)

    def __neg__(self) -> "CycNum":
        return CycNum(self.p, tuple(-c for c in self.num), self.den)

    def __sub__(self, other: "CycNum") -> "CycNum":
        return self + (-self._coerce(other))

    def __mul__(self, other: "CycNum") -> "CycNum":
        other = self._coerce(other)
        p = self.p
        full = [0] * (2 * p - 3)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        full[i + j] += a * b
        folded = [0] * p
        for k, c in enumerate(full):
            folded[k % p] += c
        top = folded[p - 1]
        num = tuple(folded[k] - top for k in range(p - 1))
        return CycNum(p, num, self.den * other.den)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise DimensionMismatch("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return CycNum.rational(self.p, other)
        if isinstance(other, Fraction):
            return CycNum.rational(self.p, other.numerator, other.denominator)
        raise TypeError(f"cannot coerce {other!r}")

    def galois(self, k: int) -> "CycNum":
        """The automorphism ζ ↦ ζ^k (k prime to p)."""
        p = self.p
        folded = [0] * p
        for i, c in enumerate(self.num):
            folded[(i * k) % p] += c
        top = folded[p - 1]
        num = tuple(folded[i] - top for i in range(p - 1))
        return CycNum(p, num, self.den)

    def conj(self) -> "CycNum":
        """Complex conjugation ζ ↦ ζ^{-1}."""
        return self.galois(self.p - 1)

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        prod = CycNum.one(self.p)
        for k in range(2, self.p):
            prod = prod * self.galois(k)
        norm = self * prod
        if any(norm.num[1:]):  # pragma: no cover
            raise InvariantBroken("norm escaped the rationals")
        return prod * CycNum.rational(self.p, norm.den, norm.num[0])

    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * self._coerce(other).inverse()

    # -- predicates and views ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.p == other.p and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def to_complex(self) -> complex:
        """Float embedding ζ ↦ exp(2πi/p); for display only."""
        z = 0j
        for k, c in enumerate(self.num):
            z += c * cmath.exp(2j * cmath.pi * k / self.p)
        return z / self.den

    def to_text(self) -> str:
        return ",".join(f"{c}/{self.den}" for c in self.num)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                terms.append(f"{c}*z^{k}" if k > 1 else f"{c}*z")
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"Cyc[{self.p}]({body})"


def gauss_sum(tower, d: int, scale=None) -> CycNum:
    """G_d = Σ_{x in F_{q^d}} ψ_d(x²); satisfies G_d² = ε_d(-1)·q^d."""
    total = CycNum.zero(tower.p)
    for x in tower.level_elements(d):
        total = total + tower.psi(tower.mul(x, x), d, scale)
    return total
