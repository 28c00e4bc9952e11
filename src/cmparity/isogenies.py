"""Rational 2x2 matrices acting on the upper half-plane, and odd-degree
isogenies between CM lattices.

A matrix with odd-denominator rational entries, positive determinant, and
determinant whose reduced numerator is odd always produces an isogeny of odd
degree from the lattice of the moved point back to the lattice of the original
point. The construction scales the matrix integral by the least odd multiple,
divides out the entry gcd, and reads the degree off the determinant; the
degree always equals the lattice index of the multiplier, which is checked on
every construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cmpoints import Lattice, QuadElement, TauExact, lattice_of_tau, parity_of_tau, tau_from_element
from .errors import InternalCheckError, NotASublatticeError, NotInGroupError


@dataclass(frozen=True)
class RatMatrix2:
    """2x2 rational matrix ((a, b), (c, d)).

    The constructor accepts any rationals; odd-denominator and determinant
    conditions are enforced where odd-isogeny semantics require them.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def identity(cls) -> "RatMatrix2":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def from_ints(cls, a: int, b: int, c: int, d: int) -> "RatMatrix2":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "RatMatrix2") -> "RatMatrix2":
        return RatMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def require_odd_group(m: RatMatrix2):
    """Check membership in the group of odd-denominator matrices with positive
    determinant that is an odd unit; raise NotInGroupError otherwise."""
    for entry in m.entries():
        if entry.denominator % 2 == 0:
            raise NotInGroupError(f"entry {entry} has an even denominator")
    det = m.det
    if det <= 0:
        raise NotInGroupError(f"determinant {det} is not positive")
    if det.numerator % 2 == 0:
        raise NotInGroupError(f"determinant {det} is not an odd unit")


def in_odd_group(m: RatMatrix2) -> bool:
    try:
        require_odd_group(m)
    except NotInGroupError:
        return False
    return True


@dataclass(frozen=True)
class Isogeny:
    """Multiplication-by-u map from source to target lattice; degree is the
    index of u*source inside target, verified at construction. source_tau is
    the point whose lattice is source."""

    u: QuadElement
    source: Lattice
    target: Lattice
    degree: int
    source_tau: TauExact

    def __post_init__(self):
        idx = lattice_index(self.u, self.source, self.target)
        if idx != self.degree:
            raise InternalCheckError(
                f"declared degree {self.degree} differs from lattice index {idx}"
            )


def moebius(m: RatMatrix2, t: TauExact) -> TauExact:
    """The primitive triple of (a*tau + b)/(c*tau + d); requires det > 0.

    The computation stays inside Q(sqrt(d)), so the squarefree part of the
    discriminant is preserved.
    """
    if m.det <= 0:
        raise ValueError("matrix must have positive determinant")
    tau = t.as_element()
    one = QuadElement(Fraction(1), Fraction(0), tau.d)
    num = tau.scale(m.a) + one.scale(m.b)
    den = tau.scale(m.c) + one.scale(m.d)
    return tau_from_element(num / den)


def lattice_index(u: QuadElement, lat1: Lattice, lat2: Lattice) -> int:
    """Index of u*lat1 inside lat2 (the degree of multiplication by u)."""
    if u.is_zero():
        raise ValueError("multiplier must be nonzero")
    if lat1.d != lat2.d:
        raise NotASublatticeError("lattices lie in different fields")
    x1, y1 = lat2.g1.x, lat2.g1.y
    x2, y2 = lat2.g2.x, lat2.g2.y
    detb = x1 * y2 - y1 * x2
    coeffs = []
    for g in (lat1.g1, lat1.g2):
        w = u * g
        alpha = (w.x * y2 - w.y * x2) / detb
        beta = (-w.x * y1 + w.y * x1) / detb
        if alpha.denominator != 1 or beta.denominator != 1:
            raise NotASublatticeError(
                f"{u} * {g} is not an integral combination of the target basis"
            )
        coeffs.append((int(alpha), int(beta)))
    (a1, b1), (a2, b2) = coeffs
    return abs(a1 * b2 - b1 * a2)


def odd_isogeny(m: RatMatrix2, t: TauExact) -> Isogeny:
    """Construct the odd-degree isogeny from the lattice of m(tau) to the
    lattice of tau carried by the multiplier c*tau + d of the integralized
    matrix; the moved point m(tau) comes back as its source_tau.

    The least odd integer clearing all denominators scales the matrix to
    integer entries, and dividing out the entry gcd then minimizes the degree
    available from this construction (that gcd is odd because the determinant
    is); no claim is made that the resulting degree is minimal among all
    isogenies between the two lattices.
    """
    require_odd_group(m)
    n = 1
    for entry in m.entries():
        n = math.lcm(n, entry.denominator)
    scaled = [int(entry * n) for entry in m.entries()]
    g = math.gcd(*scaled)
    ia, ib, ic, idd = (v // g for v in scaled)
    degree = ia * idd - ib * ic
    if degree <= 0 or degree % 2 == 0:
        raise InternalCheckError(f"constructed degree {degree} is not odd positive")

    tau = t.as_element()
    one = QuadElement(Fraction(1), Fraction(0), tau.d)
    u = tau.scale(ic) + one.scale(idd)
    moved = moebius(m, t)
    return Isogeny(u, lattice_of_tau(moved), lattice_of_tau(t), degree, moved)


def parity_transport_check(m: RatMatrix2, t: TauExact) -> bool:
    """Whether tau and m(tau) have equal parity; contractually always true for
    matrices in the odd group, so a False return signals a defect."""
    require_odd_group(m)
    return parity_of_tau(moebius(m, t)) == parity_of_tau(t)

