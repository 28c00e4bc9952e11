"""Rational 2x2 matrices acting on the upper half-plane, and odd-degree
isogenies between CM lattices.

A matrix with odd-denominator rational entries, positive determinant, and
determinant whose reduced numerator is odd always produces an isogeny of odd
degree from the lattice of the moved point back to the lattice of the original
point. It all runs on integers: entries are reduced (numerator, denominator)
pairs, and a matrix acts on the triple (a, b, c) through its primitive integer
multiple (A, B; C, D), whose determinant AD - BC is the degree. Each isogeny
checks the moved triple by substituting (A*tau + B)/(C*tau + D) into its form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cmpoints import Lattice, QuadElement, TauExact, parity_of_tau
from .errors import InternalCheckError, NotASublatticeError, NotInGroupError


def _reduced(entry) -> tuple[int, int]:
    """entry, a (numerator, denominator) pair of ints or anything Fraction
    accepts, as its reduced pair with a positive denominator."""
    try:
        p, q = entry if isinstance(entry, tuple) else Fraction(entry).as_integer_ratio()
    except ZeroDivisionError:  # a string such as "1/0"
        q = 0
    if q == 0:
        raise ValueError(f"entry {entry!r} has a zero denominator")
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return p // g, q // g


@dataclass(frozen=True, init=False, slots=True)
class RatMatrix2:
    """2x2 rational matrix ((a, b), (c, d)) of reduced (numerator, positive
    denominator) pairs; the constructor also accepts ints, Fractions and
    strings. primitive is its primitive integer multiple (A, B, C, D): the
    entries scaled by the lcm of the denominators, with their gcd divided out.
    Each field is set once. Odd-group conditions are enforced where
    odd-isogeny semantics need them."""

    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]
    d: tuple[int, int]
    primitive: tuple[int, int, int, int] = field(repr=False, compare=False)

    def __init__(self, a, b, c, d):
        pairs = (_reduced(a), _reduced(b), _reduced(c), _reduced(d))
        n = math.lcm(*(q for _, q in pairs))
        scaled = [p * (n // q) for p, q in pairs]
        g = math.gcd(*scaled) or 1
        for name, pair in zip("abcd", pairs):
            object.__setattr__(self, name, pair)
        object.__setattr__(self, "primitive", tuple(v // g for v in scaled))

    @property
    def det(self) -> Fraction:
        a, b, c, d = self.entries()
        return a * d - b * c

    def __matmul__(self, other: "RatMatrix2") -> "RatMatrix2":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return RatMatrix2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(p, q) for p, q in (self.a, self.b, self.c, self.d))


def _odd_scaled_det(a, b, c, d) -> int | None:
    """For the entries ((a, b), (c, d)) as (numerator, positive denominator)
    pairs: det times the product of the denominators, or None when one of
    them is even. That product is then odd and positive, so the result has
    the sign of det and the parity of its reduced numerator.

    The pairs need not be reduced when every denominator is odd: reducing
    divides each pair by an odd gcd, which changes neither the sign nor the
    parity of the result, so raw pairs and their reduced forms get the same
    verdict from in_odd_pairs."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = a, b, c, d
    if not q0 & q1 & q2 & q3 & 1:
        return None
    return p0 * p3 * q1 * q2 - p1 * p2 * q0 * q3


def in_odd_pairs(a, b, c, d) -> bool:
    """The odd-group rule on four (numerator, positive denominator) pairs:
    odd denominators, positive determinant with odd reduced numerator."""
    n = _odd_scaled_det(a, b, c, d)
    return n is not None and n > 0 and n % 2 == 1


def require_odd_group(m: RatMatrix2):
    """Check membership in the group of odd-denominator matrices with positive
    determinant that is an odd unit; raise NotInGroupError otherwise."""
    n = _odd_scaled_det(m.a, m.b, m.c, m.d)
    if n is None:
        entry = next(e for e in m.entries() if e.denominator % 2 == 0)
        raise NotInGroupError(f"entry {entry} has an even denominator")
    if n <= 0:
        raise NotInGroupError(f"determinant {m.det} is not positive")
    if n % 2 == 0:
        raise NotInGroupError(f"determinant {m.det} is not an odd unit")


def in_odd_group(m: RatMatrix2) -> bool:
    return in_odd_pairs(m.a, m.b, m.c, m.d)


@dataclass(frozen=True)
class Isogeny:
    """Multiplication by u = C*tau + D from [tau', 1] into [tau, 1], where
    tau' = source_tau is (A*tau + B)/(C*tau + D) for tau = target_tau and the
    integer matrix (A, B, C, D). As u*tau' = A*tau + B, the degree is the index
    AD - BC of u*[tau', 1] in [tau, 1]; construction checks that tau' is the
    image and that the degree is positive."""

    matrix: tuple[int, int, int, int]
    source_tau: TauExact
    target_tau: TauExact

    def __post_init__(self):
        A, B, C, D = self.matrix
        s, t = self.source_tau, self.target_tau
        # s(tau') * (C*tau + D)^2, expanded in tau, vanishes at tau exactly
        # when it is a multiple of t's form, the minimal polynomial of tau
        e2 = s.a * A * A + s.b * A * C + s.c * C * C
        e1 = 2 * s.a * A * B + s.b * (A * D + B * C) + 2 * s.c * C * D
        e0 = s.a * B * B + s.b * B * D + s.c * D * D
        if e2 == 0 or e2 * t.b != e1 * t.a or e2 * t.c != e0 * t.a:
            raise InternalCheckError(f"{s} is not the image of {t} under {self.matrix}")
        if self.degree <= 0:
            raise InternalCheckError(f"degree {self.degree} of {self.matrix} is not positive")

    @property
    def degree(self) -> int:
        A, B, C, D = self.matrix
        return A * D - B * C

    @property
    def u(self) -> QuadElement:
        """The multiplier C*tau + D as an element of Q(sqrt(d))."""
        _, _, C, D = self.matrix
        tau = self.target_tau.as_element()
        return QuadElement(tau.x * C + D, tau.y * C, tau.d)


def moebius(m: RatMatrix2, t: TauExact) -> TauExact:
    """The primitive triple of (a*tau + b)/(c*tau + d); requires det > 0.

    With (A, B, C, D) the primitive integer multiple of m, tau = (D*tau' - B) /
    (-C*tau' + A), so the form (a, b, c) of tau moves to the integer triple
    below; the discriminant only gains the square factor (AD - BC)^2.
    """
    A, B, C, D = m.primitive
    if A * D - B * C <= 0:
        raise ValueError("matrix must have positive determinant")
    a, b, c = t.a, t.b, t.c
    return TauExact(
        a * D * D - b * C * D + c * C * C,
        -2 * a * B * D + b * (A * D + B * C) - 2 * c * A * C,
        a * B * B - b * A * B + c * A * A,
    )


def lattice_index(u: QuadElement, lat1: Lattice, lat2: Lattice) -> int:
    """Index of u*lat1 inside lat2 (the degree of multiplication by u)."""
    if u.is_zero():
        raise ValueError("multiplier must be nonzero")
    if lat1.d != lat2.d:
        raise NotASublatticeError("lattices lie in different fields")
    coeffs = []
    for g in (lat1.g1, lat1.g2):
        alpha, beta = lat2.coords(u * g)
        if alpha.denominator != 1 or beta.denominator != 1:
            raise NotASublatticeError(
                f"{u} * {g} is not an integral combination of the target basis"
            )
        coeffs.append((int(alpha), int(beta)))
    (a1, b1), (a2, b2) = coeffs
    return abs(a1 * b2 - b1 * a2)


def odd_isogeny(m: RatMatrix2, t: TauExact) -> Isogeny:
    """The odd-degree isogeny from the lattice of m(tau) to that of tau, carried
    by C*tau + D for the primitive integer multiple (A, B; C, D) of m; the moved
    point m(tau) is its source_tau.

    Dividing out the entry gcd (odd, as the determinant is) minimizes the degree
    AD - BC available from this construction; no claim is made that it is
    minimal among all isogenies between the two lattices.
    """
    require_odd_group(m)
    iso = Isogeny(m.primitive, moebius(m, t), t)
    if iso.degree % 2 == 0:
        raise InternalCheckError(f"constructed degree {iso.degree} is not odd")
    return iso


def parity_transport_check(m: RatMatrix2, t: TauExact) -> bool:
    """Whether tau and m(tau) have equal parity; contractually always true for
    matrices in the odd group, so a False return signals a defect."""
    require_odd_group(m)
    return parity_of_tau(moebius(m, t)) == parity_of_tau(t)
