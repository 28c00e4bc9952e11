"""Exact CM points in the upper half-plane and their lattices.

A CM point tau is stored as the primitive integral triple (a, b, c) with
a*tau**2 + b*tau + c = 0, a > 0 and b**2 - 4ac < 0; tau denotes the root
(-b + sqrt(b**2 - 4ac))/(2a) with positive imaginary part. The lattice
Z*tau + Z has a multiplier ring {u : u*L in L}, an order in Q(tau), and the
module computes it two independent ways: straight from the triple's
discriminant, and from the covolume of the lattice dual to the integrality
conditions on the generator images, whose coordinates Lattice.coords solves
exactly over the rationals. The two routes cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateLatticeError, InternalCheckError, NotADivisorError
from .factorint import squarefree_decompose
from .quadorders import Parity, QuadOrder, SquarefreeInt, order_from_discriminant


@dataclass(frozen=True)
class QuadElement:
    """The element x + y*sqrt(d) of Q(sqrt(d)), with exact rational x, y."""

    x: Fraction
    y: Fraction
    d: SquarefreeInt

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def _require_same_field(self, other: "QuadElement"):
        if self.d != other.d:
            raise ValueError("operands lie in different quadratic fields")

    def __add__(self, other: "QuadElement") -> "QuadElement":
        self._require_same_field(other)
        return QuadElement(self.x + other.x, self.y + other.y, self.d)

    def __sub__(self, other: "QuadElement") -> "QuadElement":
        self._require_same_field(other)
        return QuadElement(self.x - other.x, self.y - other.y, self.d)

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        self._require_same_field(other)
        dv = self.d.value
        return QuadElement(
            self.x * other.x + self.y * other.y * dv,
            self.x * other.y + self.y * other.x,
            self.d,
        )

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.d.value

    def inverse(self) -> "QuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element is zero")
        return QuadElement(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other: "QuadElement") -> "QuadElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __complex__(self) -> complex:
        dv = self.d.value
        if dv < 0:
            return complex(float(self.x), float(self.y) * math.sqrt(-dv))
        return complex(float(self.x) + float(self.y) * math.sqrt(dv), 0.0)

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt({self.d.value}))"


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice Z*g1 + Z*g2 in Q(sqrt(d)); generators must be independent."""

    g1: QuadElement
    g2: QuadElement

    def __post_init__(self):
        if self.g1.d != self.g2.d:
            raise DegenerateLatticeError("generators lie in different fields")
        if self.g1.x * self.g2.y - self.g1.y * self.g2.x == 0:
            raise DegenerateLatticeError("generators are Q-linearly dependent")

    @property
    def d(self) -> SquarefreeInt:
        return self.g1.d

    def coords(self, w: QuadElement) -> tuple[Fraction, Fraction]:
        """The rational (s, t) with w = s*g1 + t*g2."""
        self.g1._require_same_field(w)
        (x1, y1), (x2, y2) = (self.g1.x, self.g1.y), (self.g2.x, self.g2.y)
        det = x1 * y2 - y1 * x2
        return (w.x * y2 - w.y * x2) / det, (x1 * w.y - y1 * w.x) / det


@dataclass(frozen=True, init=False, slots=True)
class TauExact:
    """Primitive integral triple (a, b, c): the CM point (-b + sqrt(b^2-4ac))/(2a).

    Construction normalizes the sign so a > 0 and divides out gcd(a, b, c);
    neither step moves the point. Requires b**2 - 4ac < 0. Each field is set
    once, to its normalized value.
    """

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int):
        if a == 0:
            raise ValueError("leading coefficient must be nonzero")
        if a < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g != 1:
            a, b, c = a // g, b // g, c // g
        if b * b - 4 * a * c >= 0:
            raise ValueError("discriminant must be negative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_element(self) -> QuadElement:
        """tau as an exact element of Q(sqrt(d)), d the squarefree part of the disc."""
        m, d = squarefree_decompose(self.disc)
        return QuadElement(
            Fraction(-self.b, 2 * self.a),
            Fraction(m, 2 * self.a),
            SquarefreeInt(d, part_of=self.disc),
        )

    def __complex__(self) -> complex:
        return complex(
            -self.b / (2 * self.a), math.sqrt(-self.disc) / (2 * self.a)
        )

    def __repr__(self):
        return f"TauExact({self.a}, {self.b}, {self.c})"


def tau_from_element(z: QuadElement) -> TauExact:
    """Primitive triple of x + y*sqrt(d); requires d < 0 and y > 0."""
    if z.d.value >= 0 or z.y <= 0:
        raise ValueError("point must lie in the upper half-plane")
    # minimal polynomial X^2 - 2x*X + (x^2 - y^2 d), cleared to integers
    b = -2 * z.x
    c = z.x * z.x - z.y * z.y * z.d.value
    den = math.lcm(b.denominator, c.denominator)
    return TauExact(den, int(b * den), int(c * den))


def order_of_tau(t: TauExact) -> QuadOrder:
    """The multiplier ring of [tau, 1], read off the triple: disc = b^2 - 4ac."""
    return order_from_discriminant(t.disc)


def parity_of_tau(t: TauExact) -> Parity:
    """Parity of the CM point's order; any triple with b = 0 comes out even."""
    return Parity.ODD if t.disc % 2 else Parity.EVEN


def lattice_of_tau(t: TauExact) -> Lattice:
    """The lattice [tau, 1]."""
    tau = t.as_element()
    one = QuadElement(Fraction(1), Fraction(0), tau.d)
    return Lattice(tau, one)


def tau_from_beta(D: int, beta: int) -> TauExact:
    """Exact triple of the point 1/2 + sqrt(D)/(2*beta), for odd beta > 0.

    Uses the closed form (a, b, c) = (beta^2/g, -beta^2/g, (beta^2 - D)/(4g))
    with g = gcd(|D|, beta^2); the triple is already primitive.
    """
    _validate_halfint_disc(D)
    if beta <= 0 or beta % 2 == 0:
        raise ValueError("beta must be a positive odd integer")
    g = math.gcd(abs(D), beta * beta)
    a = beta * beta // g
    if (beta * beta - D) % (4 * g):
        raise InternalCheckError("4*gcd(|D|, beta^2) must divide beta^2 - D")
    c = (beta * beta - D) // (4 * g)
    if math.gcd(a, c) != 1:  # b = -a, so gcd(a, b, c) = gcd(a, c)
        raise InternalCheckError("closed-form triple must be primitive")
    t = TauExact(a, -a, c)
    if t.disc != (beta * beta // g) * (D // g):
        raise InternalCheckError("discriminant disagrees with the closed form")
    return t


def halfint_membership(D: int, beta: int) -> bool:
    """Whether (1 + sqrt(D))/2 multiplies [tau, 1] into itself for
    tau = 1/2 + sqrt(D)/(2*beta): holds exactly when beta divides |D|."""
    _validate_halfint_disc(D)
    if beta <= 0 or beta % 2 == 0:
        raise ValueError("beta must be a positive odd integer")
    return abs(D) % beta == 0


def is_maximal_halfint(D: int, beta: int) -> bool:
    """Whether the point 1/2 + sqrt(D)/(2*beta) has order of discriminant
    exactly D: holds exactly when gcd(beta, |D|/beta) = 1."""
    _validate_halfint_disc(D)
    if beta <= 0:
        raise ValueError("beta must be positive")
    if abs(D) % beta:
        raise NotADivisorError(f"{beta} does not divide |{D}|")
    return math.gcd(beta, abs(D) // beta) == 1


def _validate_halfint_disc(D: int):
    if D >= 0 or D % 4 != 1:
        raise ValueError("discriminant must be negative and congruent to 1 mod 4")


def order_contains(o: QuadOrder, u: QuadElement) -> bool:
    """Membership of x + y*sqrt(d) in the order Z + Z*(f*w), w the standard
    field generator."""
    if o.d != u.d:
        return False
    f = o.conductor
    if o.d.value % 4 == 1:
        gx, gy = Fraction(f, 2), Fraction(f, 2)  # f*(1+sqrt(d))/2
    else:
        gx, gy = Fraction(0), Fraction(f)  # f*sqrt(d)
    t = u.y / gy
    if t.denominator != 1:
        return False
    return (u.x - t * gx).denominator == 1


def multiplier_ring(lat: Lattice) -> QuadOrder:
    """The ring {u in Q(sqrt(d)) : u*L in L}, solved exactly.

    Writing u = x + y*sqrt(d), u*gi = x*gi + y*sqrt(d)*gi, so Lattice.coords
    gives the coordinates of u*g1 and u*g2 as four rational rows r with
    r.(x, y) required integral: the multipliers are the lattice dual to the
    Z-span R of the rows, of covolume 1/covol(R). Scaled to integers by q, the
    rows span a lattice of covolume g, the gcd of their six 2x2 minors (the
    product of the Smith invariants; Cohen, A Course in Computational Algebraic
    Number Theory, 2.4), so disc = 4*d*(q^2/g)^2. Entirely
    independent of the triple-discriminant route in order_of_tau, so the two
    can check each other.
    """
    if lat.d.value >= 0:
        raise ValueError("multiplier rings are computed for imaginary fields only")
    rows = []
    for g in (lat.g1, lat.g2):
        root_d_g = QuadElement(g.y * lat.d.value, g.x, lat.d)
        rows.extend(zip(lat.coords(g), lat.coords(root_d_g)))
    # 1 must be a multiplier: (1, 0) pairs with each row to its first entry
    if any(r1.denominator != 1 for r1, _ in rows):
        raise InternalCheckError("multiplier ring does not contain 1")
    q = math.lcm(*(r2.denominator for _, r2 in rows))
    int_rows = [(int(r1) * q, int(r2 * q)) for r1, r2 in rows]
    g = 0
    for i, (a1, a2) in enumerate(int_rows):
        for b1, b2 in int_rows[i + 1 :]:
            g = math.gcd(g, a1 * b2 - a2 * b1)
    if g == 0:
        raise DegenerateLatticeError("system has rank < 2")
    disc, rem = divmod(4 * q**4 * lat.d.value, g * g)
    if rem:
        raise InternalCheckError("multiplier-ring discriminant must be an integer")
    return order_from_discriminant(disc)
