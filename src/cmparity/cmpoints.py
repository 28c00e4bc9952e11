"""Exact CM points in the upper half-plane and their lattices.

A CM point tau is stored as the primitive integral triple (a, b, c) with
a*tau**2 + b*tau + c = 0, a > 0 and b**2 - 4ac < 0; tau denotes the root
(-b + sqrt(b**2 - 4ac))/(2a) with positive imaginary part. The lattice
Z*tau + Z has a multiplier ring {u : u*L in L}, an order in Q(tau), and the
module computes it two independent ways: straight from the triple's
discriminant, and by solving the integrality conditions on the generator
images exactly over the rationals. The two routes cross-validate each other.
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

    Writing u = x + y*sqrt(d), the images u*g1 and u*g2 expressed in the basis
    (g1, g2) have coordinates that are rational-linear in (x, y); membership
    demands all four coordinates integral. The four conditions are solved by
    diagonalizing the stacked integer system with unimodular transforms, which
    yields a basis of the solution lattice, and the ring's discriminant falls
    out of that basis. Entirely independent of the triple-discriminant route
    in order_of_tau, so the two can check each other.
    """
    if lat.d.value >= 0:
        raise ValueError("multiplier rings are computed for imaginary fields only")
    dv = lat.d.value
    x1, y1 = lat.g1.x, lat.g1.y
    x2, y2 = lat.g2.x, lat.g2.y
    detb = x1 * y2 - y1 * x2
    if detb == 0:
        raise DegenerateLatticeError("generators are Q-linearly dependent")

    # coords of u*gi in (g1, g2): Mi = B^-1 Ci, B columns = generator coords
    def binv_times(c11, c12, c21, c22):
        return (
            (y2 * c11 - x2 * c21) / detb,
            (y2 * c12 - x2 * c22) / detb,
            (-y1 * c11 + x1 * c21) / detb,
            (-y1 * c12 + x1 * c22) / detb,
        )

    rows = []
    for xg, yg in ((x1, y1), (x2, y2)):
        m11, m12, m21, m22 = binv_times(xg, yg * dv, yg, xg)
        rows.append((m11, m12))
        rows.append((m21, m22))

    q = 1
    for r1, r2 in rows:
        q = math.lcm(q, r1.denominator, r2.denominator)
    int_rows = [[int(r1 * q), int(r2 * q)] for r1, r2 in rows]

    diag, col_ops = _diagonalize_columns(int_rows)
    # solutions v with A*v in q*Z^4: v = col_ops @ diag(q/d1, q/d2) @ Z^2
    basis = []
    for k in (0, 1):
        scale = Fraction(q, diag[k])
        basis.append((col_ops[0][k] * scale, col_ops[1][k] * scale))

    (v1x, v1y), (v2x, v2y) = basis
    det_w = v1x * v2y - v1y * v2x
    if det_w == 0:
        raise InternalCheckError("solution lattice degenerated")
    # 1 must be a multiplier; solve (1, 0) = s*v1 + t*v2 and demand integers
    s = v2y / det_w
    t = -v1y / det_w
    if s.denominator != 1 or t.denominator != 1:
        raise InternalCheckError("multiplier ring does not contain 1")
    disc = 4 * det_w * det_w * dv
    if disc.denominator != 1:
        raise InternalCheckError("multiplier-ring discriminant must be an integer")
    return order_from_discriminant(int(disc))


def _diagonalize_columns(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Bring an integer matrix with 2 independent columns to the shape where
    row 0 is (d1, 0) and column 0 vanishes below row 0, using unimodular
    row/column operations. Returns (d1, d2) with d2 the gcd of the surviving
    second column, plus the accumulated 2x2 column transform C.

    If the original matrix is A and q > 0, the lattice {v : A v in q*Z^m} is
    then C * ((q/d1)*Z x (q/d2)*Z).
    """
    a = [row[:] for row in a]
    m = len(a)
    c = [[1, 0], [0, 1]]

    def col_swap():
        for row in a:
            row[0], row[1] = row[1], row[0]
        for row in c:
            row[0], row[1] = row[1], row[0]

    def col_addmul(t):  # col1 += t * col0
        for row in a:
            row[1] += t * row[0]
        for row in c:
            row[1] += t * row[0]

    while True:
        piv = None
        for i in range(m):
            for j in range(2):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            raise DegenerateLatticeError("system has rank < 2")
        i, j = piv
        if j == 1:
            col_swap()
        if i != 0:
            a[0], a[i] = a[i], a[0]
        p = a[0][0]
        clean = True
        for i in range(1, m):
            t = a[i][0] // p
            if t:
                a[i][0] -= t * p
                a[i][1] -= t * a[0][1]
            if a[i][0]:
                clean = False
        t = a[0][1] // p
        if t:
            col_addmul(-t)
        if a[0][1]:
            clean = False
        if clean:
            break
    d1 = abs(a[0][0])
    d2 = 0
    for i in range(1, m):
        d2 = math.gcd(d2, a[i][1])
    if d2 == 0:
        raise DegenerateLatticeError("system has rank < 2")
    return [d1, d2], c
