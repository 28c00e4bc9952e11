"""Exact arithmetic for quadratic fields and their orders.

An order in Q(sqrt(d)) is described by a squarefree integer d and a conductor
f >= 1; its discriminant is f**2 times the field discriminant. The parity of
an order (oddness or evenness of the discriminant) can be read off three
independent ways, and this module computes each route separately so they can
cross-validate: discriminant arithmetic, the trace lattice of the order's
generators, and the canonical single-generator presentation.

All values are immutable, all integers arbitrary precision, all functions pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass

from .errors import InternalCheckError
from .factorint import is_squarefree, squarefree_decompose


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"


class CanonicalKind(enum.Enum):
    # Z[(1 + sqrt(D))/2], requires D = 1 (mod 4); order discriminant is D
    HALF_INTEGER = "half_integer"
    # Z[sqrt(D)]; order discriminant is 4*D
    INTEGER = "integer"


@dataclass(frozen=True)
class SquarefreeInt:
    """A squarefree integer d not in {0, 1}; defines the field Q(sqrt(d)).

    part_of, when given, is an integer n whose squarefree part d is claimed
    to be: the check then reads n's cached factorization instead of factoring
    d once more, and still rejects every d that is not squarefree (no
    squarefree part has a repeated prime).
    """

    value: int
    part_of: InitVar[int | None] = None

    def __post_init__(self, part_of: int | None):
        if self.value in (0, 1):
            raise ValueError("d must not be 0 or 1")
        if part_of is None:
            if not is_squarefree(self.value):
                raise ValueError(f"{self.value} has a repeated prime factor")
        elif squarefree_decompose(part_of)[1] != self.value:
            raise ValueError(f"{self.value} is not the squarefree part of {part_of}")

    def __repr__(self):
        return f"SquarefreeInt({self.value})"


@dataclass(frozen=True)
class QuadOrder:
    """The order Z + f*O_K inside Q(sqrt(d)), f the conductor."""

    d: SquarefreeInt
    conductor: int

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError("conductor must be a positive integer")

    def __repr__(self):
        return f"QuadOrder(d={self.d.value}, f={self.conductor})"


@dataclass(frozen=True)
class CanonicalForm:
    """Single-generator presentation of an order: Z[(1+sqrt(D))/2] or Z[sqrt(D)]."""

    kind: CanonicalKind
    radicand: int

    def __post_init__(self):
        if self.kind is CanonicalKind.HALF_INTEGER and self.radicand % 4 != 1:
            raise ValueError("half-integer generator needs D = 1 (mod 4)")
        s, d0 = squarefree_decompose(self.radicand)
        if d0 == 1:
            raise ValueError("D must not be a perfect square")


def squarefree(d: int) -> SquarefreeInt:
    return SquarefreeInt(d)


def quad_order(d: int, f: int) -> QuadOrder:
    return QuadOrder(SquarefreeInt(d), f)


def field_discriminant(d: SquarefreeInt) -> int:
    """Discriminant of Q(sqrt(d)): d itself if d = 1 (mod 4), else 4d."""
    return d.value if d.value % 4 == 1 else 4 * d.value


def order_discriminant(o: QuadOrder) -> int:
    return o.conductor**2 * field_discriminant(o.d)


def parity(o: QuadOrder) -> Parity:
    """Parity of the order, via the parity of its discriminant."""
    return Parity.ODD if order_discriminant(o) % 2 else Parity.EVEN


def trace_lattice(o: QuadOrder) -> int:
    """Positive generator (1 or 2) of the trace image tr(O) of the order in Z.

    Computed from the generators, never inferred from the parity: with
    g = f*sqrt(d) (d != 1 mod 4) or g = f*(1+sqrt(d))/2 (d = 1 mod 4), the
    image is generated by tr(1) = 2 and tr(g).
    """
    if o.d.value % 4 == 1:
        trace_g = o.conductor  # tr(f*(1+sqrt(d))/2) = f
    else:
        trace_g = 0  # tr(f*sqrt(d)) = 0
    return math.gcd(2, trace_g)


def canonical_generator(o: QuadOrder) -> CanonicalForm:
    """Present the order as Z[(1+sqrt(D))/2] (odd case) or Z[sqrt(D)] (even)."""
    disc = order_discriminant(o)
    if disc % 2:
        if disc % 4 != 1:
            raise InternalCheckError(f"odd discriminant {disc} not 1 mod 4")
        return CanonicalForm(CanonicalKind.HALF_INTEGER, disc)
    if disc % 4 != 0:
        raise InternalCheckError(f"even discriminant {disc} not 0 mod 4")
    return CanonicalForm(CanonicalKind.INTEGER, disc // 4)


def order_from_discriminant(disc: int) -> QuadOrder:
    """Rebuild the (d, f) pair of the order with the given discriminant.

    disc must be congruent to 0 or 1 mod 4 and not a perfect square.
    """
    if disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a quadratic order discriminant")
    s, d0 = squarefree_decompose(disc)
    if d0 == 1:
        raise ValueError(f"{disc} is a perfect square, not a discriminant")
    if d0 % 4 == 1:
        f = s
    else:
        if s % 2:
            raise ValueError(f"{disc} is not a quadratic order discriminant")
        f = s // 2
    return QuadOrder(SquarefreeInt(d0, part_of=disc), f)


def order_from_canonical(cf: CanonicalForm) -> QuadOrder:
    """Inverse of canonical_generator."""
    if cf.kind is CanonicalKind.HALF_INTEGER:
        return order_from_discriminant(cf.radicand)
    return order_from_discriminant(4 * cf.radicand)
