import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmparity import (
    CanonicalKind,
    Parity,
    QuadOrder,
    SquarefreeInt,
    canonical_generator,
    field_discriminant,
    order_discriminant,
    order_from_canonical,
    order_from_discriminant,
    parity,
    quad_order,
    squarefree,
    trace_lattice,
)
from cmparity.factorint import is_squarefree


def trace_form_determinant(d: int, f: int) -> Fraction:
    """Independent oracle: determinant of the trace bilinear form on the basis
    (1, g) of the order, g its standard generator."""
    if d % 4 == 1:
        gx, gy = Fraction(f, 2), Fraction(f, 2)  # f*(1+sqrt(d))/2
    else:
        gx, gy = Fraction(0), Fraction(f)  # f*sqrt(d)
    tr_g = 2 * gx
    tr_g2 = 2 * (gx * gx + gy * gy * d)  # tr((x+y*sqrt d)^2) = 2(x^2 + y^2 d)
    return 2 * tr_g2 - tr_g * tr_g


def squarefree_range(limit):
    for d in range(-limit, limit + 1):
        if d not in (0, 1) and is_squarefree(d):
            yield d


def test_field_discriminant_examples():
    assert field_discriminant(squarefree(-1)) == -4
    assert field_discriminant(squarefree(-3)) == -3
    assert field_discriminant(squarefree(5)) == 5


def test_order_discriminant_examples():
    assert order_discriminant(quad_order(-1, 1)) == -4
    assert order_discriminant(quad_order(-3, 1)) == -3
    # cross-checked against the trace-form determinant oracle
    assert order_discriminant(quad_order(-3, 8)) == -192
    assert trace_form_determinant(-3, 8) == -192


def test_parity_examples():
    assert parity(quad_order(-3, 1)) is Parity.ODD
    assert parity(quad_order(-1, 1)) is Parity.EVEN
    assert parity(quad_order(-3, 8)) is Parity.EVEN


def test_trace_lattice_examples():
    assert trace_lattice(quad_order(-3, 1)) == 1
    assert trace_lattice(quad_order(-1, 1)) == 2
    assert trace_lattice(quad_order(5, 2)) == 2


def test_canonical_generator_examples():
    cf = canonical_generator(quad_order(-3, 1))
    assert cf.kind is CanonicalKind.HALF_INTEGER and cf.radicand == -3
    cf = canonical_generator(quad_order(-1, 1))
    assert cf.kind is CanonicalKind.INTEGER and cf.radicand == -1
    cf = canonical_generator(quad_order(-3, 8))
    assert cf.kind is CanonicalKind.INTEGER and cf.radicand == -48


def test_squarefree_validation():
    for bad in (0, 1, 4, 12, -8, 50, -18):
        with pytest.raises(ValueError):
            squarefree(bad)
    assert squarefree(-2).value == -2
    assert squarefree(30).value == 30


def brute_squarefree(v: int) -> bool:
    return all(v % (k * k) for k in range(2, abs(v) + 1))


def test_squarefree_part_of_a_multiple():
    # validated from the multiple's factorization; the oracle is independent:
    # accepted exactly when value is squarefree and n / value is a square, so
    # never when value has a repeated prime
    for n in list(range(-120, 0)) + list(range(2, 120)):
        for value in range(-120, 121):
            if value in (0, 1):
                continue
            quotient, rest = divmod(n, value)
            part = (
                rest == 0
                and quotient > 0
                and math.isqrt(quotient) ** 2 == quotient
                and brute_squarefree(value)
            )
            if part:
                assert SquarefreeInt(value, part_of=n).value == value
            else:
                with pytest.raises(ValueError):
                    SquarefreeInt(value, part_of=n)
    assert SquarefreeInt(-3, part_of=-27) == SquarefreeInt(-3)


def test_conductor_validation():
    with pytest.raises(ValueError):
        quad_order(-3, 0)
    with pytest.raises(ValueError):
        quad_order(-3, -2)


def test_discriminant_residue_always_0_or_1():
    for d in squarefree_range(60):
        sq = squarefree(d)
        assert field_discriminant(sq) % 4 in (0, 1)
        for f in (1, 2, 3, 7, 10):
            assert order_discriminant(QuadOrder(sq, f)) % 4 in (0, 1)


def test_discriminant_matches_trace_form_oracle_on_grid():
    for d in squarefree_range(30):
        for f in range(1, 9):
            assert order_discriminant(quad_order(d, f)) == trace_form_determinant(d, f)


def test_parity_tri_consistency_grid():
    # smaller grid here; the acceptance suite runs |d| <= 500, f <= 50
    for d in squarefree_range(100):
        sq = squarefree(d)
        fd = field_discriminant(sq)
        for f in range(1, 13):
            o = QuadOrder(sq, f)
            by_disc = Parity.ODD if order_discriminant(o) % 2 else Parity.EVEN
            by_parts = Parity.ODD if (fd % 2 and f % 2) else Parity.EVEN
            by_trace = Parity.ODD if trace_lattice(o) == 1 else Parity.EVEN
            by_canon = (
                Parity.ODD
                if canonical_generator(o).kind is CanonicalKind.HALF_INTEGER
                else Parity.EVEN
            )
            assert parity(o) == by_disc == by_parts == by_trace == by_canon


def test_canonical_round_trip():
    for d in squarefree_range(50):
        for f in range(1, 11):
            o = quad_order(d, f)
            assert order_from_canonical(canonical_generator(o)) == o


def test_canonical_radicand_relation():
    # D = (f or f/2)^2 * d depending on the case split
    for d, f, expected in ((-3, 8, -48), (-3, 1, -3), (-1, 1, -1), (5, 2, 5), (-2, 3, -18)):
        assert canonical_generator(quad_order(d, f)).radicand == expected


def test_order_from_discriminant():
    assert order_from_discriminant(-192) == quad_order(-3, 8)
    assert order_from_discriminant(-4) == quad_order(-1, 1)
    assert order_from_discriminant(-3) == quad_order(-3, 1)
    for bad in (-5, -6, 16, 0):  # 2 or 3 mod 4, perfect square, zero
        with pytest.raises(ValueError):
            order_from_discriminant(bad)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=-300, max_value=300).filter(
        lambda v: v not in (0, 1) and is_squarefree(v)
    ),
    f=st.integers(min_value=1, max_value=40),
)
def test_parity_consistency_property(d, f):
    o = quad_order(d, f)
    disc = order_discriminant(o)
    assert disc == f * f * field_discriminant(o.d)
    assert (parity(o) is Parity.ODD) == (disc % 2 == 1)
    assert (trace_lattice(o) == 1) == (disc % 2 == 1)
