import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmparity import (
    DegenerateLatticeError,
    Lattice,
    Parity,
    QuadElement,
    QuadOrder,
    SquarefreeInt,
    TauExact,
    lattice_of_tau,
    multiplier_ring,
    order_discriminant,
    order_of_tau,
    parity_of_tau,
    quad_order,
    squarefree,
    tau_from_beta,
)
from cmparity.cmpoints import _validate_halfint_disc
from cmparity.factorint import squarefree_decompose

from conftest import random_tau, tau_from_element

ORACLE_SEED = 20240815


def halfint_element(D: int) -> QuadElement:
    """(1 + sqrt(D))/2 as an exact element, D < 0 and D = 1 (mod 4)."""
    m, d = squarefree_decompose(D)
    return QuadElement(Fraction(1, 2), Fraction(m, 2), SquarefreeInt(d, part_of=D))


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
        raise ValueError(f"{beta} does not divide |{D}|")
    return math.gcd(beta, abs(D) // beta) == 1


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


def test_tau_normalization():
    t = TauExact(-2, 2, -4)  # sign flip and gcd reduction
    assert (t.a, t.b, t.c) == (1, -1, 2)
    t = TauExact(6, 0, 18)
    assert (t.a, t.b, t.c) == (1, 0, 3)
    with pytest.raises(ValueError):
        TauExact(0, 1, 1)
    with pytest.raises(ValueError):
        TauExact(1, 5, 1)  # positive discriminant


def test_order_of_tau_examples():
    assert order_of_tau(TauExact(1, -1, 1)) == quad_order(-3, 1)
    assert order_of_tau(TauExact(1, 0, 1)) == quad_order(-1, 1)
    t = TauExact(4, -4, 13)
    assert t.disc == -192
    assert order_of_tau(t) == quad_order(-3, 8)


def test_tau_from_beta_examples():
    assert tau_from_beta(-15, 3) == TauExact(3, -3, 2)
    assert tau_from_beta(-15, 3).disc == -15
    assert tau_from_beta(-63, 3) == TauExact(1, -1, 2)
    assert tau_from_beta(-63, 3).disc == -7
    assert tau_from_beta(-15, 9) == TauExact(27, -27, 8)
    assert tau_from_beta(-15, 9).disc == -135


def test_tau_from_beta_oracle_via_minimal_polynomial():
    # independent construction: the minimal polynomial of (beta + sqrt(D))/(2 beta),
    # with sqrt(D) written as m*sqrt(d) over the squarefree part d
    from cmparity.factorint import squarefree_decompose

    for D, beta in ((-15, 3), (-63, 3), (-15, 9), (-355, 25), (-135, 15)):
        m, d = squarefree_decompose(D)
        z = QuadElement(Fraction(1, 2), Fraction(m, 2 * beta), squarefree(d))
        expected = tau_from_element(z)
        assert tau_from_beta(D, beta) == expected
        assert order_of_tau(tau_from_beta(D, beta)) == order_of_tau(expected)


def test_tau_from_beta_validation():
    with pytest.raises(ValueError):
        tau_from_beta(15, 3)
    with pytest.raises(ValueError):
        tau_from_beta(-14, 3)  # 2 mod 4
    with pytest.raises(ValueError):
        tau_from_beta(-15, 4)  # even beta
    with pytest.raises(ValueError):
        tau_from_beta(-15, -3)


def test_halfint_membership_examples():
    assert halfint_membership(-15, 3) is True
    assert halfint_membership(-15, 9) is False
    assert halfint_membership(-3, 1) is True


def test_halfint_membership_matches_lattice_brute_force():
    # full grid: odd beta <= 99 against every D = 1 (mod 4) down to -399
    for D in range(-3, -400, -4):
        w = halfint_element(D)
        for beta in range(1, 100, 2):
            ring = multiplier_ring(lattice_of_tau(tau_from_beta(D, beta)))
            assert halfint_membership(D, beta) == order_contains(ring, w), (D, beta)
            assert halfint_membership(D, beta) == (abs(D) % beta == 0)


def test_is_maximal_halfint_examples():
    assert is_maximal_halfint(-15, 3) is True
    assert is_maximal_halfint(-63, 3) is False
    assert is_maximal_halfint(-3, 1) is True
    with pytest.raises(ValueError, match="7 does not divide"):
        is_maximal_halfint(-15, 7)


def test_is_maximal_halfint_matches_discriminant():
    for D in range(-3, -400, -4):
        for beta in range(1, 24, 2):
            if abs(D) % beta:
                continue
            expected = order_discriminant(order_of_tau(tau_from_beta(D, beta))) == D
            assert is_maximal_halfint(D, beta) == expected, (D, beta)


def test_parity_of_tau_examples():
    assert parity_of_tau(TauExact(1, 0, 1)) is Parity.EVEN
    assert parity_of_tau(TauExact(1, -1, 1)) is Parity.ODD
    t = TauExact(1, 0, 5)
    assert t.disc == -20
    assert parity_of_tau(t) is Parity.EVEN


def test_pure_imaginary_points_are_even():
    rng = random.Random(ORACLE_SEED + 1)
    for _ in range(200):
        a = rng.randint(1, 50)
        c = rng.randint(1, 50)
        assert parity_of_tau(TauExact(a, 0, c)) is Parity.EVEN


def test_lattice_of_tau_examples():
    lat = lattice_of_tau(TauExact(1, 0, 1))
    assert lat.g1 == QuadElement(Fraction(0), Fraction(1), squarefree(-1))
    assert lat.g2 == QuadElement(Fraction(1), Fraction(0), squarefree(-1))
    lat = lattice_of_tau(TauExact(1, -1, 1))
    assert lat.g1 == QuadElement(Fraction(1, 2), Fraction(1, 2), squarefree(-3))
    lat = lattice_of_tau(TauExact(3, -3, 2))
    assert lat.g1 == QuadElement(Fraction(1, 2), Fraction(1, 6), squarefree(-15))


def test_multiplier_ring_examples():
    d1 = squarefree(-1)
    lat = Lattice(
        QuadElement(Fraction(0), Fraction(1), d1),
        QuadElement(Fraction(1), Fraction(0), d1),
    )
    assert multiplier_ring(lat) == quad_order(-1, 1)

    d3 = squarefree(-3)
    lat = Lattice(
        QuadElement(Fraction(1, 2), Fraction(1, 2), d3),
        QuadElement(Fraction(1), Fraction(0), d3),
    )
    assert multiplier_ring(lat) == quad_order(-3, 1)

    lat = Lattice(
        QuadElement(Fraction(1, 2), Fraction(1), d3),
        QuadElement(Fraction(1), Fraction(0), d3),
    )
    assert multiplier_ring(lat) == quad_order(-3, 8)


def test_degenerate_lattice_rejected():
    d = squarefree(-1)
    with pytest.raises(DegenerateLatticeError):
        Lattice(
            QuadElement(Fraction(1), Fraction(2), d),
            QuadElement(Fraction(2), Fraction(4), d),
        )


def test_multiplier_ring_oracle_equivalence_500_random():
    rng = random.Random(ORACLE_SEED)
    for _ in range(500):
        t = random_tau(rng, bound=200)
        assert multiplier_ring(lattice_of_tau(t)) == order_of_tau(t), t


def change_of_basis(lat: Lattice, rng: random.Random) -> Lattice:
    """The same lattice on the basis (p*g1 + q*g2, r*g1 + s*g2), ps - qr = +-1."""
    p, q, r, s = 1, 0, 0, 1
    for _ in range(4):
        k = rng.randint(-3, 3)
        p, q, r, s = r, s, p + k * r, q + k * s  # determinant changes sign

    def combo(m, n):
        g1, g2 = lat.g1, lat.g2
        return QuadElement(m * g1.x + n * g2.x, m * g1.y + n * g2.y, lat.d)

    return Lattice(combo(p, q), combo(r, s))


def test_multiplier_ring_on_scaled_lattices():
    # scaling a lattice or changing its basis never changes its multiplier ring
    rng = random.Random(ORACLE_SEED + 2)
    for _ in range(50):
        t = random_tau(rng, bound=40)
        lat = lattice_of_tau(t)
        scale = QuadElement(
            Fraction(rng.randint(1, 5)), Fraction(rng.randint(0, 3)), lat.d
        )
        if scale.is_zero():
            continue
        scaled = change_of_basis(Lattice(lat.g1 * scale, lat.g2 * scale), rng)
        assert multiplier_ring(scaled) == multiplier_ring(lat) == order_of_tau(t)


def test_multiplier_ring_conductor_brute_force():
    # the least f >= 1 with f*w*L inside L, for w the standard field generator
    rng = random.Random(ORACLE_SEED + 3)
    for _ in range(60):
        lat = change_of_basis(lattice_of_tau(random_tau(rng, bound=12)), rng)
        d = lat.d
        wx, wy = (Fraction(1, 2), Fraction(1, 2)) if d.value % 4 == 1 else (0, 1)
        f = 1
        while True:
            fw = QuadElement(f * wx, f * wy, d)
            if all(
                c.denominator == 1 for g in (lat.g1, lat.g2) for c in lat.coords(fw * g)
            ):
                break
            f += 1
        ring = multiplier_ring(lat)
        assert (ring.d, ring.conductor) == (d, f), lat


def test_lattice_coords_recombine():
    rng = random.Random(ORACLE_SEED + 4)
    d = squarefree(-7)

    def element():
        return QuadElement(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            d,
        )

    for _ in range(100):
        g1, g2, w = element(), element(), element()
        if g1.x * g2.y == g1.y * g2.x:
            continue
        lat = Lattice(g1, g2)
        s, t = lat.coords(w)
        zero = Fraction(0)
        assert QuadElement(s, zero, d) * g1 + QuadElement(t, zero, d) * g2 == w
    with pytest.raises(ValueError):
        lat.coords(QuadElement(Fraction(1), Fraction(1), squarefree(-1)))


def test_key_formula_small_grid():
    # the acceptance suite runs beta <= 99 and D down to -399
    for beta in range(1, 20, 2):
        for D in range(-3, -100, -4):
            g = math.gcd(abs(D), beta * beta)
            t = tau_from_beta(D, beta)
            assert t.disc == (beta * beta // g) * (D // g)
            assert order_discriminant(order_of_tau(t)) == t.disc
            assert multiplier_ring(lattice_of_tau(t)) == order_of_tau(t)


def test_half_shift_family_is_even():
    # tau = 1/2 + (m/n)*sqrt(d) for odd m, n and squarefree d = 1 (mod 4)
    ds = [
        d
        for d in range(-3, -104, -4)
        if squarefree_ok(d)
    ]
    for d in ds:
        for m in range(1, 20, 2):
            for n in range(1, 20, 2):
                t = TauExact(4 * n * n, -4 * n * n, n * n - 4 * m * m * d)
                assert parity_of_tau(t) is Parity.EVEN, (d, m, n)


def squarefree_ok(d):
    from cmparity.factorint import is_squarefree

    return is_squarefree(d)


def test_half_shift_sqrt_point_matches_known_triple():
    z = QuadElement(Fraction(1, 2), Fraction(1), squarefree(-3))
    assert tau_from_element(z) == TauExact(4, -4, 13)


def test_quad_element_arithmetic():
    d = squarefree(-5)
    u = QuadElement(Fraction(1, 2), Fraction(3), d)
    v = QuadElement(Fraction(2), Fraction(-1, 3), d)
    assert (u + v) - v == u
    assert (u * v) / v == u
    assert u * u.inverse() == QuadElement(Fraction(1), Fraction(0), d)
    assert u.norm() == Fraction(1, 4) + 45
    with pytest.raises(ValueError):
        u + QuadElement(Fraction(0), Fraction(1), squarefree(-1))


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=60),
    b=st.integers(min_value=-60, max_value=60),
    c=st.integers(min_value=1, max_value=60),
)
def test_oracle_equivalence_property(a, b, c):
    if b * b - 4 * a * c >= 0:
        return
    t = TauExact(a, b, c)
    assert multiplier_ring(lattice_of_tau(t)) == order_of_tau(t)
