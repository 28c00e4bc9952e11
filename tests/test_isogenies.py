import math
import random
from fractions import Fraction

import pytest

from cmparity import (
    InternalCheckError,
    Isogeny,
    Lattice,
    NotInGroupError,
    QuadElement,
    RatMatrix2,
    TauExact,
    in_odd_group,
    isogenies,
    lattice_of_tau,
    moebius,
    odd_isogeny,
    parity_of_tau,
    parity_transport_check,
    squarefree,
)
from cmparity.factorint import squarefree_decompose
from cmparity.isogenies import in_odd_pairs, require_odd_group

from conftest import random_odd_matrix, random_tau, random_unimodular, tau_from_element

SEED = 77041


def test_moebius_identity():
    rng = random.Random(SEED)
    ident = RatMatrix2(1, 0, 0, 1)
    for _ in range(20):
        t = random_tau(rng)
        assert moebius(ident, t) == t


def test_moebius_examples():
    assert moebius(RatMatrix2(3, 0, 0, 5), TauExact(1, 0, 1)) == TauExact(25, 0, 9)
    moved = moebius(RatMatrix2(1, 1, 0, 1), TauExact(1, -1, 1))
    assert moved == TauExact(1, -3, 3)
    assert moved.disc == -3


def test_moebius_requires_positive_determinant():
    with pytest.raises(ValueError):
        moebius(RatMatrix2(1, 0, 0, -1), TauExact(1, 0, 1))


def test_moebius_group_action():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        m1 = random_odd_matrix(rng, 15, 9)
        m2 = random_odd_matrix(rng, 15, 9)
        t = random_tau(rng, bound=60)
        assert moebius(m1 @ m2, t) == moebius(m1, moebius(m2, t))


def test_moebius_preserves_field():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        m = random_odd_matrix(rng, 20, 9)
        t = random_tau(rng, bound=60)
        _, d0 = squarefree_decompose(t.disc)
        moved = moebius(m, t)
        assert moved.as_element().d.value == d0


def test_odd_isogeny_examples():
    iso = odd_isogeny(RatMatrix2(3, 0, 0, 5), TauExact(1, 0, 1))
    assert iso.degree == 15
    iso = odd_isogeny(RatMatrix2(1, 1, 0, 3), TauExact(1, -1, 1))
    assert iso.degree == 3
    iso = odd_isogeny(
        RatMatrix2(Fraction(3, 5), Fraction(0), Fraction(0), Fraction(1)),
        TauExact(1, 0, 1),
    )
    assert iso.degree == 15  # clears denominators with n = 5 first


def test_odd_isogeny_gcd_division():
    # diag(3, 3) is multiplication by 1 after gcd division: degree 1
    iso = odd_isogeny(RatMatrix2(3, 0, 0, 3), TauExact(1, 0, 1))
    assert iso.degree == 1


def test_odd_isogeny_consistency_random():
    rng = random.Random(SEED + 3)
    for _ in range(100):
        m = random_odd_matrix(rng, 20, 9)
        t = random_tau(rng, bound=40)
        iso = odd_isogeny(m, t)
        assert iso.degree % 2 == 1
        assert lattice_index(iso.u, lattice_of_tau(iso.source_tau), lattice_of_tau(t)) == iso.degree
        assert iso.source_tau == moebius(m, t)
        assert iso.target_tau == t


def test_odd_isogeny_rejects_outsiders():
    t = TauExact(1, 0, 1)
    with pytest.raises(NotInGroupError):
        odd_isogeny(RatMatrix2(Fraction(1, 2), 0, 0, 1), t)  # even denominator
    with pytest.raises(NotInGroupError):
        odd_isogeny(RatMatrix2(2, 0, 0, 1), t)  # even determinant
    with pytest.raises(NotInGroupError):
        odd_isogeny(RatMatrix2(-1, 0, 0, 1), t)  # negative determinant
    with pytest.raises(NotInGroupError):
        odd_isogeny(RatMatrix2(1, 1, 1, 1), t)  # singular


def test_in_odd_group():
    assert in_odd_group(RatMatrix2(3, 0, 0, 5))
    assert in_odd_group(RatMatrix2(Fraction(1, 3), 0, 0, Fraction(5, 7)))
    assert not in_odd_group(RatMatrix2(Fraction(1, 2), 0, 0, 1))
    assert not in_odd_group(RatMatrix2(1, 0, 0, 2))


def lattice_index(u: QuadElement, lat1: Lattice, lat2: Lattice) -> int:
    """Index of u*lat1 inside lat2 (the degree of multiplication by u)."""
    if u.is_zero():
        raise ValueError("multiplier must be nonzero")
    if lat1.d != lat2.d:
        raise ValueError("lattices lie in different fields")
    coeffs = []
    for g in (lat1.g1, lat1.g2):
        alpha, beta = lat2.coords(u * g)
        if alpha.denominator != 1 or beta.denominator != 1:
            raise ValueError(f"{u} * {g} is not an integral combination of the target basis")
        coeffs.append((int(alpha), int(beta)))
    (a1, b1), (a2, b2) = coeffs
    return abs(a1 * b2 - b1 * a2)


def test_lattice_index_examples():
    d = squarefree(-1)
    one = QuadElement(Fraction(1), Fraction(0), d)
    i_unit = QuadElement(Fraction(0), Fraction(1), d)
    std = Lattice(i_unit, one)
    assert lattice_index(one, std, std) == 1
    assert lattice_index(QuadElement(Fraction(2), Fraction(0), d), std, std) == 4
    scaled = Lattice(QuadElement(Fraction(0), Fraction(3, 5), d), one)
    assert lattice_index(QuadElement(Fraction(5), Fraction(0), d), scaled, std) == 15


def test_lattice_index_errors():
    d = squarefree(-1)
    one = QuadElement(Fraction(1), Fraction(0), d)
    std = Lattice(QuadElement(Fraction(0), Fraction(1), d), one)
    with pytest.raises(ValueError):
        lattice_index(QuadElement(Fraction(0), Fraction(0), d), std, std)
    half = QuadElement(Fraction(1, 2), Fraction(0), d)
    with pytest.raises(ValueError, match="not an integral combination"):
        lattice_index(half, std, std)


def test_isogeny_degree_validated_at_construction():
    base, moved = TauExact(1, 0, 1), TauExact(25, 0, 9)  # diag(3, 5) takes i to 3i/5
    iso = Isogeny((3, 0, 0, 5), moved, base)
    assert iso.u == QuadElement(Fraction(5), Fraction(0), squarefree(-1))
    assert iso.degree == 15
    assert Isogeny((2, 0, 0, 2), base, base).degree == 4  # multiplication by 2
    with pytest.raises(InternalCheckError):
        Isogeny((3, 0, 0, 5), TauExact(9, 0, 25), base)  # 5i/3, not the image
    with pytest.raises(InternalCheckError):
        Isogeny((-3, 0, 0, 5), moved, base)  # determinant -15: the form fits, the degree does not


def field_moebius(m: RatMatrix2, t: TauExact) -> TauExact:
    """(a*tau + b)/(c*tau + d) computed in Q(sqrt(d)), then made a triple."""
    tau = t.as_element()
    a, b, c, d = (QuadElement(e, Fraction(0), tau.d) for e in m.entries())
    return tau_from_element((a * tau + b) / (c * tau + d))


def test_moebius_matches_field_route():
    rng = random.Random(SEED + 5)
    for _ in range(300):
        m = random_odd_matrix(rng)
        t = random_tau(rng, bound=100)
        assert moebius(m, t) == field_moebius(m, t), (m, t)
    for _ in range(300):
        m = random_unimodular(rng, steps=rng.randint(1, 12))
        t = random_tau(rng, bound=100)
        moved = moebius(m, t)
        assert moved == field_moebius(m, t), (m, t)
        assert moved.disc == t.disc


def odd_group_reference(m: RatMatrix2) -> bool:
    entries = m.entries()
    det = entries[0] * entries[3] - entries[1] * entries[2]
    return all(e.denominator % 2 for e in entries) and det > 0 and det.numerator % 2 == 1


def test_in_odd_group_matches_fraction_reference():
    rng = random.Random(SEED + 6)
    seen = set()
    for _ in range(3000):
        m = RatMatrix2(*(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(4)))
        expected = odd_group_reference(m)
        assert in_odd_group(m) is expected, m
        if not expected:
            with pytest.raises(NotInGroupError):
                require_odd_group(m)
        det = m.det
        if any(e.denominator % 2 == 0 for e in m.entries()):
            seen.add("even denominator")
        elif det == 0:
            seen.add("zero determinant")
        elif det < 0:
            seen.add("negative determinant")
        elif det.numerator % 2 == 0:
            seen.add("even determinant")
        else:
            seen.add("member")
    assert len(seen) == 5


def test_odd_group_rule_on_raw_odd_denominator_pairs():
    # the sampler decides on pairs as drawn, such as 6/9, before any reduction
    rng = random.Random(SEED + 8)
    verdicts = set()
    unreduced = 0
    for _ in range(3000):
        pairs = [(rng.randint(-40, 40), rng.randrange(1, 16, 2)) for _ in range(4)]
        m = RatMatrix2(*pairs)
        expected = in_odd_group(m)
        assert in_odd_pairs(*pairs) is expected is odd_group_reference(m), pairs
        verdicts.add(expected)
        unreduced += any(math.gcd(p, q) > 1 for p, q in pairs)
    assert verdicts == {True, False}
    assert unreduced > 1000


def test_odd_isogeny_rejects_tampered_moebius(monkeypatch):
    rng = random.Random(SEED + 7)
    true_moebius = isogenies.moebius

    def wrong(m, t):
        moved = true_moebius(m, t)
        return TauExact(moved.a, moved.b, moved.c + moved.a)  # disc - 4a^2: same parity

    monkeypatch.setattr(isogenies, "moebius", wrong)
    for _ in range(50):
        m, t = random_odd_matrix(rng), random_tau(rng)
        assert parity_of_tau(wrong(m, t)) is parity_of_tau(t)
        with pytest.raises(InternalCheckError):
            odd_isogeny(m, t)


def test_parity_transport_examples():
    assert parity_transport_check(RatMatrix2(3, 0, 0, 5), TauExact(1, 0, 1))
    assert parity_transport_check(RatMatrix2(1, 1, 0, 3), TauExact(1, -1, 1))
    assert parity_transport_check(RatMatrix2(1, 0, 0, 1), TauExact(1, -1, 2))


def test_parity_transport_random_sample():
    # module-level slice; the acceptance suite runs the full 1000 pairs
    rng = random.Random(SEED + 4)
    for _ in range(200):
        m = random_odd_matrix(rng)
        t = random_tau(rng)
        assert parity_transport_check(m, t)


def test_ratmatrix_construction_reduces_once():
    forms = [
        RatMatrix2(Fraction(3, 5), 0, 0, 1),
        RatMatrix2("3/5", "0", "0", "1"),
        RatMatrix2((6, 10), (0, 1), (0, 7), (1, 1)),
    ]
    for m in forms:
        assert m == forms[0] and hash(m) == hash(forms[0])
        assert (m.a, m.b, m.c, m.d) == ((3, 5), (0, 1), (0, 1), (1, 1))
        assert m.primitive == (3, 0, 0, 5)
    for name in ("a", "primitive"):
        with pytest.raises(AttributeError):
            setattr(forms[0], name, (1, 1))


def test_matmul_and_identity():
    m = RatMatrix2(2, 1, 1, 1)
    assert m @ RatMatrix2(1, 0, 0, 1) == m
    sq = m @ m
    assert sq == RatMatrix2(5, 3, 3, 2)
