import math
import random

import pytest

from cmparity import (
    Parity,
    count_saturated_below_sqrt,
    enumerate_real_odd_cm,
    factorize,
    is_real_j,
    min_j_gap,
    order_discriminant,
    order_of_tau,
    parity_of_tau,
    saturated_divisors,
    t_representative,
)

SEED = 55137


def brute_force_saturated(n: int) -> list[int]:
    """Independent oracle: scan all divisors of |n| and gcd-test each."""
    m = abs(n)
    found = []
    for r in range(1, math.isqrt(m) + 1):
        if m % r:
            continue
        for cand in {r, m // r}:
            if math.gcd(cand, m // cand) == 1:
                found.append(cand)
    return sorted(set(found))


def test_saturated_examples():
    assert saturated_divisors(-15) == [1, 3, 5, 15]
    assert saturated_divisors(-3) == [1, 3]
    assert saturated_divisors(12) == [1, 3, 4, 12]


def test_saturated_brute_force_range():
    # tighter range here; the acceptance suite covers |n| <= 10**4
    for n in range(2, 2001):
        expected = brute_force_saturated(n)
        assert saturated_divisors(n) == expected
        assert saturated_divisors(-n) == expected
        assert len(expected) == 2 ** len(factorize(n).factors)


def test_saturated_involution():
    for n in (360, -1155, 9973, 4096):
        divisors = saturated_divisors(n)
        m = abs(n)
        assert sorted(m // r for r in divisors) == divisors


def test_saturated_rejects_zero():
    with pytest.raises(ValueError):
        saturated_divisors(0)


def test_disjoint_block_multiplicativity():
    rng = random.Random(SEED)
    for n in (-1155, 360360, -99099, 2**5 * 3**4 * 7):
        blocks = [p**e for p, e in factorize(n).factors]
        for _ in range(20):
            picks = [rng.randint(0, 2) for _ in blocks]
            r1 = math.prod(b for b, k in zip(blocks, picks) if k == 1)
            r2 = math.prod(b for b, k in zip(blocks, picks) if k == 2)
            assert math.gcd(r1, r2) == 1
            assert r1 * r2 == math.prod(
                b for b, k in zip(blocks, picks) if k in (1, 2)
            )
            assert abs(n) % (r1 * r2) == 0


def test_count_below_sqrt_examples():
    assert count_saturated_below_sqrt(-15) == 2
    assert count_saturated_below_sqrt(-3) == 1
    assert count_saturated_below_sqrt(-1155) == 8
    with pytest.raises(ValueError):
        count_saturated_below_sqrt(15)
    with pytest.raises(ValueError):
        count_saturated_below_sqrt(-14)


def test_count_below_sqrt_brute_force():
    for n in range(-3, -2000, -4):
        expected = sum(1 for r in brute_force_saturated(n) if r * r < abs(n))
        assert count_saturated_below_sqrt(n) == expected


def test_enumerate_minus_3():
    points = enumerate_real_odd_cm(-3)
    assert len(points) == 1
    assert points[0].beta == 1
    assert (points[0].tau.a, points[0].tau.b, points[0].tau.c) == (1, -1, 1)
    assert abs(points[0].j_estimate) < 1e-6


def test_enumerate_minus_15_conjugate_oracle():
    points = enumerate_real_odd_cm(-15)
    assert [p.beta for p in points] == [1, 3]
    j1, j2 = points[0].j_estimate, points[1].j_estimate
    # conjugate quadratic algebraic numbers: sum and product must be integers
    for value in (j1 + j2, j1 * j2):
        assert abs(value - round(value)) < 1e-3 * max(1.0, abs(value))
    assert abs(j1 + 191657.83) < 0.01
    assert abs(j2 - 632.83) < 0.01


def test_enumerate_minus_1155():
    points = enumerate_real_odd_cm(-1155)
    assert len(points) == 8
    assert [p.beta for p in points] == [1, 3, 5, 7, 11, 15, 21, 33]


def test_enumerate_factors_d_once():
    # counts real work, wherever it happens: saturated_divisors, every
    # order_of_tau and SquarefreeInt all go through factorize's one cache;
    # -999999999999999819 = -3**2 * p, whose squarefree part is validated
    # from D's factorization instead of being factored again
    for D in (-1155, -1000036000099, -999999999999999819):
        factorize.cache_clear()
        points = enumerate_real_odd_cm(D)
        assert factorize.cache_info().misses == 1, D
        order_of_tau(points[-1].tau)
        assert factorize.cache_info().misses == 1, D


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_real_odd_cm(15)
    with pytest.raises(ValueError):
        enumerate_real_odd_cm(-4)


def test_enumerate_grid_consistency():
    # acceptance covers D down to -999; spot a representative slice here
    for D in range(-3, -200, -4):
        points = enumerate_real_odd_cm(D)
        assert len(points) == 2 ** (len(factorize(D).factors) - 1)
        lowest = points[0].j_estimate
        for p in points:
            assert order_discriminant(order_of_tau(p.tau)) == D
            assert parity_of_tau(p.tau) is Parity.ODD
            assert p.j_estimate < 1728.0
            assert is_real_j(p.tau)
        # interval containment: every j in [j(beta=1), 1728)
        assert all(lowest <= p.j_estimate < 1728.0 for p in points)


def test_enumerate_t_representatives():
    for D in (-15, -55, -163, -455):
        for p in enumerate_real_odd_cm(D):
            rep = t_representative(p.tau)
            assert rep.branch == "T2"
            assert abs(rep.t - math.sqrt(abs(D)) / (2 * p.beta)) < 1e-9


def test_min_j_gap():
    points = enumerate_real_odd_cm(-15)
    gap = min_j_gap(points)
    assert gap == pytest.approx(632.83 + 191657.83, abs=0.1)
    assert min_j_gap(points[:1]) == math.inf
