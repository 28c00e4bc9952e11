import random

import pytest

from cmparity.factorint import (
    FactoredInt,
    factorize,
    is_prime,
    is_squarefree,
    squarefree_decompose,
)


def test_factorize_reconstructs():
    for n in (2, -2, 12, -1155, 97, 2**10 * 3**4, -999983):
        assert factorize(n).value() == n


def test_factorize_cofactors_past_trial_limit():
    # every prime here exceeds the 10**6 trial-division limit
    cases = {
        1000003 * 1000033: ((1000003, 1), (1000033, 1)),
        1000003**2: ((1000003, 2),),
        999999937 * 1000000007: ((999999937, 1), (1000000007, 1)),
        999999937 * 999999929: ((999999929, 1), (999999937, 1)),
        -1000036000099: ((1000003, 1), (1000033, 1)),
        2 * 3**2 * 1000003 * 1000033: ((2, 1), (3, 2), (1000003, 1), (1000033, 1)),
        999999999999999989: ((999999999999999989, 1),),
    }
    for n, factors in cases.items():
        fi = factorize(n)
        assert fi.factors == factors, n
        assert fi.value() == n


def test_factorize_rejects_zero_and_huge():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**18 + 1)


def test_factored_int_validation():
    with pytest.raises(ValueError):
        FactoredInt(1, ((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        FactoredInt(1, ((2, 0),))
    with pytest.raises(ValueError):
        FactoredInt(2, ())


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(999983)
    assert is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(999983 * 999979)


def test_squarefree_decompose():
    assert squarefree_decompose(-192) == (8, -3)
    assert squarefree_decompose(80) == (4, 5)
    assert squarefree_decompose(-3) == (1, -3)
    assert squarefree_decompose(36) == (6, 1)
    for n in range(2, 500):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        assert is_squarefree(d) or d == 1


def test_factorize_cache_is_bounded():
    # a long-lived process asks for many distinct values; the cache must not
    # keep them all
    limit = factorize.cache_info().maxsize
    assert limit is not None
    for n in range(2, 2 + 2 * limit):
        factorize(n)
    assert factorize.cache_info().currsize <= limit


def _oracle_inputs(rng, sympy):
    """Seeded inputs that reach every branch of factorize: cofactors p*q and
    p**2 past the trial limit, a prime above 10**12 after small ones, negative
    values and values at the 10**18 bound, plus small values. Each value past
    the trial limit costs a full trial division, so there are four."""

    def big_prime(lo, hi):
        return sympy.nextprime(rng.randrange(lo, hi))

    p, q, r = (big_prime(10**6, 10**8) for _ in range(3))
    small = 1
    while (s := rng.choice((2, 3, 5, 7, 11, 13, 97, 997))) * small <= 10**6:
        small *= s
    # the largest prime that keeps small * large within 10**18
    large = sympy.prevprime(10**18 // small + 1)
    near = 10**18 - rng.randrange(1, 1000)
    values = [p * q, -(r**2), small * large, -near, 10**18, -(10**18)]
    values += [rng.choice((1, -1)) * rng.randrange(2, 10**6) for _ in range(200)]
    return values


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(60611)
    for n in _oracle_inputs(rng, sympy):
        fi = factorize(n)
        assert fi.sign == (-1 if n < 0 else 1), n
        assert fi.factors == tuple(sorted(sympy.factorint(abs(n)).items())), n
