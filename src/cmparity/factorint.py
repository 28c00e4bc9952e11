"""Integer factorization utilities: trial division, Brent's rho and a
deterministic Miller-Rabin test.

Every n with 0 < |n| <= 10**18 is factored completely; anything larger is
rejected up front rather than allowed to grind. Trial division runs to
10**6; a cofactor left over is prime, the square of a prime, or the product
of two primes above 10**6, which a square root or Brent's rho splits.

Each value is factored once per process: `factorize` keeps its results in
one cache bounded at 128 entries. That cache serves every caller, so the
saturated divisors of `enumerate`, the orders that `order_of_tau` rebuilds
and the validation in `SquarefreeInt` all read the same `FactoredInt`, and
`squarefree_decompose` derives its answer from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .errors import InternalCheckError

MAX_INPUT = 10**18
_TRIAL_LIMIT = 1_000_000

# Deterministic witness set for n < 3.317e24 (covers MAX_INPUT with room).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer as sign * product(p**e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("prime factors must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n handled here (< 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of an odd composite n, by Brent's variant of Pollard's
    rho (R. P. Brent, BIT 20, 1980): iterate y -> y^2 + c mod n, take the gcd
    with n of a batch of |x - y| products at a time, and when the batch ends
    at n replay it one step at a time. A round that finds only n itself
    starts again with the next c."""
    batch = 128
    for c in count(1):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = math.gcd(product, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def _split_cofactor(m: int) -> list[tuple[int, int]]:
    """The prime factorization of m > 1, the cofactor left by trial division
    to _TRIAL_LIMIT: every prime factor of m exceeds that limit and m <=
    MAX_INPUT = _TRIAL_LIMIT**3, so m is p, p**2 or p*q."""
    if is_prime(m):
        return [(m, 1)]
    root = math.isqrt(m)
    if root * root == m:
        parts = [(root, 2)]
    else:
        p = _brent_factor(m)
        p, q = sorted((p, m // p))
        parts = [(p, 1), (q, 1)]
    if not all(is_prime(p) for p, _ in parts):
        raise InternalCheckError(f"cofactor {m} did not split into primes: {parts}")
    return parts


# One query asks for the same value several times (enumerate wants D's
# saturated divisors, then its order once per beta); bounded, so a
# long-lived process making many lookups does not grow with them.
@lru_cache(maxsize=128)
def factorize(n: int) -> FactoredInt:
    """Factor a nonzero integer with |n| <= 10**18."""
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) > MAX_INPUT:
        raise ValueError(f"|n| exceeds the supported bound {MAX_INPUT}")
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors: list[tuple[int, int]] = []

    def strip(p: int, m: int) -> int:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        return m

    m = strip(2, m)
    p = 3
    while p * p <= m and p <= _TRIAL_LIMIT:
        m = strip(p, m)
        p += 2
    if m > 1:
        factors += _split_cofactor(m)
    return FactoredInt(sign, tuple(factors))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree and sign(d) = sign(n); returns (s, d)."""
    fi = factorize(n)
    s = 1
    d = fi.sign
    for p, e in fi.factors:
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    s, _ = squarefree_decompose(n)
    return s == 1
