"""Integer factorization utilities: trial division plus a deterministic
Miller-Rabin check for large cofactors.

Inputs are desk-scale; anything with |n| > 10**18 is rejected up front rather
than allowed to grind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not is_prime(m):
            # composite cofactor with no prime factor below the trial bound
            raise ValueError(f"cannot factor cofactor {m} by trial division")
        factors.append((m, 1))
    return FactoredInt(sign, tuple(factors))


# Holds the repeats within one call (enumerate asks for the order of D once
# per beta, and SquarefreeInt checks d again); bounded, so a long-lived
# process making many lookups does not grow with them.
@lru_cache(maxsize=128)
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
