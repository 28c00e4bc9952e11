"""Saturated divisors and the list of real CM j-invariants of given odd
discriminant.

A divisor r of n is saturated when gcd(r, n/r) = 1; the positive ones are
exactly the products of full prime-power blocks of n, so there are
2**(number of prime divisors) of them. For a negative discriminant D = 1
(mod 4), each positive saturated divisor below sqrt(|D|) yields one CM point
1/2 + sqrt(D)/(2*beta) whose order has discriminant exactly D, and these
exhaust the real j-invariants with that endomorphism discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cmpoints import TauExact, _validate_halfint_disc, order_of_tau, parity_of_tau, tau_from_beta
from .errors import InternalCheckError
from .factorint import factorize
from .modular import j_of_tau
from .quadorders import Parity, order_discriminant

__all__ = [
    "CMClassPoint",
    "saturated_divisors",
    "count_saturated_below_sqrt",
    "enumerate_real_odd_cm",
    "min_j_gap",
]


@dataclass(frozen=True)
class CMClassPoint:
    """One real odd CM class: its saturated divisor, exact point, and j value."""

    beta: int
    tau: TauExact
    j_estimate: float


def saturated_divisors(n: int) -> list[int]:
    """Sorted positive divisors r of n with gcd(r, |n|/r) = 1.

    Built as products over subsets of the prime-power blocks of n; the count
    is always 2**(number of distinct primes).
    """
    fi = factorize(n)
    blocks = [p**e for p, e in fi.factors]
    divisors = [1]
    for block in blocks:
        divisors += [d * block for d in divisors]
    divisors.sort()
    if len(divisors) != 2 ** len(blocks):
        raise InternalCheckError("saturated divisor count mismatch")
    return divisors


def count_saturated_below_sqrt(n: int) -> int:
    """Number of positive saturated divisors r of n with r < sqrt(|n|), for
    negative n = 1 (mod 4); always exactly half of all of them."""
    _validate_halfint_disc(n)
    divisors = saturated_divisors(n)
    count = sum(1 for r in divisors if r * r < abs(n))
    if count != len(divisors) // 2:
        raise InternalCheckError(
            f"below-sqrt saturated divisor count {count} != half of {len(divisors)}"
        )
    return count


def enumerate_real_odd_cm(D: int) -> list[CMClassPoint]:
    """All real CM j-invariants whose order has discriminant exactly D.

    One point per positive saturated divisor beta of D below sqrt(|D|),
    ordered by beta. Every point is odd, has order discriminant D, and j
    strictly below 1728; the smallest j is attained at beta = 1 (the point of
    largest imaginary part), which is asserted rather than assumed.
    """
    _validate_halfint_disc(D)
    divisors = saturated_divisors(D)
    points: list[CMClassPoint] = []
    for beta in divisors:
        if beta * beta >= abs(D):
            continue
        tau = tau_from_beta(D, beta)
        order = order_of_tau(tau)
        if order_discriminant(order) != D:
            raise InternalCheckError(
                f"saturated beta={beta} gave discriminant "
                f"{order_discriminant(order)} instead of {D}"
            )
        if parity_of_tau(tau) is not Parity.ODD:
            raise InternalCheckError(f"point for beta={beta} is not odd")
        j = j_of_tau(tau)
        if not j.real < 1728.0:
            raise InternalCheckError(f"j({tau}) = {j} is not below 1728")
        points.append(CMClassPoint(beta, tau, j.real))

    expected = len(divisors) // 2
    if len(points) != expected:
        raise InternalCheckError(f"expected {expected} points, found {len(points)}")
    if min(points, key=lambda p: p.j_estimate).beta != 1:
        raise InternalCheckError("minimal j not attained at beta = 1")
    return points


def min_j_gap(points: list[CMClassPoint]) -> float:
    """Smallest pairwise gap among the j estimates; sanity metric, reported
    rather than asserted (beta-distinctness is the ground truth)."""
    if len(points) < 2:
        return math.inf
    js = sorted(p.j_estimate for p in points)
    return min(b - a for a, b in zip(js, js[1:]))
