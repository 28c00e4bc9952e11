"""Shared sampling helpers; every randomized test records its seed here or
locally so reruns are bit-identical."""

import math
import random
from fractions import Fraction

from cmparity import QuadElement, RatMatrix2, TauExact, in_odd_group


def random_tau(rng: random.Random, bound: int = 200) -> TauExact:
    """Uniform primitive triple with |a|, |b|, |c| <= bound and negative
    discriminant."""
    while True:
        a = rng.randint(1, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(1, bound)
        if b * b - 4 * a * c < 0:
            return TauExact(a, b, c)


def tau_from_element(z: QuadElement) -> TauExact:
    """Primitive triple of x + y*sqrt(d); requires d < 0 and y > 0."""
    if z.d.value >= 0 or z.y <= 0:
        raise ValueError("point must lie in the upper half-plane")
    # minimal polynomial X^2 - 2x*X + (x^2 - y^2 d), cleared to integers
    b = -2 * z.x
    c = z.x * z.x - z.y * z.y * z.d.value
    den = math.lcm(b.denominator, c.denominator)
    return TauExact(den, int(b * den), int(c * den))


def random_odd_matrix(
    rng: random.Random, numerator_bound: int = 40, denominator_bound: int = 15
) -> RatMatrix2:
    """Rejection-sample a matrix from the odd-denominator group: numerators up
    to the bound, odd denominators, positive determinant with odd numerator."""
    while True:
        m = RatMatrix2(
            *(
                Fraction(
                    rng.randint(-numerator_bound, numerator_bound),
                    rng.randrange(1, denominator_bound + 1, 2),
                )
                for _ in range(4)
            )
        )
        if in_odd_group(m):
            return m


def random_unimodular(rng: random.Random, steps: int = 8) -> RatMatrix2:
    """Random SL(2, Z) element as a word in translations and the inversion."""
    m = RatMatrix2(1, 0, 0, 1)
    s = RatMatrix2(0, -1, 1, 0)
    for _ in range(steps):
        k = rng.randint(-3, 3)
        m = m @ RatMatrix2(1, k, 0, 1)
        if rng.random() < 0.5:
            m = m @ s
    return m
