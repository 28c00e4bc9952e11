import math
import random

import pytest

from cmparity import (
    NotRealJError,
    RatMatrix2,
    TauExact,
    axis_curve,
    f_curve,
    is_real_j,
    j_numeric,
    moebius,
    reduce_fundamental,
    t_representative,
)
from cmparity.modular import TPoint

from conftest import random_tau, random_unimodular

SEED = 90210

# class-number-one discriminants and their integral j-invariants
INTEGER_J = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -12: 54000,
    -16: 287496,
    -19: -884736,
    -27: -12288000,
    -28: 16581375,
    -43: -884736000,
}


def tau_of_disc(disc):
    """Reduced point of the principal form of the given discriminant."""
    if disc % 2:
        return TauExact(1, -1, (1 - disc) // 4)
    return TauExact(1, 0, -disc // 4)


def test_special_values():
    assert abs(j_numeric(1j) - 1728) < 1e-6
    assert abs(j_numeric(complex(0.5, math.sqrt(3) / 2))) < 1e-6
    assert abs(j_numeric(complex(0.5, math.sqrt(7) / 2)) + 3375) < 1e-3


def test_integer_j_for_class_number_one():
    # integrality is the oracle: each value must round to the known integer
    for disc, expected in INTEGER_J.items():
        j = j_numeric(complex(tau_of_disc(disc)))
        assert abs(j.imag) < 1e-6 * (1 + abs(j))
        assert abs(j.real - expected) < 1e-6 * (1 + abs(expected)), disc


def test_j_rejects_bad_points():
    with pytest.raises(ValueError):
        j_numeric(complex(0.3, -1.0))
    with pytest.raises(ValueError):
        j_numeric(complex(0.1, 0.0))
    with pytest.raises(ValueError):
        j_numeric(complex(math.nan, 1.0))


def test_j_deep_cusp_overflow():
    # line points overflow to -inf with exactly real value; axis points to +inf
    j = j_numeric(complex(0.5, 400.0))
    assert j.real == -math.inf and j.imag == 0.0
    j = j_numeric(complex(0.0, 400.0))
    assert j.real == math.inf and j.imag == 0.0
    # just below the double limit the asymptotic branch stays finite
    j = j_numeric(complex(0.5, 100.0))
    assert j.real == -math.exp(2 * math.pi * 100.0)


def test_reduce_fundamental_examples():
    reduced, mat = reduce_fundamental(TauExact(1, -3, 3))
    assert reduced == TauExact(1, -1, 1)
    assert mat == ((1, -1), (0, 1))
    reduced, mat = reduce_fundamental(TauExact(25, 0, 9))
    assert reduced == TauExact(9, 0, 25)
    assert mat == ((0, -1), (1, 0))
    reduced, mat = reduce_fundamental(TauExact(1, 0, 1))
    assert reduced == TauExact(1, 0, 1)
    assert mat == ((1, 0), (0, 1))


def test_reduce_fundamental_matrix_transports_point():
    rng = random.Random(SEED)
    for _ in range(100):
        t = random_tau(rng, bound=80)
        reduced, ((p, q), (r, s)) = reduce_fundamental(t)
        assert p * s - q * r == 1
        assert abs(reduced.b) <= reduced.a <= reduced.c
        assert reduced.disc == t.disc
        assert moebius(RatMatrix2.from_ints(p, q, r, s), t) == reduced


def test_is_real_j_examples():
    assert is_real_j(TauExact(1, 0, 1)) is True
    assert is_real_j(TauExact(3, -3, 2)) is True
    assert is_real_j(TauExact(3, 1, 5)) is False  # class number 3, generic class


def test_is_real_j_more_classes():
    # disc -23 has class number 3: principal real, others not
    assert is_real_j(TauExact(1, -1, 6)) is True
    assert is_real_j(TauExact(2, 1, 3)) is False
    assert is_real_j(TauExact(2, -1, 3)) is False


# reduced, not ambiguous, and far up the cusp: Im j / |j| is about 3e-7 and 3e-9
# for the first two; the others lie above the height where j overflows doubles,
# the last three with real part within 5e-14 of 0 or 1/2 (Im j / |j| down to 3e-15)
HUGE_NON_REAL = [
    (10000019, 1, 20000000001),
    (10**9 + 7, 1, 10**12),
    (2, 1, 10**6),
    (10**13, 1, 10**18),
    (10**15, 1, 10**20),
    (10**15, -(10**15 - 1), 10**20),
]
# reduced and ambiguous above the overflow height: j is real, on either branch
HUGE_REAL = [(1, 0, 10**6), (1, -1, 10**6), (10**13, 0, 10**18), (10**13, -10**13, 10**18)]
# 50 digits leave Im j / |j| below 1e-50 on real points and resolve the
# smallest non-real ratio above (3e-15) exactly; this splits the two
MPMATH_REAL_RATIO = 1e-30


def mpmath_im_ratio(a, b, c):
    """|Im j| / |j| at the point of the triple, from mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        tau = mpmath.mpc(mpmath.mpf(-b) / (2 * a), mpmath.sqrt(4 * a * c - b * b) / (2 * a))
        j = 1728 * mpmath.kleinj(tau)
        return abs(j.imag) / abs(j)


@pytest.mark.parametrize("triple", HUGE_NON_REAL)
def test_is_real_j_huge_points_are_not_real(triple):
    # |j| is about 1e122 and 1e86 for the first two, where a tolerance relative
    # to |j| would call j real; for the others Im j overflows to infinity
    assert is_real_j(TauExact(*triple)) is False


@pytest.mark.parametrize("triple", HUGE_NON_REAL)
def test_is_real_j_huge_points_against_mpmath(triple):
    assert mpmath_im_ratio(*triple) > MPMATH_REAL_RATIO
    assert is_real_j(TauExact(*triple)) is False


@pytest.mark.parametrize("triple", HUGE_REAL)
def test_is_real_j_huge_ambiguous_points_are_real(triple):
    assert is_real_j(TauExact(*triple)) is True
    assert mpmath_im_ratio(*triple) < MPMATH_REAL_RATIO


def test_t_representative_examples():
    rep = t_representative(TauExact(1, 0, 1))
    assert rep.branch == "T1" and rep.t == 1.0
    rep = t_representative(TauExact(1, -1, 1))
    assert rep.branch == "T2" and abs(rep.t - math.sqrt(3) / 2) < 1e-9
    rep = t_representative(TauExact(1, 0, 2))
    assert rep.branch == "T1" and abs(rep.t - math.sqrt(2)) < 1e-9


def test_t_representative_rejects_non_real():
    with pytest.raises(NotRealJError):
        t_representative(TauExact(3, 1, 5))


def test_t_representative_round_trip():
    for t in (TauExact(1, -1, 4), TauExact(2, -1, 2), TauExact(1, 0, 6), TauExact(3, -3, 4)):
        rep = t_representative(t)
        target = j_numeric(complex(t))
        again = j_numeric(complex(rep))
        assert abs(again - target) < 1e-6 * (1 + abs(target))


def test_f_curve_values():
    assert abs(f_curve(0.5) - 1728) < 1e-6
    assert abs(f_curve(math.sqrt(3) / 2)) < 1e-6
    assert abs(f_curve(math.sqrt(15) / 2) + 191657.8328625) < 1e-2
    with pytest.raises(ValueError):
        f_curve(0.49)


def test_f_curve_strictly_decreasing():
    ts = [0.51 + 0.01 * k for k in range(450)]
    values = [f_curve(t) for t in ts]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v < 1728 for v in values)


def test_axis_curve_strictly_increasing():
    ts = [1.0 + 0.05 * k for k in range(81)]
    values = [axis_curve(t) for t in ts]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert abs(values[0] - 1728) < 1e-6
    assert all(v >= 1728 - 1e-6 for v in values)


def test_sl2_invariance():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        m = random_unimodular(rng)
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(1.0, 3.0)
        tau = complex(x, y)
        a, b, c, d = (int(v) for v in m.entries())
        moved = (a * tau + b) / (c * tau + d)
        j0, j1 = j_numeric(tau), j_numeric(moved)
        assert abs(j1 - j0) <= 1e-8 * max(1.0, abs(j0))


def test_tpoint_validation():
    with pytest.raises(ValueError):
        TPoint("T1", 0.9)
    with pytest.raises(ValueError):
        TPoint("T2", 0.5)
    with pytest.raises(ValueError):
        TPoint("T3", 2.0)
    assert complex(TPoint("T2", 1.5)) == complex(0.5, 1.5)
