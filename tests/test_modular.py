import cmath
import math
import random

import pytest

from cmparity import (
    InternalCheckError,
    NotRealJError,
    RatMatrix2,
    TauExact,
    axis_curve,
    f_curve,
    is_real_j,
    j_numeric,
    j_of_tau,
    moebius,
    reduce_fundamental,
    t_representative,
)
from cmparity import modular
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
    -67: -147197952000,
    -163: -262537412640768000,
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


def test_j_of_tau_integer_values_are_real():
    # ambiguous forms go to floats as locus points, where q is real: Im j is
    # exactly 0, and the value is the integer to 1e-9 relative; an unreduced
    # triple of the same point (moved by tau -> -1/(tau + 3)) gives the same j
    for disc, expected in INTEGER_J.items():
        tau = tau_of_disc(disc)
        j = j_of_tau(tau)
        assert j.imag == 0.0, disc
        assert abs(j.real - expected) <= 1e-9 * max(1, abs(expected)), disc
        moved = moebius(RatMatrix2(0, -1, 1, 3), tau)
        assert moved != tau and j_of_tau(moved) == j, disc


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
    # 2*pi*Im z between 709 and log(DBL_MAX) = 709.78: still finite
    j = j_numeric(complex(0.5, 709.5 / (2 * math.pi)))
    assert j.real == -math.exp(709.5) and math.isfinite(j.imag)
    # off the locus each component is finite while it fits a double, even
    # when exp(2*pi*Im z) alone does not
    grow, cos_t = 710.5, math.cos(2 * math.pi * 0.2)
    j = j_numeric(complex(0.2, grow / (2 * math.pi)))
    assert j.real == pytest.approx(math.exp(grow + math.log(cos_t)), rel=1e-12)
    assert j.imag == -math.inf
    # once 2*pi*Im z is itself infinite, the same signed infinities and zeros
    # as at the finite heights 1e306 and 300
    for re_z, expected in ((0.0, (math.inf, 0.0)), (0.5, (-math.inf, 0.0)), (0.25, (0.0, -math.inf))):
        for im_z in (1e308, 1e306, 300.0):
            j = j_numeric(complex(re_z, im_z))
            assert (j.real, j.imag) == expected, (re_z, im_z)


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
        assert moebius(RatMatrix2(p, q, r, s), t) == reduced


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


def mpmath_tau(mpmath, a, b, c):
    """The point of the triple at mpmath's working precision."""
    return mpmath.mpc(mpmath.mpf(-b) / (2 * a), mpmath.sqrt(4 * a * c - b * b) / (2 * a))


def mpmath_im_ratio(a, b, c):
    """|Im j| / |j| at the point of the triple, from mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        j = 1728 * mpmath.kleinj(mpmath_tau(mpmath, a, b, c))
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


# the locus point of each HUGE_REAL triple; every ratio is an integer there
HUGE_REAL_LOCUS = [
    TPoint("T1", 1000.0),
    TPoint("T2", math.sqrt(3999999) / 2),
    TPoint("T1", math.sqrt(10**5)),
    TPoint("T2", math.sqrt(399999) / 2),
]


@pytest.mark.parametrize("triple, expected", zip(HUGE_REAL, HUGE_REAL_LOCUS))
def test_t_representative_huge_real_points(triple, expected):
    # j overflows doubles on all four, so j alone cannot place the point
    assert t_representative(TauExact(*triple)) == expected


def test_t_representative_arc_points_next_to_i():
    # j is just below 1728: the point is on the line, not at the junction (T1, 1)
    rep = t_representative(TauExact(10**6, 1, 10**6))
    assert rep.branch == "T2" and rep.t == pytest.approx(0.50000025, rel=1e-12)
    # t is within half an ulp of 1/2, which branch T2 excludes
    assert t_representative(TauExact(10**16, 1, 10**16)) == TPoint("T2", math.nextafter(0.5, 1.0))


def test_t_representative_of_large_unreduced_triple():
    # the float point of this triple loses digits in the numeric reduction; t
    # follows the exact reduction to (47, -47, 542), where t = sqrt(2121/47)/2
    moved = TauExact(57283960024952, -37747546504261, 6218482741376)
    assert reduce_fundamental(moved)[0] == TauExact(47, -47, 542)
    assert t_representative(moved) == TPoint("T2", math.sqrt(2121 / 47) / 2)


@pytest.mark.parametrize(
    "triple, branch_value",
    [
        ((1, 0, 2), math.nan),
        ((1, 0, 2), math.inf),
        ((1, 0, 10**6), -math.inf),
        ((1, 0, 10**6), math.nan),
    ],
)
def test_t_representative_cross_check_rejects_disagreement(monkeypatch, triple, branch_value):
    # j is finite at (1, 0, 2) and +inf at (1, 0, 10**6); only equal
    # infinities or values within the tolerance agree, and NaN never does
    monkeypatch.setattr(modular, "axis_curve", lambda t: branch_value)
    with pytest.raises(InternalCheckError):
        t_representative(TauExact(*triple))


def ambiguous_reduced_triples(bound):
    """Every primitive reduced triple with a < bound and b = 0, b = -a or
    a = c; on the axis and the line, c runs over a, ..., a + 39."""
    for a in range(1, bound):
        for b in range(-a, a):
            for c in range(a, a + 40) if b in (0, -a) else (a,):
                if math.gcd(math.gcd(a, b), c) == 1:
                    yield a, b, c


def mpmath_locus_t(mpmath, a, b, c):
    """Im of the locus point of a reduced ambiguous triple: tau itself on the
    axis and the line; for an arc point, z/(z + 1) with z the arc point of
    real part <= 0, which that map carries onto the line."""
    if b in (0, -a):
        return mpmath_tau(mpmath, a, b, c).imag
    z = mpmath_tau(mpmath, a, abs(b), c)
    z = z / (z + 1)
    assert abs(z.real - mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -35
    return z.imag


def test_t_representative_against_mpmath_grid():
    mpmath = pytest.importorskip("mpmath")
    count = 0
    with mpmath.workdps(40):
        for a, b, c in ambiguous_reduced_triples(80):
            rep = t_representative(TauExact(a, b, c))
            assert rep.branch == ("T1" if b == 0 else "T2"), (a, b, c)
            exact = mpmath_locus_t(mpmath, a, b, c)
            assert abs(mpmath.mpf(rep.t) - exact) <= 2 * math.ulp(rep.t), (a, b, c)
            count += 1
    assert count > 5000


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


@pytest.mark.parametrize("curve, real_part, t0", [(axis_curve, 0, 1.0), (f_curve, 0.5, 0.5)])
def test_branch_curves_against_mpmath(curve, real_part, t0):
    # relative to max(1, |j|), since the line branch crosses 0 at sqrt(3)/2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for k in range(301):
            t = t0 + (84.0 - t0) * k / 300
            exact = 1728 * mpmath.kleinj(mpmath.mpc(real_part, t))
            err = abs(mpmath.mpf(curve(t)) - exact.real) / max(1, abs(exact.real))
            assert err <= 1e-12, (t, curve(t), exact.real)


def test_branch_curves_overflow_to_signed_infinity():
    assert axis_curve(115.0) == math.inf
    assert f_curve(115.0) == -math.inf


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


# The two series loops that _j_series replaced, kept as the reference for its
# output: the fused loop must give the same double, bit for bit.
def _reference_eisenstein4(q):
    sigma3 = modular._sigma3_table(modular.SERIES_MAX_TERMS)
    total = 1.0
    qn = 1.0
    for n in range(1, modular.SERIES_MAX_TERMS + 1):
        qn *= q
        term = 240.0 * sigma3[n] * qn
        total += term
        if abs(term) < modular.SERIES_CUTOFF * abs(total):
            break
    return total


def _reference_eta_factor(q):
    prod = 1.0
    qn = 1.0
    for _ in range(modular.SERIES_MAX_TERMS):
        qn *= q
        prod *= 1.0 - qn
        if abs(qn) < modular.SERIES_CUTOFF * abs(prod):
            break
    return prod


def _reference_j_series(q):
    return _reference_eisenstein4(q) ** 3 / (q * _reference_eta_factor(q) ** 24)


def test_j_series_equals_two_loop_reference_on_real_q():
    rng = random.Random(SEED + 2)
    half, arc = 0.5, math.sqrt(3) / 2
    ts = [0.5 + k * (80.0 - 0.5) / 4000 for k in range(1, 4001)]
    ts += [rng.uniform(0.5, 80.0) for _ in range(4000)]
    for d in (1e-15, 1e-12, 1e-9):
        ts += [half + d, arc - d, arc + d, 1.0 - d, 1.0 + d]
    ts += [arc, 1.0, math.nextafter(0.5, 1.0), 80.0]
    for t in ts:
        for sign in (1.0, -1.0):
            q = sign * math.exp(-2.0 * math.pi * t)
            assert modular._j_series(q) == _reference_j_series(q), (sign, t)


def test_j_series_equals_two_loop_reference_on_complex_q():
    rng = random.Random(SEED + 3)
    points = [
        complex(0.5, math.sqrt(3) / 2),  # rho
        complex(-0.5, math.sqrt(3) / 2),
        1j,
        complex(1e-9, 1.0),  # next to i, on and off the arc
        complex(-1e-9, 1.0 + 1e-9),
        complex(1e-12, 1.0),
        complex(0.5 - 1e-9, math.sqrt(3) / 2 + 1e-9),  # next to rho
    ]
    for _ in range(2000):  # the unit arc
        x = rng.uniform(-0.5, 0.5)
        points.append(complex(x, math.sqrt(1.0 - x * x)))
    for _ in range(3000):  # the rest of the reduced domain, below the cusp height
        x = rng.uniform(-0.5, 0.5)
        points.append(complex(x, rng.uniform(math.sqrt(1.0 - x * x), 80.0)))
    for x in (0.0, -0.5, 0.5):  # the axis and the line
        points += [complex(x, rng.uniform(1.0, 80.0)) for _ in range(200)]
    for z in points:
        q = cmath.exp(2j * math.pi * z)
        assert modular._j_series(q) == _reference_j_series(q), z


# Known faults of the numeric real-j check (ROADMAP, certified real-j
# decision): j' vanishes at i and at rho, so next to them the true Im j is
# below the float error of j, and the numeric route calls j real while the
# form says not; past the overflow height the float -b/(2a) can round to 1/2,
# so the cusp phase reads pi and Im j reads 0. Each raises InternalCheckError
# today; a certified decision turns these into passes.
KNOWN_REAL_J_FAULT = "numeric real-j check disagrees with the form criterion"


@pytest.mark.xfail(strict=True, raises=InternalCheckError, reason=KNOWN_REAL_J_FAULT)
@pytest.mark.parametrize(
    "triple",
    [
        (10**9, -1, 10**9 + 1),  # next to i
        (10**6, 10**6 - 1, 10**6 + 1),  # next to rho
        (10**16, -(10**16 - 1), 10**21),  # Re tau rounds to 1/2 above the overflow height
    ],
)
def test_is_real_j_non_ambiguous_points_next_to_fixed_points(triple):
    assert is_real_j(TauExact(*triple)) is False
