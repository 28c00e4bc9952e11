"""Numerical modular j-invariant and the real-j locus.

j is evaluated from q-expansions after reducing the point to the standard
fundamental domain, where |q| <= exp(-pi*sqrt(3)) makes the series converge in
a handful of terms. The real-j locus splits into two branches, the imaginary
axis from i upward (j >= 1728, increasing) and the vertical line at real part
1/2 (j < 1728, decreasing).

A CM point has real j exactly when its reduced form is ambiguous, and then it
lies on the axis, on the line, or on the unit arc, which z -> z/(z + 1) carries
onto the line below the fundamental domain (imaginary part between 1/2 and
sqrt(3)/2). So the locus point with the same j is read off the reduced triple
in closed form, with one int division and one square root in floats.

`j_of_tau` is the one place where an exact point becomes a float. It
Gauss-reduces the triple on the integers first. An ambiguous form then goes
to floats only as the height t of that locus point, and the series is summed
at the real q = exp(-2*pi*t) on the axis or -exp(-2*pi*t) on the line, so Im
j is exactly 0; the arc's line points have t > 1/2, where |q| < exp(-pi) and
the series still converges. Any other form goes to j_numeric as its exactly
reduced point, with the complex q = exp(2*pi*i*z).

Both kinds of q go through one loop. It sums E4 and the eta product over
the same powers q^n, and it stops once each has met its own stop test.
Running either one past its own stop cannot change a bit of it. Every q
here has |q| <= exp(-pi), so each E4 term is below 0.4 times the one
before, and a term under SERIES_CUTOFF = 1e-20 of the sum is far below half
an ulp. Past the product's stop, 1.0 - q^n has real part exactly 1.0, and
its imaginary part moves that of the product by about n*|q|^(n-1) < 1e-18
relative, also far below half an ulp.

Above the cusp height only 1/q + 744 is kept, and a component of j is
infinite only past the double range: when 2*pi*Im z plus the log of the
component's phase factor exceeds log(DBL_MAX) = 709.78.

The branch functions axis_curve and f_curve sum the real q at a height t, so
t_representative's residual check compares two independent routes: the real
q at the form's t, as in j_of_tau, and the complex q at the reduced point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

from .cmpoints import TauExact
from .errors import InternalCheckError, NotRealJError

SERIES_CUTOFF = 1e-20  # stop when the next term is this small vs the partial sum
SERIES_MAX_TERMS = 64
# Float error of j at an exactly reduced point, for the numeric real-j check.
# The point's real part -b/(2a) is off by a few ulps, which turns the phase of
# q = exp(2*pi*i*z) by about 2*pi*|delta Re z| and so moves Im j by that much
# relative to |j|; RE_Z_ERR bounds |delta Re z| with room for the series' own
# rounding (at most 2e-14 relative on ambiguous forms with a up to 1e12).
# REAL_J_ABS_TOL covers j near 0, where a relative bound vanishes.
RE_Z_ERR = 1e-13
REAL_J_ABS_TOL = 1e-12
BRANCH_RESIDUAL_TOL = 1e-6

J_SPLIT = 1728.0  # branch junction value j(i)

# beyond this height the tail after 1/q + 744 is below double precision
_CUSP_HEIGHT = 80.0


def _sigma3_table(limit: int) -> list[int]:
    sig = [0] * (limit + 1)
    for d in range(1, limit + 1):
        cube = d * d * d
        for n in range(d, limit + 1, d):
            sig[n] += cube
    return sig


# 240*sigma3(n) for n = 1..SERIES_MAX_TERMS, each exact: below 2**53
_E4_COEFFS = [240.0 * s for s in _sigma3_table(SERIES_MAX_TERMS)[1:]]


@dataclass(frozen=True)
class TPoint:
    """A point of the real-j locus: branch T1 is i*t with t >= 1, branch T2 is
    1/2 + i*t with t > 1/2."""

    branch: Literal["T1", "T2"]
    t: float

    def __post_init__(self):
        if self.branch == "T1":
            if self.t < 1.0 - 1e-12:
                raise ValueError("branch T1 needs t >= 1")
        elif self.branch == "T2":
            if self.t <= 0.5:
                raise ValueError("branch T2 needs t > 1/2")
        else:
            raise ValueError("branch must be 'T1' or 'T2'")

    def __complex__(self) -> complex:
        if self.branch == "T1":
            return complex(0.0, self.t)
        return complex(0.5, self.t)


def _reduce_numeric(z: complex) -> complex:
    for _ in range(256):
        shift = math.floor(z.real + 0.5)
        if shift:
            z = complex(z.real - shift, z.imag)
        if z.real * z.real + z.imag * z.imag < 1.0 - 1e-15:
            z = -1.0 / z
        else:
            return z
    raise InternalCheckError("fundamental-domain reduction did not converge")


def _j_series(q: complex) -> complex:
    """j = E4^3 / Delta from the q-expansions, for a real or a complex q.

    One loop sums E4 = 1 + 240*sum(sigma3(n) q^n) and the eta product
    prod(1 - q^n), whose 24th power times q is Delta, over the same powers
    q^n; starting from 1.0 keeps a real q real. It stops when the E4 term
    and q^n are both below SERIES_CUTOFF times their partial results.
    """
    e4 = prod = qn = 1.0
    for coeff in _E4_COEFFS:
        qn *= q
        term = coeff * qn
        e4 += term
        prod *= 1.0 - qn
        if abs(term) < SERIES_CUTOFF * abs(e4) and abs(qn) < SERIES_CUTOFF * abs(prod):
            break
    return e4**3 / (q * prod**24)


def _past_range(grow: float, factor: float, theta: float) -> float:
    """factor * exp(grow) when exp(grow) itself overflows a double: finite
    while the product is, else the infinity of factor's sign.

    A factor within the rounding of the phase theta (sin(fl(pi)) is about
    1.2e-16) counts as vanishing, so a point on the real-j locus keeps an
    exactly zero component instead of rounding noise times a huge value; a
    point just off the locus keeps its component.
    """
    if abs(factor) <= abs(theta) * 2.0**-52:
        return 0.0
    try:
        return math.copysign(math.exp(grow + math.log(abs(factor))), factor)
    except OverflowError:
        return math.copysign(math.inf, factor)


def _j_cusp_asymptotic(z: complex) -> complex:
    """Leading behavior 1/q + 744 for reduced points above _CUSP_HEIGHT, where
    the remaining tail is far below double precision."""
    theta = -2.0 * math.pi * z.real
    grow = 2.0 * math.pi * z.imag
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    try:
        mag = math.exp(grow)
    except OverflowError:
        mag = math.inf
    # exp(inf) is inf without an OverflowError, once 2*pi*Im z itself overflows
    if mag == math.inf:
        return complex(_past_range(grow, cos_t, theta), _past_range(grow, sin_t, theta))
    return complex(mag * cos_t + 744.0, mag * sin_t)


def _j_locus(sign: float, t: float) -> float:
    """j at the real-locus point of height t from the real q = sign*exp(-2*pi*t):
    sign is 1 on the axis (real part 0) and -1 on the line (real part 1/2)."""
    if t > _CUSP_HEIGHT:  # cos(0) = 1 and cos(-pi) = -1 exactly: sign*exp(2*pi*t) + 744
        return _j_cusp_asymptotic(complex(0.0 if sign > 0 else 0.5, t)).real
    return _j_series(sign * math.exp(-2.0 * math.pi * t))


def j_numeric(tau: complex) -> complex:
    """j at a numeric upper-half-plane point, to ~1e-9 relative accuracy.

    Reduces to the fundamental domain first; evaluating the raw series at
    small imaginary part would lose everything. Values beyond the double
    range round to signed infinities (the cusp is a pole).
    """
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError("point must have finite coordinates")
    if tau.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    z = _reduce_numeric(tau)
    if z.imag > _CUSP_HEIGHT:
        return _j_cusp_asymptotic(z)
    return _j_series(cmath.exp(2j * math.pi * z))


def _gauss_reduce(a: int, b: int, c: int) -> tuple[int, int, int, tuple[int, int, int, int]]:
    """The reduced triple of (a, b, c) and the entries (p, q, r, s) of the
    unimodular matrix that carries the point there, all on the integers."""
    # rows of the accumulated matrix, reduced = ((p, q), (r, s)) applied to tau
    p, q, r, s = 1, 0, 0, 1
    while True:
        shift = (b + a) // (2 * a)  # tau -> tau + shift brings b into [-a, a)
        if shift:
            b, c = b - 2 * a * shift, a * shift * shift - b * shift + c
            p, q = p + shift * r, q + shift * s
        if a > c:
            a, b, c = c, -b, a  # tau -> -1/tau
            p, q, r, s = -r, -s, p, q
        else:
            break
    if not (abs(b) <= a <= c):
        raise InternalCheckError("reduction postcondition failed")
    return a, b, c, (p, q, r, s)


def reduce_fundamental(t: TauExact) -> tuple[TauExact, tuple[tuple[int, int], tuple[int, int]]]:
    """Gauss-reduce the triple to |b| <= a <= c and return the unimodular
    matrix ((p, q), (r, s)) with reduced = (p*tau + q)/(r*tau + s).

    Translation normalizes b into [-a, a), i.e. real part into (-1/2, 1/2];
    the swap step inverts when a > c. j is unchanged throughout.
    """
    a, b, c, (p, q, r, s) = _gauss_reduce(t.a, t.b, t.c)
    return TauExact(a, b, c), ((p, q), (r, s))


def _is_ambiguous(a: int, b: int, c: int) -> bool:
    """Whether the reduced triple is ambiguous, i.e. j is real."""
    return b == 0 or b == -a or a == c


def _locus_point(a: int, b: int, c: int) -> tuple[str, float]:
    """Branch and height t of the real-locus point of a reduced ambiguous
    triple (see t_representative)."""
    if b == 0:
        return "T1", math.sqrt(c / a)
    if b == -a:
        return "T2", 0.5 * math.sqrt((4 * c - a) / a)
    # t rounds to 1/2 when a = c is about 2**51 or more and |b| is small
    arc = 0.5 * math.sqrt((2 * a + abs(b)) / (2 * a - abs(b)))
    return "T2", max(arc, math.nextafter(0.5, 1.0))


def j_of_tau(t: TauExact) -> complex:
    """j at an exact point: the one place where an exact point becomes a float.

    The triple is reduced on the integers first. An ambiguous reduced form
    goes to floats as the height t of its real-locus point, and the series is
    summed at the real q = +-exp(-2*pi*t) (+ on the axis, - on the line), so
    Im j is exactly 0; any other form goes to j_numeric as its reduced point.
    """
    a, b, c, _ = _gauss_reduce(t.a, t.b, t.c)
    if _is_ambiguous(a, b, c):
        branch, height = _locus_point(a, b, c)
        return complex(_j_locus(1.0 if branch == "T1" else -1.0, height), 0.0)
    return j_numeric(complex(-b / (2 * a), math.sqrt(4 * a * c - b * b) / (2 * a)))


def fmt_float(x: float) -> str:
    """A float at 12 significant digits, as every report and command prints it."""
    return format(x, ".12g")


def _json_float(x: float) -> float:
    """A float as JSON records carry it: the value fmt_float prints."""
    return float(fmt_float(x))


def _reduced_j(t: TauExact) -> tuple[TauExact, bool, complex]:
    """The reduced triple, whether j is real, and j at the reduced point.

    The form criterion (the reduced triple is ambiguous: b = 0, |b| = a, or
    a = c) is double-checked numerically rather than trusted alone: j is
    evaluated by j_numeric, with the complex q at the reduced point and not
    by the real-q route of j_of_tau, and counts as real when |Im j| is within
    the float error of that point. Above the overflow height the cusp
    expansion gives Im j as exactly zero or infinite, and infinite is not
    real.
    """
    reduced, _ = reduce_fundamental(t)
    by_form = _is_ambiguous(reduced.a, reduced.b, reduced.c)
    j = j_numeric(complex(reduced))
    by_value = j.imag == 0.0 or (
        math.isfinite(j.imag)
        and abs(j.imag) <= REAL_J_ABS_TOL + 2.0 * math.pi * RE_Z_ERR * abs(j)
    )
    if by_form != by_value:
        raise InternalCheckError(
            f"form criterion ({by_form}) and numeric criterion ({by_value}) "
            f"disagree for {t}: j = {j}"
        )
    return reduced, by_form, j


def is_real_j(t: TauExact) -> bool:
    """Whether j(tau) is real: the reduced triple is ambiguous, confirmed by
    the value of j at the reduced point."""
    return _reduced_j(t)[1]


def axis_curve(t: float) -> float:
    """j(i*t) for t >= 1, from the real q = exp(-2*pi*t); strictly increasing
    with value 1728 at t = 1."""
    if t < 1.0 - 1e-12:
        raise ValueError("axis branch needs t >= 1")
    return _j_locus(1.0, t)


def f_curve(t: float) -> float:
    """j(1/2 + i*t) for t >= 1/2, from the real q = -exp(-2*pi*t); strictly
    decreasing from f(1/2) = 1728."""
    if t < 0.5:
        raise ValueError("line branch needs t >= 1/2")
    return _j_locus(-1.0, t)


def t_representative(t: TauExact) -> TPoint:
    """Locate the unique real-locus point with the same j as tau.

    The point is read off the reduced triple (a, b, c), b in [-a, a). If b = 0,
    tau is i*sqrt(c/a) on the axis (branch T1, so j = 1728 maps to (T1, 1)).
    If b = -a, tau is 1/2 + i*sqrt((4c - a)/a)/2 on the line. Otherwise a = c
    puts tau on the unit arc, which z -> z/(z + 1) carries to the line point
    1/2 + i*sqrt((2a + |b|)/(2a - |b|))/2. Each ratio is an int true division,
    correctly rounded however large the triple. Two independent routes to j
    are then compared: the branch function at the result, summed at the real
    q as j_of_tau does for this form, and j_numeric with the complex q at the
    exactly reduced point.

    Reduces once and evaluates j at the reduced point once, for both the
    real-j test and that check.
    """
    reduced, real, j = _reduced_j(t)
    if not real:
        raise NotRealJError(f"{t} does not have a real j-invariant")
    result = TPoint(*_locus_point(reduced.a, reduced.b, reduced.c))
    target = j.real
    on_branch = axis_curve(result.t) if result.branch == "T1" else f_curve(result.t)
    # equal infinities agree; NaN, or an infinity against anything else, fails
    if on_branch != target and not (
        math.isfinite(target)
        and abs(on_branch - target) <= BRANCH_RESIDUAL_TOL * (1.0 + abs(target))
    ):
        raise InternalCheckError(
            f"branch value {on_branch} at {result} disagrees with j = {target} for {t}"
        )
    return result
