"""Parity-preserving isogenous families and coverage reports of their
j-invariants.

Odd mode walks the family (1 + i*(m/n)*y)/2 over odd m, n: every member stays
odd and every j lands strictly below 1728, approaching it from below as the
denominator bound grows but never attaining it (the point with j = 1728 is
even). Even mode walks both branches of the real locus and produces values on
both sides of 1728; complex mode draws random matrices from the odd group and
scatters j over the plane. Density itself is not verifiable in finite time:
the reports substantiate it through strict bounds and monotone refinement.

The real families are built from the integers (m, n) directly: the filter
and the exact triple are integer expressions, with no rationals. A member
depends on the ratio m/n only, so its triple, its parity check and its j are
evaluated once per reduced ratio, and the other pairs with that ratio reuse
the j. One pass over the pairs does both, since a reduced ratio comes
before its multiples. Each row is a SamplePoint, a NamedTuple built
positionally, so a row costs little more than its label and its degree.

Every mode gets j from modular.j_of_tau: the triple is reduced on the
integers before it becomes a float, and a
real-family member, whose reduced form is ambiguous, is evaluated at a real q
on the locus, so its Im j is exactly 0. A component of j is infinite only
past the double range: when 2*pi*Im z at the reduced point, plus the log of
the component's phase factor, exceeds log(DBL_MAX) = 709.78; such a value,
like any value whose quotient by the bin width overflows, gets no bin.

Complex mode draws each matrix as integer (numerator, denominator) pairs,
read off the seeded generator's raw bits, and decides odd-group membership
on those integers; about one draw in 5.4 is kept, and only a kept draw
becomes a RatMatrix2. It moves the base point once, inside odd_isogeny,
by the integer action of the matrix's primitive integer multiple: no
rational is built on that path either.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .cmpoints import TauExact, parity_of_tau
from .errors import BadBaseError, InternalCheckError
from .factorint import squarefree_decompose
from .isogenies import RatMatrix2, in_odd_group, in_odd_pairs, odd_isogeny
from .modular import J_SPLIT, _json_float, fmt_float, is_real_j, j_of_tau
from .quadorders import Parity

DEFAULT_RECT = (-2000.0, 2000.0, -2000.0, 2000.0)


class Mode(enum.Enum):
    ODD_REAL = "odd"
    EVEN_REAL = "even"
    COMPLEX = "complex"


@dataclass(frozen=True)
class DensityConfig:
    base: TauExact
    denom_bound: int = 9
    bin_width: float = 100.0
    seed: int = 0
    draws: int = 0  # complex mode only

    def __post_init__(self):
        if self.denom_bound < 1:
            raise ValueError("denominator bound must be positive")
        if not self.bin_width > 0:  # NaN too
            raise ValueError("bin width must be positive")
        if self.draws < 0:
            raise ValueError("draw count must be nonnegative")


class SamplePoint(NamedTuple):
    """One row of a report. A NamedTuple: immutable, and built as cheaply as
    a tuple, since a report holds one per pair or draw."""

    label: str
    j: complex
    branch: str | None
    parity: Parity
    degree: int | None


@dataclass(frozen=True)
class CoverageReport:
    mode: Mode
    samples: list[SamplePoint]
    min_j: float | None
    max_j: float | None
    bins_hit: int
    all_below_1728: bool
    branch_counts: dict[str, int]
    denom_bound: int | None = None
    seed: int | None = None
    bin_width: float | None = None


def _build_report(
    mode: Mode,
    samples: list[SamplePoint],
    bin_width: float,
    denom_bound: int | None,
    seed: int | None,
) -> CoverageReport:
    """Range of Re j, bins hit (of Re j, or of j inside DEFAULT_RECT in complex
    mode) and rows per branch; a non-finite quotient by the width has no bin."""
    res = [s.j.real for s in samples]
    bins = set()
    if mode is Mode.COMPLEX:
        x0, x1, y0, y1 = DEFAULT_RECT
        for s in samples:
            re, im = s.j.real, s.j.imag
            if x0 <= re <= x1 and y0 <= im <= y1:
                u, v = re / bin_width, im / bin_width
                if math.isfinite(u) and math.isfinite(v):
                    bins.add((math.floor(u), math.floor(v)))
    else:
        for re in res:
            u = re / bin_width
            if math.isfinite(u):
                bins.add(math.floor(u))
    counts = Counter(s.branch for s in samples if s.branch)
    return CoverageReport(
        mode=mode,
        samples=samples,
        min_j=min(res) if res else None,
        max_j=max(res) if res else None,
        bins_hit=len(bins),
        all_below_1728=all(r < J_SPLIT for r in res),
        branch_counts=dict(counts),
        denom_bound=denom_bound,
        seed=seed,
        bin_width=bin_width,
    )


def _family_samples(
    pairs: list[tuple[int, int]],
    triple,
    parity: Parity,
    family: str,
    row,
) -> list[SamplePoint]:
    """Samples of a real family, one per pair (m, n), in the order of pairs.

    triple(m, n) is the exact point of the pair. That point depends on the
    ratio m/n only, and pairs holds the reduced form of each of its ratios
    before any multiple of it (pairs runs over m in increasing order), so
    the triple, its parity check and j_of_tau run once per reduced ratio, in
    one pass; every other pair reuses the j of its reduced ratio.
    row(m, n, g, j) builds the sample of (m, n), with g = gcd(m, n).
    """
    j_of = {}  # reduced pair -> j
    samples = []
    for pair in pairs:
        m, n = pair
        g = math.gcd(m, n)
        if g == 1:
            tau = triple(m, n)
            if parity_of_tau(tau) is not parity:
                raise InternalCheckError(f"family member {family}({m},{n}) is not {parity.value}")
            j = j_of[pair] = j_of_tau(tau)
        else:
            j = j_of[m // g, n // g]
        samples.append(row(m, n, g, j))
    return samples


def sample_odd(cfg: DensityConfig) -> CoverageReport:
    """j-values of the odd family (1 + i*(m/n)*y)/2, odd m, n <= bound with
    (m/n)*y > 1, from a base (1 + i*y)/2.

    Every distinct member must be odd (checked once per reduced ratio m/n)
    and every j strictly below 1728.
    """
    base = cfg.base
    if base.b != -base.a:
        raise BadBaseError("odd mode needs a base with real part 1/2 (b = -a)")
    if parity_of_tau(base) is not Parity.ODD:
        raise BadBaseError("odd mode needs an odd base point")
    if not is_real_j(base):
        raise BadBaseError("odd mode needs a base with real j")
    # y = sqrt(|disc|)/a, so y^2 = k/a exactly with k = 4c - a
    a, k = base.a, 4 * base.c - base.a
    n_max = cfg.denom_bound
    axis = range(1, n_max + 1, 2)
    pairs = [(m, n) for m in axis for n in axis if m * m * k > n * n * a]  # (m/n)*y > 1

    def triple(m: int, n: int) -> TauExact:
        # 1/2 + i*t with t^2 = m^2*k / (4*n^2*a), cleared of denominators
        return TauExact(4 * n * n * a, -4 * n * n * a, n * n * a + m * m * k)

    odd = Parity.ODD

    def row(m: int, n: int, g: int, j: complex) -> SamplePoint:
        # connecting matrix ((m, (n-m)/2), (0, n)); degree = det / gcd^2, and
        # gcd(m, (n-m)/2, n) = gcd(m, n) = g, since g is odd and divides n - m
        return SamplePoint(f"{m},{n}", j, "T2", odd, m * n // (g * g))

    samples = _family_samples(pairs, triple, odd, "", row)
    report = _build_report(Mode.ODD_REAL, samples, cfg.bin_width, n_max, None)
    if not report.all_below_1728:
        raise InternalCheckError("odd family produced a j at or above 1728")
    return report


def sample_even(cfg: DensityConfig) -> CoverageReport:
    """j-values of even families over the field of the base point.

    Axis family: i*(m/n)*sqrt(|d|) for all m, n <= bound with value >= 1.
    Line family: 1/2 + i*(m/n)*sqrt(|d|) with value > 1/2; m, n restricted to
    odd when d = 1 (mod 4), where even shifts would change parity. Each
    distinct member is checked to be even once per reduced ratio m/n.
    """
    base = cfg.base
    if parity_of_tau(base) is not Parity.EVEN:
        raise BadBaseError("even mode needs an even base point")
    _, d = squarefree_decompose(base.disc)
    abs_d = abs(d)
    n_max = cfg.denom_bound
    axis = range(1, n_max + 1)
    line = range(1, n_max + 1, 2 if d % 4 == 1 else 1)

    def sampler(branch: str):
        def row(m: int, n: int, g: int, j: complex) -> SamplePoint:
            return SamplePoint(f"{branch}:{m},{n}", j, branch, Parity.EVEN, None)

        return row

    samples = _family_samples(
        [(m, n) for m in axis for n in axis if m * m * abs_d >= n * n],  # t >= 1
        lambda m, n: TauExact(n * n, 0, m * m * abs_d),  # i*t, t^2 = m^2*|d|/n^2
        Parity.EVEN,
        "T1",
        sampler("T1"),
    )
    samples += _family_samples(
        [(m, n) for m in line for n in line if 4 * m * m * abs_d > n * n],  # t > 1/2
        lambda m, n: TauExact(4 * n * n, -4 * n * n, n * n + 4 * m * m * abs_d),
        Parity.EVEN,
        "T2",
        sampler("T2"),
    )
    return _build_report(Mode.EVEN_REAL, samples, cfg.bin_width, n_max, None)


# Complex mode draws each entry as p/q with p uniform in [-DRAW_NUMERATOR_BOUND,
# DRAW_NUMERATOR_BOUND] and q uniform over the odd numbers up to DRAW_DENOM_BOUND.
DRAW_NUMERATOR_BOUND = 40
DRAW_DENOM_BOUND = 15


def _draw_matrix(rng: random.Random) -> RatMatrix2:
    """A seeded odd-group matrix: four entries p/q as above, redrawn together
    until the matrix lies in the odd group.

    Each number comes from rng.getrandbits through the rejection loop that
    random.Random.randrange runs, so p and q are exactly the values of
    rng.randint(-DRAW_NUMERATOR_BOUND, DRAW_NUMERATOR_BOUND) and
    rng.randrange(1, DRAW_DENOM_BOUND + 1, 2), in the same order. The odd-group
    rule (in_odd_pairs) decides on the raw pairs, and a RatMatrix2 is built
    only for the draw that is kept, about one in 5.4.
    """
    getrandbits = rng.getrandbits
    p_count = 2 * DRAW_NUMERATOR_BOUND + 1
    q_count = (DRAW_DENOM_BOUND + 1) // 2
    p_bits, q_bits = p_count.bit_length(), q_count.bit_length()
    while True:
        pairs = []
        for _ in range(4):
            p = getrandbits(p_bits)
            while p >= p_count:
                p = getrandbits(p_bits)
            q = getrandbits(q_bits)
            while q >= q_count:
                q = getrandbits(q_bits)
            pairs.append((p - DRAW_NUMERATOR_BOUND, 2 * q + 1))
        if in_odd_pairs(*pairs):
            matrix = RatMatrix2(*pairs)
            if not in_odd_group(matrix):
                raise InternalCheckError(f"kept draw {matrix} is not in the odd group")
            return matrix


def sample_complex(cfg: DensityConfig) -> CoverageReport:
    """j-values of seeded random odd-group images of the base point, with
    two-dimensional bin coverage over DEFAULT_RECT.

    Parity transport is asserted on every draw.
    """
    import hashlib  # these two only for complex mode
    import random

    base = cfg.base
    base_parity = parity_of_tau(base)
    rng = random.Random(cfg.seed)
    matrices = [_draw_matrix(rng) for _ in range(cfg.draws)]

    def evaluate(matrix: RatMatrix2) -> SamplePoint:
        iso = odd_isogeny(matrix, base)
        moved = iso.source_tau
        if parity_of_tau(moved) is not base_parity:
            raise InternalCheckError(f"parity transport violated by {matrix}")
        j = j_of_tau(moved)
        # each entry as str prints its Fraction p/q: "p" when q = 1
        entries = (matrix.a, matrix.b, matrix.c, matrix.d)
        text = repr(tuple(str(p) if q == 1 else f"{p}/{q}" for p, q in entries))
        digest = hashlib.md5(text.encode()).hexdigest()[:12]
        return SamplePoint(
            label=digest,
            j=j,
            branch=None,
            parity=base_parity,
            degree=iso.degree,
        )

    samples = [evaluate(m) for m in matrices]
    return _build_report(Mode.COMPLEX, samples, cfg.bin_width, None, cfg.seed)


def _json_num(x: float | None):
    """12-significant-digit float for JSON; non-finite values become strings
    since strict JSON has no infinity token."""
    if x is None:
        return None
    if not math.isfinite(x):
        return fmt_float(x)
    return _json_float(x)


def emit(report: CoverageReport, fmt: str = "csv") -> bytes:
    """Serialize a report deterministically; CSV rows carry label, j parts,
    branch, parity, and degree where applicable.

    Each CSV row is one f-string, the bytes csv.writer would write: a label
    is quoted when it holds a comma (the labels this module makes hold no
    quote or line break), and floats print at 12 significant digits.
    """
    if fmt == "csv":
        rows = ["label,re_j,im_j,branch,parity,degree\n"]
        for label, j, branch, parity, degree in report.samples:
            if "," in label:
                label = f'"{label}"'
            rows.append(
                f"{label},{j.real:.12g},{j.imag:.12g},{branch or ''},"
                f"{parity._value_},{'' if degree is None else degree}\n"
            )
        return "".join(rows).encode()
    if fmt == "json":
        import json

        payload = {
            "mode": report.mode.value,
            "denom_bound": report.denom_bound,
            "seed": report.seed,
            "bin_width": report.bin_width,
            "sample_count": len(report.samples),
            "min_j": _json_num(report.min_j),
            "max_j": _json_num(report.max_j),
            "bins_hit": report.bins_hit,
            "all_below_1728": report.all_below_1728,
            "branch_counts": dict(sorted(report.branch_counts.items())),
            "samples": [
                {
                    "label": s.label,
                    "re_j": _json_num(s.j.real),
                    "im_j": _json_num(s.j.imag),
                    "branch": s.branch,
                    "parity": s.parity._value_,
                    "degree": s.degree,
                }
                for s in report.samples
            ],
        }
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    raise ValueError(f"unknown emit format: {fmt!r}")
