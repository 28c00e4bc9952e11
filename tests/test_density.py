import csv
import fractions
import hashlib
import io
import math
import json
import random
import sys
from fractions import Fraction

import pytest

from cmparity import (
    BadBaseError,
    InternalCheckError,
    Parity,
    RatMatrix2,
    TauExact,
    density,
    emit,
    enumerate_real_odd_cm,
    isogenies,
    j_numeric,
    j_of_tau,
    moebius,
    parity_of_tau,
    parity_transport_check,
)
from cmparity.density import (
    DensityConfig,
    Mode,
    SamplePoint,
    _draw_matrix,
    sample_complex,
    sample_even,
    sample_odd,
)

from conftest import random_odd_matrix

BASE_ODD = TauExact(1, -1, 1)


def coverage_report_from_points(points):
    """An enumeration result as a report, so that emit writes it like any other."""
    samples = [
        SamplePoint(f"beta={p.beta}", complex(p.j_estimate, 0.0), "T2", Parity.ODD, None)
        for p in points
    ]
    return density._build_report(Mode.ODD_REAL, samples, 100.0, None, None)


def odd_cfg(n, base=BASE_ODD):
    return DensityConfig(base=base, denom_bound=n)


def even_cfg(base, n):
    return DensityConfig(base=base, denom_bound=n)


def test_odd_single_pair_is_base():
    report = sample_odd(odd_cfg(1))
    assert len(report.samples) == 1
    s = report.samples[0]
    assert s.label == "1,1"
    assert abs(s.j.real) < 1e-6  # the base point itself, j = 0
    assert s.degree == 1


def test_odd_n9():
    report = sample_odd(odd_cfg(9))
    assert report.all_below_1728
    assert all(s.j.real < 1728 for s in report.samples)
    assert all(s.parity is Parity.ODD for s in report.samples)
    assert all(s.branch == "T2" for s in report.samples)
    best = max(report.samples, key=lambda s: s.j.real)
    assert best.label == "3,5"
    assert all(s.degree % 2 == 1 for s in report.samples)


def test_odd_max_strictly_increases():
    maxima = [sample_odd(odd_cfg(n)).max_j for n in (9, 99)]
    assert maxima[0] < maxima[1] < 1728


def test_odd_nesting():
    small = sample_odd(odd_cfg(3))
    big = sample_odd(odd_cfg(9))
    small_labels = {s.label for s in small.samples}
    big_labels = {s.label for s in big.samples}
    assert small_labels <= big_labels
    assert big.min_j <= small.min_j
    assert big.max_j >= small.max_j


def test_odd_parity_transport_of_family_matrices():
    # each family member comes from an explicit upper-triangular matrix
    from cmparity import odd_isogeny

    report = sample_odd(odd_cfg(7))
    for s in report.samples:
        m, n = (int(v) for v in s.label.split(","))
        matrix = RatMatrix2(m, (n - m) // 2, 0, n)
        assert parity_transport_check(matrix, BASE_ODD)
        assert odd_isogeny(matrix, BASE_ODD).degree == s.degree
        moved = moebius(matrix, BASE_ODD)
        assert abs(j_numeric(complex(moved)) - s.j) <= 1e-9 * (1 + abs(s.j))


def test_odd_bad_bases():
    with pytest.raises(BadBaseError):
        sample_odd(odd_cfg(5, base=TauExact(1, 0, 1)))  # even base
    with pytest.raises(BadBaseError):
        sample_odd(odd_cfg(5, base=TauExact(1, 1, 2)))  # odd disc but real part -1/2
    # a different odd base of the right shape works fine
    report = sample_odd(odd_cfg(3, base=TauExact(1, -1, 2)))
    assert report.all_below_1728


def test_even_spread_for_small_fields():
    for base in (TauExact(1, 0, 1), TauExact(1, 0, 2), TauExact(1, 0, 3), TauExact(1, 0, 7)):
        report = sample_even(even_cfg(base, 9))
        res = [s.j.real for s in report.samples]
        assert any(r >= 1728 for r in res)
        assert any(r < 1728 for r in res)
        assert all(s.parity is Parity.EVEN for s in report.samples)
        assert not report.all_below_1728


def test_even_includes_unit_point():
    report = sample_even(even_cfg(TauExact(1, 0, 1), 9))
    by_label = {s.label: s for s in report.samples}
    assert abs(by_label["T1:1,1"].j.real - 1728) < 1e-6  # tau = i
    # tau = 1/2 + i has the exact triple (4, -4, 5) of discriminant -64
    expected = j_numeric(complex(TauExact(4, -4, 5)))
    assert abs(by_label["T2:1,1"].j - expected) <= 1e-9 * (1 + abs(expected))


def test_even_line_restriction_mod_4():
    # d = -3 is 1 mod 4: line samples use odd m, n only
    report = sample_even(even_cfg(TauExact(1, 0, 3), 8))
    for s in report.samples:
        if s.branch == "T2":
            m, n = (int(v) for v in s.label.split(":")[1].split(","))
            assert m % 2 == 1 and n % 2 == 1
    # d = -1 allows every pair
    report = sample_even(even_cfg(TauExact(1, 0, 1), 4))
    labels = {s.label for s in report.samples}
    assert "T2:2,1" in labels


def test_even_parity_matches_base():
    base = TauExact(1, 0, 3)
    report = sample_even(even_cfg(base, 5))
    assert all(s.parity is parity_of_tau(base) for s in report.samples)


def test_even_nesting():
    base = TauExact(1, 0, 2)
    small = sample_even(even_cfg(base, 3))
    big = sample_even(even_cfg(base, 6))
    assert {s.label for s in small.samples} <= {s.label for s in big.samples}
    assert big.min_j <= small.min_j
    assert big.max_j >= small.max_j


def test_even_rejects_odd_base():
    with pytest.raises(BadBaseError):
        sample_even(even_cfg(TauExact(1, -1, 1), 5))


def test_complex_zero_draws():
    report = sample_complex(DensityConfig(base=BASE_ODD, draws=0, seed=5))
    assert report.samples == []
    assert report.min_j is None and report.max_j is None
    assert emit(report, "csv") == b"label,re_j,im_j,branch,parity,degree\n"


def test_complex_single_draw_matches_manual_replay():
    cfg = DensityConfig(base=BASE_ODD, draws=1, seed=1234)
    report = sample_complex(cfg)
    assert len(report.samples) == 1
    matrix = _draw_matrix(random.Random(1234))
    expected = j_numeric(complex(moebius(matrix, BASE_ODD)))
    got = report.samples[0].j
    assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


def test_draw_matrix_matches_reference_sampler():
    # _draw_matrix reads the randint/randrange values off getrandbits; the
    # reference sampler calls randint/randrange and builds every draw
    draws = 0
    for seed in (0, 1, 42, 1234, 1378860992):
        fast, reference = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            assert _draw_matrix(fast).entries() == random_odd_matrix(reference).entries(), seed
            draws += 1
        assert fast.getstate() == reference.getstate(), seed
    assert draws >= 5000


def test_complex_builds_a_matrix_per_kept_draw_only(monkeypatch):
    built = []
    init = RatMatrix2.__init__

    def counted(self, *entries):
        built.append(entries)
        init(self, *entries)

    monkeypatch.setattr(RatMatrix2, "__init__", counted)
    sample_complex(DensityConfig(base=BASE_ODD, draws=300, seed=8))
    assert len(built) == 300


def test_draw_matrix_checks_kept_draw(monkeypatch):
    monkeypatch.setattr(density, "in_odd_group", lambda m: False)
    with pytest.raises(InternalCheckError):
        _draw_matrix(random.Random(5))


def test_complex_deterministic_and_parity_checked():
    cfg = DensityConfig(base=BASE_ODD, draws=300, seed=42)
    r1 = sample_complex(cfg)
    r2 = sample_complex(cfg)
    assert emit(r1, "csv") == emit(r2, "csv")
    assert emit(r1, "json") == emit(r2, "json")
    assert len(r1.samples) == 300
    assert all(s.degree % 2 == 1 for s in r1.samples)
    assert all(s.parity is Parity.ODD for s in r1.samples)


def test_emit_single_sample():
    report = sample_odd(odd_cfg(1))
    text = emit(report, "csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == "label,re_j,im_j,branch,parity,degree"
    assert len(lines) == 2
    assert lines[1].startswith('"1,1",')


def test_emit_enumeration_rows_sorted_by_divisor():
    report = coverage_report_from_points(enumerate_real_odd_cm(-15))
    lines = emit(report, "csv").decode().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("beta=1,")
    assert lines[2].startswith("beta=3,")


def test_emit_json_fields():
    report = sample_odd(odd_cfg(3))
    payload = json.loads(emit(report, "json"))
    assert set(payload) == {
        "mode", "denom_bound", "seed", "bin_width", "sample_count", "min_j", "max_j",
        "bins_hit", "all_below_1728", "branch_counts", "samples",
    }
    assert payload["mode"] == "odd"
    assert payload["sample_count"] == len(report.samples)
    assert payload["all_below_1728"] is True
    assert payload["branch_counts"] == {"T2": len(report.samples)}
    assert all(set(s) == {"label", "re_j", "im_j", "branch", "parity", "degree"} for s in payload["samples"])


def test_emit_rejects_unknown_format():
    report = sample_odd(odd_cfg(1))
    with pytest.raises(ValueError):
        emit(report, "yaml")


def test_nonfinite_json_is_strict():
    # deep-cusp values must not produce bare Infinity tokens
    report = sample_odd(odd_cfg(199))
    data = emit(report, "json")
    json.loads(data)
    assert b"Infinity" not in data


# Output bytes must survive every speed-up. Re-pinned once, on purpose, when
# every exact point began to reach floats through modular.j_of_tau: exact
# reduction first, and a real q on the locus. Every real-family row now
# prints im_j = 0 (1,766 of the 1,779 odd N=99 rows and 667 of the 1,140
# even rows printed rounding noise there), 51 odd and 3 even rows change the
# last printed digit of re_j, and complex samples are evaluated at the
# exactly reduced point instead of the float image of the moved triple (14,
# 24 and 14 printed rows of the three complex reports change, 10 of them to
# im_j = 0 on the locus). The worst re_j error of the odd family at N=399 is
# 4.9e-12 relative, the same as before. The hashes before that change (the
# first three from the Fraction-based families and draws, the last two from
# the Fraction-based Moebius action):
#   odd-99-csv                          de879b45f22e6cf88988dfd2a82db7ed8f8034d3450fbb6d86e8df059fcd05d9
#   even-1,0,1-30-csv                   9d7a75d13912e94380a5ffe6880fc67ecc5baafdc80fd4a3731d04eb903f1929
#   complex-42-1000-json                8e1d563a627aa4c6e5e2eca04db8fb20112cb963f69dd20fb338fb73821513ab
#   complex-1,0,1-7-2000-csv            86a1adf6d5b23e0aa42acee743439802fa8cb1ba9391b2f98f1df078b5ba6e18
#   complex-5,-3,7-1378860992-1000-json 4876ef7e4bf176c582d209a16adad5960468ca11ffb720bf98bd2c81543bda85
PINNED_SHA256 = {
    "odd-99-csv": "d6b89725144a531bfdffbcc05823a3904c89462bd86e63854b12e4aa9141a905",
    "even-1,0,1-30-csv": "0e61478f3849c2a8771ebe15b6eb1ea10387f75039aac180942aefed9836c15f",
    "complex-42-1000-json": "d488900e4ddde690cb47a5ed52dd165ca26561cb1f0d677c18422ab1485ea245",
    "complex-1,0,1-7-2000-csv": "2857cb2498406a51a511f5de5082dae387c48ba1b37851a88a573991ca54f90b",
    "complex-5,-3,7-1378860992-1000-json": "0d3ee9543d00442e6740e2150dcc6bd944eadb29b93fb88af69daab61f0cba9c",
    # the benchmark's odd family: its 28,454 rows, 23,016 distinct points
    "odd-399-csv": "36b344443ab9870f282ef9d2dff730963eab8156c0abc40915683d46b993a07b",
}


def test_reports_match_pinned_bytes():
    reports = {
        "odd-99-csv": emit(sample_odd(odd_cfg(99)), "csv"),
        "even-1,0,1-30-csv": emit(sample_even(even_cfg(TauExact(1, 0, 1), 30)), "csv"),
        "complex-42-1000-json": emit(
            sample_complex(DensityConfig(base=BASE_ODD, draws=1000, seed=42)),
            "json",
        ),
        "complex-1,0,1-7-2000-csv": emit(
            sample_complex(DensityConfig(base=TauExact(1, 0, 1), draws=2000, seed=7)),
            "csv",
        ),
        "complex-5,-3,7-1378860992-1000-json": emit(
            sample_complex(
                DensityConfig(base=TauExact(5, -3, 7), draws=1000, seed=1378860992)
            ),
            "json",
        ),
        "odd-399-csv": emit(sample_odd(odd_cfg(399)), "csv"),
    }
    for name, payload in reports.items():
        assert hashlib.sha256(payload).hexdigest() == PINNED_SHA256[name], name


def csv_rows(payload: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(payload.decode())))


def test_real_family_rows_print_zero_imaginary_part():
    # on the real locus q is real, so Im j is exactly 0 rather than noise
    for report in (sample_odd(odd_cfg(99)), sample_even(even_cfg(TauExact(1, 0, 1), 30))):
        rows = csv_rows(emit(report, "csv"))[1:]
        assert len(rows) == len(report.samples) > 1000
        assert all(row[2] == "0" for row in rows)


def csv_writer_reference(report) -> bytes:
    """The CSV that csv.writer makes of a report: the reference for emit."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "re_j", "im_j", "branch", "parity", "degree"])
    for s in report.samples:
        writer.writerow(
            [
                s.label,
                format(s.j.real, ".12g"),
                format(s.j.imag, ".12g"),
                s.branch or "",
                s.parity.value,
                "" if s.degree is None else s.degree,
            ]
        )
    return out.getvalue().encode()


def test_emit_csv_matches_csv_writer():
    # odd labels hold a comma, even labels a colon and a comma, complex labels
    # neither; odd N=199 reaches -inf and enumeration leaves branch and degree
    reports = [
        sample_odd(odd_cfg(199)),
        sample_even(even_cfg(TauExact(1, 0, 1), 12)),
        sample_complex(DensityConfig(base=BASE_ODD, draws=300, seed=4)),
        coverage_report_from_points(enumerate_real_odd_cm(-1155)),
    ]
    assert any(math.isinf(s.j.real) for s in reports[0].samples)
    for report in reports:
        assert emit(report, "csv") == csv_writer_reference(report)


# checks.py's rule: 1e-8 relative to |j|, and an infinity only for a component
# of a j past the double range, with the component's sign
MPMATH_J_TOL = 1e-8
DBL_MAX = 1.7976931348623157e308


def mpmath_j(mpmath, z):
    """1728 * kleinj(z) after reducing z at mpmath's working precision."""
    while True:
        z = z - mpmath.floor(z.real + mpmath.mpf(1) / 2)
        if abs(z) >= 1:
            return 1728 * mpmath.kleinj(z)
        z = -1 / z


def close_to_mpmath(value: float, exact, scale) -> bool:
    if math.isinf(value):
        return scale > DBL_MAX * (1 - MPMATH_J_TOL) and (value > 0) == (exact > 0)
    return abs(value - exact) <= MPMATH_J_TOL * (1 + scale)


def test_odd_row_in_the_overflow_window_is_finite():
    # row 391,3 of the odd family: 2*pi*Im tau is about 709.2, above 709 but
    # inside the double range, so j is finite (mpmath: -9.99343e307)
    mpmath = pytest.importorskip("mpmath")
    m, n = 391, 3
    j = j_of_tau(TauExact(4 * n * n, -4 * n * n, n * n + 3 * m * m))
    assert j.imag == 0.0 and math.isfinite(j.real)
    with mpmath.workdps(50):
        exact = mpmath_j(mpmath, mpmath.mpc(0.5, mpmath.sqrt(3) * m / (2 * n)))
        assert close_to_mpmath(j.real, exact.real, abs(exact))
        assert -1e308 < j.real < -9.99e307


@pytest.mark.parametrize(
    "seed, index, label",
    [
        # moves the base to the line, j = -5.16e531: the float image of the
        # moved triple printed -inf - inf i, Im j is 0
        (140584515, 951, "f2c244c65bc4"),
        # reduces to (163, 99, 2075997), j = -2.959e307 + 8.437e307i, which
        # printed as -inf + inf i
        (388673817, 88, "88a2274ed781"),
    ],
)
def test_complex_draws_near_overflow_match_mpmath(seed, index, label):
    mpmath = pytest.importorskip("mpmath")
    report = sample_complex(DensityConfig(base=BASE_ODD, draws=index + 1, seed=seed))
    sample = report.samples[index]
    assert sample.label == label
    rng = random.Random(seed)
    for _ in range(index + 1):
        matrix = _draw_matrix(rng)
    with mpmath.workdps(50):
        tau = mpmath.mpc(0.5, mpmath.sqrt(3) / 2)
        ea, eb, ec, ed = (mpmath.mpf(x.numerator) / x.denominator for x in matrix.entries())
        exact = mpmath_j(mpmath, (ea * tau + eb) / (ec * tau + ed))
        scale = abs(exact)
        assert close_to_mpmath(sample.j.real, exact.real, scale)
        assert close_to_mpmath(sample.j.imag, exact.imag, scale)


def counting(monkeypatch, function, modules):
    """Count the calls of function made through any of the modules' names."""
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for module in modules:
        for name, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_odd_evaluates_j_once_per_distinct_ratio(monkeypatch):
    n = 99
    # base (1 + sqrt(-3))/2 has y^2 = 3: the family keeps odd m, n with 3m^2 > n^2
    pairs = [(m, q) for m in range(1, n + 1, 2) for q in range(1, n + 1, 2) if 3 * m * m > q * q]
    ratios = {Fraction(m, q) for m, q in pairs}
    assert len(ratios) < len(pairs)
    calls = counting(monkeypatch, density.j_of_tau, [density])
    report = sample_odd(odd_cfg(n))
    assert len(report.samples) == len(pairs)
    assert len(calls) == len(ratios)
    assert len(set(calls)) == len(ratios)


def test_even_evaluates_j_once_per_distinct_point(monkeypatch):
    calls = counting(monkeypatch, density.j_of_tau, [density])
    report = sample_even(even_cfg(TauExact(1, 0, 3), 12))
    points = {(s.branch, Fraction(*map(int, s.label.split(":")[1].split(",")))) for s in report.samples}
    assert len(calls) == len(points) < len(report.samples)


def test_complex_moves_each_draw_once(monkeypatch):
    cmparity_modules = [m for name, m in sys.modules.items() if name.startswith("cmparity")]
    calls = counting(monkeypatch, isogenies.moebius, cmparity_modules)
    sample_complex(DensityConfig(base=BASE_ODD, draws=50, seed=3))
    assert len(calls) == 50


def fraction_calls(run) -> list[str]:
    """Names of the functions of the fractions module that run() calls."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_complex_builds_no_fraction():
    assert "__new__" in fraction_calls(lambda: Fraction(1, 3) + 1)  # the probe sees them
    cfg = DensityConfig(base=BASE_ODD, draws=200, seed=11)
    assert fraction_calls(lambda: sample_complex(cfg)) == []


def test_config_validation():
    with pytest.raises(ValueError):
        DensityConfig(base=BASE_ODD, denom_bound=0)
    with pytest.raises(ValueError):
        DensityConfig(base=BASE_ODD, bin_width=-1.0)
    with pytest.raises(ValueError):
        DensityConfig(base=BASE_ODD, draws=-1)


def test_bin_width_must_be_a_positive_number():
    for width in (math.nan, 0.0, -0.0, -math.inf):
        with pytest.raises(ValueError, match="bin width must be positive"):
            DensityConfig(base=BASE_ODD, bin_width=width)


def test_non_finite_bin_quotients_get_no_bin():
    # over a subnormal width every nonzero quotient overflows; 0 keeps its bin
    rows = [
        SamplePoint("a", complex(0.0, 0.0), None, Parity.ODD, None),
        SamplePoint("b", complex(-1500.0, 3.0), None, Parity.ODD, None),
    ]
    for mode in (Mode.ODD_REAL, Mode.COMPLEX):
        report = density._build_report(mode, rows, 1e-320, None, None)
        assert report.bins_hit == 1
        assert (report.min_j, report.max_j) == (-1500.0, 0.0)


def test_sample_point_is_immutable():
    point = sample_odd(odd_cfg(9)).samples[0]
    assert isinstance(point, SamplePoint)
    assert SamplePoint._fields == ("label", "j", "branch", "parity", "degree")
    for field in SamplePoint._fields:
        with pytest.raises(AttributeError):
            setattr(point, field, None)
