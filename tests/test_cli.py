import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmparity import InternalCheckError, Parity, cmpoints, density, enumeration, modular
from cmparity.cli import build_parser, main
from cmparity.enumeration import saturated_divisors
from cmparity.quadorders import order_discriminant


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_odd_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,-1,1")
    assert code == 0
    assert "disc=-3" in out
    assert "parity=odd" in out
    assert "real_j=true" in out
    assert "branch=T2" in out
    assert "t=0.866025403784" in out  # sqrt(3)/2 correctly rounded


def test_classify_even_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,0,1")
    assert code == 0
    assert "disc=-4" in out and "parity=even" in out
    assert "branch=T1" in out and "t=1" in out


def test_classify_b_zero_even(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "2,0,1")
    assert code == 0
    assert "disc=-8" in out and "parity=even" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,-1,1", "--json")
    record = json.loads(out)
    assert code == 0
    assert record["d"] == -3 and record["f"] == 1
    assert record["parity"] == "odd" and record["branch"] == "T2"


def test_repeated_calls_keep_their_own_format(capsys):
    # the parser is built once per process; options must not leak between calls
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,-1,1", "--json")
    assert code == 0 and json.loads(out)["parity"] == "odd"
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,-1,1")
    assert code == 0 and out.startswith("disc=-3 ")


def test_classify_evaluates_j_once_at_the_reduced_point(monkeypatch, capsys):
    # one complex-q j for the real-j verdict, reused by the locus point; a
    # real point adds one real-q j on its branch for the residual check
    from cmparity import modular

    calls = {"j_numeric": 0, "_j_locus": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(modular, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(modular, name, counted)
    for triple, expected in (("35,-105,98", (1, 1)), ("3,5,7", (1, 0))):
        calls.update(dict.fromkeys(calls, 0))
        code, _, _ = run_cli(capsys, "classify", "--tau", triple)
        assert code == 0 and (calls["j_numeric"], calls["_j_locus"]) == expected, triple


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--tau", "35,-105,98"],
        ["classify", "--tau", "3,5,7"],
        ["jvalue", "--tau", "47,-47,542"],
        ["enumerate", "--disc", "-1155"],
        ["density", "--mode", "odd", "--base", "1,-1,1", "--max-denominator", "9"],
    ],
    ids=["classify-real", "classify-complex", "jvalue", "enumerate", "density-odd"],
)
def test_j_path_never_makes_a_float_point_of_a_tau_exact(monkeypatch, capsys, argv):
    # both j routes go to floats from the reduced ints, never through TauExact
    expected = run_cli(capsys, *argv)

    def refused(self):
        raise AssertionError("TauExact.__complex__ called on the j path")

    monkeypatch.setattr(cmpoints.TauExact, "__complex__", refused)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


def test_classify_huge_non_real_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "10000019,1,20000000001", "--json")
    assert code == 0
    assert json.loads(out)["real_j"] is False


def test_classify_non_real_point_past_overflow_height(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tau", "2,1,1000000", "--json")
    assert code == 0
    assert json.loads(out)["real_j"] is False


def test_classify_real_points_past_overflow_height(capsys):
    # j overflows doubles here; t comes from the triple, not from j
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,0,1000000")
    assert code == 0
    assert out.endswith(" real_j=true branch=T1 t=1000\n")
    code, out, _ = run_cli(capsys, "classify", "--tau", "1,-1,1000000", "--json")
    assert code == 0
    assert json.loads(out)["branch"] == "T2"


def test_classify_invalid_triple(capsys):
    code, _, err = run_cli(capsys, "classify", "--tau", "1,5,1")
    assert code == 2
    assert "discriminant" in err


def test_classify_parse_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--tau", "1,2")
    assert code == 2


def test_enumerate_examples(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--disc", "-3", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 1
    assert abs(payload["entries"][0]["j"]) < 1e-6

    code, out, _ = run_cli(capsys, "enumerate", "--disc", "-15", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 2
    assert [e["beta"] for e in payload["entries"]] == [1, 3]


def test_enumerate_two_large_primes(capsys):
    # -1000003 * 1000033: both primes lie past the trial-division limit
    code, out, err = run_cli(capsys, "enumerate", "--disc", "-1000036000099", "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["count"] == 2
    assert [e["beta"] for e in payload["entries"]] == [1, 1000003]


def test_enumerate_rejects_even_disc(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--disc", "-4")
    assert code == 2
    assert "negative and congruent to 1 mod 4" in err


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "--squarefree", "-3", "--conductor", "8")
    assert code == 0
    assert "disc=-192" in out and "parity=even" in out and "integer(-48)" in out


def test_isogeny_command(capsys):
    code, out, _ = run_cli(capsys, "isogeny", "--matrix", "3/5,0,0,1", "--tau", "1,0,1")
    assert code == 0
    assert "degree=15" in out


def test_isogeny_output_pinned(capsys):
    # taken from the Fraction-based Moebius action, before it moved to integers
    argv = ("isogeny", "--matrix", "3/5,0,0,1", "--tau", "1,0,1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "degree=15 u=(5 + 0*sqrt(-1)) source=(25,0,9) target=(1,0,1)\n"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == (
        '{"degree": 15, "multiplier": "(5 + 0*sqrt(-1))", "source": "(25,0,9)", '
        '"target": "(1,0,1)", "source_disc": -900, "target_disc": -4}\n'
    )


def test_isogeny_rejects_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "isogeny", "--matrix", "1/0,0,0,1", "--tau", "1,0,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err


def test_isogeny_rejects_singular_matrix(capsys):
    code, _, err = run_cli(capsys, "isogeny", "--matrix", "1,1,1,1", "--tau", "1,0,1")
    assert code == 2
    assert err.startswith("error: ")


def test_isogeny_rejects_even_denominator(capsys):
    code, _, err = run_cli(capsys, "isogeny", "--matrix", "1/2,0,0,1", "--tau", "1,0,1")
    assert code == 2
    assert "denominator" in err


def test_jvalue_commands(capsys):
    code, out, _ = run_cli(capsys, "jvalue", "--tau", "1,0,1")
    assert code == 0 and "j_re=1728" in out
    code, out, _ = run_cli(capsys, "jvalue", "--point", "0,1")
    assert code == 0 and "j_re=1728" in out
    code, out, _ = run_cli(capsys, "jvalue", "--point", "0,1e308")  # 2*pi*Im z overflows
    assert code == 0 and out == "j_re=inf j_im=0\n"
    code, _, err = run_cli(capsys, "jvalue")
    assert code == 2


def test_jvalue_reduces_before_floats(capsys):
    # the same point; the float image of the large triple loses digits unless
    # the triple is reduced exactly first. It reduces to a line point, where q
    # is real and Im j is exactly 0 (mpmath gives Im j of about 1.8e-35)
    code, big, _ = run_cli(capsys, "jvalue", "--tau", "57283960024952,-37747546504261,6218482741376")
    assert code == 0
    code, reduced, _ = run_cli(capsys, "jvalue", "--tau", "47,-47,542")
    assert code == 0
    assert big == reduced == "j_re=-1463820071.48 j_im=0\n"


def test_density_odd_summary_and_file(tmp_path, capsys):
    out_file = tmp_path / "odd.csv"
    code, out, _ = run_cli(
        capsys,
        "density", "--mode", "odd", "--base", "1,-1,1",
        "--max-denominator", "9", "--out", str(out_file),
    )
    assert code == 0
    assert out == (
        "samples=18 min_j=-1.85576290573e+21 max_j=1691.57684606 bins_hit=13 "
        "all_below_1728=true\n"
    )
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "label,re_j,im_j,branch,parity,degree"
    assert len(lines) == 19  # header + 18 samples


def test_density_even_summary(tmp_path, capsys):
    out_file = tmp_path / "even.csv"
    code, out, _ = run_cli(
        capsys,
        "density", "--mode", "even", "--base", "1,0,1",
        "--max-denominator", "9", "--out", str(out_file),
    )
    assert code == 0
    assert "all_below_1728=false" in out  # axis samples reach 1728 and beyond


def test_density_rejects_even_base_in_odd_mode(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "density", "--mode", "odd", "--base", "1,0,1",
        "--max-denominator", "9", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "odd" in err


def test_density_byte_identical_reruns(tmp_path, capsys):
    args = [
        "density", "--mode", "complex", "--base", "1,-1,1",
        "--draws", "60", "--seed", "7", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.json"))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.json"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert "seed=7" in out1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cmparity", "classify", "--tau", "1,-1,1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "parity=odd" in proc.stdout


DENSITY_ARGV = {
    "even": ["density", "--mode", "even", "--base", "1,0,1"],
    "odd": ["density", "--mode", "odd", "--base", "1,-1,1"],
    "complex": ["density", "--mode", "complex", "--base", "1,-1,1", "--draws", "50"],
}


@pytest.mark.parametrize("mode", sorted(DENSITY_ARGV))
@pytest.mark.parametrize(
    "width, expected",
    [
        ("1e-320", 0),  # subnormal: every nonzero quotient overflows and gets no bin
        ("5e-324", 0),
        ("inf", 0),
        ("nan", 2),
        ("0", 2),
        ("-0.0", 2),
        ("-1", 2),
        ("-inf", 2),
    ],
)
def test_density_bin_width_exits_0_or_2(capsys, mode, width, expected):
    code, out, err = run_cli(capsys, *DENSITY_ARGV[mode], f"--bin-width={width}", "--out", "-")
    assert code == expected, err
    assert "Traceback" not in err and "internal error" not in err
    if expected == 2:
        assert "bin width must be positive" in err
    else:
        assert "samples=" in out


def test_density_subnormal_bin_width_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "cmparity", *DENSITY_ARGV["even"], "--bin-width", "1e-320"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # j = 1728 at i and every other value overflow the quotient
    assert "bins_hit=0" in proc.stdout


# Exact points whose 4ac - b^2 (and mostly the height at the reduced point) is
# past the double range, and a float point too close to the real axis to
# reduce: each exits 0 or 2.
@pytest.mark.parametrize(
    "argv, expected",
    [
        # Re z = -1/4: j = -i/q has a zero real part, as --point=-0.25,1e308 prints
        (["jvalue", f"--tau=2,1,{10**400}"], (0, "j_re=0 j_im=inf\n", "")),
        (["jvalue", f"--tau={2**63},1,{10**300}"], (0, "j_re=inf j_im=inf\n", "")),
        (["jvalue", f"--tau=1,0,{10**400}"], (0, "j_re=inf j_im=0\n", "")),
        (["jvalue", f"--tau=1,1,{10**400}"], (0, "j_re=-inf j_im=0\n", "")),
        (
            ["density", "--mode=odd", f"--base=1,-1,{10**400}", "--max-denominator=3"],
            (0, None, ""),
        ),
        (["density", "--mode=complex", f"--base=1,0,{10**300}", "--draws=20"], (0, None, "")),
        # 4ac - b^2 is past the double range, yet the reduced point lies next to
        # i: its height comes from the quotient by 4a^2, not from the cusp
        (["jvalue", f"--tau={10**160},1,{10**160 + 1}"], (0, "j_re=1728 j_im=", "")),
        (
            ["jvalue", "--point=1e-320,1e-320"],
            (2, "", "error: point is too close to the real axis to reduce in double precision\n"),
        ),
    ],
    ids=[
        "line-quarter", "2**63", "axis", "line-half", "odd-base", "complex-base", "next-to-i",
        "tiny-point",
    ],
)
def test_past_the_double_range(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    want_code, want_start, want_err = expected
    assert (code, err) == (want_code, want_err)
    if want_start is not None:
        assert out.startswith(want_start)
    else:
        assert out.splitlines()[-1].startswith("samples=")


# Integers small, near 2**63 and past the double range, but none in between:
# factoring a discriminant near 10**18 costs about 0.1 s.
HUGE = st.one_of(
    st.sampled_from([2**63, 10**300, 10**400]),
    st.integers(10**19, 10**400),
)
INTS = st.one_of(st.integers(-60, 60), HUGE, HUGE.map(lambda n: -n))
POSITIVE = st.one_of(st.integers(1, 60), HUGE)
ODD = st.one_of(st.integers(-30, 30).map(lambda k: 2 * k + 1), HUGE.map(lambda n: 2 * n + 1))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([1e308, -1e308, 5e-324, 1e-320, 0.0, -0.0]),
).map(repr)
TRIPLES = st.one_of(
    st.tuples(INTS, INTS, INTS),
    st.tuples(POSITIVE, POSITIVE).map(lambda ac: (ac[0], -ac[0], ac[1])),  # on the line
    st.tuples(POSITIVE, POSITIVE).map(lambda ac: (ac[0], 0, ac[1])),  # on the axis
).map(lambda t: ",".join(map(str, t))) | st.sampled_from(["1,2", "a,b,c", "1,2,3,4"])
MATRICES = st.one_of(
    st.lists(
        st.one_of(INTS.map(str), st.tuples(INTS, INTS).map("{0[0]}/{0[1]}".format), FLOATS),
        min_size=4,
        max_size=4,
    ),
    # odd denominators, odd diagonal and even off-diagonal numerators: an odd determinant
    st.tuples(ODD, ODD, ODD, ODD, INTS, INTS, ODD, ODD).map(
        lambda v: [f"{v[0]}/{v[1]}", f"{2 * v[4]}/{v[2]}", f"{2 * v[5]}/{v[3]}", f"{v[6]}/{v[7]}"]
    ),
).map(",".join)
JSON = st.sampled_from([[], ["--json"]])


def _density_argv(out: str):
    return st.tuples(
        st.sampled_from(["odd", "even", "complex"]),
        TRIPLES,
        st.integers(-1, 5),
        st.integers(-1, 5),
        INTS,
        st.one_of(FLOATS, st.just("100")),
        st.sampled_from(["csv", "json"]),
        st.sampled_from(["-", out]),
    ).map(
        lambda v: [
            "density", f"--mode={v[0]}", f"--base={v[1]}", f"--max-denominator={v[2]}",
            f"--draws={v[3]}", f"--seed={v[4]}", f"--bin-width={v[5]}", f"--format={v[6]}",
            f"--out={v[7]}",
        ]
    )


def _argv(out: str):
    """Every command, with option values from the strategies above."""
    return st.one_of(
        st.tuples(TRIPLES, JSON).map(lambda v: ["classify", f"--tau={v[0]}", *v[1]]),
        st.tuples(st.one_of(INTS, st.sampled_from([-1, -3, -15, 2])), POSITIVE, JSON).map(
            lambda v: ["order", f"--squarefree={v[0]}", f"--conductor={v[1]}", *v[2]]
        ),
        st.tuples(st.one_of(INTS, st.sampled_from([-3, -15, -1155])), JSON).map(
            lambda v: ["enumerate", f"--disc={v[0]}", *v[1]]
        ),
        st.tuples(MATRICES, TRIPLES, JSON).map(
            lambda v: ["isogeny", f"--matrix={v[0]}", f"--tau={v[1]}", *v[2]]
        ),
        st.tuples(TRIPLES, JSON).map(lambda v: ["jvalue", f"--tau={v[0]}", *v[1]]),
        st.tuples(FLOATS, FLOATS, JSON).map(
            lambda v: ["jvalue", f"--point={v[0]},{v[1]}", *v[2]]
        ),
        _density_argv(out),
    )


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_argv_exits_0_or_2(tmp_path, data):
    argv = data.draw(_argv(str(tmp_path / "report")), label="argv")
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.buffer.getvalue() == b""
        assert len(err.getvalue().splitlines()) == 1 and "error:" in err.getvalue()
    else:
        assert (code, err.getvalue()) == (0, "")


# The handler, not main, so that the fault itself is raised: main would turn
# it into exit 1.
@pytest.mark.xfail(
    strict=True,
    raises=InternalCheckError,
    reason="numeric real-j check disagrees with the form criterion next to rho",
)
def test_classify_next_to_rho_is_not_real():
    args = build_parser().parse_args(["classify", "--tau", "1000000,999999,1000001"])
    record, _ = args.handler(args)
    assert record["real_j"] is False


# Fault injection: the layer below a guard lies, and the guard must turn the
# lie into exit 1 with the internal-error prefix, never into output.
def assert_internal_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, ""), err
    assert err.startswith("internal error: ") and message in err


def test_classify_trips_on_a_branch_curve_off_by_1e_3(monkeypatch, capsys):
    f_curve = modular.f_curve
    monkeypatch.setattr(modular, "f_curve", lambda t: f_curve(t) * (1 + 1e-3))
    assert_internal_error(capsys, ["classify", "--tau", "1,-1,2"], "disagrees with j")


def test_density_odd_trips_on_a_j_above_1728(monkeypatch, capsys):
    monkeypatch.setattr(density, "j_of_tau", lambda tau: complex(1728.5, 0.0))
    argv = ["density", "--mode", "odd", "--base", "1,-1,1", "--max-denominator", "3"]
    assert_internal_error(capsys, argv, "odd family produced a j at or above 1728")


def _lying_saturated_divisors(n):
    return saturated_divisors(n) + [10**6, 10**6 + 1]  # two more above sqrt(|n|)


@pytest.mark.parametrize(
    "name, lie, message",
    [
        ("order_discriminant", lambda order: 9 * order_discriminant(order), "instead of -15"),
        ("parity_of_tau", lambda tau: Parity.EVEN, "is not odd"),
        ("j_of_tau", lambda tau: complex(1728.5, 0.0), "is not below 1728"),
        ("saturated_divisors", _lying_saturated_divisors, "expected 3 points, found 2"),
        ("j_of_tau", lambda tau: complex(-tau.a, 0.0), "minimal j not attained at beta = 1"),
    ],
    ids=["order-discriminant", "parity", "j-below-1728", "point-count", "minimum-at-beta-1"],
)
def test_enumerate_trips_on_each_lie(monkeypatch, capsys, name, lie, message):
    monkeypatch.setattr(enumeration, name, lie)
    assert_internal_error(capsys, ["enumerate", "--disc", "-15"], message)


def test_main_maps_an_internal_check_error_to_exit_1(monkeypatch, capsys):
    def planted(tau):
        raise InternalCheckError("planted")

    # the handler reads the layer's attribute when it runs
    monkeypatch.setattr(cmpoints, "order_of_tau", planted)
    code, out, err = run_cli(capsys, "classify", "--tau", "1,-1,1")
    assert (code, out, err) == (1, "", "internal error: planted\n")


def _corpus() -> list[list[str]]:
    """A fixed argv list over all six commands, in text and --json (density:
    CSV and JSON payloads), with usage and validation errors."""
    triples = [f"{a},{b},{c}" for a in range(1, 5) for b in range(-4, 5) for c in range(1, 5)]
    triples += [
        "35,-105,98", "47,-47,542", "1,0,1000000", "1,-1,1000000", "2,1,1000000",
        "10000019,1,20000000001", "57283960024952,-37747546504261,6218482741376",
        "1,5,1", "1,2", "a,b,c", "0,1,1", "1,0,0",
    ]
    record_argv = [["classify", "--tau", t] for t in triples]
    record_argv += [
        ["order", "--squarefree", str(d), "--conductor", str(f)]
        for d in (-1, -2, -3, -5, -7, -15, 2, 3, 5, 0, 1, 4, -12)
        for f in (1, 2, 3, 4, 8, 0, -1)
    ]
    record_argv += [
        ["enumerate", "--disc", str(disc)]
        for disc in (
            -3, -7, -11, -15, -23, -35, -39, -1155, -255255, -1000036000099,
            -999999999999999967, -4, 5, -1, 0, -9, -27, -75,
        )
    ]
    record_argv += [
        ["isogeny", "--matrix", m, "--tau", t]
        for m in (
            "3/5,0,0,1", "1,0,0,1", "1,1,0,1", "3,1,1,1", "1/3,2/5,1,7", "-1,0,0,1",
            "1/0,0,0,1", "1,1,1,1", "1/2,0,0,1", "2,0,0,1", "1,2,3", "x,0,0,1",
        )
        for t in ("1,0,1", "1,-1,1", "2,1,3", "1,5,1")
    ]
    record_argv += [["jvalue", "--tau", t] for t in ("1,0,1", "1,-1,1", "3,5,7", "47,-47,542", "1,2")]
    record_argv += [
        ["jvalue", "--point", p]
        for p in (
            "0,1", "0.5,0.8660254037844386", "0.1,2", "0,1e308", "0.5,1e308",
            "0.25,1e308", "0,300", "0,0", "0,-1", "1,2,3", "abc,1",
        )
    ]
    record_argv += [["jvalue"], ["jvalue", "--tau", "1,0,1", "--point", "0,1"]]
    corpus = record_argv + [[*argv, "--json"] for argv in record_argv]
    density_argv = [
        ["density", "--mode", "odd", "--base", "1,-1,1", "--max-denominator", "5"],
        ["density", "--mode", "odd", "--base", "3,-3,5", "--max-denominator", "3"],
        ["density", "--mode", "even", "--base", "1,0,1", "--max-denominator", "4"],
        ["density", "--mode", "even", "--base", "1,0,3", "--max-denominator", "3"],
        ["density", "--mode", "complex", "--base", "1,-1,1", "--draws", "12", "--seed", "3"],
        ["density", "--mode", "complex", "--base", "1,0,1", "--draws", "0"],
        ["density", "--mode", "odd", "--base", "1,0,1"],
        ["density", "--mode", "even", "--base", "1,-1,1"],
        ["density", "--mode", "odd", "--base", "1,-1,1", "--bin-width", "0"],
        ["density", "--mode", "even", "--base", "1,0,1", "--bin-width", "1e-320"],
        ["density", "--mode", "odd", "--base", "1,-1,1", "--max-denominator", "0"],
        ["density", "--mode", "complex", "--base", "1,-1,1", "--draws", "-1"],
    ]
    corpus += [[*argv, "--format", fmt] for argv in density_argv for fmt in ("csv", "json")]
    corpus += [
        ["density", "--mode", "odd", "--base", "1,-1,1", "--out", "no-such-dir/out.csv"],
        [], ["classify"], ["classify", "--tau", "1,0,1", "--bogus"], ["nosuch"],
    ]
    return corpus


def test_every_command_output_pinned(monkeypatch, tmp_path):
    # one sha256 over (argv, exit code, stdout bytes, stderr) of the corpus,
    # taken before handlers returned their records to main's one printer
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in _corpus():
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        digest.update(json.dumps([argv, code]).encode() + b"\0")
        digest.update(out.buffer.getvalue() + b"\0" + err.getvalue().encode() + b"\0")
    assert digest.hexdigest() == (
        "21d281374f4efa218a810a3579c6f5ba58f25ec1888e90e4ceb786cd77ce7061"
    )
