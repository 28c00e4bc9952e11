"""Correctness checks on the workloads' outputs, made apart from cmparity.

Every check recomputes what it compares against: counts and labels from the
documented inputs, factorizations with sympy, and j with mpmath's `kleinj` at
50 digits after its own reduction to the fundamental domain. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import sympy
from mpmath import mp, mpc, mpf

import workloads

mp.dps = 50
J_SPLIT = 1728
DBL_MAX = mpf(1.7976931348623157e308)
J_TOL = mpf("1e-8")  # cmparity documents j to ~1e-9 relative accuracy
ODD_SUBSET = 30  # odd-family rows checked against mpmath per distinct output
COMPLEX_SUBSET = 8  # complex-scatter samples checked against mpmath per operation


def j_mp(z: mpc) -> mpc:
    """1728 * kleinj(z), after reducing z to the standard fundamental domain."""
    for _ in range(10_000):
        z = z - mpmath.floor(z.real + mpf(1) / 2)
        if abs(z) >= 1:
            return 1728 * mpmath.kleinj(z)
        z = -1 / z
    raise ArithmeticError(f"reduction of {z} did not converge")


def tau_mp(a: int, b: int, c: int) -> mpc:
    return mpc(mpf(-b) / (2 * a), mpmath.sqrt(4 * a * c - b * b) / (2 * a))


def _close(value: float, exact: mpf, scale: mpf) -> bool:
    """A printed double against an exact j component, to J_TOL relative to
    scale = |j|; past the double range the program's value may be the
    infinity of the component's sign."""
    if math.isinf(value):
        return scale > DBL_MAX * (1 - J_TOL) and (value > 0) == (exact > 0)
    return abs(mpf(value) - exact) <= J_TOL * (1 + scale)


def _split_density(text: str) -> tuple[str, str]:
    """The emitted report and the summary line printed after it."""
    payload, _, summary = text.rstrip("\n").rpartition("\n")
    return payload, summary


def check_odd(text: str, rng: random.Random) -> list[str]:
    payload, summary = _split_density(text)
    rows = list(csv.reader(payload.splitlines()))
    if not rows or rows[0] != ["label", "re_j", "im_j", "branch", "parity", "degree"]:
        return ["odd-family: missing or wrong CSV header"]
    rows = rows[1:]
    problems = []
    pairs = workloads.odd_pairs()
    if len(rows) != len(pairs):
        problems.append(f"odd-family: {len(rows)} samples, expected {len(pairs)}")
    if sorted(r[0] for r in rows) != sorted(f"{m},{n}" for m, n in pairs):
        problems.append("odd-family: sample labels differ from the odd pairs (m, n)")
    if f"samples={len(pairs)} " not in summary + " ":
        problems.append(f"odd-family: summary {summary!r} does not count {len(pairs)} samples")
    for label, re_text, im_text, branch, parity, degree in rows:
        re_j, im_j = float(re_text), float(im_text)
        if not re_j < J_SPLIT:
            problems.append(f"odd-family {label}: j = {re_text} is not below 1728")
        if not abs(im_j) <= 1e-9 * (1 + abs(re_j)):
            problems.append(f"odd-family {label}: j has imaginary part {im_text}")
        if parity != "odd" or branch != "T2":
            problems.append(f"odd-family {label}: parity {parity!r}, branch {branch!r}")
        if not (degree.isdigit() and int(degree) % 2 == 1):
            problems.append(f"odd-family {label}: degree {degree!r} is not odd")
    a, _, c = workloads.BASE
    y = mpmath.sqrt(mpf(4 * c - a) / a)
    for label, re_text, *_ in rng.sample(rows, min(ODD_SUBSET, len(rows))):
        m, n = map(int, label.split(","))
        exact = j_mp(mpc(mpf(1) / 2, y * m / (2 * n)))
        if not _close(float(re_text), exact.real, abs(exact)):
            problems.append(f"odd-family {label}: j = {re_text}, mpmath gives "
                            f"{mpmath.nstr(exact.real, 15)}")
    return problems


def draw_matrices(seed: int, draws: int) -> list[tuple[Fraction, ...]]:
    """The documented complex-mode distribution: entries p/q with |p| <= 40 and
    odd q <= 15, kept when the determinant is positive with odd numerator."""
    rng = random.Random(seed)
    out = []
    while len(out) < draws:
        e = tuple(Fraction(rng.randint(-40, 40), rng.randrange(1, 16, 2)) for _ in range(4))
        det = e[0] * e[3] - e[1] * e[2]
        if det > 0 and det.numerator % 2 == 1:
            out.append(e)
    return out


def matrix_label(e: tuple[Fraction, ...]) -> str:
    return hashlib.md5(repr(tuple(str(x) for x in e)).encode()).hexdigest()[:12]


def isogeny_degree(e: tuple[Fraction, ...]) -> int:
    """Determinant of the matrix made integral by the least common
    denominator, with the gcd of its entries divided out."""
    n = math.lcm(*(x.denominator for x in e))
    a, b, c, d = (int(x * n) for x in e)
    g = math.gcd(a, b, c, d)
    return (a * d - b * c) // (g * g)


def check_complex(text: str, argv: list[str], rng: random.Random) -> list[str]:
    seed = int(argv[argv.index("--seed") + 1])
    draws = int(argv[argv.index("--draws") + 1])
    payload, _ = _split_density(text)
    try:
        report = json.loads(payload)
    except ValueError as exc:
        return [f"complex-scatter seed {seed}: output is not JSON ({exc})"]
    samples = report.get("samples", [])
    problems = []
    if report.get("mode") != "complex" or report.get("seed") != seed:
        problems.append(f"complex-scatter seed {seed}: report says mode "
                        f"{report.get('mode')!r}, seed {report.get('seed')!r}")
    if len(samples) != draws or report.get("sample_count") != draws:
        problems.append(f"complex-scatter seed {seed}: {len(samples)} samples, "
                        f"sample_count {report.get('sample_count')}, expected {draws}")
    a, b, c = workloads.BASE
    base_parity = "odd" if (b * b - 4 * a * c) % 2 else "even"
    matrices = draw_matrices(seed, draws)
    by_label = {}
    for i, (s, e) in enumerate(zip(samples, matrices)):
        label = matrix_label(e)
        by_label[label] = (s, e)
        if s.get("label") != label:
            problems.append(f"complex-scatter seed {seed}: sample {i} has label "
                            f"{s.get('label')!r}, the draw gives {label}")
        if s.get("parity") != base_parity:
            problems.append(f"complex-scatter {label}: parity {s.get('parity')!r}, "
                            f"base is {base_parity}")
        degree = s.get("degree")
        if not (isinstance(degree, int) and degree > 0 and degree % 2 == 1):
            problems.append(f"complex-scatter {label}: degree {degree!r} is not odd positive")
        elif degree != isogeny_degree(e):
            problems.append(f"complex-scatter {label}: degree {degree}, expected "
                            f"{isogeny_degree(e)}")
    tau = tau_mp(a, b, c)
    for label in rng.sample(sorted(by_label), min(COMPLEX_SUBSET, len(by_label))):
        s, (ea, eb, ec, ed) = by_label[label]
        ea, eb, ec, ed = (mpf(x.numerator) / x.denominator for x in (ea, eb, ec, ed))
        z = (ea * tau + eb) / (ec * tau + ed)
        exact = j_mp(z)
        # non-finite values come as the strings "inf" and "-inf"
        re_j, im_j = float(s["re_j"]), float(s["im_j"])
        if not (_close(re_j, exact.real, abs(exact)) and _close(im_j, exact.imag, abs(exact))):
            problems.append(f"complex-scatter {label}: j = {re_j} + {im_j}i, mpmath gives "
                            f"{mpmath.nstr(exact, 15)}")
    return problems


def _order_of_disc(disc: int) -> tuple[int, int]:
    """(d, f): the squarefree part of disc and the conductor, from sympy."""
    d, s = -1, 1
    for p, e in sympy.factorint(-disc).items():
        d *= p ** (e % 2)
        s *= p ** (e // 2)
    return d, (s if d % 4 == 1 else s // 2)


def check_classify(argv: list[str], text: str) -> list[str]:
    a, b, c = map(int, argv[argv.index("--tau") + 1].split(","))
    if a < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    disc = b * b - 4 * a * c
    where = f"classify {a},{b},{c}"
    try:
        rec = json.loads(text)
    except ValueError as exc:
        return [f"{where}: output is not JSON ({exc})"]
    problems = []
    d, f = _order_of_disc(disc)
    expected = {"a": a, "b": b, "c": c, "disc": disc, "d": d, "f": f,
                "parity": "odd" if disc % 2 else "even"}
    for key, value in expected.items():
        if rec.get(key) != value:
            problems.append(f"{where}: {key} = {rec.get(key)!r}, expected {value!r}")
    j = j_mp(tau_mp(a, b, c))
    real = abs(j.imag) <= mpf("1e-25") * (1 + abs(j))
    if rec.get("real_j") is not real:
        problems.append(f"{where}: real_j = {rec.get('real_j')!r}, mpmath gives "
                        f"Im j / |j| = {mpmath.nstr(abs(j.imag) / (1 + abs(j)), 3)}")
    elif real:
        t = rec.get("t")
        branch = "T1" if j.real >= J_SPLIT - mpf("1e-6") else "T2"
        if rec.get("branch") != branch or not isinstance(t, float):
            problems.append(f"{where}: branch {rec.get('branch')!r}, t {t!r}; "
                            f"j = {mpmath.nstr(j.real, 15)} needs {branch}")
        else:
            on_locus = j_mp(mpc(0 if branch == "T1" else mpf(1) / 2, t))
            if abs(on_locus - j) > J_TOL * (1 + abs(j)):
                problems.append(f"{where}: j({branch}, t={t}) = "
                                f"{mpmath.nstr(on_locus.real, 15)}, j(tau) = "
                                f"{mpmath.nstr(j.real, 15)}")
    return problems


def check_enumerate(argv: list[str], text: str) -> list[str]:
    disc = int(argv[argv.index("--disc") + 1])
    where = f"enumerate {disc}"
    try:
        rec = json.loads(text)
    except ValueError as exc:
        return [f"{where}: output is not JSON ({exc})"]
    entries = rec.get("entries", [])
    expected = 2 ** (len(sympy.factorint(-disc)) - 1)
    problems = []
    if rec.get("disc") != disc or rec.get("count") != expected or len(entries) != expected:
        problems.append(f"{where}: disc {rec.get('disc')}, count {rec.get('count')}, "
                        f"{len(entries)} entries; expected {expected}")
    for e in entries:
        if e["b"] * e["b"] - 4 * e["a"] * e["c"] != disc:
            problems.append(f"{where}: entry ({e['a']},{e['b']},{e['c']}) has another discriminant")
        if not e["j"] < J_SPLIT:
            problems.append(f"{where}: entry beta={e.get('beta')} has j = {e['j']} >= 1728")
    return problems


def check_op(kind: str, argv: list[str], text: str, rng: random.Random) -> list[str]:
    """Problems with the output of one operation that exited 0."""
    if kind == "odd":
        return check_odd(text, rng)
    if kind == "complex":
        return check_complex(text, argv, rng)
    if argv[0] == "classify":
        return check_classify(argv, text)
    return check_enumerate(argv, text)


def check_run(records: list[dict], seed: int) -> tuple[int, list[str]]:
    """(failed operations, problems) of a run. A failure is a problem unless
    it is the known failure of a kind in workloads.FAULTY. Each distinct
    output is checked once; the same argv must always give the same bytes."""
    rng = random.Random(f"checks:{seed}")
    failed = 0
    problems: list[str] = []
    sha_of_argv: dict[tuple, str] = {}
    checked: set[str] = set()
    outputs = {r["sha256"]: r["out"] for r in records if "out" in r}
    for r in records:
        key = tuple(r["argv"])
        if sha_of_argv.setdefault(key, r["sha256"]) != r["sha256"]:
            problems.append(f"{' '.join(key)}: output differs between repeats")
        if r["code"] != 0:
            failed += 1
            known = workloads.FAULTY.get(r["kind"])
            if known is None or r["code"] != known[0] or known[1] not in r["err"]:
                problems.append(f"{' '.join(key)}: exit {r['code']}: {r['err'].strip()}")
            continue
        if r["sha256"] not in checked:
            checked.add(r["sha256"])
            problems += check_op(r["kind"], r["argv"], outputs[r["sha256"]], rng)
    return failed, problems
