"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line printed per criterion (bypassing capture so the lines always
show)."""

import json
import math
import random
import resource
import subprocess
import sys
import time

import pytest

from cmparity import (
    CanonicalKind,
    Parity,
    QuadOrder,
    TauExact,
    canonical_generator,
    count_saturated_below_sqrt,
    enumerate_real_odd_cm,
    factorize,
    field_discriminant,
    j_numeric,
    lattice_of_tau,
    multiplier_ring,
    order_discriminant,
    order_of_tau,
    parity,
    parity_transport_check,
    saturated_divisors,
    squarefree,
    t_representative,
    tau_from_beta,
    trace_lattice,
)
from cmparity.density import DensityConfig, sample_even, sample_odd
from cmparity.factorint import is_squarefree

from conftest import random_odd_matrix, random_tau

# pinned tolerances and limits
J_I_ABS_TOL = 1e-6
J_RHO_ABS_TOL = 1e-6
J_SEVEN_ABS_TOL = 1e-3
ENUMERATE_TIME_LIMIT = 1.0  # CPU seconds, per call
KEY_FORMULA_TIME_LIMIT = 30.0
SATURATED_TIME_LIMIT = 60.0
TRANSPORT_PAIRS = 1000
TRANSPORT_SEED = 20240815
ODD_BOUND_GRACE = 1e-6  # numerical grace under the strict 1728 bound
IM_J_REL_TOL = 1e-6
T_REP_ABS_TOL = 1e-9


@pytest.fixture
def report(capsys):
    """Print a pass/fail line for a criterion, bypassing output capture."""

    def _report(name: str, ok: bool, detail: str = ""):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)

    return _report


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _cli_enumerate(disc: int) -> tuple[dict, float]:
    # CPU time (user + sys) of the child, so a loaded machine does not count
    start = _children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "cmparity", "enumerate", "--disc", str(disc), "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = _children_cpu_s() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def test_criterion_1_classification_counts(report):
    ok = True
    details = []
    for disc, expected in ((-3, 1), (-15, 2), (-1155, 8)):
        payload, elapsed = _cli_enumerate(disc)
        details.append(f"D={disc}: {payload['count']} in {elapsed:.2f}s CPU")
        ok = ok and payload["count"] == expected and elapsed < ENUMERATE_TIME_LIMIT
        assert payload["count"] == expected
        assert len(payload["entries"]) == expected
        assert elapsed < ENUMERATE_TIME_LIMIT
    report("criterion 1: classification counts", ok, "; ".join(details))


def test_criterion_2_special_j_values(report):
    j_i = j_numeric(1j)
    j_rho = j_numeric(complex(0.5, math.sqrt(3) / 2))
    j_seven = j_numeric(complex(0.5, math.sqrt(7) / 2))
    ok = (
        abs(j_i - 1728) < J_I_ABS_TOL
        and abs(j_rho) < J_RHO_ABS_TOL
        and abs(j_seven + 3375) < J_SEVEN_ABS_TOL
    )
    report(
        "criterion 2: special j-values",
        ok,
        f"j(i)-1728={abs(j_i - 1728):.2e}, |j(rho)|={abs(j_rho):.2e}, "
        f"j+3375={abs(j_seven + 3375):.2e}",
    )
    assert abs(j_i - 1728) < J_I_ABS_TOL
    assert abs(j_rho) < J_RHO_ABS_TOL
    assert abs(j_seven + 3375) < J_SEVEN_ABS_TOL


def test_criterion_3_key_formula_vs_oracle(report):
    start = time.perf_counter()
    mismatches = 0
    pairs = 0
    for beta in range(1, 100, 2):
        for disc in range(-3, -400, -4):
            g = math.gcd(abs(disc), beta * beta)
            point = tau_from_beta(disc, beta)
            expected = (beta * beta // g) * (disc // g)
            direct = order_of_tau(point)
            solved = multiplier_ring(lattice_of_tau(point))
            if (
                point.disc != expected
                or order_discriminant(direct) != expected
                or direct != solved
            ):
                mismatches += 1
            pairs += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < KEY_FORMULA_TIME_LIMIT
    report(
        "criterion 3: closed form vs multiplier-ring oracle",
        ok,
        f"{pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < KEY_FORMULA_TIME_LIMIT


def test_criterion_4_parity_transport(report):
    rng = random.Random(TRANSPORT_SEED)
    failures = 0
    for _ in range(TRANSPORT_PAIRS):
        matrix = random_odd_matrix(rng)
        point = random_tau(rng)
        if not parity_transport_check(matrix, point):
            failures += 1
    ok = failures == 0
    report(
        "criterion 4: parity transport",
        ok,
        f"{TRANSPORT_PAIRS} seeded pairs, {failures} failures",
    )
    assert failures == 0


def _brute_force_saturated_count(n: int) -> int:
    m = abs(n)
    found = set()
    for r in range(1, math.isqrt(m) + 1):
        if m % r:
            continue
        for cand in (r, m // r):
            if math.gcd(cand, m // cand) == 1:
                found.add(cand)
    return len(found)


def test_criterion_5_saturated_divisors(report):
    start = time.perf_counter()
    bad = 0
    for n in range(2, 10001):
        divisors = saturated_divisors(n)
        k = len(factorize(n).factors)
        if len(divisors) != 2**k or len(divisors) != _brute_force_saturated_count(n):
            bad += 1
        if saturated_divisors(-n) != divisors:
            bad += 1
        if sorted(n // r for r in divisors) != divisors:  # r -> n/r involution
            bad += 1
        if (-n) % 4 == 1:
            below = count_saturated_below_sqrt(-n)
            if below != 2 ** (k - 1):
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < SATURATED_TIME_LIMIT
    report(
        "criterion 5: saturated divisors vs brute force",
        ok,
        f"2 <= |n| <= 10^4, {bad} discrepancies, {elapsed:.1f}s",
    )
    assert bad == 0
    assert elapsed < SATURATED_TIME_LIMIT


def test_criterion_6_odd_density_bound(report):
    base = TauExact(1, -1, 1)
    maxima = []
    strict_ok = True
    grace_ok = True
    for bound in (9, 99, 999):
        cov = sample_odd(
            DensityConfig(base=base, denom_bound=bound)
        )
        strict_ok = strict_ok and all(s.j.real < 1728.0 for s in cov.samples)
        grace_ok = grace_ok and all(
            s.j.real < 1728.0 + ODD_BOUND_GRACE for s in cov.samples
        )
        maxima.append(cov.max_j)
    increasing = maxima[0] < maxima[1] < maxima[2]
    ok = strict_ok and grace_ok and increasing
    report(
        "criterion 6: odd density strict bound and refinement",
        ok,
        f"max_j at N=9,99,999: {maxima[0]:.6f}, {maxima[1]:.6f}, {maxima[2]:.10f}; "
        f"margin at N=999: {1728 - maxima[2]:.2e}",
    )
    assert strict_ok and grace_ok and increasing


def test_criterion_7_even_density_spread(report):
    ok = True
    details = []
    for base in (TauExact(1, 0, 1), TauExact(1, 0, 2), TauExact(1, 0, 3), TauExact(1, 0, 7)):
        cov = sample_even(
            DensityConfig(base=base, denom_bound=9)
        )
        res = [s.j.real for s in cov.samples]
        has_high = any(r >= 1728.0 for r in res)
        has_low = any(r < 1728.0 for r in res)
        all_even = all(s.parity is Parity.EVEN for s in cov.samples)
        ok = ok and has_high and has_low and all_even
        details.append(f"disc {base.disc}: {len(res)} samples")
        assert has_high and has_low and all_even
    report("criterion 7: even density spans both sides of 1728", ok, "; ".join(details))


def test_criterion_8_parity_equivalences(report):
    start = time.perf_counter()
    bad = 0
    orders = 0
    for d in range(-500, 501):
        if d in (0, 1) or not is_squarefree(d):
            continue
        sq = squarefree(d)
        fd = field_discriminant(sq)
        for f in range(1, 51):
            order = QuadOrder(sq, f)
            by_disc = Parity.ODD if order_discriminant(order) % 2 else Parity.EVEN
            by_parts = Parity.ODD if (fd % 2 and f % 2) else Parity.EVEN
            by_trace = Parity.ODD if trace_lattice(order) == 1 else Parity.EVEN
            by_canon = (
                Parity.ODD
                if canonical_generator(order).kind is CanonicalKind.HALF_INTEGER
                else Parity.EVEN
            )
            if not (parity(order) == by_disc == by_parts == by_trace == by_canon):
                bad += 1
            orders += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0
    report(
        "criterion 8: parity equivalences",
        ok,
        f"{orders} orders, {bad} disagreements, {elapsed:.1f}s",
    )
    assert bad == 0


def test_criterion_9_real_j_consistency(report):
    worst_im = 0.0
    worst_t = 0.0
    points = 0
    for disc in range(-3, -1000, -4):
        for point in enumerate_real_odd_cm(disc):
            j = j_numeric(complex(point.tau))
            rel_im = abs(j.imag) / (1.0 + abs(j))
            worst_im = max(worst_im, rel_im)
            rep = t_representative(point.tau)
            assert rep.branch == "T2"
            t_expected = math.sqrt(abs(disc)) / (2 * point.beta)
            worst_t = max(worst_t, abs(rep.t - t_expected))
            points += 1
    ok = worst_im < IM_J_REL_TOL and worst_t < T_REP_ABS_TOL
    report(
        "criterion 9: real-j consistency of the enumeration",
        ok,
        f"{points} points, worst |Im j| rel {worst_im:.2e}, worst t error {worst_t:.2e}",
    )
    assert worst_im < IM_J_REL_TOL
    assert worst_t < T_REP_ABS_TOL
