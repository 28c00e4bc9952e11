"""The benchmark's checks accept cmparity's real outputs and reject corrupted
ones: a j at or above 1728, a wrong count, a changed parity or degree, j
values off the mpmath reference, and failures that are not the known ones."""

import csv
import io
import json
import random

import pytest

import checks
import workloads
from worker import call


def run(argv):
    code, _, _, out, err = call(argv)
    assert code == 0, err
    return out.decode()


def rng():
    return random.Random(0)


def edit_csv(text, edit):
    """Apply edit(rows) to the data rows of an odd-family CSV report."""
    payload, summary = text.rstrip("\n").rsplit("\n", 1)
    header, *rows = list(csv.reader(payload.splitlines()))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *edit(rows)])
    return out.getvalue() + summary + "\n"


def edit_json(text, edit):
    """Apply edit(report) to the JSON report of a density run."""
    payload, summary = text.rstrip("\n").rsplit("\n", 1)
    report = json.loads(payload)
    edit(report)
    return json.dumps(report) + "\n" + summary + "\n"


@pytest.fixture(scope="module")
def odd_text():
    return run(workloads.ODD_ARGV)


@pytest.fixture(scope="module")
def complex_case():
    (_, argv), = workloads.round_ops("complex-scatter", 1, 0)
    return argv, run(argv)


def test_odd_output_passes(odd_text):
    assert checks.check_odd(odd_text, rng()) == []


def set_field(index, column, value):
    def edit(rows):
        rows[index][column] = value
        return rows
    return edit


def scale_finite_j(rows):
    for row in rows:
        if row[1] not in ("inf", "-inf"):
            row[1] = repr(float(row[1]) * (1 + 1e-6) + 1e-3)
    return rows


@pytest.mark.parametrize("edit, message", [
    (set_field(0, 1, "1728"), "not below 1728"),
    (set_field(7, 1, "inf"), "not below 1728"),
    (lambda rows: rows[:-1], "expected"),
    (lambda rows: rows + [["3,1", "0", "0", "T2", "odd", "3"]], "expected"),
    (set_field(5, 4, "even"), "parity"),
    (set_field(3, 5, "4"), "not odd"),
    (set_field(2, 2, "5.0"), "imaginary part"),
    (scale_finite_j, "mpmath gives"),
])
def test_odd_corruption_is_rejected(odd_text, edit, message):
    problems = checks.check_odd(edit_csv(odd_text, edit), rng())
    assert any(message in p for p in problems), problems


def test_complex_output_passes(complex_case):
    argv, text = complex_case
    assert checks.check_complex(text, argv, rng()) == []


def flip_parity(report):
    report["samples"][0]["parity"] = "even"


def bump_degree(report):
    report["samples"][1]["degree"] += 2


def drop_sample(report):
    report["samples"].pop()
    report["sample_count"] -= 1


def swap_labels(report):
    s = report["samples"]
    s[0]["label"], s[1]["label"] = s[1]["label"], s[0]["label"]


def scale_j(report):
    for s in report["samples"]:
        if isinstance(s["re_j"], float):
            s["re_j"] = s["re_j"] * (1 + 1e-6) + 1e-3


@pytest.mark.parametrize("edit, message", [
    (flip_parity, "parity"),
    (bump_degree, "expected"),
    (drop_sample, "expected 1000"),
    (swap_labels, "the draw gives"),
    (scale_j, "mpmath gives"),
])
def test_complex_corruption_is_rejected(complex_case, edit, message):
    argv, text = complex_case
    problems = checks.check_complex(edit_json(text, edit), argv, rng())
    assert any(message in p for p in problems), problems


CLASSIFY_REAL = ["classify", "--tau", "3,-6,10", "--json"]  # i*sqrt(7/3) moved by 1
CLASSIFY_COMPLEX = ["classify", "--tau", "3,5,7", "--json"]
ENUMERATE = ["enumerate", "--disc", "-1155", "--json"]


def test_lookup_outputs_pass():
    for argv in (CLASSIFY_REAL, CLASSIFY_COMPLEX):
        assert checks.check_classify(argv, run(argv)) == []
    assert json.loads(run(CLASSIFY_REAL))["real_j"] is True
    assert checks.check_enumerate(ENUMERATE, run(ENUMERATE)) == []


@pytest.mark.parametrize("argv, key, value, message", [
    (CLASSIFY_REAL, "real_j", False, "real_j"),
    (CLASSIFY_COMPLEX, "real_j", True, "real_j"),
    (CLASSIFY_COMPLEX, "parity", "even", "parity"),
    (CLASSIFY_REAL, "d", -7, "d ="),
    (CLASSIFY_REAL, "f", 3, "f ="),
    (CLASSIFY_REAL, "branch", "T2", "needs"),
])
def test_classify_corruption_is_rejected(argv, key, value, message):
    record = json.loads(run(argv))
    record[key] = value
    problems = checks.check_classify(argv, json.dumps(record))
    assert any(message in p for p in problems), problems


def test_classify_wrong_t_is_rejected():
    record = json.loads(run(CLASSIFY_REAL))
    record["t"] *= 1 + 1e-6
    problems = checks.check_classify(CLASSIFY_REAL, json.dumps(record))
    assert any("j(tau)" in p for p in problems), problems


def test_enumerate_corruption_is_rejected():
    good = json.loads(run(ENUMERATE))
    dropped = dict(good, entries=good["entries"][1:], count=good["count"] - 1)
    high = dict(good, entries=[dict(e, j=1800.0) for e in good["entries"]])
    moved = dict(good, entries=[dict(e, c=e["c"] + 1) for e in good["entries"]])
    cases = ((dropped, "expected"), (high, ">= 1728"), (moved, "another discriminant"))
    for record, message in cases:
        problems = checks.check_enumerate(ENUMERATE, json.dumps(record))
        assert any(message in p for p in problems), problems


def record(kind, argv, code=0, out="", err="", sha="x"):
    return {"kind": kind, "argv": argv, "code": code, "err": err, "sha256": sha, "out": out,
            "round": 0}


def test_run_counts_known_failures_and_rejects_others():
    enum = record("enumerate-small", ENUMERATE, out=run(ENUMERATE), sha="a")
    known = record("enumerate-pq", ["enumerate", "--disc", str(workloads.PQ_DISC), "--json"],
                   code=2, err="error: cannot factor cofactor 1 by trial division", sha="b")
    assert checks.check_run([enum, known], 0) == (1, [])

    unknown = record("classify-random", CLASSIFY_COMPLEX, code=1, err="internal error", sha="b")
    failed, problems = checks.check_run([enum, unknown], 0)
    assert failed == 1 and any("exit 1" in p for p in problems)

    repeat = dict(enum, sha256="c", out=run(ENUMERATE))
    _, problems = checks.check_run([enum, repeat], 0)
    assert any("differs between repeats" in p for p in problems)
