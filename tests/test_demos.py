"""The demos run end to end."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = [
    "01_order_parity.py",
    "02_cm_points.py",
    "03_odd_isogenies.py",
    "04_real_j_locus.py",
    "05_enumerate_discriminants.py",
    "06_density_experiments.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / demo)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_isogeny_demo_output_pinned():
    # taken from the Fraction-based Moebius action, before it moved to integers
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / "03_odd_isogenies.py")],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        hashlib.sha256(proc.stdout).hexdigest()
        == "730352a448cac82ab8067fb86329ff6355c8e596d1556a42abec12199f36add2"
    )
