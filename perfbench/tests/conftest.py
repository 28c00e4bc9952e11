"""Puts the benchmark's modules and cmparity's sources on the path.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
os.environ["CMPARITY_THREADS"] = "1"
