"""The package's public names, and the modules that importing it and running a
command load."""

import ast
import importlib
import subprocess
import sys

import pytest

import cmparity

# every exported name, by the submodule that defines it
EXPORTS = {
    "cmpoints": [
        "Lattice", "QuadElement", "TauExact", "halfint_membership", "is_maximal_halfint",
        "lattice_of_tau", "multiplier_ring", "order_contains", "order_of_tau",
        "parity_of_tau", "tau_from_beta", "tau_from_element",
    ],
    "density": [
        "CoverageReport", "DensityConfig", "Mode", "emit", "sample_complex",
        "sample_even", "sample_odd",
    ],
    "enumeration": [
        "CMClassPoint", "count_saturated_below_sqrt", "enumerate_real_odd_cm",
        "min_j_gap", "saturated_divisors",
    ],
    "errors": [
        "BadBaseError", "DegenerateLatticeError", "InternalCheckError",
        "NotADivisorError", "NotASublatticeError", "NotInGroupError", "NotRealJError",
    ],
    "factorint": ["FactoredInt", "factorize"],
    "isogenies": [
        "Isogeny", "RatMatrix2", "in_odd_group", "lattice_index", "moebius",
        "odd_isogeny", "parity_transport_check",
    ],
    "modular": [
        "TPoint", "axis_curve", "f_curve", "is_real_j", "j_numeric", "j_of_tau",
        "reduce_fundamental", "t_representative",
    ],
    "quadorders": [
        "CanonicalForm", "CanonicalKind", "Parity", "QuadOrder", "SquarefreeInt",
        "canonical_generator", "field_discriminant", "order_discriminant",
        "order_from_canonical", "order_from_discriminant", "parity", "quad_order",
        "squarefree", "trace_lattice",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_exactly_the_exported_names():
    assert len(cmparity.__all__) == len(set(cmparity.__all__))
    assert set(cmparity.__all__) == {name for _, name in NAMES}


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_the_object_its_submodule_defines(module, name):
    defining = importlib.import_module(f"cmparity.{module}")
    assert getattr(cmparity, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cmparity import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cmparity.no_such_name  # noqa: B018
    assert not hasattr(cmparity, "no_such_name")


# Modules in sys.modules at the start (what a bare `python -c pass` holds, so
# whatever site preloads here cancels out), then after each step, one list a line.
FOOTPRINT_SCRIPT = """
import io, sys
stages = [sorted(sys.modules)]
import cmparity.cli
stages.append(sorted(sys.modules))
stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
cmparity.cli.main(["classify", "--tau", "3,5,7"])
stages.append(sorted(sys.modules))
cmparity.cli.main(["density", "--mode", "odd", "--base", "1,-1,1", "--max-denominator", "3"])
stages.append(sorted(sys.modules))
sys.stdout = stdout
for stage in stages:
    print(stage)
"""


@pytest.fixture(scope="module")
def loaded():
    """The modules a fresh interpreter holds after each step (import, then
    classify, then density --mode odd) and did not hold at its start."""
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    bare, *steps = (set(ast.literal_eval(line)) for line in proc.stdout.splitlines())
    return {
        step: after - bare
        for step, after in zip(("import", "classify", "density-odd"), steps, strict=True)
    }


def test_importing_the_cli_loads_no_layer(loaded):
    added = loaded["import"]
    assert {m for m in added if m.partition(".")[0] == "cmparity"} == {
        "cmparity", "cmparity.cli", "cmparity.errors"
    }
    assert not added & {"dataclasses", "fractions", "decimal", "hashlib", "json"}


def test_classify_loads_only_its_layers(loaded):
    assert not loaded["classify"] & {
        "cmparity.density", "cmparity.isogenies", "cmparity.enumeration"
    }


def test_odd_density_loads_no_hashlib(loaded):
    assert "hashlib" not in loaded["density-odd"]
