"""Parity of quadratic orders and CM points, odd-degree isogenies, and the
real locus of the modular j-invariant.

Importing the package loads none of its layers. Each exported name is taken
from its submodule the first time it is asked for (a module __getattr__, PEP
562), so `import cmparity.cli` costs the argument parser and little more.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "cmpoints": """Lattice QuadElement TauExact lattice_of_tau multiplier_ring
            order_of_tau parity_of_tau tau_from_beta""",
        "density": """CoverageReport DensityConfig Mode emit sample_complex sample_even
            sample_odd""",
        "enumeration": """CMClassPoint count_saturated_below_sqrt enumerate_real_odd_cm
            min_j_gap saturated_divisors""",
        "errors": """BadBaseError DegenerateLatticeError InternalCheckError NotInGroupError
            NotRealJError""",
        "factorint": "FactoredInt factorize",
        "isogenies": """Isogeny RatMatrix2 in_odd_group moebius odd_isogeny
            parity_transport_check""",
        "modular": """TPoint axis_curve f_curve is_real_j j_numeric j_of_tau
            reduce_fundamental t_representative""",
        "quadorders": """CanonicalForm CanonicalKind Parity QuadOrder SquarefreeInt
            canonical_generator field_discriminant order_discriminant order_from_canonical
            order_from_discriminant parity quad_order squarefree trace_lattice""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, taken from its submodule on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value
