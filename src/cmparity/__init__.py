"""Parity of quadratic orders and CM points, odd-degree isogenies, and the
real locus of the modular j-invariant."""

from .cmpoints import (
    Lattice,
    QuadElement,
    TauExact,
    halfint_membership,
    is_maximal_halfint,
    lattice_of_tau,
    multiplier_ring,
    order_contains,
    order_of_tau,
    parity_of_tau,
    tau_from_beta,
    tau_from_element,
)
from .density import (
    CoverageReport,
    DensityConfig,
    Mode,
    emit,
    sample_complex,
    sample_even,
    sample_odd,
)
from .enumeration import (
    CMClassPoint,
    count_saturated_below_sqrt,
    enumerate_real_odd_cm,
    min_j_gap,
    saturated_divisors,
)
from .errors import (
    BadBaseError,
    DegenerateLatticeError,
    InternalCheckError,
    NotADivisorError,
    NotASublatticeError,
    NotInGroupError,
    NotRealJError,
)
from .factorint import FactoredInt, factorize
from .isogenies import (
    Isogeny,
    RatMatrix2,
    in_odd_group,
    lattice_index,
    moebius,
    odd_isogeny,
    parity_transport_check,
)
from .modular import (
    TPoint,
    axis_curve,
    f_curve,
    is_real_j,
    j_numeric,
    j_of_tau,
    reduce_fundamental,
    t_representative,
)
from .quadorders import (
    CanonicalForm,
    CanonicalKind,
    Parity,
    QuadOrder,
    SquarefreeInt,
    canonical_generator,
    field_discriminant,
    order_discriminant,
    order_from_canonical,
    order_from_discriminant,
    parity,
    quad_order,
    squarefree,
    trace_lattice,
)

__version__ = "0.1.0"
