"""Exact-arithmetic construction and verification of odd-weight CM Hodge structures.

The package builds oriented CM fields as finite combinatorial data, realizes
the attached symplectic Lie algebra over a cyclotomic coefficient field, and
verifies rank nondegeneracy, support-partition imprimitivity, nilpotent
escape, and horizontal rigidity on concrete inputs, all without a single
floating-point number.
"""

from .algebra import (
    AlgebraElement,
    all_root_indices,
    bidegree,
    bracket,
    canonical_root_index,
    cartan_elements,
    element_from_coeffs,
    element_from_json,
    galois_act_element,
    generated_subalgebra,
    is_rational,
    rational_nilpotency_degree,
    reynolds_average,
    root_vector,
    zero_element,
)
from .cmfield import (
    GaloisCMData,
    Orientation,
    OrientedCMField,
    basis_pos,
    build_abstract_cm,
    build_cyclotomic_cm,
    enumerate_orientations,
    field_from_json,
    field_to_json,
    oriented_from_json,
    oriented_to_json,
    validate_orientation,
)
from .cyclotomic import CyclotomicNumber, euler_phi
from .errors import (
    CMHodgeError,
    ConductorMismatchError,
    DomainError,
    EnumerationCapError,
    InvalidOrientationError,
    NotCMFieldError,
    NotNilpotentError,
    PreconditionError,
    TheoremViolationError,
    UsageError,
)
from .graphs import (
    is_block_system,
    support_graph,
    trivial_partition_check,
)
from .polynomials import Poly, cyclotomic_polynomial, poly_gcd
from .verifiers import (
    CirculantSpec,
    circulant_matrix,
    circulant_rank,
    escape_verdict,
    nondegeneracy_verdict,
    orbit_rank,
    ribet_dichotomy,
    rigidity_verdict,
)

__version__ = "0.1.0"
