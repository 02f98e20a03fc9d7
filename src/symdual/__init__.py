"""symdual: exact orbit combinatorics of symmetric squarefree monomial ideals.

Given the orbit generators of a column-permutation-invariant chain of
squarefree monomial ideals, compute minimal orbit generators of the
Alexander duals, facet and face orbit counts, orthant decompositions of
sum-constrained polyhedra, and the eventually-polynomial counting functions
of the ambient width, all cross-validated by a brute-force oracle at small
scale.
"""

from .avoidance import find_avoiding_permutation, violating_order_ideal
from .counting import (
    RationalPolynomial,
    count_series,
    default_degree_bound,
    dual_orbit_count,
    face_orbit_count,
    facet_orbits_by_dimension,
    fit_polynomial,
    min_degree_line,
    type_vectors_of_degree,
)
from .dual_core import (
    divides_up_to_sym,
    general_candidates,
    k_of_antichain,
    min_degree_gens,
    min_gens,
    one_orbit_min_gens,
)
from .errors import (
    CapError,
    FitError,
    InputError,
    SymdualError,
    VerificationError,
    WidthError,
)
from .lattice_geometry import (
    Orthant,
    SumPolyhedron,
    cone_decompose,
    count_on_slice,
    slice_polynomial_threshold,
)
from .orbit_monomials import (
    GeneratorSystem,
    TypeVector,
    generator_system_from_json,
    generator_system_to_json,
    orbit_size,
    type_vector_from_json,
    type_vector_of_matrix,
    type_vector_to_json,
)

__version__ = "0.1.0"
