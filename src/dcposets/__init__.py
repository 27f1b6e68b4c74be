"""d-complete posets: diagonals, hook vectors, a toggle-based insertion
bijection, and exact verification of the hook length formulas."""

from .analysis import PosetAnalysis, analyze
from .catalog import CatalogEntry, catalog, catalog_names
from .diagonals import DiagonalPartition, compute_diagonals, diagonal_report
from .dstructure import (
    AxiomReport,
    DInterval,
    DMinusConvexSet,
    check_d_complete,
    find_d_intervals,
    find_d_minus_convex_sets,
    structure_report,
)
from .families import builtin_poset, d_k_one, shifted_young, tree, young
from .hooks import (
    all_ones_point,
    hook_polynomial_eval,
    hook_vectors,
    random_rational_point,
)
from .poset import (
    CycleError,
    ExtensionLimitError,
    Poset,
    count_linear_extensions,
    is_descending_extension,
    linear_extensions,
)
from .rsk import (
    NonGenericPoint,
    diagonal_sums,
    inverse_rsk,
    is_order_reversing,
    is_stable,
    random_filling,
    rsk,
    rsk_jacobian_det,
    stable_insertion_order,
)
from .verify import (
    PolytopeSpec,
    closed_form_volume,
    monte_carlo_volume,
    polytope_membership,
    rsk_polytope_check,
    sample_fillings_point,
    verify_multivariate,
    verify_proctor,
    weight_sum,
)

__version__ = "0.1.0"
