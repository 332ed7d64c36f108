"""State-sum invariants of tangles from crossed modules with Reidemeister pairs.

The layers, bottom up: finite groups and their homomorphisms (groups),
abelian decompositions and tensor squares (abelian), formal N[G] sums
(algebra), crossed and 2-crossed modules with their categorical groups
(crossed_modules), racks, quandles and 2-cocycles (racks), sliced tangle
diagrams with a move generator (diagrams), Reidemeister pairs (pairs), the
colouring/state-sum engine (engine), frozen reference tables (tables), and
a command line front end (cli).
"""

from .algebra import (
    GroupAlgebraElement,
    parse_algebra,
)
from .abelian import TensorSquare, cyclic_decomposition, product_of_cyclics
from .crossed_modules import (
    BraidedCrossedModule,
    CGMorphism,
    CrossedModule,
    TwoCrossedModule,
    abelianisation_tensor_2xmod,
    braided_from_central_extension,
    validate_2xmod,
    validate_crossed_module,
    xm_identity,
    xm_pair_with_module,
    xm_trivial_boundary,
)
from .diagrams import (
    Enhancement,
    MovePair,
    SlicedTangleDiagram,
    braid_word_to_tangle,
    catalog_names,
    load_catalog,
    move_neighbours,
    parse_tangle,
    serialize_tangle,
    single_strand,
    trace_closure,
    trefoil_minus_string,
    trefoil_plus_string,
)
from .engine import (
    AbelianisationComparison,
    Colouring,
    InvariantValue,
    abelianisation_framed_invariant,
    enumerate_colourings,
    evaluate,
    invariant,
    invariant_matrix,
    longitude_value,
    longitude_word,
    tqft_compose_check,
    wirtinger_count,
)
from .errors import TangleSumError
from .groups import (
    FiniteGroup,
    GroupHom,
    abelianization,
    commutator_subgroup,
    cyclic_group,
    direct_product,
    from_cayley_csv,
    gl2,
    pgl2,
    symmetric_group,
    trivial_group,
)
from .pairs import (
    CrossingTransfer,
    ReidemeisterPair,
    build_transfer,
    lifting_shadow_check,
    pair_eisermann,
    pair_eisermann_lift_framed,
    pair_eisermann_lift_unframed,
    pair_from_2xmod,
    pair_from_rack,
    pair_from_rack_cocycle,
    validate_pair,
)
from .racks import (
    Rack,
    RackCocycle,
    cjkls_state_sum,
    cocycle_from_function,
    cocycle_from_json,
    conjugation_quandle,
    dihedral_quandle,
    eisermann_quandle,
    rack_colouring_count,
    rack_from_csv,
    validate_cocycle,
    validate_rack,
)
from .tables import compute_cell, diff_all, diff_table, expected_cell
from .validation import CheckResult, ValidationReport, Violation

__version__ = "0.1.0"

__all__ = [
    # algebra
    "GroupAlgebraElement", "parse_algebra",
    # abelian
    "TensorSquare", "cyclic_decomposition", "product_of_cyclics",
    # crossed_modules
    "BraidedCrossedModule", "CGMorphism", "CrossedModule", "TwoCrossedModule",
    "abelianisation_tensor_2xmod", "braided_from_central_extension",
    "validate_2xmod", "validate_crossed_module", "xm_identity",
    "xm_pair_with_module", "xm_trivial_boundary",
    # diagrams
    "Enhancement", "MovePair", "SlicedTangleDiagram", "braid_word_to_tangle",
    "catalog_names", "load_catalog", "move_neighbours", "parse_tangle",
    "serialize_tangle", "single_strand", "trace_closure",
    "trefoil_minus_string", "trefoil_plus_string",
    # engine
    "AbelianisationComparison", "Colouring", "InvariantValue",
    "abelianisation_framed_invariant", "enumerate_colourings", "evaluate",
    "invariant", "invariant_matrix", "longitude_value", "longitude_word",
    "tqft_compose_check", "wirtinger_count",
    # errors
    "TangleSumError",
    # groups
    "FiniteGroup", "GroupHom", "abelianization", "commutator_subgroup",
    "cyclic_group", "direct_product", "from_cayley_csv", "gl2", "pgl2",
    "symmetric_group", "trivial_group",
    # pairs
    "CrossingTransfer", "ReidemeisterPair", "build_transfer",
    "lifting_shadow_check", "pair_eisermann", "pair_eisermann_lift_framed",
    "pair_eisermann_lift_unframed", "pair_from_2xmod", "pair_from_rack",
    "pair_from_rack_cocycle", "validate_pair",
    # racks
    "Rack", "RackCocycle", "cjkls_state_sum", "cocycle_from_function",
    "cocycle_from_json", "conjugation_quandle", "dihedral_quandle",
    "eisermann_quandle", "rack_colouring_count", "rack_from_csv",
    "validate_cocycle", "validate_rack",
    # tables
    "compute_cell", "diff_all", "diff_table", "expected_cell",
    # validation
    "CheckResult", "ValidationReport", "Violation",
]
