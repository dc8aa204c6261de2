"""Exact invariants of central complex hyperplane arrangements.

The library computes, in exact integer and rational arithmetic, the
rank-2 intersection lattice of an arrangement and the group-theoretic
invariants that are determined by it: quadratic Orlik-Solomon data,
holonomy Lie algebra ranks, decomposability (over Q and over Z, with
torsion), LCS and Chen ranks, resonance and characteristic variety
components, and Milnor fiber first Betti numbers for multi-arrangements.
Closed-form formulas are always cross-checkable against independent
linear-algebra routes; nothing is ever evaluated in floating point.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    Flat2,
    L2Lattice,
    MultiArrangement,
    SimpleGraph,
    arrangement_rank,
    betti,
    compute_l2,
    graphic_arrangement,
    localization,
    make_arrangement,
    product,
)
from .catalog import CATALOG_NAMES, builtin
from .errors import (
    ArrangementError,
    CatalogError,
    DomainError,
    HypothesisError,
    ParseError,
    RefusalError,
    ResourceError,
)
from .formulas import (
    RankTable,
    chen_lower_bound,
    chen_ranks_decomposable,
    clique_counts,
    free_chen,
    graphic_lcs,
    lcs_ranks_decomposable,
)
from .holonomy import Analysis, holonomy_rank, holonomy_relators, local_h3_rank
from .jumploci import (
    LinearComponent,
    TorusComponent,
    characteristic_components,
    chen_ranks_from_resonance,
    resonance_components,
)
from .lyndon import LyndonBasis, lyndon_basis, lyndon_words, witt_count
from .milnor import (
    MilnorReport,
    local_b1_lower_bound,
    milnor_b1,
    monodromy_trivial_criterion,
)
from .osalgebra import OSQuadraticIdeal, falk_phi3, i2_basis
from .parsing import parse_arrangement, render_linear_form

__all__ = [
    "__version__",
    "Analysis",
    "Arrangement",
    "ArrangementError",
    "CATALOG_NAMES",
    "CatalogError",
    "DomainError",
    "Flat2",
    "HypothesisError",
    "L2Lattice",
    "LinearComponent",
    "LyndonBasis",
    "MilnorReport",
    "MultiArrangement",
    "OSQuadraticIdeal",
    "ParseError",
    "RankTable",
    "RefusalError",
    "ResourceError",
    "SimpleGraph",
    "TorusComponent",
    "arrangement_rank",
    "betti",
    "builtin",
    "characteristic_components",
    "chen_lower_bound",
    "chen_ranks_decomposable",
    "chen_ranks_from_resonance",
    "clique_counts",
    "compute_l2",
    "falk_phi3",
    "free_chen",
    "graphic_arrangement",
    "graphic_lcs",
    "holonomy_rank",
    "holonomy_relators",
    "i2_basis",
    "lcs_ranks_decomposable",
    "local_b1_lower_bound",
    "local_h3_rank",
    "localization",
    "lyndon_basis",
    "lyndon_words",
    "make_arrangement",
    "milnor_b1",
    "monodromy_trivial_criterion",
    "parse_arrangement",
    "product",
    "render_linear_form",
    "resonance_components",
    "witt_count",
]
