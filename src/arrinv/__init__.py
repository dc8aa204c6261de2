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

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.  A name is imported
# with its module on first access (PEP 562), so importing the package, or
# running ``python -m arrinv.cli``, loads no module it does not use.
_EXPORTS = {
    "arrangement": ("Arrangement", "Flat2", "L2Lattice", "MultiArrangement", "SimpleGraph",
                    "arrangement_rank", "betti", "compute_l2", "graphic_arrangement",
                    "make_arrangement", "render_linear_form"),
    "catalog": ("CATALOG_NAMES", "builtin"),
    "errors": ("ArrangementError", "CatalogError", "DomainError", "HypothesisError",
               "ParseError", "RefusalError", "ResourceError"),
    "formulas": ("RankTable", "chen_lower_bound", "chen_ranks_decomposable", "clique_counts",
                 "free_chen", "graphic_lcs", "lcs_ranks_decomposable"),
    "holonomy": ("Analysis", "holonomy_rank", "holonomy_relators", "local_rank", "witt_count"),
    "jumploci": ("LinearComponent", "TorusComponent", "characteristic_components",
                 "chen_ranks_from_resonance", "resonance_components"),
    "milnor": ("MilnorReport", "local_b1_lower_bound", "milnor_b1",
               "monodromy_trivial_criterion"),
    "osalgebra": ("OSQuadraticIdeal", "falk_phi3", "i2_basis"),
    "parsing": ("parse_arrangement",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
