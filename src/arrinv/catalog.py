"""Named arrangements used throughout the examples and tests.

All catalog entries are built from explicit defining polynomials (or, for
the graphic family, an edge list), so the parser is the single source of
normals and labels.  The split_solvable family replaces the classical
root-of-unity slopes with distinct integers 1..m; this keeps every normal
rational and leaves the rank-2 lattice unchanged, which is all the
invariants here depend on.
"""

from __future__ import annotations

from .arrangement import Arrangement, SimpleGraph, graphic_arrangement
from .errors import CatalogError, ResourceError
from .parsing import parse_arrangement

# largest graphic vertex label: each edge is a normal with one entry per vertex
MAX_GRAPHIC_LABEL = 10_000

# fixed small arrangements, by their defining polynomials
_POLYNOMIALS = {
    "x3": "xyz(x+y)(x+z)(y+z)",
    "x2": "xyz(y-z)(x-z)(x+y)(x+y-2z)",
    "nonpappus": "xyz(x+y)(y+z)(x+3z)(x+2y+z)(x+2y+3z)(2x+3y+3z)",
    # a realization of the (9_3)_1 configuration: nine lines, nine triple
    # points, same Moebius multiset as nonpappus but a different lattice
    "pappus": "[x,y,z] y(y-z)(x-y)(x+y-z)(x-3y)(x+2y-2z)(x-2y-z)(x+y-2z)(x+7y-4z)",
}

CATALOG_NAMES = ("braid", "x3", "x2", "nonpappus", "pappus", "split_solvable", "graphic")


def _braid_polynomial(n: int) -> str:
    names = ("x", "y", "z") if n == 3 else tuple("x%d" % (i + 1) for i in range(n))
    parts = []
    for i in range(n):
        for j in range(i + 1, n):
            parts.append("(%s+%s)(%s-%s)" % (names[i], names[j], names[i], names[j]))
    return "".join(parts)


def _split_solvable_polynomial(ms: tuple[int, ...]) -> str:
    parts = ["z0"]
    for i, m in enumerate(ms, start=1):
        for q in range(1, m + 1):
            coef = "" if q == 1 else str(q)
            parts.append("(z0-%sz%d)" % (coef, i))
    return "".join(parts)


def _int_params(params) -> tuple[int, ...]:
    out = []
    for p in params:
        if isinstance(p, bool) or not isinstance(p, int):
            raise CatalogError("parameters must be integers, got %r" % (p,))
        out.append(p)
    return tuple(out)


def _edge_params(params) -> SimpleGraph:
    edges = []
    for e in params:
        try:
            a, b = e
        except (TypeError, ValueError):
            raise CatalogError("graphic parameters must be edge pairs") from None
        edges.append((min(a, b), max(a, b)))
    if not edges:
        raise CatalogError("graphic needs at least one edge")
    top = max(max(e) for e in edges)
    if top > MAX_GRAPHIC_LABEL:
        raise ResourceError("graphic vertex label %d exceeds %d" % (top, MAX_GRAPHIC_LABEL))
    try:
        return SimpleGraph(top + 1, tuple(sorted(edges)))
    except Exception as e:
        raise CatalogError("bad edge list: %s" % e) from None


def builtin(name: str, params=()) -> Arrangement:
    """Look up a catalog arrangement by name and parameter list."""
    if name == "graphic":
        return graphic_arrangement(_edge_params(params))
    params = _int_params(params)
    if name == "braid":
        if len(params) != 1 or params[0] < 3:
            raise CatalogError("braid takes one integer parameter n >= 3")
        return parse_arrangement(_braid_polynomial(params[0]))
    if name == "split_solvable":
        if not params or any(m < 2 for m in params):
            raise CatalogError(
                "split_solvable takes multiplicities m1..mr, each >= 2"
            )
        return parse_arrangement(_split_solvable_polynomial(params))
    if name in _POLYNOMIALS:
        if params:
            raise CatalogError("%s takes no parameters" % name)
        return parse_arrangement(_POLYNOMIALS[name])
    raise CatalogError(
        "unknown arrangement %r; known: %s" % (name, ", ".join(CATALOG_NAMES))
    )


def from_spec(spec: str) -> Arrangement:
    """Look up a catalog arrangement written ``NAME[:params]``, as in
    ``braid:4``, ``split_solvable:2,3`` or ``graphic:0-1,1-2``."""
    name, _, rest = spec.partition(":")
    parts = rest.split(",") if rest else []
    if name == "graphic":
        edges = []
        for part in parts:
            a, _, b = part.partition("-")
            try:
                edges.append((int(a), int(b)))
            except ValueError:
                raise CatalogError(
                    "graphic edges look like 0-1,1-2; got %r" % part
                ) from None
        return builtin(name, edges)
    try:
        params = [int(p) for p in parts]
    except ValueError:
        raise CatalogError(
            "parameters for %s must be integers, got %r" % (name, rest)
        ) from None
    return builtin(name, params)
