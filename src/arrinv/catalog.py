"""Named arrangements used throughout the examples and tests.

Every catalog entry is built directly from integer normals (the graphic
family from an edge list), with no parsing.  Its variables and labels are
the ones the parser gives for its defining polynomial: a label renders
the normal's linear form over the variables (``render_linear_form``).
The polynomials are kept as the test oracle, and the tests check every
entry against ``parse_arrangement`` of its polynomial.  The
split_solvable family replaces the classical root-of-unity slopes with
distinct integers 1..m; this keeps every normal rational and leaves the
rank-2 lattice unchanged, which is all the invariants here depend on.

A parametrized entry is refused with ``ResourceError`` before any normal
is built when it would have more than ``MAX_HYPERPLANES`` hyperplanes
(``arrangement._check_count`` of n(n - 1) for braid:n, 1 + m1 + ... + mr
for split_solvable and the edge count for graphic), or a graphic vertex
label above ``MAX_GRAPHIC_LABEL``.
"""

from __future__ import annotations

from .arrangement import (MAX_HYPERPLANES, Arrangement, SimpleGraph, _check_count, _is_int,
                          default_variables, graphic_arrangement, render_linear_form)
from .errors import CatalogError, DomainError, ResourceError

# largest graphic vertex label: each edge is a normal with one entry per vertex
MAX_GRAPHIC_LABEL = 10_000

# fixed small arrangements, by their normals over x, y, z
_NORMALS = {
    # xyz(x+y)(x+z)(y+z)
    "x3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    # xyz(y-z)(x-z)(x+y)(x+y-2z)
    "x2": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 0), (1, 1, -2)),
    # xyz(x+y)(y+z)(x+3z)(x+2y+z)(x+2y+3z)(2x+3y+3z)
    "nonpappus": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 3),
                  (1, 2, 1), (1, 2, 3), (2, 3, 3)),
    # a realization of the (9_3)_1 configuration: nine lines, nine triple
    # points, same Moebius multiset as nonpappus but a different lattice;
    # y(y-z)(x-y)(x+y-z)(x-3y)(x+2y-2z)(x-2y-z)(x+y-2z)(x+7y-4z)
    "pappus": ((0, 1, 0), (0, 1, -1), (1, -1, 0), (1, 1, -1), (1, -3, 0), (1, 2, -2),
               (1, -2, -1), (1, 1, -2), (1, 7, -4)),
}

CATALOG_NAMES = ("braid", "x3", "x2", "nonpappus", "pappus", "split_solvable", "graphic")


def _arrangement(variables: tuple[str, ...], normals) -> Arrangement:
    labels = tuple(render_linear_form(zip(variables, row)) for row in normals)
    return Arrangement(tuple(normals), labels, variables)


def _braid(n: int) -> Arrangement:
    """(x_i + x_j)(x_i - x_j) for i < j, over x, y, z or x1..xn."""
    normals = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                row = [0] * n
                row[i], row[j] = 1, s
                normals.append(tuple(row))
    return _arrangement(default_variables(n), normals)


def _split_solvable(ms: tuple[int, ...]) -> Arrangement:
    """z0 and (z0 - q z_i) for q = 1..m_i, over z0..zr."""
    width = len(ms) + 1
    normals = [(1,) + (0,) * (width - 1)]
    for i, m in enumerate(ms, start=1):
        for q in range(1, m + 1):
            row = [0] * width
            row[0], row[i] = 1, -q
            normals.append(tuple(row))
    return _arrangement(tuple("z%d" % i for i in range(width)), normals)


def _int_params(params) -> tuple[int, ...]:
    out = []
    for p in params:
        if not _is_int(p):
            raise CatalogError("parameters must be integers, got %r" % (p,))
        out.append(p)
    return tuple(out)


def _edge_params(params) -> SimpleGraph:
    edges = []
    for e in params:
        try:
            a, b = _int_params(e)
        except (TypeError, ValueError):
            raise CatalogError("graphic parameters must be edge pairs") from None
        if a == b:
            raise CatalogError("graphic edge %r-%r is a loop" % (a, b))
        edges.append((min(a, b), max(a, b)))
    if not edges:
        raise CatalogError("graphic needs at least one edge")
    top = max(max(e) for e in edges)
    if top > MAX_GRAPHIC_LABEL:
        raise ResourceError("graphic vertex label %d exceeds %d" % (top, MAX_GRAPHIC_LABEL))
    _check_count("graphic", len(edges))
    try:
        return SimpleGraph(top + 1, tuple(sorted(edges)))
    except DomainError as e:
        raise CatalogError("bad edge list: %s" % e) from None


def builtin(name: str, params=()) -> Arrangement:
    """Look up a catalog arrangement by name and parameter list."""
    if name == "graphic":
        return graphic_arrangement(_edge_params(params))
    params = _int_params(params)
    if name == "braid":
        if len(params) != 1 or params[0] < 3:
            raise CatalogError("braid takes one integer parameter n >= 3")
        n = params[0]
        _check_count("braid", n * (n - 1))
        return _braid(n)
    if name == "split_solvable":
        if not params or any(m < 2 for m in params):
            raise CatalogError(
                "split_solvable takes multiplicities m1..mr, each >= 2"
            )
        _check_count("split_solvable", 1 + sum(params))
        return _split_solvable(params)
    if name in _NORMALS:
        if params:
            raise CatalogError("%s takes no parameters" % name)
        return _arrangement(default_variables(3), _NORMALS[name])
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
