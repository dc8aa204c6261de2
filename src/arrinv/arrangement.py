"""Central arrangements and their rank-2 intersection data.

An arrangement is a finite set of hyperplanes through the origin of C^d,
each recorded by a defining normal vector with rational entries: ``int``
where the input was an integer, ``fractions.Fraction`` only where it was
``p/q``, so integer input never loads ``fractions``.  The two types
compare and hash alike.  All the invariants in this package depend only
on the rank-2 part of the intersection lattice: the partition of the
hyperplane pairs into maximal pencils (flats of codimension 2), each
weighted by its Moebius value mu = (number of members) - 1.

An arrangement read from outside the program, by ``make_arrangement`` or
by either file reader in ``parsing``, passes one intake rule: at most
``MAX_HYPERPLANES`` hyperplanes (``_check_count``, tested before any entry
is read), then a nonempty rectangle of normals, one variable name per
column, one label per hyperplane, no zero normal and no hyperplane listed
twice (``_intake``).  The first rule broken is reported in the readers'
words: ``parsing`` raises them as ``ParseError`` of the rule's kind,
``make_arrangement`` as ``DomainError``.

Lines and 2-planes spanned by normals are compared through integer keys:
a line by its primitive integer vector (``line_key``), a 2-plane by the
primitive vector of its 2x2 minors, its Pluecker coordinates
(``plane_key``).  Neither needs an elimination.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from ._record import record
from .errors import DomainError, ParseError, ResourceError
from .linalg import rank_exact


def _is_int(v) -> bool:
    # the library's one integer test: a bool is an int to Python, not here
    return isinstance(v, int) and not isinstance(v, bool)


def _coerce_scalar(v) -> int | Fraction:
    # the one entry rule for normals, from the library and from JSON input
    if _is_int(v):
        return int(v)
    if isinstance(v, bool):
        raise DomainError("boolean is not a rational entry")
    # a Fraction argument has loaded the module already
    from fractions import Fraction
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise DomainError("bad rational entry %r" % v) from None
    raise DomainError("entries must be integers or 'p/q' strings")


def render_linear_form(terms) -> str:
    """Render (name, coefficient) pairs as a compact linear form."""
    parts = []
    for name, c in terms:
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        a = abs(c)
        if a == 1:
            body = name
        elif a.denominator == 1:
            body = "%d%s" % (a.numerator, name)
        else:
            body = "%d/%d%s" % (a.numerator, a.denominator, name)
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


def default_variables(d: int) -> tuple[str, ...]:
    """Coordinate names: x, y, z in low dimension, x1..xd above."""
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple("x%d" % (i + 1) for i in range(d))


@record
class Arrangement:
    """A central arrangement, as an ordered tuple of normal vectors.

    Each entry of a normal is an ``int``, or a ``Fraction`` where the input
    was not an integer.  ``variables`` names the coordinates, one per
    column of the normals.
    """

    normals: tuple[tuple[int | Fraction, ...], ...]
    labels: tuple[str, ...]
    variables: tuple[str, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.variables)

    @property
    def n(self) -> int:
        return len(self.normals)

    def __len__(self) -> int:
        return len(self.normals)


def make_arrangement(normals, labels=None) -> Arrangement:
    """Validate and freeze an arrangement from any iterable of normals.

    The intake rule of the file readers (see the module docstring), with
    their words, raised as ``DomainError``; more than ``MAX_HYPERPLANES``
    normals raise ``ResourceError`` before any entry is read.  Labels
    default to H0, H1, ...
    """
    normals = list(normals)
    _check_count("input", len(normals))
    rows = [tuple(_coerce_scalar(v) for v in row) for row in normals]
    try:
        return _intake(rows, None if labels is None else [str(s) for s in labels])
    except ParseError as e:
        raise DomainError(str(e)) from None


def _intake(rows, labels=None, variables=None) -> Arrangement:
    # the one rule for an arrangement read from outside the program, in the
    # file readers' kinds and words; labels default to H0, H1, ... and
    # variables to default_variables
    d = len(rows[0]) if rows else 0
    if not d or any(len(r) != d for r in rows):
        raise ParseError("syntax", "normals must form a nonempty rectangle")
    if variables is not None and len(variables) != d:
        raise ParseError("syntax", "'variables' must name every column")
    if labels is None:
        labels = ["H%d" % i for i in range(len(rows))]
    elif len(labels) != len(rows):
        raise ParseError("syntax", "'labels' must name every hyperplane")
    for i, row in enumerate(rows):
        if not any(row):
            raise ParseError("zero_form", "normal %d is the zero vector" % i)
    dup = first_duplicate(rows)
    if dup is not None:
        raise ParseError("duplicate", "factors %s and %s cut the same hyperplane"
                         % (labels[dup[0]], labels[dup[1]]))
    return Arrangement(tuple(rows), tuple(labels), tuple(variables or default_variables(d)))


def _primitive(vec) -> tuple[int, ...]:
    # divide an integer vector by its content and make the first nonzero
    # entry positive; a zero vector stays zero
    g = gcd(*vec)
    if not g:
        return tuple(vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def line_key(row) -> tuple[int, ...]:
    """The primitive integer vector on the line spanned by a nonzero row.

    Denominators are cleared, the content divided out and the first
    nonzero entry made positive, so two rows are proportional iff their
    keys are equal.
    """
    den = lcm(*(v.denominator for v in row))
    return _primitive([int(v * den) for v in row])


def plane_key(u, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Support and primitive Pluecker vector of the 2-plane spanned by
    integer rows u, v.

    The 2x2 minors u_a v_b - u_b v_a (a < b) determine the plane up to a
    nonzero scalar.  A minor is 0 unless columns a and b both lie in the
    support, the columns where u or v is nonzero, which every basis of
    the plane shares; so the key keeps the support and the minors over
    it, and two pairs span the same plane iff their keys are equal.
    Proportional rows span no plane and raise DomainError.
    """
    support = tuple(c for c, (a, b) in enumerate(zip(u, v)) if a or b)
    minors = [u[a] * v[b] - u[b] * v[a] for a, b in combinations(support, 2)]
    if not any(minors):
        raise DomainError("proportional rows span no 2-plane")
    return support, _primitive(minors)


def first_duplicate(rows):
    """The first pair (i, j), i < j, of proportional rows, or None.

    The pair is lexicographically first: the smallest i with a duplicate,
    and the smallest j after it.
    """
    lines: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        lines.setdefault(line_key(row), []).append(i)
    return min((tuple(g[:2]) for g in lines.values() if len(g) > 1), default=None)


@record
class Flat2:
    """A rank-2 flat: the set of hyperplanes containing a codim-2 subspace."""

    members: tuple[int, ...]

    @property
    def mobius(self) -> int:
        return len(self.members) - 1

    def __len__(self) -> int:
        return len(self.members)


@record
class L2Lattice:
    """All rank-2 flats of an arrangement, ordered by member tuple."""

    flats: tuple[Flat2, ...]
    n: int

    def __iter__(self):
        return iter(self.flats)

    def __len__(self) -> int:
        return len(self.flats)

    def multiple_flats(self) -> tuple[Flat2, ...]:
        """The flats with three or more members (mu >= 2)."""
        return tuple(f for f in self.flats if len(f) >= 3)


# arrangements whose lattice (and, in ``holonomy``, relators) stay cached:
# a command asks about one arrangement and ``check`` at its default 10
# samples about 16, so a long run keeps no more than these
CACHE_SIZE = 16

# default bound on witt(n, k), the free Lie rank, for each holonomy degree
# k a computation needs; ``holonomy.check_words`` refuses above it
DEFAULT_WORD_CEILING = 200_000

# largest hyperplane count the catalog builds, the readers read and
# make_arrangement takes; the lattice groups C(n, 2) pairs: `info` on
# braid:25 (600) takes about 3 s and 130 MB on a 2-core Xeon host
MAX_HYPERPLANES = 600


def _check_count(what: str, count: int, more: bool = False) -> None:
    """The hyperplane bound: refuse ``count`` above ``MAX_HYPERPLANES``.
    ``more`` says the input goes on past the ``count`` hyperplanes read."""
    if count > MAX_HYPERPLANES:
        raise ResourceError("%s hyperplane count %d%s exceeds %d"
                            % (what, count, " or more" if more else "", MAX_HYPERPLANES))


@lru_cache(maxsize=CACHE_SIZE)
def compute_l2(arr: Arrangement) -> L2Lattice:
    """Group the hyperplane pairs of ``arr`` into maximal rank-2 flats.

    Hyperplane k contains the codimension-2 intersection of hyperplanes i
    and j iff n_k lies in the 2-plane span(n_i, n_j).  So the flat through
    i and j is the union of all pairs whose normals span the same 2-plane.
    Each normal is reduced once to its primitive integer vector
    (``line_key``), and the pairs are grouped by ``plane_key``, the
    primitive vector of their 2x2 minors on the pair's support: O(n^2 s^2)
    integer products for normals with at most s nonzero entries, and no
    elimination, in any ambient dimension.
    """
    n = arr.n
    prim = [line_key(r) for r in arr.normals]
    planes: dict[tuple, set[int]] = {}
    for i, j in combinations(range(n), 2):
        planes.setdefault(plane_key(prim[i], prim[j]), set()).update((i, j))
    members = sorted(tuple(sorted(m)) for m in planes.values())
    lat = L2Lattice(tuple(Flat2(m) for m in members), n)
    # every pair of hyperplanes lies in exactly one flat
    pairs = sum(len(f) * (len(f) - 1) // 2 for f in lat)
    if pairs != n * (n - 1) // 2:
        raise AssertionError("rank-2 flats do not partition the pairs")
    return lat


def arrangement_rank(arr: Arrangement) -> int:
    """Rank of the arrangement: codimension of the common intersection."""
    return rank_exact([dict(enumerate(line_key(r))) for r in arr.normals])


def betti(arr: Arrangement) -> tuple[int, int]:
    """(b1, b2) of the complement: n and the sum of the Moebius values."""
    return arr.n, sum(f.mobius for f in compute_l2(arr))


@record
class SimpleGraph:
    """A simple graph on vertices 0..v-1, edges as sorted pairs."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not all(map(_is_int, [self.vertices] + [v for e in self.edges for v in e])):
            raise DomainError("graph vertex counts and endpoints must be integers")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.vertices and 0 <= b < self.vertices):
                raise DomainError("edge endpoint out of range")
            if a >= b:
                raise DomainError("edges must be sorted pairs (a, b) with a < b")
            if (a, b) in seen:
                raise DomainError("duplicate edge %r" % ((a, b),))
            seen.add((a, b))


def graphic_arrangement(graph: SimpleGraph) -> Arrangement:
    """The arrangement {x_a = x_b} over the edges of a simple graph."""
    if not graph.edges:
        raise DomainError("graphic arrangement needs at least one edge")
    edges = sorted(graph.edges)
    normals = []
    labels = []
    for a, b in edges:
        row = [0] * graph.vertices
        row[a] = 1
        row[b] = -1
        normals.append(tuple(row))
        labels.append("x%d-x%d" % (a, b))
    variables = tuple("x%d" % i for i in range(graph.vertices))
    return Arrangement(tuple(normals), tuple(labels), variables)


@record
class MultiArrangement:
    """An arrangement with a positive integer multiplicity per hyperplane."""

    arrangement: Arrangement
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        m = self.multiplicities
        if len(m) != self.arrangement.n:
            raise DomainError("need one multiplicity per hyperplane")
        if not all(_is_int(v) and v >= 1 for v in m):
            raise DomainError("multiplicities must be positive integers")
        g = 0
        for v in m:
            g = gcd(g, v)
        if g != 1:
            raise DomainError(
                "multiplicities must have gcd 1; divide out the common factor"
            )

    @property
    def total(self) -> int:
        return sum(self.multiplicities)


def _fraction_str(v: int | Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else "%d/%d" % (
        v.numerator,
        v.denominator,
    )


def arrangement_to_json(arr: Arrangement) -> dict:
    """JSON-ready description of an arrangement (fractions as 'p/q')."""
    return {
        "variables": list(arr.variables),
        "normals": [[_fraction_str(v) for v in row] for row in arr.normals],
        "labels": list(arr.labels),
    }


def l2_to_json(arr: Arrangement) -> dict:
    """JSON-ready rank-2 lattice summary."""
    lat = compute_l2(arr)
    b1, b2 = betti(arr)
    return {
        "n": arr.n,
        "rank": arrangement_rank(arr),
        "betti": [b1, b2],
        "flats": [
            {
                "members": list(f.members),
                "labels": [arr.labels[i] for i in f.members],
                "mobius": f.mobius,
            }
            for f in lat
        ],
    }
