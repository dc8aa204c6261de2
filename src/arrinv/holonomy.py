"""Holonomy Lie algebra ranks, degree-3 torsion, and decomposability.

The holonomy Lie algebra of an arrangement has one degree-1 generator per
hyperplane and, for every rank-2 flat X and hyperplane H in X, the relator
[x_H, sum of x_K over K in X].  The relators of one flat sum to zero, so
the one with the largest hyperplane index is dropped; this changes neither
the rational span nor the integer span (the dependency has unit
coefficients).

Degree-k ranks come from the ideal propagation J_{k+1} = [L_1, J_k]: the
ideal is generated in degree 2 and the ambient free Lie algebra in degree
1, so left-bracketing a raw generating set by the generators again yields
a raw generating set.  Rows are kept raw (no echelonization between
degrees); rank is taken once per degree by exact sparse elimination.

In degree 3 the integral quotient Lie_3 / J_3 comes from one Smith normal
form of J_3 (`linalg.smith_diagonal`, a streaming unit-pivot pass plus a
small dense core).  Its rank decides rational decomposability and its
torsion integral decomposability, so `decomp` eliminates J_3 once.
`holonomy_rank` keeps its own `rank_exact` route, and the tests compare
the two.

Each public function gets its Lyndon bases from `lyndon.lyndon_basis`,
the one check against the word ceiling, with its caller's ceiling and
before any cached elimination.  A basis compares by (n, degree) alone, so
the caches are keyed by the arrangement and the degree, never the ceiling.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb

from .arrangement import Arrangement, compute_l2
from .errors import DomainError
from .linalg import rank, smith_diagonal
from .lyndon import (
    DEFAULT_WORD_CEILING,
    LyndonBasis,
    Word,
    lyndon_basis,
    lyndon_product,
    lyndon_words,
    witt_count,
)

Vector = tuple[tuple[Word, int], ...]


@dataclass(frozen=True)
class Relator:
    """[x_h, sum of x_k over the flat], expanded in the degree-2 basis."""

    h: int
    members: tuple[int, ...]
    vector: Vector


@dataclass(frozen=True)
class HolonomyPresentation:
    n: int
    relators: tuple[Relator, ...]


@dataclass(frozen=True)
class AbelianGroupReport:
    """Rank and invariant-factor torsion of a finitely generated group."""

    rank: int
    torsion: tuple[int, ...]


def _bracket_rows(row: Vector, i: int) -> dict[Word, int]:
    """[x_i, row] over the Lyndon basis one degree up."""
    acc: dict[Word, int] = {}
    for w, c in row:
        for w2, c2 in lyndon_product((i,), w).items():
            nv = acc.get(w2, 0) + c * c2
            if nv:
                acc[w2] = nv
            else:
                acc.pop(w2, None)
    return acc


@lru_cache(maxsize=None)
def holonomy_relators(arr: Arrangement) -> HolonomyPresentation:
    """One expanded relator per (hyperplane, flat) pair, largest index dropped."""
    relators = []
    for flat in compute_l2(arr):
        members = flat.members
        total = tuple(((k,), 1) for k in members)
        for h in members[:-1]:
            vec = tuple(sorted(_bracket_rows(total, h).items()))
            relators.append(Relator(h, members, vec))
    return HolonomyPresentation(arr.n, tuple(relators))


@lru_cache(maxsize=None)
def _jk_word_rows(arr: Arrangement, k: int) -> tuple[Vector, ...]:
    """Raw generating rows of J_k, deduplicated, as degree-k basis vectors."""
    if k == 2:
        return tuple(r.vector for r in holonomy_relators(arr).relators)
    out: list[Vector] = []
    seen: set[frozenset] = set()
    for row in _jk_word_rows(arr, k - 1):
        for i in range(arr.n):
            acc = _bracket_rows(row, i)
            if not acc:
                continue
            key = frozenset(acc.items())
            if key in seen:
                continue
            seen.add(key)
            out.append(tuple(sorted(acc.items())))
    return tuple(out)


def _int_rows(word_rows, basis) -> Iterator[dict[int, int]]:
    # streamed: smith_diagonal frees each row that reduces to zero as it
    # goes; rank_exact copies every row and sorts the copies, so it holds
    # all of them at once
    return ({basis.index[w]: c for w, c in row} for row in word_rows)


@lru_cache(maxsize=None)
def _jk_rank(arr: Arrangement, basis: LyndonBasis) -> int:
    rows = _jk_word_rows(arr, basis.degree)
    return rank(_int_rows(rows, basis), len(basis))


def holonomy_rank(arr: Arrangement, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> int:
    """dim of the degree-k piece of the holonomy Lie algebra over Q."""
    if k < 1:
        raise DomainError("degree must be positive")
    if k == 1:
        return arr.n
    basis = lyndon_basis(arr.n, k, ceiling)
    return witt_count(arr.n, k) - _jk_rank(arr, basis)


def h3_group(arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING) -> AbelianGroupReport:
    """The degree-3 piece of the integral holonomy Lie algebra."""
    return _h3_group(arr, lyndon_basis(arr.n, 3, ceiling))


@lru_cache(maxsize=None)
def _h3_group(arr: Arrangement, basis: LyndonBasis) -> AbelianGroupReport:
    rows = _int_rows(_jk_word_rows(arr, 3), basis)
    diag = smith_diagonal(rows, len(basis))
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupReport(len(basis) - len(diag), torsion)


def local_h3_rank(arr: Arrangement) -> int:
    """Degree-3 rank contributed by the local pencils alone."""
    return 2 * sum(comb(f.mobius + 1, 3) for f in compute_l2(arr))


def is_decomposable(arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING) -> dict:
    """Compare h_3 with its local part, rationally and integrally.

    The comparison map onto the local part is surjective, so rational
    decomposability is the rank equality, and integral decomposability
    additionally needs the degree-3 group torsion-free.  Both come from
    the one Smith normal form behind `h3_group`.
    """
    report = h3_group(arr, ceiling)
    rational = report.rank == local_h3_rank(arr)
    return {"rational": rational, "integral": rational and not report.torsion}


def _derived_word_rows(n: int, j: int) -> tuple[Vector, ...]:
    """Brackets [u, v] of basis elements with deg u, deg v >= 2 summing to j."""
    out: list[Vector] = []
    for p in range(2, j - 1):
        q = j - p
        if p > q:
            break
        us = lyndon_words(n, p)
        vs = lyndon_words(n, q) if q != p else us
        for ui, u in enumerate(us):
            start = ui + 1 if p == q else 0
            for v in vs[start:]:
                acc = lyndon_product(u, v)
                if acc:
                    out.append(tuple(sorted(acc.items())))
    return tuple(out)


def infinitesimal_alexander_dims(
    arr: Arrangement, kmax: int, ceiling: int = DEFAULT_WORD_CEILING
) -> list[int]:
    """Dimensions of the graded infinitesimal Alexander invariant, 0..kmax.

    The degree-k piece is Lie_{k+2} modulo the ideal together with all
    brackets of two elements of degree >= 2 (the derived span), so its
    dimension is dim Lie_{k+2} - rank(J_{k+2} + D_{k+2}).  The Chen rank
    of the arrangement group in degree k is the (k-2)-nd entry.
    """
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    # every degree is checked, largest first, before any row is built
    bases = [lyndon_basis(arr.n, j, ceiling) for j in range(kmax + 2, 1, -1)]
    dims = []
    for basis in reversed(bases):
        j = basis.degree
        rows = chain(_jk_word_rows(arr, j), _derived_word_rows(arr.n, j))
        dims.append(witt_count(arr.n, j) - rank(_int_rows(rows, basis), len(basis)))
    return dims
