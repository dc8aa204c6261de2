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

Each public function walks J_2, ..., J_kmax once per call, in one graded
pass (`_graded_rows`), and keeps nothing after it returns.

In degree 3 the integral quotient Lie_3 / J_3 comes from one Smith normal
form of J_3 (`linalg.smith_diagonal`, a streaming unit-pivot pass plus a
small dense core).  Its rank decides rational decomposability and its
torsion integral decomposability (`decomposability`), so `decomp`
eliminates J_3 once.  `holonomy_ranks` keeps its own `rank_exact` route,
and the tests compare the two.

Each public function gets its Lyndon bases from `lyndon.lyndon_basis`,
the one check against the word ceiling, with its caller's ceiling and
before any row is built.
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
    Word,
    lyndon_basis,
    lyndon_product,
    lyndon_words,
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


def _next_degree(arr: Arrangement, rows: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Raw generating rows of J_{k+1} = [L_1, J_k], deduplicated.  Returning
    frees the set of seen rows before J_{k+1} is eliminated."""
    out: list[Vector] = []
    seen: set[frozenset] = set()
    for row in rows:
        for i in range(arr.n):
            acc = _bracket_rows(row, i)
            key = frozenset(acc.items())
            if acc and key not in seen:
                seen.add(key)
                out.append(tuple(sorted(acc.items())))
    return tuple(out)


def _graded_rows(arr: Arrangement, kmax: int) -> Iterator[tuple[Vector, ...]]:
    """Raw generating rows of J_2, ..., J_kmax, one degree at a time."""
    rows = tuple(r.vector for r in holonomy_relators(arr).relators)
    for k in range(2, kmax + 1):
        if k > 2:
            rows = _next_degree(arr, rows)
        yield rows


def _int_rows(word_rows, basis) -> Iterator[dict[int, int]]:
    # streamed: smith_diagonal frees each row that reduces to zero as it
    # goes; rank_exact copies every row and sorts the copies, so it holds
    # all of them at once
    return ({basis.index[w]: c for w, c in row} for row in word_rows)


def holonomy_ranks(arr: Arrangement, kmax: int,
                   ceiling: int = DEFAULT_WORD_CEILING) -> tuple[int, ...]:
    """dims phi_1..phi_kmax of the holonomy Lie algebra over Q.

    Every degree's basis is checked, smallest first, before any row is built.
    """
    if kmax < 1:
        raise DomainError("degree must be positive")
    bases = [lyndon_basis(arr.n, k, ceiling) for k in range(2, kmax + 1)]
    ranks = [arr.n]
    for basis, rows in zip(bases, _graded_rows(arr, kmax)):
        ranks.append(len(basis) - rank(_int_rows(rows, basis), len(basis)))
    return tuple(ranks)


def holonomy_rank(arr: Arrangement, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> int:
    """dim of the degree-k piece of the holonomy Lie algebra over Q."""
    return holonomy_ranks(arr, k, ceiling)[-1]


def h3_group(arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING) -> AbelianGroupReport:
    """The degree-3 piece of the integral holonomy Lie algebra."""
    basis = lyndon_basis(arr.n, 3, ceiling)
    *_, rows = _graded_rows(arr, 3)
    diag = smith_diagonal(_int_rows(rows, basis), len(basis))
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupReport(len(basis) - len(diag), torsion)


def local_h3_rank(arr: Arrangement) -> int:
    """Degree-3 rank contributed by the local pencils alone."""
    return 2 * sum(comb(f.mobius + 1, 3) for f in compute_l2(arr))


def decomposability(arr: Arrangement, group: AbelianGroupReport) -> dict:
    """Compare h_3, given as ``h3_group(arr)``, with its local part.

    The comparison map onto the local part is surjective, so rational
    decomposability is the rank equality, and integral decomposability
    additionally needs the degree-3 group torsion-free.
    """
    rational = group.rank == local_h3_rank(arr)
    return {"rational": rational, "integral": rational and not group.torsion}


def is_decomposable(arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING) -> dict:
    """Rational and integral decomposability, from one Smith form of J_3."""
    return decomposability(arr, h3_group(arr, ceiling))


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
    for basis, jrows in zip(reversed(bases), _graded_rows(arr, kmax + 2)):
        rows = chain(jrows, _derived_word_rows(arr.n, basis.degree))
        dims.append(len(basis) - rank(_int_rows(rows, basis), len(basis)))
    return dims
