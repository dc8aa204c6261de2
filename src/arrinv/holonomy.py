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

Everything one call computes about an arrangement lives in one
`Analysis(arr, ceiling)`, built for that call and dropped after it.  It
keeps the rows of one graded pass, J_2, J_3, ..., extended on demand, so
no degree is built twice, and every computation over it reads the same
rows.  Before any row is built it checks the degree against
`MAX_FORMULA_DEGREE` (`check_degree`, which the formulas share) and every
Lyndon basis against its one ceiling (`lyndon.lyndon_basis` is the check).

In degree 3 the integral quotient Lie_3 / J_3 comes from one Smith normal
form of J_3 (`Analysis.h3`, by `linalg.smith_diagonal`: the rank's
elimination loop with unit pivots only, then a sparse reduction of the
rows it sets aside).  Its rank is phi_3 in `Analysis.ranks` and decides
rational decomposability, and its torsion decides integral
decomposability (`Analysis.decomposable`), so each analysis eliminates
J_3 once.

The paper's results rest on two hypotheses: rational decomposability,
decided here, and separatedness of the Alexander invariant, which only
the caller can assert.  `Analysis.require` is the one place both are
checked and refused, and it returns the hypotheses a report prints.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import chain
from math import comb

from ._record import record
from .arrangement import CACHE_SIZE, Arrangement, compute_l2
from .errors import DomainError, HypothesisError, RefusalError, ResourceError
from .linalg import rank, smith_diagonal
from .lyndon import (
    DEFAULT_WORD_CEILING,
    LyndonBasis,
    Word,
    lyndon_basis,
    lyndon_product,
    lyndon_words,
)

Vector = tuple[tuple[Word, int], ...]

# largest degree the graded pass builds and the decomposable LCS and Chen
# formulas report; past it they raise ResourceError
MAX_FORMULA_DEGREE = 1000


def check_degree(k: int) -> None:
    """Refuse a degree above ``MAX_FORMULA_DEGREE``."""
    if k > MAX_FORMULA_DEGREE:
        raise ResourceError("degree %d exceeds %d, the largest holonomy computes"
                            % (k, MAX_FORMULA_DEGREE))


@record
class Relator:
    """[x_h, sum of x_k over the flat], expanded in the degree-2 basis."""

    h: int
    members: tuple[int, ...]
    vector: Vector


@record
class HolonomyPresentation:
    n: int
    relators: tuple[Relator, ...]


@record
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


@lru_cache(maxsize=CACHE_SIZE)
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


def _int_rows(word_rows, basis) -> Iterator[dict[int, int]]:
    # a generator, but both kernels copy every row and sort the copies,
    # so they hold all of them at once
    return ({basis.index[w]: c for w, c in row} for row in word_rows)


def local_h3_rank(arr: Arrangement) -> int:
    """Degree-3 rank contributed by the local pencils alone."""
    return 2 * sum(comb(f.mobius + 1, 3) for f in compute_l2(arr))


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


class Analysis:
    """What one call computes about ``arr`` under one word ceiling: the raw
    rows of J_2, J_3, ... of one graded pass, each degree's rank over Q,
    the degree-3 group and the decomposability verdict."""

    def __init__(self, arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING):
        self.arr = arr
        self.ceiling = ceiling
        self._rows: list[tuple[Vector, ...]] = []  # J_2, J_3, ... built so far
        self._ranks = [arr.n]  # phi_1, phi_2, ... eliminated so far

    def _bases(self, degrees: range) -> list[LyndonBasis]:
        """The Lyndon bases of ``degrees``, in that order: the largest degree
        is checked against the degree bound, then every basis against the
        ceiling, before any row is built."""
        check_degree(max(degrees[0], degrees[-1]) if degrees else 0)
        return [lyndon_basis(self.arr.n, k, self.ceiling) for k in degrees]

    def _jk(self, k: int) -> tuple[Vector, ...]:
        """Raw generating rows of J_k, extending the pass up to degree k."""
        rows = self._rows
        if not rows:
            rows.append(tuple(r.vector for r in holonomy_relators(self.arr).relators))
        while len(rows) < k - 1:
            rows.append(_next_degree(self.arr, rows[-1]))
        return rows[k - 2]

    def ranks(self, kmax: int) -> tuple[int, ...]:
        """dims phi_1..phi_kmax of the holonomy Lie algebra over Q.

        Every basis is checked, smallest first, before any row is built;
        each degree is eliminated once per analysis, degree 3 by the Smith
        form of ``h3``.
        """
        if kmax < 1:
            raise DomainError("degree must be positive")
        for basis in self._bases(range(2, kmax + 1))[len(self._ranks) - 1:]:
            if basis.degree == 3:
                self._ranks.append(self.h3.rank)
                continue
            rows = _int_rows(self._jk(basis.degree), basis)
            self._ranks.append(len(basis) - rank(rows, len(basis)))
        return tuple(self._ranks[:kmax])

    @cached_property
    def h3(self) -> AbelianGroupReport:
        """The degree-3 piece of the integral holonomy Lie algebra, from one
        Smith form of J_3."""
        basis, = self._bases(range(3, 4))
        diag = smith_diagonal(_int_rows(self._jk(3), basis), len(basis))
        return AbelianGroupReport(len(basis) - len(diag), tuple(d for d in diag if d > 1))

    @cached_property
    def decomposable(self) -> dict:
        """Rational and integral decomposability.

        The comparison map of h_3 onto its local part is surjective, so
        rational decomposability is the rank equality, and integral
        decomposability additionally needs h_3 torsion-free.
        """
        rational = self.h3.rank == local_h3_rank(self.arr)
        return {"rational": rational, "integral": rational and not self.h3.torsion}

    def require(self, separated: bool | None = None) -> dict:
        """The hypotheses a result under the paper's theorems rests on.

        Raises HypothesisError unless the arrangement is rationally
        decomposable and, when ``separated`` is not None, RefusalError
        unless the caller asserts separatedness with it.  Returns the
        hypotheses dict a report prints.
        """
        if not self.decomposable["rational"]:
            raise HypothesisError(
                "the computation needs a rationally decomposable arrangement; "
                "this one is not (h3_rank %d > local_rank %d)"
                % (self.h3.rank, local_h3_rank(self.arr)))
        if separated is None:
            return {"q_decomposable": True}
        if not separated:
            raise RefusalError(
                "the computation needs the Alexander invariant separated, which "
                "cannot be checked from the input; pass separated=True "
                "(--assert-separated) to assert it")
        return {"q_decomposable": True, "separated": "asserted"}

    def alexander_dims(self, kmax: int) -> list[int]:
        """Dimensions of the graded infinitesimal Alexander invariant, 0..kmax.

        The degree-k piece is Lie_{k+2} modulo the ideal together with all
        brackets of two elements of degree >= 2 (the derived span), so its
        dimension is dim Lie_{k+2} - rank(J_{k+2} + D_{k+2}).  The Chen rank
        of the arrangement group in degree k is the (k-2)-nd entry.
        """
        if kmax < 0:
            raise DomainError("kmax must be nonnegative")
        # every degree is checked, largest first, before any row is built
        dims = []
        for basis in reversed(self._bases(range(kmax + 2, 1, -1))):
            k = basis.degree
            rows = chain(self._jk(k), _derived_word_rows(self.arr.n, k))
            dims.append(len(basis) - rank(_int_rows(rows, basis), len(basis)))
        return dims


def holonomy_rank(arr: Arrangement, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> int:
    """dim of the degree-k piece of the holonomy Lie algebra over Q."""
    return Analysis(arr, ceiling).ranks(k)[-1]
