"""Holonomy Lie algebra ranks and torsion by degree, and decomposability.

The holonomy Lie algebra of an arrangement has one degree-1 generator per
hyperplane and, for every rank-2 flat X and hyperplane H in X, the relator
[x_H, sum of x_K over K in X].  The relators of one flat sum to zero, so
the one with the largest hyperplane index is dropped; this changes neither
the rational span nor the integer span (the dependency has unit
coefficients).

Degree-k ranks come from the ideal propagation J_{k+1} = [L_1, J_k]: the
ideal is generated in degree 2 and the ambient free Lie algebra in degree
1, so left-bracketing a generating set of J_k over Z by the generators
yields one of J_{k+1}.  One bracket step, `_bracket`, builds every
row: [x_i, row] with the row's columns named by the words of its degree
and the result numbered by the Lyndon basis one degree up.  Applied to
the degree-1 row sum of x_K over X it gives the relators
(`holonomy_relators`); applied to the rows of J_k by every generator it
gives J_{k+1} (`_next_degree`).  Each degree gets one unit pass
(`linalg.unit_pass`), the unimodular first stage of the Smith form: its
pivots and set-aside rows span J_k over Z, so they serve both that
degree's rank and torsion and, bracketed, the next degree's rows, which
are fewer and sparser than raw rows bracketed again.

Everything one call computes about an arrangement lives in one
`Analysis(arr, ceiling)`, built for that call and dropped after it.  It
keeps one Lyndon basis and one unit pass per degree of one graded pass,
J_2, J_3, ..., extended on demand, so no degree is built or passed
twice, and every computation over it reads the same rows.  Every entry
refuses in one order before any row is built (`Analysis._bases`): the
largest degree it needs against `MAX_FORMULA_DEGREE` (`check_degree`,
which the formulas share), then every Lyndon basis from degree 2 up,
smallest first, against its one ceiling (`lyndon.lyndon_basis` is the
check), so a refusal names the smallest degree over the ceiling.

Each degree has one result, `Analysis.group(k)`: Lie_k / J_k over Z is a
unit factor per pivot of the unit pass plus the Smith form of its
set-aside rows (`linalg.smith_diagonal`), one elimination for both the
rank phi_k and the torsion.  The degree-3 group decides rational
decomposability by its rank and integral decomposability by its torsion.

The paper's results rest on two hypotheses: rational decomposability,
decided here, and separatedness of the Alexander invariant, which only
the caller can assert.  `Analysis.require` is the one place both are
checked and refused, and it returns the hypotheses a report prints.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb

from ._record import record
from .arrangement import CACHE_SIZE, Arrangement, compute_l2
from .errors import DomainError, HypothesisError, RefusalError, ResourceError
from .linalg import rank, smith_diagonal, unit_pass
from .lyndon import (
    DEFAULT_WORD_CEILING,
    LyndonBasis,
    Word,
    lyndon_basis,
    lyndon_product,
)

# a row over the column numbers of a Lyndon basis, as (column, value) pairs
Row = tuple[tuple[int, int], ...]

# largest degree the graded pass builds and the decomposable LCS and Chen
# formulas report; past it they raise ResourceError
MAX_FORMULA_DEGREE = 1000


def check_degree(k: int) -> None:
    """Refuse a degree above ``MAX_FORMULA_DEGREE``."""
    if k > MAX_FORMULA_DEGREE:
        raise ResourceError("degree %d exceeds %d, the largest holonomy computes"
                            % (k, MAX_FORMULA_DEGREE))


@record
class AbelianGroupReport:
    """Rank and invariant-factor torsion of a finitely generated group."""

    rank: int
    torsion: tuple[int, ...]


def _bracket(i: int, row: dict[int, int], words: tuple[Word, ...],
             index: dict[Word, int]) -> dict[int, int]:
    """[x_i, row] over the basis one degree up: ``words`` names the columns
    of ``row`` and ``index`` numbers the words of the next degree."""
    acc: dict[int, int] = {}
    for c, v in row.items():
        for w, x in lyndon_product((i,), words[c]).items():
            j = index[w]
            y = acc.get(j, 0) + v * x
            if y:
                acc[j] = y
            else:
                del acc[j]
    return acc


@lru_cache(maxsize=CACHE_SIZE)
def holonomy_relators(arr: Arrangement) -> tuple[Row, ...]:
    """[x_h, sum of x_k over X] for every rank-2 flat X and every member h
    of X but the largest, over the degree-2 Lyndon basis, sorted by column."""
    letters = tuple((k,) for k in range(arr.n))
    # the degree-2 Lyndon words are the pairs a < b, in lexicographic order
    index = {w: j for j, w in enumerate(combinations(range(arr.n), 2))}
    rows = (_bracket(h, dict.fromkeys(flat.members, 1), letters, index)
            for flat in compute_l2(arr) for h in flat.members[:-1])
    return tuple(tuple(sorted(r.items())) for r in rows)


def _next_degree(n: int, rows: Iterable[dict[int, int]], words: tuple[Word, ...],
                 index: dict[Word, int]) -> Iterator[dict[int, int]]:
    """Rows of J_{k+1} = [L_1, J_k]: [x_i, row] for every row of J_k and
    every generator x_i."""
    for row in rows:
        for i in range(n):
            acc = _bracket(i, row, words, index)
            if acc:
                yield acc


def local_h3_rank(arr: Arrangement) -> int:
    """Degree-3 rank contributed by the local pencils alone."""
    return 2 * sum(comb(f.mobius + 1, 3) for f in compute_l2(arr))


def _derived_rows(bases: dict[int, LyndonBasis], k: int) -> Iterator[dict[int, int]]:
    """Brackets [u, v] of basis elements with deg u, deg v >= 2 summing to k,
    over the degree-k basis; ``bases`` holds degrees 2..k."""
    index = bases[k].index
    for p in range(2, k // 2 + 1):
        us = bases[p].words
        vs = bases[k - p].words
        for ui, u in enumerate(us):
            for v in vs[ui + 1 if 2 * p == k else 0:]:
                acc = lyndon_product(u, v)
                if acc:
                    yield {index[w]: c for w, c in acc.items()}


class Analysis:
    """What one call computes about ``arr`` under one word ceiling: the
    Lyndon basis and the unit pass of J_k in each degree of one graded
    pass, each degree's group h_k, and the decomposability verdict.
    ``ranks``, ``group`` and ``alexander_dims`` all refuse through
    ``_bases``, so in the same order."""

    def __init__(self, arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING):
        self.arr = arr
        self.ceiling = ceiling
        self._basis: dict[int, LyndonBasis] = {}  # checked bases by degree
        self._passes: list[tuple[list, list]] = []  # unit passes of J_2, J_3, ...
        self._groups: dict[int, AbelianGroupReport] = {}  # h_k by degree

    def _bases(self, kmax: int) -> dict[int, LyndonBasis]:
        """The Lyndon bases of degrees 2..kmax, by degree.  The one refusal
        order: ``kmax`` against the degree bound, then every basis not yet
        held against the ceiling, smallest degree first, before any row is
        built."""
        check_degree(kmax)
        basis = self._basis
        for k in range(2, kmax + 1):
            if k not in basis:
                basis[k] = lyndon_basis(self.arr.n, k, self.ceiling)
        return basis

    def _jk(self, k: int) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """The unit pass of J_k, (pivots, set-aside rows), extending the
        graded pass up to degree k.  Together they span J_k over Z, so
        bracketing them by the generators spans J_{k+1} over Z.  Each pass
        is kept as ``unit_pass`` returns it and never changed: the bracket
        step only reads it and the kernels copy their rows.  J_2 is seeded
        by dict copies of the cached relators, which the pass takes over."""
        passes = self._passes
        basis = self._bases(k)
        while len(passes) < k - 1:
            d = len(passes) + 1  # the degree passed last
            if passes:
                rows = _next_degree(self.arr.n, chain(*passes[-1]),
                                    basis[d].words, basis[d + 1].index)
            else:
                rows = map(dict, holonomy_relators(self.arr))
            passes.append(unit_pass(rows))
        return passes[k - 2]

    def group(self, k: int) -> AbelianGroupReport:
        """h_k, the degree-k piece of the integral holonomy Lie algebra,
        Lie_k / J_k: a unit factor per pivot of the unit pass of J_k, and
        the Smith form of its set-aside rows.  Computed once per degree."""
        if k < 2:
            raise DomainError("the holonomy group degree must be at least 2")
        report = self._groups.get(k)
        if report is None:
            pivots, aside = self._jk(k)
            diag = smith_diagonal(aside)
            report = self._groups[k] = AbelianGroupReport(
                len(self._basis[k]) - len(pivots) - len(diag),
                tuple(d for d in diag if d > 1))
        return report

    def ranks(self, kmax: int) -> tuple[int, ...]:
        """dims phi_1..phi_kmax of the holonomy Lie algebra over Q: n, then
        the rank of each degree's group."""
        if kmax < 1:
            raise DomainError("degree must be positive")
        self._bases(kmax)
        return (self.arr.n,) + tuple(self.group(k).rank for k in range(2, kmax + 1))

    @cached_property
    def decomposable(self) -> dict:
        """Rational and integral decomposability.

        The comparison map of h_3 onto its local part is surjective, so
        rational decomposability is the rank equality, and integral
        decomposability additionally needs h_3 torsion-free.
        """
        h3 = self.group(3)
        rational = h3.rank == local_h3_rank(self.arr)
        return {"rational": rational, "integral": rational and not h3.torsion}

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
                % (self.group(3).rank, local_h3_rank(self.arr)))
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
        dimension is dim Lie_{k+2} - rank(J_{k+2} + D_{k+2}); any spanning
        set of J_{k+2} serves, here its unit pass.  The Chen rank
        of the arrangement group in degree k is the (k-2)-nd entry.
        """
        if kmax < 0:
            raise DomainError("kmax must be nonnegative")
        basis = self._bases(kmax + 2)
        dims = []
        for k in range(2, kmax + 3):
            rows = chain(*self._jk(k), _derived_rows(basis, k))
            dims.append(len(basis[k]) - rank(rows, len(basis[k])))
        return dims


def holonomy_rank(arr: Arrangement, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> int:
    """dim of the degree-k piece of the holonomy Lie algebra over Q."""
    return Analysis(arr, ceiling).ranks(k)[-1]
