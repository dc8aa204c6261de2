"""Holonomy Lie algebra ranks and torsion by degree, and decomposability.

The holonomy Lie algebra of an arrangement has one degree-1 generator per
hyperplane and, for every rank-2 flat X and hyperplane H in X, the relator
[x_H, sum of x_K over K in X].  The relators of one flat sum to zero, so
the one with the largest hyperplane index is dropped; this changes neither
the rational span nor the integer span (the dependency has unit
coefficients).

Each degree is built by a graded nilpotent quotient over Z (Havas,
Newman and Vaughan-Lee, J. Symb. Comput. 1990), not inside the free Lie
algebra.  Degree d keeps its generators, each the tail [x_a, w] of a
letter and a degree-(d-1) generator that defines it; its core, the
integer rows over those generators that hold in h_d; and the bracket
table [u, v] of every pair of generators with deg u <= deg v and degrees
summing to d.  [v, u] is read as -[u, v] and never stored.  So h_d is
the free abelian group on the generators modulo the core.  One step
(`Analysis._extend`) builds degree k+1: one tail per letter and
degree-k generator; [u, v] over the tails for deg u <= deg v, from the
definition u = [x_a, w] of u and the identity
[[x_a, w], v] = [x_a, [w, v]] - [w, [x_a, v]]; and the relations among
the tails: the relators (degree 2 only), antisymmetry and alternation
within the middle degree, Jacobi on every triple (x_a, v, w) of a letter
and two generators, sorted and distinct (a repeated one follows from
antisymmetry), and [x_a, rho] for every core row rho of degree k.  One
unit pass (`linalg.unit_pass`) eliminates a tail per +-1 pivot; the
other tails become the new generators, back-substituting the pivots
gives the normal form that fills the new table, and the rows the pass
set aside are the new core.

Why the step is right, in three parts:

1. The relators lie in degree 2, so the ideal I they generate has
   I_{k+1} = [L_1, I_k].  So h_{k+1} is L_1 (x) h_k modulo the free Lie
   relations, and the tails [x_a, rho] of the core rows rho of degree k
   are what make L_1 (x) h_k well defined over the tails.
2. If ad x_a is a derivation for every letter, then so is every ad u,
   since ad [x_a, w] = [ad x_a, ad w] and the commutator of two
   derivations is a derivation.  So Jacobi with a letter implies Jacobi.
3. With [v, u] read as -[u, v], antisymmetry holds by construction
   outside the middle degree.  For a generator u = [x_a, w] above half
   the degree, the identity that defines [u, v] is the Jacobi relation
   of x_a, w and v, a relation with a letter.

The matrices grow with n times the generator count of the degree below
(phi_k plus the rank of its core), not with the Lyndon basis one degree
up.

Everything one call computes about an arrangement lives in one
`Analysis(arr, ceiling)`, built for that call and dropped after it.  It
keeps the degrees of one quotient, extended on demand and never changed
once built, so no degree is built twice and every computation reads the
same rows.  The word ceiling stays a contract on the free Lie degree, no
longer a cost: every entry refuses in one order before any row is built
(`Analysis._check`): the largest degree it needs against
`MAX_FORMULA_DEGREE` (`check_degree`, which the formulas share), then
witt(n, k) for every degree from 2 up, smallest first, against its one
ceiling, so a refusal names the smallest degree over the ceiling.
`check_words` is the package's one check of a degree against the word
ceiling, and `witt_count` (the necklace formula) lives here with it, so
the holonomy path loads no Lyndon code; `lyndon.lyndon_basis` calls the
same check.

Each degree has one result, `Analysis.group(k)`: the Smith form of its
core (`linalg.smith_diagonal`) gives both the rank phi_k and the torsion.
The degree-3 group decides rational decomposability by its rank and
integral decomposability by its torsion.

The paper's results rest on two hypotheses: rational decomposability,
decided here, and separatedness of the Alexander invariant, which only
the caller can assert.  `Analysis.require` is the one place both are
checked and refused, and it returns the hypotheses a report prints.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from ._record import record
from .arrangement import CACHE_SIZE, DEFAULT_WORD_CEILING, Arrangement, compute_l2
from .errors import DomainError, HypothesisError, RefusalError, ResourceError
from .linalg import _add, rank, smith_diagonal, unit_pass

# a degree-2 relator over the Lyndon words (a, b), a < b, as (word, value)
# pairs sorted by word
Row = tuple[tuple[tuple[int, int], int], ...]

# largest degree the quotient builds and the decomposable LCS and Chen
# formulas report; past it they raise ResourceError
MAX_FORMULA_DEGREE = 1000


def check_degree(k: int) -> None:
    """Refuse a degree above ``MAX_FORMULA_DEGREE``."""
    if k > MAX_FORMULA_DEGREE:
        raise ResourceError("degree %d exceeds %d, the largest holonomy computes"
                            % (k, MAX_FORMULA_DEGREE))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def number_mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def witt_count(n: int, k: int) -> int:
    """Number of Lyndon words of length k over n letters (necklace formula),
    the rank of the degree-k free Lie algebra on n generators."""
    if k < 1:
        raise DomainError("degree must be positive")
    total = sum(number_mobius(d) * n ** (k // d) for d in divisors(k))
    return total // k


def check_words(n: int, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> None:
    """Refuse degree k over n generators when witt(n, k) is above ``ceiling``.

    This is the package's one check of a free Lie degree against the word
    ceiling: the analysis and ``lyndon.lyndon_basis`` both ask it, with
    their caller's ceiling, before any work starts.
    """
    size = witt_count(n, k) if k >= 1 else 0
    if size > ceiling:
        raise ResourceError(
            "degree-%d computation needs %d basis words, above the ceiling "
            "of %d" % (k, size, ceiling)
        )


@record
class AbelianGroupReport:
    """Rank and invariant-factor torsion of a finitely generated group."""

    rank: int
    torsion: tuple[int, ...]


@record
class _Degree:
    """Degree d of the nilpotent quotient: h_d is the free abelian group
    on the generators modulo the core rows.  ``defs[g]`` is (a, w) when
    generator g is [x_a, w] for w of degree d - 1 (w is None in degree
    1); ``table[p - 1][u][v]`` is [u, v] over the generators, for u of
    degree p <= d / 2 and v of degree d - p."""

    defs: tuple[tuple[int, int | None], ...]
    core: list[dict[int, int]]
    table: tuple[list[list[dict[int, int]]], ...]


@lru_cache(maxsize=CACHE_SIZE)
def holonomy_relators(arr: Arrangement) -> tuple[Row, ...]:
    """[x_h, sum of x_k over X] for every rank-2 flat X and every member h
    of X but the largest, over the degree-2 Lyndon words, sorted by word.
    The words are the pairs (a, b) with a < b, and [x_h, x_k] is the word
    (h, k) for h < k and minus (k, h) for h > k."""
    return tuple(
        tuple(sorted(((min(h, k), max(h, k)), 1 if h < k else -1)
                     for k in flat.members if k != h))
        for flat in compute_l2(arr) for h in flat.members[:-1])


def local_rank(arr: Arrangement, k: int) -> int:
    """Degree-k rank, k >= 2, of the local part: the sum of witt(mu(X), k)
    over the multiple flats X, one free Lie algebra on mu(X) generators
    per flat.  A decomposable arrangement's phi_k is exactly this."""
    if k < 2:
        raise DomainError("the local rank is defined for k >= 2")
    mus = [f.mobius for f in compute_l2(arr).multiple_flats()]
    return sum(mus.count(mu) * witt_count(mu, k) for mu in set(mus))


class Analysis:
    """What one call computes about ``arr`` under one word ceiling: the
    degrees of one nilpotent quotient, each degree's group h_k, and the
    decomposability verdict.  ``ranks``, ``group`` and ``alexander_dims``
    all refuse through ``_check``, so in the same order."""

    def __init__(self, arr: Arrangement, ceiling: int = DEFAULT_WORD_CEILING):
        self.arr = arr
        self.ceiling = ceiling
        self._checked = 1  # the largest degree checked against the ceiling
        # degree d at index d - 1; degree 1 is the letters, free
        self._degrees = [_Degree(tuple((a, None) for a in range(arr.n)), [], ())]
        self._groups: dict[int, AbelianGroupReport] = {}  # h_k by degree

    def _check(self, kmax: int) -> None:
        """The one refusal order: ``kmax`` against the degree bound, then
        witt(n, k) of every degree not yet checked against the ceiling,
        smallest degree first, before any row is built.  No basis is
        built: the ceiling is a contract, not a cost."""
        check_degree(kmax)
        for k in range(self._checked + 1, kmax + 1):
            check_words(self.arr.n, k, self.ceiling)
            self._checked = k

    def _degree(self, k: int) -> _Degree:
        """Degree k of the quotient, extending it up to k."""
        self._check(k)
        while len(self._degrees) < k:
            self._extend()
        return self._degrees[k - 1]

    def _extend(self) -> None:
        """Build degree k + 1 from degrees 1..k (see the module docstring)."""
        degrees = self._degrees
        k = len(degrees)
        m = len(degrees[-1].defs)
        if not m:
            # h_{k+1} = [h_1, h_k] vanishes with h_k
            degrees.append(_Degree((), [], ()))
            return
        n, half = self.arr.n, (k + 1) // 2

        def table(p: int, q: int) -> list[list[dict[int, int]]]:
            # [u, v] for u of degree p <= q and v of degree q
            return degrees[p + q - 1].table[p - 1]

        def bracket(acc: dict[int, int], p: int, u: int, x: dict[int, int],
                    s: int = 1) -> dict[int, int]:
            # acc += s * [u, x] over the tails, u of degree p, x of degree k + 1 - p;
            # above half the degree, [u, z] is read as -[z, u]
            for z, c in x.items():
                if p <= half:
                    _add(acc, raw[p][u][z], s * c)
                else:
                    _add(acc, raw[k + 1 - p][z][u], -s * c)
            return acc

        # raw[p][u][v] is [u, v] over the tails for u of degree p <= half and v
        # of degree k + 1 - p: tail a * m + g is [x_a, g] for g of degree k, and
        # [[x_a, w], v] = [x_a, [w, v]] - [w, [x_a, v]]
        raw = [None, [[{a * m + g: 1} for g in range(m)] for a in range(n)]]
        for p in range(2, half + 1):
            left, up = table(p - 1, k + 1 - p), table(1, k + 1 - p)
            raw.append([[bracket(bracket({}, 1, a, wv), p - 1, w, av, -1)
                         for wv, av in zip(left[w], up[a])] for a, w in degrees[p - 1].defs])

        rels = []
        if k == 1:
            rels += [{a * n + b: v for (a, b), v in r} for r in holonomy_relators(self.arr)]
        if k % 2:
            # antisymmetry and alternation [u, u] within the middle degree
            for u, uv in enumerate(raw[half]):
                rels += [dict(uv[u])] + [bracket(dict(uv[v]), half, v, {u: 1})
                                         for v in range(u + 1, len(uv))]
        # Jacobi on the triples (x_a, v, w) with v, w of degrees dv <= dw
        for dv in range(1, k // 2 + 1):
            dw = k - dv
            vw, av, aw = table(dv, dw), table(1, dv), table(1, dw)
            for a in range(n):
                for v in range(a + 1 if dv == 1 else 0, len(vw)):
                    for w in range(v + 1 if dw == dv else 0, len(vw[v])):
                        rel = bracket({}, 1, a, vw[v][w])
                        bracket(rel, dv, v, aw[a][w], -1)
                        rels.append(bracket(rel, dw, w, av[a][v]))
        # [x_a, rho] for the core rows rho of degree k, as I_{k+1} = [L_1, I_k]
        rels += [bracket({}, 1, a, rho) for rho in degrees[-1].core for a in range(n)]
        pivots, aside = unit_pass(r for r in rels if r)

        # back-substitute: a pivot led by s = +-1 at tail t says t = -s * rest,
        # and the rest of a pivot lies right of its lead
        image: dict[int, dict[int, int]] = {}
        for r in sorted(pivots, key=min, reverse=True):
            t = min(r)
            s = r.pop(t)
            image[t] = acc = {}
            for c, v in r.items():
                _add(acc, image.get(c, {c: 1}), -s * v)
        free = [t for t in range(n * m) if t not in image]
        new = {t: g for g, t in enumerate(free)}

        def normal(row: dict[int, int]) -> dict[int, int]:
            acc: dict[int, int] = {}
            for t, c in row.items():
                _add(acc, image.get(t, {t: 1}), c)
            return {new[t]: c for t, c in acc.items()}

        degrees.append(_Degree(tuple(divmod(t, m) for t in free), list(map(normal, aside)),
                               tuple([list(map(normal, rs)) for rs in raw[p]]
                                     for p in range(1, half + 1))))

    def group(self, k: int) -> AbelianGroupReport:
        """h_k, the degree-k piece of the integral holonomy Lie algebra:
        the Smith form of the core of degree k over its generators.
        Computed once per degree."""
        if k < 2:
            raise DomainError("the holonomy group degree must be at least 2")
        report = self._groups.get(k)
        if report is None:
            degree = self._degree(k)
            diag = smith_diagonal(degree.core)
            report = self._groups[k] = AbelianGroupReport(
                len(degree.defs) - len(diag), tuple(d for d in diag if d > 1))
        return report

    def ranks(self, kmax: int) -> tuple[int, ...]:
        """dims phi_1..phi_kmax of the holonomy Lie algebra over Q: n, then
        the rank of each degree's group."""
        if kmax < 1:
            raise DomainError("degree must be positive")
        self._check(kmax)
        return (self.arr.n,) + tuple(self.group(k).rank for k in range(2, kmax + 1))

    @cached_property
    def decomposable(self) -> dict:
        """Rational and integral decomposability.

        The comparison map of h_3 onto its local part is surjective, so
        rational decomposability is the rank equality, and integral
        decomposability additionally needs h_3 torsion-free.
        """
        h3 = self.group(3)
        rational = h3.rank == local_rank(self.arr, 3)
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
                % (self.group(3).rank, local_rank(self.arr, 3)))
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

        The degree-k piece is h_{k+2} modulo the brackets of two elements
        of degree >= 2, so its dimension is the number of generators of
        degree k + 2 minus the rank of their core together with the table's
        brackets of generators of degrees p, q >= 2.  The Chen rank of the
        arrangement group in degree k is the (k-2)-nd entry.
        """
        if kmax < 0:
            raise DomainError("kmax must be nonnegative")
        self._check(kmax + 2)
        dims = []
        for k in range(2, kmax + 3):
            degree = self._degree(k)
            rows = list(degree.core)
            if degree.defs:
                for p in range(2, k // 2 + 1):
                    for u, uv in enumerate(degree.table[p - 1]):
                        rows += uv[u + 1:] if 2 * p == k else uv
            dims.append(len(degree.defs) - rank(rows, len(degree.defs)))
        return dims


def holonomy_rank(arr: Arrangement, k: int, ceiling: int = DEFAULT_WORD_CEILING) -> int:
    """dim of the degree-k piece of the holonomy Lie algebra over Q."""
    return Analysis(arr, ceiling).ranks(k)[-1]
