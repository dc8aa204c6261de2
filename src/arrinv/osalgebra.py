"""Degree <= 3 Orlik-Solomon algebra over the rationals.

The exterior algebra E on one degree-1 generator per hyperplane surjects
onto the cohomology of the complement; the kernel in degree 2 is spanned
by the boundaries d(e_i e_j e_k) of triples lying in a common rank-2 flat.
This module builds that quadratic piece I2, checks its rank against the
Moebius-sum second Betti number, and computes the nullity of the
multiplication map E1 (x) I2 -> E3, which equals the degree-3 rank of the
holonomy Lie algebra and serves as its independent oracle.  Both work on
the generators as the flats' triples give them: nothing is echelonized,
and the only elimination is an exact rank.

Rows are ``linalg``'s sparse rows with computed columns, in the
lexicographic order of the basis words: e_i^e_j (i < j) is column
i*n + j, and e_a^e_b^e_c is (a*n + b)*n + c.  No index table is built.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ._record import record
from .arrangement import Arrangement, L2Lattice, compute_l2
from .linalg import rank, rank_exact


@record
class OSQuadraticIdeal:
    """Degree-2 piece of the Orlik-Solomon ideal, as sparse Lambda^2 rows."""

    n: int
    generators: tuple
    rank: int


def i2_basis(lat: L2Lattice) -> OSQuadraticIdeal:
    """Generators d(e_i e_j e_k) over all triples inside a flat, with rank.

    Each generator is e_j^e_k - e_i^e_k + e_i^e_j, e_i^e_j in column
    i*n + j; the rank is computed by exact row reduction and must equal
    binom(n,2) - b2.
    """
    n = lat.n
    gens = tuple({j * n + k: 1, i * n + k: -1, i * n + j: 1}
                 for flat in lat for i, j, k in combinations(flat.members, 3))
    return OSQuadraticIdeal(n, gens, rank_exact(gens))


def falk_phi3(arr: Arrangement) -> int:
    """Nullity of the multiplication map E1 (x) I2 -> Lambda^3.

    The domain has dimension n * rank(I2), and the image is spanned by
    e_h ^ g over every hyperplane h and every generator g of I2, so no
    basis of I2 is needed.
    """
    n = arr.n
    ideal = i2_basis(compute_l2(arr))
    rows = []
    for g in ideal.generators:
        for h in range(n):
            # e_h ^ e_a ^ e_b, sorted with a sign; the three pairs give
            # three different triples, so no two terms collide
            row = {}
            for c, v in g.items():
                a, b = divmod(c, n)
                if h == a or h == b:
                    continue
                if h < a:
                    row[(h * n + a) * n + b] = v
                elif h < b:
                    row[(a * n + h) * n + b] = -v
                else:
                    row[(a * n + b) * n + h] = v
            rows.append(row)
    return n * ideal.rank - rank(rows, comb(n, 3))
