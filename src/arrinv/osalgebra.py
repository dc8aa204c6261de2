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
"""

from __future__ import annotations

from itertools import combinations

from ._record import record
from .arrangement import Arrangement, L2Lattice, compute_l2
from .linalg import rank, rank_exact


def pair_index(n: int):
    """Column index of e_i^e_j (i < j) in the lexicographic Lambda^2 basis."""
    idx = {}
    for c, (i, j) in enumerate(combinations(range(n), 2)):
        idx[i, j] = c
    return idx


def triple_index(n: int):
    """Column index of e_i^e_j^e_k (i < j < k) in the Lambda^3 basis."""
    idx = {}
    for c, t in enumerate(combinations(range(n), 3)):
        idx[t] = c
    return idx


@record
class OSQuadraticIdeal:
    """Degree-2 piece of the Orlik-Solomon ideal, as sparse Lambda^2 rows."""

    n: int
    generators: tuple
    rank: int


def i2_basis(lat: L2Lattice) -> OSQuadraticIdeal:
    """Generators d(e_i e_j e_k) over all triples inside a flat, with rank.

    Each generator is e_j^e_k - e_i^e_k + e_i^e_j; the rank is computed by
    exact row reduction and must equal binom(n,2) - b2.
    """
    n = lat.n
    pidx = pair_index(n)
    gens = []
    for flat in lat:
        for i, j, k in combinations(flat.members, 3):
            gens.append({pidx[j, k]: 1, pidx[i, k]: -1, pidx[i, j]: 1})
    gens = tuple(gens)
    return OSQuadraticIdeal(n, gens, rank_exact(list(gens)))


def falk_phi3(arr: Arrangement) -> int:
    """Nullity of the multiplication map E1 (x) I2 -> Lambda^3.

    The domain has dimension n * rank(I2), and the image is spanned by
    e_h ^ d(e_i e_j e_k) over every hyperplane h and every triple i < j < k
    inside a flat, so no basis of I2 is needed.
    """
    n = arr.n
    lat = compute_l2(arr)
    tidx = triple_index(n)
    rows = []
    for flat in lat:
        for i, j, k in combinations(flat.members, 3):
            # d(e_i e_j e_k) = e_j e_k - e_i e_k + e_i e_j
            for h in range(n):
                # e_h ^ e_a ^ e_b, sorted with a sign; the three pairs give
                # three different triples, so no two terms collide
                row = {}
                for a, b, v in ((j, k, 1), (i, k, -1), (i, j, 1)):
                    if h == a or h == b:
                        continue
                    if h < a:
                        row[tidx[h, a, b]] = v
                    elif h < b:
                        row[tidx[a, h, b]] = -v
                    else:
                        row[tidx[a, b, h]] = v
                rows.append(row)
    return n * i2_basis(lat).rank - rank(rows, len(tidx))
