"""Closed-form rank formulas for LCS and Chen ranks.

Everything here is exact integer arithmetic.  In degrees >= 2 the
holonomy Lie algebra of a decomposable arrangement is the product of
free Lie algebras on mu(X) generators over the multiple flats X, so its
LCS ranks are phi_1 = n and phi_k = sum_X witt(mu(X), k) for k >= 2
(`holonomy.local_rank`).  They solve the product formula

    prod_N (1 - t^N)^{phi_N}  =  (1 - t)^a * prod_X (1 - mu(X) t),

with a = n - sum mu(X).

Graphic arrangements use the clique/Witt double sum instead, for every
graph: with kappa_s the number of complete subgraphs on s+1 vertices,

    phi_k = sum_{j=1}^{k} sum_{s=j}^{k} (-1)^(s-j) C(s, j) kappa_s witt(j, k).

On K4-free graphs it agrees with the local sum, and the tests compare
the two.
"""

from __future__ import annotations

from math import comb

from ._record import record
from .arrangement import Arrangement, SimpleGraph, compute_l2
from .errors import DomainError
from .holonomy import Analysis, check_degree, local_rank, witt_count


@record
class RankTable:
    """Integer rank table indexed by degree, starting at 1."""

    kind: str  # "lcs" or "chen"
    values: dict[int, int]

    def __post_init__(self):
        if self.kind not in ("lcs", "chen"):
            raise ValueError("unknown table kind %r" % (self.kind,))
        degrees = sorted(self.values)
        if degrees != list(range(1, len(degrees) + 1)):
            raise ValueError("degrees must be contiguous from 1")
        if any(v < 0 for v in self.values.values()):
            raise ValueError("ranks are nonnegative")

    def __getitem__(self, degree: int) -> int:
        return self.values[degree]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values[k] for k in range(1, len(self.values) + 1))


def free_chen(n: int, k: int) -> int:
    """Chen rank theta_k of the free group on n generators."""
    if n < 1 or k < 1:
        raise DomainError("free_chen needs n >= 1 and k >= 1")
    if k == 1:
        return n
    return (k - 1) * comb(n + k - 2, k)


def chen_lower_bound(arr: Arrangement, k: int) -> int:
    """Sum of local free-group Chen ranks over the multiple rank-2 flats.

    Always a lower bound for the Chen ranks of the arrangement group;
    exact when the arrangement is decomposable.
    """
    if k < 2:
        raise DomainError("the local Chen bound is defined for k >= 2")
    mus = [f.mobius for f in compute_l2(arr).multiple_flats()]
    return sum(mus.count(mu) * free_chen(mu, k) for mu in set(mus))


def _local_table(kind: str, an: Analysis, kmax: int, rule) -> RankTable:
    # the decomposable tables in one refusal order: kmax, the hypothesis,
    # the degree bound; then n in degree 1 and rule(arr, k) above it
    if kmax < 1:
        raise DomainError("need kmax >= 1")
    an.require()
    check_degree(kmax)
    values = {1: an.arr.n}
    values.update((k, rule(an.arr, k)) for k in range(2, kmax + 1))
    return RankTable(kind, values)


def chen_ranks_decomposable(an: Analysis, kmax: int) -> RankTable:
    """Chen ranks theta_1..theta_kmax under the decomposability hypothesis."""
    return _local_table("chen", an, kmax, chen_lower_bound)


def lcs_ranks_decomposable(an: Analysis, kmax: int) -> RankTable:
    """LCS ranks phi_1..phi_kmax under the decomposability hypothesis.

    An Arrangement is accepted in place of ``an`` and analysed for this
    call alone; perfbench/expectations.py calls it that way.
    """
    if isinstance(an, Arrangement):
        an = Analysis(an)
    return _local_table("lcs", an, kmax, local_rank)


def clique_counts(g: SimpleGraph) -> list[int]:
    """kappa_s = number of complete subgraphs on s+1 vertices, s < |V|."""
    adj = [set() for _ in range(g.vertices)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    counts = [0] * g.vertices

    def extend(size, candidates):
        for v in candidates:
            counts[size] += 1
            extend(size + 1, [w for w in candidates if w > v and w in adj[v]])

    extend(0, list(range(g.vertices)))
    return counts


def graphic_lcs(g: SimpleGraph, kmax: int) -> RankTable:
    """LCS ranks of the graphic arrangement group of g."""
    if kmax < 1:
        raise DomainError("need kmax >= 1")
    kappa = clique_counts(g)
    values: dict[int, int] = {}
    for k in range(1, kmax + 1):
        total = 0
        for j in range(1, k + 1):
            coeff = sum(
                (-1) ** (s - j) * comb(s, j) * kappa[s]
                for s in range(j, min(k, len(kappa) - 1) + 1)
            )
            total += coeff * witt_count(j, k)
        values[k] = total
    return RankTable("lcs", values)
