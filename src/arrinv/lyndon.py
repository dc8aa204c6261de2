"""Lyndon words and the bracket of the free Lie algebra in their basis.

Words over the alphabet 0..n-1 are tuples of ints.  A Lyndon word is
strictly smaller than each of its proper cyclic rotations; the bracketings
of the Lyndon words of length k form a basis of the degree-k part of the
free Lie algebra on n generators (Lyndon basis).  ``lyndon_product``
rewrites the bracket of two basis elements in this basis; the rewriting is
classical: a "standard pair" is already a basis word, everything else is
reduced by the Jacobi identity through the standard factorization.

The library needs none of this: the holonomy quotient is built without
the free Lie algebra, and the word ceiling is checked on the necklace
count ``holonomy.witt_count`` in ``holonomy.Analysis``.  No command loads
this module.  It stays in the package for two readers outside it: the
tests' word-route oracle, and the benchmark tracer, which imports it as a
layer and reads ``lyndon_product``'s cache.  It moves to the tests'
oracles once the benchmark stops reading it.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import _add

Word = tuple[int, ...]


def lyndon_words(n: int, k: int) -> list[Word]:
    """All Lyndon words of length exactly k over 0..n-1, lexicographic."""
    if n < 1 or k < 1:
        return []
    if n == 1:
        return [(0,)] if k == 1 else []
    out: list[Word] = []
    w = [0]
    while True:
        if len(w) == k:
            out.append(tuple(w))
        w = (w * (k // len(w) + 1))[:k]
        while w and w[-1] == n - 1:
            w.pop()
        if not w:
            break
        w[-1] += 1
    return out


@lru_cache(maxsize=None)
def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as uv with v the least proper suffix."""
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def _negate(d: dict[Word, int]) -> dict[Word, int]:
    return {w: -c for w, c in d.items()}


@lru_cache(maxsize=None)
def lyndon_product(u: Word, v: Word) -> dict[Word, int]:
    """[u, v] expanded over the Lyndon basis, for Lyndon words u and v."""
    if u == v:
        return {}
    if v < u:
        return _negate(lyndon_product(v, u))
    # now u < v, so uv is Lyndon
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        return {u + v: 1}
    u1, u2 = standard_factorization(u)
    # Jacobi: [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
    acc: dict[Word, int] = {}
    for w, c in lyndon_product(u2, v).items():
        _add(acc, lyndon_product(u1, w), c)
    for w, c in lyndon_product(u1, v).items():
        _add(acc, lyndon_product(u2, w), -c)
    return acc
