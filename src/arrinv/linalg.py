"""Exact linear algebra kernels.

Matrices are given as iterables of sparse integer rows, each mapping a
column index to a value.  ``rank_exact`` and ``smith_diagonal`` work on
integer copies and refuse a non-integer entry; ``unit_pass`` takes over
the fresh integer rows its caller hands it.  One loop, `_eliminate`, does
all sparse elimination.  It takes the rows sparsest first, to keep the
fill-in of the pivots small, and reduces each in place against a dict of
pivots, its columns in increasing order; against a pivot led by +-1
(almost all of them on holonomy matrices) the update is
r -= (a * lead) * p, with no scaling and no content division.  The
kernels differ in which lead may become a pivot:

- ``rank_exact`` (and ``rank``, which takes a column count and calls it):
  any lead, and the rank over Q is the number of pivots;
- ``unit_pass``: only a +-1 lead, so every update is unimodular.  A row
  whose lead is another value is set aside; the set-aside rows are
  cleared on every pivot column and passed again until no pivot appears.
  Pivots and set-aside rows span the input over Z, so the nilpotent
  quotient in ``holonomy`` eliminates a generator per pivot and keeps
  the set-aside rows as its core;
- ``smith_diagonal``: the unit pass, then ``_smith_core`` on the rows it
  set aside, the core, in the same sparse rows: it pivots on an entry of
  least absolute value and clears its row and column, and pairwise
  gcd/lcm turns that diagonal into invariant factors.  Their number is
  the rank, so one pass gives rank and torsion.

Outside `_eliminate`, every sparse row update acc += s * row is `_add`:
the row steps of ``_smith_core``, the bracket table and back-substitution
of the nilpotent quotient in ``holonomy``, and ``lyndon.lyndon_product``.

Spans of normals are compared by integer keys in ``arrangement`` and need
no echelon form.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def _integer_row(row) -> dict[int, int]:
    # the one intake: a fresh copy, since the loop updates its rows in place
    r = {}
    for c, v in row.items():
        iv = int(v)
        if iv != v:
            raise ValueError("elimination requires integer entries")
        if iv:
            r[c] = iv
    return r


def _add(acc: dict, row: dict, scale: int) -> None:
    # acc += scale * row, for a nonzero scale
    for c, v in row.items():
        w = acc.get(c, 0) + scale * v
        if w:
            acc[c] = w
        else:
            del acc[c]


def _normalize(row: dict[int, int]) -> dict[int, int]:
    # divide by the content so entries stay small during elimination
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(rows, pivots: dict[int, dict[int, int]],
               unit_leads: bool = False) -> list[dict[int, int]]:
    """Reduce integer rows in place, sparsest first, adding to ``pivots``.

    Each row is reduced on its columns in increasing order, taken from a
    heap, and becomes the pivot of its first free column (its lead).  With
    ``unit_leads`` only a +-1 lead may: any other row is set aside and
    still cleared on the pivot columns after its lead.  Against a pivot
    led by +-1 the update is r -= (a * lead) * p; otherwise r is scaled by
    the lead first and then divided by its content.  Rows that reduce to
    zero are dropped.  Every pivot is zero to the left of its column.
    Returns the set-aside rows.
    """
    aside = []
    for r in sorted(rows, key=len):
        if not unit_leads:
            r = _normalize(r)
        cols = list(r)
        heapify(cols)
        set_aside = False
        while cols:
            c = heappop(cols)
            a = r.get(c)
            if a is None:
                # a column that cancelled after it was queued
                continue
            p = pivots.get(c)
            if p is None:
                if not set_aside and (not unit_leads or a == 1 or a == -1):
                    pivots[c] = r
                    break
                # a set-aside row is still cleared on the pivots after its lead
                set_aside = True
                continue
            del r[c]
            lead = p[c]
            unit = lead == 1 or lead == -1
            if unit:
                a *= lead
            else:
                for k in r:
                    r[k] *= lead
            for k, v in p.items():
                if k == c:
                    continue
                w = r.get(k, 0) - a * v
                if w:
                    if k not in r:
                        heappush(cols, k)
                    r[k] = w
                else:
                    del r[k]
            if not unit:
                r = _normalize(r)
        if set_aside:
            aside.append(r)
    return aside


def rank_exact(rows) -> int:
    """Rank over Q of integer rows by sparse fraction-free elimination.

    The input rows are never modified; a non-integer entry raises
    ValueError.
    """
    pivots: dict[int, dict[int, int]] = {}
    _eliminate(map(_integer_row, rows), pivots)
    return len(pivots)


def rank(rows, ncols: int) -> int:
    """Rank over Q of a matrix with ``ncols`` columns (exact at any width)."""
    return rank_exact(rows)


def unit_pass(rows) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The unimodular pass of the Smith form: (pivots, set-aside rows).

    Takes over integer dict rows and updates them in place; callers hand
    over fresh rows.  Only a +-1 lead becomes a pivot, and a set-aside row
    is cleared only on the pivots found before it, so the set-aside rows
    are passed again until a pass finds no pivot.  Then they are zero on
    every pivot column.  Every update is unimodular, so the pivots and the
    set-aside rows span the same lattice over Z as the input, and the
    pivots are in echelon form with unit leads.
    """
    pivots: dict[int, dict[int, int]] = {}
    aside = rows
    while True:
        found = len(pivots)
        aside = _eliminate(aside, pivots, unit_leads=True)
        if len(pivots) == found:
            return list(pivots.values()), aside


def smith_diagonal(rows) -> list[int]:
    """Invariant factors of an integer matrix, positive, each dividing the next.

    The unit pass gives invariant factor 1 per pivot; its set-aside rows
    form the core.  The input rows are never modified.  The length of the
    result is the rank over Q.
    """
    pivots, core = unit_pass(map(_integer_row, rows))
    d = sorted(_smith_core(core))
    # pairwise gcd/lcm turns the diagonal into a divisibility chain
    for i in range(d.count(1), len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            if g != d[i]:
                d[i], d[j] = g, d[i] // g * d[j]
    return [1] * len(pivots) + d


def _smith_core(core: list[dict[int, int]]) -> list[int]:
    """A diagonal equivalent to the sparse rows ``core``, not yet normalized.

    Pivots on an entry b of least absolute value, clears its column by the
    row operations r -= (a // b) * p and its row by the matching column
    operations.  Every remainder left is smaller than |b|, so the pivot
    magnitude falls until the pivot is alone in its row and column; then
    |b| is a diagonal entry and its row leaves the core.
    """
    diagonal = []
    while core:
        best = None
        for r in core:
            for c, v in r.items():
                if best is None or abs(v) < best[0]:
                    best = (abs(v), r, c)
            if best[0] == 1:
                break
        _, p, c = best
        b = p[c]
        # clear column c by row operations
        for r in core:
            a = r.get(c)
            if a is not None and r is not p:
                # |a| >= |b|, so the scale is never 0
                _add(r, p, -(a // b))
        core = [r for r in core if r]
        # clear row p by column operations: column k -= q * column c
        column = [(r, r[c]) for r in core if c in r]
        for k in [k for k in p if k != c]:
            q = p[k] // b
            for r, a in column:
                w = r.get(k, 0) - q * a
                if w:
                    r[k] = w
                else:
                    del r[k]
        if len(p) == 1 and len(column) == 1:
            diagonal.append(abs(b))
            core.remove(p)
    return diagonal
