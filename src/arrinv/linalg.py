"""Exact linear algebra kernels.

Matrices are given as iterables of sparse integer rows, each mapping a
column index to a value; a non-integer entry is refused.  One loop,
`_eliminate`, does all sparse elimination.  It takes integer copies of
the rows sparsest first, to keep the fill-in of the pivots small, and
reduces each copy in place against a dict of pivots, its columns in
increasing order; against a pivot led by +-1 (almost all of them on
holonomy matrices) the update is r -= (a * lead) * p, with no scaling and
no content division.  The two kernels differ only in which lead may
become a pivot:

- ``rank_exact`` (and ``rank``, which takes a column count and calls it):
  any lead, and the rank over Q is the number of pivots;
- ``smith_diagonal``: only a +-1 lead, so every update is unimodular.  A
  row whose lead is another value is set aside; the set-aside rows are
  cleared on every pivot column and passed again until no pivot appears,
  and what is left goes through a dense integer reduction.  The number of
  invariant factors is the rank, so one pass gives rank and torsion.

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


def smith_diagonal(rows, ncols: int) -> list[int]:
    """Invariant factors of an integer matrix, positive, each dividing the next.

    Always exact.  The unit-lead pivots are in echelon form and each gives
    invariant factor 1.  A set-aside row is cleared only on the pivots
    found before it, so the set-aside rows are passed again until a pass
    finds no pivot; then they are zero on every pivot column and form the
    core that goes through dense integer reduction.  The length of the
    result is the rank over Q.
    """
    pivots: dict[int, dict[int, int]] = {}
    core = map(_integer_row, rows)
    while True:
        found = len(pivots)
        core = _eliminate(core, pivots, unit_leads=True)
        if len(pivots) == found:
            break
    units = len(pivots)
    if not core:
        return [1] * units
    used = sorted({c for r in core for c in r})
    remap = {c: i for i, c in enumerate(used)}
    core = [{remap[c]: v for c, v in r.items()} for r in core]
    return [1] * units + _smith_dense(core, len(used))


def _smith_dense(rows, ncols: int) -> list[int]:
    mat: list[list[int]] = []
    for row in rows:
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v
        mat.append(dense)
    R = len(mat)
    d: list[int] = []
    t = 0
    while t < R and t < ncols:
        # locate the smallest-magnitude nonzero entry of the trailing block
        best = None
        for i in range(t, R):
            mi = mat[i]
            for j in range(t, ncols):
                v = mi[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            mat[t], mat[pi] = mat[pi], mat[t]
        if pj != t:
            for rowv in mat:
                rowv[t], rowv[pj] = rowv[pj], rowv[t]
        while True:
            # clear column t by row operations (gcd descent via remainders)
            moved = False
            while True:
                piv = mat[t][t]
                swapped = False
                for i in range(t + 1, R):
                    if mat[i][t] == 0:
                        continue
                    q = mat[i][t] // piv
                    if q:
                        mi, mt = mat[i], mat[t]
                        for j in range(t, ncols):
                            mi[j] -= q * mt[j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        swapped = True
                        break
                if not swapped:
                    break
                moved = True
            # clear row t by column operations; column t is clean below t,
            # so each column op only changes the row-t entry
            piv = mat[t][t]
            for j in range(t + 1, ncols):
                v = mat[t][j]
                if v == 0:
                    continue
                q = v // piv
                if q:
                    mat[t][j] -= q * piv
                if mat[t][j]:
                    for rowv in mat:
                        rowv[t], rowv[j] = rowv[j], rowv[t]
                    moved = True
                    break
            if moved:
                continue
            # pivot must divide the rest of the block
            piv = abs(mat[t][t])
            bad = None
            for i in range(t + 1, R):
                mi = mat[i]
                for j in range(t + 1, ncols):
                    if mi[j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            mb, mt = mat[bad], mat[t]
            for j in range(t, ncols):
                mt[j] += mb[j]
        d.append(abs(mat[t][t]))
        t += 1
    return d
