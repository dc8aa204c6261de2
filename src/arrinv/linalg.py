"""Exact linear algebra kernels.

Matrices are given as iterables of sparse rows; a row maps column index
to an integer or Fraction value.  Ranks over the rationals come from one
kernel, fraction-free sparse elimination, at every width.  It takes
integer copies of the rows sparsest first, to keep the fill-in of the
pivots small, and reduces each copy in place; against a pivot led by +-1
(almost all of them on holonomy matrices) that is r -= (a * lead) * p,
with no scaling and no content division.  Smith normal form diagonals
are computed exactly over the integers by a streaming unit-pivot front
end, shaped like the rank kernel's dict of pivots, and a dense reduction
of the small core it leaves; the number of invariant factors is the rank,
so one pass gives both.

These are the package's only elimination kernels: ``rank_exact`` (and
``rank``, which takes a column count and calls it) and ``smith_diagonal``.
Spans of normals are compared by integer keys in ``arrangement`` and need
no echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _intify(row) -> dict[int, int]:
    """Clear denominators and drop zeros; returns an integer row."""
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    out = {}
    for c, v in row.items():
        iv = int(v * den)
        if iv:
            out[c] = iv
    return out


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


def rank_exact(rows) -> int:
    """Rank over Q by sparse fraction-free elimination.

    The rows are made integral and taken sparsest first, which keeps the
    fill-in of the pivot rows small (the Markowitz heuristic).  Each row
    is reduced in place against the pivots found so far, its columns
    taken in increasing order from a heap.  Against a pivot whose leading
    entry is +-1 the update is r -= (a * lead) * p; otherwise r is scaled
    by the lead first and then divided by its content.  The input rows
    are never modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in sorted(map(_intify, rows), key=len):
        r = _normalize(r)
        cols = list(r)
        heapify(cols)
        while cols:
            c = heappop(cols)
            a = r.get(c)
            if a is None:
                # a column that cancelled after it was queued
                continue
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
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
    return len(pivots)


def rank(rows, ncols: int) -> int:
    """Rank over Q of a matrix with ``ncols`` columns (exact at any width)."""
    return rank_exact(rows)


def smith_diagonal(rows, ncols: int) -> list[int]:
    """Invariant factors of an integer matrix, positive, each dividing the next.

    Always exact.  A streaming front end splits off unit pivots: each row
    is reduced against the pivots found so far, in the order they were
    created, and becomes a pivot itself if a +-1 entry is left; otherwise
    it is set aside.  The set-aside rows are passed through again until no
    new pivot appears.  Every pivot contributes invariant factor 1, and
    the set-aside rows, now zero on every pivot column, form the core that
    goes through dense integer reduction.  The length of the result is the
    rank over Q, so rank and torsion come from one pass.
    """
    # unit pivot rows in creation order, and the column of each unit; a
    # pivot is zero on the columns of every pivot created before it
    prows: list[dict[int, int]] = []
    pivot_of: dict[int, int] = {}
    # the first pass streams the input, so rows that reduce to zero are
    # freed at once
    pending = map(_integer_row, rows)
    while True:
        found = len(prows)
        core = []
        for r in pending:
            r = _reduce_units(r, prows, pivot_of)
            if not r:
                continue
            unit = min((c for c, v in r.items() if v == 1 or v == -1), default=None)
            if unit is None:
                core.append(r)
            else:
                pivot_of[unit] = len(prows)
                prows.append(r)
        pending = core
        if len(prows) == found:
            break
    units = len(prows)
    if not core:
        return [1] * units
    used = sorted({c for r in core for c in r})
    remap = {c: i for i, c in enumerate(used)}
    core = [{remap[c]: v for c, v in r.items()} for r in core]
    return [1] * units + _smith_dense(core, len(used))


def _integer_row(row) -> dict[int, int]:
    r = {}
    for c, v in row.items():
        iv = int(v)
        if iv != v:
            raise ValueError("smith_diagonal requires integer entries")
        if iv:
            r[c] = iv
    return r


def _reduce_units(r: dict[int, int], prows, pivot_of) -> dict[int, int]:
    # clear the pivot columns of r, earliest pivot first: a pivot is zero on
    # the columns of earlier pivots, so a cleared column never comes back
    hits = [(pivot_of[c], c) for c in r if c in pivot_of]
    if not hits:
        return r
    heapify(hits)
    while hits:
        i, c = heappop(hits)
        coef = r.pop(c, 0)
        if not coef:
            continue
        prow = prows[i]
        scale = coef * prow[c]
        for k, v in prow.items():
            if k == c:
                continue
            w = r.get(k, 0) - scale * v
            if w:
                if k not in r and k in pivot_of:
                    heappush(hits, (pivot_of[k], k))
                r[k] = w
            else:
                r.pop(k, None)
    return r


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
