"""Exact linear algebra kernels.

Matrices are given as lists of sparse rows; a row maps column index to an
integer or Fraction value.  Ranks over the rationals come from one kernel,
fraction-free sparse elimination, at every width.  Smith normal form
diagonals are computed exactly over the integers.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Rank over Q by sparse fraction-free elimination."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _normalize(_intify(row))
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            a = r.pop(c)
            lead = p[c]
            nr = {k: lead * v for k, v in r.items()}
            for k, v in p.items():
                if k == c:
                    continue
                w = nr.get(k, 0) - a * v
                if w:
                    nr[k] = w
                else:
                    nr.pop(k, None)
            r = _normalize(nr)
    return len(pivots)


def reduced_echelon(rows) -> list[dict[int, Fraction]]:
    """Reduced row echelon basis of the row span, ordered by pivot column.

    Each returned row has value 1 at its pivot column and zeros at every
    other pivot column, so rows stay sparse when the corank is small.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                a = r.pop(c)
                newp = {c: Fraction(1)}
                for k, v in r.items():
                    newp[k] = v / a
                # clear later pivot columns from the new row first, so the
                # invariant "pivot rows touch no other pivot column" holds
                for pc, prow in pivots.items():
                    coef = newp.pop(pc, None)
                    if coef:
                        for k, v in prow.items():
                            if k == pc:
                                continue
                            w = newp.get(k, Fraction(0)) - coef * v
                            if w:
                                newp[k] = w
                            else:
                                newp.pop(k, None)
                for prow in pivots.values():
                    coef = prow.pop(c, None)
                    if coef:
                        for k, v in newp.items():
                            if k == c:
                                continue
                            w = prow.get(k, Fraction(0)) - coef * v
                            if w:
                                prow[k] = w
                            else:
                                prow.pop(k, None)
                pivots[c] = newp
                break
            a = r.pop(c)
            for k, v in p.items():
                if k == c:
                    continue
                w = r.get(k, Fraction(0)) - a * v
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return [pivots[c] for c in sorted(pivots)]


def rank(rows, ncols: int) -> int:
    """Rank over Q of a matrix with ``ncols`` columns (exact at any width)."""
    return rank_exact(rows)


def smith_diagonal(rows, ncols: int) -> list[int]:
    """Invariant factors of an integer matrix, positive, each dividing the next.

    Always exact.  A sparse sweep first eliminates unit pivots (which
    contribute invariant factor 1 and, once their row and column are
    cleared, split off); the leftover core, usually tiny, goes through
    dense integer reduction with smallest-pivot selection and the
    classical divisibility push.
    """
    sparse: list[dict[int, int]] = []
    for row in rows:
        r = {}
        for c, v in row.items():
            iv = int(v)
            if iv != v:
                raise ValueError("smith_diagonal requires integer entries")
            if iv:
                r[c] = iv
        if r:
            sparse.append(r)
    units = 0
    while True:
        pivot = None
        for idx, r in enumerate(sparse):
            for c, v in r.items():
                if v == 1 or v == -1:
                    pivot = (idx, c, v)
                    break
            if pivot:
                break
        if pivot is None:
            break
        idx, c, s = pivot
        prow = sparse.pop(idx)
        units += 1
        for other in sparse:
            coef = other.pop(c, 0)
            if not coef:
                continue
            scale = coef * s
            for k, v in prow.items():
                if k == c:
                    continue
                w = other.get(k, 0) - scale * v
                if w:
                    other[k] = w
                else:
                    other.pop(k, None)
        sparse = [r for r in sparse if r]
    if not sparse:
        return [1] * units
    used = sorted({c for r in sparse for c in r})
    remap = {c: i for i, c in enumerate(used)}
    core = [{remap[c]: v for c, v in r.items()} for r in sparse]
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
