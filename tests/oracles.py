"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity along a route the library never takes:
rotation-filtered Lyndon enumeration, tensor-algebra bracket expansion,
sympy ranks and Smith forms, whole-lattice Moebius sums, Hilbert series
coefficient extraction, Moebius inversion of the LCS product formula, per-character Milnor accounting, and a Kunneth
count on product arrangements, the raw graded route to J_k with no
elimination between degrees, and J_k in the tensor algebra with its rank
mod p.  Slow and simple on purpose.  The graded
subspaces at the end take sympy's reduced row echelon form of the raw
J_k rows and of the derived-span rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, gcd

import sympy
from sympy.matrices.normalforms import smith_normal_form

from arrinv.errors import DomainError
from arrinv.holonomy import holonomy_relators
from arrinv.lyndon import lyndon_product, lyndon_words, standard_factorization


# ---------------------------------------------------------------- lyndon

def is_lyndon(word) -> bool:
    if not word:
        return False
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def brute_lyndon_words(n: int, k: int) -> list[tuple[int, ...]]:
    return [w for w in iproduct(range(n), repeat=k) if is_lyndon(w)]


def standard_bracketing(w):
    """Nested-pair form of the basis bracket of a Lyndon word."""
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (standard_bracketing(u), standard_bracketing(v))


def word_index(n: int, k: int) -> dict:
    """The column number of each Lyndon word of length k over n letters."""
    return {w: i for i, w in enumerate(lyndon_words(n, k))}


# ------------------------------------------------- tensor algebra brackets

def tensor_of_bracket(expr):
    """Expand a nested bracket of letters into the tensor algebra.

    Returns a dict mapping words (tuples) to integer coefficients.
    """
    if isinstance(expr, int):
        return {(expr,): 1}
    left, right = expr
    lt, rt = tensor_of_bracket(left), tensor_of_bracket(right)
    out: dict[tuple, int] = {}
    for u, cu in lt.items():
        for v, cv in rt.items():
            _tensor_add(out, u + v, cu * cv)
            _tensor_add(out, v + u, -cu * cv)
    return out


def _tensor_add(acc, word, coeff):
    c = acc.get(word, 0) + coeff
    if c:
        acc[word] = c
    else:
        acc.pop(word, None)


def tensor_commutator(a, b):
    out: dict[tuple, int] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            _tensor_add(out, u + v, cu * cv)
            _tensor_add(out, v + u, -cu * cv)
    return out


def tensor_jk_rows(n: int, flats, k: int) -> list[dict]:
    """Rows of J_k in the tensor algebra T_k over Z, keyed by words: the
    relators [x_h, sum of x_m over X] of every member h of every flat X,
    none dropped, bracketed on the left by k - 2 letters.  No Lyndon code:
    L_k is a direct summand of T_k, so T_k / J_k has the torsion of h_k."""
    rows = [tensor_combination([((h, m), 1) for m in flat if m != h])
            for flat in flats for h in flat]
    for _ in range(k - 2):
        rows = [tensor_commutator({(a,): 1}, r) for r in rows for a in range(n)]
    return rows


def tensor_combination(terms):
    """Sum coeff * tensor_of_bracket(expr) over (expr, coeff) pairs."""
    out: dict[tuple, int] = {}
    for expr, coeff in terms:
        for w, c in tensor_of_bracket(expr).items():
            _tensor_add(out, w, coeff * c)
    return out


# ----------------------------------------------------------- linear algebra

def sympy_rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    dense = []
    for r in rows:
        row = [0] * ncols
        for c, v in (r.items() if isinstance(r, dict) else enumerate(r)):
            row[c] = sympy.Rational(v)
        dense.append(row)
    return sympy.Matrix(dense).rank()


def sympy_invariant_factors(rows, ncols: int) -> list[int]:
    if not rows:
        return []
    dense = []
    for r in rows:
        row = [0] * ncols
        for c, v in (r.items() if isinstance(r, dict) else enumerate(r)):
            row[c] = int(v)
        dense.append(row)
    m = smith_normal_form(sympy.Matrix(dense))
    diag = [abs(m[i, i]) for i in range(min(m.shape))]
    return [int(d) for d in diag if d != 0]


def rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank over F_p by dense Gaussian elimination."""
    dense = [[r.get(c, 0) % p for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inv = pow(dense[rank][col], -1, p)
        top = dense[rank] = [x * inv % p for x in dense[rank]]
        for i, row in enumerate(dense):
            if i != rank and row[col]:
                f = row[col]
                dense[i] = [(x - f * y) % p for x, y in zip(row, top)]
        rank += 1
    return rank


def sparse_rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse integer rows, keyed by any sortable column,
    by sparse elimination against monic pivots."""
    pivots: dict = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivot.items():
                w = (r.get(k, 0) - f * v) % p
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return len(pivots)


def sympy_factor_product(rows, ncols: int) -> int:
    """Product of the invariant factors, from one Bareiss determinant.

    The nonzero rows must be independent and number ncols or ncols - 1.
    The product is the gcd of the maximal minors: for a square matrix its
    |det|; for one row fewer, the signed maximal minors are g * k for the
    primitive kernel vector k, so it is |minor_j| / |k_j| for any k_j != 0,
    where minor_j leaves out column j.
    """
    m = sympy.Matrix([[int(r.get(c, 0)) for c in range(ncols)] for r in rows if r])
    if m.rows == ncols:
        return abs(int(m.det(method="bareiss")))
    assert m.rows == ncols - 1
    kernel, = m.nullspace()
    k = [int(x) for x in kernel * sympy.ilcm(*[x.q for x in kernel])]
    j = next(i for i, x in enumerate(k) if x)
    content = gcd(*k)
    minor = m[:, [c for c in range(ncols) if c != j]].det(method="bareiss")
    return abs(int(minor)) * content // abs(k[j])


def diagonal_invariant_factors(diagonal) -> list[int]:
    """Invariant factors of a diagonal matrix, prime by prime: the i-th
    smallest exponent of each prime goes to the i-th factor."""
    diagonal = [abs(d) for d in diagonal if d]
    factors = [1] * len(diagonal)
    for p in {p for d in diagonal for p in sympy.factorint(d)}:
        for i, e in enumerate(sorted(sympy.multiplicity(p, d) for d in diagonal)):
            factors[i] *= p ** e
    return factors


# ------------------------------------------------------------- catalog

# the defining polynomial of every fixed catalog entry; the catalog builds
# them from normals, and parse_arrangement of these is its oracle
CATALOG_POLYNOMIALS = {
    "x3": "xyz(x+y)(x+z)(y+z)",
    "x2": "xyz(y-z)(x-z)(x+y)(x+y-2z)",
    "nonpappus": "xyz(x+y)(y+z)(x+3z)(x+2y+z)(x+2y+3z)(2x+3y+3z)",
    "pappus": "[x,y,z] y(y-z)(x-y)(x+y-z)(x-3y)(x+2y-2z)(x-2y-z)(x+y-2z)(x+7y-4z)",
}


def braid_polynomial(n: int) -> str:
    """(x_i+x_j)(x_i-x_j) for i < j, over x, y, z when n = 3, else x1..xn."""
    names = ("x", "y", "z") if n == 3 else tuple("x%d" % (i + 1) for i in range(n))
    return "".join("(%s+%s)(%s-%s)" % (names[i], names[j], names[i], names[j])
                   for i in range(n) for j in range(i + 1, n))


def split_solvable_polynomial(ms) -> str:
    """z0 (z0-z_i)(z0-2z_i)...(z0-m_i z_i) for each multiplicity m_i."""
    parts = ["z0"]
    for i, m in enumerate(ms, start=1):
        parts += ["(z0-%sz%d)" % ("" if q == 1 else q, i) for q in range(1, m + 1)]
    return "".join(parts)


# ------------------------------------------------------------- lattice

def _span_rank(vectors) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in v] for v in vectors]).rank()


def brute_l2_flats(normals) -> set[frozenset]:
    """Rank-2 flats as member sets, via sympy ranks over all pairs."""
    flats = set()
    n = len(normals)
    for i, j in combinations(range(n), 2):
        members = [
            h
            for h in range(n)
            if _span_rank([normals[i], normals[j], normals[h]]) == 2
        ]
        flats.add(frozenset(members))
    return flats


def whitney_betti2(normals) -> int:
    """b2 via Moebius recursion over the full closed-set lattice."""
    n = len(normals)
    closures = {frozenset()}
    for size in (1, 2):
        for subset in combinations(range(n), size):
            rank = _span_rank([normals[h] for h in subset])
            closure = frozenset(
                h
                for h in range(n)
                if _span_rank([normals[x] for x in subset] + [normals[h]]) == rank
            )
            closures.add(closure)
    flats = sorted(closures, key=len)
    mob = {}
    for f in flats:
        mob[f] = 1 if not f else -sum(mob[g] for g in flats if g < f)
    total = 0
    for f in flats:
        if f and _span_rank([normals[h] for h in f]) == 2:
            total += abs(mob[f])
    return total


# ------------------------------------------------------------- formulas

def hilbert_theta(n: int, k: int) -> int:
    """theta_k(F_n) as the t^k coefficient of 1 - (1-nt)/(1-t)^n."""
    if k == 0:
        return 0
    return n * comb(n + k - 2, k - 1) - comb(n + k - 1, k)


def product_formula_lcs(n: int, mus, kmax: int) -> tuple[int, ...]:
    """phi_1..phi_kmax solving the product formula

        prod_k (1 - t^k)^{phi_k}  =  (1 - t)^a * prod_X (1 - mu(X) t)

    with a = n - sum mu(X), by Moebius inversion:
    k * phi_k = sum_{d | k} mobius(d) * (a + sum_X mu(X)^{k/d}).
    """
    a = n - sum(mus)
    out = []
    for k in range(1, kmax + 1):
        total = sum(int(sympy.mobius(d)) * (a + sum(m ** (k // d) for m in mus))
                    for d in sympy.divisors(k))
        quot, rem = divmod(total, k)
        assert rem == 0, "the product formula gave a non-integer rank"
        out.append(quot)
    return tuple(out)


# --------------------------------------------------------------- milnor

def per_character_milnor(normals_flats, multiplicities) -> dict[int, int]:
    """Depth of every nontrivial character, one residue at a time.

    normals_flats: list of (member_tuple, mobius) for the multiple flats.
    """
    m = multiplicities
    total = sum(m)
    n = len(m)
    out = {j: 0 for j in range(1, total)}
    for j in range(1, total):
        for members, mobius in normals_flats:
            inside = set(members)
            if any((j * m[h]) % total for h in range(n) if h not in inside):
                continue
            if (j * sum(m[h] for h in inside)) % total:
                continue
            out[j] += mobius - 1
    return out


def kunneth_split_solvable_b1(blocks, multiplicities) -> int:
    """b1 of the Milnor fiber of split_solvable:blocks by the Kunneth formula.

    Hyperplanes are in catalog order: z0 first, then for each block i the
    m_i hyperplanes z0 - q*z_i.  Off z0 the projective complement is the
    product over i of P^1 minus (m_i + 1) points, and the character t_j
    restricts to factor i through the multiplicities of block i.  On a
    factor the local system has h0 = 1, h1 = m_i when it is trivial, and
    h0 = 0, h1 = m_i - 1 otherwise; b1 sums the degree-1 Kunneth terms
    over all residues j mod N.  No flat or congruence rule is used.
    """
    m = multiplicities
    total = sum(m)
    assert len(m) == 1 + sum(blocks)
    b1 = 0
    for j in range(total):
        h0, h1 = [], []
        start = 1
        for size in blocks:
            trivial = all(j * x % total == 0 for x in m[start:start + size])
            h0.append(1 if trivial else 0)
            h1.append(size if trivial else size - 1)
            start += size
        for i in range(len(blocks)):
            term = h1[i]
            for k in range(len(blocks)):
                if k != i:
                    term *= h0[k]
            b1 += term
    return b1


# ------------------------------------------------------- dense exact rank

def fraction_rank(rows, ncols: int) -> int:
    """Plain dense Gaussian elimination over Fraction."""
    dense = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for c, v in (r.items() if isinstance(r, dict) else enumerate(r)):
            row[c] = Fraction(v)
        dense.append(row)
    rank = 0
    col = 0
    while rank < len(dense) and col < ncols:
        pivot = next((i for i in range(rank, len(dense)) if dense[i][col]), None)
        if pivot is None:
            col += 1
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inv = 1 / dense[rank][col]
        dense[rank] = [x * inv for x in dense[rank]]
        for i in range(len(dense)):
            if i != rank and dense[i][col]:
                f = dense[i][col]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
        col += 1
    return rank


# --------------------------------------------------------- raw graded route

def _bracket_words(i: int, row: dict) -> dict:
    """[x_i, row] over Lyndon words."""
    acc: dict = {}
    for w, c in row.items():
        for w2, c2 in lyndon_product((i,), w).items():
            acc[w2] = acc.get(w2, 0) + c * c2
    return {w: c for w, c in acc.items() if c}


def raw_jk_word_rows(arr, k: int) -> list[dict]:
    """Raw generating rows of J_k over Lyndon words: the degree-2 relators
    bracketed k - 2 times by every generator, duplicates dropped, with no
    elimination between degrees."""
    rows = [dict(r) for r in holonomy_relators(arr)]
    for _ in range(k - 2):
        out, seen = [], set()
        for row in rows:
            for i in range(arr.n):
                acc = _bracket_words(i, row)
                key = frozenset(acc.items())
                if acc and key not in seen:
                    seen.add(key)
                    out.append(acc)
        rows = out
    return rows


def raw_jk_rows(arr, k: int):
    """(rows, ncols): the raw rows of J_k over the column numbers of the
    degree-k Lyndon basis."""
    index = word_index(arr.n, k)
    return _columns(raw_jk_word_rows(arr, k), index), len(index)


def derived_word_rows(n: int, k: int) -> list[dict]:
    """Brackets [u, v] of Lyndon words of lengths >= 2 summing to k."""
    rows = []
    for p in range(2, k // 2 + 1):
        us, vs = lyndon_words(n, p), lyndon_words(n, k - p)
        for u in us:
            for v in vs:
                if u < v or len(u) != len(v):
                    acc = lyndon_product(u, v)
                    if acc:
                        rows.append(acc)
    return rows


def _columns(word_rows, index) -> list[dict]:
    return [{index[w]: c for w, c in row.items()} for row in word_rows]


# ------------------------------------------------------- graded subspaces

@dataclass(frozen=True)
class GradedSubspace:
    """A degree-homogeneous subspace, rows in reduced echelon form."""

    degree: int
    ambient_dim: int
    basis_rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis_rows)


def _echelon_subspace(word_rows, n: int, k: int) -> GradedSubspace:
    index = word_index(n, k)
    dense = []
    for r in _columns(word_rows, index):
        row = [0] * len(index)
        for c, v in r.items():
            row[c] = v
        dense.append(row)
    rref = sympy.Matrix(dense).rref()[0].tolist() if dense else []
    frozen = tuple(
        tuple((c, Fraction(int(v.p), int(v.q))) for c, v in enumerate(r) if v)
        for r in rref
        if any(r)
    )
    return GradedSubspace(k, len(index), frozen)


def holonomy_ideal_subspace(arr, k: int) -> GradedSubspace:
    """Reduced echelon basis of J_k (exact; meant for small degrees)."""
    if k < 2:
        raise DomainError("the ideal starts in degree 2")
    return _echelon_subspace(raw_jk_word_rows(arr, k), arr.n, k)


def derived_subspace(n: int, k: int) -> GradedSubspace:
    """Reduced echelon basis of the derived span D_k of the free Lie algebra."""
    if n < 1 or k < 1:
        raise DomainError("need n >= 1 and k >= 1")
    return _echelon_subspace(derived_word_rows(n, k), n, k)
