"""Expected outcome of every benchmark operation, by an independent route.

For each operation this module predicts the exit code and, for exit 0,
a canonical summary of the result.  ``summarize`` maps the program's JSON
report to the same summary, so checking an operation is one equality.

Routes used here and never by the command under test:

* rank-2 flats by grouping hyperplane pairs on the reduced echelon form of
  the 2-plane they span, and ranks by Fraction elimination, both written
  here;
* degree-3 ranks from the Orlik-Solomon side (``falk_phi3``), and b2 as
  C(n,2) minus the rank of the quadratic OS ideal (``i2_basis``) on the
  flats found here;
* LCS ranks for ``lcs`` from pinned values, ``holonomy_rank`` on small
  inputs and the product formula written here; for ``holonomy`` above
  degree 3 from pinned values, ``graphic_lcs``, ``lcs_ranks_decomposable``
  or, for the rest (braid:4, pappus, braid:3), Fraction elimination of the
  holonomy ideal expanded over words, written here;
* the local degree-3 rank, Chen ranks and jump-locus components from
  the flats found here;
* Milnor b1 by testing every character against every flat.

Everything runs in the benchmark process, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from arrinv import (
    Flat2,
    L2Lattice,
    SimpleGraph,
    builtin,
    falk_phi3,
    graphic_lcs,
    holonomy_rank,
    i2_basis,
    lcs_ranks_decomposable,
    make_arrangement,
)

from workloads import Op, Workload

DEFAULT_CEILING = 200_000

# LCS ranks fixed in advance: x3 by the product formula (criterion 07).
PINNED_LCS = {"x3": (6, 3, 6, 9, 18)}

# holonomy_rank serves as the LCS oracle while the degree-k basis is at most this wide
_SMALL_BASIS = 600
# widest degree-k basis for the word route (braid:4 at degree 4 is 5148 wide, ~3 s)
_WORD_ROUTE_BASIS = 6000


# ------------------------------------------------------------- exact algebra

def _rref(rows) -> tuple[tuple[Fraction, ...], ...]:
    m = [list(map(Fraction, r)) for r in rows]
    out = []
    col = 0
    width = len(m[0]) if m else 0
    while m and col < width:
        piv = next((r for r in m if r[col]), None)
        if piv is None:
            col += 1
            continue
        m.remove(piv)
        piv = [v / piv[col] for v in piv]
        m = [[a - r[col] * b for a, b in zip(r, piv)] for r in m]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return tuple(tuple(r) for r in out)


def rank_of(rows) -> int:
    return len(_rref(rows))


def flats_of(normals) -> list[tuple[int, ...]]:
    """Rank-2 flats as sorted member tuples, by the 2-plane each pair spans."""
    groups: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(normals)), 2):
        groups.setdefault(_rref([normals[i], normals[j]]), set()).update((i, j))
    return sorted(tuple(sorted(g)) for g in groups.values())


def witt(n: int, k: int) -> int:
    """Number of Lyndon words of length k on n letters."""
    return sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _bracket(p: dict, q: dict) -> dict:
    """[p, q] = pq - qp of two elements of the free associative algebra."""
    out: dict[tuple, int] = {}
    for u, a in p.items():
        for v, b in q.items():
            out[u + v] = out.get(u + v, 0) + a * b
            out[v + u] = out.get(v + u, 0) - a * b
    return {w: c for w, c in out.items() if c}


def _sparse_rank(rows) -> int:
    """Rank over Q of sparse rows {column: value} by Fraction elimination."""
    pivots: dict = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items()}
        while r:
            c = max(r)
            p = pivots.get(c)
            if p is None:
                lead = r[c]
                pivots[c] = {k: v / lead for k, v in r.items()}
                break
            a = r[c]
            for k, v in p.items():
                w = r.get(k, 0) - a * v
                if w:
                    r[k] = w
                else:
                    del r[k]
    return len(pivots)


def holonomy_lcs_by_words(n: int, flats, k: int) -> int:
    """phi_k of the holonomy Lie algebra, k >= 2, from the flats.

    The quadratic relators are [x_i, x_j] for a pair on a double point and
    [x_i, sum of x_j over X] for i in a flat X of three or more.  The
    degree-k part of the ideal is spanned by brackets of k - 2 generators
    with a relator; expanded over words of the free associative algebra
    (into which the free Lie algebra embeds) its rank is the ideal's, and
    phi_k is witt(n, k) minus that rank.
    """
    gens = [{(i,): 1} for i in range(n)]
    rows = []
    for f in flats:
        if len(f) == 2:
            rows.append(_bracket(gens[f[0]], gens[f[1]]))
        else:
            total = {(j,): 1 for j in f}
            rows += [_bracket(gens[i], total) for i in f]
    for _ in range(k - 2):
        rows = [_bracket(g, r) for g in gens for r in rows]
    return witt(n, k) - _sparse_rank(rows)


def product_formula_lcs(n: int, mus, kmax: int) -> dict[int, int]:
    """phi_k from prod (1-t^k)^phi_k = (1-t)^a prod_X (1 - mu_X t)."""
    a = n - sum(mus)
    out = {}
    for k in range(1, kmax + 1):
        total = sum(_mobius(d) * (a + sum(m ** (k // d) for m in mus))
                    for d in range(1, k + 1) if k % d == 0)
        out[k] = total // k
    return out


def milnor_spectrum(flats, m) -> dict[int, int]:
    """Depth of every character t_j, j = 1..N-1, in the local subtori."""
    n, total = len(m), sum(m)
    multiple = [f for f in flats if len(f) >= 3]
    out = {}
    for j in range(1, total):
        depth = 0
        for f in multiple:
            members = set(f)
            if any(j * m[h] % total for h in range(n) if h not in members):
                continue
            if j * sum(m[h] for h in f) % total:
                continue
            depth += len(f) - 2
        out[j] = depth
    return out


# ------------------------------------------------------------------ subjects

@dataclass
class Subject:
    """An input arrangement with its lazily computed oracle values."""

    spec: str | None  # builtin spec, or None for a generated file
    normals: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...] | None = None
    _arr: object = None
    _phi3: int | None = None
    _flats: list | None = None

    @property
    def n(self) -> int:
        return len(self.normals)

    @property
    def arrangement(self):
        if self._arr is None:
            self._arr = builtin(*_builtin_args(self.spec)) if self.spec else \
                make_arrangement(self.normals)
        return self._arr

    def flats(self):
        if self._flats is None:
            self._flats = flats_of(self.normals)
        return self._flats

    def mus(self):
        return [len(f) - 1 for f in self.flats()]

    def phi3(self) -> int:
        if self._phi3 is None:
            self._phi3 = falk_phi3(self.arrangement)
        return self._phi3

    def local3(self) -> int:
        return 2 * sum(comb(mu + 1, 3) for mu in self.mus())

    def decomposable(self) -> bool:
        return self.phi3() == self.local3()


def _builtin_args(spec: str):
    name, _, rest = spec.partition(":")
    if name == "graphic":
        return name, [tuple(map(int, e.split("-"))) for e in rest.split(",")]
    return name, [int(p) for p in rest.split(",")] if rest else []


def subject_for(source, workload: Workload, cache: dict) -> Subject:
    if source in cache:
        return cache[source]
    kind, value = source
    if kind == "file":
        subj = Subject(None, workload.files[value].normals)
    else:
        arr = builtin(*_builtin_args(value))
        normals = tuple(tuple(v.numerator if v.denominator == 1 else v for v in row)
                        for row in arr.normals)
        edges = tuple(_builtin_args(value)[1]) if value.startswith("graphic:") else None
        subj = Subject(value, normals, edges, arr)
    cache[source] = subj
    return subj


# ---------------------------------------------------------------- expectations

def _opt(op: Op, flag: str, default=None):
    opts = op.options
    return opts[opts.index(flag) + 1] if flag in opts else default


def _lcs_oracle(subj: Subject, kmax: int) -> dict[int, int]:
    """LCS ranks for the ``lcs`` command, which uses the product formula.

    The formula here is this module's own; ``holonomy_rank`` overrides it
    wherever the basis is small, and pinned values override both.
    """
    out = product_formula_lcs(subj.n, subj.mus(), kmax)
    for k in range(2, kmax + 1):
        if witt(subj.n, k) <= _SMALL_BASIS:
            out[k] = holonomy_rank(subj.arrangement, k)
    pinned = PINNED_LCS.get(subj.spec or "", ())
    out.update({k: v for k, v in enumerate(pinned[:kmax], start=1)})
    return out


def _holonomy_oracle(subj: Subject, kmax: int) -> dict[int, int]:
    """holonomy ranks: flats, then falk_phi3, then a formula or pinned values."""
    out = {1: subj.n, 2: sum(comb(mu, 2) for mu in subj.mus())}
    if kmax >= 3:
        out[3] = subj.phi3()
    if kmax >= 4:
        pinned = PINNED_LCS.get(subj.spec or "", ())
        if len(pinned) >= kmax:
            deep = dict(enumerate(pinned, start=1))
        elif subj.edges is not None:
            v = 1 + max(max(e) for e in subj.edges)
            deep = graphic_lcs(SimpleGraph(v, tuple(sorted(subj.edges))), kmax).values
        elif subj.decomposable():
            deep = lcs_ranks_decomposable(subj.arrangement, kmax).values
        elif witt(subj.n, kmax) <= _WORD_ROUTE_BASIS:
            deep = {k: holonomy_lcs_by_words(subj.n, subj.flats(), k)
                    for k in range(4, kmax + 1)}
        else:
            raise ValueError("no degree-%d oracle for %s" % (kmax, subj.spec))
        out.update({k: deep[k] for k in range(4, kmax + 1)})
    return out


def _components(subj: Subject, depth: int):
    return sorted([list(f), len(f) - 1] for f in subj.flats() if len(f) - 1 > depth)


def expect(op: Op, workload: Workload, cache: dict) -> tuple[int, dict | None]:
    """(exit code, summary of the result or None) predicted for ``op``."""
    if op.command == "check":
        return 0, {"ok": True, "all_ok": True}
    subj = subject_for(op.source, workload, cache)
    n, flats, mus = subj.n, subj.flats(), subj.mus()
    ceiling = int(_opt(op, "--ceiling", DEFAULT_CEILING))
    b2 = sum(mus)
    if op.command in ("info", "l2", "betti"):
        ideal = i2_basis(L2Lattice(tuple(Flat2(f) for f in flats), n)).rank
        if comb(n, 2) - ideal != b2:
            raise AssertionError("OS ideal and flat census disagree on b2")
    if op.command == "info":
        census: dict[str, int] = {}
        for mu in mus:
            census[str(mu)] = census.get(str(mu), 0) + 1
        return 0, {"n": n, "ambient_dim": len(subj.normals[0]), "rank": rank_of(subj.normals),
                   "b1": n, "b2": b2, "census": census}
    if op.command == "l2":
        return 0, {"n": n, "rank": rank_of(subj.normals), "betti": [n, b2],
                   "flats": [[list(f), len(f) - 1] for f in flats]}
    if op.command == "betti":
        return 0, {"b1": n, "b2": b2}
    if op.command == "holonomy":
        kmax = int(_opt(op, "--max", 3))
        if any(witt(n, k) > ceiling for k in range(2, kmax + 1)):
            return 3, None
        return 0, {"ranks": {str(k): v for k, v in _holonomy_oracle(subj, kmax).items()}}
    if op.command == "decomp":
        if witt(n, 3) > ceiling:
            return 3, None
        return 0, {"h3_rank": subj.phi3(), "local_rank": subj.local3(),
                   "rational": subj.decomposable(), "integral_consistent": True}
    if not subj.decomposable():
        return 2, None
    if op.command == "lcs":
        kmax = int(_opt(op, "--max", 5))
        return 0, {"ranks": {str(k): v for k, v in _lcs_oracle(subj, kmax).items()}}
    if op.command == "chen":
        kmax = int(_opt(op, "--max", 4))
        ranks = {"1": n}
        for k in range(2, kmax + 1):
            ranks[str(k)] = (k - 1) * sum(comb(mu + k - 2, k) for mu in mus if mu >= 2)
        return 0, {"ranks": ranks}
    separated = "--assert-separated" in op.options
    if op.command == "resonance" or (op.command == "charvar" and separated):
        depth = int(_opt(op, "--depth", 1))
        comps = _components(subj, depth)
        return 0, {"depth": depth, "count": len(comps), "components": comps}
    if op.command == "milnor" and separated:
        mult = _opt(op, "--mult")
        m = tuple(map(int, mult.split(","))) if mult else (1,) * n
        eigen = {0: n - 1}
        eigen.update(milnor_spectrum(flats, m))
        return 0, {"N": sum(m), "b1": sum(eigen.values()),
                   "eigen": {str(j): v for j, v in eigen.items()},
                   "trivial_monodromy": not any(eigen[j] for j in eigen if j)}
    return 2, None


def summarize(command: str, result: dict) -> dict:
    """The program's result block reduced to the summary ``expect`` predicts."""
    if command == "check":
        return {"ok": result["ok"], "all_ok": all(c["ok"] for c in result["checks"])}
    if command == "info":
        keys = ("n", "ambient_dim", "rank", "b1", "b2")
        return dict({k: result[k] for k in keys}, census=result["flat_counts_by_mobius"])
    if command == "l2":
        return {"n": result["n"], "rank": result["rank"], "betti": result["betti"],
                "flats": [[f["members"], f["mobius"]] for f in result["flats"]]}
    if command == "betti":
        return {"b1": result["b1"], "b2": result["b2"]}
    if command in ("holonomy", "lcs", "chen"):
        return {"ranks": result["ranks"]}
    if command == "decomp":
        consistent = result["integral"] == (result["rational"] and not result["torsion"])
        return {"h3_rank": result["h3_rank"], "local_rank": result["local_rank"],
                "rational": result["rational"], "integral_consistent": consistent}
    if command in ("resonance", "charvar"):
        comps = sorted([c["support"], c["dimension"]] for c in result["components"])
        return {"depth": result["depth"], "count": result["count"], "components": comps}
    if command == "milnor":
        return {"N": result["N"], "b1": result["b1"], "eigen": result["eigen_multiplicities"],
                "trivial_monodromy": result["trivial_monodromy"]}
    raise ValueError("no summary for %r" % command)
