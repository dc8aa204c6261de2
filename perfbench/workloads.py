"""Seeded workload generator for the `arr` benchmark.

A workload is one round of operations.  Each operation is one `arr`
invocation: a subcommand, an input source and options.  The same seed
gives byte-identical rounds and input files; the program only ever sees
the generated command lines and files.

Why each workload exists (the same reasons are in BENCHMARK.json):

* ``cli-sweep``: many short calls across all eleven subcommands, so
  interpreter start, import, parsing, the rank-2 lattice and JSON output
  dominate.  Import and CLI-path changes should move it; kernel changes
  hardly should, since only its one ``check`` call reaches the modular
  rank and the deeper Lyndon expansion.
* ``deep-lie``: holonomy ranks to degree 4-5 on small arrangements plus
  the ``check`` suite, so Lyndon bracket expansion, J_k row building and
  wide ranks dominate.  Parsing and the lattice are negligible.
* ``wide-decomp``: degree <= 3 only, on arrangements with 9-56
  hyperplanes, so the O(n^3) lattice rank tests, the wide degree-3 rank
  and the Smith diagonal dominate, with no Lyndon recursion above
  degree 3.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

CATALOG = ("braid:3", "x3", "x2", "nonpappus", "pappus", "split_solvable:2,3")


@dataclass(frozen=True)
class Op:
    """One `arr` call.  ``source`` is ("builtin", spec), ("file", name) or None."""

    command: str
    source: tuple[str, str] | None
    options: tuple[str, ...] = ()

    def argv(self, workdir: str) -> list[str]:
        out = [self.command]
        if self.source is not None:
            kind, value = self.source
            if kind == "builtin":
                out += ["--builtin", value]
            else:
                out += ["--file", "%s/%s" % (workdir, value)]
        return out + list(self.options)

    def label(self) -> str:
        src = "" if self.source is None else " " + self.source[1]
        return (self.command + src + " " + " ".join(self.options)).strip()


@dataclass(frozen=True)
class GeneratedInput:
    """A generated arrangement: its input file text and its exact normals."""

    text: str
    normals: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    files: dict[str, GeneratedInput]

    def write_files(self, workdir) -> None:
        for name, gen in sorted(self.files.items()):
            with open("%s/%s" % (workdir, name), "w", encoding="utf-8") as fh:
                fh.write(gen.text)


# ------------------------------------------------------------ input makers

_VARS = ("x", "y", "z")


def _linear_form(row) -> str:
    parts = []
    for c, v in zip(row, _VARS):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(sign + mag + v)
    return "".join(parts)


def _proportional(a, b) -> bool:
    return all(a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(len(a)), 2))


def random_rank3_normals(rng: random.Random, n: int) -> tuple[tuple[int, int, int], ...]:
    """n pairwise non-proportional integer normals in Q^3 spanning rank 3."""
    while True:
        rows: list[tuple[int, int, int]] = []
        while len(rows) < n:
            v = tuple(rng.randrange(-3, 4) for _ in range(3))
            if any(v) and not any(_proportional(v, w) for w in rows):
                rows.append(v)
        if any(_det3(a, b, c) for a, b, c in combinations(rows, 3)):
            return tuple(rows)


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def polynomial_text(normals) -> str:
    return "[x,y,z] " + "".join("(%s)" % _linear_form(r) for r in normals) + "\n"


def json_text(normals) -> str:
    return json.dumps({"variables": list(_VARS), "normals": [list(r) for r in normals]}) + "\n"


def graphic_spec(edges) -> str:
    return "graphic:" + ",".join("%d-%d" % e for e in edges)


def complete_graph(v: int) -> list[tuple[int, int]]:
    return list(combinations(range(v), 2))


def _random_graph(rng: random.Random) -> list[tuple[int, int]]:
    v = rng.randrange(4, 6)
    while True:
        edges = [e for e in complete_graph(v) if rng.random() < 0.6]
        if len(edges) >= 3 and len({x for e in edges for x in e}) == v:
            return edges


def _mult_vector(rng: random.Random, n: int, top: int) -> tuple[int, ...]:
    while True:
        m = tuple(rng.randrange(1, top + 1) for _ in range(n))
        if gcd(*m) == 1:
            return m


def _large_x3_mult(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    """Multiplicities on x3 with N = sum(m) in [lo, hi) and a nontrivial spectrum.

    Hyperplanes 0, 1, 3 of x3 (x, y, x+y) form a triple point.  The other
    three get multiples of d and the triple point's sum is a multiple of
    d, so every multiple of N/d is a character of that local subtorus.
    """
    while True:
        d = rng.randrange(2, 10)
        a = rng.randrange(lo, hi) // 6
        m = [rng.randrange(a // 2, a) + 1 for _ in range(6)]
        for h in (2, 4, 5):
            m[h] = d * max(1, m[h] // d)
        m[0] += 1 - m[0] % d
        m[3] += -(m[0] + m[1] + m[3]) % d
        if gcd(*m) == 1 and lo <= sum(m) < hi:
            return tuple(m)


def _mult_option(m) -> tuple[str, ...]:
    return ("--mult", ",".join(map(str, m)))


# ---------------------------------------------------------------- workloads

# Hyperplane counts of the catalog entries, for sizing --mult vectors.
_CATALOG_N = {"braid:3": 6, "x3": 6, "x2": 7, "nonpappus": 9, "pappus": 9,
              "split_solvable:2,3": 6}


def cli_sweep(seed: int) -> Workload:
    """44 short calls over all eleven subcommands, refusals included."""
    rng = random.Random("cli-sweep:%d" % seed)
    files: dict[str, GeneratedInput] = {}
    sizes: dict[tuple[str, str], int] = {}
    pool: list[tuple[str, str]] = []
    for spec in CATALOG:
        pool.append(("builtin", spec))
        sizes["builtin", spec] = _CATALOG_N[spec]
    for i in range(6):
        normals = random_rank3_normals(rng, rng.randrange(5, 10))
        for ext, text in (("poly", polynomial_text(normals)), ("json", json_text(normals))):
            name = "gen%d.%s" % (i, ext)
            files[name] = GeneratedInput(text, normals)
            pool.append(("file", name))
            sizes["file", name] = len(normals)
    for _ in range(3):
        edges = _random_graph(rng)
        spec = graphic_spec(edges)
        pool.append(("builtin", spec))
        sizes["builtin", spec] = len(edges)

    def pick():
        return pool[rng.randrange(len(pool))]

    ops: list[Op] = []
    for command in ("info", "l2", "betti", "decomp", "lcs", "chen"):
        for i in range(4):
            opts: tuple[str, ...] = ()
            src = pick()
            if command in ("lcs", "chen"):
                opts = ("--max", str(rng.randrange(3, 6 if command == "lcs" else 5)))
            if command == "lcs" and i == 0:
                # not decomposable, so refused with exit 2
                src = ("builtin", rng.choice(("braid:3", "pappus")))
            ops.append(Op(command, src, opts))
    for _ in range(3):
        ops.append(Op("holonomy", pick(), ("--max", "3")))
    for _ in range(4):
        ops.append(Op("resonance", pick(), ("--depth", str(rng.randrange(1, 3)))))
    for i in range(4):
        sep = ("--assert-separated",) if i else ()
        ops.append(Op("charvar", pick(), ("--depth", str(rng.randrange(1, 3))) + sep))
    for i in range(4):
        src = pick()
        opts = ("--assert-separated",) if i else ()
        if i >= 2:
            opts += _mult_option(_mult_vector(rng, sizes[src], 4))
        ops.append(Op("milnor", src, opts))
    # the large-N minority: one vector per decade
    for lo, hi in ((1_000, 10_000), (10_000, 100_001)):
        m = _large_x3_mult(rng, lo, hi)
        ops.append(Op("milnor", ("builtin", "x3"), ("--assert-separated",) + _mult_option(m)))
    # requests above the word ceiling, refused with exit 3: K6 has 15
    # hyperplanes and 1120 Lyndon words of degree 3
    k6 = ("builtin", graphic_spec(complete_graph(6)))
    ops.append(Op("decomp", k6, ("--ceiling", "1000")))
    ops.append(Op("holonomy", k6, ("--max", "5", "--ceiling", "1000")))
    ops.append(Op("check", None, ("--seed", str(rng.randrange(10**6)),
                                  "--samples", str(rng.randrange(1, 4)))))
    rng.shuffle(ops)
    return Workload("cli-sweep", tuple(ops), files)


def deep_lie(seed: int) -> Workload:
    """Degree 4-5 holonomy on small n, plus the check suite at derived seeds.

    Graphic K5 at degree 4 runs four times, with its edges in four seeded
    orders.  Three operations are cheaper than it and two more expensive,
    so whether the two checks (whose cost depends on their seed) fall
    below or above it, the middle operation of the round is one of the
    four and op_p50_s measures the same computation on every seed.
    """
    rng = random.Random("deep-lie:%d" % seed)
    ops = [
        Op("holonomy", ("builtin", "x3"), ("--max", "5")),
        Op("holonomy", ("builtin", "x2"), ("--max", "5")),
        Op("holonomy", ("builtin", "braid:4"), ("--max", "4")),
        Op("holonomy", ("builtin", "nonpappus"), ("--max", "4")),
        Op("holonomy", ("builtin", "pappus"), ("--max", "4")),
    ]
    for _ in range(4):
        edges = complete_graph(5)
        rng.shuffle(edges)
        ops.append(Op("holonomy", ("builtin", graphic_spec(edges)), ("--max", "4")))
    for _ in range(2):
        ops.append(Op("check", None, ("--seed", str(rng.randrange(10**6)), "--samples", "10")))
    return Workload("deep-lie", tuple(ops), {})


# The normals of the catalog's nonpappus and pappus entries, in catalog order.
NONPAPPUS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 3),
             (1, 2, 1), (1, 2, 3), (2, 3, 3))
PAPPUS = ((0, 1, 0), (0, 1, -1), (1, -1, 0), (1, 1, -1), (1, -3, 0), (1, 2, -2),
          (1, -2, -1), (1, 1, -2), (1, 7, -4))


def wide_decomp(seed: int) -> Workload:
    """decomp on 9-21 hyperplane arrangements and info on braid:8.

    Three decomp calls (nonpappus, pappus, K5) cost less than the one on
    K6 and three calls more, so the middle operation of the round, which
    sets op_p50_s, is always K6.

    nonpappus and pappus are fed as JSON files with a seeded hyperplane
    order, and the graphic specs list their edges in a seeded order, so
    every seed gives different inputs of the same size.
    """
    rng = random.Random("wide-decomp:%d" % seed)
    files = {}
    ops = [Op("decomp", ("builtin", "braid:5"))]
    for v in (5, 6, 7):
        edges = complete_graph(v)
        rng.shuffle(edges)
        ops.append(Op("decomp", ("builtin", graphic_spec(edges))))
    for name, normals in (("nonpappus", NONPAPPUS), ("pappus", PAPPUS)):
        rows = list(normals)
        rng.shuffle(rows)
        files[name + ".json"] = GeneratedInput(json_text(rows), tuple(rows))
        ops.append(Op("decomp", ("file", name + ".json")))
    ops.append(Op("info", ("builtin", "braid:8")))
    return Workload("wide-decomp", tuple(ops), files)


_BUILDERS = {"cli-sweep": cli_sweep, "deep-lie": deep_lie, "wide-decomp": wide_decomp}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError("unknown workload %r; known: %s" % (name, ", ".join(NAMES)))
    return _BUILDERS[name](seed)
