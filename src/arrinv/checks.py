"""Batch cross-oracle consistency suite backing the `check` subcommand.

Every check pits two independent routes against each other: closed-form
formulas against the Lie presentation ranks, the quadratic OS ideal
against the degree-3 holonomy computation, per-flat against per-character
Milnor accounting.  Randomized inputs are driven by a caller-supplied
seed so failures reproduce.

The per-arrangement checks run sample by sample, sharing one
``holonomy.Analysis`` per sample, so each degree of a sample is built once
and its decomposability decided once, whichever checks ask.
"""

from __future__ import annotations

import random
from itertools import chain
from math import comb, gcd

from ._record import record
from .arrangement import (
    Arrangement,
    MultiArrangement,
    arrangement_rank,
    compute_l2,
    line_key,
    make_arrangement,
)
from .catalog import from_spec
from .errors import HypothesisError
from .formulas import chen_ranks_decomposable, lcs_ranks_decomposable
from .holonomy import Analysis, witt_count
from .jumploci import chen_ranks_from_resonance
from .milnor import _local_spectrum
from .osalgebra import falk_phi3, i2_basis


@record
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_rank3_arrangement(rng: random.Random, max_n: int = 8) -> Arrangement:
    """Random essential rank-3 arrangement with small integer normals."""
    n = rng.randrange(3, max_n + 1)
    while True:
        # one normal per line through the origin: the first one drawn
        lines: dict[tuple, tuple[int, int, int]] = {}
        while len(lines) < n:
            v = tuple(rng.randrange(-2, 3) for _ in range(3))
            if any(v):
                lines.setdefault(line_key(v), v)
        arr = make_arrangement(list(lines.values()))
        if arrangement_rank(arr) == 3:
            return arr


def random_multiplicities(rng: random.Random, n: int) -> tuple[int, ...]:
    """Random multiplicities in 1..4 with gcd 1."""
    while True:
        m = tuple(rng.randrange(1, 5) for _ in range(n))
        if gcd(*m) == 1:
            return m


def check_pair_cover(name: str, an: Analysis) -> str | None:
    covered = sum(comb(len(f), 2) for f in compute_l2(an.arr))
    if covered != comb(an.arr.n, 2):
        return "%s misses pairs" % name
    return None


def check_degree2(name: str, an: Analysis) -> str | None:
    lat = compute_l2(an.arr)
    phi2 = an.ranks(2)[1]
    local = sum(comb(f.mobius, 2) for f in lat)
    ideal = i2_basis(lat).rank
    b2 = sum(f.mobius for f in lat)
    if not (phi2 == local == ideal and comb(an.arr.n, 2) - ideal == b2):
        return "%s: phi2=%d local=%d ideal=%d b2=%d" % (name, phi2, local, ideal, b2)
    return None


def check_falk_vs_holonomy(name: str, an: Analysis) -> str | None:
    a, b = falk_phi3(an.arr), an.ranks(3)[2]
    if a != b:
        return "%s: OS gives %d, Lie gives %d" % (name, a, b)
    return None


# the degree the formula checks go up to
_KMAX = 4


def check_lcs_formula(name: str, an: Analysis) -> str | None:
    table = lcs_ranks_decomposable(an, _KMAX)
    ranks = an.ranks(_KMAX)
    for k in range(2, _KMAX + 1):
        if table[k] != ranks[k - 1]:
            return "%s k=%d: formula %d, holonomy %d" % (name, k, table[k], ranks[k - 1])
    return None


def check_chen_consistency(name: str, an: Analysis) -> str | None:
    table = chen_ranks_decomposable(an, _KMAX)
    dims = an.alexander_dims(_KMAX - 2)
    for k in range(2, _KMAX + 1):
        formula, resonance = table[k], chen_ranks_from_resonance(an, k)
        if not (formula == resonance == dims[k - 2]):
            return ("%s k=%d: formula %d, resonance %d, alexander %d"
                    % (name, k, formula, resonance, dims[k - 2]))
    return None


# (name, what a passing verdict counts, check, the samples it sees or None
# for all); a check returns its failure detail or None, and skips a sample
# whose formula refuses it with HypothesisError
_SAMPLE_CHECKS = (
    ("pair-cover", "arrangements", check_pair_cover, None),
    ("degree-2-chain", "arrangements", check_degree2, None),
    ("falk-vs-holonomy", "arrangements", check_falk_vs_holonomy, None),
    ("lcs-product-formula", "decomposable", check_lcs_formula, None),
    ("chen-three-ways", "decomposable", check_chen_consistency, ("x3", "x2")),
)


def _run_sample_checks(arrs) -> list[CheckResult]:
    """Each check on every sample until its first failure.  A sample's one
    Analysis serves all its checks and is dropped after them, so one
    sample's rows are alive at a time."""
    tried = {n: 0 for n, *_ in _SAMPLE_CHECKS}
    failures: dict[str, str] = {}
    for name, arr in arrs:
        an = Analysis(arr)
        for check_name, _, check, only in _SAMPLE_CHECKS:
            if check_name in failures or (only and name not in only):
                continue
            try:
                failure = check(name, an)
            except HypothesisError:
                continue
            tried[check_name] += 1
            if failure:
                failures[check_name] = failure
    return [CheckResult(n, n not in failures, failures.get(n, "%d %s" % (tried[n], unit)))
            for n, unit, _, _ in _SAMPLE_CHECKS]


def _per_character_spectrum(ma: MultiArrangement) -> list[int]:
    # independent route: test every residue against every flat directly
    arr, m, total = ma.arrangement, ma.multiplicities, ma.total
    out = [0] * total
    for j in range(1, total):
        for f in compute_l2(arr).multiple_flats():
            members = set(f.members)
            if any((j * m[h]) % total for h in range(arr.n) if h not in members):
                continue
            if (j * sum(m[h] for h in members)) % total:
                continue
            out[j] += f.mobius - 1
    return out


def check_milnor_double_count(arrs, rng) -> CheckResult:
    names = ["x3", "nonpappus", "split_solvable:2,3"]
    pool = [(n, a) for n, a in arrs if n in names]
    cases = 8
    for _ in range(cases):
        name, arr = pool[rng.randrange(len(pool))]
        ma = MultiArrangement(arr, random_multiplicities(rng, arr.n))
        if _local_spectrum(ma) != _per_character_spectrum(ma):
            return CheckResult(
                "milnor-double-count", False, "%s m=%s" % (name, ma.multiplicities)
            )
    return CheckResult("milnor-double-count", True, "%d multiplicity vectors" % cases)


def check_witt_identity() -> CheckResult:
    for n in range(1, 7):
        for k in range(1, 7):
            total = sum(d * witt_count(n, d) for d in range(1, k + 1) if k % d == 0)
            if total != n**k:
                return CheckResult("witt-necklace", False, "n=%d k=%d" % (n, k))
    return CheckResult("witt-necklace", True, "n<=6 k<=6")


def run_all_checks(seed: int = 0, samples: int = 10) -> list[CheckResult]:
    """Run the full cross-oracle suite; every result carries a verdict.

    Random samples are drawn one at a time, each just before its checks,
    so memory does not grow with ``samples``."""
    rng = random.Random(seed)
    specs = ("x3", "x2", "nonpappus", "pappus", "braid:3", "split_solvable:2,3")
    catalog = [(spec, from_spec(spec)) for spec in specs]
    randoms = (("random-%d" % i, random_rank3_arrangement(rng)) for i in range(samples))
    results = _run_sample_checks(chain(catalog, randoms))
    return results + [check_milnor_double_count(catalog, rng), check_witt_identity()]
