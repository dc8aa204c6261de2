"""Acceptance suite: one test per shipped contract item.

Run with ``pytest tests/test_acceptance.py -v`` to get a one-line verdict
per criterion.  Every expected value is an exact integer; the stated time
budgets are asserted where the contract fixes one.  This file is collected
first, so each criterion starts from cold caches.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb, gcd

from arrinv.arrangement import (
    MultiArrangement,
    SimpleGraph,
    betti,
    compute_l2,
    graphic_arrangement,
)
from arrinv.catalog import builtin
from arrinv.checks import random_multiplicities, random_rank3_arrangement
from arrinv.cli import main
from arrinv.errors import HypothesisError
from arrinv.formulas import (
    chen_lower_bound,
    chen_ranks_decomposable,
    graphic_lcs,
    lcs_ranks_decomposable,
)
from arrinv.holonomy import Analysis, holonomy_rank, local_rank, witt_count
from arrinv.jumploci import chen_ranks_from_resonance, resonance_components
from arrinv.lyndon import lyndon_words
from arrinv.milnor import milnor_b1, monodromy_trivial_criterion
from arrinv.osalgebra import falk_phi3, i2_basis

from oracles import kunneth_split_solvable_b1, per_character_milnor

CATALOG = (
    ("braid", (3,)),
    ("x3", ()),
    ("x2", ()),
    ("nonpappus", ()),
    ("pappus", ()),
    ("split_solvable", (2, 3)),
)


@contextmanager
def budget(seconds, label):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "%s took %.1fs, budget %ss" % (label, elapsed, seconds)


def all_graphs_upto_5():
    for v in range(2, 6):
        pairs = list(combinations(range(v), 2))
        for mask in range(1, 1 << len(pairs)):
            yield SimpleGraph(
                v, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            )


def test_criterion_01_braid_h3():
    with budget(1, "criterion 1"):
        arr = builtin("braid", (3,))
        assert holonomy_rank(arr, 3) == 10
        assert local_rank(arr, 3) == 8
        assert Analysis(arr).decomposable == {"rational": False, "integral": False}


def test_criterion_02_catalog_decomposability():
    with budget(5, "criterion 2"):
        for name, rank3 in (("x3", 6), ("x2", 10), ("nonpappus", 18)):
            an = Analysis(builtin(name))
            assert an.group(3).rank == rank3
            assert an.group(3).torsion == ()
            assert an.decomposable == {"rational": True, "integral": True}


def test_criterion_03_falk_equals_holonomy():
    with budget(120, "criterion 3"):
        for name, params in CATALOG:
            arr = builtin(name, params)
            assert falk_phi3(arr) == holonomy_rank(arr, 3)
        rng = random.Random(0)
        for _ in range(100):
            arr = random_rank3_arrangement(rng, max_n=8)
            assert falk_phi3(arr) == holonomy_rank(arr, 3)


def test_criterion_04_degree_two_chain():
    # phi_2, the Moebius binomial sum and the quadratic ideal rank are the
    # same number; the ideal rank and b2 are complementary in Lambda^2
    rng = random.Random(1)
    samples = [builtin(name, params) for name, params in CATALOG]
    samples += [random_rank3_arrangement(rng) for _ in range(50)]
    for arr in samples:
        lat = compute_l2(arr)
        phi2 = holonomy_rank(arr, 2)
        assert phi2 == sum(comb(f.mobius, 2) for f in lat)
        ideal = i2_basis(lat)
        assert phi2 == ideal.rank
        _, b2 = betti(arr)
        assert ideal.rank == comb(arr.n, 2) - b2


def test_criterion_05_graphic_decomposability_is_k4_freeness():
    with budget(120, "criterion 5"):
        checked = 0
        for g in all_graphs_upto_5():
            k4_free = not any(
                all((a, b) in set(g.edges) for a, b in combinations(q, 2))
                for q in combinations(range(g.vertices), 4)
            )
            arr = graphic_arrangement(g)
            assert Analysis(arr).decomposable["rational"] == k4_free, g
            checked += 1
        assert checked == 1094


def test_criterion_06_graphic_lcs_matches_holonomy():
    for g in all_graphs_upto_5():
        arr = graphic_arrangement(g)
        assert graphic_lcs(g, 4).as_tuple() == Analysis(arr).ranks(4), g


def test_criterion_07_x3_lcs_product_formula():
    with budget(30, "criterion 7"):
        arr = builtin("x3")
        table = lcs_ranks_decomposable(Analysis(arr), 5)
        assert table.as_tuple() == (6, 3, 6, 9, 18)
        for k in range(2, 6):
            assert table[k] == holonomy_rank(arr, k)


def test_criterion_08_chen_ranks_two_routes():
    with budget(180, "criterion 8"):
        for name, kmax in (("x3", 5), ("x2", 5), ("nonpappus", 4)):
            an = Analysis(builtin(name))
            dims = an.alexander_dims(kmax - 2)
            table = chen_ranks_decomposable(an, kmax)
            for k in range(2, kmax + 1):
                assert dims[k - 2] == table[k], (name, k)


def test_criterion_09_chen_lower_bound_braid():
    arr = builtin("braid", (3,))
    dims = Analysis(arr).alexander_dims(2)
    bounds = [chen_lower_bound(arr, k) for k in (2, 3, 4)]
    # equality is forced in degree 2
    assert dims[0] == bounds[0] == 4
    assert all(d >= b for d, b in zip(dims, bounds))
    # and the bound must be strict somewhere for this non-decomposable one
    assert any(d > b for d, b in zip(dims, bounds))


def test_criterion_10_resonance_census():
    comps = resonance_components(Analysis(builtin("nonpappus")), 1)
    assert len(comps) == 9
    assert all(c.dimension == 2 for c in comps)
    for name in ("x3", "x2", "nonpappus"):
        an = Analysis(builtin(name))
        table = chen_ranks_decomposable(an, 5)
        for k in range(2, 6):
            assert chen_ranks_from_resonance(an, k) == table[k]


def test_criterion_11_milnor_fiber(capsys):
    with budget(1, "criterion 11"):
        arr = builtin("nonpappus")
        report = milnor_b1(MultiArrangement(arr, (1,) * 9), Analysis(arr), separated=True)
        assert report.b1 == 8
        assert report.trivial_monodromy
        rc = main(["milnor", "--builtin", "pappus", "--assert-separated"])
        assert rc == 2
        assert "decomposable" in capsys.readouterr().err


def _check_weighted_milnor(name, params, an, flats, m):
    """Assert the multiplicity contract for one weight vector.

    Returns whether every multiple flat X has gcd(N, {m_H : H outside X})
    = 1, the condition under which b1 = n - 1, and the report.
    """
    arr = an.arr
    ma = MultiArrangement(arr, m)
    report = milnor_b1(ma, an, separated=True)
    N = sum(m)
    trivial = all(
        gcd(N, *(m[h] for h in range(arr.n) if h not in members)) == 1
        for members, _ in flats
    )
    assert (report.b1 == arr.n - 1) == trivial, (name, m, report.b1)
    oracle = per_character_milnor(flats, m)
    for j in range(1, N):
        assert report.eigen_multiplicities[j] == oracle[j], (name, m, j)
    if name == "split_solvable":
        assert report.b1 == kunneth_split_solvable_b1(params, m), (name, m)
    assert monodromy_trivial_criterion(ma, an) == report.trivial_monodromy, (name, m)
    return trivial, report


def test_criterion_12_multiplicity_invariance():
    # b1(F_m) = n - 1 for m = all ones; for a gcd-1 weight vector exactly
    # when every multiple flat X has gcd(N, {m_H : H outside X}) = 1, since
    # otherwise the nontrivial characters of order dividing that gcd,
    # supported on X, lie in T_X and each adds mu(X) - 1.  Checked on 50 seeded vectors per arrangement and
    # on one probe per multiple flat that puts the order-2 character on X
    # alone, against the per-character oracle and, on split_solvable, the
    # Kunneth count of the product complement
    with budget(60, "criterion 12"):
        rng = random.Random(0)
        sides = {True: 0, False: 0}
        for name, params in (
            ("nonpappus", ()),
            ("x3", ()),
            ("x2", ()),
            ("split_solvable", (2, 3)),
        ):
            arr = builtin(name, params)
            # one analysis per arrangement: decomposability is decided once
            an = Analysis(arr)
            flats = [
                (f.members, f.mobius)
                for f in compute_l2(arr).multiple_flats()
            ]
            trivial, report = _check_weighted_milnor(
                name, params, an, flats, (1,) * arr.n
            )
            assert trivial and report.b1 == arr.n - 1
            for _ in range(50):
                m = random_multiplicities(rng, arr.n)
                trivial, _ = _check_weighted_milnor(name, params, an, flats, m)
                sides[trivial] += 1
            for members, mobius in flats:
                m = [1 if h in members else 2 for h in range(arr.n)]
                if len(members) % 2:
                    m[members[0]] = 2
                trivial, report = _check_weighted_milnor(
                    name, params, an, flats, tuple(m)
                )
                assert not trivial and report.b1 == arr.n + mobius - 2
        # the sample reaches both sides of the condition
        assert sides[True] and sides[False], sides


def test_criterion_13_witt_identity():
    for n in range(1, 10):
        for k in range(1, 9):
            assert sum(d * witt_count(n, d) for d in range(1, k + 1) if k % d == 0) == n**k
    for n in range(1, 10):
        for k in range(1, 7):
            assert len(lyndon_words(n, k)) == witt_count(n, k)
