import random
from itertools import combinations
from math import comb

from arrinv.arrangement import SimpleGraph, betti, compute_l2, graphic_arrangement
from arrinv.catalog import builtin
from arrinv.checks import random_rank3_arrangement
from arrinv.formulas import graphic_lcs
from arrinv.holonomy import holonomy_rank
from arrinv.osalgebra import falk_phi3, i2_basis

from oracles import sympy_rank


def test_i2_generator_count_and_rank():
    lat = compute_l2(builtin("braid", (3,)))
    ideal = i2_basis(lat)
    # one generator per triple inside a flat
    assert len(ideal.generators) == sum(comb(len(f), 3) for f in lat)
    assert len(ideal.generators) == 4
    assert ideal.rank == 4
    ideal = i2_basis(compute_l2(builtin("x2")))
    assert len(ideal.generators) == 5
    assert ideal.rank == 5


def test_i2_rank_is_complement_of_b2():
    rng = random.Random(53)
    samples = [builtin("x3"), builtin("nonpappus"), builtin("split_solvable", [2, 2])]
    samples += [random_rank3_arrangement(rng) for _ in range(10)]
    for arr in samples:
        lat = compute_l2(arr)
        ideal = i2_basis(lat)
        _, b2 = betti(arr)
        assert ideal.rank == comb(arr.n, 2) - b2
        # double-check that rank with an outside tool; e_i^e_j is column
        # i*n + j, so n^2 columns hold every generator
        assert ideal.rank == sympy_rank(list(ideal.generators), arr.n ** 2)


def test_falk_phi3_catalog_values():
    assert falk_phi3(builtin("braid", (3,))) == 10
    assert falk_phi3(builtin("x3")) == 6
    assert falk_phi3(builtin("x2")) == 10
    assert falk_phi3(builtin("nonpappus")) == 18
    # same Moebius multiset as nonpappus, but the local bound 18 is
    # exceeded because the lattice is not decomposable
    assert falk_phi3(builtin("pappus")) == 20


def test_falk_phi3_matches_holonomy_route():
    rng = random.Random(61)
    for _ in range(24):
        arr = random_rank3_arrangement(rng, max_n=8)
        assert falk_phi3(arr) == holonomy_rank(arr, 3)


def test_falk_phi3_on_complete_graphs():
    # phi_3 of the braid arrangement K_m is 2 C(m+1, 4), from the clique
    # formula; K_12 has 66 hyperplanes
    for m in range(4, 13):
        g = SimpleGraph(m, tuple(combinations(range(m), 2)))
        want = graphic_lcs(g, 3)[3]
        assert want == 2 * comb(m + 1, 4)
        assert falk_phi3(graphic_arrangement(g)) == want, m
