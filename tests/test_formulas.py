import random
from itertools import combinations
from math import comb

import pytest

from arrinv.arrangement import SimpleGraph, compute_l2, graphic_arrangement, make_arrangement
from arrinv.catalog import builtin
from arrinv.errors import DomainError, HypothesisError
from arrinv.formulas import (
    RankTable,
    chen_lower_bound,
    chen_ranks_decomposable,
    clique_counts,
    free_chen,
    graphic_lcs,
    lcs_ranks_decomposable,
)
from arrinv.holonomy import Analysis, holonomy_rank, local_rank, witt_count
from arrinv.lyndon import lyndon_words

from oracles import hilbert_theta, product_formula_lcs


def test_witt_rank_matches_word_count():
    # the formulas take the free Lie ranks from holonomy.witt_count
    for n in range(1, 5):
        for k in range(1, 7):
            assert witt_count(n, k) == len(lyndon_words(n, k))
    # no letters, no words; degree 0 has no free Lie layer
    assert witt_count(0, 3) == 0
    with pytest.raises(DomainError):
        witt_count(2, 0)


def test_free_chen_against_hilbert_series():
    for n in range(1, 7):
        for k in range(1, 9):
            if k == 1:
                assert free_chen(n, k) == n
            else:
                assert free_chen(n, k) == hilbert_theta(n, k)
    assert [free_chen(2, k) for k in (2, 3, 4)] == [1, 2, 3]
    assert free_chen(3, 4) == 15


def test_chen_lower_bound():
    assert chen_lower_bound(builtin("braid", (3,)), 2) == 4
    assert chen_lower_bound(builtin("x3"), 2) == 3
    # doubles contribute nothing
    generic = make_arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    assert chen_lower_bound(generic, 4) == 0
    with pytest.raises(DomainError):
        chen_lower_bound(builtin("x3"), 1)


def test_chen_ranks_decomposable():
    table = chen_ranks_decomposable(Analysis(builtin("x3")), 5)
    assert table.kind == "chen"
    assert table.as_tuple() == (6, 3, 6, 9, 12)
    assert chen_ranks_decomposable(Analysis(builtin("x2")), 3)[3] == 10
    with pytest.raises(HypothesisError):
        chen_ranks_decomposable(Analysis(builtin("braid", (3,))), 3)
    with pytest.raises(HypothesisError):
        chen_ranks_decomposable(Analysis(builtin("pappus")), 3)
    with pytest.raises(DomainError):
        chen_ranks_decomposable(Analysis(builtin("x3")), 0)
    # kmax is checked before the hypothesis
    with pytest.raises(DomainError, match="^need kmax >= 1$"):
        chen_ranks_decomposable(Analysis(builtin("pappus")), 0)


def test_lcs_ranks_decomposable():
    table = lcs_ranks_decomposable(Analysis(builtin("x3")), 5)
    assert table.kind == "lcs"
    assert table.as_tuple() == (6, 3, 6, 9, 18)
    ss = lcs_ranks_decomposable(Analysis(builtin("split_solvable", (2, 3))), 6)
    for k in range(2, 7):
        assert ss[k] == witt_count(2, k) + witt_count(3, k)
    with pytest.raises(HypothesisError):
        lcs_ranks_decomposable(Analysis(builtin("braid", (3,))), 4)
    # kmax is checked first, on an Analysis as on an Arrangement
    for subject in (Analysis(builtin("pappus")), builtin("pappus")):
        with pytest.raises(DomainError, match="^need kmax >= 1$"):
            lcs_ranks_decomposable(subject, 0)
    # an Arrangement is analysed for the one call
    assert lcs_ranks_decomposable(builtin("x3"), 5) == table


def test_local_sum_solves_the_product_formula():
    # phi_k = sum_X witt(mu(X), k) against the Moebius inversion of the
    # product formula to degree 40: on the decomposable catalog entries, also
    # against the presentation to degree 5, and on split-solvable
    # arrangements, whose multiple flats have mu = m_i, for 50 random
    # mu-multisets
    for name, params in (("x3", ()), ("x2", ()), ("nonpappus", ()), ("split_solvable", (2, 3))):
        an = Analysis(builtin(name, params))
        mus = [f.mobius for f in compute_l2(an.arr)]
        assert lcs_ranks_decomposable(an, 40).as_tuple() == product_formula_lcs(
            an.arr.n, mus, 40), name
        assert lcs_ranks_decomposable(an, 5).as_tuple() == an.ranks(5), name
    rng = random.Random(29)
    for _ in range(50):
        ms = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4)))
        table = lcs_ranks_decomposable(builtin("split_solvable", ms), 40)
        assert table.as_tuple() == product_formula_lcs(1 + sum(ms), ms, 40), ms
    # degree 3 against the pencils' closed form 2 * sum C(mu + 1, 3)
    arrs = [builtin("braid", (n,)) for n in range(3, 7)]
    arrs += [builtin("pappus"), builtin("nonpappus")]
    arrs += [graphic_arrangement(SimpleGraph(v, tuple(combinations(range(v), 2))))
             for v in range(4, 8)]
    for arr in arrs:
        want = 2 * sum(comb(f.mobius + 1, 3) for f in compute_l2(arr))
        assert local_rank(arr, 3) == want, arr.labels


def test_lcs_pencil_is_free_times_line():
    # a pencil deletes one free generator: phi_k agrees with the free
    # Lie algebra on mu letters for k >= 2
    pencil = make_arrangement([(1, 0), (0, 1), (1, 1), (1, 2)])
    table = lcs_ranks_decomposable(Analysis(pencil), 6)
    assert table[1] == 4
    for k in range(2, 7):
        assert table[k] == witt_count(3, k)


def test_lcs_matches_holonomy():
    for name in ("x3", "x2", "nonpappus"):
        arr = builtin(name)
        table = lcs_ranks_decomposable(Analysis(arr), 4)
        for k in range(1, 5):
            assert table[k] == holonomy_rank(arr, k)


def test_rank_table_validation():
    RankTable("lcs", {1: 3, 2: 1})
    with pytest.raises(ValueError):
        RankTable("lcs", {2: 1})
    with pytest.raises(ValueError):
        RankTable("lcs", {1: 3, 3: 1})
    with pytest.raises(ValueError):
        RankTable("lcs", {1: -1})
    with pytest.raises(ValueError):
        RankTable("spectral", {1: 3})


def brute_cliques(graph):
    verts = range(graph.vertices)
    adj = {(a, b) for a, b in graph.edges}
    out = []
    for size in range(1, graph.vertices + 1):
        count = 0
        for sub in combinations(verts, size):
            if all((a, b) in adj for a, b in combinations(sub, 2)):
                count += 1
        out.append(count)
    return out


def test_clique_counts():
    k4 = SimpleGraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert clique_counts(k4) == [4, 6, 4, 1]
    path = SimpleGraph(4, ((0, 1), (1, 2), (2, 3)))
    assert clique_counts(path) == [4, 3, 0, 0]
    rng = random.Random(71)
    for _ in range(20):
        v = rng.randrange(2, 7)
        edges = tuple(
            (a, b)
            for a in range(v)
            for b in range(a + 1, v)
            if rng.random() < 0.5
        )
        g = SimpleGraph(v, edges)
        assert clique_counts(g) == brute_cliques(g)


def test_graphic_lcs_small():
    k3 = SimpleGraph(3, ((0, 1), (0, 2), (1, 2)))
    t = graphic_lcs(k3, 4)
    assert t.kind == "lcs"
    assert t.as_tuple() == (3, 1, 2, 3)
    k4 = SimpleGraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert graphic_lcs(k4, 4).as_tuple() == (6, 4, 10, 21)
    edge = SimpleGraph(2, ((0, 1),))
    assert graphic_lcs(edge, 3).as_tuple() == (1, 0, 0)
    with pytest.raises(DomainError):
        graphic_lcs(k3, 0)


def test_graphic_lcs_agrees_with_decomposable_route():
    # every K4-free graph is decomposable, so the clique/Witt double sum and
    # the product formula must agree
    rng = random.Random(73)
    for vertices, kmax, wanted in (((3, 6), 5, 12), ((6, 8), 6, 6)):
        found = 0
        while found < wanted:
            v = rng.randrange(*vertices)
            edges = tuple(
                (a, b)
                for a in range(v)
                for b in range(a + 1, v)
                if rng.random() < 0.5
            )
            g = SimpleGraph(v, edges)
            kappa = clique_counts(g)
            if not edges or (len(kappa) >= 4 and kappa[3]):
                continue
            found += 1
            an = Analysis(graphic_arrangement(g))
            assert graphic_lcs(g, kmax).values == lcs_ranks_decomposable(an, kmax).values


def test_graphic_lcs_k4_matches_holonomy():
    k4 = SimpleGraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    arr = graphic_arrangement(k4)
    t = graphic_lcs(k4, 4)
    for k in range(1, 5):
        assert t[k] == holonomy_rank(arr, k)
