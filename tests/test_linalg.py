import math
import random
import time
from fractions import Fraction

import pytest

from arrinv.linalg import rank, rank_exact, smith_diagonal, unit_pass

from oracles import (diagonal_invariant_factors, fraction_rank, rank_mod_p,
                     sympy_factor_product, sympy_invariant_factors, sympy_rank)


def random_sparse_rows(rng, nrows, ncols, density=0.4, lo=-5, hi=5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_rank_exact_matches_oracles():
    # the kernel updates its working rows in place, so it must work on
    # copies: callers reuse the rows they pass in
    rng = random.Random(11)
    for _ in range(40):
        ncols = rng.randrange(1, 10)
        rows = random_sparse_rows(rng, rng.randrange(0, 12), ncols)
        before = [dict(r) for r in rows]
        got = rank_exact(rows)
        assert rows == before
        assert got == sympy_rank(rows, ncols) == fraction_rank(rows, ncols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_exact(shuffled) == got
        assert rows == before


def test_kernels_refuse_non_integer_entries():
    # callers clear denominators first; a Fraction never reaches a kernel
    rows = [{0: 1, 1: Fraction(1, 2)}]
    with pytest.raises(ValueError):
        rank_exact(rows)
    with pytest.raises(ValueError):
        smith_diagonal(rows)
    # an integral Fraction is an integer entry
    assert rank_exact([{0: Fraction(4, 2)}]) == 1


def test_rank_exact_edge_cases():
    assert rank_exact([]) == 0
    assert rank_exact([{}, {}]) == 0
    assert rank_exact([{0: 7}]) == 1


def test_rank_exact_at_widths_above_250():
    # matrices wider than 250 columns get the exact kernel too
    ncols = 260
    cycle = [{i: 1, (i + 1) % ncols: -1} for i in range(ncols)]
    assert rank(cycle, ncols) == ncols - 1
    assert rank([{0: 1}], 3) == 1

    rng = random.Random(5)
    rows = random_sparse_rows(rng, 30, 300, density=0.02, lo=-40, hi=40)
    # dependent rows, so the rank is below the row count
    for _ in range(10):
        a, b = rng.sample(rows, 2)
        rows.append({c: 3 * a.get(c, 0) - b.get(c, 0) for c in a.keys() | b.keys()})
    assert rank(rows, 300) == fraction_rank(rows, 300) <= 30


def test_smith_diagonal_known_matrices():
    # diag(2, 6) is already in normal form
    assert smith_diagonal([{0: 2}, {1: 6}]) == [2, 6]
    # swapped divisibility gets repaired
    assert smith_diagonal([{0: 6}, {1: 4}]) == [2, 12]
    rows = [{0: 2, 1: 4, 2: 4}, {0: -6, 1: 6, 2: 12}, {0: 10, 1: 4, 2: 16}]
    assert smith_diagonal(rows) == [2, 2, 156]


def test_smith_diagonal_matches_sympy():
    rng = random.Random(31)
    for _ in range(30):
        ncols = rng.randrange(1, 7)
        rows = random_sparse_rows(rng, rng.randrange(0, 8), ncols, density=0.6)
        got = smith_diagonal(rows)
        want = sympy_invariant_factors(rows, ncols)
        assert got == want
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def test_smith_diagonal_unit_heavy_matrix():
    # mostly unit pivots plus a torsion core, the fast path must split off
    rows = [{i: 1, i + 1: 5} for i in range(6)]
    rows.append({6: 4})
    rows.append({7: 6, 8: 9})
    got = smith_diagonal(rows)
    assert got == sympy_invariant_factors(rows, 9)


def test_smith_torsion_appears_for_nondiagonal_input():
    rows = [{0: 2, 1: 0}, {0: 0, 1: 2}, {0: 1, 1: 1}]
    assert smith_diagonal(rows) == [1, 2]


def test_smith_diagonal_many_small_matrices():
    # unit pivots meet set-aside rows in every order; the diagonal length
    # is the rank, so rank and torsion come from the same pass
    rng = random.Random(2024)
    for _ in range(600):
        nrows, ncols = rng.randrange(0, 13), rng.randrange(1, 11)
        density = rng.random()
        rows = random_sparse_rows(rng, nrows, ncols, density=density, lo=-4, hi=4)
        got = smith_diagonal(rows)
        assert got == sympy_invariant_factors(rows, ncols), rows
        assert len(got) == rank_exact(rows)


def test_smith_unit_pivot_found_on_a_second_pass():
    # the first row has no unit entry; the pivot from the second row turns
    # it into (0, 1), a unit pivot, which then clears the third row
    rows = [{0: 2, 1: 3}, {0: 1, 1: 1}, {1: 2}]
    assert sympy_invariant_factors(rows, 2) == [1, 1]
    assert smith_diagonal(rows) == [1, 1]


def test_unit_pass_spans_the_input_over_z():
    # the kernel each degree of the holonomy quotient is passed by: its pivots
    # and set-aside rows must keep the Smith form, not only the rank, and
    # small entries in [-3, 3] often set rows aside
    rng = random.Random(616)
    set_aside = 0
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 9)
        rows = random_sparse_rows(rng, nrows, ncols, density=rng.random(), lo=-3, hi=3)
        pivots, aside = unit_pass([dict(r) for r in rows])
        set_aside += bool(aside)
        assert all(abs(p[min(p)]) == 1 for p in pivots)
        assert smith_diagonal(pivots + aside) == smith_diagonal(rows), rows
    assert set_aside > 50


def test_smith_diagonal_dense_cores():
    # dense cores: each takes well under 0.1 s, so 5 s is a generous budget;
    # the product of the factors is the gcd of the maximal minors, and the
    # factors prime to p number the rank mod p
    for n, density in ((40, 1.0), (60, 0.1)):
        rows = random_sparse_rows(random.Random(3), n, n, density=density, lo=-3, hi=3)
        start = time.perf_counter()
        got = smith_diagonal(rows)
        assert time.perf_counter() - start < 5
        assert len(got) == rank_exact(rows)
        assert math.prod(got) == sympy_factor_product(rows, n)
        for p in (2, 3, 5, 7, 11, 13):
            assert sum(d % p != 0 for d in got) == rank_mod_p(rows, n, p)


def unimodular_mix(rng, diagonal, nrows, ncols):
    """U * D * V for D with the given diagonal, U and V products of random
    elementary integer operations."""
    m = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(diagonal):
        m[i][i] = d
    for _ in range(2 * (nrows + ncols)):
        i, j = rng.sample(range(nrows), 2)
        q = rng.choice((-2, -1, 1, 2, 3))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        i, j = rng.sample(range(ncols), 2)
        q = rng.choice((-2, -1, 1, 2, 3))
        for row in m:
            row[i] += q * row[j]
    rng.shuffle(m)
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def test_smith_diagonal_known_answers():
    # sizes past the sympy oracle's reach, whose cores take many pivot steps
    rng = random.Random(15)
    for _ in range(60):
        nrows, ncols = rng.randrange(2, 21), rng.randrange(2, 26)
        diagonal = [rng.choice((0, 1, 1, 2, 3, 4, 6, 9, 12, 25, 30, 36))
                    for _ in range(min(nrows, ncols))]
        rows = unimodular_mix(rng, diagonal, nrows, ncols)
        assert smith_diagonal(rows) == diagonal_invariant_factors(diagonal), rows
