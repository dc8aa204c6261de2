import copy
import random
from math import comb

import pytest

from arrinv.arrangement import MultiArrangement, betti, compute_l2, make_arrangement
from arrinv.catalog import builtin, from_spec
from arrinv.checks import random_multiplicities, random_rank3_arrangement, run_all_checks
from arrinv.errors import DomainError, ResourceError
from arrinv.holonomy import (
    AbelianGroupReport,
    Analysis,
    holonomy_rank,
    holonomy_relators,
    local_h3_rank,
)
from arrinv.milnor import monodromy_trivial_criterion
from arrinv.linalg import rank_exact, smith_diagonal
from arrinv.lyndon import DEFAULT_WORD_CEILING, lyndon_words, witt_count

from oracles import (
    derived_subspace,
    holonomy_ideal_subspace,
    raw_jk_rows,
    tensor_combination,
    tensor_commutator,
)
from test_acceptance import budget


K5 = "graphic:" + ",".join("%d-%d" % (i, j) for i in range(5) for j in range(i + 1, 5))


def test_relator_census():
    # each row, mapped to degree-2 Lyndon words (a, b) and expanded as
    # x_a x_b - x_b x_a, is [x_h, sum of x_k over X] for a flat X and a
    # member h but the largest, in flat order; one row per such pair, so b2
    rng = random.Random(18)
    samples = [builtin("braid", (n,)) for n in (3, 4, 5)]
    samples += [from_spec(s) for s in ("x3", "x2", "nonpappus", "pappus",
                                       "split_solvable:2,3", K5)]
    samples += [random_rank3_arrangement(rng) for _ in range(20)]
    for arr in samples:
        rows = holonomy_relators(arr)
        assert len(rows) == betti(arr)[1]
        words = lyndon_words(arr.n, 2)
        want = [tensor_commutator({(h,): 1}, {(k,): 1 for k in flat.members})
                for flat in compute_l2(arr) for h in flat.members[:-1]]
        got = [tensor_combination([(words[c], v) for c, v in row]) for row in rows]
        assert got == want, arr
        assert all(row and [c for c, _ in row] == sorted(c for c, _ in row) for row in rows)


def test_degree_bounds():
    arr = builtin("x3")
    assert holonomy_rank(arr, 1) == 6
    with pytest.raises(DomainError):
        holonomy_rank(arr, 0)
    # h_1 is Z^n with nothing to eliminate; groups start in degree 2
    with pytest.raises(DomainError):
        Analysis(arr).group(1)


def test_degree_two_is_mobius_sum():
    rng = random.Random(67)
    samples = [builtin("braid", (3,)), builtin("split_solvable", (2, 3))]
    samples += [random_rank3_arrangement(rng) for _ in range(10)]
    for arr in samples:
        lat = compute_l2(arr)
        assert holonomy_rank(arr, 2) == sum(comb(f.mobius, 2) for f in lat)


def test_braid_low_degrees():
    arr = builtin("braid", (3,))
    assert [holonomy_rank(arr, k) for k in (1, 2, 3)] == [6, 4, 10]


def test_h3_groups_are_free():
    for name, expected in (("braid", 10), ("x3", 6), ("x2", 10), ("nonpappus", 18)):
        arr = builtin(name, (3,)) if name == "braid" else builtin(name)
        report = Analysis(arr).group(3)
        assert report.rank == expected
        assert report.torsion == ()


def test_wide_h3_groups_match_the_rank_route():
    # J_3 of braid:6 is 10650 x 8990 and of K7 3675 x 3080 from raw rows;
    # the Smith form's rank must agree with rank_exact on the raw rows
    k7 = ",".join("%d-%d" % (i, j) for i in range(7) for j in range(i + 1, 7))
    with budget(3, "wide degree-3 groups"):
        for spec in ("braid:6", "graphic:" + k7):
            an = Analysis(from_spec(spec))
            rows, ncols = raw_jk_rows(an.arr, 3)
            assert an.group(3) == AbelianGroupReport(ncols - rank_exact(rows), ()), spec
            assert not an.decomposable["rational"], spec
        braid6 = Analysis(builtin("braid", (6,)))
        assert braid6.group(3).rank == 440
        assert local_h3_rank(braid6.arr) == 160
        assert braid6.decomposable == {"rational": False, "integral": False}


def test_rank_kernel_matches_the_smith_length_on_deep_jk():
    # x3 J_5 is seeded by 2556 rows over 1554 columns; pappus J_4 is the
    # one catalog matrix whose Smith form leaves a nonempty core after its
    # unit pivots
    with budget(5, "deep J_k ranks"):
        for name, k, want in (("x3", 5, 1536), ("pappus", 4, 1590)):
            an = Analysis(builtin(name))
            pivots, aside = an._jk(k)
            rows = pivots + aside
            assert rank_exact(rows) == len(smith_diagonal(rows)) == want


def test_seeded_ranks_match_the_raw_route():
    # each degree is generated from the previous degree's unit pass; the
    # raw route brackets every raw row and eliminates nothing in between
    for spec, kmax in (("x3", 5), ("x2", 5), ("nonpappus", 5), (K5, 5),
                       ("braid:4", 4), ("pappus", 4)):
        arr = from_spec(spec)
        raw = [arr.n]
        for k in range(2, kmax + 1):
            rows, ncols = raw_jk_rows(arr, k)
            raw.append(ncols - rank_exact(rows))
        assert Analysis(arr).ranks(kmax) == tuple(raw), spec


def test_seeded_smith_forms_match_the_raw_route():
    # the unit pass is unimodular, so the seeded J_k spans the same lattice
    # over Z as the raw one, torsion included
    for spec in ("x3", "x2", "nonpappus", "braid:4", "pappus"):
        an = Analysis(from_spec(spec))
        for k in (3, 4):
            rows, ncols = raw_jk_rows(an.arr, k)
            diag = smith_diagonal(rows)
            want = AbelianGroupReport(ncols - len(diag), tuple(d for d in diag if d > 1))
            assert an.group(k) == want, (spec, k)


def test_degree_four_torsion():
    # pappus J_4 and the 8th draw below, 9 lines, are the known inputs with
    # torsion Z/2 in h_4; no J_3 of either has torsion
    rng = random.Random(5)
    draw = [random_rank3_arrangement(rng, max_n=9) for _ in range(8)][-1]
    for arr, rank4 in ((builtin("pappus"), 30), (draw, 72)):
        an = Analysis(arr)
        assert an.group(4) == AbelianGroupReport(rank4, (2,))
        assert an.group(3).torsion == ()


def test_local_h3_rank():
    assert local_h3_rank(builtin("braid", (3,))) == 8
    assert local_h3_rank(builtin("x3")) == 6
    assert local_h3_rank(builtin("nonpappus")) == 18
    assert local_h3_rank(builtin("pappus")) == 18


def test_decomposability_flags():
    assert Analysis(builtin("braid", (3,))).decomposable == {
        "rational": False,
        "integral": False,
    }
    assert Analysis(builtin("x3")).decomposable == {"rational": True, "integral": True}
    assert Analysis(builtin("x2")).decomposable == {"rational": True, "integral": True}
    assert Analysis(builtin("nonpappus")).decomposable == {
        "rational": True,
        "integral": True,
    }
    assert Analysis(builtin("pappus")).decomposable == {
        "rational": False,
        "integral": False,
    }


def test_infinitesimal_alexander_dims():
    assert Analysis(builtin("x3")).alexander_dims(3) == [3, 6, 9, 12]
    assert Analysis(builtin("braid", (3,))).alexander_dims(0) == [4]
    with pytest.raises(DomainError):
        Analysis(builtin("x3")).alexander_dims(-1)


def test_subspace_dims():
    arr = builtin("braid", (3,))
    j2 = holonomy_ideal_subspace(arr, 2)
    assert j2.degree == 2
    assert j2.ambient_dim == witt_count(6, 2)
    assert j2.dim == witt_count(6, 2) - holonomy_rank(arr, 2)
    with pytest.raises(DomainError):
        holonomy_ideal_subspace(arr, 1)
    with pytest.raises(DomainError):
        derived_subspace(0, 3)


def test_derived_subspace_dims_via_free_chen():
    # Lie_k / D_k is the degree-k Chen piece of the free group
    from arrinv.formulas import free_chen

    for n in (2, 3):
        for k in (3, 4, 5):
            assert derived_subspace(n, k).dim == witt_count(n, k) - free_chen(n, k)
    # on 2 letters the first nonzero derived piece is degree 5
    assert derived_subspace(2, 4).dim == 0
    assert derived_subspace(2, 5).dim == 2


def test_resource_ceiling():
    with pytest.raises(ResourceError):
        holonomy_rank(builtin("braid", (4,)), 6, ceiling=1000)
    with pytest.raises(ResourceError):
        Analysis(builtin("nonpappus"), 2000).alexander_dims(6)


def test_every_basis_is_checked_against_the_callers_ceiling(monkeypatch):
    from arrinv import holonomy

    seen = []
    real = holonomy.lyndon_basis

    def spy(n, k, ceiling=DEFAULT_WORD_CEILING):
        seen.append(ceiling)
        return real(n, k, ceiling)

    monkeypatch.setattr(holonomy, "lyndon_basis", spy)
    arr = builtin("x3")
    assert holonomy_rank(arr, 4, ceiling=5000) == 9
    assert Analysis(arr, 5000).group(3).rank == 6
    assert Analysis(arr, 5000).alexander_dims(2) == [3, 6, 9]
    assert seen and set(seen) == {5000}
    with pytest.raises(ResourceError, match="7735 basis words, above the ceiling of 5000"):
        holonomy_rank(arr, 6, ceiling=5000)
    # a refusal names the caller's ceiling, above the default as well
    braid10 = from_spec("braid:10")
    with pytest.raises(ResourceError, match="242970 basis words, above the ceiling of 242969"):
        Analysis(braid10, 242969).group(3)
    assert holonomy.lyndon_basis(braid10.n, 3, 300000).degree == 3


def test_holonomy_ranks_is_one_graded_pass():
    # braid:3 is the pure braid group P_4; holonomy_rank is the last entry
    for name, want in (("braid", (6, 4, 10, 21)), ("x3", (6, 3, 6, 9, 18))):
        arr = builtin(name, (3,)) if name == "braid" else builtin(name)
        assert Analysis(arr).ranks(len(want)) == want
        assert holonomy_rank(arr, len(want)) == want[-1]


def test_every_basis_is_refused_before_any_rank(monkeypatch):
    from arrinv import holonomy

    def no_rank(*args):
        raise AssertionError("a rank was computed before a refusal")

    monkeypatch.setattr(holonomy, "rank", no_rank)
    monkeypatch.setattr(holonomy, "smith_diagonal", no_rank)
    with pytest.raises(ResourceError, match="degree-6 computation needs 19544"):
        Analysis(builtin("x2"), 19000).ranks(6)
    with pytest.raises(DomainError):
        Analysis(builtin("x2")).ranks(0)
    # degrees 5..8 of nonpappus are all over 2000 words; the smallest is named
    with pytest.raises(ResourceError, match="degree-5 computation needs 11808"):
        Analysis(builtin("nonpappus"), 2000).alexander_dims(6)


def test_library_degree_is_bounded():
    # one hyperplane: every basis above degree 1 is empty, but witt_count's
    # divisor loop makes each degree cost more, so the pass stops at 1000
    one = make_arrangement([(1, 0)])
    with pytest.raises(ResourceError, match="degree 1001 exceeds 1000"):
        holonomy_rank(one, 1001)
    with pytest.raises(ResourceError, match="degree 1001 exceeds 1000"):
        Analysis(one).alexander_dims(999)
    with budget(5, "one hyperplane to degree 1000"):
        assert holonomy_rank(one, 1000) == 0


def _count_holonomy_calls(monkeypatch, names):
    from arrinv import holonomy

    calls = {name: [] for name in names}
    for name in names:
        real = getattr(holonomy, name)

        def spy(*args, real=real, name=name):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(holonomy, name, spy)
    return calls


def test_one_analysis_serves_many_questions(monkeypatch):
    # J_3..J_5 built once and J_2..J_5 passed once; each degree's set-aside
    # rows are Smith-formed once, for its rank and its torsion alike
    calls = _count_holonomy_calls(
        monkeypatch, ("_next_degree", "unit_pass", "rank", "smith_diagonal"))
    an = Analysis(builtin("x3"))
    assert an.ranks(5) == (6, 3, 6, 9, 18)
    assert an.ranks(3) == (6, 3, 6)
    assert an.group(3).rank == 6
    rng = random.Random(5)
    for _ in range(50):
        m = random_multiplicities(rng, an.arr.n)
        monodromy_trivial_criterion(MultiArrangement(an.arr, m), an)
    assert {name: len(c) for name, c in calls.items()} == {
        "_next_degree": 3, "unit_pass": 4, "rank": 0, "smith_diagonal": 4}


def test_check_suite_builds_each_degree_once_per_sample(monkeypatch):
    # 16 samples, 14 of them decomposable: J_3 of each, J_4 of those; an
    # analysis owns its bases, so the column words of J_k name the sample
    calls = _count_holonomy_calls(monkeypatch, ("_next_degree", "unit_pass"))
    assert all(r.ok for r in run_all_checks(seed=12022, samples=10))
    built = [(id(words), len(words[0]) + 1) for n, rows, words, index in calls["_next_degree"]]
    assert len(built) == len(set(built)) == 30
    # J_2 of every sample and each degree built from it, passed once
    assert len(calls["unit_pass"]) == 16 + 30


def test_analysis_builds_each_basis_once(monkeypatch):
    from arrinv import lyndon

    built = []
    real = lyndon.lyndon_words

    def spy(n, k):
        built.append(k)
        return real(n, k)

    monkeypatch.setattr(lyndon, "lyndon_words", spy)
    an = Analysis(builtin("x3"))
    assert an.ranks(4) == (6, 3, 6, 9)
    assert an.group(3).rank == 6
    assert an.alexander_dims(2) == [3, 6, 9]
    assert sorted(built) == [2, 3, 4]


def test_the_stored_unit_passes_are_never_changed(monkeypatch):
    # each degree's pass is kept as unit_pass returns it, and the bracket
    # step and the kernels that read it later leave its rows as they were
    from arrinv import holonomy

    built = []
    real = holonomy.unit_pass

    def spy(rows):
        result = real(rows)
        built.append((result, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(holonomy, "unit_pass", spy)
    for name, want in (("x3", (6, 3, 6, 9, 18)), ("pappus", (9, 9, 20, 30, 60))):
        built.clear()
        an = Analysis(builtin(name))
        assert an.ranks(5) == want
        assert an.group(3) == AbelianGroupReport(want[2], ())
        assert an.group(4) == AbelianGroupReport(want[3], () if name == "x3" else (2,))
        an.alexander_dims(2)
        assert len(built) == 4
        for stored, (returned, snapshot) in zip(an._passes, built):
            assert stored is returned and stored == snapshot, name
