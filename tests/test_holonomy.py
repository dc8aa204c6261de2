import copy
import random
from itertools import combinations
from math import comb

import pytest

from arrinv.arrangement import (
    MultiArrangement,
    SimpleGraph,
    betti,
    compute_l2,
    make_arrangement,
)
from arrinv.catalog import builtin, from_spec
from arrinv.checks import random_multiplicities, random_rank3_arrangement, run_all_checks
from arrinv.errors import DomainError, ResourceError
from arrinv.formulas import graphic_lcs, lcs_ranks_decomposable
from arrinv.holonomy import (
    AbelianGroupReport,
    Analysis,
    holonomy_rank,
    holonomy_relators,
    local_rank,
    witt_count,
)
from arrinv.milnor import monodromy_trivial_criterion
from arrinv.linalg import rank_exact, smith_diagonal

from oracles import (
    derived_subspace,
    holonomy_ideal_subspace,
    raw_jk_rows,
    sparse_rank_mod_p,
    tensor_combination,
    tensor_commutator,
    tensor_jk_rows,
)
from test_acceptance import budget


K5 = "graphic:" + ",".join("%d-%d" % (i, j) for i in range(5) for j in range(i + 1, 5))


def test_relator_census():
    # each row, over degree-2 Lyndon words (a, b) expanded as
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
        want = [tensor_commutator({(h,): 1}, {(k,): 1 for k in flat.members})
                for flat in compute_l2(arr) for h in flat.members[:-1]]
        got = [tensor_combination(row) for row in rows]
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
        assert local_rank(braid6.arr, 3) == 160
        assert braid6.decomposable == {"rational": False, "integral": False}


def test_rank_kernel_matches_the_smith_length_on_deep_jk():
    # the raw x3 J_5 and pappus J_4, the latter with a nonempty Smith core
    # after its unit pivots; phi_k is the basis size minus their rank
    with budget(5, "deep J_k ranks"):
        for name, k, want in (("x3", 5, 1536), ("pappus", 4, 1590)):
            rows, ncols = raw_jk_rows(builtin(name), k)
            assert rank_exact(rows) == len(smith_diagonal(rows)) == want
            assert Analysis(builtin(name)).ranks(k)[-1] == ncols - want


def test_seeded_ranks_match_the_raw_route():
    # each degree is built by the nilpotent quotient; the raw route brackets
    # every raw row of J_k over the Lyndon basis and eliminates nothing in
    # between
    for spec, kmax in (("x3", 5), ("x2", 5), ("nonpappus", 5), (K5, 5),
                       ("braid:4", 4), ("pappus", 4)):
        arr = from_spec(spec)
        raw = [arr.n]
        for k in range(2, kmax + 1):
            rows, ncols = raw_jk_rows(arr, k)
            raw.append(ncols - rank_exact(rows))
        assert Analysis(arr).ranks(kmax) == tuple(raw), spec


def test_seeded_smith_forms_match_the_raw_route():
    # the quotient is built over Z, so its groups are Lie_k / J_k over Z
    # from the raw J_k, torsion included
    for spec in ("x3", "x2", "nonpappus", "braid:4", "pappus"):
        an = Analysis(from_spec(spec))
        for k in (3, 4):
            rows, ncols = raw_jk_rows(an.arr, k)
            diag = smith_diagonal(rows)
            want = AbelianGroupReport(ncols - len(diag), tuple(d for d in diag if d > 1))
            assert an.group(k) == want, (spec, k)


def test_degree_four_torsion():
    # pappus and the 8th draw below, 9 lines, are the known inputs with
    # torsion Z/2 in h_4; neither has torsion in h_3
    rng = random.Random(5)
    draw = [random_rank3_arrangement(rng, max_n=9) for _ in range(8)][-1]
    for arr, rank4 in ((builtin("pappus"), 30), (draw, 72)):
        an = Analysis(arr)
        assert an.group(4) == AbelianGroupReport(rank4, (2,))
        assert an.group(3).torsion == ()


def test_pappus_degree_four_torsion_in_the_tensor_algebra():
    # an oracle with no Lyndon code: J_4 of pappus over the words of T_4,
    # from the relators of all 18 flats.  L_4 is a direct summand of T_4,
    # so rank over Q minus rank over F_p counts the invariant factors of
    # h_4 divisible by p
    arr = builtin("pappus")
    flats = [f.members for f in compute_l2(arr)]
    assert len(flats) == 18
    rows = tensor_jk_rows(arr.n, flats, 4)
    words: dict = {}
    over_q = rank_exact([{words.setdefault(w, len(words)): c for w, c in r.items()}
                         for r in rows])
    over_p = {p: sparse_rank_mod_p(rows, p) for p in (2, 3, 5)}
    assert (over_q, over_p) == (1590, {2: 1589, 3: 1590, 5: 1590})
    h4 = Analysis(arr).group(4)
    # witt(9, 4) = (9^4 - 9^2) / 4 = 1620 Lyndon words of length 4
    assert h4.rank == 1620 - over_q
    for p, r in over_p.items():
        assert sum(t % p == 0 for t in h4.torsion) == over_q - r, p


def test_pencil_is_free_in_every_degree():
    # a pencil of n lines is F(n - 1) x Z: h_k is free of rank witt(n - 1, k)
    with budget(5, "pencils of 3, 4 and 5 lines"):
        for n, kmax in ((3, 10), (4, 8), (5, 6)):
            an = Analysis(make_arrangement([(1, 0)] + [(i, 1) for i in range(n - 1)]))
            for k in range(2, kmax + 1):
                assert an.group(k) == AbelianGroupReport(witt_count(n - 1, k), ()), (n, k)


def test_groups_match_the_raw_smith_form_on_random_draws():
    # h_2..h_4 over Z from the quotient against the Smith form of the raw
    # J_k over the Lyndon basis; the 8th draw has Z/2 in h_4
    rng = random.Random(5)
    torsion = []
    with budget(10, "150 random groups to degree 4"):
        for i in range(1, 151):
            an = Analysis(random_rank3_arrangement(rng, max_n=9))
            for k in (2, 3, 4):
                rows, ncols = raw_jk_rows(an.arr, k)
                diag = smith_diagonal(rows)
                want = AbelianGroupReport(ncols - len(diag), tuple(d for d in diag if d > 1))
                assert an.group(k) == want, (i, k)
                if want.torsion:
                    torsion.append((i, k, want.torsion))
    assert torsion == [(8, 4, (2,))]


def test_deep_degrees_match_the_formulas():
    # degrees the Lyndon route could not reach in test time; x3 and x2 need
    # a ceiling above witt(6, 9) = 1119720 and witt(7, 8) = 720300
    with budget(6, "braid:3 to degree 7"):
        kohno = tuple(sum(witt_count(j, k) for j in (1, 2, 3)) for k in range(1, 8))
        assert Analysis(builtin("braid", (3,))).ranks(7) == kohno
        assert kohno[5:] == (125, 330)
    with budget(2, "K5 to degree 5"):
        k5 = graphic_lcs(SimpleGraph(5, tuple(combinations(range(5), 2))), 5).as_tuple()
        assert Analysis(from_spec(K5)).ranks(5) == k5
        assert k5[-1] == 258
    for name, k, want in (("x3", 9, 168), ("x2", 8, 150)):
        with budget(1, "%s to degree %d" % (name, k)):
            an = Analysis(builtin(name), 2_000_000)
            assert an.ranks(k) == lcs_ranks_decomposable(an, k).as_tuple()
            assert an.ranks(k)[-1] == want
    with budget(3, "pappus to degree 6"):
        pappus = Analysis(builtin("pappus"))
        assert pappus.ranks(6)[-1] == 90
        assert [k for k in range(2, 7) if pappus.group(k).torsion] == [4]


def _cliques(edges, size):
    adjacent = set(edges)
    vertices = sorted({v for e in edges for v in e})
    return sum(all(pair in adjacent for pair in combinations(c, 2))
               for c in combinations(vertices, size))


def test_graphic_chen_ranks_match_schenck_suciu():
    # theta_k = (k - 1)(kappa_2 + kappa_3) for k >= 3 on a graphic
    # arrangement, kappa_2 and kappa_3 its triangles and K4 subgraphs
    # (Schenck-Suciu, Trans. AMS 2006); alexander_dims entry k - 2 is theta_k
    k4 = list(combinations(range(4), 2))
    with budget(5, "graphic Chen ranks"):
        for edges, want in ((k4, (10, 15, 20)), (list(combinations(range(5), 2)), (30, 45, 60)),
                            (k4 + [(0, 4), (1, 4)], (12, 18, 24))):
            kappa = _cliques(edges, 3) + _cliques(edges, 4)
            assert tuple((k - 1) * kappa for k in (3, 4, 5)) == want
            spec = "graphic:" + ",".join("%d-%d" % e for e in edges)
            assert tuple(Analysis(from_spec(spec)).alexander_dims(3)[1:]) == want, spec


def test_local_h3_rank():
    assert local_rank(builtin("braid", (3,)), 3) == 8
    assert local_rank(builtin("x3"), 3) == 6
    assert local_rank(builtin("nonpappus"), 3) == 18
    assert local_rank(builtin("pappus"), 3) == 18


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


def test_every_basis_is_checked_against_the_callers_ceiling():
    # every entry checks witt(n, k) against its caller's ceiling: on x3,
    # degree 5 has 1554 words and passes 5000, degree 6 has 7735 and does not
    arr = builtin("x3")
    assert holonomy_rank(arr, 4, ceiling=5000) == 9
    assert Analysis(arr, 5000).group(3).rank == 6
    assert Analysis(arr, 5000).alexander_dims(2) == [3, 6, 9]
    for refused in (lambda: holonomy_rank(arr, 6, ceiling=5000),
                    lambda: Analysis(arr, 5000).group(6),
                    lambda: Analysis(arr, 5000).alexander_dims(4)):
        with pytest.raises(ResourceError, match="^degree-6 computation needs 7735 basis words, "
                           "above the ceiling of 5000$"):
            refused()
    # a refusal names the caller's ceiling, above the default as well, and a
    # ceiling above the default lets the same degree through
    braid10 = from_spec("braid:10")
    with pytest.raises(ResourceError, match="242970 basis words, above the ceiling of 242969"):
        Analysis(braid10, 242969).group(3)
    Analysis(braid10, 300000)._check(3)


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
    # degrees 2..5 built once, with one unit pass each; each degree's core
    # is Smith-formed once, for its rank and its torsion alike
    calls = _count_holonomy_calls(monkeypatch, ("unit_pass", "rank", "smith_diagonal"))
    an = Analysis(builtin("x3"))
    assert an.ranks(5) == (6, 3, 6, 9, 18)
    assert an.ranks(3) == (6, 3, 6)
    assert an.group(3).rank == 6
    rng = random.Random(5)
    for _ in range(50):
        m = random_multiplicities(rng, an.arr.n)
        monodromy_trivial_criterion(MultiArrangement(an.arr, m), an)
    assert {name: len(c) for name, c in calls.items()} == {
        "unit_pass": 4, "rank": 0, "smith_diagonal": 4}


def _record_extensions(monkeypatch, snapshot=False):
    # (analysis, degree built, copy of the stored degree or None) per step;
    # holding the analysis keeps its id unique
    built = []
    real = Analysis._extend

    def spy(self):
        real(self)
        stored = self._degrees[-1]
        built.append((self, len(self._degrees), copy.deepcopy(stored) if snapshot else None))

    monkeypatch.setattr(Analysis, "_extend", spy)
    return built


def test_check_suite_builds_each_degree_once_per_sample(monkeypatch):
    # 16 samples, 14 of them decomposable: degrees 2 and 3 of each, degree 4
    # of those, each built once, with one unit pass unless the degree below
    # is zero
    built = _record_extensions(monkeypatch)
    calls = _count_holonomy_calls(monkeypatch, ("unit_pass",))
    assert all(r.ok for r in run_all_checks(seed=12022, samples=10))
    steps = [(id(an), k) for an, k, _ in built]
    assert len(steps) == len(set(steps)) == 16 + 16 + 14
    passed = [k for an, k, _ in built if an._degrees[k - 2].defs]
    assert len(calls["unit_pass"]) == len(passed) == 40


def test_analysis_builds_no_lyndon_basis(monkeypatch):
    # the quotient never enumerates Lyndon words; the ceiling is checked
    # on witt(n, k) alone
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
    assert built == []


def test_the_stored_degrees_are_never_changed(monkeypatch):
    # each degree is kept as its step built it: the later steps that read
    # its table and core, and the kernels, leave its rows as they were
    built = _record_extensions(monkeypatch, snapshot=True)
    for name, want in (("x3", (6, 3, 6, 9, 18)), ("pappus", (9, 9, 20, 30, 60))):
        built.clear()
        an = Analysis(builtin(name))
        assert an.ranks(5) == want
        assert an.group(3) == AbelianGroupReport(want[2], ())
        assert an.group(4) == AbelianGroupReport(want[3], () if name == "x3" else (2,))
        an.alexander_dims(2)
        assert [k for _, k, _ in built] == [2, 3, 4, 5]
        for _, k, snapshot in built:
            stored = an._degrees[k - 1]
            assert (stored.defs, stored.core, stored.table) == (
                snapshot.defs, snapshot.core, snapshot.table), (name, k)
