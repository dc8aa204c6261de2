import random
import time
from math import gcd

import pytest

from arrinv import milnor
from arrinv.arrangement import MultiArrangement, compute_l2, make_arrangement
from arrinv.catalog import builtin
from arrinv.checks import random_multiplicities
from arrinv.cli import main
from arrinv.errors import DomainError, HypothesisError, RefusalError, ResourceError
from arrinv.holonomy import Analysis
from arrinv.milnor import (
    local_b1_lower_bound,
    milnor_b1,
    monodromy_trivial_criterion,
)

from oracles import per_character_milnor


def unit(arr):
    return MultiArrangement(arr, (1,) * arr.n)


def b1_report(ma, **kwargs):
    return milnor_b1(ma, Analysis(ma.arrangement), **kwargs)


def criterion(ma):
    return monodromy_trivial_criterion(ma, Analysis(ma.arrangement))


def flats_of(arr):
    return [(f.members, f.mobius) for f in compute_l2(arr).multiple_flats()]


def test_unit_multiplicity_catalog():
    report = b1_report(unit(builtin("nonpappus")), separated=True)
    assert report.N == 9
    assert report.b1 == 8
    assert report.trivial_monodromy
    assert report.eigen_multiplicities[0] == 8
    assert all(report.eigen_multiplicities[j] == 0 for j in range(1, 9))
    report = b1_report(unit(builtin("x3")), separated=True)
    assert (report.N, report.b1, report.trivial_monodromy) == (6, 5, True)


def test_pencil_has_nontrivial_monodromy():
    pencil = make_arrangement([(1, 0), (0, 1), (1, 1)])
    report = b1_report(unit(pencil), separated=True)
    # the Milnor fiber of three concurrent lines is a thrice-punctured torus
    assert report.N == 3
    assert report.b1 == 4
    assert not report.trivial_monodromy
    assert report.eigen_multiplicities == [2, 1, 1]
    assert not criterion(unit(pencil))


def test_weight_vector_turns_monodromy_on():
    # rank >= 3 and decomposable, so the unit fiber has b1 = n - 1; an
    # adapted weight vector still produces an extra eigenvalue, because
    # the order-2 character supported on the flat (0, 3, 4) lies in its
    # local subtorus, and the hypothesis test sees that too
    arr = builtin("split_solvable", (2, 2))
    assert criterion(unit(arr))
    assert b1_report(unit(arr), separated=True).b1 == arr.n - 1
    ma = MultiArrangement(arr, (1, 2, 2, 1, 2))
    report = b1_report(ma, separated=True)
    assert report.N == 8
    assert report.b1 == 5
    assert report.eigen_multiplicities[4] == 1
    assert not report.trivial_monodromy
    assert not criterion(ma)


def test_weight_vector_larger_example():
    arr = builtin("split_solvable", (3, 4))
    assert b1_report(unit(arr), separated=True).b1 == 7
    ma = MultiArrangement(arr, (1, 2, 2, 2, 1, 1, 1, 2))
    report = b1_report(ma, separated=True)
    assert report.N == 12
    assert report.b1 == 10
    assert not report.trivial_monodromy


def test_error_order():
    with pytest.raises(RefusalError, match="assert"):
        b1_report(unit(builtin("nonpappus")))
    # non-decomposable input fails on the hypothesis even without the
    # flag, and the message carries the unconditional lower bound
    with pytest.raises(HypothesisError, match="b1 >= 8"):
        b1_report(unit(builtin("pappus")))
    with pytest.raises(HypothesisError):
        b1_report(unit(builtin("pappus")), separated=True)
    assert local_b1_lower_bound(unit(builtin("pappus"))) == 8


def test_criterion_flags():
    assert criterion(unit(builtin("x3")))
    assert criterion(unit(builtin("nonpappus")))
    assert not criterion(unit(builtin("braid", (3,))))
    assert not criterion(unit(builtin("pappus")))


def test_criterion_at_huge_total_multiplicity():
    # N is about 10^12, so the predicate must answer from one gcd per
    # multiple flat, never by enumerating residues mod N
    arr = builtin("x3")
    flats = compute_l2(arr).multiple_flats()

    def gcd_condition(m):
        N = sum(m)
        return all(
            gcd(N, *(m[h] for h in range(arr.n) if h not in f.members)) == 1
            for f in flats
        )

    big = 10**12
    trivial = (1, 1, 1, 1, 1, big)
    # off the flat (0, 1, 3) every weight is even, and so is N
    nontrivial = (1, 2, 2, 1, 2, big)
    assert gcd_condition(trivial) and not gcd_condition(nontrivial)
    assert criterion(MultiArrangement(arr, trivial))
    assert not criterion(MultiArrangement(arr, nontrivial))
    # only (0, 1, 3) holds characters: the one of order 2, adding mu - 1 = 1
    assert local_b1_lower_bound(MultiArrangement(arr, trivial)) == arr.n - 1
    assert local_b1_lower_bound(MultiArrangement(arr, nontrivial)) == arr.n


def test_total_multiplicity_is_bounded(capsys, monkeypatch):
    # the report holds one entry per residue mod N, so a huge N is refused
    # before any of them is built, after the exit-2 refusals
    x3 = builtin("x3")
    huge = MultiArrangement(x3, (1, 1, 1, 1, 1, 10**9))
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="1000000005"):
        b1_report(huge, separated=True)
    assert time.perf_counter() - t0 < 5
    with pytest.raises(RefusalError):
        b1_report(huge)
    pappus = builtin("pappus")
    with pytest.raises(HypothesisError):
        b1_report(MultiArrangement(pappus, (1,) * 8 + (10**9,)), separated=True)
    rc = main(["milnor", "--builtin", "x3", "--mult", "1,1,1,1,1,1000000000",
               "--assert-separated"])
    assert rc == 3
    assert "resource ceiling" in capsys.readouterr().err
    # the bound is inclusive
    monkeypatch.setattr(milnor, "MAX_MILNOR_TOTAL", 6)
    assert b1_report(unit(x3), separated=True).N == 6
    with pytest.raises(ResourceError):
        b1_report(MultiArrangement(x3, (1, 1, 1, 1, 1, 2)), separated=True)


def test_eigen_invariants():
    rng = random.Random(79)
    for name in ("x3", "x2", "nonpappus"):
        arr = builtin(name)
        for _ in range(6):
            ma = MultiArrangement(arr, random_multiplicities(rng, arr.n))
            report = b1_report(ma, separated=True)
            eigen = report.eigen_multiplicities
            assert report.b1 == sum(eigen)
            assert len(eigen) == report.N
            # complex conjugation pairs the nontrivial eigenvalues
            for j in range(1, report.N):
                assert eigen[j] == eigen[report.N - j]
            assert report.b1 >= arr.n - 1
            assert report.b1 == local_b1_lower_bound(ma)
            assert (report.trivial_monodromy == (report.b1 == arr.n - 1)
                    == criterion(ma))


def test_against_per_character_oracle():
    rng = random.Random(83)
    for name in ("x3", "split_solvable", "nonpappus"):
        arr = builtin(name, (2, 3)) if name == "split_solvable" else builtin(name)
        flats = flats_of(arr)
        for _ in range(8):
            ma = MultiArrangement(arr, random_multiplicities(rng, arr.n))
            report = b1_report(ma, separated=True)
            expected = per_character_milnor(flats, ma.multiplicities)
            for j in range(1, report.N):
                assert report.eigen_multiplicities[j] == expected[j]


def test_one_analysis_serves_every_weight_vector():
    x3 = builtin("x3")
    an = Analysis(x3)
    for m in ((1,) * 6, (1, 2, 2, 1, 2, 2)):
        ma = MultiArrangement(x3, m)
        assert milnor_b1(ma, an, separated=True) == b1_report(ma, separated=True)
        assert monodromy_trivial_criterion(ma, an) == criterion(ma)
    # the analysis must be of the multi-arrangement's own arrangement
    other = unit(builtin("nonpappus"))
    with pytest.raises(DomainError, match="another arrangement"):
        milnor_b1(other, an, separated=True)
    with pytest.raises(DomainError, match="another arrangement"):
        monodromy_trivial_criterion(other, an)
