from functools import partial
from itertools import combinations

import pytest

from arrinv.arrangement import compute_l2
from arrinv.catalog import builtin
from arrinv.errors import DomainError, HypothesisError, RefusalError
from arrinv.formulas import chen_ranks_decomposable
from arrinv.holonomy import Analysis
from arrinv.jumploci import (
    LinearComponent,
    TorusComponent,
    characteristic_components,
    chen_ranks_from_resonance,
    resonance_components,
)


def test_nonpappus_resonance_depth1():
    comps = resonance_components(Analysis(builtin("nonpappus")), 1)
    assert len(comps) == 9
    for c in comps:
        assert isinstance(c, LinearComponent)
        assert c.dimension == 2
        assert len(c.support) == 3
        assert c.support == tuple(sorted(c.support))
    # supports are exactly the triple flats
    lat = compute_l2(builtin("nonpappus"))
    assert {c.support for c in comps} == {
        f.members for f in lat if f.mobius >= 2
    }


def test_depth_filtration():
    assert resonance_components(Analysis(builtin("nonpappus")), 2) == []
    assert resonance_components(Analysis(builtin("x3")), 2) == []
    ss = resonance_components(Analysis(builtin("split_solvable", (2, 3))), 2)
    assert [c.dimension for c in ss] == [3]
    shallow = resonance_components(Analysis(builtin("split_solvable", (2, 3))), 1)
    assert {c.support for c in ss} <= {c.support for c in shallow}


def test_components_overlap_in_at_most_one_coordinate():
    comps = resonance_components(Analysis(builtin("nonpappus")), 1)
    for a, b in combinations(comps, 2):
        assert len(set(a.support) & set(b.support)) <= 1


def test_resonance_domain_and_hypothesis():
    # the gate comes before the depth check, for both kinds of component
    for components in (resonance_components,
                       partial(characteristic_components, separated=True)):
        with pytest.raises(HypothesisError):
            components(Analysis(builtin("pappus")), 0)
        with pytest.raises(DomainError, match="^jump locus depth must be >= 1$"):
            components(Analysis(builtin("x3")), 0)
    with pytest.raises(HypothesisError):
        resonance_components(Analysis(builtin("braid", (3,))), 1)
    with pytest.raises(HypothesisError):
        resonance_components(Analysis(builtin("pappus")), 1)


def test_characteristic_needs_assertion():
    # the hypothesis check comes before the refusal: pappus fails on
    # decomposability even without the flag
    with pytest.raises(HypothesisError):
        characteristic_components(Analysis(builtin("pappus")), 1)
    with pytest.raises(RefusalError, match="assert-separated"):
        characteristic_components(Analysis(builtin("nonpappus")), 1)


def test_characteristic_report():
    report = characteristic_components(Analysis(builtin("nonpappus")), 1, separated=True)
    assert isinstance(report, tuple) and len(report) == 9
    lin = resonance_components(Analysis(builtin("nonpappus")), 1)
    for tor, exp in zip(report, lin):
        assert isinstance(tor, TorusComponent)
        assert tor.support == exp.support
        assert tor.dimension == exp.dimension
    assert report[0].support == lin[0].support


def test_component_validation():
    LinearComponent((0, 2, 5), 2)
    with pytest.raises(ValueError):
        LinearComponent((2, 0, 5), 2)
    with pytest.raises(ValueError):
        LinearComponent((0, 0, 5), 2)
    with pytest.raises(ValueError):
        LinearComponent((0, 1), 1)  # support too small
    with pytest.raises(ValueError):
        TorusComponent((0, 1, 2), 1)  # wrong dimension


def test_chen_ranks_from_resonance():
    assert chen_ranks_from_resonance(Analysis(builtin("nonpappus")), 2) == 9
    assert chen_ranks_from_resonance(Analysis(builtin("x2")), 3) == 10
    assert chen_ranks_from_resonance(Analysis(builtin("x3")), 5) == 12
    with pytest.raises(DomainError):
        chen_ranks_from_resonance(Analysis(builtin("x3")), 1)
    with pytest.raises(HypothesisError):
        chen_ranks_from_resonance(Analysis(builtin("braid", (3,))), 2)


def test_two_chen_routes_agree():
    for name in ("x3", "x2", "nonpappus"):
        an = Analysis(builtin(name))
        table = chen_ranks_decomposable(an, 6)
        for k in range(2, 7):
            assert chen_ranks_from_resonance(an, k) == table[k]
