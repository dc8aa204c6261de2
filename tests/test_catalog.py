import pytest

from arrinv.arrangement import compute_l2
from arrinv import catalog
from arrinv.catalog import CATALOG_NAMES, MAX_GRAPHIC_LABEL, MAX_HYPERPLANES, builtin, from_spec
from arrinv.cli import main
from arrinv.errors import CatalogError, ResourceError
from arrinv.parsing import parse_arrangement

from oracles import CATALOG_POLYNOMIALS, braid_polynomial, split_solvable_polynomial


def census(arr):
    return sorted(f.mobius for f in compute_l2(arr))


def test_flat_censuses():
    assert builtin("x3").n == 6
    assert census(builtin("x3")) == [1] * 6 + [2] * 3
    assert builtin("x2").n == 7
    assert census(builtin("x2")) == [1] * 6 + [2] * 5
    assert builtin("nonpappus").n == 9
    assert census(builtin("nonpappus")) == [1] * 9 + [2] * 9
    assert builtin("pappus").n == 9
    assert census(builtin("pappus")) == [1] * 9 + [2] * 9
    assert builtin("braid", (3,)).n == 6
    assert census(builtin("braid", (3,))) == [1] * 3 + [2] * 4
    assert builtin("split_solvable", (2, 3)).n == 6
    assert census(builtin("split_solvable", (2, 3))) == [1] * 6 + [2, 3]


def test_pappus_and_nonpappus_differ():
    # identical censuses but different incidences
    a = {f.members for f in compute_l2(builtin("pappus"))}
    b = {f.members for f in compute_l2(builtin("nonpappus"))}
    assert a != b


def test_braid_flats_pinned():
    # the signed-difference family: 4 triples per coordinate triple plus
    # one special double per coordinate pair
    arr = builtin("braid", (3,))
    flats = {f.members for f in compute_l2(arr)}
    assert flats == {
        (0, 2, 5),
        (0, 3, 4),
        (1, 2, 4),
        (1, 3, 5),
        (0, 1),
        (2, 3),
        (4, 5),
    }


def test_braid_census_general():
    from math import comb

    for n in (3, 4, 5):
        arr = builtin("braid", (n,))
        assert arr.n == n * (n - 1)
        mus = census(arr)
        assert mus.count(2) == 4 * comb(n, 3)
        assert sum(comb(m + 1, 2) for m in mus) == comb(arr.n, 2)


def test_parameter_errors():
    with pytest.raises(CatalogError):
        builtin("braid")
    with pytest.raises(CatalogError):
        builtin("braid", (2,))
    with pytest.raises(CatalogError):
        builtin("braid", (3, 4))
    with pytest.raises(CatalogError):
        builtin("braid", (True,))
    with pytest.raises(CatalogError):
        builtin("braid", ("3",))
    with pytest.raises(CatalogError):
        builtin("split_solvable", ())
    with pytest.raises(CatalogError):
        builtin("split_solvable", (1, 3))
    with pytest.raises(CatalogError):
        builtin("x3", (1,))
    with pytest.raises(CatalogError, match="known:"):
        builtin("no_such_thing")


def test_graphic_params():
    arr = builtin("graphic", ((0, 1), (1, 2), (2, 0)))
    assert arr.n == 3
    assert census(arr) == [2]
    # unordered pairs are normalized
    same = builtin("graphic", ((1, 0), (2, 1), (0, 2)))
    assert same.normals == arr.normals
    with pytest.raises(CatalogError):
        builtin("graphic", ())
    with pytest.raises(CatalogError):
        builtin("graphic", (3,))
    # endpoints pass the parameters' integer rule, which refuses a bool
    for edge in ((0, True), (0, 1.5), ("a", 1)):
        with pytest.raises(CatalogError, match="^parameters must be integers, got "):
            builtin("graphic", (edge,))
    # a loop is named as such, though other pairs are sorted for the caller
    with pytest.raises(CatalogError, match="^graphic edge 0-0 is a loop$"):
        builtin("graphic", ((0, 0),))
    with pytest.raises(CatalogError, match="^graphic edge 2-2 is a loop$"):
        from_spec("graphic:0-1,2-2")
    # an edge listed twice, in either order, is the graph's own refusal
    with pytest.raises(CatalogError, match=r"^bad edge list: duplicate edge \(0, 1\)$"):
        builtin("graphic", ((0, 1), (1, 0)))


def test_a_fault_inside_the_graph_is_not_a_bad_edge_list(monkeypatch):
    # only the graph's DomainError becomes "bad edge list"; anything else
    # it raises is a fault and surfaces as itself
    def broken(vertices, edges):
        raise KeyError("fault")

    monkeypatch.setattr(catalog, "SimpleGraph", broken)
    with pytest.raises(KeyError):
        builtin("graphic", ((0, 1),))


def test_graphic_vertex_label_is_bounded(monkeypatch):
    # each edge's normal has one entry per vertex, so a label above the
    # bound is refused before any normal is built
    assert builtin("graphic", ((0, MAX_GRAPHIC_LABEL),)).n == 1

    def no_rows(graph):
        raise AssertionError("a normal was built before the refusal")

    monkeypatch.setattr(catalog, "graphic_arrangement", no_rows)
    with pytest.raises(ResourceError, match="graphic vertex label 10001 exceeds 10000"):
        from_spec("graphic:0-1,1-10001")


def test_catalog_matches_the_parser():
    # every entry is built from normals; its polynomial, parsed, is the oracle
    # for the normals, the labels and the variables alike
    cases = [(name, (), poly) for name, poly in CATALOG_POLYNOMIALS.items()]
    cases += [("braid", (n,), braid_polynomial(n)) for n in range(3, 9)]
    cases += [("split_solvable", ms, split_solvable_polynomial(ms))
              for ms in ((2, 3), (3, 4, 2), (2, 2, 2, 2))]
    for name, params, poly in cases:
        arr, want = builtin(name, params), parse_arrangement(poly)
        assert (arr.normals, arr.labels, arr.variables, arr.ambient_dim) == (
            want.normals, want.labels, want.variables, want.ambient_dim), (name, params)
        assert {type(v) for row in arr.normals for v in row} == {int}


def test_hyperplane_count_is_bounded(monkeypatch, capsys):
    # n(n - 1) for braid, 1 + sum m for split_solvable, the edge count for
    # graphic: each is refused from its parameters, before any normal is built
    assert builtin("braid", (25,)).n == MAX_HYPERPLANES == 600
    assert builtin("split_solvable", (MAX_HYPERPLANES - 1,)).n == MAX_HYPERPLANES

    def no_rows(*args):
        raise AssertionError("a normal was built before the refusal")

    for builder in ("_braid", "_split_solvable", "graphic_arrangement"):
        monkeypatch.setattr(catalog, builder, no_rows)
    assert main(["info", "--builtin", "braid:60"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "resource ceiling: braid hyperplane count 3540 exceeds 600\n"
    with pytest.raises(ResourceError, match="braid hyperplane count 3998000 exceeds 600"):
        from_spec("braid:2000")
    with pytest.raises(ResourceError, match="split_solvable hyperplane count 601 exceeds 600"):
        builtin("split_solvable", (MAX_HYPERPLANES,))
    edges = ",".join("%d-%d" % (a, b) for a in range(36) for b in range(a + 1, 36))
    with pytest.raises(ResourceError, match="graphic hyperplane count 630 exceeds 600"):
        from_spec("graphic:" + edges)


def test_from_spec():
    arr = from_spec("graphic:0-1,1-2")
    assert arr == builtin("graphic", [(0, 1), (1, 2)])
    assert from_spec("split_solvable:2,3") == builtin("split_solvable", (2, 3))
    with pytest.raises(CatalogError, match="integers"):
        from_spec("braid:x")
    with pytest.raises(CatalogError, match="0-x"):
        from_spec("graphic:0-x")


def test_lookups_build_equal_arrangements():
    # nothing is cached: each lookup builds afresh, and equal arrangements
    # share the lattice cache of compute_l2
    for name, params in (("x3", ()), ("braid", (3,))):
        a, b = builtin(name, params), builtin(name, params)
        assert a is not b and a == b and hash(a) == hash(b)


def test_names_listing():
    for name in ("x3", "x2", "nonpappus", "pappus", "braid", "split_solvable"):
        assert name in CATALOG_NAMES
