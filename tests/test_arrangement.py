import json
import random
from fractions import Fraction
from math import comb

import pytest

from arrinv.arrangement import (
    MultiArrangement,
    SimpleGraph,
    arrangement_rank,
    betti,
    compute_l2,
    first_duplicate,
    graphic_arrangement,
    l2_to_json,
    line_key,
    make_arrangement,
    plane_key,
)
from arrinv.catalog import builtin, from_spec
from arrinv.checks import random_rank3_arrangement
from arrinv.errors import DomainError, ParseError, ResourceError
from arrinv.parsing import parse_arrangement

from oracles import brute_l2_flats, fraction_rank, sympy_rank, whitney_betti2


def test_make_arrangement_basic():
    arr = make_arrangement([(1, 0, 0), (0, 1, 0), ("1/2", "-1/2", 0)])
    assert arr.n == 3
    assert arr.ambient_dim == 3
    assert arr.normals[2] == (Fraction(1, 2), Fraction(-1, 2), Fraction(0))
    assert arr.labels == ("H0", "H1", "H2")
    assert arr.variables == ("x", "y", "z")
    named = make_arrangement([(1, 0), (0, 1)], labels=["a", "b"])
    assert named.labels == ("a", "b")
    with pytest.raises(DomainError):
        make_arrangement([(1, 0), (0, 1)], labels=["a"])


def test_make_arrangement_rejections():
    with pytest.raises(DomainError):
        make_arrangement([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(DomainError):
        make_arrangement([(1, 0), (1, 0, 0)])
    with pytest.raises(DomainError):
        make_arrangement([(1, 2, 0), (2, 4, 0)])  # proportional
    with pytest.raises(DomainError):
        make_arrangement([(1, 2, 0), (-1, -2, 0)])
    with pytest.raises(DomainError):
        make_arrangement([])
    # the lexicographically first proportional pair is named
    with pytest.raises(DomainError, match="factors H0 and H3 cut the same hyperplane"):
        make_arrangement([(1, 0), (0, 1), (0, 2), (3, 0)])


# one entry rule: the library and the JSON reader refuse the same entries
# with the same words
ENTRY_REFUSALS = [
    (True, "boolean is not a rational entry"),
    (False, "boolean is not a rational entry"),
    ("abc", "bad rational entry 'abc'"),
    ("1/0", "bad rational entry '1/0'"),
    (1.5, "entries must be integers or 'p/q' strings"),
    (None, "entries must be integers or 'p/q' strings"),
]


@pytest.mark.parametrize("entry, message", ENTRY_REFUSALS)
def test_make_arrangement_refuses_a_bad_entry(entry, message):
    with pytest.raises(DomainError) as ei:
        make_arrangement([(1, 0), (entry, 1)])
    assert str(ei.value) == message


@pytest.mark.parametrize("entry, message", ENTRY_REFUSALS)
def test_json_refuses_a_bad_entry_as_syntax(entry, message):
    with pytest.raises(ParseError) as ei:
        parse_arrangement(json.dumps({"normals": [[1, 0], [entry, 1]]}))
    assert (ei.value.kind, str(ei.value)) == ("syntax", message)


# one intake rule: the library and the JSON reader refuse the same
# arrangements with the same words, the bound (kind None) as ResourceError
ARRANGEMENT_REFUSALS = [
    pytest.param([[1, 0], [1]], None, "syntax", "normals must form a nonempty rectangle",
                 id="ragged"),
    pytest.param([[]], None, "syntax", "normals must form a nonempty rectangle",
                 id="zero-width"),
    pytest.param([[1, 0], [0, 0]], None, "zero_form", "normal 1 is the zero vector",
                 id="zero-normal"),
    pytest.param([[1, 0], [0, 1], [0, 2], [3, 0]], None, "duplicate",
                 "factors H0 and H3 cut the same hyperplane", id="repeated"),
    pytest.param([[1, 0], [0, 1]], ["a"], "syntax", "'labels' must name every hyperplane",
                 id="label-count"),
    pytest.param([[1, i] for i in range(601)], None, None,
                 "input hyperplane count 601 exceeds 600", id="601-normals"),
]


@pytest.mark.parametrize("normals, labels, kind, message", ARRANGEMENT_REFUSALS)
def test_library_and_json_refuse_an_arrangement_alike(normals, labels, kind, message):
    with pytest.raises(ResourceError if kind is None else DomainError) as ei:
        make_arrangement(normals, labels)
    assert str(ei.value) == message
    doc = {"normals": normals} if labels is None else {"normals": normals, "labels": labels}
    with pytest.raises(ResourceError if kind is None else ParseError) as ei:
        parse_arrangement(json.dumps(doc))
    assert (getattr(ei.value, "kind", None), str(ei.value)) == (kind, message)


def _scaled(rng, row):
    # the same line, through a random nonzero fraction of either sign
    f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return tuple(f * v for v in row)


def _nonzero(rng, d):
    while True:
        v = tuple(rng.randrange(-2, 3) for _ in range(d))
        if any(v):
            return v


def test_line_and_plane_keys_match_span_equality():
    rng = random.Random(41)
    for d in range(2, 10):
        for _ in range(40):
            u, v = _nonzero(rng, d), _nonzero(rng, d)
            same_line = fraction_rank([u, v], d) == 1
            assert (line_key(_scaled(rng, u)) == line_key(_scaled(rng, v))) == same_line
            if same_line:
                with pytest.raises(DomainError):
                    plane_key(line_key(u), line_key(_scaled(rng, v)))
                continue
            # a second pair: a random change of basis of span(u, v), whose
            # determinant may be negative, or an unrelated pair
            if rng.random() < 0.5:
                while True:
                    a, b, c, e = (rng.randint(-3, 3) for _ in range(4))
                    if a * e - b * c:
                        break
                x = tuple(a * p + b * q for p, q in zip(u, v))
                y = tuple(c * p + e * q for p, q in zip(u, v))
            else:
                x, y = _nonzero(rng, d), _nonzero(rng, d)
                if fraction_rank([x, y], d) < 2:
                    continue
            key = plane_key(line_key(_scaled(rng, u)), line_key(_scaled(rng, v)))
            other = plane_key(line_key(_scaled(rng, x)), line_key(_scaled(rng, y)))
            assert (key == other) == (fraction_rank([u, v, x, y], d) == 2)


def _random_arrangement(rng, d, n):
    rows = []
    while len(rows) < n:
        v = tuple(rng.randrange(-2, 3) for _ in range(d))
        if any(v) and first_duplicate(rows + [v]) is None:
            rows.append(v)
    return make_arrangement(rows)


def test_plane_key_reads_only_the_support():
    # equal minors on their own supports, different planes
    def unit(i, d):
        return tuple(int(c == i) for c in range(d))
    assert plane_key(unit(0, 4), unit(1, 4)) != plane_key(unit(2, 4), unit(3, 4))
    # a wide pair costs its width once, not its squared width
    d = 200_000
    u = tuple(1 if c in (0, d - 1) else 0 for c in range(d))
    v = tuple(-1 if c == 5 else 0 for c in range(d))
    assert plane_key(u, v) == ((0, 5, d - 1), (1, 0, -1))
    w = tuple(a + b for a, b in zip(u, v))
    assert plane_key(u, w) == plane_key(u, v)
    # a graphic arrangement with a large vertex label has the lattice of
    # the same graph relabelled small
    wide = compute_l2(from_spec("graphic:0-1,1-2,0-10000"))
    assert wide == compute_l2(from_spec("graphic:0-1,1-2,0-3"))


def test_compute_l2_matches_sympy_route():
    rng = random.Random(17)
    samples = [builtin("x3"), builtin("pappus"), builtin("braid", [3])]
    samples += [random_rank3_arrangement(rng) for _ in range(12)]
    samples += [
        from_spec("braid:4"),
        from_spec("graphic:0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"),
        from_spec("split_solvable:3,3,2"),
        parse_arrangement(json.dumps({"normals": [
            ["1/2", 0, 0], [0, "2/3", 0], [0, 0, 1], [1, "-3/2", 0],
            ["1/3", 0, "-1/3"], [0, 1, -1], [1, 1, "5/7"]]})),
    ]
    samples += [_random_arrangement(rng, 4, 7) for _ in range(3)]
    for arr in samples:
        got = {frozenset(f.members) for f in compute_l2(arr)}
        assert got == brute_l2_flats(arr.normals)


def test_pair_cover_property():
    rng = random.Random(29)
    for _ in range(15):
        arr = random_rank3_arrangement(rng)
        lat = compute_l2(arr)
        assert sum(comb(len(f), 2) for f in lat) == comb(arr.n, 2)


def test_betti_against_whitney_oracle():
    rng = random.Random(41)
    samples = [builtin("x3"), builtin("nonpappus"), builtin("split_solvable", [2, 3])]
    samples += [random_rank3_arrangement(rng, max_n=7) for _ in range(8)]
    for arr in samples:
        b1, b2 = betti(arr)
        assert b1 == arr.n
        assert b2 == whitney_betti2(arr.normals)


def test_flat_members_sorted_and_mobius():
    lat = compute_l2(builtin("x3"))
    for f in lat:
        assert list(f.members) == sorted(f.members)
        assert f.mobius == len(f) - 1
        assert f.mobius >= 1
    assert sorted(f.mobius for f in lat.multiple_flats()) == [2, 2, 2]


def test_arrangement_rank():
    assert arrangement_rank(builtin("x3")) == 3
    pencil = make_arrangement([(1, 0), (0, 1), (1, 1)])
    assert arrangement_rank(pencil) == 2
    # fractional normals: each row is scaled to its integer line key, which
    # spans the same line, so the rank is the rational one
    for normals in ([(Fraction(1, 2), Fraction(1, 3), 0), (Fraction(3, 4), 1, 0),
                     (Fraction(1, 5), 0, 0)],
                    [(Fraction(1, 2), Fraction(1, 3), 1), (Fraction(-3, 4), 1, 0),
                     (Fraction(1, 4), Fraction(4, 3), 1), (0, 0, Fraction(5, 9))]):
        arr = make_arrangement(normals)
        want = sympy_rank([dict(enumerate(r)) for r in arr.normals], 3)
        assert arrangement_rank(arr) == want


def test_graphic_arrangement_k4_is_braid_like():
    k4 = SimpleGraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    arr = graphic_arrangement(k4)
    assert arr.n == 6
    mus = sorted(f.mobius for f in compute_l2(arr))
    assert mus == [1, 1, 1, 2, 2, 2, 2]
    assert arrangement_rank(arr) == 3


def test_simple_graph_validation():
    with pytest.raises(DomainError):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(DomainError):
        SimpleGraph(3, ((0, 3),))
    with pytest.raises(DomainError):
        SimpleGraph(3, ((1, 0),))
    with pytest.raises(DomainError):
        SimpleGraph(3, ((0, 1), (0, 1)))
    # one integer rule: an int that is not a bool, for the count and every endpoint
    for vertices, edges in ((3, ((0, True),)), (3, ((0, 1.0),)), (3.0, ((0, 1),)),
                            (True, ()), (3, (("0", 1),))):
        with pytest.raises(DomainError, match="^graph vertex counts and endpoints must be "
                           "integers$"):
            SimpleGraph(vertices, edges)
    # lists are stored as tuples, so the record hashes
    graph = SimpleGraph(3, [[0, 1], (1, 2)])
    assert graph.edges == ((0, 1), (1, 2))
    assert hash(graph) == hash(SimpleGraph(3, ((0, 1), (1, 2))))


def test_multi_arrangement_validation():
    arr = builtin("x3")
    MultiArrangement(arr, (1, 2, 3, 1, 1, 1))
    with pytest.raises(DomainError):
        MultiArrangement(arr, (1, 2, 3))
    with pytest.raises(DomainError):
        MultiArrangement(arr, (2, 2, 2, 2, 2, 2))
    with pytest.raises(DomainError):
        MultiArrangement(arr, (1, 1, 1, 1, 1, 0))
    # a bool, a float and a string are not multiplicities
    for bad in ((True,) * 6, (1.5,) + (1,) * 5, ("2",) + (1,) * 5, (1,) * 5 + (2.0,)):
        with pytest.raises(DomainError, match="^multiplicities must be positive integers$"):
            MultiArrangement(arr, bad)
    assert MultiArrangement(arr, (1,) * 6).total == 6
    multi = MultiArrangement(arr, [1, 2, 1, 1, 1, 1])
    assert multi.multiplicities == (1, 2, 1, 1, 1, 1)
    assert hash(multi) == hash(MultiArrangement(arr, (1, 2, 1, 1, 1, 1)))


@pytest.mark.parametrize("make, message", [
    (lambda: SimpleGraph(3, ((0, 1, 2),)), "graph edges must be pairs"),
    (lambda: SimpleGraph(3, (5,)), "a graph edge must be a tuple or a list"),
    (lambda: SimpleGraph(3, 5), "graph edges must be a tuple or a list"),
    (lambda: SimpleGraph(-2, ()), "graph vertex count must be nonnegative"),
    (lambda: MultiArrangement(builtin("x3"), 5), "multiplicities must be a tuple or a list"),
    (lambda: MultiArrangement("x3", (1,) * 6), "multiplicities need an Arrangement"),
], ids=["triple", "bare-endpoint", "bare-edges", "negative-count", "bare-multiplicity",
        "no-arrangement"])
def test_shape_errors_are_domain_errors(make, message):
    with pytest.raises(DomainError, match="^" + message):
        make()


def test_l2_json_shape():
    doc = l2_to_json(builtin("x3"))
    assert doc["n"] == 6
    assert doc["rank"] == 3
    assert doc["betti"] == [6, 12]
    assert len(doc["flats"]) == 9
    entry = doc["flats"][0]
    assert set(entry) == {"members", "labels", "mobius"}


def test_variables_follow_the_construction():
    # graphic: one coordinate per vertex
    path = graphic_arrangement(SimpleGraph(3, ((0, 1), (1, 2))))
    assert path.variables == ("x0", "x1", "x2")
    assert from_spec("split_solvable:2,3").variables == ("z0", "z1", "z2")
    assert make_arrangement([(1, 0, 0, 0)]).variables == ("x1", "x2", "x3", "x4")
