import json
from fractions import Fraction

import pytest

from arrinv.errors import ParseError
from arrinv.parsing import parse_arrangement, render_linear_form


def kind_of(text):
    with pytest.raises(ParseError) as ei:
        parse_arrangement(text)
    return ei.value.kind


def test_polynomial_golden():
    arr = parse_arrangement("x y z (x-y) (x-z) (y-z)")
    assert arr.n == 6
    assert arr.ambient_dim == 3
    assert arr.normals[0] == (1, 0, 0)
    assert arr.normals[3] == (1, -1, 0)
    assert arr.labels == ("x", "y", "z", "x-y", "x-z", "y-z")


def test_variable_header_pins_column_order():
    arr = parse_arrangement("[z, y, x] x y (x+y)")
    assert arr.ambient_dim == 3
    # columns follow the header even when z never appears
    assert arr.normals[0] == (0, 0, 1)
    assert arr.normals[2] == (0, 1, 1)


def test_header_errors():
    assert kind_of("[x, x] x") == "syntax"
    assert kind_of("[x, 2y] x") == "syntax"
    # a variable outside the declared header is a syntax error
    assert kind_of("[x, y] x y w") == "syntax"


def test_name_prefix_and_fractions():
    arr = parse_arrangement("Q = x (x - 1/2y) (3x + y)")
    assert arr.n == 3
    assert arr.normals[1] == (Fraction(1), Fraction(-1, 2))
    assert arr.labels[1] == "x-1/2y"


def test_factor_kinds():
    assert kind_of("x y x") == "duplicate"
    assert kind_of("x (2x)") == "duplicate"
    assert kind_of("x^2 y") == "duplicate"
    assert kind_of("x (x - y + 1)") == "nonlinear"
    assert kind_of("x 5") == "nonlinear"
    assert kind_of("x (y - y)") == "zero_form"
    assert kind_of("x + ") == "syntax"
    assert kind_of("x (y") == "syntax"
    assert kind_of("") == "syntax"
    assert kind_of("x ?") == "syntax"
    assert kind_of("x^0") == "syntax"
    assert kind_of("1/0x") == "syntax"


def test_first_duplicate_pair_is_reported():
    # the smallest i with a duplicate, then the smallest j after it
    with pytest.raises(ParseError, match="factors x and 3x cut the same hyperplane"):
        parse_arrangement("x y (2y) (3x)")
    doc = json.dumps({"normals": [[1, 0], [0, 1], [0, 2], [3, 0]]})
    with pytest.raises(ParseError, match="factors H0 and H3 cut the same hyperplane"):
        parse_arrangement(doc)


def test_render_round_trip():
    arr = parse_arrangement("(2x - 3y + z) (x + 1/3y)")
    for label, row in zip(arr.labels, arr.normals):
        again = parse_arrangement("[x, y, z] (%s)" % label)
        assert again.normals[0] == row
    assert render_linear_form([]) == "0"
    assert render_linear_form([("x", Fraction(-1))]) == "-x"


def test_json_golden():
    doc = {
        "variables": ["x", "y"],
        "normals": [[1, 0], [0, 1], ["1/2", "-1"]],
        "labels": ["a", "b", "c"],
    }
    arr = parse_arrangement(json.dumps(doc))
    assert arr.n == 3
    assert arr.normals[2] == (Fraction(1, 2), Fraction(-1))
    assert arr.labels == ("a", "b", "c")


def test_json_errors():
    assert kind_of("{ not json") == "syntax"
    assert kind_of("[1, 2]") == "syntax"  # '[' is a header, not JSON
    assert kind_of(json.dumps({"labels": ["a"]})) == "syntax"
    assert kind_of(json.dumps({"normals": []})) == "syntax"
    assert kind_of(json.dumps({"normals": [[1, 0], [1]]})) == "syntax"
    assert kind_of(json.dumps({"normals": [[True, 0]]})) == "syntax"
    assert kind_of(json.dumps({"normals": [[1, "1/q"]]})) == "syntax"
    assert kind_of(json.dumps({"normals": [[1.5, 0]]})) == "syntax"
    assert kind_of(json.dumps({"normals": [[0, 0]]})) == "zero_form"
    assert kind_of(json.dumps({"normals": [[1, 0], [2, 0]]})) == "duplicate"
    assert kind_of(json.dumps({"normals": [[1, 0]], "variables": ["x"]})) == "syntax"
    assert kind_of(json.dumps({"normals": [[1, 0]], "labels": []})) == "syntax"


def test_json_refuses_a_repeated_key():
    text = '{"normals": [[1, 0], [0, 1]], "normals": [[1, 1]]}'
    with pytest.raises(ParseError, match="repeated key 'normals'") as info:
        parse_arrangement(text)
    assert info.value.kind == "syntax"
    labels = '{"normals": [[1, 0], [0, 1]], "labels": ["a", "b"], "labels": ["c", "d"]}'
    with pytest.raises(ParseError, match="repeated key 'labels'"):
        parse_arrangement(labels)
    assert parse_arrangement('{"normals": [[1, 0], [0, 1]]}').n == 2


def test_json_and_polynomial_agree():
    poly = parse_arrangement("[x, y, z] x y z (x-y) (x-z) (y-z)")
    doc = {
        "normals": [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, -1, 0],
            [1, 0, -1],
            [0, 1, -1],
        ]
    }
    from_json = parse_arrangement(json.dumps(doc))
    assert from_json.normals == poly.normals


def test_variables_name_the_columns_of_the_normals():
    # first-appearance order, or the header's, and the same names in the report
    from arrinv.arrangement import arrangement_to_json

    arr = parse_arrangement("y(y-z)(x-y)")
    assert arr.normals[0] == (1, 0, 0) and arr.variables == ("y", "z", "x")
    assert arrangement_to_json(arr)["variables"] == ["y", "z", "x"]
    assert parse_arrangement("[a,b,c] a b c (a+b)").variables == ("a", "b", "c")
    assert parse_arrangement("[z, y, x] x y (x+y)").variables == ("z", "y", "x")
    # JSON keeps its variables; without them the defaults name the columns
    doc = {"variables": ["u", "v"], "normals": [[1, 0], [0, 1], [1, 1]]}
    assert parse_arrangement(json.dumps(doc)).variables == ("u", "v")
    del doc["variables"]
    assert parse_arrangement(json.dumps(doc)).variables == ("x", "y")
    wide = {"normals": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    assert parse_arrangement(json.dumps(wide)).variables == ("x1", "x2", "x3", "x4")


def test_json_variables_follow_the_header_rule():
    # repeated names and names that are not a letter and digits are refused
    # as in a polynomial header, in messages naming 'variables'
    normals = [[1, 0], [0, 1], [1, 1]]
    for names, message in ((["x", "x"], "repeated variable in 'variables'"),
                           (["1", ""], "bad variable name in 'variables': ['1', '']"),
                           ([], "'variables' must name every column")):
        with pytest.raises(ParseError) as ei:
            parse_arrangement(json.dumps({"variables": names, "normals": normals}))
        assert (ei.value.kind, str(ei.value)) == ("syntax", message)
    # the polynomial header keeps its words
    for text, message in (("[x,x] x", "repeated variable in header"),
                          ("[1, x] x", "bad variable header '[1, x]'"),
                          ("[] x", "bad variable header '[]'")):
        with pytest.raises(ParseError) as ei:
            parse_arrangement(text)
        assert str(ei.value) == message
    assert parse_arrangement(json.dumps({"variables": ["a1", "b"], "normals": normals})
                             ).variables == ("a1", "b")
