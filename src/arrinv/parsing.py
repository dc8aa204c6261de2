"""Input front-end: defining polynomials and JSON normal matrices.

Two formats are accepted, distinguished by the first non-space character:

* a product of linear forms, factors juxtaposed or '*'-separated, e.g.
  ``xyz(x+y)(x+z)(y+z)`` or ``f = (x+y)(x-y)(x+z)(x-z)(y+z)(y-z)``.
  Variables are a letter followed by optional digits; coefficients are
  integers or ``p/q``.  Coordinates follow first-appearance order unless a
  bracketed header pins them, as in ``[x,y,z] y(y-z)(x-y)``, and the
  arrangement keeps their names in that order.
* a JSON object ``{"variables": [...], "normals": [[...], ...],
  "labels": [...]}`` with integer or "p/q" string entries; only
  ``normals`` is required, and the variables default to
  ``arrangement.default_variables``.  Given variables follow the
  header's rule: distinct names, each a letter and optional digits.  An
  object that repeats a key is refused.

Every factor must be a nonzero linear form through the origin, and no two
factors may cut the same hyperplane; ``ParseError.kind`` says which rule
was violated.  Both readers end in ``arrangement._intake``, the intake
rule ``make_arrangement`` applies too, so the library and the readers
refuse the same arrangements with the same words.  The hyperplane bound,
``MAX_HYPERPLANES`` as in the catalog, comes first and raises
``ResourceError``: the JSON reader tests the length of ``normals`` right
after decoding, and the polynomial reader, which tokenizes lazily, stops
at its 601st factor.  An integer literal longer than the interpreter
converts, or JSON nested deeper than it decodes, is a ``syntax`` error.
"""

from __future__ import annotations

import json
import re

from .arrangement import (Arrangement, _check_count, _coerce_scalar, _intake,
                          render_linear_form)
from .errors import DomainError, ParseError

_VAR_RE = re.compile(r"[A-Za-z][0-9]*\Z")
_HEADER_RE = re.compile(r"\s*\[([^\]]*)\]")
_NAME_EQ_RE = re.compile(r"\s*[A-Za-z][0-9]*\s*=")
_TOKEN_RE = re.compile(
    r"(?P<skip>[\s*]+)|(?P<var>[A-Za-z][0-9]*)|(?P<int>[0-9]+)|(?P<op>[-+/^()])"
)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("syntax", "unexpected character %r" % text[pos])
        pos = m.end()
        kind = m.lastgroup
        if kind != "skip":
            yield kind, m.group()


class _Tokens:
    """The tokens of a text, read one ahead of the parser, so a refusal
    leaves the rest of the text untokenized."""

    def __init__(self, text):
        self.it = _tokenize(text)
        self.next = next(self.it, (None, None))

    def peek(self):
        return self.next

    def take(self):
        t = self.next
        self.next = next(self.it, (None, None))
        return t


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # more digits than the interpreter converts (sys.get_int_max_str_digits)
        raise ParseError("syntax", "integer of %d digits is too long" % len(digits)) from None


def _parse_number(ts: _Tokens) -> int | Fraction:
    kind, val = ts.take()
    if kind != "int":
        raise ParseError("syntax", "expected an integer")
    num = _int(val)
    kind, val = ts.peek()
    if kind == "op" and val == "/":
        ts.take()
        kind, val = ts.take()
        if kind != "int":
            raise ParseError("syntax", "expected a denominator after '/'")
        den = _int(val)
        if den == 0:
            raise ParseError("syntax", "zero denominator")
        from fractions import Fraction
        return Fraction(num, den)
    return num


def _parse_linear(ts: _Tokens) -> tuple[dict[str, int | Fraction], int | Fraction]:
    """Sum of signed terms; returns (coefficients by variable, constant)."""
    coeffs: dict[str, int | Fraction] = {}
    const = 0
    while True:
        sign = 1
        kind, val = ts.peek()
        if kind == "op" and val in "+-":
            ts.take()
            sign = -1 if val == "-" else 1
            kind, val = ts.peek()
        coeff = None
        if kind == "int":
            coeff = _parse_number(ts)
            kind, val = ts.peek()
        if kind == "var":
            ts.take()
            c = 1 if coeff is None else coeff
            coeffs[val] = coeffs.get(val, 0) + sign * c
        elif coeff is not None:
            const += sign * coeff
        else:
            raise ParseError("syntax", "expected a coefficient or variable")
        kind, val = ts.peek()
        if not (kind == "op" and val in "+-"):
            return coeffs, const


def _parse_factor(ts: _Tokens) -> tuple[dict[str, int | Fraction], int | Fraction]:
    kind, val = ts.peek()
    if kind == "var":
        ts.take()
        return {val: 1}, 0
    if kind == "int":
        return {}, _parse_number(ts)
    if kind == "op" and val == "(":
        ts.take()
        coeffs, const = _parse_linear(ts)
        kind, val = ts.take()
        if not (kind == "op" and val == ")"):
            raise ParseError("syntax", "expected ')'")
        return coeffs, const
    ts.take()
    raise ParseError("syntax", "unexpected token %r" % (val,))


def _check_variables(names: list[str], where: str, bad: str) -> None:
    """Refuse variable names that are repeated or not a letter and digits,
    the rule of the polynomial header and of JSON ``variables`` alike;
    ``where`` names the list and ``bad`` is the message for a bad name."""
    if any(not _VAR_RE.match(s) for s in names):
        raise ParseError("syntax", bad)
    if len(set(names)) != len(names):
        raise ParseError("syntax", "repeated variable in " + where)


def _parse_polynomial(text: str) -> Arrangement:
    varorder = None
    m = _HEADER_RE.match(text)
    if m:
        varorder = [s.strip() for s in m.group(1).split(",")]
        _check_variables(varorder, "header", "bad variable header %r" % m.group(0))
        text = text[m.end() :]
    m = _NAME_EQ_RE.match(text)
    if m:
        text = text[m.end() :]
    ts = _Tokens(text)
    factors: list[dict[str, int | Fraction]] = []
    labels = []
    while ts.peek()[0] is not None:
        coeffs, const = _parse_factor(ts)
        coeffs = {k: v for k, v in coeffs.items() if v}
        label = render_linear_form(coeffs.items())
        if const:
            if coeffs:
                sgn = "+" if const > 0 else ""
                msg = "factor %s%s%s is affine, not linear" % (label, sgn, const)
            else:
                msg = "factor %s is constant, not linear" % const
            raise ParseError("nonlinear", msg)
        if not coeffs:
            # a zero form names no variable, so it may leave no column for
            # _intake to find it in
            raise ParseError("zero_form", "a factor is identically zero")
        kind, val = ts.peek()
        power = 1
        if kind == "op" and val == "^":
            ts.take()
            kind, val = ts.take()
            power = _int(val) if kind == "int" else 0
            if power < 1:
                raise ParseError("syntax", "exponent must be a positive integer")
        if power > 1:
            raise ParseError(
                "duplicate",
                "exponent %d repeats the hyperplane %s" % (power, label),
            )
        factors.append(coeffs)
        labels.append(label)
        _check_count("input", len(factors), more=ts.peek()[0] is not None)
    if not factors:
        raise ParseError("syntax", "no factors found")
    if varorder is None:
        varorder = []
        for coeffs in factors:
            for name in coeffs:
                if name not in varorder:
                    varorder.append(name)
    else:
        known = set(varorder)
        for coeffs in factors:
            for name in coeffs:
                if name not in known:
                    raise ParseError(
                        "syntax", "variable %r missing from header" % name
                    )
    rows = [tuple(coeffs.get(v, 0) for v in varorder) for coeffs in factors]
    return _intake(rows, labels, varorder)


def _unique_keys(pairs) -> dict:
    # a JSON object that repeats a key is refused, not read as its last value
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError("syntax", "repeated key %r in a JSON object" % key)
        data[key] = value
    return data


def _parse_json(text: str) -> Arrangement:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        # malformed JSON, an integer longer than the interpreter converts
        # or nesting deeper than it decodes
        raise ParseError("syntax", "invalid JSON: %s" % e) from None
    if not isinstance(data, dict):
        raise ParseError("syntax", "top level must be a JSON object")
    if "normals" not in data:
        raise ParseError("syntax", "missing 'normals'")
    raw = data["normals"]
    if not isinstance(raw, list):
        raise ParseError("syntax", "'normals' must be a nonempty list of rows")
    _check_count("input", len(raw))
    rows = []
    for row in raw:
        if not isinstance(row, list):
            raise ParseError("syntax", "each normal must be a list")
        try:
            rows.append(tuple(_coerce_scalar(v) for v in row))
        except DomainError as e:
            raise ParseError("syntax", str(e)) from None
    variables = data.get("variables")
    if variables is not None:
        if (not isinstance(variables, list) or not variables
                or any(not isinstance(s, str) for s in variables)):
            raise ParseError("syntax", "'variables' must name every column")
        _check_variables(variables, "'variables'",
                         "bad variable name in 'variables': %r" % (variables,))
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or any(not isinstance(s, str) for s in labels)
    ):
        raise ParseError("syntax", "'labels' must name every hyperplane")
    return _intake(rows, labels, variables)


def parse_arrangement(text: str) -> Arrangement:
    """Parse either input format; see the module docstring."""
    s = text.strip()
    if not s:
        raise ParseError("syntax", "empty input")
    if s.startswith("{"):
        return _parse_json(s)
    return _parse_polynomial(s)
