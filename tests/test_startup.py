"""What importing the package and starting the `arr` command loads.

A short `arr` call spends most of its time starting up, so importing
``arrinv.cli`` loads only the modules every command needs, and a command
loads the rest only when it runs them.  Integer coefficients stay ``int``,
so ``fractions`` (and the ``decimal`` it imports) is loaded only for
``p/q`` input.  Checked on module lists, with no timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrinv
from arrinv import compute_l2, make_arrangement, parse_arrangement
from arrinv.cli import main

SRC = str(Path(arrinv.__file__).resolve().parents[1])

# arrinv modules loaded by `import arrinv.cli`, and all that `info`, `l2`
# and `betti` load on a file: no catalog, no holonomy, no Lyndon code
CORE = {"arrinv", "arrinv._record", "arrinv.arrangement", "arrinv.cli", "arrinv.errors",
        "arrinv.linalg"}
# arrinv modules only some commands run; no command runs ``arrinv.lyndon``,
# whose Lyndon words serve the tests' oracles and the benchmark tracer
DEFERRED = {"arrinv.catalog", "arrinv.checks", "arrinv.formulas", "arrinv.holonomy",
            "arrinv.jumploci", "arrinv.milnor", "arrinv.osalgebra", "arrinv.parsing"}
# what each command adds to CORE on a built-in
RUNS = {"info": {"arrinv.catalog"}, "l2": {"arrinv.catalog"}, "betti": {"arrinv.catalog"},
        "decomp": {"arrinv.catalog", "arrinv.holonomy"},
        "holonomy": {"arrinv.catalog", "arrinv.holonomy"}}
# what no call loads: the option tables read every call, and argparse's
# messages would import gettext and locale
ARGPARSE = {"argparse", "gettext", "locale"}


def loaded_modules(code: str) -> set[str]:
    """sys.modules after a fresh interpreter runs ``code``."""
    code += "\nimport sys\nsys.stderr.write('\\n'.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


def arrinv_loaded_by(bare, argv) -> set[str]:
    """The arrinv modules a fresh interpreter loads to run ``arr argv``."""
    code = "from arrinv.cli import main\nassert main(%r) == 0" % (list(argv),)
    return {m for m in loaded_modules(code) - bare if m.startswith("arrinv")}


@pytest.fixture(scope="module")
def bare():
    return loaded_modules("")


def test_cli_import_generates_no_code_and_defers_modules(bare):
    added = loaded_modules("import arrinv.cli") - bare
    assert not added & ({"dataclasses", "inspect"} | ARGPARSE | DEFERRED)
    assert {m for m in added if m.startswith("arrinv")} == CORE


@pytest.mark.parametrize("command", ["decomp", "info", "holonomy", "l2", "betti"])
def test_core_commands_load_only_what_they_run(bare, command):
    code = "from arrinv.cli import main\nassert main([%r, '--builtin', 'x3']) == 0" % command
    added = loaded_modules(code) - bare
    assert not added & ({"dataclasses", "inspect", "random"} | ARGPARSE
                        | (DEFERRED - RUNS[command]))
    assert {m for m in added if m.startswith("arrinv")} == CORE | RUNS[command]


def test_other_commands_load_their_modules(bare):
    assert arrinv_loaded_by(bare, ["lcs", "--builtin", "x3"]) == CORE | {
        "arrinv.catalog", "arrinv.formulas", "arrinv.holonomy"}
    # the cross-check suite loads every command module but the parser
    assert arrinv_loaded_by(bare, ["check", "--samples", "0"]) == (
        CORE | DEFERRED) - {"arrinv.parsing"}


def test_the_lyndon_words_load_no_holonomy(bare):
    added = loaded_modules("import arrinv.lyndon") - bare
    assert {m for m in added if m.startswith("arrinv")} == {
        "arrinv", "arrinv.linalg", "arrinv.lyndon"}


def test_only_file_input_loads_the_parser(bare, tmp_path):
    poly = tmp_path / "x3.txt"
    poly.write_text("xyz(x+y)(x+z)(y+z)")
    for spec in ("braid:4", "split_solvable:2,3", "pappus", "graphic:0-1,1-2,0-2"):
        assert "arrinv.parsing" not in arrinv_loaded_by(bare, ["info", "--builtin", spec])
    # and file input loads no catalog
    assert arrinv_loaded_by(bare, ["info", "--file", str(poly)]) == CORE | {"arrinv.parsing"}
    assert arrinv_loaded_by(bare, ["decomp", "--file", str(poly)]) == CORE | {
        "arrinv.parsing", "arrinv.holonomy"}


def test_no_call_loads_argparse(bare, tmp_path):
    poly = tmp_path / "x3.txt"
    poly.write_text("xyz(x+y)(x+z)(y+z)")
    calls = [(["info", "--file", str(poly), "--table"], 0),
             (["l2", "--builtin", "x3", "--json"], 0),
             (["holonomy", "--builtin", "x3", "--max", "3", "--ceiling", "5000"], 0),
             (["decomp", "--file", str(poly)], 0), (["lcs", "--builtin", "x3", "--max", "4"], 0),
             (["chen", "--builtin", "x3"], 0),
             (["resonance", "--builtin", "x3", "--depth", "2"], 0),
             (["charvar", "--builtin", "x3", "--assert-separated"], 0),
             (["milnor", "--builtin", "x3", "--assert-separated", "--mult", "1,1,1,1,1,2"], 0),
             (["betti", "--builtin", "x3"], 0), (["check", "--seed", "-1", "--samples", "0"], 0),
             (["holonomy", "--builtin", "x3", "--max=3"], 0),
             # help, the version and usage errors
             (["--help"], 0), (["info", "--help"], 0), (["--version"], 0),
             (["info", "--max", "3"], 1), (["holonomy", "--max", "x"], 1), ([], 1), (["nope"], 1)]
    code = "from arrinv.cli import main\nfor argv, status in %r:\n    assert main(argv) == status"
    code %= (calls,)
    added = loaded_modules(code) - bare
    assert not added & ARGPARSE
    # nor the Lyndon words: no command, ``check`` included, loads them
    assert "arrinv.lyndon" not in added


def test_integer_input_loads_no_fractions(bare, tmp_path):
    poly = tmp_path / "ints.txt"
    poly.write_text("xyz(x+y)(x-2z)(3y+z)")
    table = tmp_path / "ints.json"
    table.write_text('{"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -2, 3]]}')
    for source in (["--builtin", "braid:4"], ["--builtin", "graphic:0-1,1-2,0-2,2-3"],
                   ["--file", str(poly)], ["--file", str(table)]):
        code = "from arrinv.cli import main\nassert main(['l2', *%r]) == 0" % (source,)
        assert not (loaded_modules(code) - bare) & {"fractions", "decimal"}, source
    code = ("from arrinv import betti, builtin, make_arrangement\n"
            "betti(make_arrangement([[2, 1], [0, 1], [1, 1]])), betti(builtin('graphic', [(0, 1)]))")
    assert not (loaded_modules(code) - bare) & {"fractions", "decimal"}


def test_rational_input_keeps_its_fractions(tmp_path, capsys):
    from fractions import Fraction

    poly = tmp_path / "half.txt"
    poly.write_text("[x, y] x y (x+1/2y)")
    table = tmp_path / "half.json"
    table.write_text('{"normals": [[1, 0], [0, 1], [1, "1/2"]]}')
    for path in (poly, table):
        assert parse_arrangement(path.read_text()).normals == ((1, 0), (0, 1), (1, Fraction(1, 2)))
        assert main(["info", "--file", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["arrangement"]["normals"] == [["1", "0"], ["0", "1"], ["1", "1/2"]]


def test_integer_entries_equal_their_fraction_twins():
    from fractions import Fraction

    ints = make_arrangement([[2, 1], [0, 1]])
    twin = make_arrangement([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]])
    assert {type(v) for row in ints.normals for v in row} == {int}
    assert ints == twin and hash(ints) == hash(twin)
    assert compute_l2(ints) is compute_l2(twin)


def test_package_import_loads_no_library_module(bare):
    added = loaded_modules("import arrinv") - bare
    assert {m for m in added if m.startswith("arrinv")} == {"arrinv"}


# the public names, pinned
PUBLIC = [
    "__version__", "Analysis", "Arrangement", "ArrangementError", "CATALOG_NAMES",
    "CatalogError", "DomainError", "Flat2", "HypothesisError", "L2Lattice",
    "LinearComponent", "MilnorReport", "MultiArrangement",
    "OSQuadraticIdeal", "ParseError", "RankTable", "RefusalError", "ResourceError",
    "SimpleGraph", "TorusComponent", "arrangement_rank", "betti", "builtin",
    "characteristic_components", "chen_lower_bound", "chen_ranks_decomposable",
    "chen_ranks_from_resonance", "clique_counts", "compute_l2", "falk_phi3", "free_chen",
    "graphic_arrangement", "graphic_lcs", "holonomy_rank", "holonomy_relators", "i2_basis",
    "lcs_ranks_decomposable", "local_b1_lower_bound", "local_rank", "make_arrangement",
    "milnor_b1", "monodromy_trivial_criterion",
    "parse_arrangement", "render_linear_form",
    "resonance_components", "witt_count",
]


def test_public_names_resolve_to_their_defining_module():
    assert arrinv.__all__ == PUBLIC and len(PUBLIC) == 46
    for name in PUBLIC:
        obj = getattr(arrinv, name)
        home = {"__version__": "arrinv", "CATALOG_NAMES": "arrinv.catalog"}.get(
            name, getattr(obj, "__module__", None))
        assert getattr(sys.modules[home], name) is obj, name
    namespace = {}
    exec("from arrinv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_unknown_names_and_dir():
    with pytest.raises(AttributeError):
        arrinv.no_such_name
    assert set(PUBLIC) <= set(dir(arrinv))
    from arrinv import holonomy
    assert holonomy is sys.modules["arrinv.holonomy"]
