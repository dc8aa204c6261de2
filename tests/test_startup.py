"""What importing the package and starting the `arr` command loads.

A short `arr` call spends most of its time starting up, so importing
``arrinv.cli`` loads only the modules every command needs, and a command
loads the rest only when it runs them.  Checked on module lists, with no
timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrinv

SRC = str(Path(arrinv.__file__).resolve().parents[1])

# arrinv modules loaded by `import arrinv.cli` and by the commands that
# need no formula, jump-locus, Milnor or check code
CORE = {"arrinv", "arrinv._record", "arrinv.arrangement", "arrinv.catalog", "arrinv.cli",
        "arrinv.errors", "arrinv.holonomy", "arrinv.linalg", "arrinv.lyndon",
        "arrinv.parsing"}
# arrinv modules only some commands run
DEFERRED = {"arrinv.checks", "arrinv.formulas", "arrinv.jumploci", "arrinv.milnor",
            "arrinv.osalgebra"}


def loaded_modules(code: str) -> set[str]:
    """sys.modules after a fresh interpreter runs ``code``."""
    code += "\nimport sys\nsys.stderr.write('\\n'.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


@pytest.fixture(scope="module")
def bare():
    return loaded_modules("")


def test_cli_import_generates_no_code_and_defers_modules(bare):
    added = loaded_modules("import arrinv.cli") - bare
    assert not added & ({"dataclasses", "inspect"} | DEFERRED)
    assert {m for m in added if m.startswith("arrinv")} == CORE


@pytest.mark.parametrize("command", ["decomp", "info", "holonomy"])
def test_core_commands_load_only_what_they_run(bare, command):
    code = "from arrinv.cli import main\nassert main([%r, '--builtin', 'x3']) == 0" % command
    added = loaded_modules(code) - bare
    assert not added & ({"dataclasses", "inspect", "random"} | DEFERRED)
    assert {m for m in added if m.startswith("arrinv")} == CORE


def test_other_commands_load_their_modules(bare):
    code = "from arrinv.cli import main\nassert main(['lcs', '--builtin', 'x3']) == 0"
    added = {m for m in loaded_modules(code) - bare if m.startswith("arrinv")}
    assert added == CORE | {"arrinv.formulas"}


def test_package_import_loads_no_library_module(bare):
    added = loaded_modules("import arrinv") - bare
    assert {m for m in added if m.startswith("arrinv")} == {"arrinv"}


# the public names, pinned
PUBLIC = [
    "__version__", "Analysis", "Arrangement", "ArrangementError", "CATALOG_NAMES",
    "CatalogError", "DomainError", "Flat2", "HypothesisError", "L2Lattice",
    "LinearComponent", "LyndonBasis", "MilnorReport", "MultiArrangement",
    "OSQuadraticIdeal", "ParseError", "RankTable", "RefusalError", "ResourceError",
    "SimpleGraph", "TorusComponent", "arrangement_rank", "betti", "builtin",
    "characteristic_components", "chen_lower_bound", "chen_ranks_decomposable",
    "chen_ranks_from_resonance", "clique_counts", "compute_l2", "falk_phi3", "free_chen",
    "graphic_arrangement", "graphic_lcs", "holonomy_rank", "holonomy_relators", "i2_basis",
    "lcs_ranks_decomposable", "local_b1_lower_bound", "local_h3_rank", "localization",
    "lyndon_basis", "lyndon_words", "make_arrangement", "milnor_b1",
    "monodromy_trivial_criterion", "parse_arrangement", "product", "render_linear_form",
    "resonance_components", "witt_count",
]


def test_public_names_resolve_to_their_defining_module():
    assert arrinv.__all__ == PUBLIC and len(PUBLIC) == 51
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
