import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrinv
from arrinv.arrangement import compute_l2
from arrinv.catalog import builtin
from arrinv.cli import main

from oracles import per_character_milnor

SRC = str(Path(arrinv.__file__).resolve().parents[1])


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


# every arrangement subcommand, with the options it needs on x3
ARRANGEMENT_COMMANDS = [
    ("info",),
    ("l2",),
    ("betti",),
    ("holonomy",),
    ("decomp",),
    ("lcs",),
    ("chen",),
    ("resonance",),
    ("charvar", "--assert-separated"),
    ("milnor", "--assert-separated"),
]


@pytest.mark.parametrize("command", ARRANGEMENT_COMMANDS, ids=lambda c: c[0])
def test_report_envelope(capsys, command):
    doc = run_json(capsys, command[0], "--builtin", "x3", *command[1:])
    assert set(doc) == {
        "arrangement",
        "hypotheses",
        "result",
        "tool_version",
        "verification",
    }
    assert len(doc["arrangement"]["normals"]) == 6
    assert doc["verification"] == {"modular_only": False}
    if command[0] == "betti":
        assert doc["result"] == {"b1": 6, "b2": 12}


def test_decomp_golden(capsys):
    doc = run_json(capsys, "decomp", "--builtin", "braid:3")
    assert doc["result"] == {
        "rational": False,
        "integral": False,
        "h3_rank": 10,
        "local_rank": 8,
        "torsion": [],
    }


def test_info_and_l2(capsys):
    doc = run_json(capsys, "info", "--builtin", "split_solvable:2,3")
    assert doc["result"]["n"] == 6
    assert doc["result"]["rank"] == 3
    assert doc["result"]["flat_counts_by_mobius"] == {"1": 6, "2": 1, "3": 1}
    doc = run_json(capsys, "l2", "--builtin", "braid:3")
    assert len(doc["result"]["flats"]) == 7


def test_holonomy_and_lcs_routes_agree(capsys):
    hol = run_json(capsys, "holonomy", "--builtin", "x3", "--max", "4")
    lcs = run_json(capsys, "lcs", "--builtin", "x3", "--max", "4")
    assert hol["result"]["route"] == "presentation"
    assert lcs["result"]["route"] == "product-formula"
    assert hol["result"]["ranks"] == lcs["result"]["ranks"]
    assert lcs["hypotheses"] == {"q_decomposable": True}


def test_chen_values(capsys):
    doc = run_json(capsys, "chen", "--builtin", "x3", "--max", "4")
    assert doc["result"]["ranks"] == {"1": 6, "2": 3, "3": 6, "4": 9}


def test_resonance_and_charvar(capsys):
    doc = run_json(capsys, "resonance", "--builtin", "nonpappus")
    assert len(doc["result"]["components"]) == 9
    doc = run_json(
        capsys, "charvar", "--builtin", "nonpappus", "--assert-separated"
    )
    assert len(doc["result"]["components"]) == 9
    assert doc["hypotheses"]["separated"] == "asserted"


def test_milnor(capsys):
    doc = run_json(
        capsys, "milnor", "--builtin", "nonpappus", "--assert-separated"
    )
    assert doc["result"]["b1"] == 8
    assert doc["result"]["trivial_monodromy"] is True
    doc = run_json(
        capsys,
        "milnor",
        "--builtin",
        "split_solvable:2,2",
        "--mult",
        "1,2,2,1,2",
        "--assert-separated",
    )
    assert doc["result"]["b1"] == 5
    assert doc["result"]["eigen_multiplicities"]["4"] == 1


@pytest.mark.parametrize("mult", ["781,787,990,1007,910,805",  # N = 5280
                                  "1969,1739,1953,2280,2658,2406"])  # N = 13 005
def test_milnor_table_at_large_n(capsys, mult):
    # the whole table, residue by residue, against the per-character oracle
    doc = run_json(capsys, "milnor", "--builtin", "x3", "--assert-separated", "--mult", mult)
    m = [int(v) for v in mult.split(",")]
    flats = [(f.members, f.mobius) for f in compute_l2(builtin("x3")).multiple_flats()]
    oracle = per_character_milnor(flats, m)
    eigen = doc["result"]["eigen_multiplicities"]
    assert eigen == {"0": 5, **{str(j): v for j, v in oracle.items()}}
    assert doc["result"]["b1"] == sum(eigen.values())


def test_exit_code_refusal(capsys):
    rc, _ = run(capsys, "milnor", "--builtin", "nonpappus")
    assert rc == 2
    rc, _ = run(capsys, "lcs", "--builtin", "braid:3")
    assert rc == 2
    rc, _ = run(capsys, "charvar", "--builtin", "pappus")
    assert rc == 2


def test_one_hypothesis_gate(capsys):
    # every gated entry point refuses with the gate's one sentence per
    # hypothesis, and every command reports the gate's dict
    from arrinv import (Analysis, HypothesisError, MultiArrangement, RefusalError,
                        builtin, characteristic_components, chen_ranks_decomposable,
                        chen_ranks_from_resonance, lcs_ranks_decomposable, milnor_b1,
                        resonance_components)

    not_decomposable = ("the computation needs a rationally decomposable arrangement; "
                        "this one is not (h3_rank 20 > local_rank 18)")
    not_asserted = ("the computation needs the Alexander invariant separated, which "
                    "cannot be checked from the input; pass separated=True "
                    "(--assert-separated) to assert it")
    entry_points = {
        "lcs": lambda an: lcs_ranks_decomposable(an, 3),
        "chen": lambda an: chen_ranks_decomposable(an, 3),
        "resonance": lambda an: resonance_components(an, 1),
        "charvar": lambda an: characteristic_components(an, 1),
        "milnor": lambda an: milnor_b1(MultiArrangement(an.arr, (1,) * an.arr.n), an),
        "chen_from_resonance": lambda an: chen_ranks_from_resonance(an, 2),
    }
    for name, call in entry_points.items():
        with pytest.raises(HypothesisError) as exc:
            call(Analysis(builtin("pappus")))
        advisory = "; advisory: local subtori give b1 >= 8" if name == "milnor" else ""
        assert str(exc.value) == not_decomposable + advisory, name
        if name in ("charvar", "milnor"):
            with pytest.raises(RefusalError) as exc:
                call(Analysis(builtin("x3")))
            assert str(exc.value) == not_asserted, name
        else:
            call(Analysis(builtin("x3")))
    x3 = Analysis(builtin("x3"))
    assert x3.require() == {"q_decomposable": True}
    assert list(x3.require(True).items()) == [("q_decomposable", True),
                                              ("separated", "asserted")]
    for command in ("lcs", "chen", "resonance", "charvar", "milnor"):
        separated = ("--assert-separated",) if command in ("charvar", "milnor") else ()
        rc, out = run(capsys, command, "--builtin", "x3", "--table", *separated)
        assert rc == 0
        assert out.splitlines()[-1] == "hypotheses: q_decomposable=True" + (
            ", separated=asserted" if separated else "")
        assert main([command, "--builtin", "pappus", *separated]) == 2
        assert capsys.readouterr().err.startswith("refused: " + not_decomposable)


def test_exit_code_usage(capsys):
    rc, _ = run(capsys, "betti", "--builtin", "no_such_entry")
    assert rc == 1
    rc, _ = run(capsys, "betti", "--builtin", "braid:2")
    assert rc == 1
    assert main(["holonomy", "--builtin", "graphic:0-0"]) == 1
    assert capsys.readouterr().err == "error: graphic edge 0-0 is a loop\n"
    rc, _ = run(capsys, "no_such_command")
    assert rc == 1
    rc, _ = run(capsys, "betti")
    assert rc == 1  # no input source
    rc, _ = run(capsys, "milnor", "--builtin", "x3", "--mult", "2,2,2,2,2,2")
    assert rc == 1
    rc, _ = run(capsys, "milnor", "--builtin", "x3", "--mult", "1,1")
    assert rc == 1


def test_exit_code_resource(capsys):
    rc, _ = run(
        capsys,
        "holonomy",
        "--builtin",
        "braid:4",
        "--max",
        "9",
        "--ceiling",
        "1000",
    )
    assert rc == 3


K6 = "graphic:" + ",".join("%d-%d" % (a, b) for a in range(6) for b in range(a + 1, 6))


@pytest.mark.parametrize("command", [
    ("decomp",),
    ("lcs",),
    ("chen",),
    ("resonance",),
    ("charvar", "--assert-separated"),
    ("milnor", "--assert-separated"),
], ids=lambda c: c[0])
def test_decomposability_test_honors_the_ceiling(capsys, command):
    # K6 is not decomposable (exit 2 at the default ceiling), but its
    # degree-3 basis of 1120 words is refused first
    rc = main([command[0], "--builtin", K6, "--ceiling", "1000", *command[1:]])
    err = capsys.readouterr().err
    assert rc == 3
    assert "degree-3 computation needs 1120 basis words" in err


def test_decomposability_refusal_names_the_smallest_degree_over_the_ceiling(capsys):
    # braid:8 has 56 hyperplanes, so at --ceiling 1000 both its degree-2
    # basis (1540 words) and its degree-3 basis (58520) are over the
    # ceiling; the smaller degree is named
    assert main(["decomp", "--builtin", "braid:8", "--ceiling", "1000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "degree-2 computation needs 1540 basis words" in err


def test_file_inputs(tmp_path, capsys):
    poly = tmp_path / "pencil.txt"
    poly.write_text("[x, y] x y (x+y)\n")
    doc = run_json(capsys, "betti", "--file", str(poly))
    assert doc["result"] == {"b1": 3, "b2": 2}
    blob = tmp_path / "pencil.json"
    blob.write_text(json.dumps({"normals": [[1, 0], [0, 1], [1, 1]]}))
    doc = run_json(capsys, "betti", "--file", str(blob))
    assert doc["result"] == {"b1": 3, "b2": 2}
    bad = tmp_path / "bad.txt"
    bad.write_text("x (x + 1)\n")
    rc, _ = run(capsys, "betti", "--file", str(bad))
    assert rc == 1
    # JSON variables obey the polynomial header's naming rule, in JSON words
    for names, message in ((["x", "x"], "repeated variable in 'variables'"),
                           (["1", ""], "bad variable name in 'variables': ['1', '']"),
                           ([], "'variables' must name every column")):
        blob.write_text(json.dumps({"variables": names, "normals": [[1, 0], [0, 1], [1, 1]]}))
        assert main(["info", "--file", str(blob)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err
    # a file that is not UTF-8 is an input error, not a traceback
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe(x)")
    assert main(["info", "--file", str(binary)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: %s is not UTF-8 text" % binary)


def test_file_input_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # the same report with and without a UTF-8 BOM, in both input formats
    for name, text in (("x3.txt", "xyz(x+y)(x+z)(y+z)\n"),
                       ("x3.json", json.dumps({"normals": [[1, 0], [0, 1], [1, 1]]}))):
        plain, marked = tmp_path / name, tmp_path / ("bom-" + name)
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = run(capsys, "l2", "--file", str(plain))
        assert want[0] == 0 and run(capsys, "l2", "--file", str(marked)) == want


def test_input_sources_are_exclusive(tmp_path, capsys):
    poly = tmp_path / "a.txt"
    poly.write_text("x y\n")
    rc, _ = run(capsys, "betti", "--builtin", "x3", "--file", str(poly))
    assert rc == 1


@pytest.mark.parametrize("command", ARRANGEMENT_COMMANDS, ids=lambda c: c[0])
def test_table_output(capsys, command):
    rc, out = run(capsys, command[0], "--builtin", "x3", "--table", *command[1:])
    assert rc == 0
    assert not out.lstrip().startswith("{")
    if command[0] == "betti":
        assert "b1" in out and "6" in out


@pytest.mark.parametrize("argv", [
    ("holonomy", "--max", "0"),
    ("lcs", "--max", "0"),
    ("chen", "--max", "0"),
    ("resonance", "--depth", "0"),
    ("charvar", "--depth", "0"),
    ("decomp", "--ceiling", "999"),
    ("milnor", "--mult", "1,x"),
], ids=lambda a: "%s%s" % a[:2])
def test_option_bounds(capsys, argv):
    rc = main([argv[0], "--builtin", "x3", *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: " + argv[1] + " ")


@pytest.mark.parametrize("argv", [
    (),
    ("no_such_command",),
    ("betti", "--builtin", "x3", "--bogus"),
    ("betti", "--builtin"),
    ("holonomy", "--builtin", "x3", "--max", "x"),
    ("decomp", "--builtin", "x3", "--ceil", "5000"),
    ("check", "--ceiling", "5000"),
    # --ceiling bounds witt(n, k) of a holonomy degree, and these commands need none
    ("info", "--builtin", "x3", "--ceiling", "5000"),
    ("l2", "--builtin", "x3", "--ceiling", "5000"),
    ("betti", "--builtin", "x3", "--ceiling", "5000"),
    ("check", "--samples", "-3"),
], ids=["no-command", "unknown-command", "unknown-option", "missing-value",
        "max-not-int", "abbreviation", "check-has-no-ceiling", "info-has-no-ceiling",
        "l2-has-no-ceiling", "betti-has-no-ceiling", "negative-samples"])
def test_usage_errors(capsys, argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", [()] + [(c[0],) for c in ARRANGEMENT_COMMANDS]
                         + [("check",)], ids=lambda c: c[0] if c else "arr")
def test_help(capsys, command):
    from arrinv import cli

    rc, out = run(capsys, *command, "--help")
    assert rc == 0
    assert out.startswith("usage: arr")
    # rendered from the option table, with each integer default
    table = cli._SUBCOMMANDS[command[0]][2] if command else cli._TOP
    for flag, _, default, _, _ in table.values():
        assert "\n  " + flag in out
        assert type(default) is not int or "(default: %d)" % default in out


COMMANDS = tuple(c[0] for c in ARRANGEMENT_COMMANDS) + ("check",)


def test_calls_naming_no_command_see_every_command(capsys):
    # the help lists every command, and an unknown one is refused naming all
    rc, out = run(capsys, "--help")
    assert rc == 0
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")
              and not line.startswith("     ")]
    assert tuple(listed) == COMMANDS
    assert main(["no_such_command"]) == 1
    assert capsys.readouterr().err == (
        "error: argument COMMAND: invalid choice: 'no_such_command' (choose from %s)\n"
        % ", ".join("'%s'" % c for c in COMMANDS))


def _option_items(table):
    """(well-formed, odd) token groups for the options of a table."""
    good, odd = [], []
    for flag, dest, default, read, _ in table.values():
        if dest is None:  # --help
            continue
        if not callable(read):  # a flag, which takes no value
            good.append((flag,))
            odd += [(flag, "extra"), (flag + "=1",), (flag + "=",), (flag + "=a b",), (flag[:-1],)]
            continue
        good += [(flag, "1000"), (flag + "=5000",)]
        odd += [(flag,), (flag, "-3"), (flag, "-x"), (flag, "-1.5"), (flag, "-a b"), (flag, "a b"),
                (flag, ""), (flag, "0"), (flag, "x"), (flag + "=-3",), (flag + "=a b",),
                (flag + "=--json",), (flag[:-1], "7"), (flag, "--json"), (flag, "--help")]
    odd += [("--help",), ("--version",), ("--bogus",), ("--bogus", "--help"), ("--help=x",),
            ("extra",), ("-h",), ("-",), ("-3",)]
    return good, odd


def _reference_parser():
    """``arr`` as argparse builds it from the option tables, with no
    abbreviations and its usage errors raised: the reference for how the
    reader reads a call."""
    import argparse

    from arrinv import DomainError, __version__, cli

    class Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(add_help=False, allow_abbrev=False, **kwargs)

        def error(self, message):
            raise DomainError(message)

    top = Parser(prog="arr")
    top.add_argument("--help", action="help")
    top.add_argument("--version", action="version", version="arr, version " + __version__)
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, _, table) in cli._SUBCOMMANDS.items():
        parser = commands.add_parser(name)
        for flag, dest, default, read, _ in table.values():
            if dest is None:
                parser.add_argument(flag, action="help")
            elif callable(read):
                parser.add_argument(flag, dest=dest, default=default,
                                    type=int if type(default) is int else str)
            else:
                parser.add_argument(flag, dest=dest, default=default, action="store_const",
                                    const=read)
        parser.set_defaults(run=run)
    return top


def _printed(text):
    """A printed outcome: the help's usage line up to its first option, or the version."""
    return "print", text.split(" [")[0] if text.startswith("usage: ") else text


def _argparse_outcome(parser, argv):
    """("options", runner, option items), ("print", ...) or ("refused", message)
    of the reference; a value out of range, or a bad --mult, is refused after
    parsing, on the value kept."""
    import contextlib
    import io

    from arrinv import DomainError, cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            options = vars(parser.parse_args(argv))
    except SystemExit:
        return _printed(out.getvalue())
    except DomainError as exc:
        return "refused", str(exc)
    run = options.pop("run")
    table = next(sub[2] for sub in cli._SUBCOMMANDS.values() if sub[0] is run)
    for flag, dest, _, read, _ in table.values():
        if callable(read) and options[dest] is not None:
            try:
                options[dest] = read(str(options[dest]))
            except DomainError as exc:
                return "refused", "%s %s" % (flag, exc)
    return "options", run, list(options.items())


def _reader_outcome(argv):
    """The outcome of ``argv`` through the reader, in the reference's terms."""
    import contextlib
    import io

    from arrinv import DomainError, cli

    try:
        run, options = cli._parse(argv)
    except DomainError as exc:
        return "refused", str(exc)
    if any(sub[0] is run for sub in cli._SUBCOMMANDS.values()):
        return "options", run, list(options.items())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(**options)
    return _printed(out.getvalue())


@pytest.mark.parametrize("command", COMMANDS)
def test_well_formed_calls_read_as_argparse_parses_them(command):
    # the reader gives argparse's options, in its order, or prints the same
    # help or version, or refuses in the same words; on well-formed calls,
    # on each with one odd token put in and on calls naming no command
    import itertools
    import random

    from arrinv import cli

    parser = _reference_parser()
    good, odd = _option_items(cli._SUBCOMMANDS[command][2])
    rng = random.Random(command)
    well_formed = [()] + [pick for k in (1, 2) for pick in itertools.permutations(good, k)]
    well_formed += [tuple(rng.choices(good, k=rng.randint(3, 2 * len(good))))
                    for _ in range(100)]
    for groups in well_formed:
        argv = [command, *itertools.chain.from_iterable(groups)]
        want = _argparse_outcome(parser, argv)
        assert want[0] == "options" and _reader_outcome(argv) == want, argv
    for extra in odd:
        for _ in range(8):
            groups = rng.choice(well_formed)
            at = rng.randint(0, len(groups))
            argv = [command, *itertools.chain.from_iterable(groups[:at] + (extra,) + groups[at:])]
            assert _reader_outcome(argv) == _argparse_outcome(parser, argv), argv
    for argv in ([], ["--help"], ["--version"], ["nope"], ["--bogus"], ["--bogus", command],
                 ["--help=x"], ["--version", "--help"], ["-3"], [command.upper()],
                 ["--bogus", command, "--help"], ["--bogus", command, "--max", "x"]):
        assert _reader_outcome(argv) == _argparse_outcome(parser, argv), argv


def test_a_bare_double_dash_is_an_unknown_option(capsys):
    # the one reading argparse does not share: there `--` ends the options,
    # in ways that differ between Python versions
    for argv, message in ((["info", "--builtin", "x3", "--"], "unrecognized arguments: --"),
                          (["info", "--", "--builtin", "x3"], "unrecognized arguments: --"),
                          (["--", "info"], "unrecognized arguments: --"),
                          (["holonomy", "--builtin", "x3", "--max", "--", "3"],
                           "argument --max: expected one argument")):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_modular_flag_surfaces_in_report(capsys):
    # every rank is exact; the key stays as a constant for old readers
    doc = run_json(capsys, "holonomy", "--builtin", "nonpappus", "--max", "4")
    assert doc["verification"] == {"modular_only": False}
    doc = run_json(capsys, "check", "--seed", "1", "--samples", "1")
    assert doc["verification"] == {"modular_only": False}


def test_check_subcommand(capsys):
    rc, out = run(capsys, "check", "--seed", "3", "--samples", "2")
    assert rc == 0
    doc = json.loads(out)
    checks = doc["result"]["checks"]
    assert checks
    assert all(c["ok"] for c in checks)
    names = {c["name"] for c in checks}
    assert "falk-vs-holonomy" in names
    assert "milnor-double-count" in names


def test_version(capsys):
    rc, out = run(capsys, "--version")
    assert rc == 0
    assert out == "arr, version 0.1.0\n"


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    # the CLI runs on the standard library alone
    code = "import sys, arrinv.cli; print('numpy' in sys.modules, 'click' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False False"


def test_formula_degree_is_bounded(capsys, monkeypatch):
    # past MAX_FORMULA_DEGREE, lcs and chen refuse before computing a rank,
    # and after the exit-2 decomposability refusal
    from arrinv import formulas, holonomy

    def no_rank(*args):
        raise AssertionError("a rank was computed past the degree bound")

    for command in ("lcs", "chen"):
        with monkeypatch.context() as m:
            m.setattr(formulas, "chen_lower_bound", no_rank)
            m.setattr(formulas, "local_rank", no_rank)
            rc = main([command, "--builtin", "x3", "--max", "1000001"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("resource ceiling: degree 1000001")
        rc = main([command, "--builtin", "braid:3", "--max", "1000001"])
        assert rc == 2
        doc = run_json(capsys, command, "--builtin", "x3", "--max", "1000")
        assert len(doc["result"]["ranks"]) == holonomy.MAX_FORMULA_DEGREE == 1000


def test_holonomy_degree_is_bounded(tmp_path, capsys, monkeypatch):
    # every Lyndon basis up to --max is checked against the ceiling, and
    # --max against MAX_FORMULA_DEGREE, before the first rank
    from arrinv import holonomy

    def no_rank(*args):
        raise AssertionError("a rank was computed before a refusal")

    one = tmp_path / "one.txt"
    one.write_text("x\n")
    with monkeypatch.context() as m:
        m.setattr(holonomy, "rank", no_rank)
        rc = main(["holonomy", "--builtin", "x3", "--max", "1000000000"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("resource ceiling: degree 1000000000")
        rc = main(["holonomy", "--builtin", "x2", "--max", "6", "--ceiling", "19000"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource ceiling: degree-6 computation needs 19544 basis words, "
            "above the ceiling of 19000\n")
        rc = main(["holonomy", "--file", str(one), "--max", "1001"])
        assert rc == 3
    # one hyperplane: an empty basis in every degree >= 2
    doc = run_json(capsys, "holonomy", "--file", str(one), "--max", "1000")
    ranks = doc["result"]["ranks"]
    assert len(ranks) == holonomy.MAX_FORMULA_DEGREE
    assert ranks["1"] == 1 and set(ranks.values()) == {0, 1}


def test_file_input_has_the_catalog_bound(tmp_path, capsys, monkeypatch):
    # a pencil of distinct lines x + iy in either input format: 601 lines
    # are refused before the lattice, 600 are read
    from arrinv import arrangement, parse_arrangement
    from arrinv import cli as cli_module
    from arrinv.arrangement import MAX_HYPERPLANES

    def no_lattice(*args):
        raise AssertionError("the lattice was built past the hyperplane bound")

    def pencil(n):
        return (json.dumps({"normals": [[1, i] for i in range(n)]}),
                "[x, y] " + "".join("(x+%dy)" % i for i in range(n)))

    assert MAX_HYPERPLANES == 600
    for text in pencil(601):
        path = tmp_path / "pencil.txt"
        path.write_text(text)
        with monkeypatch.context() as m:
            m.setattr(arrangement, "compute_l2", no_lattice)
            m.setattr(cli_module, "compute_l2", no_lattice)
            assert main(["info", "--file", str(path)]) == 3
        assert capsys.readouterr() == (
            "", "resource ceiling: input hyperplane count 601 exceeds 600\n")
    for text in pencil(600):
        assert parse_arrangement(text).n == 600


def test_file_input_stops_at_the_601st_factor(tmp_path, capsys, monkeypatch):
    # a million factors: the reader labels 601 of them, refuses and does
    # not claim a count it did not read
    from arrinv import parsing

    calls = []

    def spy(terms, real=parsing.render_linear_form):
        calls.append(terms)
        return real(terms)

    monkeypatch.setattr(parsing, "render_linear_form", spy)
    path = tmp_path / "long.txt"
    path.write_text("x" * 1_000_000)
    assert main(["info", "--file", str(path)]) == 3
    assert capsys.readouterr() == (
        "", "resource ceiling: input hyperplane count 601 or more exceeds 600\n")
    assert len(calls) <= 601


_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGITS, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("text", ["(%sx)" % ("1" * 5000), "x^" + "1" * 5000,
                                  '{"normals": [[%s, 0]]}' % ("1" * 5000)],
                         ids=["coefficient", "exponent", "json"])
def test_file_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys, text):
    from arrinv import ParseError, parse_arrangement

    assert _DIGITS < 5000
    path = tmp_path / "long-integer.txt"
    path.write_text(text)
    assert main(["info", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "5000 digits" in err
    with pytest.raises(ParseError) as ei:
        parse_arrangement(text)
    assert ei.value.kind == "syntax"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    from arrinv import ParseError, parse_arrangement

    text = '{"normals": ' + "[" * 200_000
    path = tmp_path / "nested.json"
    path.write_text(text)
    assert main(["info", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid JSON: ")
    with pytest.raises(ParseError) as ei:
        parse_arrangement(text)
    assert ei.value.kind == "syntax"


def _count_eliminations(monkeypatch):
    """Calls of the unit pass, the Smith form and the rank kernel from
    holonomy."""
    from arrinv import holonomy

    calls = {"unit_pass": 0, "smith_diagonal": 0, "rank": 0}
    for name in calls:
        real = getattr(holonomy, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(holonomy, name, spy)
    return calls


def test_decomp_eliminates_j3_once(capsys, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    doc = run_json(capsys, "decomp", "--builtin", "braid:5")
    assert doc["result"]["rational"] is False
    # degrees 2 and 3 passed once each, then the Smith form of degree 3's core
    assert calls == {"unit_pass": 2, "smith_diagonal": 1, "rank": 0}


def test_chen_tests_decomposability_once(capsys, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    doc = run_json(capsys, "chen", "--builtin", "x3", "--max", "1000")
    assert len(doc["result"]["ranks"]) == 1000
    assert calls == {"unit_pass": 2, "smith_diagonal": 1, "rank": 0}


def test_holonomy_reaches_degree_six_on_x2(capsys):
    # x2 J_6 is generated from the unit pass of J_5, not from its raw rows
    from arrinv.catalog import builtin
    from arrinv.formulas import lcs_ranks_decomposable
    from arrinv.holonomy import Analysis
    from test_acceptance import budget

    with budget(4, "x2 holonomy to degree 6"):
        doc = run_json(capsys, "holonomy", "--builtin", "x2", "--max", "6")
    assert doc["result"]["ranks"]["6"] == 45
    assert lcs_ranks_decomposable(Analysis(builtin("x2")), 6)[6] == 45


def test_closed_stdout_is_not_reported_as_an_error():
    # a reader that stops early is no input error: nothing on stderr, not
    # even the interpreter's own report of a failed last flush, and exit 1
    # so that `set -o pipefail` still sees the output was cut
    for buffered in (True, False):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen([sys.executable, "-m", "arrinv.cli", "check", "--samples", "0"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(), err) == (1, b"")


def spawn(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m arrinv.cli ARGV``, the program as a shell runs it."""
    return subprocess.run([sys.executable, "-m", "arrinv.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), **kwargs)


def test_milnor_output_does_not_depend_on_the_hash_seed():
    # the report must not depend on the per-process string hash seed; one
    # byte-compare pass saw this op's stdout differ once (CHANGES.md)
    argv = ("milnor", "--builtin", "x3", "--assert-separated",
            "--mult", "781,787,990,1007,910,805")
    a, b = (subprocess.run([sys.executable, "-m", "arrinv.cli", *argv], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed))
            for seed in ("0", "1"))
    assert a.returncode == 0
    assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)


# one call per exit code, help, version and the check suite; FILE stands
# for a file that fails to parse
PARITY = {
    "ok": ("info", "--builtin", "x3"),
    "usage": ("no_such_command",),
    "parse": ("betti", "--file", "FILE"),
    "refusal": ("lcs", "--builtin", "braid:3"),
    "resource": ("holonomy", "--builtin", "braid:4", "--max", "9", "--ceiling", "1000"),
    "help": ("--help",),
    "command-help": ("milnor", "--help"),
    "version": ("--version",),
    "check": ("check", "--samples", "1"),
}


@pytest.mark.parametrize("argv", PARITY.values(), ids=PARITY)
def test_program_matches_main(tmp_path, capsys, argv):
    # the program leaves by os._exit after main: same output, same code
    bad = tmp_path / "affine.txt"
    bad.write_text("x (x+1)")
    argv = [str(bad) if a == "FILE" else a for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    done = spawn(*argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (rc, captured.out, captured.err)


def test_large_output_arrives_whole_through_a_pipe(capsys):
    argv = ["milnor", "--builtin", "x3", "--assert-separated",
            "--mult", "16667,16667,16667,16667,16667,16665"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    done = spawn(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == expected
    assert json.loads(expected)["result"]["N"] == 10 ** 5 and len(done.stdout) > 10 ** 6


def test_commands_register_no_exit_handler():
    # the program skips teardown, so nothing may wait for it: every module
    # a command loads registers no atexit handler
    code = "\n".join([
        "import atexit",
        "before = atexit._ncallbacks()",
        "from arrinv.cli import main",
        "for argv in (['info', '--builtin', 'x3'], ['lcs', '--builtin', 'x3'],",
        "             ['charvar', '--builtin', 'x3', '--assert-separated'],",
        "             ['milnor', '--builtin', 'x3', '--assert-separated'],",
        "             ['check', '--samples', '1']):",
        "    assert main(argv) == 0",
        "print(atexit._ncallbacks() - before)",
    ])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_an_output_error():
    with open("/dev/full", "w") as full:
        done = spawn("info", "--builtin", "x3", stdout=full, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (1, b"error: [Errno 28] No space left on device\n")


def test_installed_script_is_the_program():
    # `arr` from pyproject.toml is the function `python -m arrinv.cli` calls
    import ast

    import arrinv.cli

    tomllib = pytest.importorskip("tomllib")

    root = Path(SRC).parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["arr"]
    module, _, name = target.partition(":")
    assert module == "arrinv.cli"
    tree = ast.parse(Path(arrinv.cli.__file__).read_text(encoding="utf-8"))
    guard = tree.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["%s()" % name]
    assert getattr(arrinv.cli, name) is arrinv.cli.entry
