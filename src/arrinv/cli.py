"""Command line front end.

Every subcommand reads one arrangement (from the catalog or a file),
dispatches to the library, and prints a report whose JSON shape is
stable:

    {"tool_version": ..., "arrangement": {...}, "result": {...},
     "hypotheses": {...}, "verification": {"modular_only": false}}

Every rank is computed exactly, so ``verification.modular_only`` is always
false; the key is kept for compatibility with existing readers.

A subcommand is one compute function ``(subject, **options) -> (result,
hypotheses)``, whose docstring is its help, registered with
``@_command(name, *extra_options)`` with the options it adds to the
shared ones.  Only the commands that need a holonomy degree take
``--ceiling``, and their subject ``an`` is the command's one
``holonomy.Analysis`` of its arrangement under it, so a command builds
each holonomy degree and tests decomposability at most once; ``info``,
``l2`` and ``betti`` get the arrangement itself.  A command resting on
the paper's hypotheses reports ``an.require(...)``, called after its
library call, so a refusal comes from the library with its own advisory.

A call loads only the modules its command runs.  The top imports only
what every command needs: the arrangement and the errors.  ``catalog``
is imported only for ``--builtin``, ``parsing`` only for ``--file``,
``holonomy`` when a command with ``--ceiling`` builds its analysis, and
``formulas``, ``jumploci``, ``milnor`` and ``checks`` inside the compute
function that uses them; so a built-in loads no parser, a file no
catalog, ``info``, ``l2`` and ``betti`` no holonomy, and no command
loads ``lyndon``.  Either way a library function is looked up when it is
called, so a tracer that rebinds the names of its defining module sees
each call; the analysis's methods are not rebound, but the kernels they
call are.

One function, ``_parse``, reads every call from the option tables, and
``--help`` renders them.  It reads a call as the standard library's
option parser did before it, in the same words, but for a bare ``--``:
an unknown option here, not the end of the options.

``main(argv)`` is the library entry: it returns the exit code and leaves
the process alone.  ``entry()`` is the program, for ``python -m
arrinv.cli`` and the installed ``arr``: it runs ``main``, flushes stdout
and stderr and leaves by ``os._exit``, without the interpreter's teardown.

Exit codes: 0 success, 1 input or parse error or a ``check`` mismatch,
2 hypothesis refusal, 3 resource ceiling hit.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter

from . import __version__
from .arrangement import (DEFAULT_WORD_CEILING, MultiArrangement, arrangement_rank,
                          arrangement_to_json, betti, compute_l2, l2_to_json)
from .errors import (CatalogError, DomainError, HypothesisError, ParseError, RefusalError,
                     ResourceError)


def _report(arrangement, result: dict, hypotheses: dict) -> dict:
    return {
        "tool_version": __version__,
        "arrangement": arrangement,
        "result": result,
        "hypotheses": hypotheses,
        "verification": {"modular_only": False},
    }


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    arr = report.get("arrangement")
    if arr:
        print("arrangement: %d hyperplanes in %d variables"
              % (len(arr["normals"]), len(arr["variables"])))
    for key, value in report["result"].items():
        if isinstance(value, dict):
            print("%s:" % key)
            for k in sorted(value, key=_maybe_int):
                print("  %s: %s" % (k, value[k]))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print("%s:" % key)
            for entry in value:
                print("  " + ", ".join("%s=%s" % kv for kv in entry.items()))
        else:
            print("%s: %s" % (key, value))
    hyp = report.get("hypotheses")
    if hyp:
        print("hypotheses: " + ", ".join("%s=%s" % kv for kv in hyp.items()))


def _maybe_int(key):
    return (0, int(key)) if str(key).lstrip("-").isdigit() else (1, str(key))


# An option is (flag, dest, default, read, help): ``read`` converts the
# text of its value, raising ValueError if it is no integer and DomainError
# if out of range; a flag taking no value has there the value it stores,
# and ``--help`` and ``--version`` have None for dest and read.
_HELP = ("--help", None, None, None, "show this message and exit")
_TOP = {"--help": _HELP, "--version": ("--version", None, None, None, "show the version and exit")}


def _at_least(low: int):
    """The reader of an integer option whose value is at least ``low``."""
    def read(text):
        value = int(text)
        if value < low:
            raise DomainError("must be at least %d" % low)
        return value
    return read


def _multiplicities(text) -> tuple:
    """The reader of ``--mult``: comma separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DomainError("wants integers like 1,2,1") from None


_CEILING_OPTION = ("--ceiling", "ceiling", DEFAULT_WORD_CEILING, _at_least(1000),
                   "largest witt(n, k), the free Lie rank in degree k, allowed for each "
                   "degree k the command needs; a contract on the input")

_FORMAT_OPTIONS = (("--json", "fmt", "json", "json", "machine readable output (default)"),
                   ("--table", "fmt", "json", "table", "human readable output"))

_SOURCE_OPTIONS = (("--file", "file", None, str, "arrangement file (polynomial or JSON)"),
                   ("--builtin", "builtin", None, str, "catalog arrangement NAME[:params]"))

_SEPARATED_OPTION = ("--assert-separated", "separated", False, True,
                     "assert the Alexander invariant is separated")

# name -> (runner, help text, {flag: option}) of every subcommand, in help order;
# a runner returns its exit status, or None for 0
_SUBCOMMANDS: dict[str, tuple] = {}


def _subcommand(name: str, run, doc: str, options) -> None:
    _SUBCOMMANDS[name] = (run, doc, {option[0]: option for option in (_HELP, *options)})


def _command(name: str, *extra_options):
    """Register ``compute`` as subcommand NAME, with the shared options
    ``--file``, ``--builtin``, ``--table``/``--json``.  A command given
    ``--ceiling`` among its extra options needs a holonomy degree and gets
    one Analysis of the arrangement under it (the option bounds witt(n, k)
    for each degree k the command needs, as a contract on the input); any
    other command gets the arrangement."""
    def register(compute):
        def run(builtin, file, fmt, ceiling=None, **options):
            if builtin and file:
                raise DomainError("--builtin and --file are mutually exclusive")
            if builtin:
                from .catalog import from_spec
                arr = from_spec(builtin)
            elif file:
                # utf-8-sig drops a leading byte-order mark
                with open(file, encoding="utf-8-sig") as fh:
                    try:
                        text = fh.read()
                    except UnicodeDecodeError as exc:
                        raise ParseError("syntax", "%s is not UTF-8 text: %s"
                                         % (file, exc)) from None
                from .parsing import parse_arrangement
                arr = parse_arrangement(text)
            else:
                from .catalog import CATALOG_NAMES
                raise DomainError("one of --builtin or --file is required "
                                  "(builtins: %s)" % ", ".join(CATALOG_NAMES))
            if ceiling is None:
                subject = arr
            else:
                from .holonomy import Analysis
                subject = Analysis(arr, ceiling)
            result, hypotheses = compute(subject, **options)
            _emit(_report(arrangement_to_json(arr), result, hypotheses), fmt)

        options = _SOURCE_OPTIONS + _FORMAT_OPTIONS + extra_options
        _subcommand(name, run, compute.__doc__, options)
        return compute
    return register


@_command("info")
def info(arr):
    """Basic facts: size, rank, Betti numbers, flat census."""
    b1, b2 = betti(arr)
    return {
        "n": arr.n,
        "ambient_dim": arr.ambient_dim,
        "rank": arrangement_rank(arr),
        "labels": list(arr.labels),
        "b1": b1,
        "b2": b2,
        "flat_counts_by_mobius": Counter(str(f.mobius) for f in compute_l2(arr)),
    }, {}


@_command("l2")
def l2(arr):
    """Rank-2 intersection lattice with Moebius values."""
    return l2_to_json(arr), {}


@_command("betti")
def betti_cmd(arr):
    """First and second Betti numbers of the complement."""
    b1, b2 = betti(arr)
    return {"b1": b1, "b2": b2}, {}


@_command("holonomy", _CEILING_OPTION,
          ("--max", "kmax", 3, _at_least(1), "largest LCS degree to compute"))
def holonomy(an, kmax):
    """Holonomy Lie algebra ranks phi_1..phi_max from the presentation."""
    ranks = an.ranks(kmax)
    return {"kind": "lcs", "ranks": {str(k): v for k, v in enumerate(ranks, 1)},
            "route": "presentation"}, {}


@_command("decomp", _CEILING_OPTION)
def decomp(an):
    """Decomposability over Q and Z, with degree-3 ranks and torsion."""
    from .holonomy import local_rank
    h3 = an.group(3)
    return {
        "rational": an.decomposable["rational"],
        "integral": an.decomposable["integral"],
        "h3_rank": h3.rank,
        "local_rank": local_rank(an.arr, 3),
        "torsion": list(h3.torsion),
    }, {}


@_command("lcs", _CEILING_OPTION,
          ("--max", "kmax", 5, _at_least(1), "largest LCS degree to report"))
def lcs(an, kmax):
    """LCS ranks from the product formula (decomposable arrangements)."""
    from .formulas import lcs_ranks_decomposable
    table = lcs_ranks_decomposable(an, kmax)
    ranks = {str(k): v for k, v in table.values.items()}
    return {"kind": "lcs", "ranks": ranks, "route": "product-formula"}, an.require()


@_command("chen", _CEILING_OPTION,
          ("--max", "kmax", 4, _at_least(1), "largest Chen degree to report"))
def chen(an, kmax):
    """Chen ranks theta_1..theta_max (decomposable arrangements)."""
    from .formulas import chen_ranks_decomposable
    table = chen_ranks_decomposable(an, kmax)
    ranks = {str(k): v for k, v in table.values.items()}
    return {"kind": "chen", "ranks": ranks}, an.require()


def _components_json(arr, depth, comps):
    return {
        "depth": depth,
        "count": len(comps),
        "components": [{
            "support": list(c.support),
            "labels": [arr.labels[i] for i in c.support],
            "dimension": c.dimension,
        } for c in comps],
    }


@_command("resonance", _CEILING_OPTION,
          ("--depth", "depth", 1, _at_least(1), "resonance depth s"))
def resonance(an, depth):
    """Components of the depth-s resonance variety."""
    from .jumploci import resonance_components
    comps = resonance_components(an, depth)
    return _components_json(an.arr, depth, comps), an.require()


@_command("charvar", _CEILING_OPTION,
          ("--depth", "depth", 1, _at_least(1), "characteristic variety depth s"),
          _SEPARATED_OPTION)
def charvar(an, depth, separated):
    """Subtorus components of the depth-s characteristic variety."""
    from .jumploci import characteristic_components
    comps = characteristic_components(an, depth, separated=separated)
    return _components_json(an.arr, depth, comps), an.require(separated)


@_command("milnor", _CEILING_OPTION,
          ("--mult", "mult", None, _multiplicities,
           "comma separated multiplicities, one per hyperplane (default: all 1)"),
          _SEPARATED_OPTION)
def milnor(an, mult, separated):
    """Milnor fiber b1 and monodromy eigenvalue multiplicities."""
    from .milnor import milnor_b1
    m = mult or (1,) * an.arr.n
    report = milnor_b1(MultiArrangement(an.arr, m), an, separated=separated)
    return ({
        "N": report.N,
        "multiplicities": list(m),
        "b1": report.b1,
        "eigen_multiplicities": {
            str(j): v for j, v in enumerate(report.eigen_multiplicities)
        },
        "trivial_monodromy": report.trivial_monodromy,
    }, an.require(separated))


def check(seed, samples, fmt):
    """Cross-oracle consistency suite; nonzero exit on any mismatch."""
    from .checks import run_all_checks
    results = run_all_checks(seed=seed, samples=samples)
    ok = all(r.ok for r in results)
    _emit(_report(None, {
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }, {}), fmt)
    return 0 if ok else 1


_subcommand("check", check, check.__doc__, (
    ("--seed", "seed", 0, int, "seed for the randomized cross checks"),
    ("--samples", "samples", 10, _at_least(0), "number of random arrangements"),
) + _FORMAT_OPTIONS)


def _is_value(token: str, table: dict) -> bool:
    """Whether ``token`` is a value where ``table`` holds the options: it
    does not start with a dash, or is a lone dash, a negative number or has
    a space, and is no option, bare or before ``=``."""
    return token.partition("=")[0] not in table and (
        token[:1] != "-" or token == "-" or " " in token
        or re.match(r"^-\d+$|^-\d*\.\d+$", token) is not None)


def _parse(argv) -> tuple:
    """The runner of a call and its options, read from the option tables.

    Tokens are read in order: ``--help`` and ``--version`` answer at once,
    and a missing value, a value given to a flag or one that is no integer
    is refused where it stands; then tokens no option took are refused,
    and last a kept value out of range, in table order.  A later repeat
    wins."""
    name, table, options, out_of_range, extras = None, _TOP, {}, {}, []
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if _is_value(token, table):
            if name is not None:
                extras.append(token)
                continue
            if token not in _SUBCOMMANDS:
                raise DomainError("argument COMMAND: invalid choice: %r (choose from %s)"
                                  % (token, ", ".join(map(repr, _SUBCOMMANDS))))
            name, (run, _, table) = token, _SUBCOMMANDS[token]
            options = {dest: default for _, dest, default, _, _ in table.values() if dest}
            continue
        flag, eq, text = token.partition("=")
        if flag not in table:
            extras.append(token)
            continue
        _, dest, _, read, _ = table[flag]
        if not callable(read):  # a flag, which takes no value
            if eq:
                raise DomainError("argument %s: ignored explicit argument %r" % (flag, text))
            if dest is None:  # --help or --version
                text = _help(name) if flag == "--help" else "arr, version %s\n" % __version__
                return (lambda: print(text, end="")), {}
            options[dest] = read
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or not _is_value(text, table):
                raise DomainError("argument %s: expected one argument" % flag)
        try:
            options[dest] = read(text)
            out_of_range.pop(dest, None)
        except ValueError:
            raise DomainError("argument %s: invalid int value: %r" % (flag, text)) from None
        except DomainError as exc:  # refused only if no later repeat replaces it
            out_of_range[dest] = "%s %s" % (flag, exc)
    if name is None:
        raise DomainError("the following arguments are required: COMMAND")
    if extras:
        raise DomainError("unrecognized arguments: " + " ".join(extras))
    for dest in options:
        if dest in out_of_range:
            raise DomainError(out_of_range[dest])
    return run, options


def _help(name) -> str:
    """The help of ``arr``, or of its subcommand ``name``, from the tables."""
    import textwrap
    if name is None:
        table, width = _TOP, max(map(len, _SUBCOMMANDS)) + 2
        lines = ["usage: arr [--help] [--version] COMMAND ...", "",
                 "Exact invariants of central complex hyperplane arrangements.", "", "commands:",
                 *("    %-*s%s" % (width, c, sub[1]) for c, sub in _SUBCOMMANDS.items()), ""]
    else:
        _, doc, table = _SUBCOMMANDS[name]
        lines = ["usage: arr %s [options]" % name, "", doc, ""]
    spelled = [flag + (" " + flag[2:].upper() if callable(read) else "")
               for flag, _, _, read, _ in table.values()]
    width = max(map(len, spelled)) + 4
    lines.append("options:")
    for head, (_, _, default, _, text) in zip(spelled, table.values()):
        if type(default) is int:
            text += " (default: %d)" % default
        lines.append(textwrap.fill(text, 78, initial_indent=("  " + head).ljust(width),
                                   subsequent_indent=" " * width))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        try:
            run, options = _parse(argv)
            status = run(**options)
        finally:
            # a closed stdout shows here, not at interpreter exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: nothing to report, but the output was cut,
        # so the status stays nonzero; stdout goes to devnull so that the
        # interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, CatalogError, DomainError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (HypothesisError, RefusalError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except ResourceError as exc:
        print("resource ceiling: %s" % exc, file=sys.stderr)
        return 3
    return status or 0


def entry():
    """The ``arr`` program: run ``main`` and exit with its code.

    The interpreter's teardown is skipped: stdout and stderr are the only
    outputs and there are no atexit handlers, so once both streams are
    flushed ``os._exit`` loses nothing.  A failed flush keeps ``main``'s
    code, as a closed stdout does inside ``main``; an exception escaping
    ``main`` propagates with its traceback."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
