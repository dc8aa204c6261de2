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
``@_command(name, *extra_options)`` with its table of argparse options.
Only the commands that need a holonomy degree take ``--ceiling``, and their
subject ``an`` is the command's one ``holonomy.Analysis`` of its
arrangement under it, so a command builds each holonomy degree and tests
decomposability at most once; ``info``, ``l2`` and ``betti`` get the
arrangement itself.  A command resting on the paper's hypotheses reports
``an.require(...)``, called after its library call, so a refusal comes
from the library with its own advisory.

A call loads only the modules its command runs.  The top imports only
what every command needs: the arrangement and the errors.  ``catalog``
is imported only for ``--builtin``, ``parsing`` only for ``--file``,
``holonomy`` when a command with ``--ceiling`` builds its analysis, and
``formulas``, ``jumploci``, ``milnor`` and ``checks`` inside the compute
function that uses them; so a built-in loads no parser, a file no
catalog, ``info``, ``l2`` and ``betti`` no holonomy, and only ``check``
loads ``lyndon``.  Either way a library function is looked up when it is
called, so a tracer that rebinds the names of its defining module sees
each call; the analysis's methods are not rebound, but the kernels they
call are.

A well-formed call (a subcommand, then its options spelled in full, each
value a token that does not start with ``-``) is read straight from the
subcommand's option table, with no argparse.  Any other call goes to
argparse, the one code that renders help, the version and usage errors,
which raise DomainError; it builds only the parser of the subcommand a
call names, and all of them for ``--help``, ``--version`` and a missing
or unknown command.  Both ways give the same options, and their bounds
are checked once, after parsing.

``main(argv)`` is the library entry: it returns the exit code and leaves
the process alone.  ``entry()`` is the program, for ``python -m
arrinv.cli`` and the installed ``arr``: it runs ``main``, flushes stdout
and stderr and leaves by ``os._exit``, without the interpreter's teardown.

Exit codes: 0 success, 1 input or parse error, 2 hypothesis refusal,
3 resource ceiling hit.
"""

from __future__ import annotations

import json
import os
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


def _int_option(flag: str, default: int, help: str, dest: str | None = None):
    """(flag, add_argument keywords) of an integer option showing its default."""
    return flag, dict(dest=dest or flag[2:], type=int, default=default,
                      help=help + " (default: %(default)s)")


# (dest, option, lowest value), checked once parsing is done
_BOUNDS = (("ceiling", "--ceiling", 1000), ("kmax", "--max", 1), ("depth", "--depth", 1),
           ("samples", "--samples", 0))

_CEILING_OPTION = _int_option("--ceiling", DEFAULT_WORD_CEILING,
                              "largest witt(n, k), the free Lie rank in degree k, "
                              "allowed for each degree k the command needs; a "
                              "contract on the input")

_FORMAT_OPTIONS = (
    ("--json", dict(dest="fmt", action="store_const", const="json", default="json",
                    help="machine readable output (default)")),
    ("--table", dict(dest="fmt", action="store_const", const="table",
                     help="human readable output")),
)

_SOURCE_OPTIONS = (("--file", dict(help="arrangement file (polynomial or JSON)")),
                   ("--builtin", dict(help="catalog arrangement NAME[:params]")))

_separated_option = ("--assert-separated", dict(
    dest="separated", action="store_true",
    help="assert the Alexander invariant is separated"))

# name -> (runner, help text, options) of every subcommand, in help order
_SUBCOMMANDS: dict[str, tuple] = {}


def _subcommand(name: str, run, doc: str, options) -> None:
    _SUBCOMMANDS[name] = (run, doc, options)


def _parser(names):
    """The ``arr`` argparse parser with the subcommands ``names``: the one
    code that renders help, the version and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse without abbreviations or ``-h``, whose usage errors raise
        DomainError, so they exit 1 through ``main`` like every input error."""

        def __init__(self, **kwargs):
            super().__init__(add_help=False, allow_abbrev=False, **kwargs)
            self.add_argument("--help", action="help", help="show this message and exit")

        def error(self, message):
            raise DomainError(message)

    cli = _Parser(prog="arr",
                  description="Exact invariants of central complex hyperplane arrangements.")
    cli.add_argument("--version", action="version", version="arr, version " + __version__,
                     help="show the version and exit")
    subcommands = cli.add_subparsers(metavar="COMMAND", required=True)
    for name in names:
        run, doc, options = _SUBCOMMANDS[name]
        parser = subcommands.add_parser(name, help=doc, description=doc)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=run)
    return cli


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
          _int_option("--max", 3, "largest LCS degree to compute", "kmax"))
def holonomy(an, kmax):
    """Holonomy Lie algebra ranks phi_1..phi_max from the presentation."""
    ranks = an.ranks(kmax)
    return {"kind": "lcs", "ranks": {str(k): v for k, v in enumerate(ranks, 1)},
            "route": "presentation"}, {}


@_command("decomp", _CEILING_OPTION)
def decomp(an):
    """Decomposability over Q and Z, with degree-3 ranks and torsion."""
    from .holonomy import local_h3_rank
    h3 = an.group(3)
    return {
        "rational": an.decomposable["rational"],
        "integral": an.decomposable["integral"],
        "h3_rank": h3.rank,
        "local_rank": local_h3_rank(an.arr),
        "torsion": list(h3.torsion),
    }, {}


@_command("lcs", _CEILING_OPTION,
          _int_option("--max", 5, "largest LCS degree to report", "kmax"))
def lcs(an, kmax):
    """LCS ranks from the product formula (decomposable arrangements)."""
    from .formulas import lcs_ranks_decomposable
    table = lcs_ranks_decomposable(an, kmax)
    ranks = {str(k): v for k, v in table.values.items()}
    return {"kind": "lcs", "ranks": ranks, "route": "product-formula"}, an.require()


@_command("chen", _CEILING_OPTION,
          _int_option("--max", 4, "largest Chen degree to report", "kmax"))
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


@_command("resonance", _CEILING_OPTION, _int_option("--depth", 1, "resonance depth s"))
def resonance(an, depth):
    """Components of the depth-s resonance variety."""
    from .jumploci import resonance_components
    comps = resonance_components(an, depth)
    return _components_json(an.arr, depth, comps), an.require()


@_command("charvar", _CEILING_OPTION,
          _int_option("--depth", 1, "characteristic variety depth s"), _separated_option)
def charvar(an, depth, separated):
    """Subtorus components of the depth-s characteristic variety."""
    from .jumploci import characteristic_components
    comps = characteristic_components(an, depth, separated=separated)
    return _components_json(an.arr, depth, comps), an.require(separated)


@_command("milnor", _CEILING_OPTION,
          ("--mult", dict(help="comma separated multiplicities, one per hyperplane "
                               "(default: all 1)")),
          _separated_option)
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
            str(j): v for j, v in report.eigen_multiplicities.items()
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
    if not ok:
        raise SystemExit(1)


_subcommand("check", check, check.__doc__, (
    _int_option("--seed", 0, "seed for the randomized cross checks"),
    _int_option("--samples", 10, "number of random arrangements"),
) + _FORMAT_OPTIONS)


def _read(argv) -> dict | None:
    """``vars(parse_args(argv))`` of a well-formed call, read from its
    subcommand's option table; None for any other call.

    Well formed: argv names a subcommand, then only that subcommand's
    options, each spelled in full; a ``store_const`` or ``store_true``
    flag takes no value and any other option the next token, which does
    not start with ``-`` and converts by the option's ``type``.  A later
    repeat wins, as in argparse."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    run, _, table = _SUBCOMMANDS[argv[0]]
    actions, options = {}, {}
    for flag, kwargs in table:
        dest = kwargs.get("dest") or flag[2:].replace("-", "_")
        actions[flag] = dest, kwargs
        # options sharing a dest (--json, --table) take the first default
        store_true = kwargs.get("action") == "store_true"
        options.setdefault(dest, kwargs.get("default", False if store_true else None))
    options["run"] = run
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in actions:
            return None
        dest, kwargs = actions[token]
        action = kwargs.get("action")
        if action == "store_true":
            value = True
        elif action == "store_const":
            value = kwargs["const"]
        else:
            value = next(tokens, "-")  # a missing value reads as dash-led
            if value.startswith("-"):
                return None
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except (TypeError, ValueError):
                    return None
        options[dest] = value
    return options


def _parse(argv) -> tuple:
    """The subcommand's runner and its options, bounds checked.

    A well-formed call is read by ``_read`` from its option table, with no
    argparse.  Any other call goes to argparse, which renders every help,
    version and usage error: a call naming a subcommand builds only that
    subcommand's parser, and the rest (``--help``, ``--version``, no or
    an unknown command) build them all, so their help and their list of
    choices are complete."""
    argv = sys.argv[1:] if argv is None else list(argv)
    options = _read(argv)
    if options is None:
        names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
        options = vars(_parser(names).parse_args(argv))
    for dest, flag, low in _BOUNDS:
        if options.get(dest, low) < low:
            raise DomainError("%s must be at least %d" % (flag, low))
    if options.get("mult") is not None:
        try:
            options["mult"] = tuple(int(p) for p in options["mult"].split(","))
        except ValueError:
            raise DomainError("--mult wants integers like 1,2,1") from None
    return options.pop("run"), options


def main(argv=None) -> int:
    try:
        try:
            run, options = _parse(argv)
            run(**options)
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
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


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
