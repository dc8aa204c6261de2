"""Command line front end.

Every subcommand reads one arrangement (from the catalog or a file),
dispatches to the library, and prints a report whose JSON shape is
stable:

    {"tool_version": ..., "arrangement": {...}, "result": {...},
     "hypotheses": {...}, "verification": {"modular_only": false}}

Every rank is computed exactly, so ``verification.modular_only`` is always
false; the key is kept for compatibility with existing readers.

A subcommand is one compute function ``(arr, ceiling, **options) ->
(result, hypotheses)``, whose docstring is its help, registered with
``@_command(name, *extra_options)``.  Compute functions call the library
through module-level names at call time, so a tracer that rebinds them
sees each call.

Exit codes: 0 success, 1 input or parse error, 2 hypothesis refusal,
3 resource ceiling hit.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import click

from . import __version__
from .arrangement import (
    MultiArrangement,
    arrangement_rank,
    arrangement_to_json,
    betti,
    compute_l2,
    l2_to_json,
)
from .catalog import CATALOG_NAMES, from_spec
from .checks import run_all_checks
from .errors import (
    CatalogError,
    DomainError,
    HypothesisError,
    ParseError,
    RefusalError,
    ResourceError,
)
from .formulas import chen_ranks_decomposable, lcs_ranks_decomposable
from .holonomy import h3_group, holonomy_rank, is_decomposable, local_h3_rank
from .jumploci import characteristic_components, resonance_components
from .lyndon import DEFAULT_WORD_CEILING
from .milnor import milnor_b1
from .parsing import parse_arrangement


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
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    arr = report.get("arrangement")
    if arr:
        click.echo("arrangement: %d hyperplanes in %d variables"
                   % (len(arr["normals"]), len(arr["variables"])))
    for key, value in report["result"].items():
        if isinstance(value, dict):
            click.echo("%s:" % key)
            for k in sorted(value, key=_maybe_int):
                click.echo("  %s: %s" % (k, value[k]))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            click.echo("%s:" % key)
            for entry in value:
                click.echo("  " + ", ".join("%s=%s" % kv for kv in entry.items()))
        else:
            click.echo("%s: %s" % (key, value))
    hyp = report.get("hypotheses")
    if hyp:
        click.echo("hypotheses: " + ", ".join("%s=%s" % kv for kv in hyp.items()))


def _maybe_int(key):
    return (0, int(key)) if str(key).lstrip("-").isdigit() else (1, str(key))


def _at_least(low: int):
    def check(ctx, param, value):
        if value < low:
            raise DomainError("%s must be at least %d" % (param.opts[0], low))
        return value
    return check


def _parse_mult(ctx, param, value):
    if value is None:
        return None
    try:
        return tuple(int(p) for p in value.split(","))
    except ValueError:
        raise DomainError("--mult wants integers like 1,2,1") from None


def _format_options(fn):
    fn = click.option("--json", "fmt", flag_value="json", default=True,
                      help="machine readable output (default)")(fn)
    fn = click.option("--table", "fmt", flag_value="table",
                      help="human readable output")(fn)
    fn = click.option("--ceiling", default=DEFAULT_WORD_CEILING, show_default=True,
                      callback=_at_least(1000),
                      help="largest free Lie basis the engine may enumerate")(fn)
    return fn


def _max_option(default: int, help: str):
    return click.option("--max", "kmax", default=default, show_default=True,
                        callback=_at_least(1), help=help)


def _depth_option(help: str):
    return click.option("--depth", default=1, show_default=True,
                        callback=_at_least(1), help=help)


_separated_option = click.option(
    "--assert-separated", "separated", is_flag=True,
    help="assert the Alexander invariant is separated")


@click.group()
@click.version_option(version=__version__, prog_name="arr")
def cli():
    """Exact invariants of central complex hyperplane arrangements."""


def _command(name: str, *extra_options):
    """Register ``compute`` as subcommand NAME, with the shared options
    ``--file``, ``--builtin``, ``--ceiling``, ``--table``/``--json``."""
    def register(compute):
        def run(builtin_spec, file_path, fmt, ceiling, **options):
            if builtin_spec and file_path:
                raise DomainError("--builtin and --file are mutually exclusive")
            if builtin_spec:
                arr = from_spec(builtin_spec)
            elif file_path:
                with open(file_path, encoding="utf-8") as fh:
                    arr = parse_arrangement(fh.read())
            else:
                raise DomainError("one of --builtin or --file is required "
                                  "(builtins: %s)" % ", ".join(CATALOG_NAMES))
            result, hypotheses = compute(arr, ceiling, **options)
            _emit(_report(arrangement_to_json(arr), result, hypotheses), fmt)

        for option in reversed(extra_options):
            run = option(run)
        run = _format_options(run)
        run = click.option("--builtin", "builtin_spec", default=None,
                           help="catalog arrangement NAME[:params]")(run)
        run = click.option("--file", "file_path", default=None,
                           type=click.Path(exists=True, dir_okay=False),
                           help="arrangement file (polynomial or JSON)")(run)
        return cli.command(name, help=compute.__doc__)(run)
    return register


@_command("info")
def info(arr, ceiling):
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
def l2(arr, ceiling):
    """Rank-2 intersection lattice with Moebius values."""
    return l2_to_json(arr), {}


@_command("betti")
def betti_cmd(arr, ceiling):
    """First and second Betti numbers of the complement."""
    b1, b2 = betti(arr)
    return {"b1": b1, "b2": b2}, {}


@_command("holonomy", _max_option(3, "largest LCS degree to compute"))
def holonomy(arr, ceiling, kmax):
    """Holonomy Lie algebra ranks phi_1..phi_max from the presentation."""
    ranks = {str(k): holonomy_rank(arr, k, ceiling) for k in range(1, kmax + 1)}
    return {"kind": "lcs", "ranks": ranks, "route": "presentation"}, {}


@_command("decomp")
def decomp(arr, ceiling):
    """Decomposability over Q and Z, with degree-3 ranks and torsion."""
    flags = is_decomposable(arr, ceiling)
    group = h3_group(arr, ceiling)
    return {
        "rational": flags["rational"],
        "integral": flags["integral"],
        "h3_rank": group.rank,
        "local_rank": local_h3_rank(arr),
        "torsion": list(group.torsion),
    }, {}


@_command("lcs", _max_option(5, "largest LCS degree to report"))
def lcs(arr, ceiling, kmax):
    """LCS ranks from the product formula (decomposable arrangements)."""
    ranks = {str(k): v for k, v in lcs_ranks_decomposable(arr, kmax).values.items()}
    return ({"kind": "lcs", "ranks": ranks, "route": "product-formula"},
            {"q_decomposable": True})


@_command("chen", _max_option(4, "largest Chen degree to report"))
def chen(arr, ceiling, kmax):
    """Chen ranks theta_1..theta_max (decomposable arrangements)."""
    # top degree first: its refusals come before any rank is computed
    ranks = {str(k): chen_ranks_decomposable(arr, k) for k in range(kmax, 0, -1)}
    return {"kind": "chen", "ranks": ranks}, {"q_decomposable": True}


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


@_command("resonance", _depth_option("resonance depth s"))
def resonance(arr, ceiling, depth):
    """Components of the depth-s resonance variety."""
    comps = resonance_components(arr, depth)
    return _components_json(arr, depth, comps), {"q_decomposable": True}


@_command("charvar", _depth_option("characteristic variety depth s"),
          _separated_option)
def charvar(arr, ceiling, depth, separated):
    """Subtorus components of the depth-s characteristic variety."""
    report = characteristic_components(arr, depth, separated=separated)
    return _components_json(arr, depth, report), dict(report.hypotheses)


@_command("milnor",
          click.option("--mult", "mult", default=None, callback=_parse_mult,
                       help="comma separated multiplicities, one per hyperplane "
                            "(default: all 1)"),
          _separated_option)
def milnor(arr, ceiling, mult, separated):
    """Milnor fiber b1 and monodromy eigenvalue multiplicities."""
    m = mult or (1,) * arr.n
    report = milnor_b1(MultiArrangement(arr, m), separated=separated)
    return ({
        "N": report.N,
        "multiplicities": list(m),
        "b1": report.b1,
        "eigen_multiplicities": {
            str(j): v for j, v in report.eigen_multiplicities.items()
        },
        "trivial_monodromy": report.trivial_monodromy,
    }, dict(report.hypotheses))


@cli.command()
@click.option("--seed", default=0, show_default=True,
              help="seed for the randomized cross checks")
@click.option("--samples", default=10, show_default=True,
              help="number of random arrangements")
@_format_options
def check(seed, samples, fmt, ceiling):
    """Cross-oracle consistency suite; nonzero exit on any mismatch."""
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


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (ParseError, CatalogError, DomainError) as exc:
        click.echo("error: %s" % exc, err=True)
        return 1
    except click.UsageError as exc:
        click.echo("error: %s" % exc.format_message(), err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except (HypothesisError, RefusalError) as exc:
        click.echo("refused: %s" % exc, err=True)
        return 2
    except ResourceError as exc:
        click.echo("resource ceiling: %s" % exc, err=True)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        click.echo("error: %s" % exc, err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
