"""Command line front end.

Every subcommand reads one arrangement (from the catalog or a file),
dispatches to the library, and prints a report whose JSON shape is
stable:

    {"tool_version": ..., "arrangement": {...}, "result": {...},
     "hypotheses": {...}, "verification": {"modular_only": false}}

Every rank is computed exactly, so ``verification.modular_only`` is always
false; the key is kept for compatibility with existing readers.

Exit codes: 0 success, 1 input or parse error, 2 hypothesis refusal,
3 resource ceiling hit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

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
from .catalog import CATALOG_NAMES, builtin
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


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation settings shared by all subcommands."""

    input_source: str | None  # "builtin:NAME[:params]" or "file:PATH"
    degree_limit: int = 3
    depth: int = 1
    separated_assertion: bool = False
    multiplicities: tuple[int, ...] | None = None
    output_format: str = "json"
    seed: int = 0
    resource_ceiling: int = DEFAULT_WORD_CEILING

    def __post_init__(self):
        if self.degree_limit < 1:
            raise DomainError("--max must be at least 1")
        if self.depth < 1:
            raise DomainError("--depth must be at least 1")
        if self.resource_ceiling < 1000:
            raise DomainError("--ceiling must be at least 1000")
        if self.output_format not in ("json", "table"):
            raise DomainError("output format must be json or table")


def _parse_builtin_spec(spec: str):
    name, _, rest = spec.partition(":")
    if name == "graphic":
        edges = []
        for part in rest.split(",") if rest else []:
            a, _, b = part.partition("-")
            try:
                edges.append((int(a), int(b)))
            except ValueError:
                raise CatalogError(
                    "graphic edges look like 0-1,1-2; got %r" % part
                ) from None
        return builtin(name, edges)
    if rest:
        try:
            params = [int(p) for p in rest.split(",")]
        except ValueError:
            raise CatalogError(
                "parameters for %s must be integers, got %r" % (name, rest)
            ) from None
    else:
        params = []
    return builtin(name, params)


def _load_arrangement(config: RunConfig):
    source = config.input_source
    if source is None:
        raise DomainError(
            "one of --builtin or --file is required "
            "(builtins: %s)" % ", ".join(CATALOG_NAMES)
        )
    kind, _, value = source.partition(":")
    if kind == "builtin":
        return _parse_builtin_spec(value)
    with open(value, encoding="utf-8") as fh:
        return parse_arrangement(fh.read())


def _report(arrangement, result: dict, hypotheses: dict) -> dict:
    return {
        "tool_version": __version__,
        "arrangement": arrangement,
        "result": result,
        "hypotheses": hypotheses,
        "verification": {"modular_only": False},
    }


def _run(config: RunConfig, compute):
    """Load, compute, and print the report."""
    arr = _load_arrangement(config)
    result, hypotheses = compute(arr)
    report = _report(arrangement_to_json(arr), result, hypotheses)
    _emit(report, config.output_format)
    return report


def _emit(report: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_table(report)


def _emit_table(report: dict):
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


def _input_options(fn):
    fn = click.option("--builtin", "builtin_spec", default=None,
                      help="catalog arrangement NAME[:params]")(fn)
    fn = click.option("--file", "file_path", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="arrangement file (polynomial or JSON)")(fn)
    return fn


def _format_options(fn):
    fn = click.option("--json", "fmt", flag_value="json", default=True,
                      help="machine readable output (default)")(fn)
    fn = click.option("--table", "fmt", flag_value="table",
                      help="human readable output")(fn)
    fn = click.option("--ceiling", default=DEFAULT_WORD_CEILING, show_default=True,
                      help="largest free Lie basis the engine may enumerate")(fn)
    return fn


def _source(builtin_spec, file_path):
    if builtin_spec and file_path:
        raise DomainError("--builtin and --file are mutually exclusive")
    if builtin_spec:
        return "builtin:" + builtin_spec
    if file_path:
        return "file:" + file_path
    return None


@click.group()
@click.version_option(version=__version__, prog_name="arr")
def cli():
    """Exact invariants of central complex hyperplane arrangements."""


@cli.command()
@_input_options
@_format_options
def info(builtin_spec, file_path, fmt, ceiling):
    """Basic facts: size, rank, Betti numbers, flat census."""
    config = RunConfig(_source(builtin_spec, file_path),
                       output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        lat = compute_l2(arr)
        b1, b2 = betti(arr)
        census: dict[str, int] = {}
        for f in lat:
            census[str(f.mobius)] = census.get(str(f.mobius), 0) + 1
        return {
            "n": arr.n,
            "ambient_dim": arr.ambient_dim,
            "rank": arrangement_rank(arr),
            "labels": list(arr.labels),
            "b1": b1,
            "b2": b2,
            "flat_counts_by_mobius": census,
        }, {}

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
def l2(builtin_spec, file_path, fmt, ceiling):
    """Rank-2 intersection lattice with Moebius values."""
    config = RunConfig(_source(builtin_spec, file_path),
                       output_format=fmt, resource_ceiling=ceiling)
    _run(config, lambda arr: (l2_to_json(arr), {}))


@cli.command(name="betti")
@_input_options
@_format_options
def betti_cmd(builtin_spec, file_path, fmt, ceiling):
    """First and second Betti numbers of the complement."""
    config = RunConfig(_source(builtin_spec, file_path),
                       output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        b1, b2 = betti(arr)
        return {"b1": b1, "b2": b2}, {}

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
@click.option("--max", "kmax", default=3, show_default=True,
              help="largest LCS degree to compute")
def holonomy(builtin_spec, file_path, fmt, ceiling, kmax):
    """Holonomy Lie algebra ranks phi_1..phi_max from the presentation."""
    config = RunConfig(_source(builtin_spec, file_path),
                       degree_limit=kmax, output_format=fmt,
                       resource_ceiling=ceiling)

    def compute(arr):
        ranks = {
            str(k): holonomy_rank(arr, k, config.resource_ceiling)
            for k in range(1, config.degree_limit + 1)
        }
        return {"kind": "lcs", "ranks": ranks, "route": "presentation"}, {}

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
def decomp(builtin_spec, file_path, fmt, ceiling):
    """Decomposability over Q and Z, with degree-3 ranks and torsion."""
    config = RunConfig(_source(builtin_spec, file_path),
                       output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        flags = is_decomposable(arr, config.resource_ceiling)
        group = h3_group(arr, config.resource_ceiling)
        return {
            "rational": flags["rational"],
            "integral": flags["integral"],
            "h3_rank": group.rank,
            "local_rank": local_h3_rank(arr),
            "torsion": list(group.torsion),
        }, {}

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
@click.option("--max", "kmax", default=5, show_default=True,
              help="largest LCS degree to report")
def lcs(builtin_spec, file_path, fmt, ceiling, kmax):
    """LCS ranks from the product formula (decomposable arrangements)."""
    config = RunConfig(_source(builtin_spec, file_path),
                       degree_limit=kmax, output_format=fmt,
                       resource_ceiling=ceiling)

    def compute(arr):
        table = lcs_ranks_decomposable(arr, config.degree_limit)
        ranks = {str(k): v for k, v in table.values.items()}
        return ({"kind": "lcs", "ranks": ranks, "route": "product-formula"},
                {"q_decomposable": True})

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
@click.option("--max", "kmax", default=4, show_default=True,
              help="largest Chen degree to report")
def chen(builtin_spec, file_path, fmt, ceiling, kmax):
    """Chen ranks theta_1..theta_max (decomposable arrangements)."""
    config = RunConfig(_source(builtin_spec, file_path),
                       degree_limit=kmax, output_format=fmt,
                       resource_ceiling=ceiling)

    def compute(arr):
        ranks = {
            str(k): chen_ranks_decomposable(arr, k)
            for k in range(1, config.degree_limit + 1)
        }
        return ({"kind": "chen", "ranks": ranks},
                {"q_decomposable": True})

    _run(config, compute)


def _component_json(arr, comp):
    return {
        "support": list(comp.support),
        "labels": [arr.labels[i] for i in comp.support],
        "dimension": comp.dimension,
    }


@cli.command()
@_input_options
@_format_options
@click.option("--depth", default=1, show_default=True,
              help="resonance depth s")
def resonance(builtin_spec, file_path, fmt, ceiling, depth):
    """Components of the depth-s resonance variety."""
    config = RunConfig(_source(builtin_spec, file_path),
                       depth=depth, output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        comps = resonance_components(arr, config.depth)
        return ({
            "depth": config.depth,
            "count": len(comps),
            "components": [_component_json(arr, c) for c in comps],
        }, {"q_decomposable": True})

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
@click.option("--depth", default=1, show_default=True,
              help="characteristic variety depth s")
@click.option("--assert-separated", "separated", is_flag=True,
              help="assert the Alexander invariant is separated")
def charvar(builtin_spec, file_path, fmt, ceiling, depth, separated):
    """Subtorus components of the depth-s characteristic variety."""
    config = RunConfig(_source(builtin_spec, file_path),
                       depth=depth, separated_assertion=separated,
                       output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        report = characteristic_components(
            arr, config.depth, separated=config.separated_assertion
        )
        return ({
            "depth": config.depth,
            "count": len(report),
            "components": [_component_json(arr, c) for c in report],
        }, dict(report.hypotheses))

    _run(config, compute)


@cli.command()
@_input_options
@_format_options
@click.option("--mult", "mult", default=None,
              help="comma separated multiplicities, one per hyperplane "
                   "(default: all 1)")
@click.option("--assert-separated", "separated", is_flag=True,
              help="assert the Alexander invariant is separated")
def milnor(builtin_spec, file_path, fmt, ceiling, mult, separated):
    """Milnor fiber b1 and monodromy eigenvalue multiplicities."""
    multiplicities = None
    if mult is not None:
        try:
            multiplicities = tuple(int(p) for p in mult.split(","))
        except ValueError:
            raise DomainError("--mult wants integers like 1,2,1") from None
    config = RunConfig(_source(builtin_spec, file_path),
                       separated_assertion=separated,
                       multiplicities=multiplicities,
                       output_format=fmt, resource_ceiling=ceiling)

    def compute(arr):
        m = config.multiplicities or (1,) * arr.n
        ma = MultiArrangement(arr, m)
        report = milnor_b1(ma, separated=config.separated_assertion)
        return ({
            "N": report.N,
            "multiplicities": list(m),
            "b1": report.b1,
            "eigen_multiplicities": {
                str(j): v for j, v in report.eigen_multiplicities.items()
            },
            "trivial_monodromy": report.trivial_monodromy,
        }, dict(report.hypotheses))

    _run(config, compute)


@cli.command()
@click.option("--seed", default=0, show_default=True,
              help="seed for the randomized cross checks")
@click.option("--samples", default=10, show_default=True,
              help="number of random arrangements")
@_format_options
def check(seed, samples, fmt, ceiling):
    """Cross-oracle consistency suite; nonzero exit on any mismatch."""
    config = RunConfig(None, seed=seed,
                       output_format=fmt, resource_ceiling=ceiling)
    results = run_all_checks(seed=config.seed, samples=samples)
    report = _report(None, {
        "ok": all(r.ok for r in results),
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }, {})
    _emit(report, config.output_format)
    if not report["result"]["ok"]:
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
