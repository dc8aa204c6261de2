"""Metric definitions and the arithmetic that turns samples into metrics.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced pass (see tracer.py).  Names and units are read from BENCHMARK.json
at the repository root, which also holds the bounds.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

LAYERS = ("cli", "parsing", "catalog", "arrangement", "lyndon", "holonomy",
          "linalg", "osalgebra", "formulas", "jumploci", "milnor", "checks")

_DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# (name, unit) of every metric, in BENCHMARK.json's order
END_TO_END = tuple((m["name"], m["unit"]) for m in _DECLARED["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DECLARED["per_layer"])


def hit_ratio(hits: int, misses: int) -> float:
    """Share of lookups answered by the cache; 0.0 when there were none."""
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(child_stats: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, from each child's stats file."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    caches: dict[str, list] = {}
    for st in child_stats:
        for key, (calls, self_s) in st["spans"].items():
            acc = spans.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, v in st["counters"].items():
            counters[key] = counters.get(key, 0) + v
        for key, (hits, misses) in st["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in spans.items() if k.split(".", 1)[0] == layer]
        out[layer + ".calls"] = sum(v[0] for v in mine)
        out[layer + ".self_s"] = sum(v[1] for v in mine)

    def span(key, i):
        return spans.get(key, [0, 0.0])[i]

    out["linalg.rank.calls"] = span("linalg.rank", 0)
    for fn in ("rank_exact", "rank_modular", "smith_diagonal", "reduced_echelon"):
        out["linalg.%s.self_s" % fn] = span("linalg." + fn, 1)
    rank_calls = span("linalg.rank", 0)
    out["linalg.modular_share"] = span("linalg.rank_modular", 0) / rank_calls if rank_calls else 0.0
    for key in ("linalg.rows", "linalg.cols", "linalg.nnz", "lyndon.basis_words",
                "parsing.input_bytes", "milnor.residues"):
        out[key] = counters.get(key, 0)
    out["lyndon.lyndon_product.calls"] = span("lyndon.lyndon_product", 0)
    out["arrangement.compute_l2.calls"] = span("arrangement.compute_l2", 0)
    for key in ("lyndon.lyndon_product", "arrangement.compute_l2", "holonomy.holonomy_relators"):
        out[key + ".hit_ratio"] = hit_ratio(*caches.get(key, (0, 0)))
    out["cli.output_bytes"] = output_bytes
    return out


def median_per_op(samples: dict[int, list[float]]) -> dict[int, float]:
    return {i: statistics.median(v) for i, v in samples.items() if v}


# Timings are reported in seconds on a host where the calibration task
# (run.CALIBRATION_CODE) finishes its start phase in REFERENCE_START_S and
# exits after REFERENCE_TOTAL_S.  On the 2-vCPU host the baseline was
# taken on these were 0.11-0.17 s and 0.54-0.70 s, with the tenants' load.
REFERENCE_START_S = 0.15
REFERENCE_TOTAL_S = 0.6


def speed_scales(calibration: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors that turn this run's set-up and operation seconds into
    seconds at the reference speed, from (start, total) calibration times."""
    start = statistics.median(c[0] for c in calibration)
    total = statistics.median(c[1] for c in calibration)
    return REFERENCE_START_S / start, REFERENCE_TOTAL_S / total


def end_to_end(samples: dict[int, list[float]], setup: list[float],
               scales: tuple[float, float], peak_rss_kb: int, attempted: int,
               failed: int) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    ``samples`` maps each operation of the round to its latencies.  wall_s
    is the time of one round, one operation at a time: the sum over the
    operations of their median latency.  op_p50_s is the median of the
    per-operation medians, so every operation weighs the same however
    many times it ran.  setup_s is multiplied by ``scales[0]``, the
    operations' timings by ``scales[1]``.
    """
    setup_scale, op_scale = scales
    per_op = median_per_op(samples)
    wall = sum(per_op.values()) * op_scale
    return {
        "setup_s": statistics.median(setup) * setup_scale,
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_s": statistics.median(per_op.values()) * op_scale,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def p90(values: list[float]) -> float | None:
    """The 90th percentile, or None unless at least ten samples lie above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def overhead_frac(untraced: dict[int, list[float]], traced: dict[int, list[float]]) -> float:
    """Traced round time against the untraced one, over operations run both ways."""
    u, t = median_per_op(untraced), median_per_op(traced)
    both = [i for i in u if i in t]
    return sum(t[i] for i in both) / sum(u[i] for i in both) - 1
