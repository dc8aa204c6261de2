"""The library names the benchmark harness in ``perfbench/`` calls.

The harness turns an exception in its oracles into a failed operation, so
a change to the shape of a library function it calls would only show as
a lower share of good operations in a benchmark run.  These tests run
those oracles and the tracer's cache read in the test suite instead.
deep-lie's oracles are left out, as they take seconds, but every
workload's command lines are parsed, which builds no matrix: a removed
or renamed option fails here and not only in a benchmark run.  The
traced path, which a traced benchmark round takes, runs on two deep-lie
commands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", ["cli-sweep", "wide-decomp"])
def test_benchmark_oracles_run(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import expectations
    import workloads

    wl = workloads.build(workload, 1)
    cache: dict = {}
    for op in wl.ops:
        expectations.expect(op, wl, cache)


def test_tracer_reads_every_reported_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    counts = tracer.Tracer().cache_counts()
    assert sorted(counts) == sorted("%s.%s" % c for c in tracer.CACHES)


@pytest.mark.parametrize("workload", ["cli-sweep", "deep-lie", "wide-decomp"])
def test_every_benchmark_command_line_parses(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from arrinv import cli

    for seed in (1, 2, 3):
        for op in workloads.build(workload, seed).ops:
            run, options = cli._parse(op.argv(str(tmp_path)))
            assert callable(run), op.label()


def test_the_tracer_reads_the_kernels_by_their_shared_names():
    # the tracer rebinds holonomy.rank through linalg.rank
    from arrinv import holonomy, linalg

    assert holonomy.rank is linalg.rank


@pytest.mark.parametrize("argv", [["holonomy", "--builtin", "x3", "--max", "5"],
                                  ["check", "--samples", "1"]])
def test_traced_child_writes_linalg_spans(tmp_path, argv):
    stats = tmp_path / "stats.json"
    done = subprocess.run([sys.executable, str(PERFBENCH / "traced_child.py"), str(stats)] + argv,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(stats.read_text())["spans"]
    assert any(name.startswith("linalg.") and calls for name, (calls, _) in spans.items())
