import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

UNTRACED_PASS = """
import sys, tempfile, time
sys.path[:0] = [{bench!r}, {src!r}]
import run, workloads
wl = workloads.Workload("t", (workloads.Op("betti", ("builtin", "x3")),), {{}})
with tempfile.TemporaryDirectory() as d:
    runner = run.Runner(wl, d, time.perf_counter())
    runner.prepare()
    child = runner.run_op(0, traced=False)
assert child.code == 0 and runner.failed == 0, runner.errors
assert "tracer" not in sys.modules
print("ok")
"""


def test_untraced_pass_never_imports_the_tracer():
    code = UNTRACED_PASS.format(bench=str(BENCH), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_untraced_command_is_the_cli_entry_point(monkeypatch, tmp_path):
    import run
    import workloads

    seen = []

    def fake_spawn(argv, workdir, env, timeout):
        seen.append(argv)
        return run.Child(0, 0.1, 2, 1000, b"", b"")

    monkeypatch.setattr(run, "spawn", fake_spawn)
    wl = workloads.Workload("t", (workloads.Op("lcs", ("builtin", "pappus")),), {})
    runner = run.Runner(wl, str(tmp_path), 0.0)
    runner.started = __import__("time").perf_counter()
    runner.prepare()
    runner.run_op(0, traced=False)
    runner.run_op(0, traced=True)
    assert seen[0][1:3] == ["-m", "arrinv.cli"]
    assert seen[1][1].endswith("traced_child.py")
    assert runner.failed == 0  # pappus is not decomposable: exit 2 expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_later_rounds_run_the_least_measured_operations_first(monkeypatch, tmp_path):
    import run
    import workloads

    costs = [3.0, 1.0, 0.5]
    monkeypatch.setattr(run, "SETUP_SHARE", 0.0)
    ops = tuple(workloads.Op("betti", ("builtin", "x3")) for _ in costs)
    runner = run.Runner(workloads.Workload("t", ops, {}), str(tmp_path), 0.0)
    monkeypatch.setattr(runner, "run_op",
                        lambda i, traced: run.Child(0, costs[i], 0, 1000, b"", b""))
    order = []
    for _, i, _ in runner.rounds(60.0, trace=False):
        order.append(i)
        if len(order) == 9:
            break
    assert order == [0, 1, 2, 2, 1, 0, 2, 1, 0]
