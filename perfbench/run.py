"""End-to-end and per-layer benchmark of the `arr` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload (cli-sweep, deep-lie or
wide-decomp; see workloads.py) is generated from the seed.  Its
operations run through the real entry point, ``python -m arrinv.cli``,
one fresh process per operation and one at a time, in rounds: every
operation once per round, rounds repeated until S seconds have passed,
each round after the first cheapest operation first (see Runner.rounds).
Every execution's exit code and output is checked against
expectations.py outside the timed region.

--trace 0 reports the end-to-end metrics (metrics.END_TO_END), with every
timing scaled to a reference speed by a calibration task (see
metrics.speed_scales).  --trace 1 alternates untraced rounds with rounds
run under tracer.py in the child process and reports the per-layer
metrics (metrics.PER_LAYER) of the traced rounds, including the tracing
overhead.  Untraced runs never import the tracer.

Lines before the last are a readable table; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Untraced runs spend this share of their time on set-up and calibration
# samples, interleaved with the operations, and take at least SETUP_MIN
# of each.
SETUP_SHARE = 0.3
SETUP_MIN = 9
SETUP_CODE = "import arrinv.cli, time; print(time.monotonic_ns())"
# A fixed task that does not touch the program.  Its start phase (spawn to
# numpy imported) and its whole run (start, a dict-heavy Python loop and
# int64 array arithmetic) measure the host's speed during a run for
# start-up and for operations, which drift by different amounts
# (metrics.speed_scales).
CALIBRATION_CODE = """\
import time
import numpy as np
print(time.monotonic_ns(), flush=True)
d = {}
for i in range(400000):
    d[i % 1009] = d.get(i % 1009, 0) + i * i % 7
a = np.arange(400000, dtype=np.int64)
for _ in range(120):
    a = (a * 7 + 3) % 1000003
"""
OP_TIMEOUT_S = 120
# every run must end within 180 s; stop starting work well before that
HARD_LIMIT_S = 165


class Child:
    """Outcome of one child process."""

    def __init__(self, spawned_ns: int, seconds: float, code: int | None,
                 maxrss_kb: int, stdout: bytes, stderr: bytes):
        self.spawned_ns = spawned_ns
        self.seconds = seconds
        self.code = code  # None on timeout
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.stats: dict | None = None  # tracer totals of a traced child


def _wait(pid: int, timeout: float):
    """Reap ``pid`` with os.wait4, killing it after ``timeout`` seconds."""
    timed_out = False
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            if not select.select([fd], [], [], max(timeout, 0))[0]:
                os.kill(pid, 9)
                timed_out = True
        finally:
            os.close(fd)
    else:
        end = time.monotonic() + timeout
        while True:
            pid_done, status, ru = os.wait4(pid, os.WNOHANG)
            if pid_done:
                return status, ru, False
            if time.monotonic() > end:
                os.kill(pid, 9)
                timed_out = True
                break
            time.sleep(0.002)
    _, status, ru = os.wait4(pid, 0)
    return status, ru, timed_out


def spawn(argv: list[str], workdir: str, env: dict, timeout: float) -> Child:
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            status, ru, timed_out = _wait(proc.pid, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Child(spawned, seconds, None if timed_out else proc.returncode,
                 ru.ru_maxrss, stdout, stderr)


class Runner:
    """Runs one workload and checks every execution."""

    def __init__(self, workload: workloads.Workload, workdir: str, started: float):
        self.workload = workload
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        self.expected: list = []
        self.setup: list[float] = []
        self.calibration: list[tuple[float, float]] = []
        self._verified: dict[int, bytes] = {}

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def prepare(self) -> None:
        import expectations

        self.workload.write_files(self.workdir)
        subjects: dict = {}
        for op in self.workload.ops:
            try:
                self.expected.append((expectations.expect(op, self.workload, subjects), None))
            except Exception as exc:  # an oracle failure fails the operation
                self.expected.append((None, "oracle: %r" % exc))
        self._summarize = expectations.summarize

    def setup_sample(self) -> float:
        """Seconds from spawning an interpreter until `import arrinv.cli` returns."""
        child = spawn([sys.executable, "-c", SETUP_CODE], self.workdir, self.env, OP_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError("cannot import arrinv.cli: %s" % child.stderr.decode()[-500:])
        return (int(child.stdout) - child.spawned_ns) / 1e9

    def calibration_sample(self) -> tuple[float, float]:
        """Seconds from spawning the calibration task until its start phase
        is over, and until it has exited."""
        child = spawn([sys.executable, "-c", CALIBRATION_CODE], self.workdir, self.env,
                      OP_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError("calibration task failed: %s" % child.stderr.decode()[-500:])
        return (int(child.stdout) - child.spawned_ns) / 1e9, child.seconds

    def probe(self) -> None:
        """Take one set-up or calibration sample, whichever has fewer."""
        if len(self.setup) <= len(self.calibration):
            self.setup.append(self.setup_sample())
        else:
            self.calibration.append(self.calibration_sample())

    def run_op(self, i: int, traced: bool) -> Child | None:
        op = self.workload.ops[i]
        stats_path = os.path.join(self.workdir, "stats.json")
        if traced:
            argv = [sys.executable, str(HERE / "traced_child.py"), stats_path]
        else:
            argv = [sys.executable, "-m", "arrinv.cli"]
        argv += op.argv(self.workdir)
        timeout = min(OP_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return None
        child = spawn(argv, self.workdir, self.env, timeout)
        self.attempted += 1
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        problem = self.check(i, child)
        if problem:
            self.failed += 1
            self.errors.append("%s: %s" % (op.label()[:120], problem))
        if traced and os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as fh:
                child.stats = json.load(fh)
            os.remove(stats_path)
        return child

    def check(self, i: int, child: Child) -> str | None:
        op = self.workload.ops[i]
        expected, oracle_error = self.expected[i]
        if oracle_error:
            return oracle_error
        code, summary = expected
        if child.code is None:
            return "timed out"
        if child.code != code:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return "exit %d, expected %d %s" % (child.code, code, tail)
        if code != 0:
            return "a refusal printed a report" if child.stdout.strip() else None
        if self._verified.get(i) == child.stdout:
            return None
        try:
            report = json.loads(child.stdout)
            got = self._summarize(op.command, report["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return "unreadable report: %r" % exc
        if got != summary:
            diff = sorted(k for k in summary if got.get(k) != summary[k])
            return "result differs in %s" % diff
        source = op.source
        if source and source[0] == "file":
            normals = [[str(v) for v in row] for row in self.workload.files[source[1]].normals]
            if report["arrangement"]["normals"] != normals:
                return "parsed normals differ from the input"
        self._verified[i] = child.stdout
        return None

    def rounds(self, seconds: float, trace: bool):
        """Run rounds until ``seconds`` have passed; yields (round, i, child).

        Untraced runs repeat the round; after the first, in each round the
        operations with the least measured time so far go first, so that
        a round cut short by the deadline has still sampled the short
        operations, which decide op_p50_s where a few long ones fill most
        of the round.  Before each execution they take set-up and
        calibration samples until these have used SETUP_SHARE of the time
        so far, so that they see the same drift of the machine's speed as
        the operations.  Traced runs alternate an untraced and a traced
        round, each in the workload's order.  The first round of each kind
        always completes.
        """
        start = time.perf_counter()
        deadline = start + seconds
        minimum = 2 if trace else 1
        spent = [0.0] * len(self.workload.ops)
        probe_spent = 0.0
        r = 0
        while True:
            order = range(len(spent))
            if not trace and r > 0:
                order = sorted(order, key=spent.__getitem__)
            for i in order:
                now = time.perf_counter()
                if r >= minimum and now >= deadline:
                    return
                while not trace and probe_spent < SETUP_SHARE * (now - start):
                    self.probe()
                    probe_spent += time.perf_counter() - now
                    now = time.perf_counter()
                child = self.run_op(i, traced=trace and r % 2 == 1)
                if child is None:
                    if r < minimum:
                        raise RuntimeError("the first round did not finish in time")
                    return
                spent[i] += child.seconds
                yield r, i, child
            r += 1


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    wl = workloads.build(workload_name, seed)
    work_parent = HERE / "_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as workdir:
        runner = Runner(wl, workdir, started)
        runner.prepare()
        runner.setup_sample()  # warm-up: compiles bytecode and fills the file cache
        untraced: dict[int, list[float]] = {i: [] for i in range(len(wl.ops))}
        traced: dict[int, list[float]] = {i: [] for i in range(len(wl.ops))}
        all_latencies: list[float] = []
        traced_rounds: dict[int, list] = {}
        for r, i, child in runner.rounds(seconds, trace):
            if trace and r % 2 == 1:
                traced[i].append(child.seconds)
                traced_rounds.setdefault(r, []).append(child)
            else:
                untraced[i].append(child.seconds)
                all_latencies.append(child.seconds)
        while not trace and min(len(runner.setup), len(runner.calibration)) < SETUP_MIN:
            runner.probe()
    try:
        work_parent.rmdir()
    except OSError:  # another run is using it
        pass
    n_ops = len(wl.ops)
    table = [
        "workload %s  seed %d  operations per round %d  executions %d  failed %d"
        % (workload_name, seed, n_ops, runner.attempted, runner.failed),
        "setup_s samples %d  calibration samples %d  latency samples %d (min per operation %d)"
        % (len(runner.setup), len(runner.calibration), len(all_latencies),
           min(len(v) for v in untraced.values())),
    ]
    if trace:
        rounds = [cs for cs in traced_rounds.values()
                  if len(cs) == n_ops and all(c.stats for c in cs)]
        per_round = [metrics.layer_metrics([c.stats for c in cs],
                                           sum(len(c.stdout) for c in cs)) for cs in rounds]
        if not per_round:
            raise RuntimeError("no traced round completed with every operation's stats")
        # median_low keeps counts whole and picks a measured round
        values = {k: statistics.median_low(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_frac"] = metrics.overhead_frac(untraced, traced)
        table.append("traced rounds %d" % len(per_round))
        declared = metrics.PER_LAYER
    else:
        scales = metrics.speed_scales(runner.calibration)
        values = metrics.end_to_end(untraced, runner.setup, scales, runner.peak_rss_kb,
                                    runner.attempted, runner.failed)
        declared = metrics.END_TO_END
        raw = metrics.end_to_end(untraced, runner.setup, (1.0, 1.0), 0, 1, 0)
        tail = metrics.p90(all_latencies)
        table.append("metric timings are scaled by %.4f (set-up) and %.4f (operations); "
                     "the per-operation medians and these are not: "
                     "setup_s %.4f s  wall_s %.4f s  op_p50_s %.4f s"
                     % (*scales, raw["setup_s"], raw["wall_s"], raw["op_p50_s"]))
        table.append("failed_frac %.4f frac" % (runner.failed / runner.attempted))
        table.append("op_p90_s %s" % ("%.4f s (scaled)" % (tail * scales[1]) if tail is not None else
                     "omitted: %d samples, fewer than 10 above the 90th percentile"
                     % len(all_latencies)))
    for i, op in enumerate(wl.ops):
        runs = untraced[i] + traced[i]
        table.append("  op %2d  median %8.4f s  n %2d  %s" % (
            i, statistics.median(runs), len(runs), op.label()[:90]))
    for name, unit in declared:
        table.append("%-40s %14.6f %s" % (name, values[name], unit))
    for line in table:
        print(line)
    for err in runner.errors[:20]:
        print("FAILED " + err, file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arrinv" / "cli.py").is_file():
        print("error: %s/arrinv not found; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
