"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs are untraced.  For every end-to-end metric it prints the median of
the runs, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread: the distance between the quartiles as a share of
the median.  --json FILE also writes those figures, with every run's
values, to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="like 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--json", default=None)
    args = ap.parse_args()
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    out = {"workload": args.workload, "seconds": args.seconds,
           "seeds": seed_list(args.seeds), "metrics": {}}
    for name in runs[0]["metrics"]:
        s = summary([r["metrics"][name]["value"] for r in runs])
        out["metrics"][name] = s
        print("%-40s median %12.6f  q1 %12.6f  q3 %12.6f  spread %.4f"
              % (name, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
