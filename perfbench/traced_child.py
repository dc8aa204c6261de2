"""Run one `arr` command under the tracer and write its span totals.

    python perfbench/traced_child.py STATS.json <arr arguments...>

Stdout and the exit code are those of `arr`; the span, counter and cache
totals go to STATS.json.  arrinv must be importable (PYTHONPATH=src).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    before = tracer.cache_counts()
    from arrinv import cli
    try:
        code = cli.main(argv)
    finally:
        after = tracer.cache_counts()
        tracer.uninstall()
    caches = {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after}
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters, "caches": caches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
