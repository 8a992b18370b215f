"""Run one hopfchrom command in this fresh process and report what it cost.

    python3 perfbench/child.py MODE [hopfchrom arguments ...]

MODE is one of

* ``setup``  -- import the package and stop, to time interpreter start-up;
* ``plain``  -- run the command untouched (the timed operations);
* ``spans``  -- run it under ``probes.SpanTracer``;
* ``counts`` -- run it under ``probes.Counter``.

The command's own output goes to stdout unchanged.  The report is the last
line of stderr, prefixed with ``REPORT_TAG``: the perf_counter reading just
before the command is called and just after it returns (CLOCK_MONOTONIC is
shared with the parent, which took the launch time), the exit code, the
peak resident set size and, when traced, the probe results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

REPORT_TAG = "@@perfbench "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _report(payload: dict):
    sys.stdout.flush()
    sys.stderr.write("\n" + REPORT_TAG + json.dumps(payload) + "\n")
    sys.stderr.flush()


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    import hopfchrom.cli

    if not os.path.abspath(hopfchrom.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"hopfchrom was imported from outside {SRC}\n")
        return 3
    probe = None
    if mode in ("spans", "counts"):
        import probes

        probe = probes.SpanTracer() if mode == "spans" else probes.Counter()
        probe.install()
    t_call = time.perf_counter()
    code = None if mode == "setup" else hopfchrom.cli.main(argv)
    t_done = time.perf_counter()
    _report({
        "t_call": t_call,
        "t_done": t_done,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": probe.report() if probe else None,
    })
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
