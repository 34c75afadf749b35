"""Traced stand-in for ``python -m sumkit.cli``, used only by traced runs.

    PERFBENCH_TRACE_OUT=spans.json python3 -m sumbench.child <cli arguments>

Times the import of ``sumkit.cli``, installs the tracer's wrappers, calls
``sumkit.cli.run(argv)`` and writes the folded span totals to the file named
by ``PERFBENCH_TRACE_OUT``.  Stdout and the exit code are the CLI's own.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    start = time.perf_counter()
    import sumkit.cli as cli
    import_s = time.perf_counter() - start

    from sumbench.tracer import Tracer, install_sumkit

    tracer = Tracer()
    install_sumkit(tracer)
    run_start = time.perf_counter()
    tracer.begin("cli.run")
    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.end()
        tracer.restore()
    run_s = time.perf_counter() - run_start
    tracer.fold()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "run_s": run_s,
                   "calls": tracer.calls, "self_s": tracer.self_s,
                   "counters": tracer.counters, "maxima": tracer.maxima}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
