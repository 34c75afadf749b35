"""Write ``golden/cli.json``: the stdout of every request the CLI workloads draw.

Run from the repository root, only when an output change is intended:

    python3 perfbench/make_golden.py

Each request is run in-process through ``sumkit.cli.run`` with no value
cache, which prints exactly what ``python -m sumkit.cli`` prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sumbench import cli_mix  # noqa: E402
from sumkit import cli  # noqa: E402


def main() -> int:
    os.environ.pop("SUMKIT_CACHE_DIR", None)
    golden = {}
    for req in cli_mix.universe():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(list(req))
        if code != 0:
            print(f"{cli_mix.key(req)}: exit code {code}", file=sys.stderr)
            return 1
        golden[cli_mix.key(req)] = buffer.getvalue()
    cli_mix.GOLDEN.parent.mkdir(exist_ok=True)
    cli_mix.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True)
                              + "\n")
    print(f"wrote {len(golden)} outputs to {cli_mix.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
