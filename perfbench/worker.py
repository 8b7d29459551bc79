"""Run one benchmark operation in a fresh process and report how it went.

An operation is a list of `multisent` command lines, run in order through
the CLI's `main()` exactly as `multisent <args>` would run them. The
result file gets the operation's wall time (imports excluded), the
process's peak resident memory, the exit code and, when traced, the
per-layer metrics.

    python3 perfbench/worker.py --result OUT.json [--trace 1] '[["evaluate", ...]]'
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("commands", help="JSON list of CLI argument lists")
    args = parser.parse_args()
    commands = json.loads(args.commands)

    from multisent import cli
    from speed import SpeedProbe

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    code, error = 0, None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                for argv in commands:
                    code = cli.main(argv)
                    if code != 0:
                        break
        except Exception:  # reported to the parent, which fails the run
            code, error = 1, traceback.format_exc()
        wall_s = time.perf_counter() - start
    factor = probe.factor()
    layers = None
    if tracer is not None:
        layers = {k: v * factor if k.endswith("_s") else v
                  for k, v in tracer.layer_metrics().items()}
    result = {
        "exit": code,
        "error": error,
        "wall_s": wall_s,
        "run_s": wall_s * factor,
        "speed_factor": factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": out.getvalue()[-2000:],
        "layers": layers,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
