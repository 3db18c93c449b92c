#!/usr/bin/env python3
"""Benchmark for lcdgraph: named workloads of CLI commands.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports ``lcdgraph`` from the
checkout's ``src/`` and writes only under ``perfbench/results/``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced round and then traced rounds, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and the per-command figures by name.  ``--workload all``
runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("generate", "experiments", "exact")


def bootstrap() -> None:
    """Put the checkout's package on the path and hold the process to the
    two threads the replicate experiments ask for."""
    if not (SRC / "lcdgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no lcdgraph package under {SRC}; run from a source checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LCDGRAPH_THREADS", None)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
            code = code or proc.returncode
        return code
    import bench

    return bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
