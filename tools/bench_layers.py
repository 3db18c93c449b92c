"""Time the edge-list text writer, ``lcdgraph.io.write_rows``, on its three
kinds of input and write ``BENCH_writer.json`` at the repository root.

    python3 tools/bench_layers.py

Seeds, sizes and repeat counts are fixed, so two checkouts run the same
work.  The inputs, each built once before timing:

- ``sequential_1e6``: the (source, target) columns of ``generate`` at
  n = 10^6, m = 1, sequential, master seed 0 (2 * 10^6 values);
- ``urn_1e5x3``: the same for n = 10^5, m = 3, urn (6 * 10^5 values);
- ``enumerate_7``: every block that ``lcdgraph enumerate --n 7`` writes,
  135,135 int8 rows of 21 columns, in one file.

Each repeat writes one input to a fresh file in a temporary directory,
timed from ``open`` to ``close``.  The JSON holds, per input, the min and
median seconds over the repeats, the bytes written and their sha256 (equal
digests mean equal bytes across checkouts), and the machine: cores, Python
and numpy versions, and whether numba imports.  The package is imported from
this checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lcdgraph import cli  # noqa: E402
from lcdgraph.io import write_rows  # noqa: E402
from lcdgraph.processes import ProcessParams, generate  # noqa: E402

REPEATS = 21
OUT = ROOT / "BENCH_writer.json"


def edge_list(n: int, m: int, variant: str) -> list:
    g = generate(ProcessParams(n=n, m=m, variant=variant, master_seed=0))
    return [((g.src, g.tgt), b",\n")]


def enumerate_blocks(n: int, tmp: Path) -> list:
    """The (columns, seps) of each ``write_rows`` call of ``enumerate --n n``,
    recorded from one run of the command with the writer stubbed out."""
    calls = []

    def record(fh, columns, seps):
        calls.append((columns, seps))

    with mock.patch.object(cli, "write_rows", record), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["enumerate", "--n", str(n), "--out", str(tmp / "enumerate.txt")])
    return calls


def time_writes(calls: list, path: Path) -> float:
    start = time.perf_counter()
    with open(path, "wb") as fh:
        for columns, seps in calls:
            write_rows(fh, columns, seps)
    return time.perf_counter() - start


def numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def main() -> int:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {
            "sequential_1e6": edge_list(10**6, 1, "sequential"),
            "urn_1e5x3": edge_list(10**5, 3, "urn"),
            "enumerate_7": enumerate_blocks(7, Path(tmp)),
        }
        times = {name: [] for name in inputs}
        path = Path(tmp) / "rows.txt"
        for name, calls in inputs.items():  # warm-up, and the bytes written
            time_writes(calls, path)
            data = path.read_bytes()
            results[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        for _ in range(REPEATS):  # inputs interleaved, so host load hits each alike
            for name, calls in inputs.items():
                times[name].append(time_writes(calls, path))
    for name, ts in times.items():
        results[name].update(min_s=min(ts), median_s=statistics.median(ts), repeats=len(ts))
    report = {
        "layer": "io.write_rows",
        "inputs": results,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba_imports": numba_imports(),
        },
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, r in results.items():
        print(f"{name}: min {r['min_s'] * 1e3:.1f} ms, median {r['median_s'] * 1e3:.1f} ms")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
