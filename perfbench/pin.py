#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``, the output digests the benchmark
checks the sequential, replicate and enumerate commands against.

    python3 perfbench/pin.py

Run it at the commit whose bytes define the seed-to-bytes contract.  A
change that alters those bytes on purpose re-pins and records why.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import run

run.bootstrap()

import bench  # noqa: E402  (needs the path set by bootstrap)


def outputs(cmd, ctx, names) -> dict:
    out = bench.run_command(cmd, ctx, None)
    if out.code not in (0, 1):
        raise SystemExit(f"{cmd.argv}: exit {out.code}: {out.stderr}")
    digests = bench.digest_outputs(ctx.workdir, names)
    for path in ctx.workdir.iterdir():
        path.unlink()
    return {"exit": out.code, "digests": digests}


def main() -> None:
    bench.RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=bench.RESULTS))
    pins = {"generate": {}, "replicates": {}}
    try:
        for slot in range(bench.PIN_SLOTS):
            ctx = bench.Context(seed=slot, slot=slot, pins={}, workdir=workdir)
            pins["generate"][str(slot)] = {
                cmd.label: outputs(cmd, ctx, ("graph.csv", "graph.csv.header.json"))["digests"]
                for cmd in bench.generate_commands(ctx)
                if cmd.check is bench.check_pinned_graph
            }
            pins["replicates"][str(slot)] = {
                cmd.label: outputs(cmd, ctx, (f"{cmd.label}.json", f"{cmd.label}.csv"))
                for cmd in bench.replicate_commands(ctx)
            }
            print(f"slot {slot} pinned", flush=True)
        enum = bench.exact_commands(ctx)[0]
        digest = outputs(enum, ctx, ("pairings.csv",))["digests"]["pairings.csv"]
        pins["enumerate"] = {"rows": math.prod(range(1, 14, 2)), "sha256": digest}
    finally:
        shutil.rmtree(workdir)
    path = bench.HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
