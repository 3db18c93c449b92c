"""Persistence for generated graphs: edge-list CSV plus a JSON header."""

from __future__ import annotations

import json
from pathlib import Path

from .lcd import LcdGraph


def write_graph(g: LcdGraph, path: str | Path) -> Path:
    """Write the edge list as `source,target` lines (1-indexed, no header
    row) and the run parameters as `<path>.header.json`."""
    path = Path(path)
    with open(path, "w") as fh:
        for s, t in zip(g.src.tolist(), g.tgt.tolist()):
            fh.write(f"{s},{t}\n")
    header = {k: g.meta[k] for k in ("n", "m", "variant", "seed") if k in g.meta}
    header_path = path.with_name(path.name + ".header.json")
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

