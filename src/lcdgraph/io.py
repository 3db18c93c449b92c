"""Persistence for generated graphs: edge-list CSV plus a JSON header."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError
from .lcd import LcdGraph

CHUNK_EDGES = 1 << 16  # edges formatted per pass: bounds the writer's buffers


def write_graph(g: LcdGraph, path: str | Path) -> Path:
    """Write the edge list as `source,target` lines (1-indexed, no header
    row) and the run parameters as `<path>.header.json`.

    The CSV holds exactly the bytes of ``f"{s},{t}\\n"`` for each edge in
    order: decimal ids without padding or sign, `\\n` line ends on every
    platform.  Ids must be >= 0.  The lines are formatted in numpy, a
    chunk of ``CHUNK_EDGES`` edges at a time: each edge becomes one row
    of a uint8 matrix holding the right-aligned ASCII digits of source and
    target, the comma and the newline; a boolean mask drops the padding
    to the left of each number, and the kept bytes are written in row
    order.  Memory per chunk is fixed, whatever the graph size.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        _write_edges(fh, g.src, g.tgt)
    header = {k: g.meta[k] for k in ("n", "m", "variant", "seed") if k in g.meta}
    header_path = path.with_name(path.name + ".header.json")
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_edges(fh, src: np.ndarray, tgt: np.ndarray) -> None:
    if src.size == 0:
        return
    if min(src.min(), tgt.min()) < 0:
        raise DomainError("edge-list ids must be >= 0")
    top_s, top_t = int(src.max()), int(tgt.max())
    ws, wt = len(str(top_s)), len(str(top_t))
    dtype = np.min_scalar_type(max(top_s, top_t))  # narrow ints divide faster
    # bytes x edges, so that each digit pass fills one contiguous row
    rows = np.empty((ws + wt + 2, min(src.size, CHUNK_EDGES)), dtype=np.uint8)
    rows[ws] = ord(",")
    rows[-1] = ord("\n")
    for lo in range(0, src.size, CHUNK_EDGES):
        k = min(CHUNK_EDGES, src.size - lo)
        _put_digits(rows[:ws, :k], src[lo : lo + k].astype(dtype))
        _put_digits(rows[ws + 1 : -1, :k], tgt[lo : lo + k].astype(dtype))
        buf = rows[:, :k].T.copy()
        fh.write(buf[buf != 0].tobytes())


def _put_digits(out: np.ndarray, x: np.ndarray) -> None:
    """Fill ``out`` (digits x ids) with the ASCII digits of ``x``, one id per
    column, right-aligned, and 0 bytes for the padding left of the number."""
    for j in range(len(out)):  # j-th digit from the right
        q = x // 10
        row = out[-1 - j]
        row[:] = x - q * 10
        # the last digit always prints, a higher one only if the id reaches it
        np.add(row, ord("0"), out=row, where=x != 0 if j else True)
        x = q
