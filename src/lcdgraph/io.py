"""Persistence: a graph's edge-list CSV and JSON header, the numpy text
writer behind it and ``lcdgraph enumerate``, the one strict JSON writer and
the CSV writer of the experiment tables.  numpy is imported in the two writers
that use it, so that ``experiment region``, writing JSON and CSV, runs without it."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DomainError

# Values formatted per pass: bounds the writer's buffers.  The 10^6 x 1 edge
# list at 2^15 .. 2^19, medians of 31 interleaved writes (2-core Xeon, numpy
# 2.4): 86, 83, 85, 91 and 95 ms, with buffers of 0.9, 1.7, 3.4, 6.8 and 13.6 MB.
CHUNK_CELLS = 1 << 17


def graph_files(path: str | Path) -> list:
    """The files ``write_graph(g, path, header)`` writes: edge list, header."""
    path = Path(path)
    return [path, path.with_name(path.name + ".header.json")]


def write_graph(g, path: str | Path, header: dict) -> Path:
    """Write the edges of ``g``, an ``LcdGraph``, as `source,target` lines
    (1-indexed, no header row) and ``header`` to the two ``graph_files(path)``.

    The CSV holds exactly the bytes of ``f"{s},{t}\\n"`` for each edge in
    order, as written by ``write_rows``.  Ids must be >= 0.
    """
    import numpy as np

    path, header_path = graph_files(path)
    with open(path, "wb") as fh:
        for lo in range(0, g.n_edges, CHUNK_CELLS // 2):  # g.src, a chunk at a time
            src = np.arange(lo, min(lo + CHUNK_CELLS // 2, g.n_edges), dtype=np.int32) // g.m + 1
            write_rows(fh, (src, g.tgt[lo : lo + src.size]), b",\n")
    write_json(header_path, header)
    return path


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON with indent 2, sorted keys and a final newline.
    NaN or an infinity raises ValueError, a non-JSON type (np.int64) TypeError."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_csv(path: str | Path, fieldnames, rows) -> None:
    """Write ``rows``, dicts keyed by ``fieldnames``, to ``path`` as CSV
    under a header row; a key a row lacks is an empty cell."""
    import csv  # only the experiment tables are CSV through this module

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_rows(fh, columns, seps: bytes) -> None:
    """Write row i as, for each column j in turn, the decimal digits of
    ``columns[j][i]`` followed by the byte ``seps[j]``: the bytes of
    ``"".join(f"{c[i]}{chr(s)}" for c, s in zip(columns, seps))``.

    ``columns`` are equal-length int arrays, ``seps`` one nonzero byte per
    column.  A negative value raises DomainError when its chunk is reached,
    after the chunks before it were written.  Rows are formatted in numpy,
    as many at a time as fill ``CHUNK_CELLS`` values: the chunk's columns are
    copied into one buffer of the narrowest int type that holds them, and
    every digit pass fills one contiguous row per column of a (columns x
    bytes x rows) uint8 matrix with the right-aligned decimal digits.  The
    last digit gets ``'0'`` added unmasked, the j-th from the right gets
    ``'0'`` times ``(value // 10**j != 0)``, so the cells left of each
    number stay 0 bytes without a masked ufunc.  No separator or ASCII digit
    is a 0 byte, so deleting the 0 bytes of the row-major copy with
    ``bytes.translate`` leaves the text.  Memory per chunk is fixed,
    whatever the number of rows.
    """
    import numpy as np

    sep_bytes = np.frombuffer(seps, dtype=np.uint8)[:, None]
    step = CHUNK_CELLS // len(columns)
    for lo in range(0, len(columns[0]), step):
        v = np.array([c[lo : lo + step] for c in columns])
        if v.min() < 0:
            raise DomainError("values written as text must be >= 0")
        top = int(v.max())
        v = v.astype(np.min_scalar_type(top))  # narrow ints divide faster
        width = len(str(top))
        text = np.empty((len(columns), width + 1, v.shape[1]), dtype=np.uint8)
        text[:, width] = sep_bytes
        for j in range(width):  # j-th digit from the right
            q = v // 10
            digit = text[:, width - 1 - j]
            np.subtract(v, q * 10, out=digit, casting="unsafe")
            # the last digit always prints, a higher one only if the value reaches it
            digit += (v != 0).view(np.uint8) * ord("0") if j else ord("0")
            v = q
        fh.write(text.transpose(2, 0, 1).tobytes().translate(None, b"\0"))  # drop the padding
