"""Chord-diagram pairings of {1,..,2n} and the directed multigraphs they induce.

A pairing is a perfect matching on the points 1..2n.  Scanning the points
left to right and closing a vertex at every right endpoint merges the points
into n vertex groups; every chord then becomes a directed edge from the
vertex of its right endpoint to the vertex of its left endpoint.  Loops and
multiple edges are kept.

Every pairing is held as a pair table, shape (rows, n, 2), one row per
pairing: its n pairs (a, b), each with a < b.  Enumerated tables list each
row's pairs in increasing a; sampled tables keep the order of the draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError

ENUMERATION_CAP = 8  # 15!! = 2,027,025 pairings at n=8


def enumerate_pairings(n: int):
    """All pairings of {1,..,2n}, exactly once each, in a fixed order: an
    iterator of int8 pair tables, one block of (2n-3)!! rows for each first
    pair (1, j), j = 2..2n.  ``n`` is checked at the call, before any block
    is built.

    Order is lexicographic in the partner of the smallest unpaired point.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    return _first_pair_blocks(n)


def _first_pair_blocks(n: int):
    """The blocks of ``enumerate_pairings(n)``: after the pair (1, j), the
    other 2n-2 points in increasing order relabel 1..2n-2 in every pairing
    of n-1, which keeps the order and the a < b of every pair."""
    rest = np.zeros((1, 0, 2), np.int8)  # the one pairing of no points
    if n > 1:
        rest = np.concatenate(list(_first_pair_blocks(n - 1)))
    points = np.arange(2, 2 * n + 1, dtype=np.int8)
    for i in range(2 * n - 1):
        block = np.empty((len(rest), n, 2), dtype=np.int8)
        block[:, 0] = 1, points[i]
        block[:, 1:] = np.delete(points, i)[rest - 1]
        yield block


def sample_pairs(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """``samples`` independent uniform pairings of {1,..,2n}, one int64 pair
    table each, shape (samples, n, 2), pairs in the order of the draw.

    Each row shuffles the 2n points uniformly and pairs consecutive entries.
    A pairing arises from exactly 2^n n! of the (2n)! orders (its n pairs in
    any order, each either way round), so each has probability
    2^n n!/(2n)! = 1/(2n-1)!!.  O(n) time per row.  The points are int64,
    which ``rng.permuted`` shuffles faster than int32, filled by
    broadcasting one row of 1..2n and shuffled in place.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    points = np.empty((samples, 2 * n), dtype=np.int64)
    points[...] = np.arange(1, 2 * n + 1, dtype=np.int64)  # one row, broadcast
    pairs = rng.permuted(points, axis=1, out=points).reshape(samples, n, 2)
    a, b = pairs[..., 0], pairs[..., 1]  # made (min, max) in place
    hi = np.maximum(a, b)
    np.minimum(a, b, out=a)
    b[...] = hi
    return pairs


def pair_degree_rows(pairs: np.ndarray, m: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Total-degree rows of the graphs of the pairings of a pair table
    (shape (rows, mn, 2)), with primed vertices identified in blocks of m.
    The b of the pairs are the right endpoints R_1 < .. < R_mn once sorted;
    primed vertex j closes at R_j and holds the points R_{j-1}+1..R_j (each
    point counts once for the vertex that holds it), so block v has total
    degree R_{vm} - R_{(v-1)m}, with R_0 = 0.

    The rows are written into ``out``, shape (rows, n), of any integer
    dtype that holds them (a view of a wider table will do), and returned;
    without it, into a new array in the pair table's dtype.  The sorted
    right endpoints are the one temporary."""
    right = np.sort(pairs[..., 1], axis=1)
    ends = right[:, m - 1 :: m]  # R_m, R_2m, .., R_mn
    if out is None:
        out = np.empty(ends.shape, dtype=pairs.dtype)
    out[:, 0] = ends[:, 0]
    np.subtract(ends[:, 1:], ends[:, :-1], out=out[:, 1:])
    return out


def pair_targets(pairs: np.ndarray) -> np.ndarray:
    """Edge targets of the graph of one pairing (pair table of shape (n, 2),
    a < b, not checked), in right-endpoint (creation) order: the vertex of
    each right endpoint's partner, 1 + the number of right endpoints before
    that left endpoint."""
    left_of = np.zeros(2 * len(pairs) + 1, dtype=np.int32)
    left_of[pairs[:, 1]] = pairs[:, 0]
    left_of = left_of[1:]  # left_of[b - 1] == a, 0 at left endpoints
    is_right = left_of > 0
    closed = np.cumsum(is_right, dtype=np.int32)  # right endpoints up to each point, inclusive
    closed += 1
    return closed[left_of[is_right] - 1]


@dataclass
class LcdGraph:
    """Directed multigraph with loops on vertices 1..n_vertices in which
    every vertex sends m edges, as in the preferential-attachment process.

    Edge i (from 0) leaves vertex i // m + 1 for ``tgt[i]``; the ordered
    targets keep loops and multiple edges.  Every out-degree is m, so the
    total degree of a vertex is its in-degree + m.
    """

    n_vertices: int
    m: int
    tgt: np.ndarray

    def __post_init__(self):
        self.tgt = np.asarray(self.tgt)
        if self.tgt.shape != (self.n_vertices * self.m,):
            raise DomainError(f"need n * m targets, got shape {self.tgt.shape}")

    @property
    def n_edges(self) -> int:
        return int(self.tgt.size)

    @property
    def src(self) -> np.ndarray:
        src = np.arange(self.m, self.n_edges + self.m, dtype=np.int32)
        src //= self.m  # (i + m) // m = i // m + 1, in place: one array of n*m ids
        return src

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """in_degrees[v-1] is the in-degree of vertex v; a loop adds 1."""
        return np.bincount(self.tgt, minlength=self.n_vertices + 1)[1:]

    @cached_property
    def total_degrees(self) -> np.ndarray:
        return self.in_degrees + self.m

