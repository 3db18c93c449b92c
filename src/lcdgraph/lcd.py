"""Chord-diagram pairings of {1,..,2n} and the directed multigraphs they induce.

A pairing is a perfect matching on the points 1..2n.  Scanning the points
left to right and closing a vertex at every right endpoint merges the points
into n vertex groups; every chord then becomes a directed edge from the
vertex of its right endpoint to the vertex of its left endpoint.  Loops and
multiple edges are kept.

Enumerated pairings are pair tables, shape (rows, n, 2): each row's pairs
(a, b) with a < b, in increasing a.  Sampled pairings are partner arrays,
index 0 unused, ``partner[a] == b`` and ``partner[b] == a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError
from .oracles import double_factorial

ENUMERATION_CAP = 8  # 15!! = 2,027,025 pairings at n=8


def pairing_count(n: int) -> int:
    """Number of pairings of 2n points: (2n-1)!! = 1*3*...*(2n-1)."""
    return double_factorial(2 * n - 1)


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


def sample_partner_array(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform pairing as a partner array (index 0 unused): the one-sample
    case of ``sample_partner_rows``."""
    return sample_partner_rows(n, 1, rng)[0]


def sample_partner_rows(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """``samples`` independent uniform pairings of {1,..,2n}, one partner
    array per row, shape (samples, 2n+1) with column 0 unused.

    Each row shuffles the 2n points uniformly and pairs consecutive entries.
    A pairing arises from exactly 2^n n! of the (2n)! orders (its n pairs in
    any order, each either way round), so each has probability
    2^n n!/(2n)! = 1/(2n-1)!!.  O(n) time per row.
    """
    perm = _shuffled_points(n, samples, rng)
    rows = np.arange(samples)[:, None]
    partner = np.zeros((samples, 2 * n + 1), dtype=np.int64)
    partner[rows, perm[:, 0::2]] = perm[:, 1::2]
    partner[rows, perm[:, 1::2]] = perm[:, 0::2]
    return partner


def sample_right_endpoints(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted right endpoints, shape (samples, n), of the pairings that
    ``sample_partner_rows`` draws from the same generator state: the larger
    point of each consecutive pair of the shuffle."""
    perm = _shuffled_points(n, samples, rng)
    return np.sort(np.maximum(perm[:, 0::2], perm[:, 1::2]), axis=1)


def _shuffled_points(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Each row an independent uniform order of the points 1..2n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return rng.permuted(np.tile(np.arange(1, 2 * n + 1, dtype=np.int64), (samples, 1)), axis=1)


def right_end_degree_rows(right: np.ndarray, m: int = 1) -> np.ndarray:
    """Total-degree rows from the sorted right endpoints R_1 < .. < R_mn of
    pairings, one row each, with primed vertices identified in blocks of m.
    Primed vertex j closes at R_j and holds the points R_{j-1}+1..R_j (each
    point counts once for the vertex that holds it), so block v has total
    degree R_{vm} - R_{(v-1)m}, with R_0 = 0."""
    return np.diff(right[:, m - 1 :: m], axis=1, prepend=right.dtype.type(0))


def pair_degree_rows(pairs: np.ndarray, m: int = 1) -> np.ndarray:
    """Total-degree rows, in the pair tables' dtype, of the graphs of the
    pairings of a pair table (shape (rows, mn, 2)), with primed vertices
    identified in blocks of m: the b of the pairs are the right endpoints."""
    return right_end_degree_rows(np.sort(pairs[..., 1], axis=1), m)


def pairing_targets(partner: np.ndarray) -> np.ndarray:
    """Edge targets of the graph of one pairing (partner array, index 0
    unused, not checked), in right-endpoint (creation) order: the vertex of
    each right endpoint's partner, 1 + the number of right endpoints before
    that left endpoint."""
    is_right = partner[1:] < np.arange(1, partner.size)
    closed = np.cumsum(is_right)  # right endpoints up to and including each point
    closed += 1
    return closed[partner[1:][is_right] - 1]


@dataclass
class LcdGraph:
    """Directed multigraph with loops on vertices 1..n_vertices.

    Edges are an ordered list so multiplicities survive; ``src[i] -> tgt[i]``.
    """

    n_vertices: int
    src: np.ndarray
    tgt: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.tgt = np.asarray(self.tgt, dtype=np.int64)
        if self.src.shape != self.tgt.shape:
            raise DomainError("edge arrays must have equal length")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """in_degrees[v-1] is the in-degree of vertex v; a loop adds 1."""
        return np.bincount(self.tgt, minlength=self.n_vertices + 1)[1:]

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n_vertices + 1)[1:]

    @cached_property
    def total_degrees(self) -> np.ndarray:
        return self.in_degrees + self.out_degrees

    def degrees_of(self, mode: str) -> np.ndarray:
        if mode == "in_degree":
            return self.in_degrees
        if mode == "out_degree":
            return self.out_degrees
        if mode == "total_degree":
            return self.total_degrees
        raise DomainError(f"unknown degree mode {mode!r}")

    def edge_list(self):
        return list(zip(self.src.tolist(), self.tgt.tolist()))


def graph_from_partner_array(partner: np.ndarray, meta: dict | None = None) -> LcdGraph:
    """Build the merged directed graph from a partner array (1-indexed,
    index 0 unused).  Vectorized; used for large sampled pairings too.
    Raises DomainError unless the array is a pairing of 1..2n, n >= 1.
    Edge k leaves vertex k, which closes at the k-th right endpoint."""
    two_n = partner.size - 1
    idx = np.arange(1, two_n + 1)
    right = idx[partner[1:] < idx]
    left = partner[right]
    n = right.size
    # If each of the n right endpoints r has a partner l in 1..r-1 with
    # partner[l] == r, the l are n distinct left endpoints, so they are all
    # of them: no point is fixed and every partner lies in 1..2n.
    if not (two_n >= 2 and 2 * n == two_n and left.min() >= 1 and (partner[left] == right).all()):
        raise DomainError("partner array is not a fixed-point-free involution on 1..2n")
    return LcdGraph(n, np.arange(1, n + 1), pairing_targets(partner), meta or {})
