"""Test references that read pairings as partner rows, or one pairing as
its graph, or the exact m = 1 law off all pairings.  The package holds every
pairing as a pair table; only these references, and the tests that code or
check pairings through them, convert to partner rows or check a table before
building its graph.  The package's exact law is the forward chain
``exact_sequential_law``; the enumeration here is its independent check."""

from collections import Counter
from fractions import Fraction

import numpy as np

from lcdgraph.analysis import count_rows
from lcdgraph.errors import DomainError
from lcdgraph.lcd import (
    LcdGraph,
    enumerate_pairings,
    pair_degree_rows,
    pair_targets,
)
from lcdgraph.oracles import pairing_count


def partner_rows(pairs: np.ndarray) -> np.ndarray:
    """Partner rows, shape (rows, 2n+1) with column 0 unused, of a pair table
    of shape (rows, n, 2): ``partner[a] == b`` and ``partner[b] == a``."""
    rows, n, _ = pairs.shape
    partner = np.zeros((rows, 2 * n + 1), dtype=pairs.dtype)
    at = np.arange(rows)[:, None]
    partner[at, pairs[..., 0]] = pairs[..., 1]
    partner[at, pairs[..., 1]] = pairs[..., 0]
    return partner


def reference_degree_rows(partner: np.ndarray, m: int = 1) -> np.ndarray:
    """Each point's primed vertex by a running count of the right endpoints
    before it, then the points of each block of m counted."""
    rows, two_n = partner.shape[0], partner.shape[1] - 1
    n = two_n // (2 * m)
    is_right = partner[:, 1:] < np.arange(1, two_n + 1)
    primed = np.cumsum(is_right, axis=1) - is_right  # primed vertex - 1
    code = primed // m + n * np.arange(rows)[:, None]
    return np.bincount(code.ravel(), minlength=rows * n).reshape(rows, n)


def graph_from_pairs(pairs: np.ndarray) -> LcdGraph:
    """Build the merged directed graph of one pairing from its pair table
    (shape (n, 2), any pair order).  Raises DomainError unless the table
    holds each point 1..2n exactly once, n >= 1, and a < b in every pair.
    Edge k leaves vertex k, which closes at the k-th right endpoint."""
    n = len(pairs)
    if not (n >= 1 and pairs.shape == (n, 2) and (pairs[:, 0] < pairs[:, 1]).all()
            and np.array_equal(np.sort(pairs, axis=None), np.arange(1, 2 * n + 1))):
        raise DomainError("pair table is not a pairing of 1..2n with a < b in every pair")
    return LcdGraph(n, 1, pair_targets(pairs))


def edge_list(g: LcdGraph) -> list:
    """The graph's edges as (source, target) pairs, in edge order."""
    return list(zip(g.src.tolist(), g.tgt.tolist()))


def exact_pairing_law(n: int) -> dict:
    """Probability of every total-degree sequence under uniform pairings,
    counted over all (2n-1)!! of them."""
    counts: Counter = Counter()
    for block in enumerate_pairings(n):
        counts.update(count_rows(pair_degree_rows(block)))
    total = pairing_count(n)
    return {k: Fraction(c, total) for k, c in counts.items()}
