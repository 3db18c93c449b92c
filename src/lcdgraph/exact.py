"""Exact finite-n laws of the m = 1 process and the distances between laws.

Pure Python: this module imports only the standard library, ``errors`` and
``oracles``.  A float solver imports numpy inside the function that needs it."""

from collections import Counter
from fractions import Fraction

from .errors import CapacityError, DomainError
from .oracles import cond_prob_degree, pairing_count

EXACT_LAW_CAP = 12  # Catalan(12) = 208,012 chain states, about 120 MB; each n adds about 3.5x


def exact_sequential_law(n: int) -> dict:
    """Probability of every total-degree sequence under the one-edge-per-step
    process, by a forward chain over the degree tuples of vertices 1..t-1:
    step t appends vertex t's own endpoint (degree 1) and hits vertex u with
    probability own[u]/(2t-1).  Each state counts its choice paths, out of
    (2n-1)!!; there are Catalan(n) states at step n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > EXACT_LAW_CAP:
        raise CapacityError(f"n={n} exceeds the exact-law cap {EXACT_LAW_CAP}")
    paths = Counter({(): 1})
    for _ in range(n):
        step: Counter = Counter()
        for degs, c in paths.items():
            own = degs + (1,)
            for u, d in enumerate(own):
                step[own[:u] + (d + 1,) + own[u + 1 :]] += c * d
        paths = step
    total = pairing_count(n)
    return {k: Fraction(c, total) for k, c in paths.items()}


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance between two distributions over hashable
    outcomes given as outcome -> probability (or frequency) maps."""
    keys = set(p) | set(q)
    return 0.5 * float(sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys))


def cond_prob_discrepancy_table(n_max: int = 6) -> list:
    """Compare the closed-form conditional-degree expression against the
    exact law for every feasible (n, k, s, d) cell, n <= n_max <= EXACT_LAW_CAP.

    Each row: dict with the cell, the exact conditional probability of
    total degree d+1 for vertex k+1 given D_k = 2k+s, the formula value, and
    whether they agree exactly.  The exact column, keyed "enumerated", is
    read off ``exact_sequential_law(n)``, which equals the enumeration of
    all pairings for n <= 8; D_k is the running degree sum, s = D_k - 2k
    and d = deg_{k+1} - 1.  The formula disagrees on d = 0 and on d >= 1
    cells alike: for n <= 6, 35 of the 70 d >= 1 cells with exact mass
    disagree.
    """
    if n_max > EXACT_LAW_CAP:
        raise CapacityError(f"n_max={n_max} exceeds the exact-law cap {EXACT_LAW_CAP}")
    rows = []
    for n in range(2, n_max + 1):
        by_cell: Counter = Counter()
        by_cond: Counter = Counter()
        for degs, p in exact_sequential_law(n).items():
            dk = 0
            for k in range(1, n):
                dk += degs[k - 1]
                by_cell[k, dk - 2 * k, degs[k] - 1] += p
                by_cond[k, dk - 2 * k] += p
        for k in range(1, n):
            for s in range(0, n - k + 1):
                denom = by_cond[k, s]
                for d in range(0, n - k - s + 1):
                    formula = cond_prob_degree(n, k, s, d).value
                    enum = by_cell[k, s, d] / denom if denom else None
                    rows.append({"n": n, "k": k, "s": s, "d": d, "enumerated": enum,
                                 "formula": formula, "match": enum == formula})
    return rows
