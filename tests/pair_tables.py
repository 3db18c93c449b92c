"""Test references that read pairings as partner rows.  The package holds
every pairing as a pair table; only these references, and the tests that
code or check pairings through them, convert to partner rows."""

import numpy as np


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
