"""Generators for the preferential-attachment graph process.

Three constructions of the same target family are provided:

* ``sequential`` -- grow the graph one edge at a time; vertex t attaches to
  vertex s with probability deg(s)/(2t-1) and to itself with 1/(2t-1).
  For m > 1 the process runs on m*n primed vertices and consecutive blocks
  of m are identified.
* ``pairing`` -- sample a uniform perfect matching on 2mn points as a pair
  table, merge it into a directed multigraph, identify blocks of m.
* ``urn`` -- the stick-breaking representation of Bollobas & Riordan ("The
  diameter of a scale-free random graph", Combinatorica 24, 2004).  On the
  m*n primed vertices draw psi_1 = 1 and psi_k ~ Beta(1, 2k-2); given them,
  primed vertex k attaches its edge to i <= k with probability phi_i / l_k,
  where l_k = prod_{j>k}(1 - psi_j) and phi_i = l_i - l_{i-1}.  Blocks of m
  are identified as above.  The law is exactly that of the other two
  constructions at every n.

Every vertex sends m edges, so ``generate`` returns only the edge targets,
as ``LcdGraph(n, m, tgt)``; sources and degrees derive from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .lcd import LcdGraph, pair_degree_rows, pair_targets, sample_pairs

# Most endpoints, 2 * samples * n * m, that one call may materialize; checked
# before anything is allocated, for every variant.  Half of it, the most
# primed vertices of one call, stays below 2^31, so int32 holds every vertex
# id: edge targets are int32 from each kernel to LcdGraph and the writer.
# It also bounds a batch's (samples, n) result, held in the narrowest type
# that holds m*(n+1): at most 25 MB in int8 (m = 1, n <= 126) and 100 MB in
# int32 (m = 1, n >= 32767), where int64 rows took up to 200 MB; the rest of
# a batch's heap is one block of TARGET_CHUNK primed entries.
POINT_CAP = 50_000_000


@dataclass(frozen=True)
class ProcessParams:
    """One generation run: n vertices, m edges per vertex, construction
    variant and master seed, each checked here, before any graph is drawn."""

    n: int
    m: int
    variant: str = "sequential"
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError(f"n and m must be >= 1, got {self.n}, {self.m}")
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}, not one of {VARIANTS}")
        _check_points(self.n, self.m)
        _check_stream(self.master_seed)


def replicate_rng(master_seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent stream keyed by (master_seed, replicate); order-free."""
    _check_stream(master_seed, replicate)
    return np.random.default_rng(np.random.SeedSequence([master_seed, replicate]))


def _check_stream(master_seed: int, replicate: int = 0) -> None:
    """A stream's key is two integers >= 0; the message names the flag of the
    first one that is negative."""
    for flag, value in (("--seed", master_seed), ("--replicate", replicate)):
        if value < 0:
            raise DomainError(f"{flag} must be >= 0, got {value}")


def _check_points(n: int, m: int, samples: int = 1) -> None:
    points = 2 * samples * n * m
    if points > POINT_CAP:
        raise CapacityError(f"2 * samples * n * m = {points} points exceed the cap {POINT_CAP}")


# Draws per chunk of _lemire_rows, whose temporaries are O(DRAW_CHUNK): at
# 2^13 the largest, a uint64 product, is 64 KiB.  On a 2-core Xeon, 2^12
# made the 3e5 and 1e6 draws about 25 % slower; 2^14 was 5-10 % faster in
# a warm process but took the 2e4 draw from 0.19 to 0.40 ms in a fresh one.
DRAW_CHUNK = 1 << 13

# Vertex t beyond which a row is drawn by rng.integers.  A rejection costs
# _lemire_rows one pass over the rest of its chunk, and at range 2t-1 about
# (2t-1)/2^33 of the draws reject, so past some t numpy's own per-element
# loop (about 28 ns a draw) is cheaper.  At big_n = 1e7 on a 2-core Xeon,
# numpy 2.4, the draw took 346, 280, 274, 316 and 360 ms with the hand-off
# at t = 2^20 .. 2^24.  Only the draw_1e7 input of tools/bench_layers.py
# runs past it; no benchmark workload does.
DRAW_HANDOFF = 1 << 22

# Columns past DRAW_HANDOFF that one rng.integers call draws, each block with
# its own highs; numpy draws element after element, so the split keeps the
# values and the generator's end state.  At big_n = 1e7 on a 2-core Xeon,
# numpy 2.4, blocks of 2^16 .. 2^21 took 142, 136, 132, 140, 146 and 155 ms
# (medians of 21, interleaved) with tracemalloc peaks of 41.1, 42.1, 44.2,
# 48.4, 56.8 and 73.6 MB; the whole tail in one call, 162 ms and 132.9 MB.
DRAW_TAIL_BLOCK = 1 << 18


def sequential_choices(big_n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform int32 choices of ``samples`` sequential processes on big_n
    primed vertices: ``choices[:, t-1]`` is uniform on [0, 2t-2].

    The choices, and the state the generator is left in, are those of
    ``rng.integers(0, highs, size=(samples, big_n), dtype=np.int32)`` with
    ``highs[t-1] = 2t-1``, which is also the stream of the int64 draw: each
    takes the low, then the high 32-bit half of each 64-bit output and runs
    Lemire's multiply-and-reject (Lemire, "Fast random integer generation in
    an interval", ACM TOMACS 29(1), 2019).  ``_lemire_rows`` applies that
    rule to whole chunks, up to vertex ``DRAW_HANDOFF`` of each row; the
    rest of a longer row is left to ``rng.integers``, ``DRAW_TAIL_BLOCK``
    columns a call.  Only a PCG64 generator, as ``replicate_rng`` makes, is
    accepted.  The call reads and sets the generator's state in several
    steps, not under its lock, so no other thread may draw from ``rng``
    meanwhile.  ``POINT_CAP`` keeps 2t-1 and every flat pointer of
    ``sequential_targets`` below 2^31."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        raise DomainError(f"the sequential draw needs a PCG64 generator, got {type(bits).__name__}")
    choices = np.zeros((samples, big_n), dtype=np.int32)
    if big_n <= DRAW_HANDOFF:
        _lemire_rows(bits, choices[:, 1:])
        return choices
    for row in choices:
        _lemire_rows(bits, row[None, 1:DRAW_HANDOFF])
        for lo in range(DRAW_HANDOFF, big_n, DRAW_TAIL_BLOCK):
            hi = min(lo + DRAW_TAIL_BLOCK, big_n)
            highs = 2 * np.arange(lo + 1, hi + 1, dtype=np.int32) - 1
            row[lo:hi] = rng.integers(0, highs, dtype=np.int32)
    return choices


def _lemire_rows(bits: np.random.PCG64, block: np.ndarray) -> None:
    """Fill ``block[r, c]`` with numpy's bounded draw on [0, 2c+2], row
    after row, from ``bits`` as ``Generator.integers`` draws it.

    One draw takes the next 32-bit half h of the stream (a spare half the
    generator holds comes first) and computes m = h * (2c+3) in 64 bits; it
    keeps m >> 32 unless the low word of m is below 2^32 mod (2c+3), and
    otherwise retries with the next half.  A chunk finds its first rejection
    from the low words alone and keeps the draws before it, then resumes
    one half later.  At the end the generator's spare half is set as numpy
    leaves it: the one half left over, or none."""
    rows, width = block.shape
    if block.size == 0:
        return
    per = min(rows, max(1, DRAW_CHUNK // width))  # whole rows in a chunk; 1 for a long row
    # the ranges of a chunk from column 0: whole rows, or a long row's start
    table = np.tile(np.arange(3, 2 * min(width, DRAW_CHUNK) + 3, 2, dtype=np.uint32), per)
    vals = np.empty(table.size, dtype=np.int32)
    state = bits.state
    # pool[hq] is the next half and pool[hq - 1] the last one used, which
    # numpy keeps in uinteger
    pool = np.array([state["uinteger"]] * (1 + state["has_uint32"]), dtype=np.uint32)
    hq = 1
    r = c = 0
    while r < rows:
        k, w = min(per, rows - r), min(DRAW_CHUNK, width - c)
        span = k * w
        ranges = table[:span] + np.uint32(2 * c) if c else table[:span]
        top = 2 * (c + w) + 1  # the largest range in the chunk
        p = 0
        while p < span:
            n = span - p
            if pool.size - hq < n:
                fresh = bits.random_raw((n - pool.size + hq + 1) // 2)
                fresh = fresh.astype("<u8", copy=False).view("<u4")  # low half first
                pool = np.concatenate((pool[hq - 1 :], fresh))
                hq = 1
            half, rng_p = pool[hq : hq + n], ranges[p:]
            low = half * rng_p  # the low word of m, mod 2^32
            j = n
            maybe = (low < top).nonzero()[0]  # each threshold is below its range
            if maybe.size:
                rng_m = rng_p[maybe]
                reject = maybe[low[maybe] < -rng_m % rng_m]  # 2^32 mod range
                if reject.size:
                    j = int(reject[0])
            high = half[:j].astype(np.uint64)
            high *= rng_p[:j]
            high >>= 32
            vals[p : p + j] = high
            p += j
            hq += j + (j < n)  # skip the rejected half, and draw p again
        block[r : r + k, c : c + w] = vals[:span].reshape(k, w)
        c += w
        if c == width:
            r, c = r + k, 0
    spare = pool.size - hq
    state = bits.state
    state["has_uint32"] = spare
    state["uinteger"] = int(pool[hq - 1 + spare])
    bits.state = state


# Entries that sequential_targets resolves at a time, urn_targets' block of
# boundaries and of keys, and the primed entries of a batch_total_degrees
# block, max(1, TARGET_CHUNK // (n*m)) graphs, so that a block of small
# graphs is resolved as one chunk.
# Resolving, 2^13 .. 2^17, medians of 31 interleaved runs (2-core Xeon, numpy
# 2.4): N = 1e6 12.4, 11.5, 11.4, 12.1, 12.9 ms (26.3 unblocked); N = 3e5 3.5,
# 3.3, 3.5, 3.8, 4.4 ms.
TARGET_CHUNK = 1 << 15


def sequential_targets(choices: np.ndarray) -> np.ndarray:
    """Edge targets of the sequential process, one row per sample.

    The process keeps a flat list of endpoints: primed vertex t appends
    itself at slot 2t-2 and then copies slot ``choices[t-1]`` into slot
    2t-1, the target of its edge, so it self-loops when it draws its own
    slot and otherwise hits a vertex with probability proportional to its
    degree.  A copy of an even slot 2s-2 is vertex s at once; the others,
    copies of an earlier vertex's odd slot, are resolved in vertex order a
    ``TARGET_CHUNK`` block at a time, by pointer jumping on the block's
    pending entries only, ``ptr[p] = ptr[ptr[p]]``: all entries before the
    block are resolved, so most finish in one jump.  Returns an array of
    the shape and dtype of ``choices``, which is left as it is; the dtype
    must hold samples * big_n.
    """
    samples, big_n = choices.shape
    # ptr holds one entry per primed vertex, row after row.  Pending: the
    # flat entry base + u - 1 of the vertex u = choices // 2 + 1 whose odd
    # slot is copied; resolved: ~(base + s - 1) for vertex s.  Integer ops,
    # not np.where, since a branch on random parity mispredicts.
    base = big_n * np.arange(samples, dtype=choices.dtype)[:, None]
    even = choices.astype(np.int8)  # the low bit survives the narrowing
    even &= 1
    even -= 1  # 0 for an odd choice, -1 for an even one
    ptr = choices >> 1
    ptr += base
    ptr ^= even  # even choice: x ^ -1 = ~x
    del even
    ptr = ptr.ravel()
    for lo in range(0, ptr.size, TARGET_CHUNK):  # every entry before lo is resolved
        block = ptr[lo : lo + TARGET_CHUNK]
        pending = np.flatnonzero(block >= 0)
        while pending.size:
            nxt = ptr[block[pending]]
            block[pending] = nxt
            pending = pending[nxt >= 0]
    ptr = ptr.reshape(samples, big_n)
    np.invert(ptr, out=ptr)
    ptr -= base - 1
    return ptr


def _urn_draw(big_n: int, samples: int, rng: np.random.Generator):
    """The cumulative stick lengths ``l`` of ``samples`` independent urns on
    big_n primed vertices, one column per urn, then their keys ``a``.

    Each urn draws its N-1 stick uniforms, then its N keys' uniforms, urn
    after urn.  psi_k ~ Beta(1, 2k-2) is drawn by inversion,
    1 - psi_k = V**(1/(2k-2)) with V uniform on (0, 1].  ``l`` is a product
    of factors in (0, 1], so it is non-decreasing in k even after rounding,
    and its last row is exactly 1.  Primed vertex k's key is uniform on [0, l_k].
    """
    if samples == 1:  # two calls, so that its keys are not held while its sticks are built
        f = rng.random((big_n - 1, 1))  # V, then 1 - psi_k, in place
    else:  # one call, transposed once
        u = rng.random((samples, 2 * big_n - 1)).T.copy()
        f = u[: big_n - 1]
    np.negative(f, out=f)
    np.log1p(f, out=f)
    f /= np.arange(2.0, 2.0 * big_n, 2.0)[:, None]
    np.exp(f, out=f)
    l = np.ones((big_n, samples), dtype=np.float64)  # l_k = prod_{j>k} (1 - psi_j)
    if samples == 1:
        np.cumprod(f[::-1], axis=0, out=l[:-1][::-1])
        del f
        a = rng.random((big_n, 1))
    else:  # the same products a row at a time: cumprod steps down each column
        for k in range(big_n - 2, -1, -1):
            np.multiply(l[k + 1], f[k], out=l[k])
        a = u[big_n - 1 :]
    a *= l
    return l, a


def urn_targets(l: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Urn edge targets: key ``a[k]`` in [0, l_N] goes to the smallest
    vertex i (1-indexed) with l_i >= a[k].  Primed vertex k's key is uniform
    on [0, l_k], its own segment included, so k self-loops w.p. psi_k.

    ``l`` is non-decreasing in [0, 1], as ``_urn_draw`` makes it.  A value
    x lies in bucket floor(x * N), which is monotone in x in floating point:
    a boundary in a lower bucket than a key lies below it, one in a higher
    bucket above it.  So a key's target is 1 + the boundaries below its
    bucket, from a table of counts, + those of its own bucket below it,
    which a few vectorised passes step through, one comparison each: a walk
    cannot leave its bucket, nor pass l_N, which the entry check keeps at or
    above every key, so that check is what bounds it.  Under the
    stick-breaking law (l_k is near sqrt(k / N)) a bucket that holds any
    boundary holds about 2, at most 10 at N = 3e5, so the passes are few.
    Keys and table are built ``TARGET_CHUNK`` at a time."""
    if a.size and not 0.0 <= a.min() <= a.max() <= l[-1]:
        raise DomainError("urn keys must lie in [0, l_N]")
    big_n = l.size
    # lo[b] counts the boundaries in buckets below b, for b = 0 .. N + 1 (a
    # boundary of 1.0 lies in bucket N)
    lo = np.zeros(big_n + 2, dtype=np.int32)
    for start in range(0, big_n, TARGET_CHUNK):  # sorted buckets, one span each
        bucket = (l[start : start + TARGET_CHUNK] * big_n).astype(np.int32)
        first = int(bucket[0])
        bucket -= first
        count = np.bincount(bucket)
        lo[first + 1 : first + 1 + count.size] += count
    np.cumsum(lo, out=lo)
    tgt = np.empty(a.size, dtype=np.int32)
    for start in range(0, a.size, TARGET_CHUNK):
        key = a[start : start + TARGET_CHUNK]
        pos = lo[(key * big_n).astype(np.int32)]  # the key's bucket starts at l[pos]
        # each pass steps every key past one more boundary of its bucket below
        # it, over the whole block: passes over only the keys still moving
        # made ever smaller arrays, and raised the generate benchmark's peak
        # RSS by about 1.4 MB on 2 of 16 seeds, where this form raised none
        while True:
            more = l[pos] < key
            if not more.any():
                break
            pos += more
        pos += 1
        tgt[start : start + TARGET_CHUNK] = pos
    return tgt


# variant -> (N, rng) -> targets of the N primed edges, where edge t leaves
# primed vertex t, in a new int32 array.
# The kernels look up the lcd functions and _urn_draw by their module names
# at call time.
_KERNELS = {
    "sequential": lambda big_n, rng: sequential_targets(sequential_choices(big_n, 1, rng))[0],
    "urn": lambda big_n, rng: urn_targets(*(c[:, 0] for c in _urn_draw(big_n, 1, rng))),
    "pairing": lambda big_n, rng: pair_targets(sample_pairs(big_n, 1, rng)[0]),
}

VARIANTS = tuple(_KERNELS)


def generate(params: ProcessParams, replicate: int = 0) -> LcdGraph:
    """Generate one graph; replicates with distinct indices are independent.
    ``params`` has checked the run, 2mn within POINT_CAP included.
    The kernel draws primed edges t -> tgt[t-1], identified in blocks of m."""
    n, m = params.n, params.m
    rng = replicate_rng(params.master_seed, replicate)
    tgt = _KERNELS[params.variant](n * m, rng)
    if m > 1:  # the kernel's targets are its own: collapse them in place
        tgt -= 1
        tgt //= m
        tgt += 1
    return LcdGraph(n, m, tgt)


# ---------------------------------------------------------------------------
# vectorized small-graph batches, used for distribution comparisons


def batch_total_degrees(
    variant: str, n: int, m: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Total-degree rows of ``samples`` graphs: row i is the total degrees
    of the graph that ``_KERNELS[variant]`` draws i-th from the same stream,
    which is left where those draws leave it.  The row kernel in
    ``_BATCHES`` draws and reduces one block of TARGET_CHUNK // (n*m) graphs
    (at least one) at a time into the result, so a batch holds one block
    beside its (samples, n) result.  The rows are in the narrowest signed
    type that holds m*(n+1), the largest total degree: int8 up to 127.
    n, m and the variant are checked by ``ProcessParams``, 2 * samples * n *
    m here."""
    ProcessParams(n, m, variant)
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    _check_points(n, m, samples)
    top = m * (n + 1)
    rows = np.empty((samples, n), dtype=np.min_scalar_type(-top - 1))  # signed, holds top
    per = max(1, TARGET_CHUNK // (n * m))
    for start in range(0, samples, per):
        _BATCHES[variant](n, m, rows[start : start + per], rng)
    return rows


def _batch_sequential(n, m, out, rng):
    samples = len(out)
    tgt = sequential_targets(sequential_choices(n * m, samples, rng))
    # count each row's primed targets per block of m, row r's in bins r*n..
    tgt -= 1
    tgt //= m
    tgt += n * np.arange(samples, dtype=tgt.dtype)[:, None]
    counts = np.bincount(tgt.ravel(), minlength=samples * n).reshape(samples, n)
    # every primed vertex is the source of one edge: out-degree m
    np.add(counts, m, out=out)


def _batch_urn(n, m, out, rng):
    # Two searches: urn_targets buckets the keys of one graph; this counts,
    # per block boundary, the keys beyond it.  urn_targets' search run over a
    # whole block (a bucket table per graph, then a bincount into rows) gave
    # the same rows, but took 81.4 against 14.4 ms at (n, m, samples) =
    # (3, 2, 2e5) and 33.9 against 8.9 ms at (4, 1, 2e5); it won only at
    # large n, 252 against 485 ms at (200, 1, 2e4) and 189 against 1,770 ms
    # at (2000, 1, 600) (2-core Xeon, medians of 7; see ROADMAP item 6).
    big_n, rows = n * m, len(out)
    l, a = _urn_draw(big_n, rows, rng)
    # primed vertex k's edge goes to #{i: l_i < a_k} + 1 (urn_targets), which
    # lies in block v (primed vm+1..vm+m, v from 0) iff l_{vm} < a_k <= l_{vm+m};
    # so out[:, v] is beyond[v] - beyond[v + 1], where beyond[v] counts the
    # keys beyond l_{vm} (all N for v = 0, none for v = n).  A key never
    # exceeds its own stick, so only those of primed vertices above vm can.
    beyond = np.zeros((n + 1, rows), dtype=out.dtype)
    beyond[0] = big_n
    # Boundaries are compared in groups of up to 1024 columns (boundaries
    # times graphs), with a mask of at most 16 TARGET_CHUNKs: (2000, 1, 160)
    # took 452 against 802 ms one boundary a call, (200, 1, 3000) 64.5
    # against 68.9 ms, (30, 1, 2e4) 14.4 against 14.3 ms (medians of 5-9).
    group = max(1, min(1024, 16 * TARGET_CHUNK // big_n) // rows)
    for v in range(1, n, group):
        w = min(v + group, n)
        np.sum(a[v * m :, None] > l[v * m - 1 : w * m - 1 : m], axis=0, out=beyond[v:w])
    np.subtract(beyond[:-1], beyond[1:], out=out.T)
    out += m  # in-degree plus out-degree m


# variant -> (n, m, out, rng) -> None: fill ``out``, a block of
# batch_total_degrees' narrow rows, with the total degrees of the len(out)
# graphs that _KERNELS[variant](n * m, rng) draws in turn.  Each kernel
# stores into the block as it reduces, so no int64 rows are held.
# Pairing keeps two reductions (2-core Xeon): per 2^14 graphs at N = 6, a
# batched pair_targets plus a count took 2.8 ms against pair_degree_rows' 0.83
# (the (3, 2) batch of 2e5: 67-89 ms against 53), and sort-based targets of
# one graph at N = 3e5 took 53 ms against pair_targets' 7.3.
_BATCHES = {
    "sequential": _batch_sequential,
    "urn": _batch_urn,
    "pairing": lambda n, m, out, rng: pair_degree_rows(sample_pairs(n * m, len(out), rng), m, out),
}
