import copy
import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from lcdgraph import processes
from lcdgraph.errors import CapacityError, DomainError
from lcdgraph.lcd import LcdGraph, pair_targets
from lcdgraph.processes import (
    DRAW_CHUNK,
    POINT_CAP,
    TARGET_CHUNK,
    VARIANTS,
    _BATCHES,
    _KERNELS,
    ProcessParams,
    _urn_draw,
    batch_total_degrees,
    generate,
    replicate_rng,
    sequential_choices,
    sequential_targets,
    urn_targets,
)
from pair_tables import edge_list


def reference_targets(choices):
    """Edge targets of the sequential process by its defining loop: primed
    vertex t appends itself at slot 2t-2, then a copy of slot choices[t-1]."""
    endpoints = []
    for t, c in enumerate(choices, 1):
        endpoints.append(t)
        endpoints.append(endpoints[c])
    return endpoints[1::2]


def test_params_validation():
    with pytest.raises(DomainError):
        ProcessParams(0, 1)
    with pytest.raises(DomainError):
        ProcessParams(1, 0)
    with pytest.raises(DomainError, match="'magic'"):
        ProcessParams(1, 1, variant="magic")
    # the point cap and the seed are checked when the run is described, not
    # when its first graph is drawn
    with pytest.raises(CapacityError, match="exceed the cap"):
        ProcessParams(POINT_CAP // 2 + 1, 1)
    ProcessParams(POINT_CAP // 2, 1)
    with pytest.raises(DomainError, match="--seed"):
        ProcessParams(5, 1, "sequential", -1)


def test_one_connection_n1_deterministic():
    for seed in (0, 99):
        g = generate(ProcessParams(1, 1, "sequential", seed))
        assert edge_list(g) == [(1, 1)]


def test_n2_attachment_probabilities():
    # v2 self-loops w.p. 1/3 (then D1 = 2), else attaches to v1 (D1 = 3)
    runs = 10**5
    d1_3 = 0
    params = ProcessParams(2, 1, "sequential", 11)
    for r in range(runs):
        g = generate(params, r)
        if int(g.total_degrees[0]) == 3:
            d1_3 += 1
    assert abs(d1_3 / runs - 2 / 3) < 0.005


def test_sequential_kernel_matches_reference_loop():
    # all 945 choice vectors of N = 5 primed vertices, one per row
    choices = np.array(list(itertools.product(*(range(2 * t - 1) for t in range(1, 6)))))
    assert choices.shape == (945, 5)
    assert sequential_targets(choices).tolist() == [reference_targets(c) for c in choices.tolist()]
    # seeded graphs with m = 3: generate equals the loop run on the stream
    # rng.integers(0, 2t - 1) over t, so the seed-to-bytes mapping holds
    for n, seed, replicate in ((1, 0, 0), (7, 3, 1), (2000, 11, 4)):
        g = generate(ProcessParams(n, 3, "sequential", seed), replicate)
        stream = replicate_rng(seed, replicate).integers(0, 2 * np.arange(1, 3 * n + 1) - 1)
        tgt = np.array(reference_targets(stream.tolist()))
        assert g.src.tolist() == np.repeat(np.arange(1, n + 1), 3).tolist()
        assert g.tgt.tolist() == ((tgt - 1) // 3 + 1).tolist()


# rows that end just before, at and just after a block edge, a row over two
# edges, and rows that cross edges inside them
@pytest.mark.parametrize("big_n, samples", [(TARGET_CHUNK - 1, 1), (TARGET_CHUNK, 1),
                                            (TARGET_CHUNK + 1, 1), (2 * TARGET_CHUNK + 3, 1),
                                            (7000, 5)])
def test_sequential_targets_across_blocks(big_n, samples):
    choices = sequential_choices(big_n, samples, replicate_rng(13, big_n))
    assert sequential_targets(choices).tolist() == [reference_targets(c) for c in choices.tolist()]


def test_sequential_targets_in_tiny_blocks(monkeypatch):
    # all 945 choice vectors of N = 5 in blocks of 7 entries: block edges at
    # every position of a row
    choices = np.array(list(itertools.product(*(range(2 * t - 1) for t in range(1, 6)))))
    whole = sequential_targets(choices)
    monkeypatch.setattr(processes, "TARGET_CHUNK", 7)
    assert np.array_equal(sequential_targets(choices), whole)


def test_kernel_gathers_refuse_an_index_out_of_range():
    # the gathers keep numpy's default mode, which raises; mode="clip" would
    # read vertex 2's choice 7 (it draws from [0, 2]) as the last entry and
    # return targets
    with pytest.raises(IndexError):
        sequential_targets(np.array([[0, 7, 0]], dtype=np.int32))
    with pytest.raises(IndexError):
        pair_targets(np.array([[1, 5]]))


def urn_search_inputs():
    """(l, keys) of urn_targets: one urn drawn at N = 1000, then, for each N,
    a non-decreasing l with ties (values to 2 decimals) that ends at 1.0,
    searched at 0, at 1, at every boundary and at the floats on either side
    of each boundary that lie in [0, 1]."""
    yield tuple(c[:, 0] for c in _urn_draw(1000, 1, replicate_rng(2)))
    for big_n in (1, 2, 3, 7, 50, 1000):
        l = np.sort(np.random.default_rng(big_n).random(big_n).round(2))
        l[-1] = 1.0
        keys = np.concatenate([[0.0, 1.0], l, np.nextafter(l, -1.0), np.nextafter(l, 2.0)])
        yield l, keys[(keys >= 0.0) & (keys <= 1.0)]


def test_urn_targets_in_tiny_blocks(monkeypatch):
    # a key goes to 1 + the boundaries below it, whatever the block size;
    # ties and keys next to a boundary test where each bucket walk stops
    inputs = list(urn_search_inputs())
    for chunk in (TARGET_CHUNK, 7):
        monkeypatch.setattr(processes, "TARGET_CHUNK", chunk)
        for l, keys in inputs:
            assert np.array_equal(urn_targets(l, keys), np.searchsorted(l, keys, side="left") + 1)


def words_drawn(seed, replicate, draw, at_least):
    """32-bit words that ``draw`` takes from the fresh stream
    ``replicate_rng(seed, replicate)``, found by stepping a second fresh
    PCG64 from ``at_least`` words on until the two states meet."""
    rng = replicate_rng(seed, replicate)
    draw(rng)
    end = rng.bit_generator.state
    walker = replicate_rng(seed, replicate).bit_generator
    outputs = at_least // 2
    walker.advance(outputs)
    while walker.state["state"] != end["state"]:
        walker.advance(1)
        outputs += 1
    return 2 * outputs - end["has_uint32"]


def test_int32_choices_are_the_int64_stream():
    # every flat pointer of sequential_targets, < samples * N <= POINT_CAP // 2,
    # fits int32
    assert POINT_CAP // 2 < 2**31
    big_n = 3 * 10**5
    highs = 2 * np.arange(1, big_n + 1) - 1
    choices = sequential_choices(big_n, 1, replicate_rng(5, 0))
    assert choices.dtype == np.int32
    assert np.array_equal(choices[0], replicate_rng(5, 0).integers(0, highs))
    # at this N the draw rejects some words (about ten expected), and the
    # int32 draw rejects the same ones
    rejected = words_drawn(5, 0, lambda rng: sequential_choices(big_n, 1, rng), big_n) - big_n
    assert 0 < rejected < 40
    # a batch of rows, also from a generator that holds a spare 32-bit half
    for spare_half in (False, True):
        rng = replicate_rng(8, 3)
        if spare_half:
            rng.integers(0, 5, dtype=np.int32)
        twin = copy.deepcopy(rng)
        rows = sequential_choices(2000, 5, rng)
        assert np.array_equal(rows, twin.integers(0, highs[:2000], size=(5, 2000)))


def same_stream(big_n, samples, rng):
    """Check that ``sequential_choices`` draws from ``rng`` what
    ``rng.integers(0, highs)`` draws from a copy of it: the same choices, the
    same generator state after, spare 32-bit half included, and the same
    draws after that."""
    twin = copy.deepcopy(rng)
    choices = sequential_choices(big_n, samples, rng)
    highs = 2 * np.arange(1, big_n + 1, dtype=np.int32) - 1
    expected = twin.integers(0, highs, size=(samples, big_n), dtype=np.int32)
    assert choices.dtype == np.int32
    assert np.array_equal(choices, expected)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert np.array_equal(rng.integers(0, 10**6, 3, dtype=np.int32),
                          twin.integers(0, 10**6, 3, dtype=np.int32))
    assert np.array_equal(rng.random(2), twin.random(2))


def draws_from(seed, replicate, spare_half):
    rng = replicate_rng(seed, replicate)
    if spare_half:  # one 32-bit draw leaves the high half of a word spare
        rng.integers(0, 5, dtype=np.int32)
    return rng


@pytest.mark.parametrize("spare_half", [False, True])
@pytest.mark.parametrize("big_n", [1, 2, 3])
def test_draw_stream_tiny(big_n, spare_half):
    same_stream(big_n, 1, draws_from(big_n, 2, spare_half))
    # vertex 1 takes no word, and ranges this small reject none
    draw = lambda rng: sequential_choices(big_n, 1, rng)  # noqa: E731
    assert words_drawn(big_n, 2, draw, 0) == big_n - 1


@pytest.mark.parametrize("big_n, samples", [(2, 1), (2, 4), (5, 2)])
def test_draw_stream_rejects_a_zero_half(big_n, samples):
    # a spare half of 0 gives m = 0 at range 3, below 2^32 mod 3 = 1, so the
    # first draw rejects it; at N = 2 that draw is the last of its row
    rng = replicate_rng(1, 0)
    state = rng.bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    rng.bit_generator.state = state
    same_stream(big_n, samples, rng)


def test_draw_stream_with_rejections():
    big_n = 10**6
    same_stream(big_n, 1, replicate_rng(5, 1))
    draw = lambda rng: sequential_choices(big_n, 1, rng)  # noqa: E731
    rejected = words_drawn(5, 1, draw, big_n) - (big_n - 1)
    assert 60 < rejected < 200  # about N^2 / 2^33 = 116 expected


# rows that end inside a chunk, rows longer than a chunk, and (with the chunk
# made small) rejections in many chunks
@pytest.mark.parametrize("chunk", [DRAW_CHUNK, 1000])
@pytest.mark.parametrize("big_n, samples", [(7, 3000), (DRAW_CHUNK // 2 + 1, 5),
                                            (DRAW_CHUNK + 5, 3), (3 * 10**5, 1)])
def test_draw_stream_across_chunks(monkeypatch, chunk, big_n, samples):
    monkeypatch.setattr(processes, "DRAW_CHUNK", chunk)
    for spare_half in (False, True):
        same_stream(big_n, samples, draws_from(big_n, samples, spare_half))


@pytest.mark.parametrize("big_n", [999, 1000, 1001, 2500])
def test_draw_stream_hands_long_rows_to_numpy(monkeypatch, big_n):
    monkeypatch.setattr(processes, "DRAW_HANDOFF", 1000)
    for spare_half in (False, True):
        same_stream(big_n, 3, draws_from(big_n, 7, spare_half))


# tail blocks of 1 and 3 columns, one that ends at a row's end and one
# longer than the tail: block edges at every position, and none
@pytest.mark.parametrize("block", [1, 3, 750, 4000])
def test_draw_stream_tail_in_blocks(monkeypatch, block):
    monkeypatch.setattr(processes, "DRAW_HANDOFF", 1000)
    monkeypatch.setattr(processes, "DRAW_TAIL_BLOCK", block)
    for spare_half in (False, True):
        same_stream(2500, 2, draws_from(block, 9, spare_half))


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                  np.random.PCG64DXSM])
def test_draw_needs_pcg64(bits):
    rng = np.random.Generator(bits(0))
    with pytest.raises(DomainError, match="PCG64"):
        sequential_choices(5, 1, rng)
    with pytest.raises(DomainError, match="PCG64"):
        batch_total_degrees("sequential", 3, 1, 10, rng)


def test_multi_m2_n1_two_loops():
    g = generate(ProcessParams(1, 2, "sequential", 3))
    assert edge_list(g) == [(1, 1), (1, 1)]
    assert int(g.total_degrees[0]) == 4


@pytest.mark.parametrize("variant", ["sequential", "urn", "pairing"])
def test_handshake_identity(variant):
    g = generate(ProcessParams(10**3, 2, variant, 17))
    assert int(g.total_degrees.sum()) == 4 * 10**3
    assert int(g.in_degrees.sum()) == 2 * 10**3
    assert (np.bincount(g.src)[1:] == 2).all()


@pytest.mark.parametrize("variant", VARIANTS)
def test_targets_are_int32_from_kernel_to_graph(variant):
    assert _KERNELS[variant](30, replicate_rng(5)).dtype == np.int32
    g = generate(ProcessParams(10, 3, variant, 5))
    assert g.tgt.dtype == g.src.dtype == np.int32


def test_multi_m2_large_handshake():
    g = generate(ProcessParams(10**5, 2, "sequential", 1))
    assert int(g.total_degrees.sum()) == 4 * 10**5


def test_determinism_identical_params():
    p = ProcessParams(500, 3, "urn", 21)
    a, b = generate(p, 4), generate(p, 4)
    assert (a.src == b.src).all() and (a.tgt == b.tgt).all()


def test_replicates_differ():
    p = ProcessParams(500, 1, "sequential", 21)
    a, b = generate(p, 0), generate(p, 1)
    assert (a.tgt != b.tgt).any()


def test_urn_weights_n1():
    # one primed vertex: psi_1 = 1 and its stick is the whole of [0, 1]
    l = _urn_draw(1, 1, replicate_rng(0))[0]
    assert l.tolist() == [[1.0]]


def test_urn_alpha2_mean_is_half():
    # psi_2 ~ Beta(1, 2) has mean 1/3: the probability that vertex 2
    # self-loops in the sequential process (see test_n2_attachment_probabilities);
    # l_1 = 1 - psi_2
    draws = [1 - _urn_draw(2, 1, replicate_rng(8, r))[0][0, 0] for r in range(10**4)]
    assert abs(float(np.mean(draws)) - 1 / 3) < 0.01


def test_urn_l_non_decreasing_and_normalized():
    l = _urn_draw(2 * 10**4, 1, replicate_rng(9))[0][:, 0]
    assert (np.diff(l) >= 0).all()
    assert l[-1] == 1.0


def test_kappa_boundaries():
    # kappa, the key -> vertex map of the urn (urn_targets), sends the ends
    # of [0, l_N] to vertices 1 and N
    l = _urn_draw(50, 1, replicate_rng(3))[0][:, 0]
    assert urn_targets(l, np.array([0.0, l[-1]])).tolist() == [1, 50]


def test_kappa_hand_example():
    # a key goes to the first vertex whose cumulative length reaches it
    l = np.array([0.2, 0.5, 1.0])
    assert urn_targets(l, np.array([0.0, 0.4, 0.5, 1.0])).tolist() == [1, 2, 2, 3]
    with pytest.raises(DomainError):
        urn_targets(l, np.array([0.4, 1.5]))


def test_urn_n1_loop():
    g = generate(ProcessParams(1, 1, "urn", 0))
    assert edge_list(g) == [(1, 1)]


def test_urn_targets_precede_sources():
    g = generate(ProcessParams(200, 2, "urn", 5))
    assert (g.tgt <= g.src).all()
    assert g.tgt[g.src == 1].tolist() == [1, 1]  # vertex 1's m edges are all loops


def test_pairing_variant_n1_loop_and_cap():
    g = generate(ProcessParams(1, 1, "pairing", 0))
    assert edge_list(g) == [(1, 1)]
    # 2 * samples * n * m points one graph or one batch past the cap, for
    # every variant; the check comes before any allocation
    for variant in VARIANTS:
        with pytest.raises(CapacityError):
            generate(ProcessParams(POINT_CAP // 6 + 1, 3, variant, 0))
        with pytest.raises(CapacityError):
            batch_total_degrees(variant, 5, 2, POINT_CAP // 20 + 1, replicate_rng(0))


def test_pairing_variant_d1_probability():
    runs = 2 * 10**4
    params = ProcessParams(2, 1, "pairing", 13)
    hits = sum(int(generate(params, r).total_degrees[0]) == 3 for r in range(runs))
    assert abs(hits / runs - 2 / 3) < 0.02


def test_urn_variant_d1_probability():
    runs = 2 * 10**4
    params = ProcessParams(2, 1, "urn", 13)
    hits = sum(int(generate(params, r).total_degrees[0]) == 3 for r in range(runs))
    assert abs(hits / runs - 2 / 3) < 0.02


def test_batch_matches_exact_law_sequential_and_pairing():
    from lcdgraph.analysis import degree_rows_to_distribution
    from lcdgraph.exact import exact_sequential_law, tv_distance

    exact = {k: float(v) for k, v in exact_sequential_law(3).items()}
    for variant in ("sequential", "pairing"):
        rows = batch_total_degrees(variant, 3, 1, 5 * 10**4, replicate_rng(1, 0))
        tv = tv_distance(degree_rows_to_distribution(rows), exact)
        assert tv < 0.02, (variant, tv)


def test_urn_matches_sequential_at_n3():
    from lcdgraph.analysis import degree_rows_to_distribution
    from lcdgraph.exact import exact_sequential_law, tv_distance

    exact = {k: float(v) for k, v in exact_sequential_law(3).items()}
    rows = batch_total_degrees("urn", 3, 1, 10**5, replicate_rng(2, 0))
    tv = tv_distance(degree_rows_to_distribution(rows), exact)
    assert tv <= 0.01


def test_batch_rejects_unknown_variant():
    with pytest.raises(DomainError, match="chord"):
        batch_total_degrees("chord", 3, 1, 10, replicate_rng(0))


def test_batch_rejects_nonpositive_sizes():
    # n and m are checked as a run's, by ProcessParams; samples by the batch
    for variant in VARIANTS:
        for n, m, samples, named in ((3, 1, 0, "samples"), (3, 1, -5, "samples"),
                                     (0, 1, 10, "n and m"), (3, 0, 10, "n and m"),
                                     (3, -1, 10, "n and m")):
            with pytest.raises(DomainError, match=named):
                batch_total_degrees(variant, n, m, samples, replicate_rng(0))


def test_negative_seed_or_replicate_rejected():
    # each message names the one flag that is negative, and its value
    for seed, replicate, flag in ((-1, 0, "--seed"), (0, -2, "--replicate")):
        message = rf"^{flag} must be >= 0, got {min(seed, replicate)}$"
        with pytest.raises(DomainError, match=message):
            replicate_rng(seed, replicate)
        with pytest.raises(DomainError, match=message):
            generate(ProcessParams(5, 1, "sequential", seed), replicate)


# sha256 of the rows of batch_total_degrees(variant, n, m, samples,
# replicate_rng(17, 10 * n + m)), widened to little-endian int64: the
# seed-to-bytes contract of the batch path.  Sequential and pairing were
# recorded before their rows came from right-endpoint gaps, the sequential
# pointer setup lost its np.where and the rows were narrowed to int8; the urn
# when its rows became its kernel's graphs, drawn in turn.  No variant's rows
# depend on the block size; the (3, 2, 20000) case spans several blocks.
BATCH_DIGESTS = {
    ("sequential", 3, 2, 2000): "ce17acb93ea9db3e3f4f849147c059d0be6db0cc9b7f5bb753a820881d6ef153",
    ("sequential", 4, 1, 1500): "df6b728570827947ad50122fad919688f712c327987168766d2c23b6e304f332",
    ("sequential", 2, 3, 1000): "c821d0fdbe5d6de119c77664b82dce6e9d3ca383bddc5606e4e953e300def45b",
    ("pairing", 3, 2, 2000): "ab89e8f2aed1f7fcf7d75b034f246cd089ba401cd5d943b2cd640ae6b228813d",
    ("pairing", 4, 1, 1500): "713628b1bcba326dbcb5cde374542bc9af2dcb215bf7a013e3323fcd1e783640",
    ("pairing", 2, 3, 1000): "e1c8c97ce473e20aa62ca4efddf17e2850c68a0cae2381a72ca8d87d0134b82c",
    ("urn", 3, 2, 2000): "a560e4458dc172253b0c14583b717001cec2b401f5b8bcac429901e8060293fd",
    ("urn", 4, 1, 1500): "bf67f7b2f02206c8b9dadd4c5da5e51cf766f7f06e2f2a0f914f85321101d8b8",
    ("urn", 2, 3, 1000): "9fdf18c3b19ea207b3c240a03d8680d1c6f9dd0814de9454a9baaddd099f5ff6",
    ("urn", 3, 2, 20000): "108fef4553b6aa5ca86935e78181d27a79e689b4572b893b4eaf0bec20ee2892",
}


@pytest.mark.parametrize("variant, n, m, samples", sorted(BATCH_DIGESTS))
def test_batch_rows_keep_their_bytes(variant, n, m, samples):
    rows = batch_total_degrees(variant, n, m, samples, replicate_rng(17, 10 * n + m))
    assert rows.dtype == np.int8 and rows.shape == (samples, n)
    digest = hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()
    assert digest == BATCH_DIGESTS[variant, n, m, samples]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n, m, samples", [(3, 2, 300), (4, 1, 200), (2, 3, 100), (30, 1, 50)])
def test_batch_is_its_kernel_drawn_in_turn(monkeypatch, variant, n, m, samples):
    # row i is the total degrees of the graph that the variant's kernel draws
    # i-th from the same stream, in blocks of 100 // (n*m) graphs with a ragged
    # last one; the batch leaves the stream where the kernel draws leave it
    monkeypatch.setattr(processes, "TARGET_CHUNK", 100)
    batch_rng, kernel_rng = replicate_rng(29, n), replicate_rng(29, n)
    rows = batch_total_degrees(variant, n, m, samples, batch_rng)
    drawn = [LcdGraph(n, m, (_KERNELS[variant](n * m, kernel_rng) - 1) // m + 1).total_degrees
             for _ in range(samples)]
    assert np.array_equal(rows, drawn)
    assert batch_rng.bit_generator.state == kernel_rng.bit_generator.state


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_blocks_are_one_draw(variant):
    # three blocks of TARGET_CHUNK // 6 graphs, the last one ragged: the same
    # rows as one call of the row kernel into an int64 block
    samples = 2 * (TARGET_CHUNK // 6) + 1234
    rows = batch_total_degrees(variant, 3, 2, samples, replicate_rng(23, 1))
    whole = np.empty((samples, 3), dtype=np.int64)
    _BATCHES[variant](3, 2, whole, replicate_rng(23, 1))
    assert rows.dtype == np.int8
    assert np.array_equal(rows, whole)


# m*(n+1), the largest total degree, picks the rows' type: at n = 1 the one
# vertex has degree 2m, 126 and 128 on either side of int8's top, 32766 and
# 32768 on either side of int16's
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m, dtype", [(63, np.int8), (64, np.int16), (16383, np.int16),
                                      (16384, np.int32)])
def test_batch_rows_take_the_narrowest_type(variant, m, dtype):
    rows = batch_total_degrees(variant, 1, m, 3, replicate_rng(8))
    assert rows.dtype == dtype
    assert (rows == 2 * m).all()


def traced_peak_mb(call):
    """Peak of the heap that tracemalloc sees (numpy's buffers included)
    while ``call`` runs, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Heap peak with a margin over the 9.0 MB that numpy 2.4 gives here: the
# int32 choices and pointers and the int8 parity, with one block of
# TARGET_CHUNK pending entries.  One pending list of all N/2 odd copies took
# it to 16.5 MB.
def test_generate_1e6_heap_peak():
    peak = traced_peak_mb(lambda: generate(ProcessParams(10**6, 1)))
    assert peak < 11.0, peak


# Heap peak with a margin over the 12.7 MB that numpy 2.4 gives here (13.4 MB
# as the first call in a process): the int64 pair table and pair_targets'
# int32 temporaries.
def test_generate_pairing_heap_peak():
    peak = traced_peak_mb(lambda: generate(ProcessParams(10**5, 3, "pairing")))
    assert peak < 15.0, peak


# Heap peak with a margin over the 8.1 MB that numpy 2.4 gives here (8.8 MB
# as the first call in a process): the sticks, the keys, the int32 bucket
# table and one TARGET_CHUNK block of intp positions (int32 ones, gathered
# by indexing, gave 7.8 and 8.6 MB).  A bisection of the keys in argsort
# order took it to 9.2 MB; searching every key at once, with divisors from
# an int64 arange, to 12.0 MB.
def test_generate_urn_heap_peak():
    peak = traced_peak_mb(lambda: generate(ProcessParams(10**5, 3, "urn")))
    assert peak < 11.0, peak


# tracemalloc peaks at (3, 2, 2e5), after a small batch of the variant has
# run once, are 1.1, 1.6 and 1.6 MB: the 0.6 MB int8 result and one block of
# TARGET_CHUNK primed entries.  Blocks of 2^14 graphs peaked at 2.2, 3.2 and
# 2.4 MB, pairing rows kept as an int64 np.diff of the sorted ends at 4.0 MB;
# an int64 result, 4.8 MB, breaks every bound.
BATCH_HEAP_BOUNDS = {"sequential": 1.5, "pairing": 2.0, "urn": 2.0}


@pytest.mark.parametrize("variant", sorted(BATCH_HEAP_BOUNDS))
def test_batch_heap_peak(variant):
    batch_total_degrees(variant, 3, 2, 1000, replicate_rng(4))
    peak = traced_peak_mb(lambda: batch_total_degrees(variant, 3, 2, 200_000, replicate_rng(4)))
    assert peak < BATCH_HEAP_BOUNDS[variant], peak


# At (200, 1, 5000) the int16 result is 2.0 MB and a block of 163 graphs adds
# about 1 MB: 2.7 (3.4 as the first call in a process), 3.0 and 3.1 MB.  With
# all 5000 graphs in one block of 2^14 the peaks were 22.0, 26.2 and 26.0 MB.
@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_heap_peak_at_n_200(variant):
    peak = traced_peak_mb(lambda: batch_total_degrees(variant, 200, 1, 5000, replicate_rng(4)))
    assert peak < 4.0, peak


def test_batch_handshake_all_variants():
    for variant in ("sequential", "urn", "pairing"):
        rows = batch_total_degrees(variant, 4, 2, 100, replicate_rng(6, 0))
        assert (rows.sum(axis=1) == 16).all()


@pytest.mark.slow
def test_sequential_throughput_1e7_edges():
    start = time.time()
    g = generate(ProcessParams(10**7, 1, "sequential", 123))
    elapsed = time.time() - start
    assert g.n_edges == 10**7
    assert elapsed < 60.0
