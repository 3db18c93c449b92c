import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdgraph.errors import CapacityError, DomainError
from lcdgraph.lcd import (
    LcdGraph,
    enumerate_pairings,
    pair_degree_rows,
    pair_targets,
    sample_pairs,
)
from lcdgraph.oracles import pairing_count
from lcdgraph.processes import batch_total_degrees, replicate_rng
from pair_tables import edge_list, graph_from_pairs, partner_rows, reference_degree_rows


def reference_pairings(n):
    """The recursive enumerator, one partner tuple per pairing: the smallest
    unpaired point takes each remaining point in turn."""
    partner = [0] * (2 * n + 1)

    def rec(unpaired):
        if not unpaired:
            yield tuple(partner)
            return
        a = unpaired[0]
        for i in range(1, len(unpaired)):
            b = unpaired[i]
            partner[a], partner[b] = b, a
            yield from rec(unpaired[1:i] + unpaired[i + 1 :])
            partner[a] = partner[b] = 0

    yield from rec(list(range(1, 2 * n + 1)))


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_blocks_match_reference(n):
    blocks = list(enumerate_pairings(n))
    assert len(blocks) == 2 * n - 1
    for j, block in enumerate(blocks):
        assert block.dtype == np.int8
        assert block.shape == (pairing_count(n - 1), n, 2)  # (2n-3)!! rows
        assert (block[:, 0] == (1, j + 2)).all()
    a, b = np.concatenate(blocks).transpose(2, 0, 1)
    assert (a < b).all() and (np.diff(a, axis=1) > 0).all()
    partner = np.concatenate([partner_rows(block) for block in blocks])
    assert partner.tolist() == [list(p) for p in reference_pairings(n)]


def test_pairing_count_small_values():
    assert [pairing_count(n) for n in range(1, 7)] == [1, 3, 15, 105, 945, 10395]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_count_matches_double_factorial(n):
    assert sum(len(block) for block in enumerate_pairings(n)) == pairing_count(n)


def test_enumeration_n1_single_pairing():
    (block,) = list(enumerate_pairings(1))
    assert block.tolist() == [[[1, 2]]]


def test_enumeration_distinct_and_deterministic():
    first = np.concatenate(list(enumerate_pairings(4)))
    second = np.concatenate(list(enumerate_pairings(4)))
    assert (first == second).all()
    assert len(np.unique(first, axis=0)) == len(first)


def test_enumeration_errors():
    # checked at the call, before any block is built
    with pytest.raises(DomainError):
        enumerate_pairings(0)
    with pytest.raises(CapacityError):
        enumerate_pairings(9)


def test_pairing_rejects_non_involution():
    # 3 and 4 paired to themselves; 1 paired to itself; 3 in two pairs and 4
    # in none; 4 in two pairs and 3 in none; an odd point count; no points
    for pairs in ([[1, 2], [3, 3], [4, 4]], [[1, 1]], [[1, 3], [2, 3]], [[1, 4], [2, 4]],
                  [1, 2, 3], np.empty((0, 2), dtype=np.int64)):
        with pytest.raises(DomainError):
            graph_from_pairs(np.array(pairs))


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_has_n_vertices_and_n_edges(n):
    for block in enumerate_pairings(n):
        degs = pair_degree_rows(block)
        assert degs.shape == (len(block), n)
        assert (degs.sum(axis=1) == 2 * n).all()
        for pairs, row in zip(block, degs):
            g = graph_from_pairs(pairs)
            assert g.n_vertices == n
            assert g.n_edges == n
            out_degrees = np.bincount(g.src)[1:]
            assert (out_degrees == 1).all()
            assert (g.total_degrees == g.in_degrees + out_degrees).all()
            assert (g.total_degrees == row).all()


def graph_of(pairs):
    return graph_from_pairs(np.array(pairs, dtype=np.int64))


def test_merge_rule_hand_traces():
    g = graph_of([[1, 2]])  # chord 1-2
    assert edge_list(g) == [(1, 1)]

    g = graph_of([[1, 2], [3, 4]])  # chords 1-2 and 3-4
    assert edge_list(g) == [(1, 1), (2, 2)]
    assert np.cumsum(g.total_degrees)[0] == 2

    # chords 1-3 and 2-4: points {1,2,3} merge into v1, {4} is v2
    g = graph_of([[1, 3], [2, 4]])
    assert sorted(edge_list(g)) == [(1, 1), (2, 1)]
    assert np.cumsum(g.total_degrees)[0] == 3
    # the pairs in draw order give the same graph
    assert edge_list(graph_of([[2, 4], [1, 3]])) == edge_list(g)


def test_degree_prefix_sums_full_range():
    g = graph_of([[1, 3], [2, 4]])  # chords 1-3 and 2-4
    prefix = np.cumsum(g.total_degrees)
    assert prefix.tolist() == [3, 4]  # one sum per vertex 1..n
    assert prefix[g.n_vertices - 1] == 2 * g.n_edges


def test_sample_n1_deterministic():
    for seed in (0, 1, 12345):
        assert sample_pairs(1, 1, replicate_rng(seed)).tolist() == [[[1, 2]]]


def test_sample_deterministic_given_seed():
    a = sample_pairs(50, 1, replicate_rng(7))
    b = sample_pairs(50, 1, replicate_rng(7))
    assert (a == b).all()


def test_sample_errors():
    with pytest.raises(DomainError):
        sample_pairs(0, 1, replicate_rng(0))
    with pytest.raises(DomainError):
        sample_pairs(0, 3, replicate_rng(0))


@pytest.mark.parametrize("big_n", range(1, 7))
def test_partner_degree_rows_every_pairing_and_block(big_n):
    # every pairing of 2N <= 12 points, every block size m dividing N
    pairs = np.concatenate(list(enumerate_pairings(big_n)))
    partner = partner_rows(pairs)
    for m in (d for d in range(1, big_n + 1) if big_n % d == 0):
        rows = pair_degree_rows(pairs, m)
        assert rows.dtype == np.int8
        assert rows.shape == (len(partner), big_n // m)
        assert (rows == reference_degree_rows(partner, m)).all()
        # written into a strided view of a wider table, as enumerate does
        table = np.full((len(pairs), 2 * big_n + big_n // m), -1, dtype=np.int8)
        view = table[:, 2 * big_n :]
        assert pair_degree_rows(pairs, m, out=view) is view
        assert (view == rows).all()
        assert (table[:, : 2 * big_n] == -1).all()


@pytest.mark.parametrize("n, samples", [(1, 4), (3, 500), (10, 200)])
def test_batch_pairing_rows_match_the_reference(n, samples):
    # one seed, one shuffle: the batch rows are the per-point count of the
    # sampled tables, for every block size m dividing N = n
    for m in (d for d in range(1, n + 1) if n % d == 0):
        rows = batch_total_degrees("pairing", n // m, m, samples, replicate_rng(31, n))
        partner = partner_rows(sample_pairs(n, samples, replicate_rng(31, n)))
        assert rows.tolist() == reference_degree_rows(partner, m).tolist()


@pytest.mark.parametrize("n", [1, 2, 50, 1000])
def test_pairing_targets_match_the_vertex_scan(n):
    pairs = sample_pairs(n, 1, replicate_rng(8, n))
    partner = partner_rows(pairs)[0]
    is_right = partner[1:] < np.arange(1, 2 * n + 1)
    vertex = np.concatenate([[0], np.cumsum(is_right) - is_right + 1])
    assert pair_targets(pairs[0]).tolist() == vertex[partner[1:][is_right]].tolist()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_sampled_pairing_is_valid_involution(n, seed):
    pairs = sample_pairs(n, 1, replicate_rng(seed))
    idx = np.arange(1, 2 * n + 1)
    assert pairs.shape == (1, n, 2)
    assert np.sort(pairs, axis=None).tolist() == idx.tolist()  # every point once
    assert (pairs[..., 0] < pairs[..., 1]).all()
    partner = partner_rows(pairs)[0]
    assert (partner[partner[1:]] == idx).all() and (partner[1:] != idx).all()
    g = graph_from_pairs(pairs[0])  # checks the pairing too
    assert g.n_vertices == n and g.n_edges == n


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampling_uniform_chi_square(n):
    from scipy import stats

    samples = 10**6
    # each partner array as a base-(2n+1) code, looked up among all pairings
    weights = (2 * n + 1) ** np.arange(2 * n + 1)
    partner = np.concatenate([partner_rows(b) for b in enumerate_pairings(n)])
    codes = partner.astype(np.int64) @ weights
    order = np.argsort(codes)
    drawn = partner_rows(sample_pairs(n, samples, replicate_rng(2024, n))) @ weights
    slot = np.searchsorted(codes[order], drawn)
    assert (codes[order][slot] == drawn).all()
    counts = np.bincount(order[slot], minlength=codes.size)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001


def test_graph_from_pairs_rejects_garbage():
    bad = np.array([[1, 1], [2, 2]], dtype=np.int64)  # points paired to themselves
    with pytest.raises(DomainError):
        graph_from_pairs(bad)
    open_end = np.array([[1, 2], [1, 3]], dtype=np.int64)  # 2n = 4 in no pair
    with pytest.raises(DomainError):
        graph_from_pairs(open_end)
    for pairs in ([[1, 2], [1, 2]],  # a repeated point
                  [[1, 3], [4, 2]],  # a > b, every point once
                  [[1, 2], [3, 5]],  # 4 missing
                  [[0, 1], [2, 3]],  # 4 missing, 0 not a point
                  np.empty((0, 2), dtype=np.int64)):  # an empty table
        with pytest.raises(DomainError):
            graph_from_pairs(np.array(pairs, dtype=np.int64))


def test_graph_degree_modes():
    g = LcdGraph(2, 1, np.array([1, 1]))
    assert g.in_degrees.tolist() == [2, 0]
    assert np.bincount(g.src)[1:].tolist() == [1, 1]
    assert g.total_degrees.tolist() == [3, 1]
    g = LcdGraph(2, 2, np.array([1, 1, 1, 2]))
    assert edge_list(g) == [(1, 1), (1, 1), (2, 1), (2, 2)]
    assert g.total_degrees.tolist() == [5, 3]
    for n, m, tgt in ((2, 1, [1]), (2, 2, [1, 1, 1]), (1, 1, [[1]])):
        with pytest.raises(DomainError):
            LcdGraph(n, m, np.array(tgt))  # n * m targets, one per edge


def test_graph_keeps_its_int32_targets():
    tgt = np.array([1, 1, 1, 2], dtype=np.int32)
    g = LcdGraph(2, 2, tgt)
    assert g.tgt is tgt  # no widening copy
    assert g.src.tolist() == [1, 1, 2, 2] and g.src.dtype == np.int32
