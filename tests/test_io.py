import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdgraph.errors import DomainError
from lcdgraph.io import CHUNK_EDGES, write_graph
from lcdgraph.lcd import LcdGraph


def reference_csv(src, tgt) -> bytes:
    """The per-edge f-string writer: the byte contract of ``write_graph``."""
    return "".join(f"{s},{t}\n" for s, t in zip(src, tgt)).encode()


def written(tmp_path, src, tgt, n_vertices=1) -> bytes:
    path = write_graph(LcdGraph(n_vertices, src, tgt), tmp_path / "g.csv")
    return path.read_bytes()


def mixed_widths(size: int, seed: int) -> np.ndarray:
    """Ids of 1 to 8 digits, mixed within every chunk."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10 ** rng.integers(1, 9, size))


def test_single_edge(tmp_path):
    assert written(tmp_path, [1], [1]) == b"1,1\n"


def test_digit_boundaries(tmp_path):
    ids = [v for k in range(1, 8) for v in (10**k - 1, 10**k)]  # 9, 10, ..., 10**7
    assert written(tmp_path, ids, ids) == reference_csv(ids, ids)
    assert written(tmp_path, ids, ids[::-1]) == reference_csv(ids, ids[::-1])
    zeros = [0, 0, 10, 0]
    assert written(tmp_path, zeros, zeros[::-1]) == b"0,0\n0,10\n10,0\n0,0\n"


def test_source_and_target_widths_differ(tmp_path):
    narrow, wide = [1, 2, 9, 3], [10**7, 5, 123456, 99]
    assert written(tmp_path, narrow, wide) == reference_csv(narrow, wide)
    assert written(tmp_path, wide, narrow) == reference_csv(wide, narrow)


@pytest.mark.parametrize("size", [CHUNK_EDGES - 1, CHUNK_EDGES, CHUNK_EDGES + 1])
def test_chunk_edges(tmp_path, size):
    src, tgt = mixed_widths(size, 0), mixed_widths(size, 1)
    assert written(tmp_path, src, tgt) == reference_csv(src.tolist(), tgt.tolist())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)), min_size=1, max_size=40
    )
)
def test_matches_reference_writer(tmp_path_factory, edges):
    src, tgt = zip(*edges)
    assert written(tmp_path_factory.mktemp("io"), src, tgt) == reference_csv(src, tgt)


def test_empty_graph(tmp_path):
    assert written(tmp_path, [], [], n_vertices=0) == b""


def test_negative_ids_rejected(tmp_path):
    with pytest.raises(DomainError):
        written(tmp_path, [1, -2], [1, 1])
