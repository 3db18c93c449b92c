import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdgraph.errors import DomainError
from lcdgraph.io import CHUNK_CELLS, graph_files, write_graph, write_json, write_rows
from lcdgraph.lcd import LcdGraph


def reference_csv(src, tgt) -> bytes:
    """The per-edge f-string writer: the byte contract of ``write_graph``,
    and of ``write_rows`` with separators b",\\n"."""
    return "".join(f"{s},{t}\n" for s, t in zip(src, tgt)).encode()


def reference_rows(columns, seps: bytes) -> bytes:
    """The per-row f-string writer: the byte contract of ``write_rows``."""
    return "".join(
        f"{v}{chr(sep)}" for row in zip(*columns) for v, sep in zip(row, seps)
    ).encode("latin-1")


def rows_written(tmp_path, columns, seps: bytes) -> bytes:
    path = tmp_path / "rows.txt"
    with open(path, "wb") as fh:
        write_rows(fh, [np.asarray(c, dtype=np.int64) for c in columns], seps)
    return path.read_bytes()


def written(tmp_path, src, tgt) -> bytes:
    """The bytes ``write_graph`` writes for an edge list with any columns."""
    return rows_written(tmp_path, [src, tgt], b",\n")


def mixed_widths(size: int, seed: int) -> np.ndarray:
    """Ids of 1 to 8 digits, mixed within every chunk."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10 ** rng.integers(1, 9, size))


def test_single_edge(tmp_path):
    assert written(tmp_path, [1], [1]) == b"1,1\n"


def test_write_graph_edges_and_header(tmp_path):
    g = LcdGraph(3, 2, [1, 1, 1, 2, 2, 3])
    header = {"n": 3, "m": 2, "variant": "urn", "seed": 7}
    path = write_graph(g, tmp_path / "g.csv", header)
    assert path.read_bytes() == b"1,1\n1,1\n2,1\n2,2\n3,2\n3,3\n"
    assert path.read_bytes() == reference_csv(g.src.tolist(), g.tgt.tolist())
    header_text = (tmp_path / "g.csv.header.json").read_text()
    assert header_text == json.dumps(header, indent=2, sort_keys=True) + "\n"
    assert sorted(tmp_path.iterdir()) == graph_files(path)  # the files written, named


def test_write_json_bytes(tmp_path):
    obj = {"b": [1, 2.5, None], "a": {"y": True, "x": "z"}}
    write_json(tmp_path / "o.json", obj)
    assert (tmp_path / "o.json").read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value, error", [(float("nan"), ValueError), (np.int64(3), TypeError)],
                         ids=["nan", "np.int64"])
def test_write_json_is_strict(tmp_path, value, error):
    with pytest.raises(error):
        write_json(tmp_path / "o.json", {"value": value})


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


CHUNK_EDGES = CHUNK_CELLS // 2  # rows per chunk of a 2-column edge list


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


@pytest.mark.parametrize("n, m", [(CHUNK_EDGES // 3, 3), (CHUNK_EDGES // 3 + 1, 3)])
def test_write_graph_builds_sources_per_chunk(tmp_path, n, m):
    # a chunk of CHUNK_EDGES edges ends inside vertex 21846's three edges
    g = LcdGraph(n, m, np.random.default_rng(n).integers(1, n + 1, n * m))
    path = write_graph(g, tmp_path / "g.csv", {})
    assert path.read_bytes() == reference_csv(g.src.tolist(), g.tgt.tolist())


def test_rows_of_1_to_19_digits_across_a_chunk(tmp_path):
    rng = np.random.default_rng(7)
    size = CHUNK_EDGES + 5
    # 19-digit ids cut by 10**0..10**18: every width from 19 digits down to 1
    columns = [
        rng.integers(0, 2**63 - 1, size) // 10 ** rng.integers(0, 19, size) for _ in range(4)
    ]
    widths = {len(str(v)) for c in columns for v in c.tolist()}
    assert widths == set(range(1, 20))
    seps = b" ;|\n"
    expected = reference_rows([c.tolist() for c in columns], seps)
    assert rows_written(tmp_path, columns, seps) == expected


WIDE_CHUNK = CHUNK_CELLS // 21  # rows per chunk of an ``enumerate --n 7`` table


@pytest.mark.parametrize("size", [WIDE_CHUNK - 1, WIDE_CHUNK, WIDE_CHUNK + 1])
def test_chunk_of_a_wide_int8_table(tmp_path, size):
    # 14 pair points and 7 degrees, int8 columns strided as enumerate passes them
    rng = np.random.default_rng(size)
    table = np.concatenate(
        [rng.integers(1, 15, (size, 14)), rng.integers(0, 15, (size, 7))], axis=1
    ).astype(np.int8)
    seps = b"-;" * 6 + b"-," + b";" * 6 + b"\n"
    path = tmp_path / "rows.txt"
    with open(path, "wb") as fh:
        write_rows(fh, table.T, seps)
    assert path.read_bytes() == reference_rows(table.T.tolist(), seps)


@st.composite
def tables(draw):
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 30))
    column = st.lists(st.integers(0, 2**63 - 1), min_size=rows, max_size=rows)
    seps = draw(st.binary(min_size=cols, max_size=cols).filter(lambda b: 0 not in b))
    return [draw(column) for _ in range(cols)], seps


@settings(max_examples=200, deadline=None)
@given(tables())
def test_rows_match_reference_writer(tmp_path_factory, table):
    columns, seps = table
    got = rows_written(tmp_path_factory.mktemp("rows"), columns, seps)
    assert got == reference_rows(columns, seps)


def test_empty_graph(tmp_path):
    assert written(tmp_path, [], []) == b""
    path = write_graph(LcdGraph(0, 1, []), tmp_path / "g.csv", {})
    assert path.read_bytes() == b""


def test_negative_ids_rejected(tmp_path):
    with pytest.raises(DomainError):
        written(tmp_path, [1, -2], [1, 1])


@pytest.mark.parametrize("top", [2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63 - 1])
def test_narrowing_boundaries_next_to_zeros(tmp_path, top):
    # ``top`` is the chunk's largest value, so it picks the int type the chunk is cast to
    column = [0, top, 0, top - 1, 0, 0, 1, top, 10, 0]
    columns = [column, column[::-1], [0] * len(column)]
    assert rows_written(tmp_path, columns, b",;\n") == reference_rows(columns, b",;\n")


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_small_int_columns(tmp_path, dtype):
    top = np.iinfo(dtype).max
    values = np.arange(top + 1, dtype=dtype)
    columns = [values, values[::-1], np.zeros_like(values)]
    path = tmp_path / "rows.txt"
    with open(path, "wb") as fh:
        write_rows(fh, columns, b"-,\n")
    assert path.read_bytes() == reference_rows([c.tolist() for c in columns], b"-,\n")


def test_negative_in_second_chunk_leaves_the_first_written(tmp_path):
    src, tgt = mixed_widths(CHUNK_EDGES + 10, 2), mixed_widths(CHUNK_EDGES + 10, 3)
    src[CHUNK_EDGES + 3] = -1
    path = tmp_path / "rows.txt"
    with open(path, "wb") as fh, pytest.raises(DomainError):
        write_rows(fh, (src, tgt), b",\n")
    first = reference_csv(src[:CHUNK_EDGES].tolist(), tgt[:CHUNK_EDGES].tolist())
    assert path.read_bytes() == first
