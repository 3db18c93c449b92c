"""The layer timing tool, driven in-process with stub runs and small inputs."""

import hashlib
import importlib.util
import py_compile
import shutil
from pathlib import Path

import numpy as np
import pytest

from lcdgraph.oracles import DkQuery, count_ns, prob_dk

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)
REPEATS = bench_layers.REPEATS


def stub_runs(seconds: dict, calls: list) -> list:
    """Two trees' runs: tree t's run of input ``name`` takes seconds[name][t]
    and is logged to ``calls`` as (t, name)."""
    def run(tree, name):
        calls.append((tree, name))
        return [seconds[name][tree]]

    return [lambda name, tree=tree: run(tree, name) for tree in (0, 1)]


def test_compare_pairs_every_run_and_counts_wins():
    calls = []
    runs = stub_runs({"a": (1.0, 2.0), "b": (3.0, 2.0)}, calls)
    facts = [{"a": {"sha256": "x"}, "b": {}}, {"a": {"sha256": "y"}, "b": {}, "only_there": {}}]
    results = bench_layers.compare(runs, facts)
    assert calls == [(tree, name) for repeat in range(REPEATS) for name in "ab"
                     for tree in ((0, 1) if repeat % 2 == 0 else (1, 0))]
    assert list(results) == ["a", "b"]
    assert [results[name]["wins"] for name in "ab"] == [REPEATS, 0]
    assert results["a"]["this"]["sha256"] == "x"
    assert results["a"]["against"]["sha256"] == "y"
    assert results["b"]["against"]["median_s"] == 2.0
    assert all(results[name][side]["repeats"] == REPEATS
               for name in "ab" for side in ("this", "against"))


def test_compare_one_tree_summarises_its_runs():
    starts = iter([(0.1 * i, i == 3, 1000 + i) for i in range(REPEATS)])
    results = bench_layers.compare([lambda name: next(starts)], [{"start": {}}])
    assert results == {"start": {
        "min_s": 0.0, "q1_s": pytest.approx(0.45), "median_s": 1.0, "q3_s": pytest.approx(1.55),
        "repeats": REPEATS, "peak_rss_bytes": 1010 * 1024, "numpy_imported": True}}


def test_every_fresh_start_is_documented():
    doc = bench_layers.__doc__
    assert [name for name in bench_layers.STARTUP if f"- ``{name}``:" not in doc] == []


def test_every_bench_file_belongs_to_a_layer():
    files = {path.name for path in bench_layers.ROOT.glob("BENCH_*.json")}
    assert files == {f"BENCH_{layer}.json" for layer in bench_layers.LAYERS}


def test_a_failing_start_raises_with_its_stderr(tmp_path):
    commands = {"fails": ("import sys\nsys.stderr.write('child-said-' + 'hello')\nsys.exit(3)\n", [])}
    env = bench_layers.child_env(bench_layers.ROOT, str(tmp_path))
    with pytest.raises(RuntimeError, match="fails exited 3") as failed:
        bench_layers.start(commands, str(tmp_path), env, "fails")
    assert "child-said-hello" in str(failed.value)


def test_a_start_reads_its_tail_after_a_warning(tmp_path):
    commands = {"warns": ("import sys\nsys.stderr.write('a warning\\n')\n", [])}
    env = bench_layers.child_env(bench_layers.ROOT, str(tmp_path))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    assert [env[var] for var in blas] == ["1", "1", "1"]
    seconds, numpy_imported, hwm = bench_layers.start(commands, str(tmp_path), env, "warns")
    assert seconds > 0 and numpy_imported is False and hwm > 0


def test_a_trees_bytecode_cannot_reach_a_child(tmp_path):
    shutil.copytree(bench_layers.ROOT / "src", tmp_path / "tree" / "src")
    init = tmp_path / "tree" / "src" / "lcdgraph" / "__init__.py"
    poisoned = tmp_path / "poisoned.py"
    poisoned.write_text('__version__ = "poisoned"\n')
    # an unchecked-hash .pyc is loaded without reading its source, even with
    # PYTHONDONTWRITEBYTECODE set
    unchecked = py_compile.PycInvalidationMode.UNCHECKED_HASH
    py_compile.compile(str(poisoned), cfile=importlib.util.cache_from_source(str(init)),
                       doraise=True, invalidation_mode=unchecked)
    commands = {"version": ('import lcdgraph\nassert lcdgraph.__version__ != "poisoned"\n', [])}
    env = bench_layers.child_env(tmp_path / "tree", str(tmp_path))
    assert bench_layers.start(commands, str(tmp_path), env, "version")[0] > 0


def test_a_served_child_that_dies_before_its_facts_says_so(tmp_path):
    package = tmp_path / "src" / "lcdgraph"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken tree')\n")
    with pytest.raises(RuntimeError, match=f"the writer child of {tmp_path} exited 1 before"):
        with bench_layers.served("writer", [tmp_path]):
            pass


def test_every_command_is_documented():
    doc = bench_layers.__doc__
    assert [name for name in bench_layers.COMMANDS if f"``{name}``" not in doc] == []


def test_each_command_runs_in_a_fresh_directory_that_its_measure_removes(tmp_path, monkeypatch):
    monkeypatch.setitem(bench_layers.COMMANDS, "generate_5", [
        "generate", "--n", "5", "--seed", "3", "--out", "{out}/graph.csv"])
    call = bench_layers.command_calls(tmp_path)["generate_5"]
    first, second = call(), call()
    assert first != second and sorted(tmp_path.iterdir()) == sorted([first, second])
    names = sorted(p.name for p in first.iterdir())
    assert "graph.csv.manifest.json" in names
    outputs = b"".join((first / name).read_bytes() for name in names
                       if not name.endswith(".manifest.json"))
    assert bench_layers.digest(first) == bench_layers.digest(second)
    assert bench_layers.digest(first) == hashlib.sha256(outputs).hexdigest()
    assert bench_layers.traced_peak(call) > 0 and bench_layers.timed(call) > 0
    bench_layers.discard(first)
    assert list(tmp_path.iterdir()) == [second]


def test_each_warm_oracle_sweep_follows_its_cold_one(tmp_path):
    names = list(bench_layers.oracle_calls(tmp_path))
    formulas = list(bench_layers.oracle_cells())
    assert names == [name for formula in formulas for name in (f"{formula}_cold", formula)]


def test_digest_of_an_array_a_file_and_oracle_values(tmp_path):
    expected = hashlib.sha256(np.array([1, -2, 3], dtype="<i8").tobytes()).hexdigest()
    assert bench_layers.digest(np.array([1, -2, 3], dtype=np.int8)) == expected
    path = tmp_path / "rows.txt"
    path.write_bytes(b"1,2\n3,4\n")
    assert bench_layers.digest(path) == hashlib.sha256(b"1,2\n3,4\n").hexdigest()
    values = [count_ns(DkQuery(4, 1, 1)), prob_dk(DkQuery(4, 1, 1))]
    printed = f"{values[0]}\n{values[1].format()}".encode()
    assert bench_layers.digest(values) == hashlib.sha256(printed).hexdigest()


@pytest.mark.parametrize("argv", [["nope"], ["--against", "{tmp}", "nope"],
                                  ["--against", "{tmp}", "writer"]])
def test_main_refuses_before_any_run(argv, tmp_path, capsys):
    assert bench_layers.main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.count("\n") == 1
