"""Time five layers on fixed work and write one ``BENCH_*.json`` for each
at the repository root.

    python3 tools/bench_layers.py [writer|oracles|kernels|startup|equivalence ...]
    python3 tools/bench_layers.py --against <tree> [kernels|startup|equivalence ...]

With no layer named every layer runs.  Seeds, sizes and repeat counts are
fixed, so two checkouts run the same work.  The package is imported from
this checkout's ``src/``.  Each JSON holds, per input, the min and median
seconds over the repeats, a sha256 of the output (equal digests mean equal
output across checkouts) where there is one, and the machine: cores, Python
and numpy versions, whether numba imports, and ``PYTHONDONTWRITEBYTECODE``
(when it is set, every fresh interpreter compiles ``src/`` again).

``BENCH_writer.json`` times the edge-list text writer,
``lcdgraph.io.write_rows``, on its three kinds of input, each built once
before timing:

- ``sequential_1e6``: the (source, target) columns of ``generate`` at
  n = 10^6, m = 1, sequential, master seed 0 (2 * 10^6 values);
- ``urn_1e5x3``: the same for n = 10^5, m = 3, urn (6 * 10^5 values);
- ``enumerate_7``: every block that ``lcdgraph enumerate --n 7`` writes,
  135,135 int8 rows of 21 columns, in one file.

Each repeat writes one input to a fresh file in a temporary directory,
timed from ``open`` to ``close``; the digest is of the bytes written.

``BENCH_oracles.json`` times ``prob_dk``, ``cond_prob_degree`` and
``count_ns`` in the exact regime, each over ``ORACLE_CELLS`` random cells
at every n in ``ORACLE_NS`` (up to 2048, the top of that regime).  A cold
sweep runs right after ``oracles`` is reloaded, so it starts with empty
caches; ``cold_min_s`` and ``cold_median_s`` summarise those.  A warm sweep
repeats the cells in the same process.  The digest is of the printed values.

``BENCH_kernels.json`` times the construction kernels of
``lcdgraph.processes``, each from a fresh ``replicate_rng(0)``, in one child
process that imports the package and makes each call on request:

- ``<variant>_1e5x3``: the kernel of each variant on the 3 * 10^5 primed
  vertices of n = 10^5, m = 3, before the blocks of m are identified;
- ``sequential_1e6``: the sequential kernel at n = 10^6, m = 1;
- ``batch_<variant>``: ``batch_total_degrees(variant, 3, 2, 2 * 10^5)``;
- ``draw_<N>``: the sequential choices alone, ``sequential_choices(N, 1)``
  for N = 2, 2 * 10^4, 10^6 and 10^7 (past ``DRAW_HANDOFF``), and
  ``draw_6x16384`` for 2^14 rows of N = 6, the shape of a batch block;
- ``replicates_t<k>``: ``replicate_counts`` of in-degree 1 over 100
  sequential graphs of n = 2 * 10^4, m = 1, on k = 1 and 2 threads, as the
  ``experiment fraction`` and ``concentration`` loops run them;
  ``replicates_1e6_t<k>`` the same over 8 graphs of n = 10^6;
- ``generate_write_<shape>``: ``generate`` then ``write_graph``, as
  ``lcdgraph generate`` runs them, on the four graphs of the benchmark's
  ``generate`` workload: each variant at n = 10^5, m = 3, and sequential
  at n = 10^6, m = 1, master seed 0.

Besides the median, quartiles and min of the seconds, each input records
``peak_bytes``, the peak of the heap that ``tracemalloc`` sees (numpy's
buffers included) over one untimed call.  The digest is of the output as
little-endian int64, whatever its dtype, and for ``generate_write_<shape>``
of the edge-list bytes written.

``BENCH_startup.json`` times fresh interpreters, each running one command
of ``STARTUP`` from start to exit, the five commands interleaved:

- ``import_parser``: ``import lcdgraph.cli`` and ``build_parser()``, what
  the benchmark's ``setup_s`` times;
- ``oracle_prob_dk``: ``lcdgraph oracle prob-dk --n 100 --k 3 --s 2``;
- ``generate_n2``: ``lcdgraph generate --n 2 --seed 0``, into a temporary
  directory;
- ``import_exact``: ``import lcdgraph.exact``, the home of the exact laws
  (in a tree without ``exact.py``, ``import lcdgraph.analysis``, where
  they lived before);
- ``import_analysis``: ``import lcdgraph.analysis``, the sampled
  experiments.

Each records ``peak_rss_bytes``, the median of the child's peak resident
memory at exit (``VmHWM``, Linux), and ``numpy_imported``, whether numpy was
loaded.

``BENCH_equivalence.json`` does the same for the two commands of
``EQUIVALENCE``, interleaved: ``lcdgraph experiment equivalence`` at
(n, m, samples) = (3, 2, 2 * 10^5) and (4, 1, 10^6), whose peak is that of
the three batches of degree rows and their counts.

Both fresh-interpreter files record, per input, the median, quartiles and
min of the seconds.

With ``--against <tree>``, another checkout of this repository, only
``kernels`` and the two fresh-interpreter layers run, and each run of this
checkout is paired with one of ``<tree>`` right before or after it (the two
alternate which goes first), each in a child that imports the package from
its own tree's ``src/``: a start is one fresh interpreter, a kernel call one
call in its tree's kernel child.  Each input then records both trees'
figures, under ``this`` and ``against``, and ``wins``, the number of pairs
in which this checkout's run was the faster; the file records each tree's
commit and whether its tracked files differ from it, read without changing
any git state.  Two copies of one tree should win about half of the
``REPEATS`` pairs: a fair coin lands in 6..15 of 21 with probability 0.97.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lcdgraph import cli, oracles  # noqa: E402
from lcdgraph.analysis import replicate_counts  # noqa: E402
from lcdgraph.io import write_graph, write_json, write_rows  # noqa: E402
from lcdgraph.processes import (  # noqa: E402
    _KERNELS,
    ProcessParams,
    batch_total_degrees,
    generate,
    replicate_rng,
    sequential_choices,
)

REPEATS = 21
ORACLE_NS = (2, 8, 32, 128, 512, 2048)
ORACLE_CELLS = 20  # per formula and n
# input name -> (code, argv) of one fresh interpreter; {tmp} is a scratch directory
_MAIN = "from lcdgraph.cli import main\nif main():\n    raise SystemExit('the command failed')\n"
STARTUP = {
    "import_parser": ("import lcdgraph.cli\nlcdgraph.cli.build_parser()\n", []),
    "oracle_prob_dk": (_MAIN, ["oracle", "prob-dk", "--n", "100", "--k", "3", "--s", "2"]),
    "generate_n2": (_MAIN, ["generate", "--n", "2", "--seed", "0", "--out", "{tmp}/g.csv"]),
    "import_exact": ("try:\n    import lcdgraph.exact\n"
                     "except ModuleNotFoundError:\n    import lcdgraph.analysis\n", []),
    "import_analysis": ("import lcdgraph.analysis\n", []),
}
EQUIVALENCE = {
    f"equivalence_{n}x{m}_{name}": (_MAIN, [
        "experiment", "equivalence", "--n", str(n), "--m", str(m), "--samples", str(samples),
        "--seed", "3", "--out", "{tmp}/eq.json"])
    for name, n, m, samples in (("2e5", 3, 2, 200_000), ("1e6", 4, 1, 10**6))
}
# appended to each start: whether numpy was loaded, and the peak RSS in KiB.
# VmHWM is the peak of the child's own image; its ru_maxrss would start from
# this process's peak, which it inherits through the fork.
_STARTUP_TAIL = """
import json, sys
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
sys.stderr.write(json.dumps(["numpy" in sys.modules, hwm]))
"""
# A child that serves kernel_calls from the tree whose src/ is argv[1]: that
# tree's package is imported before this file, whose own src/ then comes too
# late to shadow it.
_KERNEL_SERVER = """
import sys
sys.path.insert(0, sys.argv[1])
import lcdgraph
sys.path.insert(0, sys.argv[2])
import bench_layers
bench_layers.serve_kernels()
"""


def edge_list(n: int, m: int, variant: str) -> list:
    g = generate(ProcessParams(n=n, m=m, variant=variant, master_seed=0))
    return [((g.src, g.tgt), b",\n")]


def enumerate_blocks(n: int, tmp: Path) -> list:
    """The (columns, seps) of each ``write_rows`` call of ``enumerate --n n``,
    recorded from one run of the command with the writer stubbed out."""
    calls = []

    def record(fh, columns, seps):
        calls.append((columns, seps))

    with mock.patch.object(cli, "write_rows", record), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["enumerate", "--n", str(n), "--out", str(tmp / "enumerate.txt")])
    return calls


def time_writes(calls: list, path: Path) -> float:
    start = time.perf_counter()
    with open(path, "wb") as fh:
        for columns, seps in calls:
            write_rows(fh, columns, seps)
    return time.perf_counter() - start


def numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def write_report(name: str, layer: str, results: dict, against: Path | None = None) -> None:
    out = ROOT / f"BENCH_{name}.json"
    report = {
        "layer": layer,
        "inputs": results,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba_imports": numba_imports(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
    }
    if against:
        report["trees"] = {"this": git_state(ROOT), "against": git_state(against)}
    write_json(out, report)
    for key, r in results.items():
        if against:
            heap = (f"; heap peak {r['this']['peak_bytes'] / 1e6:.1f} MB here, "
                    f"{r['against']['peak_bytes'] / 1e6:.1f} MB against"
                    if "peak_bytes" in r["this"] else "")
            print(f"{key}: median {r['this']['median_s'] * 1e3:.1f} ms here, "
                  f"{r['against']['median_s'] * 1e3:.1f} ms against; "
                  f"faster here in {r['wins']} of {r['this']['repeats']} pairs{heap}")
            continue
        peak = f", heap peak {r['peak_bytes'] / 1e6:.1f} MB" if "peak_bytes" in r else ""
        if "peak_rss_bytes" in r:
            peak = f", peak RSS {r['peak_rss_bytes'] / 1e6:.1f} MB, numpy {r['numpy_imported']}"
        print(f"{key}: min {r['min_s'] * 1e3:.1f} ms, median {r['median_s'] * 1e3:.1f} ms{peak}")
    print(f"wrote {out}")


def bench_writer() -> None:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {
            "sequential_1e6": edge_list(10**6, 1, "sequential"),
            "urn_1e5x3": edge_list(10**5, 3, "urn"),
            "enumerate_7": enumerate_blocks(7, Path(tmp)),
        }
        times = {name: [] for name in inputs}
        path = Path(tmp) / "rows.txt"
        for name, calls in inputs.items():  # warm-up, and the bytes written
            time_writes(calls, path)
            data = path.read_bytes()
            results[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        for _ in range(REPEATS):  # inputs interleaved, so host load hits each alike
            for name, calls in inputs.items():
                times[name].append(time_writes(calls, path))
    for name, ts in times.items():
        results[name].update(min_s=min(ts), median_s=statistics.median(ts), repeats=len(ts))
    write_report("writer", "io.write_rows", results)


def oracle_cells() -> dict:
    """formula -> list of in-domain argument tuples, the same in every run."""
    rng = random.Random(0)
    cells = {"prob_dk": [], "cond_prob_degree": [], "count_ns": []}
    for n in ORACLE_NS:
        for _ in range(ORACLE_CELLS):
            for formula, args in cells.items():
                k = rng.randint(1, n - 1 if formula == "cond_prob_degree" else n)
                s = rng.randint(0, n - k)
                if formula == "cond_prob_degree":
                    args.append((n, k, s, rng.randint(0, n - k - s)))
                else:
                    args.append((n, k, s))
    return cells


def oracle_sweep(formula: str, cells: list) -> tuple:
    """(seconds, values) of one formula over its cells."""
    call = getattr(oracles, formula)
    if formula != "cond_prob_degree":
        cells = [(oracles.DkQuery(*c),) for c in cells]
    start = time.perf_counter()
    values = [call(*c) for c in cells]
    return time.perf_counter() - start, values


def printed(value) -> bytes:
    return (str(value) if isinstance(value, int) else value.format()).encode()


def bench_oracles() -> None:
    cells = oracle_cells()
    cold = {name: [] for name in cells}
    warm = {name: [] for name in cells}
    results = {}
    for _ in range(REPEATS):  # each formula from empty caches
        for name in cells:
            importlib.reload(oracles)
            cold[name].append(oracle_sweep(name, cells[name])[0])
    for name in cells:  # warm-up, and the values
        values = oracle_sweep(name, cells[name])[1]
        digest = hashlib.sha256(b"\n".join(map(printed, values))).hexdigest()
        results[name] = {"cells": len(values), "sha256": digest}
    for _ in range(REPEATS):  # formulas interleaved, so host load hits each alike
        for name in cells:
            warm[name].append(oracle_sweep(name, cells[name])[0])
    for name in cells:
        results[name].update(
            cold_min_s=min(cold[name]),
            cold_median_s=statistics.median(cold[name]),
            min_s=min(warm[name]),
            median_s=statistics.median(warm[name]),
            repeats=REPEATS,
        )
    write_report("oracles", "oracles", results)


def kernel_calls(tmp: Path) -> dict:
    """input name -> a call that runs one kernel or batch from a fresh stream,
    or a ``generate`` and ``write_graph`` into ``tmp``, returning the path."""
    calls = {}
    for variant, kernel in _KERNELS.items():
        calls[f"{variant}_1e5x3"] = lambda kernel=kernel: kernel(3 * 10**5, replicate_rng(0))
    calls["sequential_1e6"] = lambda: _KERNELS["sequential"](10**6, replicate_rng(0))
    for variant in _KERNELS:
        calls[f"batch_{variant}"] = lambda variant=variant: batch_total_degrees(
            variant, 3, 2, 200_000, replicate_rng(0))
    for name, big_n, samples in (("2", 2, 1), ("2e4", 20_000, 1), ("1e6", 10**6, 1),
                                 ("1e7", 10**7, 1), ("6x16384", 6, 1 << 14)):
        calls[f"draw_{name}"] = lambda big_n=big_n, samples=samples: sequential_choices(
            big_n, samples, replicate_rng(0))
    for name, n, replicates in (("", 20_000, 100), ("1e6_", 10**6, 8)):
        params = ProcessParams(n=n, m=1, variant="sequential", master_seed=0)
        for threads in (1, 2):
            calls[f"replicates_{name}t{threads}"] = lambda p=params, r=replicates, t=threads: (
                np.array(replicate_counts(p, 1, r, t)))
    for name, n, m, variant in [(f"{v}_1e5x3", 10**5, 3, v) for v in _KERNELS] + [
            ("sequential_1e6", 10**6, 1, "sequential")]:
        params = ProcessParams(n=n, m=m, variant=variant, master_seed=0)
        calls[f"generate_write_{name}"] = lambda p=params, path=tmp / f"{name}.csv": write_graph(
            generate(p), path, {})
    return calls


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kernel_outputs(calls: dict) -> dict:
    """input name -> the digest of one call's output and the heap peak of
    another; the first call is also the warm-up."""
    results = {}
    for name, call in calls.items():
        out = call()
        data = out.read_bytes() if isinstance(out, Path) else out.astype("<i8").tobytes()
        results[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                         "peak_bytes": traced_peak(call)}
    return results


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def serve_kernels() -> None:
    """Print one JSON line of ``kernel_outputs``, then, for each input name
    read from stdin, the seconds of one call of it."""
    with tempfile.TemporaryDirectory() as tmp:
        calls = kernel_calls(Path(tmp))
        print(json.dumps(kernel_outputs(calls)), flush=True)
        for line in sys.stdin:
            print(json.dumps(timed(calls[line.strip()])), flush=True)


def served_kernels(trees: list) -> tuple:
    """Each tree's ``kernel_outputs`` and, per input, the seconds of its
    ``REPEATS`` calls.  Each tree's calls run in one child that imports that
    tree's ``src/``; each call of one tree is paired with one of the next,
    and the trees take turns to go first."""
    servers, outputs = [], []
    try:
        for tree in trees:  # one at a time, so the warm-ups do not overlap
            servers.append(subprocess.Popen(
                [sys.executable, "-c", _KERNEL_SERVER, str(tree / "src"), str(ROOT / "tools")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            outputs.append(json.loads(servers[-1].stdout.readline()))
        names = [name for name in outputs[0] if all(name in out for out in outputs)]
        times = [{name: [] for name in names} for _ in servers]
        order = list(range(len(servers)))
        for repeat in range(REPEATS):  # inputs interleaved, so host load hits each alike
            for name in names:
                for tree in order if repeat % 2 == 0 else order[::-1]:
                    servers[tree].stdin.write(name + "\n")
                    servers[tree].stdin.flush()
                    times[tree][name].append(json.loads(servers[tree].stdout.readline()))
    finally:
        for server in servers:
            server.stdin.close()
            server.wait()
    return outputs, times


def bench_kernels(against: Path | None = None) -> None:
    outputs, times = served_kernels([ROOT] + ([against] if against else []))
    summaries = [{name: dict(out[name], **time_summary(ts)) for name, ts in tree_times.items()}
                 for out, tree_times in zip(outputs, times)]
    results = summaries[0]
    if against:
        results = {name: {"this": summaries[0][name], "against": summaries[1][name],
                          "wins": sum(a < b for a, b in zip(times[0][name], times[1][name]))}
                   for name in results}
    write_report("kernels", "processes._KERNELS, processes.batch_total_degrees, "
                 "processes.sequential_choices, analysis.replicate_counts, "
                 "processes.generate + io.write_graph", results, against)


def start(code: str, argv: list, env: dict) -> tuple:
    """(seconds, numpy imported, peak RSS in KiB) of one fresh interpreter."""
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code + _STARTUP_TAIL, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
    seconds = time.perf_counter() - begin
    return (seconds, *json.loads(proc.stderr))


def tree_env(tree: Path) -> dict:
    """The environment of a child that imports the package from ``tree``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(tree / "src") + (os.pathsep + path if path else ""))


def git_state(tree: Path) -> dict:
    """The commit checked out in ``tree`` and whether its tracked files
    differ from it; None outside a git checkout.  ``--no-optional-locks``
    keeps ``git status`` from refreshing the index."""
    def git(*argv):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(tree), *argv],
                              capture_output=True, text=True).stdout.strip()

    if git("rev-parse", "--show-toplevel") != str(tree.resolve()):
        return {"commit": None, "modified": None}
    return {"commit": git("rev-parse", "HEAD"),
            "modified": bool(git("status", "--porcelain", "--untracked-files=no"))}


def time_summary(seconds) -> dict:
    """The min, quartiles and median of one input's seconds."""
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    return {"min_s": min(seconds), "q1_s": q1, "median_s": statistics.median(seconds),
            "q3_s": q3, "repeats": len(seconds)}


def start_summary(runs: list) -> dict:
    """The seconds, median peak RSS and numpy flag of one command's starts."""
    seconds, numpy_flags, rss = zip(*runs)
    return dict(time_summary(seconds), peak_rss_bytes=statistics.median(rss) * 1024,
                numpy_imported=any(numpy_flags))


def fresh_starts(commands: dict, against: Path | None = None) -> dict:
    """input name -> the summary of ``REPEATS`` fresh interpreters of each
    command, or with ``against`` of each tree and the pairs this one won."""
    envs = [tree_env(ROOT)] + ([tree_env(against)] if against else [])
    order = list(range(len(envs)))
    runs = {name: [[] for _ in envs] for name in commands}
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(REPEATS):  # commands interleaved, so host load hits each alike
            for name, (code, argv) in commands.items():
                argv = [a.format(tmp=tmp) for a in argv]
                # the trees take turns to start first, so neither always follows the other
                for tree in order if repeat % 2 == 0 else order[::-1]:
                    runs[name][tree].append(start(code, argv, envs[tree]))
    if against is None:
        return {name: start_summary(rs) for name, (rs,) in runs.items()}
    return {name: {"this": start_summary(this), "against": start_summary(other),
                   "wins": sum(a[0] < b[0] for a, b in zip(this, other))}
            for name, (this, other) in runs.items()}


def bench_startup(against: Path | None = None) -> None:
    write_report("startup", "fresh interpreters: import lcdgraph.cli, oracle, generate, "
                 "import lcdgraph.exact, import lcdgraph.analysis",
                 fresh_starts(STARTUP, against), against)


def bench_equivalence(against: Path | None = None) -> None:
    write_report("equivalence", "fresh interpreters: experiment equivalence",
                 fresh_starts(EQUIVALENCE, against), against)


LAYERS = {"writer": bench_writer, "oracles": bench_oracles, "kernels": bench_kernels,
          "startup": bench_startup, "equivalence": bench_equivalence}
AGAINST_LAYERS = ("kernels", "startup", "equivalence")  # the layers that --against compares


def main() -> int:
    parser = argparse.ArgumentParser(description="Time layers of lcdgraph on fixed work.")
    parser.add_argument("layers", nargs="*", metavar="layer", help=f"any of {tuple(LAYERS)}")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help=f"another checkout to pair with this one's runs, {AGAINST_LAYERS} only")
    args = parser.parse_args()
    allowed = AGAINST_LAYERS if args.against else tuple(LAYERS)
    names = args.layers or allowed
    unknown = [name for name in names if name not in allowed]
    if unknown:
        print(f"unknown layer {unknown[0]!r}, not one of {allowed}", file=sys.stderr)
        return 2
    if args.against and not (args.against / "src" / "lcdgraph" / "cli.py").is_file():
        print(f"--against {args.against} holds no src/lcdgraph/cli.py", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # exact values near n = 2048 run to thousands of digits
    for name in names:
        if args.against:
            LAYERS[name](args.against)
        else:
            LAYERS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
