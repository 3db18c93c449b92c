"""Time five layers on fixed work and write one ``BENCH_*.json`` for each
at the repository root.

    python3 tools/bench_layers.py [--against <tree>] [layer ...]

A layer is ``writer``, ``oracles``, ``kernels``, ``commands`` or
``startup``; with none named every layer runs.  Seeds, sizes and repeat
counts are fixed, so two checkouts run the same work.  Every run is made
in a child process, all in one environment (``child_env``): the package is
imported from a copy of the tree's ``src/``, made without any
``__pycache__`` in the run's scratch directory and written none, so each
child compiles it afresh, whatever cache the tree holds; BLAS pools run at
one thread, as in the benchmark.  One loop runs every layer: it makes
``REPEATS`` runs of each input, the inputs interleaved so that host load
hits each alike.  Each JSON holds, per input, the min, quartiles and
median seconds of the runs, and the machine: cores, Python and numpy
versions, and whether numba imports.

The first four layers are served: one child per tree imports the package
from that copy, builds the layer's inputs, and then makes one timed call
of an input per name it is sent.  Each of their inputs records the sha256
of its output (equal digests mean equal output across checkouts): of an
array as little-endian int64, whatever its dtype, of a written file's
bytes, of a command's output files, or of the printed oracle values joined
by newlines; and ``peak_bytes``, the peak of the heap that ``tracemalloc``
sees (numpy's buffers included) over one untimed call, traced from its
start, after an untraced first call.

``BENCH_writer.json`` times the edge-list text writer,
``lcdgraph.io.write_rows``, each call writing one input to a fresh file,
from ``open`` to ``close``:

- ``sequential_1e6``: the (source, target) columns of ``generate`` at
  n = 10^6, m = 1, sequential, master seed 0 (2 * 10^6 values);
- ``urn_1e5x3``: the same for n = 10^5, m = 3, urn (6 * 10^5 values);
- ``enumerate_7``: every block that ``lcdgraph enumerate --n 7`` writes,
  135,135 int8 rows of 21 columns, in one file.

``BENCH_oracles.json`` times ``prob_dk``, ``cond_prob_degree`` and
``count_ns`` in the exact regime, each over ``ORACLE_CELLS`` random cells
at every n in ``ORACLE_NS`` (up to 2048, the top of that regime).  The
input ``<formula>_cold`` first empties every cache of ``oracles``; the
input ``<formula>`` comes right after it, so it finds the caches holding
its own cells.

``BENCH_kernels.json`` times the construction kernels of
``lcdgraph.processes``, each from a fresh ``replicate_rng(0)``:

- ``<variant>_1e5x3``: the kernel of each variant on the 3 * 10^5 primed
  vertices of n = 10^5, m = 3, before the blocks of m are identified;
- ``sequential_1e6``: the sequential kernel at n = 10^6, m = 1, and
  ``sequential_2e4`` at n = 2 * 10^4, m = 1, the graph of each replicate
  that ``replicates_t<k>`` draws, without its counting;
- ``batch_<variant>``: ``batch_total_degrees(variant, 3, 2, 2 * 10^5)``,
  and ``batch_<variant>_200x2e4`` the same at (200, 1, 2 * 10^4);
- ``draw_<N>``: the sequential choices alone, ``sequential_choices(N, 1)``
  for N = 2, 2 * 10^4, 10^6 and 10^7 (past ``DRAW_HANDOFF``), and
  ``draw_6x5461`` for 5,461 rows of N = 6, the shape of a (3, 2) batch block;
- ``replicates_t<k>``: ``replicate_counts`` of in-degree 1 over 100
  sequential graphs of n = 2 * 10^4, m = 1, with ``threads`` k = 1 and 2,
  as the ``experiment fraction`` and ``concentration`` loops run them;
  ``replicates_1e5_t<k>`` the same over 20 graphs of n = 10^5 and
  ``replicates_1e6_t<k>`` over 8 graphs of n = 10^6.  These graphs lie on
  either side of ``analysis.THREAD_MIN_EDGES``, below which the caller
  draws every replicate alone; ``replicates_t2_forced`` is
  ``replicates_t2`` with that threshold set to 0, so that its helper
  starts, the other side of the crossover at 2 * 10^4.  A two-thread
  ``peak_bytes`` depends on how the threads' graphs overlap (identical
  trees read 28.3 and 29.0 MB at n = 10^6), so it backs no memory claim:
  cite ``fraction`` and ``concentration`` of ``BENCH_commands.json``.

``BENCH_commands.json`` runs the commands of ``COMMANDS`` through
``lcdgraph.cli.main``, as the benchmark's workloads do, each run into a
fresh directory that is removed after it (outside the timing); the digest
is of the files it wrote other than the manifest, which records wall time
and resident memory, in name order:

- ``generate_sequential_1e5x3``, ``generate_pairing_1e5x3``,
  ``generate_urn_1e5x3`` and ``generate_sequential_1e6``: ``lcdgraph
  generate --seed 3`` on the four graphs of the benchmark's ``generate``
  workload, each variant at n = 10^5, m = 3, and sequential at n = 10^6,
  m = 1;
- ``fraction``: ``lcdgraph experiment fraction --n 20000 --m 1 --d 1
  --replicates 20 --threads 2 --seed 3``, and ``concentration`` the same
  with 100 replicates, the replicate loops of the ``experiments`` workload;
- ``equivalence``: ``lcdgraph experiment equivalence --n 3 --m 2 --samples
  200000 --seed 3``, its batch path;
- ``enumerate_7``: ``lcdgraph enumerate --n 7``, the ``exact`` workload's
  enumeration.

The last layer runs fresh interpreters, each running one command from
start to exit.  Each input records ``peak_rss_bytes``, the median of the
child's peak resident memory at exit (``VmHWM``, Linux), and
``numpy_imported``, whether numpy was loaded.  ``BENCH_startup.json`` runs
the commands of ``STARTUP``:

- ``import_parser``: ``import lcdgraph.cli`` and ``build_parser()``, what
  the benchmark's ``setup_s`` times;
- ``oracle_prob_dk``: ``lcdgraph oracle prob-dk --n 100 --k 3 --s 2``;
- ``generate_n2``: ``lcdgraph generate --n 2 --seed 0``, into a temporary
  directory;
- ``enumerate_n3``: ``lcdgraph enumerate --n 3``, the same way;
- ``region``: ``lcdgraph experiment region --system theorem2-case3``, the
  same way, an experiment solved in exact rationals alone;
- ``import_exact``: ``import lcdgraph.exact``, the home of the exact laws;
- ``import_analysis``: ``import lcdgraph.analysis``, the sampled
  experiments;
- ``fraction_t2``: ``lcdgraph experiment fraction --n 20000 --d 1
  --replicates 20 --threads 2 --seed 3``, a replicate loop on two threads,
  into a temporary directory;
- ``equivalence_3x2_2e5``: ``lcdgraph experiment equivalence --n 3 --m 2
  --samples 200000 --seed 3``, the same way, whose peak is that of the
  three batches of degree rows and their counts;
- ``equivalence_4x1_1e6``: the same at n = 4, m = 1 and 10^6 samples.

With ``--against <tree>``, another checkout of this repository, every
layer pairs each run of this checkout with one of ``<tree>`` right before
or after it (the two alternate which goes first), each tree's served calls
in its own child and each start from its own copy.  Each input then
records both trees' figures, under ``this`` and ``against``, and ``wins``,
the number of pairs in which this checkout's run was the faster; the file
records each tree's commit and whether its tracked files differ from it,
read without changing any git state.  Two copies of one tree should win
about half of the ``REPEATS`` pairs: a fair coin lands in 6..15 of 21 with
probability 0.97.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import random
import shutil
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
if __name__ == "__main__":  # a child finds its tree's copy of src/ on PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))

from lcdgraph import analysis, cli, oracles  # noqa: E402
from lcdgraph.analysis import replicate_counts  # noqa: E402
from lcdgraph.io import write_json, write_rows  # noqa: E402
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
    "enumerate_n3": (_MAIN, ["enumerate", "--n", "3", "--out", "{tmp}/p.csv"]),
    "region": (_MAIN, ["experiment", "region", "--system", "theorem2-case3",
                       "--out", "{tmp}/r.json"]),
    "import_exact": ("import lcdgraph.exact\n", []),
    "import_analysis": ("import lcdgraph.analysis\n", []),
    "fraction_t2": (_MAIN, ["experiment", "fraction", "--n", "20000", "--d", "1", "--replicates",
                            "20", "--threads", "2", "--seed", "3", "--out", "{tmp}/f.json"]),
    **{f"equivalence_{n}x{m}_{name}": (_MAIN, [
        "experiment", "equivalence", "--n", str(n), "--m", str(m), "--samples", str(samples),
        "--seed", "3", "--out", "{tmp}/eq.json"])
       for name, n, m, samples in (("2e5", 3, 2, 200_000), ("1e6", 4, 1, 10**6))},
}
# input name -> argv of one command run through cli.main; {out} is a fresh directory
COMMANDS = {
    **{f"generate_{name}": ["generate", "--n", str(n), "--m", str(m), "--variant", variant,
                            "--seed", "3", "--out", "{out}/graph.csv"]
       for name, n, m, variant in (("sequential_1e5x3", 10**5, 3, "sequential"),
                                   ("pairing_1e5x3", 10**5, 3, "pairing"),
                                   ("urn_1e5x3", 10**5, 3, "urn"),
                                   ("sequential_1e6", 10**6, 1, "sequential"))},
    **{name: ["experiment", name, "--n", "20000", "--m", "1", "--d", "1", "--replicates",
              str(replicates), "--threads", "2", "--seed", "3", "--out", f"{{out}}/{name}.json"]
       for name, replicates in (("fraction", 20), ("concentration", 100))},
    "equivalence": ["experiment", "equivalence", "--n", "3", "--m", "2", "--samples", "200000",
                    "--seed", "3", "--out", "{out}/equivalence.json"],
    "enumerate_7": ["enumerate", "--n", "7", "--out", "{out}/pairings.csv"],
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


def write_calls(calls: list, path: Path) -> Path:
    with open(path, "wb") as fh:
        for columns, seps in calls:
            write_rows(fh, columns, seps)
    return path


def writer_calls(tmp: Path) -> dict:
    """input name -> a call that writes that input's rows to a file in
    ``tmp``, returning the path; the rows are built here, once."""
    inputs = {
        "sequential_1e6": edge_list(10**6, 1, "sequential"),
        "urn_1e5x3": edge_list(10**5, 3, "urn"),
        "enumerate_7": enumerate_blocks(7, tmp),
    }
    return {name: functools.partial(write_calls, calls, tmp / f"{name}.txt")
            for name, calls in inputs.items()}


def numba_imports() -> bool:
    try:
        importlib.import_module("numba")
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


def oracle_sweep(formula: str, cells: list, cold: bool) -> list:
    """The values of one formula over its cells; ``cold`` empties every
    cache of ``oracles`` first."""
    if cold:
        for value in vars(oracles).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    call = getattr(oracles, formula)
    if formula != "cond_prob_degree":
        cells = [(oracles.DkQuery(*c),) for c in cells]
    return [call(*c) for c in cells]


def oracle_calls(tmp: Path) -> dict:
    """input name -> one sweep of a formula.  Each ``<formula>`` comes
    straight after its ``<formula>_cold``, and the loop keeps this order, so
    the warm sweep finds the caches holding exactly its own cells."""
    calls = {}
    for formula, cells in oracle_cells().items():
        for name, cold in ((f"{formula}_cold", True), (formula, False)):
            calls[name] = functools.partial(oracle_sweep, formula, cells, cold)
    return calls


def kernel_calls(tmp: Path) -> dict:
    """input name -> a call that runs one kernel, batch, draw or replicate
    loop from a fresh stream."""
    calls = {}
    for variant, kernel in _KERNELS.items():
        calls[f"{variant}_1e5x3"] = lambda kernel=kernel: kernel(3 * 10**5, replicate_rng(0))
    for name, big_n in (("1e6", 10**6), ("2e4", 20_000)):
        calls[f"sequential_{name}"] = lambda big_n=big_n: _KERNELS["sequential"](
            big_n, replicate_rng(0))
    for variant in _KERNELS:
        for name, n, m, samples in (("", 3, 2, 200_000), ("_200x2e4", 200, 1, 20_000)):
            calls[f"batch_{variant}{name}"] = lambda v=variant, n=n, m=m, s=samples: (
                batch_total_degrees(v, n, m, s, replicate_rng(0)))
    for name, big_n, samples in (("2", 2, 1), ("2e4", 20_000, 1), ("1e6", 10**6, 1),
                                 ("1e7", 10**7, 1), ("6x5461", 6, 5461)):
        calls[f"draw_{name}"] = lambda big_n=big_n, samples=samples: sequential_choices(
            big_n, samples, replicate_rng(0))
    for name, n, replicates in (("", 20_000, 100), ("1e5_", 10**5, 20), ("1e6_", 10**6, 8)):
        params = ProcessParams(n=n, m=1, variant="sequential", master_seed=0)
        for threads in (1, 2):
            calls[f"replicates_{name}t{threads}"] = lambda p=params, r=replicates, t=threads: (
                np.array(replicate_counts(p, 1, r, t)))

    def forced(call=calls["replicates_t2"]):  # a tree without the threshold always starts one
        with mock.patch.object(analysis, "THREAD_MIN_EDGES", 0, create=True):
            return call()

    calls["replicates_t2_forced"] = forced
    return calls


def run_command(argv: list, tmp: Path) -> Path:
    """Run one command through ``cli.main`` into a fresh directory in
    ``tmp``, its printed lines discarded; returns the directory."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([a.format(out=out) for a in argv])
    if code not in (0, 1):  # 1: a verdict failed, the outputs are written
        raise RuntimeError(f"{argv} exited {code}")
    return out


def command_calls(tmp: Path) -> dict:
    """input name -> a call that runs that command into a fresh directory."""
    return {name: functools.partial(run_command, argv, tmp) for name, argv in COMMANDS.items()}


def discard(out) -> None:
    """Remove a command's output directory once its call is measured."""
    if isinstance(out, Path) and out.is_dir():
        shutil.rmtree(out)


def printed(value) -> bytes:
    return (str(value) if isinstance(value, int) else value.format()).encode()


def digest(out) -> str:
    """The sha256 of a call's output: a written file's bytes, a command's
    output files but its manifest in name order, printed oracle values
    joined by newlines, or an array as little-endian int64."""
    if isinstance(out, Path) and out.is_dir():
        data = b"".join(p.read_bytes() for p in sorted(out.iterdir())
                        if not p.name.endswith(".manifest.json"))
    elif isinstance(out, Path):
        data = out.read_bytes()
    elif isinstance(out, list):
        data = b"\n".join(map(printed, out))
    else:
        data = out.astype("<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    discard(out)
    return peak


def timed(call) -> float:
    start = time.perf_counter()
    out = call()
    seconds = time.perf_counter() - start
    discard(out)
    return seconds


def serve(layer: str) -> None:
    """Print one JSON line of each input's digest and heap peak (the first
    call is also the warm-up), then, for each input name read from stdin,
    the seconds of one call of it."""
    sys.set_int_max_str_digits(0)  # exact values near n = 2048 run to thousands of digits
    with tempfile.TemporaryDirectory() as tmp:
        calls = LAYERS[layer][1](Path(tmp))
        facts = {}
        for name, call in calls.items():
            out = call()
            facts[name] = {"sha256": digest(out), "peak_bytes": traced_peak(call)}
            discard(out)
        print(json.dumps(facts), flush=True)
        for line in sys.stdin:
            print(json.dumps([timed(calls[line.strip()])]), flush=True)


def ask(server: subprocess.Popen, name: str) -> list:
    """[seconds] of one call of ``name`` in a served child."""
    server.stdin.write(name + "\n")
    server.stdin.flush()
    return json.loads(server.stdout.readline())


@contextlib.contextmanager
def served(layer: str, trees: list):
    """Each tree's run of one input in its own serving child, and each
    tree's digests and heap peaks."""
    servers, facts = [], []
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as children:
        for tree in trees:  # one at a time, so the warm-ups do not overlap
            servers.append(children.enter_context(subprocess.Popen(
                [sys.executable, "-c", f"import bench_layers\nbench_layers.serve({layer!r})"],
                env=child_env(tree, tmp), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True)))
            line = servers[-1].stdout.readline()
            if not line:
                raise RuntimeError(f"the {layer} child of {tree} exited {servers[-1].wait()} "
                                   "before its facts line")
            facts.append(json.loads(line))
        yield [functools.partial(ask, server) for server in servers], facts


def start(commands: dict, tmp: str, env: dict, name: str) -> tuple:
    """(seconds, numpy imported, peak RSS in KiB) of one fresh interpreter
    running command ``name``."""
    code, argv = commands[name]
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code + _STARTUP_TAIL,
                           *(a.format(tmp=tmp) for a in argv)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - begin
    if proc.returncode:
        raise RuntimeError(f"start {name} exited {proc.returncode}:\n{proc.stderr}")
    return (seconds, *json.loads(proc.stderr.splitlines()[-1]))


@contextlib.contextmanager
def started(commands: dict, trees: list):
    """Each tree's fresh start of one command, all in one scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        yield ([functools.partial(start, commands, tmp, child_env(tree, tmp)) for tree in trees],
               [{name: {} for name in commands} for _ in trees])


def child_env(tree: Path, tmp: str) -> dict:
    """The environment of every child that runs ``tree``'s package: a copy
    of its ``src/`` in ``tmp``, then ``tools/``, first on ``PYTHONPATH``."""
    src = shutil.copytree(tree / "src", tempfile.mkdtemp(dir=tmp), dirs_exist_ok=True,
                          ignore=shutil.ignore_patterns("__pycache__"))
    path = [src, str(ROOT / "tools"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


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


def summary(runs: list) -> dict:
    """The min, quartiles and median of one input's seconds, the first item
    of each run; a fresh start's run adds its numpy flag and peak RSS."""
    seconds, *extra = zip(*runs)
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    result = {"min_s": min(seconds), "q1_s": q1, "median_s": statistics.median(seconds),
              "q3_s": q3, "repeats": len(seconds)}
    if extra:
        numpy_flags, rss = extra
        result.update(peak_rss_bytes=statistics.median(rss) * 1024,
                      numpy_imported=any(numpy_flags))
    return result


def compare(runs: list, facts: list) -> dict:
    """input name -> the facts and run summary of each input that every tree
    has, from ``REPEATS`` runs per tree, or with two trees both trees' and
    the pairs the first won.  ``runs[tree](name)`` makes one run."""
    names = [name for name in facts[0] if all(name in f for f in facts)]
    results = [{name: [] for name in names} for _ in runs]
    order = list(range(len(runs)))
    for repeat in range(REPEATS):  # inputs interleaved, so host load hits each alike
        for name in names:
            # the trees take turns to go first, so neither always follows the other
            for tree in order if repeat % 2 == 0 else order[::-1]:
                results[tree][name].append(runs[tree](name))
    summaries = [{name: dict(f[name], **summary(rs[name])) for name in names}
                 for f, rs in zip(facts, results)]
    if len(runs) == 1:
        return summaries[0]
    this, other = results
    return {name: {"this": summaries[0][name], "against": summaries[1][name],
                   "wins": sum(a[0] < b[0] for a, b in zip(this[name], other[name]))}
            for name in names}


def bench(layer: str, against: Path | None = None) -> None:
    what, source = LAYERS[layer]
    trees = [ROOT] + ([against] if against else [])
    runner = started(source, trees) if isinstance(source, dict) else served(layer, trees)
    with runner as (runs, facts):
        write_report(layer, what, compare(runs, facts), against)


# layer -> (what it times, its served calls or its fresh-interpreter commands)
LAYERS = {
    "writer": ("io.write_rows", writer_calls),
    "oracles": ("oracles", oracle_calls),
    "kernels": ("processes._KERNELS, processes.batch_total_degrees, "
                "processes.sequential_choices, analysis.replicate_counts", kernel_calls),
    "commands": ("cli.main: the generate, experiment fraction, concentration and equivalence, "
                 "and enumerate commands of the benchmark's workloads", command_calls),
    "startup": ("fresh interpreters: import lcdgraph.cli, .exact and .analysis; oracle, "
                "generate, enumerate, experiment region, fraction and equivalence", STARTUP),
}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time layers of lcdgraph on fixed work.")
    parser.add_argument("layers", nargs="*", metavar="layer", help=f"any of {tuple(LAYERS)}")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="another checkout to pair with this one's runs")
    args = parser.parse_args(argv)
    unknown = [name for name in args.layers if name not in LAYERS]
    if unknown:
        print(f"unknown layer {unknown[0]!r}, not one of {tuple(LAYERS)}", file=sys.stderr)
        return 2
    if args.against and not (args.against / "src" / "lcdgraph" / "cli.py").is_file():
        print(f"--against {args.against} holds no src/lcdgraph/cli.py", file=sys.stderr)
        return 2
    for name in args.layers or LAYERS:
        bench(name, args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
