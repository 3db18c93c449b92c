"""Workloads, output checks and metrics of the lcdgraph benchmark.

Each workload is a closed loop with one client: it runs its CLI commands back
to back through ``lcdgraph.cli.main`` in this process, checks every output,
and repeats the round a fixed number of times, set from the run's seconds by
the round's nominal time, so that two runs with one seed do the same work.
Import this module only after ``run.bootstrap`` has put the checkout's
``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import lcdgraph.cli as cli
from lcdgraph import oracles

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# CLI seeds are the workload seed modulo PIN_SLOTS, because the outputs of
# the sequential and replicate commands are pinned for every slot.
PIN_SLOTS = 16

# The oracle sweep covers n up to 2048, the top of the exact regime
# (2n <= oracles.EXACT_CAP).
ORACLE_NS = [2**i for i in range(1, 12)]
ORACLE_FORMULAS = ("prob-dk", "count-ns", "ratio-f", "mode-s01", "mode-s02", "cond-prob")
CELLS_PER_FORMULA = 8
# The cells at the top n, where the known int-to-str failures lie, come from
# this fixed draw, so that the number of failed calls does not depend on the
# workload seed.
TOP_CELLS_SEED = 0

# fresh interpreters timed per run, at least; spread over its timed rounds
SETUP_REPEATS = 12
SETUP_CODE = "import lcdgraph.cli as c; c.build_parser()"

# Wall time of one round of each workload, checks included, rounded up from
# a quiet 2-vCPU host.  A run does one untimed warm-up round, then
# seconds / nominal timed rounds (at least two), whatever the host's load,
# so that its work and its counts of attempted and failed operations depend
# only on the seed.
NOMINAL_ROUND_S = {"generate": 2.0, "experiments": 2.5, "exact": 6.0}
MIN_ROUNDS = 2

# The host is shared: its speed drifts by up to 2x over spells of seconds to
# minutes, in the program and a fixed probe alike.  Each round times a fixed
# piece of pure-Python work, unrelated to lcdgraph, PROBE_REPEATS times
# before its first step and after each step, and the end-to-end times are
# scaled by PROBE_REF_S over the round's median probe time: seconds on a
# host on which the probe takes PROBE_REF_S, the quiet reference host.
PROBE_REPEATS = 3
PROBE_REF_S = 0.010

# Python refuses to print an int of more than 4300 digits; oracle commands
# whose value is that large exit 2.  This is a known defect of the program,
# counted as a failed operation but not as a wrong output.
INT_LIMIT_MESSAGE = "integer string conversion"

GENERATE_LABELS = ("sequential", "pairing", "urn", "sequential_1e6")
REPLICATE_LABELS = ("fraction", "concentration")
CLI_COMMANDS = {
    "generate": GENERATE_LABELS,
    "fraction": ("fraction",),
    "concentration": ("concentration",),
    "equivalence": ("equivalence",),
    "enumerate": ("enumerate",),
    "oracle": ("oracle",),
}
# per-command figures printed by name, keyed by round step
NAMED_STEPS = {
    "sequential": "generate_sequential_s",
    "pairing": "generate_pairing_s",
    "urn": "generate_urn_s",
    "sequential_1e6": "generate_1e6_s",
    "fraction": "fraction_s",
    "concentration": "concentration_s",
    "equivalence": "equivalence_s",
    "enumerate": "enumerate_s",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class Wrong(Exception):
    """An output that is missing or differs from what it must be."""


class KnownDefect(Exception):
    """A failure of the known int-to-str kind."""


@dataclass
class Command:
    label: str  # the round step this command belongs to
    argv: list  # "{out}" stands for the work directory
    check: Callable
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    code: object
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Round:
    step_seconds: Counter = field(default_factory=Counter)
    step_ok: Counter = field(default_factory=Counter)
    step_failed: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # probe seconds

    @property
    def seconds(self) -> float:
        return sum(self.step_seconds.values())

    @property
    def speed(self) -> float:
        """Factor that turns this round's seconds into reference seconds."""
        return PROBE_REF_S / statistics.median(self.probes)

    @property
    def ok(self) -> int:
        return sum(self.step_ok.values())

    @property
    def failed(self) -> int:
        return sum(self.step_failed.values())


@dataclass
class Context:
    seed: int
    slot: int
    pins: dict
    workdir: Path
    seen: dict = field(default_factory=dict)  # label -> digests of the first repeat
    batches: dict = field(default_factory=dict)  # equivalence rows by variant
    expected: dict = field(default_factory=dict)  # oracle cell -> printed value
    notes: dict = field(default_factory=dict)  # figures printed, not gated


# ---------------------------------------------------------------------------
# output checks


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_outputs(workdir: Path, names) -> dict:
    try:
        return {name: sha256_file(workdir / name) for name in names}
    except OSError as exc:
        raise Wrong(f"missing output: {exc}") from None


def expect_exit(out: Outcome, *codes) -> None:
    if out.code not in codes:
        raise Wrong(f"exit code {out.code}, expected {codes}: {out.stderr.strip()[-300:]}")


def check_manifest(ctx: Context, manifest_name: str, digests: dict) -> None:
    """The manifest must record the digests of the bytes on disk."""
    try:
        manifest = json.loads((ctx.workdir / manifest_name).read_text())
    except (OSError, ValueError) as exc:
        raise Wrong(f"unreadable manifest: {exc}") from None
    if manifest.get("outputs") != digests:
        raise Wrong(f"manifest digests {manifest.get('outputs')} != {digests}")


def check_pinned_graph(out: Outcome, ctx: Context, cmd: Command) -> None:
    expect_exit(out, 0)
    digests = digest_outputs(ctx.workdir, ("graph.csv", "graph.csv.header.json"))
    check_manifest(ctx, "graph.csv.manifest.json", digests)
    pinned = ctx.pins["generate"][str(ctx.slot)][cmd.label]
    if digests != pinned:
        raise Wrong(f"{cmd.label} digests {digests} differ from the pinned {pinned}")


def check_graph_invariants(out: Outcome, ctx: Context, cmd: Command) -> None:
    """Pairing and urn bytes are not pinned (planned kernel changes alter
    them on purpose); check the digest repeats within the run and the graph's
    shape: out-degree m everywhere and 1 <= tgt <= src <= n."""
    expect_exit(out, 0)
    digests = digest_outputs(ctx.workdir, ("graph.csv", "graph.csv.header.json"))
    check_manifest(ctx, "graph.csv.manifest.json", digests)
    n, m = cmd.params["n"], cmd.params["m"]
    data = (ctx.workdir / "graph.csv").read_bytes()
    try:
        edges = np.fromstring(data.replace(b"\n", b",").rstrip(b","), dtype=np.int64, sep=",")
    except ValueError as exc:
        raise Wrong(f"unparsable edge list: {exc}") from None
    if edges.size != 2 * n * m:
        raise Wrong(f"{edges.size // 2} edges, expected {n * m}")
    src, tgt = edges[0::2], edges[1::2]
    if tgt.min() < 1 or src.max() > n or bool((tgt > src).any()):
        raise Wrong("an edge breaks 1 <= tgt <= src <= n")
    if not bool((np.bincount(src, minlength=n + 1)[1:] == m).all()):
        raise Wrong(f"a vertex has out-degree other than {m}")
    header = json.loads((ctx.workdir / "graph.csv.header.json").read_text())
    want = {"n": n, "m": m, "variant": cmd.params["variant"], "seed": ctx.slot}
    if header != want:
        raise Wrong(f"header {header} != {want}")
    first = ctx.seen.setdefault(cmd.label, digests)
    if digests != first:
        raise Wrong(f"{cmd.label} digests changed between repeats of one seed")


def check_pinned_report(out: Outcome, ctx: Context, cmd: Command) -> None:
    pinned = ctx.pins["replicates"][str(ctx.slot)][cmd.label]
    expect_exit(out, pinned["exit"])
    digests = digest_outputs(ctx.workdir, (f"{cmd.label}.json", f"{cmd.label}.csv"))
    check_manifest(ctx, f"{cmd.label}.json.manifest.json", digests)
    if digests != pinned["digests"]:
        raise Wrong(f"{cmd.label} report digests {digests} differ from the pinned ones")


@functools.cache
def exact_collapsed_law(n: int, m: int) -> dict:
    """Exact law of the total-degree sequence of the sequential process on
    n*m primed vertices, collapsed in blocks of m.  Every path of choices
    has probability 1/(2nm-1)!!, so counting paths is enough."""
    big = n * m
    counts = Counter()
    for choices in itertools.product(*(range(2 * t - 1) for t in range(1, big + 1))):
        ends = []
        for t, r in enumerate(choices, 1):
            ends.append(t)
            ends.append(ends[r])
        degs = [0] * n
        for e in ends:
            degs[(e - 1) // m] += 1
        counts[tuple(degs)] += 1
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def empirical_law(rows: np.ndarray) -> dict:
    """Frequencies of the distinct rows, counted through a row code."""
    shape = (int(rows.max()) + 1,) * rows.shape[1]
    freq = np.bincount(np.ravel_multi_index(rows.T, shape))
    seen = np.flatnonzero(freq)
    keys = zip(*(a.tolist() for a in np.unravel_index(seen, shape)))
    return dict(zip(keys, (freq[seen] / len(rows)).tolist()))


def tv(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def check_equivalence(out: Outcome, ctx: Context, cmd: Command) -> None:
    """Sequential and pairing rows must be within TV 0.01 of the exact law;
    the urn's distances are recorded only, as its verdict fails by design."""
    expect_exit(out, 0, 1)
    digests = digest_outputs(ctx.workdir, ("equivalence.json", "equivalence.csv"))
    check_manifest(ctx, "equivalence.json.manifest.json", digests)
    law = exact_collapsed_law(cmd.params["n"], cmd.params["m"])
    batches, ctx.batches = ctx.batches, {}
    if set(batches) != {"sequential", "pairing", "urn"}:
        raise Wrong(f"sampled variants {sorted(batches)}")
    emp = {v: empirical_law(rows) for v, rows in batches.items()}
    for v in emp:
        ctx.notes[f"tv_exact_{v}"] = tv(emp[v], law)
    for v in ("sequential", "pairing"):
        if ctx.notes[f"tv_exact_{v}"] > 0.01:
            raise Wrong(f"{v} is at TV {ctx.notes[f'tv_exact_{v}']:.5f} from the exact law")
    report = json.loads((ctx.workdir / "equivalence.json").read_text())
    reported = report["aggregates"]["tv_sequential_pairing"]
    if abs(reported - tv(emp["sequential"], emp["pairing"])) > 1e-9:
        raise Wrong(f"reported tv_sequential_pairing {reported} does not match the sampled rows")


def check_enumerate(out: Outcome, ctx: Context, cmd: Command) -> None:
    expect_exit(out, 0)
    digests = digest_outputs(ctx.workdir, ("pairings.csv",))
    check_manifest(ctx, "pairings.csv.manifest.json", digests)
    pinned = ctx.pins["enumerate"]
    rows = (ctx.workdir / "pairings.csv").read_bytes().count(b"\n") - 1
    if rows != pinned["rows"] or digests["pairings.csv"] != pinned["sha256"]:
        raise Wrong(f"enumerate wrote {rows} rows with digest {digests['pairings.csv']}")


def oracle_value(formula: str, n: int, k: int, s: int, d: int):
    if formula == "prob-dk":
        return oracles.prob_dk(oracles.DkQuery(n, k, s))
    if formula == "count-ns":
        return oracles.count_ns(oracles.DkQuery(n, k, s))
    if formula == "ratio-f":
        return oracles.ratio_f(n, k, s)
    if formula == "mode-s01":
        return oracles.mode_s01(n, k)
    if formula == "mode-s02":
        return oracles.mode_s02(n, k)
    return oracles.cond_prob_degree(n, k, s, d)


def printed(value) -> str:
    """The library value as the CLI must print it."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if value.tag == "exact":
        return f"{value.value.numerator}/{value.value.denominator} (exact)"
    return f"exp({value.value:.15g}) (log)"


def check_oracle(out: Outcome, ctx: Context, cmd: Command) -> None:
    if out.code == 2 and INT_LIMIT_MESSAGE in out.stderr:
        raise KnownDefect(out.stderr.strip())
    expect_exit(out, 0)
    cell = tuple(cmd.params.values())
    if cell not in ctx.expected:
        try:
            ctx.expected[cell] = printed(oracle_value(*cell))
        except ValueError as exc:  # too many digits to print here as well
            ctx.expected[cell] = f"unprintable: {exc}"
    if out.stdout.strip() != ctx.expected[cell]:
        raise Wrong(f"oracle {cell} printed {out.stdout.strip()[:80]!r}")


# ---------------------------------------------------------------------------
# workloads


def generate_commands(ctx: Context) -> list:
    def gen(label, n, m, variant, check):
        argv = ["generate", "--n", str(n), "--m", str(m), "--variant", variant,
                "--seed", str(ctx.slot), "--out", "{out}/graph.csv"]
        return Command(label, argv, check, {"n": n, "m": m, "variant": variant})

    return [
        gen("sequential", 10**5, 3, "sequential", check_pinned_graph),
        gen("pairing", 10**5, 3, "pairing", check_graph_invariants),
        gen("urn", 10**5, 3, "urn", check_graph_invariants),
        gen("sequential_1e6", 10**6, 1, "sequential", check_pinned_graph),
    ]


def replicate_commands(ctx: Context) -> list:
    def exp(label, replicates):
        argv = ["experiment", label, "--n", "20000", "--m", "1", "--d", "1",
                "--replicates", str(replicates), "--threads", "2",
                "--seed", str(ctx.slot), "--out", f"{{out}}/{label}.json"]
        return Command(label, argv, check_pinned_report)

    return [exp("fraction", 20), exp("concentration", 100)]


def equivalence_commands(ctx: Context) -> list:
    argv = ["experiment", "equivalence", "--n", "3", "--m", "2", "--samples", "200000",
            "--seed", str(ctx.slot), "--out", "{out}/equivalence.json"]
    return [Command("equivalence", argv, check_equivalence, {"n": 3, "m": 2})]


def experiments_commands(ctx: Context) -> list:
    return replicate_commands(ctx) + equivalence_commands(ctx)


def oracle_cells(seed: int) -> list:
    """In-domain (formula, n, k, s, d) cells for every formula and n.

    Each coordinate is drawn from its own shuffled set of strata, so every
    seed gives another set of cells with nearly the same mix of sizes, and
    a sweep costs about the same for every seed.  The top n draws from
    ``TOP_CELLS_SEED`` instead."""
    rng = random.Random(seed)
    top = random.Random(TOP_CELLS_SEED)
    c = CELLS_PER_FORMULA
    cells = []
    for n, formula in itertools.product(ORACLE_NS, ORACLE_FORMULAS):
        draw = top if n == ORACLE_NS[-1] else rng
        strata = [draw.sample(range(c), c) for _ in range(3)]
        for i in range(c):
            uk, us, ud = ((strata[j][i] + draw.random()) / c for j in range(3))
            k_max = n - 1 if formula in ("ratio-f", "cond-prob") else n
            k = 1 + int(uk * k_max)
            s_max = n - k - 1 if formula == "ratio-f" else n - k
            s = int(us * (s_max + 1))
            d = int(ud * (n - k - s + 1)) if formula == "cond-prob" else 0
            cells.append((formula, n, k, s, d))
    rng.shuffle(cells)
    return cells


def exact_commands(ctx: Context) -> list:
    commands = [Command("enumerate", ["enumerate", "--n", "7", "--out", "{out}/pairings.csv"],
                        check_enumerate)]
    for formula, n, k, s, d in oracle_cells(ctx.seed):
        argv = ["oracle", formula, "--n", str(n), "--k", str(k), "--s", str(s), "--d", str(d)]
        params = {"formula": formula, "n": n, "k": k, "s": s, "d": d}
        commands.append(Command("oracle", argv, check_oracle, params))
    return commands


WORKLOADS = {
    "generate": generate_commands,
    "experiments": experiments_commands,
    "exact": exact_commands,
}


# ---------------------------------------------------------------------------
# running


def run_command(cmd: Command, ctx: Context, tracer: Tracer | None) -> Outcome:
    argv = [a.replace("{out}", str(ctx.workdir)) for a in cmd.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.label = cmd.label
                code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception:  # an escaping exception is a failed operation
        stderr.write(traceback.format_exc())
    seconds = perf_counter() - start
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), seconds)


def probe() -> float:
    """Seconds of a fixed piece of pure-Python work: dictionary updates,
    integer and string operations, a sort.  The collector is off, so that
    objects the program keeps alive do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        width = 0
        for i in range(40000):
            key = (i * 7919) % 1013
            table[key] = table.get(key, 0) + i
            width += len(str(i))
        sorted(table.items(), key=lambda kv: (kv[1], width))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_round(commands: list, ctx: Context, tracer: Tracer | None = None) -> Round:
    rnd = Round()
    rnd.probes += [probe() for _ in range(PROBE_REPEATS)]
    for i, cmd in enumerate(commands):
        out = run_command(cmd, ctx, tracer)
        rnd.step_seconds[cmd.label] += out.seconds
        try:
            cmd.check(out, ctx, cmd)
            rnd.step_ok[cmd.label] += 1
        except KnownDefect:
            rnd.step_failed[cmd.label] += 1
        except (Wrong, OSError, ValueError, KeyError) as exc:
            rnd.step_failed[cmd.label] += 1
            rnd.wrong.append(f"{cmd.label}: {exc}")
        finally:
            for path in ctx.workdir.iterdir():
                path.unlink()
        if i + 1 == len(commands) or commands[i + 1].label != cmd.label:
            rnd.probes += [probe() for _ in range(PROBE_REPEATS)]
    return rnd


def round_count(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


@contextlib.contextmanager
def capture_batches(ctx: Context):
    """Keep the rows each equivalence command samples, for its check."""
    original = cli.batch_total_degrees

    def capture(variant, *args, **kwargs):
        rows = original(variant, *args, **kwargs)
        ctx.batches[variant] = rows
        return rows

    cli.batch_total_degrees = capture
    try:
        yield
    finally:
        cli.batch_total_degrees = original


def measure_setup(repeats: int) -> list:
    """Wall times of ``repeats`` fresh interpreters each importing the CLI
    and building its parser."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        # no timeout: waiting with one polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        times.append(perf_counter() - start)
    return times


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    # with numba, lcdgraph jit-compiles its kernel: a different program
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
    }


def step_medians(rounds: list, scaled: bool = False) -> dict:
    """Each step's median seconds over ``rounds``; in reference seconds when
    ``scaled``."""
    steps = dict.fromkeys(label for r in rounds for label in r.step_seconds)
    return {s: statistics.median(r.step_seconds[s] * (r.speed if scaled else 1) for r in rounds)
            for s in steps}


def end_to_end(rounds: list, timed: list, setup_s: float) -> tuple:
    """``rounds`` are all rounds run, ``timed`` those after the warm-up.
    ``round_s`` sums each step's median over the timed rounds in reference
    seconds, so that neither a spell of host load during one round nor a
    slower host over the whole run moves it much."""
    ok = sum(r.ok for r in rounds)
    attempted = ok + sum(r.failed for r in rounds)
    step_median = step_medians(timed, scaled=True)
    steps = list(step_median)
    metrics = {
        "setup_s": setup_s,
        "round_s": sum(step_median.values()),
        "ok_frac": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {NAMED_STEPS[s]: (step_median[s], "s") for s in steps if s in NAMED_STEPS}
    if "oracle" in steps:
        named["oracle_ok_per_s"] = (
            statistics.median(r.step_ok["oracle"] / r.step_seconds["oracle"] for r in timed),
            "1/s",
        )
    named["failed_frac"] = (1 - ok / attempted, "frac")
    named["wall_round_s"] = (sum(step_medians(timed).values()), "s")
    named["host_speed"] = (statistics.median(r.speed for r in timed), "ratio")
    return metrics, named


def layer_metrics(tr: Tracer, traced: list, baseline_s: float, failed_oracles: float) -> dict:
    """Per-layer figures of the traced rounds.  Times are shares of the
    traced wall time (a layer a workload never enters reads 0); counts are
    per round."""
    wall = sum(r.seconds for r in traced)
    rounds = len(traced)

    def share(name, labels=None, self_only=False):
        return tr.seconds(name, labels, self_only) / wall

    m = {}
    for v in GENERATE_LABELS + ("replicate",):
        labels = REPLICATE_LABELS if v == "replicate" else (v,)
        m[f"processes.generate.{v}_frac"] = share("processes.generate", labels)
    for v in GENERATE_LABELS:
        m[f"processes.self.{v}_frac"] = share("processes.generate", (v,), self_only=True)
    for v in ("sequential", "sequential_1e6", "replicate"):
        labels = REPLICATE_LABELS if v == "replicate" else (v,)
        m[f"processes.fill_endpoints.{v}_frac"] = share("processes.fill_endpoints", labels)
    m["processes.build_urn_weights_frac"] = share("processes.build_urn_weights")
    for v in ("sequential", "pairing", "urn"):
        m[f"processes.batch_total_degrees.{v}_frac"] = share("processes.batch_total_degrees", (v,))
    m["processes.edges"] = tr.counts["processes.edges"] / rounds
    for name in ("sample_partner_array", "graph_from_partner_array", "degrees_of",
                 "enumerate_pairings", "pairing_to_graph"):
        m[f"lcd.{name}_frac"] = share(f"lcd.{name}")
    m["lcd.pairing_to_graph.calls"] = tr.call_count("lcd.pairing_to_graph") / rounds
    loops_wall = child_cpu = 0.0
    for name in ("empirical_fraction", "concentration_experiment"):
        lwall, lself, lcpu = tr.threaded_stats(f"analysis.{name}")
        m[f"analysis.{name}_frac"] = lwall / wall
        m[f"analysis.{name}.self_frac"] = lself / wall
        loops_wall += lwall
        child_cpu += lcpu
    m["analysis.replicate_overlap"] = child_cpu / loops_wall if loops_wall else 0.0
    m["analysis.degree_rows_to_distribution_frac"] = share("analysis.degree_rows_to_distribution")
    m["analysis.tv_distance_frac"] = share("analysis.tv_distance")
    m["analysis.rows"] = tr.counts["analysis.rows"] / rounds
    for v in GENERATE_LABELS:
        m[f"io.write_graph.{v}_frac"] = share("io.write_graph", (v,))
    m["io.bytes_written"] = tr.counts["io.bytes_written"] / rounds
    for command, labels in CLI_COMMANDS.items():
        m[f"cli.main.{command}_frac"] = share("cli.main", labels)
        m[f"cli.self.{command}_frac"] = share("cli.main", labels, self_only=True)
    m["cli.sha256_frac"] = share("cli.sha256")
    m["cli.bytes_hashed"] = tr.counts["cli.bytes_hashed"] / rounds
    for formula in ORACLE_FORMULAS:
        name = {"cond-prob": "cond_prob_degree"}.get(formula, formula.replace("-", "_"))
        m[f"oracles.{name}_frac"] = share(f"oracles.{name}")
    m["oracles.calls"] = tr.call_count("cli.main", ("oracle",)) / rounds
    m["oracles.failed"] = failed_oracles
    m["trace.round_s"] = sum(step_medians(traced).values())
    m["trace.overhead_frac"] = m["trace.round_s"] / baseline_s - 1
    return m


def _header_path(path) -> Path:
    return Path(path).with_name(Path(path).name + ".header.json")


# trace name -> (counter, amount of work in one call given its args and result)
OBSERVERS = {
    "processes.generate": ("processes.edges", lambda args, g: g.n_edges),
    "analysis.degree_rows_to_distribution": ("analysis.rows", lambda args, _: len(args[0])),
    "io.write_graph": ("io.bytes_written", lambda args, path: (
        Path(path).stat().st_size + _header_path(path).stat().st_size)),
    "cli.sha256": ("cli.bytes_hashed", lambda args, _: Path(args[0]).stat().st_size),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    pins = json.loads((HERE / "pins.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    ctx = Context(seed=seed, slot=seed % PIN_SLOTS, pins=pins, workdir=workdir)
    commands = WORKLOADS[workload](ctx)
    count = round_count(workload, seconds)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        with contextlib.ExitStack() as stack:
            if workload == "experiments":
                stack.enter_context(capture_batches(ctx))
            warmup = run_round(commands, ctx)
            if not trace:
                timed, setup_times = [], []
                for _ in range(count):
                    timed.append(run_round(commands, ctx))
                    # in reference seconds, at the speed of the round just run
                    setup_times += [t * timed[-1].speed
                                    for t in measure_setup(-(-SETUP_REPEATS // count))]
                rounds = [warmup] + timed
                metrics, named = end_to_end(rounds, timed, statistics.median(setup_times))
            else:
                # one untraced round after the warm-up is the base for the
                # tracing overhead
                baseline = run_round(commands, ctx)
                tracer = stack.enter_context(Tracer())
                tracer.install(OBSERVERS)
                traced = [run_round(commands, ctx, tracer) for _ in range(count)]
                rounds = [warmup, baseline] + traced
                failed_oracles = statistics.mean(r.step_failed["oracle"] for r in traced)
                metrics = layer_metrics(tracer, traced, baseline.seconds, failed_oracles)
                named = {}
                tracer.dump(RESULTS / f"spans-{tag}.json")
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    ok = sum(r.ok for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = [w for r in rounds for w in r.wrong]
    units = {k: END_TO_END_UNITS.get(k) or layer_unit(k) for k in metrics}
    facts = machine()
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {workload} seed {seed} cli-seed {ctx.slot} rounds {len(rounds)}")
    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in ctx.notes.items():
        print(f"note {name} {value:.6g}")
    if trace:
        print("absent " + (", ".join(tracer.absent) or "none"))
    for w in wrong:
        print(f"wrong: {w}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": ok + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, machine=facts,
                  named={k: v for k, (v, _) in named.items()},
                  notes=ctx.notes,
                  wrong=wrong, round_seconds=[r.seconds for r in rounds],
                  probe_seconds=[r.probes for r in rounds])
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s"
    if name in ("io.bytes_written", "cli.bytes_hashed"):
        return "B"
    if name == "analysis.replicate_overlap":
        return "ratio"
    return "count"
