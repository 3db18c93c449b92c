"""Span recording around the calls one lcdgraph module makes into another.

The tracer swaps timing wrappers onto the module attributes through which a
layer is called, records one span per call (name, start, end, parent,
thread) or, at boundaries crossed thousands of times per command, only a
total and a count per call site, and restores every attribute on exit.
Nothing is written while tracing; ``dump`` writes the spans at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

# (module, attribute, trace name, aggregate-only).  The module attribute is
# what the calling layer looks up at call time, so patching it intercepts
# exactly the calls that cross the boundary.
TARGETS = [
    ("lcdgraph.cli", "generate", "processes.generate", False),
    ("lcdgraph.analysis", "generate", "processes.generate", False),
    ("lcdgraph.processes", "fill_endpoints", "processes.fill_endpoints", False),
    ("lcdgraph.processes", "build_urn_weights", "processes.build_urn_weights", False),
    ("lcdgraph.processes", "sample_partner_array", "lcd.sample_partner_array", False),
    ("lcdgraph.processes", "graph_from_partner_array", "lcd.graph_from_partner_array", False),
    ("lcdgraph.cli", "batch_total_degrees", "processes.batch_total_degrees", False),
    ("lcdgraph.lcd:LcdGraph", "degrees_of", "lcd.degrees_of", False),
    ("lcdgraph.cli", "enumerate_pairings", "lcd.enumerate_pairings", True),
    ("lcdgraph.cli", "pairing_to_graph", "lcd.pairing_to_graph", True),
    ("lcdgraph.cli", "empirical_fraction", "analysis.empirical_fraction", False),
    ("lcdgraph.cli", "concentration_experiment", "analysis.concentration_experiment", False),
    ("lcdgraph.cli", "degree_rows_to_distribution", "analysis.degree_rows_to_distribution", False),
    ("lcdgraph.cli", "tv_distance", "analysis.tv_distance", False),
    ("lcdgraph.cli", "write_graph", "io.write_graph", False),
    ("lcdgraph.cli", "_sha256", "cli.sha256", False),
    ("lcdgraph.cli", "prob_dk", "oracles.prob_dk", True),
    ("lcdgraph.cli", "count_ns", "oracles.count_ns", True),
    ("lcdgraph.cli", "ratio_f", "oracles.ratio_f", True),
    ("lcdgraph.cli", "cond_prob_degree", "oracles.cond_prob_degree", True),
    ("lcdgraph.cli", "mode_s01", "oracles.mode_s01", True),
    ("lcdgraph.cli", "mode_s02", "oracles.mode_s02", True),
]

GENERATOR_TARGETS = {"lcd.enumerate_pairings"}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Frame:
    __slots__ = ("name", "label", "start", "cpu", "child", "span_id", "parent")

    def __init__(self, name, label, start, cpu, span_id, parent):
        self.name, self.label, self.start, self.cpu = name, label, start, cpu
        self.child, self.span_id, self.parent = 0.0, span_id, parent


class Tracer:
    """Per-boundary time, self time and call counts, keyed by
    (trace name, label); ``label`` names the command being run and is set
    by the caller before each command."""

    def __init__(self):
        self.label = ""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # work done, fed by the observers given to install
        self.spans = []  # (id, name, label, start, end, parent, thread, cpu seconds)
        self.absent = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._next_id = 0
        self._lock = threading.Lock()  # worker threads update the same tables
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, label: str, record: bool) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        elif stack is not self._main_stack and self._main_stack:
            # a worker thread of a replicate loop: the caller is the span
            # open on the main thread
            parent = self._main_stack[-1].span_id
        else:
            parent = None
        span_id = None
        if record:
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
        cpu = thread_time() if record else 0.0
        frame = _Frame(name, label, perf_counter(), cpu, span_id, parent)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        key = (frame.name, frame.label)
        with self._lock:
            self.total[key] += dur
            self.self_time[key] += dur - frame.child
            self.calls[key] += 1
            if frame.span_id is not None:
                self.spans.append(
                    (frame.span_id, frame.name, frame.label, frame.start, end,
                     frame.parent, threading.get_ident(), thread_time() - frame.cpu)
                )
        return dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a recorded span (used for the CLI entry point)."""
        frame = self._enter(name, self.label, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _wrapper(self, name: str, fn, aggregate: bool, observe=None):
        tracer = self
        if name in GENERATOR_TARGETS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name, tracer.label, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tracer.label
            if name == "processes.batch_total_degrees":
                label = args[0]  # the variant
            frame = tracer._enter(name, label, not aggregate)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                counter, amount = observe
                with tracer._lock:
                    tracer.counts[counter] += amount(args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, observers: dict) -> None:
        """Swap the wrappers in.  A target that no longer exists is recorded
        as absent instead of failing the run."""
        for owner_spec, attr, name, aggregate in TARGETS:
            try:
                owner = _owner(owner_spec)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner_spec}.{attr}")
                continue
            wrapped = self._wrapper(name, original, aggregate, observers.get(name))
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def seconds(self, name: str, labels=None, self_only: bool = False) -> float:
        """Time inside ``name`` summed over ``labels`` (all when None)."""
        table = self.self_time if self_only else self.total
        return sum(v for (n, l), v in table.items()
                   if n == name and (labels is None or l in labels))

    def call_count(self, name: str, labels=None) -> int:
        return sum(v for (n, l), v in self.calls.items()
                   if n == name and (labels is None or l in labels))

    def threaded_stats(self, name: str):
        """For a replicate loop: (wall seconds, wall minus the union of its
        children's intervals, summed CPU seconds of the children).  Children
        run on worker threads, so the main thread's self time would count
        their work; and a child waiting for the interpreter lock is open but
        not running, so only its CPU time shows real overlap."""
        wall = covered = child_cpu = 0.0
        for span_id, n, _, start, end, _, _, _ in self.spans:
            if n != name:
                continue
            kids = sorted((s, e) for _, _, _, s, e, p, _, _ in self.spans if p == span_id)
            wall += end - start
            child_cpu += sum(c for _, _, _, _, _, p, _, c in self.spans if p == span_id)
            lo = hi = None
            for s, e in kids:
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
        return wall, wall - covered, child_cpu

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "label", "start", "end", "parent", "thread", "cpu")
        payload = {
            "absent": self.absent,
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "aggregates": [
                {"name": n, "label": l, "seconds": self.total[(n, l)],
                 "self_seconds": self.self_time[(n, l)], "calls": self.calls[(n, l)]}
                for (n, l) in sorted(self.total)
            ],
        }
        path.write_text(json.dumps(payload) + "\n")
