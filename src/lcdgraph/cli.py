"""Command-line front end: generate graphs, evaluate the closed-form
oracles, and run the reproducible experiments.

``generate`` and every sampling experiment accept ``--seed``; when omitted,
``main`` draws one from OS entropy, so every run is replayable.  Commands
that write files also write ``<out>.manifest.json``: the resolved command
line, once, and sha256 digests of the outputs; ``lcdgraph replay --manifest
<file>`` re-executes the recorded command and verifies byte-identical
outputs.  An experiment's report records as its parameters the parsed flags
other than ``--out`` and ``--threads``, plus any value it derives from them.

Importing this module and building its parser load only ``errors`` and the
standard library that parsing needs.  A command imports only what it runs:
each handler and helper first binds the modules whose names it reads
(``_BINDINGS``), not ``main``, so ``oracle`` loads ``oracles`` alone and
``generate`` numpy, ``lcd``, ``io`` and ``processes``.  A standard-library
module that only some commands use is imported inside the function that uses it.
"""

import argparse
import functools
import importlib
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import DomainError

# The names that the command handlers read from the other modules of the
# package, by module.  Every function here that reads one of these names
# binds its module's names into this module's globals as its first statement,
# and so does outside code reading one as ``cli.<name>``: no command-wide bind.
_BINDINGS = {
    ".oracles": {
        "DkQuery",
        "cond_prob_degree",
        "count_ns",
        "expected_count",
        "lemma2_approx",
        "mode_s01",
        "mode_s02",
        "prob_dk",
        "ratio_f",
        "tail_bound",
    },
    ".regions": {"RegionSystem", "builtin_max_alpha", "region_max_alpha"},
    ".analysis": {
        "concentration_experiment",
        "corollary_experiment",
        "degree_histogram",
        "degree_rows_to_distribution",
        "empirical_fraction",
        "limiting_in_degree_gamma",
        "power_law_exponent",
        "row_code_space",
        "sum_s1",
        "sum_s2_bound",
    },
    ".exact": {"tv_distance"},
    ".io": {"graph_files", "write_csv", "write_graph", "write_json", "write_rows"},
    ".lcd": {"enumerate_pairings", "pair_degree_rows"},
    ".processes": {"VARIANTS", "ProcessParams", "batch_total_degrees", "generate",
                   "replicate_rng"},
}

MAX_THREADS = 64  # --threads above this is refused: each thread past the caller is an OS thread
INT_FLAG_MAX = 2**63 - 1  # an int flag above this is refused: it may overflow a float
# parsed values that are not flags: the command path, its handler, its start time
_NOT_FLAGS = ("subcommand", "experiment_name", "func", "started")


def _bind(modules) -> None:
    """Import each of ``modules``, keys of ``_BINDINGS``, and bind its names
    into this module, unless all of them are bound: after the first command
    that needs a module, a call only checks its names.  A name already bound
    keeps its value, so a wrapper that a caller swapped onto ``cli.<name>``
    before the first command stays in place."""
    names = globals()
    for module in modules:
        if names.keys() >= _BINDINGS[module]:
            continue
        source = importlib.import_module(module, __package__)
        for attr in _BINDINGS[module]:
            names.setdefault(attr, getattr(source, attr))


def __getattr__(name: str):
    """``cli.<name>`` of a name of ``_BINDINGS`` not bound yet (PEP 562)."""
    for module, attrs in _BINDINGS.items():
        if name in attrs:
            _bind((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x) -> str:
    """Numeric formatting for stdout: rationals as p/q, floats via the
    shortest round-trip representation (15+ significant digits)."""
    from fractions import Fraction  # loaded with the oracles and regions

    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def finite_float(text: str) -> float:
    """The value of a float flag; argparse names the flag when it is refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def integer(text: str) -> int:
    """The value of an int flag other than ``--seed``, ``--replicate`` and
    ``--threads``; argparse names the flag when it is refused."""
    value = int(text)
    if value > INT_FLAG_MAX:
        raise argparse.ArgumentTypeError(f"must be at most 2^63 - 1 = {INT_FLAG_MAX}")
    return value


def _sha256(path: Path) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _peak_rss_bytes() -> int | None:
    """This process's own peak resident memory, ``VmHWM`` (Linux), or None
    where /proc/self/status is absent.  Not ``ru_maxrss``: on Linux that
    starts from the peak of the process that forked this one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # in kB
    except OSError:
        pass
    return None


def _write_manifest(args, out_path: Path, outputs) -> None:
    """Record the resolved invocation next to its outputs, the seconds since
    ``main`` parsed it, the process's peak resident memory, the Python version
    and that of the numpy loaded, or None.  ``replay`` compares only the digests."""
    _bind((".io",))
    import platform

    argv = [args.subcommand]
    if getattr(args, "experiment_name", None):
        argv.append(args.experiment_name)
    for key, val in sorted(vars(args).items()):
        if key in _NOT_FLAGS or val is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(val)])
    manifest = {
        "argv": argv,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_clock_seconds": time.time() - args.started,
        "peak_rss_bytes": _peak_rss_bytes(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    write_json(out_path.with_name(out_path.name + ".manifest.json"), manifest)


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    _bind((".lcd", ".io"))
    blocks = enumerate_pairings(args.n)  # checks n before the file is opened
    out = Path(args.out)
    n = args.n
    # a row: its n pairs "a-b" joined by ";", a ",", its n degrees joined by ";"
    seps = b"-;" * (n - 1) + b"-," + b";" * (n - 1) + b"\n"
    rows = 0
    with open(out, "wb") as fh:
        fh.write(b"pairing,total_degrees\n")
        for pairs in blocks:
            write_rows(fh, [*pairs.reshape(len(pairs), 2 * n).T, *pair_degree_rows(pairs).T], seps)
            rows += len(pairs)
    _write_manifest(args, out, [out])
    print(f"wrote {rows} pairings to {out}")
    return 0


def cmd_generate(args) -> int:
    _bind((".processes", ".io"))
    params = ProcessParams(
        n=args.n, m=args.m, variant=args.variant, master_seed=args.seed
    )
    g = generate(params, replicate=args.replicate)
    out = Path(args.out)
    write_graph(g, out, {"n": args.n, "m": args.m, "variant": args.variant, "seed": args.seed})
    _write_manifest(args, out, graph_files(out))
    print(f"wrote {g.n_edges} edges to {out} (seed {args.seed})")
    return 0


# formula name -> printer of its value; the oracles are looked up when a
# printer runs, so wrappers swapped onto this module's names apply
_ORACLES = {
    "prob-dk": lambda a: prob_dk(DkQuery(a.n, a.k, a.s)).format(),
    "count-ns": lambda a: count_ns(DkQuery(a.n, a.k, a.s)),
    "ratio-f": lambda a: _fmt(ratio_f(a.n, a.k, a.s)),
    "mode-s01": lambda a: mode_s01(a.n, a.k),
    "mode-s02": lambda a: mode_s02(a.n, a.k),
    "tail-bound": lambda a: _fmt(tail_bound(a.n, a.l)),
    "cond-prob": lambda a: cond_prob_degree(a.n, a.k, a.s, a.d).format(),
    "expected-count": lambda a: _fmt(expected_count(a.n, a.m, a.d)),
    "lemma2-approx": lambda a: _fmt(lemma2_approx(a.n, a.k, a.d)),
}


def cmd_oracle(args) -> int:
    _bind((".oracles",))
    print(_ORACLES[args.formula](args))
    return 0


def _finish_experiment(args, aggregates, verdicts, replicates=(), extra_outputs=(),
                       **extra) -> int:
    """Write the report ``<out>`` as JSON, its CSV beside it (one row per
    replicate, or the aggregates alone) and the run manifest, then print
    each ``(name, passed, detail)`` verdict.  The report's parameters are
    the parsed flags, None values kept, plus ``extra``; it holds no timing,
    so that a replay with the same seed writes the same bytes."""
    _bind((".io",))
    out = Path(args.out)
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS + ("out", "threads")}
    report = {
        "name": args.experiment_name,
        "parameters": flags | extra,
        "replicates": list(replicates),
        "aggregates": aggregates,
        "verdicts": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in verdicts],
    }
    write_json(out, report)
    csv_path = out.with_suffix(".csv")
    rows = report["replicates"] or [aggregates]
    write_csv(csv_path, sorted({k for row in rows for k in row}), rows)
    _write_manifest(args, out, [out, csv_path, *extra_outputs])
    for name, passed, detail in verdicts:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if all(passed for _, passed, _ in verdicts) else 1


def _exp_fraction(args) -> int:
    _bind((".processes", ".oracles", ".analysis"))
    params = ProcessParams(args.n, args.m, "sequential", args.seed)
    target = expected_count(args.n, args.m, args.d) / args.n  # checks d before any replicate
    res = empirical_fraction(params, args.d, args.replicates, threads=args.threads)
    rel = abs(res.mean - target) / target
    return _finish_experiment(
        args,
        {"mean": res.mean, "std": res.std, "target": target},
        [("fraction_within_5pct", rel <= 0.05,
          f"mean={res.mean:.6g} target={target:.6g} rel_err={rel:.3%}")],
        replicates=[{"replicate": i, "fraction": f} for i, f in enumerate(res.fractions)],
        degree=args.d + args.m,
    )


def _exp_gamma(args) -> int:
    _bind((".processes", ".analysis"))
    params = ProcessParams(args.n, args.m, "sequential", args.seed)
    if args.dhi > args.m * args.n:  # no in-degree reaches past the m*n edges
        raise DomainError(f"--dhi must be at most m*n = {args.m * args.n}, got {args.dhi}")
    predicted = limiting_in_degree_gamma(args.m, args.dlo, args.dhi)  # checks the window
    g = generate(params)
    degrees, counts = degree_histogram(g)
    fit_in = power_law_exponent(degrees, counts, args.dlo, args.dhi)
    fit_tot = power_law_exponent(degrees + args.m, counts, args.dlo, args.dhi)  # total degree
    aggregates = {
        "gamma_in": fit_in.gamma,
        "stderr_in": fit_in.stderr,
        "gamma_total": fit_tot.gamma,
        "stderr_total": fit_tot.stderr,
        "predicted_gamma_in": predicted,
    }
    return _finish_experiment(args, aggregates, [(
        "gamma_in_band",
        2.8 <= fit_in.gamma <= 3.2,
        f"in-degree fit gamma={fit_in.gamma:.4f} (se {fit_in.stderr:.4f}), "
        f"limiting law over the window {predicted:.4f}; "
        f"total-degree fit gamma={fit_tot.gamma:.4f}",
    )])


def _exp_concentration(args) -> int:
    _bind((".processes", ".analysis"))
    import dataclasses

    params = ProcessParams(args.n, args.m, "sequential", args.seed)
    res = concentration_experiment(params, args.d, args.replicates, threads=args.threads)
    verdict = ("exceedance_below_0.05", res.exceedance_rate <= 0.05,
               f"rate={res.exceedance_rate:.4f} threshold={res.threshold:.1f} "
               f"std={res.std_count:.1f}")
    return _finish_experiment(args, dataclasses.asdict(res), [verdict],
                              expectation_proxy="replicate grand mean")


def _exp_sums(args) -> int:
    _bind((".analysis",))
    s2 = sum_s2_bound(args.n, args.d, args.beta)  # checks d >= 1 before S1 is summed
    s1 = sum_s1(args.n, args.d, args.beta, alpha=args.alpha)
    aggregates = {
        "s1_value": s1.value,
        "s1_case": s1.case,
        "s1_claimed_order": s1.claimed_order,
        "s1_ratio": s1.ratio,
        "s1_integral": s1.integral,
        "s2_bound_primary": s2.bound_primary,
        "s2_bound_final": s2.bound_final,
    }
    detail = f"case {s1.case}: ratio={s1.ratio:.4g}"
    if s1.case == 3:  # n/d^3 is the sum's order only for d * sqrt(M/n) >> 1
        detail += (f" d*sqrt(M/n)={args.d * math.sqrt(s1.m_threshold / args.n):.3g}"
                   f" s1={s1.value:.4g} integral={s1.integral:.4g}")
    return _finish_experiment(args, aggregates, [
        ("s1_ratio_in_band", 0.1 <= s1.ratio <= 10.0, detail),
        ("s2_bound_chain", s2.bound_primary <= s2.bound_final or s2.bound_final == 0.0,
         f"primary={s2.bound_primary:.4g} final={s2.bound_final:.4g}"),
    ])


def _exp_corollary(args) -> int:
    _bind((".analysis",))
    parts = args.n_grid.split(",")
    if not all(x.strip().isdecimal() and int(x) >= 1 for x in parts):
        raise DomainError(f"--n-grid must be comma-separated integers >= 1, got {args.n_grid!r}")
    n_grid = [int(x) for x in parts]
    res = corollary_experiment(
        n_grid, args.m, args.exponent, args.replicates, args.seed, threads=args.threads
    )
    return _finish_experiment(
        args,
        {"decreasing": res.decreasing},
        [("fractions_decreasing", res.decreasing,
          "fractions " + ", ".join(f"{f:.3e}" for f in res.fractions))],
        replicates=[{"n": n, "d": d, "fraction": f}
                    for n, d, f in zip(n_grid, res.d_values, res.fractions)],
        n_grid=n_grid,
    )


def _exp_region(args) -> int:
    _bind((".regions", ".io"))
    if args.inequalities:
        lines = Path(args.inequalities).read_text().splitlines()
        result = region_max_alpha(RegionSystem.from_lines(lines))
    else:
        args.system = args.system or "theorem1"  # the system when neither flag is given
        result = builtin_max_alpha(args.system)  # refuses an unknown name
    aggregates = {
        "sup_alpha": str(result.sup_alpha),
        "attained": result.attained,
        "witness_beta": str(result.witness_beta),
        "beta_interval": [str(x) for x in result.beta_interval],
    }
    # the region's corner points, as an (alpha, beta) CSV for plotting
    corners = Path(args.out).with_suffix(".vertices.csv")
    write_csv(corners, ("alpha", "beta"),
              [{"alpha": str(a), "beta": str(b)} for a, b in result.vertices])
    attained = "attained" if result.attained else "sup, not attained"
    verdict = ("region_solved", True, f"sup alpha = {_fmt(result.sup_alpha)} ({attained}), "
               f"witness beta = {_fmt(result.witness_beta)}")
    print(f"sup alpha = {_fmt(result.sup_alpha)}")
    return _finish_experiment(args, aggregates, [verdict], extra_outputs=[corners])


def _exp_equivalence(args) -> int:
    _bind((".processes", ".analysis", ".exact"))
    # a row's largest total degree is at least its mean 2m, so count_rows
    # codes rows over a base of at least 2m + 1: refuse a shape that no int64
    # code holds before any batch is drawn (an m below 1 is the run's to refuse)
    row_code_space((args.samples, args.n), 2 * max(args.m, 0) + 1)
    # VARIANTS[i] draws from stream i: that index is part of the seed-to-bytes contract
    dists = {
        v: degree_rows_to_distribution(
            batch_total_degrees(v, args.n, args.m, args.samples, replicate_rng(args.seed, i))
        )
        for i, v in enumerate(VARIANTS)
    }
    tvs = {f"tv_{a}_{b}": tv_distance(dists[a], dists[b])
           for a, b in [("sequential", "pairing"), ("sequential", "urn"), ("urn", "pairing")]}
    return _finish_experiment(
        args, tvs, [(f"{name}_below_0.01", tv <= 0.01, f"tv={tv:.5f}") for name, tv in tvs.items()]
    )


def cmd_replay(args) -> int:
    """Re-run a manifest's command into a scratch directory and verify the
    recorded output digests byte-for-byte."""
    import json
    import tempfile

    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except ValueError:  # not JSON, or not text
        manifest = None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("argv"), list)
        and all(isinstance(tok, str) for tok in manifest["argv"])
        and manifest["argv"][:1] != ["replay"]
        and isinstance(manifest.get("outputs"), dict)
        and manifest["outputs"]
        and all(isinstance(d, str) for d in manifest["outputs"].values())
        # a plain file name: the digest checked is of a file the replay wrote
        and all(name not in ("", ".", "..") and Path(name).name == name
                for name in manifest["outputs"])
    ):
        raise DomainError(
            f"{args.manifest} is not a run manifest: it needs an 'argv' list of strings, "
            "not itself a replay, and a non-empty 'outputs' map of plain file names to digests"
        )
    argv = list(manifest["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        # redirect --out into the scratch directory, keeping file names
        for i, tok in enumerate(argv[:-1]):
            if tok == "--out":
                argv[i + 1] = str(Path(tmp) / Path(argv[i + 1]).name)
        try:
            code = main(argv)
        except SystemExit:  # the parser refused the recorded command, or ran none
            raise DomainError(f"cannot replay {args.manifest}: the parser stopped its command")
        if code == 2:  # the program refused it, and main printed why
            raise DomainError(f"cannot replay {args.manifest}: its recorded command exited 2")
        ok = True
        for name, digest in manifest["outputs"].items():
            replayed = Path(tmp) / name
            actual = _sha256(replayed) if replayed.exists() else None
            match = actual == digest
            ok = ok and match
            print(f"{'PASS' if match else 'FAIL'} {name}")
    print("replay " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every ``parse_args``
    returns a fresh namespace, so calls of ``main`` share it, nested ones
    (``replay``) included."""
    # A flag that several commands take with the same type and default is
    # declared once, in a parent parser that each of them lists; argparse
    # refuses a command that declares it again.
    n, m, seed, out, threads, d = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    n.add_argument("--n", type=integer, required=True, help="vertices of the graph")
    m.add_argument("--m", type=integer, default=1, help="edges sent by each vertex (default 1)")
    seed.add_argument("--seed", type=int, default=None,
                      help="master seed; drawn from entropy when omitted")
    out.add_argument("--out", required=True, help="output file path")
    threads.add_argument("--threads", type=int, default=1,
                         help=f"at most this many threads draw replicates, the calling one "
                              f"included, 1..{MAX_THREADS} (default 1); graphs of fewer than "
                              f"100000 primed edges (m*n, THREAD_MIN_EDGES) are drawn on the "
                              f"calling one alone")
    d.add_argument("--d", type=integer, required=True, help="in-degree d (sums: the exponent d)")
    parser = argparse.ArgumentParser(
        prog="lcdgraph",
        description="Preferential-attachment graphs via chord diagrams: "
        "generators, exact oracles, experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", parents=[n, out], help="list all pairings of 2n points")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("generate", parents=[n, m, seed, out], help="generate one graph")
    p.add_argument("--variant", default="sequential",  # ProcessParams checks it
                   help="the construction: sequential, urn or pairing")
    p.add_argument("--replicate", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", parents=[n, m], help="evaluate one closed-form quantity")
    p.add_argument("formula", choices=tuple(_ORACLES))
    p.add_argument("--k", type=integer, default=1)
    p.add_argument("--s", type=integer, default=0)
    p.add_argument("--d", type=integer, default=1)
    p.add_argument("--l", type=integer, default=1)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run a named experiment")
    exp = p.add_subparsers(dest="experiment_name", required=True)

    e = exp.add_parser("fraction", parents=[n, m, seed, out, threads, d])
    e.add_argument("--replicates", type=integer, default=50)
    e.set_defaults(func=_exp_fraction)

    e = exp.add_parser("gamma", parents=[n, m, seed, out])
    e.add_argument("--dlo", type=integer, default=5)
    e.add_argument("--dhi", type=integer, default=50)
    e.set_defaults(func=_exp_gamma)

    e = exp.add_parser("concentration", parents=[n, m, seed, out, threads, d])
    e.add_argument("--replicates", type=integer, default=200)
    e.set_defaults(func=_exp_concentration)

    e = exp.add_parser("sums", parents=[n, out, d])
    e.add_argument("--beta", type=finite_float, required=True)
    e.add_argument("--alpha", type=finite_float, default=None)
    e.set_defaults(func=_exp_sums)

    e = exp.add_parser("corollary", parents=[m, seed, out, threads])
    e.add_argument("--n-grid", default="10000,100000,1000000")
    e.add_argument("--exponent", type=finite_float, default=0.25)
    e.add_argument("--replicates", type=integer, default=8)
    e.set_defaults(func=_exp_corollary)

    e = exp.add_parser("region", parents=[out])
    system = e.add_mutually_exclusive_group()
    system.add_argument("--system",  # regions.builtin_max_alpha checks it
                        help="built-in system: theorem1, theorem2-case1, theorem2-case2, "
                        "theorem2-case3 or combined (theorem1 when neither flag is given)")
    # absolute, so that argv and the report name the file read, from any directory
    system.add_argument("--inequalities", type=os.path.abspath,
                        help="file with one 'a b cmp c' inequality per line")
    e.set_defaults(func=_exp_region)

    e = exp.add_parser("equivalence", parents=[n, m, seed, out])
    e.add_argument("--samples", type=integer, default=10**6)
    e.set_defaults(func=_exp_equivalence)

    p = sub.add_parser("replay", help="re-run a manifest and verify digests")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    # exact oracle values reach thousands of digits (count-ns at 2n = 4096);
    # lift the int-to-str limit for the process
    sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    args.started = time.time()
    if "seed" in vars(args) and args.seed is None:
        import secrets

        args.seed = secrets.randbits(63)
    try:
        threads = getattr(args, "threads", 1)
        if not 1 <= threads <= MAX_THREADS:  # before any thread is started
            raise DomainError(f"--threads must be an integer in 1..{MAX_THREADS}, got {threads}")
        if args.subcommand == "experiment" and Path(args.out).suffix == ".csv":
            raise DomainError(f"--out {args.out} ends in .csv, the name of the report's CSV; "
                              "give the JSON report another suffix")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
