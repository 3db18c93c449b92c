import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcdgraph import analysis, cli
from lcdgraph.analysis import power_law_exponent
from lcdgraph.cli import _ORACLES, MAX_THREADS, build_parser, main
from lcdgraph.lcd import ENUMERATION_CAP, enumerate_pairings
from lcdgraph.oracles import DkQuery, cond_prob_degree, count_ns
from lcdgraph.processes import POINT_CAP, VARIANTS, ProcessParams, generate
from lcdgraph.regions import BUILTIN_SYSTEMS
from pair_tables import graph_from_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_prob_dk(capsys):
    code, out, _ = run(capsys, "oracle", "prob-dk", "--n", "2", "--k", "1", "--s", "1")
    assert code == 0
    assert out.strip() == "2/3 (exact)"


def test_oracle_expected_count(capsys):
    code, out, _ = run(capsys, "oracle", "expected-count", "--n", "600", "--m", "1",
                       "--d", "1")
    assert code == 0
    assert out.strip() == "100.0"
    # in-degree 0 is inside the law's domain: 2n/(m+2)
    code, out, _ = run(capsys, "oracle", "expected-count", "--n", "600", "--d", "0")
    assert code == 0
    assert out.strip() == "400.0"


def test_oracle_mode_s01(capsys):
    code, out, _ = run(capsys, "oracle", "mode-s01", "--n", "100", "--k", "25")
    assert code == 0
    assert out.strip() == "50"


def test_oracle_choices_are_the_printer_table(capsys):
    for name in _ORACLES:
        code, out, _ = run(capsys, "oracle", name, "--n", "12", "--k", "2", "--s", "1")
        assert code == 0 and out.count("\n") == 1 and out.strip()
    with pytest.raises(SystemExit):
        main(["oracle", "no-such-formula", "--n", "4"])
    code, out, _ = run(capsys, "oracle", "count-ns", "--n", "4", "--k", "2", "--s", "1")
    assert out == f"{count_ns(DkQuery(4, 2, 1))}\n"


def test_oracle_count_ns_prints_thousands_of_digits(capsys):
    # 2n = 4096 is the top of the exact regime; the count has over 6,000 digits,
    # past the interpreter's default int-to-str limit of 4,300
    code, out, _ = run(capsys, "oracle", "count-ns", "--n", "2048", "--k", "3", "--s", "500")
    assert code == 0
    assert out.strip() == str(count_ns(DkQuery(2048, 3, 500)))


def test_cached_parser_is_reentrant(capsys, tmp_path):
    assert build_parser() is build_parser()
    # the second call omits --s and --d: it must get their defaults (0 and 1),
    # not the values the first call parsed
    _, first, _ = run(capsys, "oracle", "cond-prob", "--n", "10", "--k", "2", "--s", "3",
                      "--d", "2")
    code, second, _ = run(capsys, "oracle", "cond-prob", "--n", "10", "--k", "2")
    assert code == 0
    assert first.strip() == cond_prob_degree(10, 2, 3, 2).format()
    assert second.strip() == cond_prob_degree(10, 2, 0, 1).format() != first.strip()
    # replay calls main again while its own call is still running
    out = tmp_path / "g.csv"
    run(capsys, "generate", "--n", "50", "--m", "2", "--seed", "4", "--out", str(out))
    manifest = tmp_path / "g.csv.manifest.json"
    recorded = json.loads(manifest.read_text())
    assert recorded["wall_clock_seconds"] >= 0
    assert "--started" not in recorded["argv"]
    code, stdout, _ = run(capsys, "replay", "--manifest", str(manifest))
    assert code == 0
    assert "replay PASS" in stdout


def test_oracle_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "prob-dk", "--n", "2", "--k", "1", "--s", "5")
    assert code == 2
    assert "error:" in err


def test_oracle_cond_prob_at_k_equal_n_exits_2(capsys):
    code, errors = exit_and_errors(capsys, "oracle", "cond-prob", "--n", "3", "--k", "3",
                                   "--s", "0", "--d", "0")
    assert code == 2
    assert len(errors) == 1 and "k = n" in errors[0]


def test_generate_n1_single_loop_line(capsys, tmp_path):
    out = tmp_path / "g.csv"
    code, _, _ = run(capsys, "generate", "--n", "1", "--m", "1", "--seed", "0",
                     "--out", str(out))
    assert code == 0
    assert out.read_text() == "1,1\n"
    header = json.loads((tmp_path / "g.csv.header.json").read_text())
    assert header == {"n": 1, "m": 1, "variant": "sequential", "seed": 0}


def test_generate_unknown_variant_is_refused(capsys, tmp_path):
    # ProcessParams refuses the construction before any file is opened
    code, stdout, err = run(capsys, "generate", "--n", "5", "--variant", "nope", "--seed", "1",
                            "--out", str(tmp_path / "g.csv"))
    assert code == 2 and stdout == ""
    assert err == f"error: unknown variant 'nope', not one of {VARIANTS}\n"
    assert list(tmp_path.iterdir()) == []
    # the parser lists no choices, so the help names the constructions
    actions = {(command, flag): a for command, flag, a in option_surface(build_parser())}
    assert all(v in actions["generate", "--variant"].help for v in VARIANTS)


# sha256 of the edge-list CSV of `generate --n 200 --m 2 --seed 42`, as the
# per-edge f-string writer made it
GENERATE_PINS = {
    "sequential": "15ca1cf79a42ffbfeaa1c469738cd2a8b332049556c58d987ffaa9690bd2ca48",
    "pairing": "d2dba5d5df2113d4970a1d249dc0b517434ab578dea8e22fc0b33b9c7cef730c",
    "urn": "19e6d3624f9c154d0b6bb4c78bc59fda059cf6e6d89acfbb779f9c773117cc18",
}


def test_generate_deterministic_digests(capsys, tmp_path):
    for variant, pin in GENERATE_PINS.items():
        for name in ("a.csv", "b.csv"):
            out = tmp_path / f"{variant}-{name}"
            code, _, _ = run(capsys, "generate", "--n", "200", "--m", "2", "--seed", "42",
                             "--variant", variant, "--out", str(out))
            assert code == 0
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["outputs"][out.name] == pin
            assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
            argv = manifest["argv"]
            assert argv[argv.index("--seed") + 1] == "42"  # the one record of the seed
            assert "seed" not in manifest
            assert "version" in manifest


# sha256 of `generate --n 100000 --m 3 --variant pairing --seed <seed>`, the
# size the benchmark's generate workload draws
PAIRING_1E5_PINS = {
    0: "1380c04a24f4d86608a2830b437e2b53b3fa1840b854ec746b40c55716e54b14",
    1: "3dd8b75ee886b67a8e4523d39ba687b0395932a7cdc2a414d1abc6dd9381812c",
}


@pytest.mark.parametrize("seed", sorted(PAIRING_1E5_PINS))
def test_generate_pairing_benchmark_size_digests(capsys, tmp_path, seed):
    out = tmp_path / "p.csv"
    code, _, _ = run(capsys, "generate", "--n", "100000", "--m", "3", "--variant", "pairing",
                     "--seed", str(seed), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAIRING_1E5_PINS[seed]


def test_generate_pairing_n1_is_one_loop(capsys, tmp_path):
    out = tmp_path / "p.csv"
    code, _, _ = run(capsys, "generate", "--n", "1", "--m", "1", "--variant", "pairing",
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes() == b"1,1\n"


def test_generate_edge_count(capsys, tmp_path):
    out = tmp_path / "g.csv"
    run(capsys, "generate", "--n", "1000", "--m", "2", "--seed", "1", "--out", str(out))
    assert len(out.read_text().splitlines()) == 2000


@pytest.mark.parametrize(
    "argv",
    # at n = 1 every construction gives the row (2), so TV = 0 whatever the seed
    [("generate", "--n", "5", "--m", "1"),
     ("experiment", "equivalence", "--n", "1", "--samples", "100")],
    ids=["generate", "equivalence"],
)
def test_generate_entropy_seed_recorded(capsys, tmp_path, argv):
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    seed = manifest["argv"][manifest["argv"].index("--seed") + 1]
    assert str(int(seed)) == seed  # an int that round-trips
    assert "seed" not in manifest


def reference_enumerate(n) -> bytes:
    """The per-row f-string writer: the byte contract of ``enumerate``."""
    lines = ["pairing,total_degrees\n"]
    for pairs in np.concatenate(list(enumerate_pairings(n))):
        chords = [f"{a}-{b}" for a, b in pairs.tolist()]
        degrees = graph_from_pairs(pairs).total_degrees.tolist()
        lines.append(f"{';'.join(chords)},{';'.join(map(str, degrees))}\n")
    return "".join(lines).encode()


def test_enumerate_rows(capsys, tmp_path):
    out = tmp_path / "e.csv"
    code, _, _ = run(capsys, "enumerate", "--n", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pairing,total_degrees"
    assert len(lines) == 1 + 3

    code, _, _ = run(capsys, "enumerate", "--n", "3", "--out", str(out))
    assert len(out.read_text().splitlines()) == 1 + 15

    # the 945 rows of n = 5, byte for byte as the per-pairing writer made them
    code, _, _ = run(capsys, "enumerate", "--n", "5", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "523ce16fcb8b64df667f0bc2493fc2bc5ea117f4cda652fc0db9ddc9348b8995"
    )

    for n in range(1, 7):
        code, _, _ = run(capsys, "enumerate", "--n", str(n), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == reference_enumerate(n)


def test_enumerate_n7_digest(capsys, tmp_path):
    out = tmp_path / "e.csv"
    code, stdout, _ = run(capsys, "enumerate", "--n", "7", "--out", str(out))
    assert code == 0
    assert stdout.startswith("wrote 135135 pairings")
    data = out.read_bytes()
    assert data.count(b"\n") == 1 + 135135
    assert hashlib.sha256(data).hexdigest() == (
        "265ab54f4802df2032c24f2c88bb7c1d9ee123c6cee01fc1c4bdcad2098dde5b"
    )


@pytest.mark.slow
def test_enumerate_n8_digest(capsys, tmp_path):
    out = tmp_path / "e.csv"
    code, stdout, _ = run(capsys, "enumerate", "--n", "8", "--out", str(out))
    assert code == 0
    assert stdout.startswith("wrote 2027025 pairings")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "838174bd62de298082cfab6e79d69dd41affee9a99d4c20827da963bb25f88c3"
    )


def test_enumerate_capacity_error(capsys, tmp_path):
    code, _, err = run(capsys, "enumerate", "--n", "9", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "cap" in err
    assert not (tmp_path / "x").exists()  # n is checked before the file is opened
    code, _, err = run(capsys, "enumerate", "--n", "0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "n must be >= 1" in err
    assert not (tmp_path / "x").exists()


def test_experiment_region_theorem1(capsys, tmp_path):
    out = tmp_path / "region.json"
    code, stdout, _ = run(capsys, "experiment", "region", "--system", "theorem1",
                          "--out", str(out))
    assert code == 0
    assert "sup alpha = 1/14" in stdout
    payload = json.loads(out.read_text())
    assert payload["aggregates"]["sup_alpha"] == "1/14"
    assert payload["aggregates"]["attained"] is False
    verts = (tmp_path / "region.vertices.csv").read_text().splitlines()
    assert verts[0] == "alpha,beta"
    assert len(verts) > 3


def test_experiment_region_combined(capsys, tmp_path):
    out = tmp_path / "region.json"
    code, stdout, _ = run(capsys, "experiment", "region", "--system", "combined",
                          "--out", str(out))
    assert code == 0
    assert "sup alpha = 1/6" in stdout


def test_experiment_region_custom_inequalities(capsys, tmp_path):
    ineq = tmp_path / "ineq.txt"
    ineq.write_text("1 0 >= 0\n1 0 <= 1/3\n")
    out = tmp_path / "region.json"
    code, stdout, _ = run(capsys, "experiment", "region", "--inequalities", str(ineq),
                          "--out", str(out))
    assert code == 0
    assert "sup alpha = 1/3" in stdout
    # the file is the system solved: no built-in one is recorded
    assert json.loads(out.read_text())["parameters"]["system"] is None
    manifest = json.loads((tmp_path / "region.json.manifest.json").read_text())
    assert "--system" not in manifest["argv"]


def test_experiment_region_defaults_to_theorem1(capsys, tmp_path):
    code, _, _ = run(capsys, "experiment", "region", "--out", str(tmp_path / "region.json"))
    assert code == 0
    for name, pin in REPORT_PINS[("region", "--system", "theorem1")].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pin, name


def test_experiment_region_refuses_system_and_inequalities(capsys, tmp_path):
    ineq = tmp_path / "ineq.txt"
    ineq.write_text("1 0 >= 0\n1 0 <= 1/3\n")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "region", "--system", "theorem2-case1", "--inequalities",
              str(ineq), "--out", str(tmp_path / "region.json")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [ineq]  # no report


def test_experiment_region_unknown_system_is_refused(capsys, tmp_path):
    # regions refuses the name before any file, the corners CSV included, is opened
    code, stdout, err = run(capsys, "experiment", "region", "--system", "nope",
                            "--out", str(tmp_path / "region.json"))
    names = (*BUILTIN_SYSTEMS, "combined")
    assert code == 2 and stdout == ""
    assert err == f"error: unknown system 'nope', not one of {names}\n"
    assert list(tmp_path.iterdir()) == []
    # the parser lists no choices, so the help names the systems, in order
    actions = {(command, flag): a for command, flag, a in option_surface(build_parser())}
    listed = actions["experiment region", "--system"].help.split(": ")[1].split(" (")[0]
    assert tuple(listed.replace(" or ", ", ").split(", ")) == names


@pytest.mark.parametrize("text", [
    "1 0 >= 1\n1 0 <= 0\n",  # an empty closure
    "1 0 >= 0\n",  # alpha unbounded above
    "",  # no inequality
    "1 0 <=\n",  # three fields
    "1 0 <= 1/0\n",  # a zero denominator
], ids=["empty-region", "unbounded", "empty-file", "three-fields", "zero-denominator"])
def test_experiment_region_bad_inequalities(capsys, tmp_path, text):
    ineq = tmp_path / "ineq.txt"
    ineq.write_text(text)
    code, stdout, err = run(capsys, "experiment", "region", "--inequalities", str(ineq),
                            "--out", str(tmp_path / "region.json"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [ineq]  # no report


def test_replay_region_with_relative_inequalities(capsys, tmp_path, monkeypatch):
    # run in a/ with a relative input path, replay from b/
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "ineq.txt").write_text("1 0 >= 0\n1 0 <= 1/3\n")
    monkeypatch.chdir(tmp_path / "a")
    code, _, _ = run(capsys, "experiment", "region", "--inequalities", "ineq.txt",
                     "--out", "region.json")
    assert code == 0
    manifest = json.loads((tmp_path / "a" / "region.json.manifest.json").read_text())
    assert str(Path.cwd() / "ineq.txt") in manifest["argv"]  # the file read, absolute
    monkeypatch.chdir(tmp_path / "b")
    code, stdout, _ = run(capsys, "replay", "--manifest", "../a/region.json.manifest.json")
    assert code == 0
    assert "replay PASS" in stdout


def test_experiment_sums_pass(capsys, tmp_path):
    out = tmp_path / "sums.json"
    code, stdout, _ = run(capsys, "experiment", "sums", "--n", "1000000", "--d", "3",
                          "--beta", "0.75", "--out", str(out))
    assert code == 0
    assert "PASS s1_ratio_in_band" in stdout
    csv_lines = (tmp_path / "sums.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header + aggregate row


def test_experiment_sums_case_3_fail_names_the_cutoff(capsys, tmp_path):
    # n/d^3 assumes d * sqrt(M/n) >> 1; here it is 0.39, the sum is cut off
    # at M, and the band's verdict stands
    out = tmp_path / "sums.json"
    code, stdout, _ = run(capsys, "experiment", "sums", "--n", "10000", "--d", "3",
                          "--beta", "0.8", "--out", str(out))
    assert code == 1
    assert ("FAIL s1_ratio_in_band: case 3: ratio=0.01865 d*sqrt(M/n)=0.393 "
            "s1=6.908 integral=6.831") in stdout
    assert json.loads(out.read_text())["aggregates"]["s1_integral"] == pytest.approx(6.831, abs=1e-3)


def exit_and_errors(capsys, *argv):
    """main's exit code, a parser refusal's included, and the stderr lines
    that say ``error:``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    return code, [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize("argv, named", [
    (("sums", "--n", "1000", "--d", "1", "--beta", "1", "--alpha", "nan"), "--alpha"),
    (("corollary", "--n-grid", "1000", "--exponent", "inf", "--seed", "0"), "--exponent"),
    (("corollary", "--n-grid", "1000", "--exponent", "1e6", "--seed", "0"), "exponent 1000000.0"),
], ids=["sums-alpha-nan", "corollary-exponent-inf", "corollary-exponent-1e6"])
def test_non_finite_float_exits_2(capsys, tmp_path, argv, named):
    code, errors = exit_and_errors(capsys, "experiment", *argv, "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert len(errors) == 1 and named in errors[0]
    assert list(tmp_path.iterdir()) == []  # no report, no manifest


HUGE = str(10**400)  # an int too large for a float


@pytest.mark.parametrize("argv", [
    ("oracle", "expected-count", "--n", HUGE, "--d", "1"),
    ("oracle", "prob-dk", "--n", HUGE, "--k", "1", "--s", "0"),
    ("oracle", "cond-prob", "--n", HUGE, "--k", "1", "--s", "0", "--d", "0"),
    ("oracle", "tail-bound", "--n", HUGE, "--l", "3"),
    ("experiment", "fraction", "--n", HUGE, "--d", "1"),
    ("experiment", "sums", "--n", HUGE, "--d", "1", "--beta", "0.5"),
], ids=lambda argv: argv[1])
def test_int_flag_past_int64_exits_2(capsys, tmp_path, argv):
    if argv[0] == "experiment":
        argv += ("--out", str(tmp_path / "r.json"))
    code, errors = exit_and_errors(capsys, *argv)
    assert code == 2
    assert len(errors) == 1 and "--n" in errors[0] and "2^63 - 1" in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_int_flag_at_int64_max_is_parsed():
    args = build_parser().parse_args(["oracle", "tail-bound", "--n", str(2**63 - 1)])
    assert args.n == cli.INT_FLAG_MAX == 2**63 - 1


def test_oracle_prob_dk_refuses_past_the_log_regime_bound(capsys):
    # the old log sum printed exp(0) (log) here, a probability of 1
    code, out, err = run(capsys, "oracle", "prob-dk", "--n", str(10**18), "--k", "1", "--s", "0")
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: n={10**18}: the log regime's rounding bound 1.3e+05 on log(p) exceeds 0.0001"]


def test_replay_refuses_a_recorded_non_finite_flag(capsys, tmp_path):
    # a manifest written before float flags had to be finite
    manifest = tmp_path / "sums.json.manifest.json"
    manifest.write_text(json.dumps({
        "argv": ["experiment", "sums", "--alpha", "nan", "--beta", "1.0", "--d", "1",
                 "--n", "1000", "--out", "sums.json"],
        "outputs": {"sums.json": "0" * 64},
    }))
    code, errors = exit_and_errors(capsys, "replay", "--manifest", str(manifest))
    assert code == 2
    assert errors[-1] == f"error: cannot replay {manifest}: the parser stopped its command"


@pytest.mark.parametrize("argv, named", [
    (("fraction", "--n", "30000000", "--d", "40000000", "--replicates", "2", "--seed", "1"),
     "exceed the cap"),
    (("concentration", "--n", "30000000", "--d", "40000000", "--replicates", "100",
      "--seed", "1"), "exceed the cap"),
    (("fraction", "--n", "100", "--d", "500", "--replicates", "2", "--seed", "-1"), "--seed"),
    (("corollary", "--n-grid", "1000000,30000000", "--seed", "1"), "exceed the cap"),
], ids=["fraction-past-cap", "concentration-past-cap", "fraction-negative-seed",
        "corollary-last-point-past-cap"])
def test_a_run_that_generate_refuses_exits_2_whatever_d(capsys, tmp_path, monkeypatch,
                                                         argv, named):
    # the run is refused when it is described, though d > m*n draws no graph
    # and corollary's over-cap point comes after one it could draw
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(analysis, "generate", no_graph)
    code, errors = exit_and_errors(capsys, "experiment", *argv, "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert len(errors) == 1 and named in errors[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("equivalence", "--n", "3", "--seed", "-1", "--samples", "10"),
    ("fraction", "--n", "100", "--d", "1", "--replicates", "2", "--seed", "-1"),
], ids=["equivalence", "fraction"])
def test_a_negative_seed_is_refused_by_its_own_flag(capsys, tmp_path, argv):
    # neither command takes --replicate, so the one error line names --seed alone
    code, stdout, err = run(capsys, "experiment", *argv, "--out", str(tmp_path / "e.json"))
    assert code == 2 and stdout == ""
    assert err == "error: --seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_experiment_sums_term_cap_exits_before_allocating(capsys, tmp_path):
    # at beta = 1 this n gives S1_TERM_CAP + 1 terms, 80 MB in one float64 array
    assert analysis.S1_TERM_CAP == 10**7
    tracemalloc.start()
    code, errors = exit_and_errors(capsys, "experiment", "sums", "--n", "190667349", "--d", "1",
                                   "--beta", "1", "--out", str(tmp_path / "sums.json"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert errors == ["error: 10000001 terms of S1 exceed the cap 10000000"]
    assert peak < 1 << 20
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, stub, named", [
    (("concentration", "--n", "100", "--d", "-1", "--replicates", "100", "--seed", "3"),
     (analysis, "generate"), "d >= 0, got d=-1"),
    (("sums", "--n", "1000", "--d", "0", "--beta", "1"), (cli, "sum_s1"), "d >= 1"),
    (("gamma", "--n", "3000", "--dhi", "3001", "--seed", "3"), (cli, "generate"), "--dhi"),
    (("gamma", "--n", "3000", "--dhi", str(2**63 - 1), "--seed", "3"), (cli, "generate"),
     "--dhi"),
    (("gamma", "--n", "3000", "--dlo", "60", "--dhi", "50", "--seed", "3"), (cli, "generate"),
     "[60, 50]"),
    (("gamma", "--n", "3000", "--dlo", "0", "--seed", "3"), (cli, "generate"), "[0, 50]"),
    (("gamma", "--n", "3000", "--dlo", "-1", "--seed", "3"), (cli, "generate"), "[-1, 50]"),
    (("gamma", "--n", "3000", "--dlo", "1", "--dhi", "3", "--seed", "3"), (cli, "generate"),
     "only 3 nonzero bins"),
    (("gamma", "--n", "3000", "--dlo", "10", "--dhi", "12", "--seed", "3"), (cli, "generate"),
     "only 3 nonzero bins in [10, 12]"),
], ids=["concentration-d-negative", "sums-d-0", "gamma-dhi-past-mn", "gamma-dhi-int64-max",
        "gamma-window-reversed", "gamma-dlo-0", "gamma-dlo-negative", "gamma-window-3-bins",
        "gamma-window-3-bins-past-1"])
def test_degree_outside_its_range_exits_2_before_any_work(capsys, tmp_path, monkeypatch,
                                                          argv, stub, named):
    # an in-degree lies in [0, m*n], S2's degree is at least 1 and a fit
    # window starts at 1 and holds at least 5 degrees: refused before a graph
    # is drawn or S1 is summed
    def no_work(*args, **kwargs):
        raise AssertionError(f"{stub[1]} ran")

    monkeypatch.setattr(*stub, no_work)
    code, errors = exit_and_errors(capsys, "experiment", *argv, "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert len(errors) == 1 and named in errors[0]
    assert list(tmp_path.iterdir()) == []


# sha256 of every output file of the experiments whose reports hold no
# unseeded draw, and of every built-in region system; `gamma` is left out
# because its fit runs through LAPACK
REPORT_PINS = {
    ("sums", "--n", "10000", "--d", "3", "--beta", "0.8"): {
        "sums.json": "ebb5deeb8bb3b9f1b78f1512ad85b08b51ca359cb3afa3534337052c732f4e1b",
        "sums.csv": "9ba58c10f9c9fb99b58a93142e2f3f87d9cf3a0cba66efed677bf8a118636021",
    },
    ("corollary", "--n-grid", "1000,4000", "--replicates", "3", "--seed", "3"): {
        "corollary.json": "5da6395ac84278a3381d49f18d69bfbc293f2e985e1f33002048a6c3bfdc1b27",
        "corollary.csv": "d8ed4e9f20a954401b51181de5d4b26f7bd9451e4ddf1563fd7531e43076e207",
    },
    ("region", "--system", "combined"): {
        "region.json": "95e98639e1860c1ec9915e1dc8f38a8ef8be227ef6dfefac3c5bd786b836327b",
        "region.csv": "dbecbf14c3b6558d96f55650c5de692e6a8b92bdb3d867530d550e0432886375",
        "region.vertices.csv": "de745861903660c8b6ec6ebf04e5a0ddebba6aef2f5bd163abdc7bdd09defcdc",
    },
    ("region", "--system", "theorem1"): {
        "region.json": "00b233d1f9bad1d6ed5f0ac85aa6d2d95a6349374bfb7e5f706a8fbb5eb21a96",
        "region.csv": "9e8cab46c69243e78130b3455d23dfc45142563d692a9c22894280b189d5daae",
        "region.vertices.csv": "9c091c7dc699f6cd39c01d50ded6f056800140e0f7bd89186448f65e85949b86",
    },
    ("region", "--system", "theorem2-case1"): {
        "region.json": "f17014fcb0d21acdaa78f4d8f9475123eae8fade5b0aed094d6daca672f1a580",
        "region.csv": "8820e912ff3f980dac681a453f3b4f43dd1a3a48ed1ce74bee11ae0657698294",
        "region.vertices.csv": "d120b5f22c265c7a6caa95818efc4a85750571e1d7a71dce9d57b13845e9e373",
    },
    ("region", "--system", "theorem2-case2"): {
        "region.json": "99ad0a687639b879165291bf254051f8186e24004c776c0a7a0ddf477b13c2c5",
        "region.csv": "8820e912ff3f980dac681a453f3b4f43dd1a3a48ed1ce74bee11ae0657698294",
        "region.vertices.csv": "631a3cc503e78db70202b7f911d770a753398fdb16e11e17ef1095c008007a2f",
    },
    ("region", "--system", "theorem2-case3"): {
        "region.json": "b1e1fb6dba1a09085cb898ab50ec1b8eb90b0e3be5f0f05a2e905ad2d8548f12",
        "region.csv": "dbecbf14c3b6558d96f55650c5de692e6a8b92bdb3d867530d550e0432886375",
        "region.vertices.csv": "de745861903660c8b6ec6ebf04e5a0ddebba6aef2f5bd163abdc7bdd09defcdc",
    },
    ("fraction", "--n", "5000", "--m", "3", "--d", "2", "--replicates", "10", "--seed", "4"): {
        "fraction.json": "db099b30552842c35f027fa856afd25e4ee2db9f53432a239d6ae4bf1af9d1b8",
        "fraction.csv": "2062d3f2f20082e797393db5cb8bcfb93bc6e610bed3070a93e655b2a6d984f2",
    },
    ("concentration", "--n", "2000", "--d", "1", "--replicates", "100", "--seed", "2"): {
        "concentration.json": "5a430e5092f54a66a83991f361e5c6216bdab2cfe59345f226590731c646bc05",
        "concentration.csv": "662f06663d6d7cb325a5cf6063abd9aaa6789acb56aeb828997d693456dc3b08",
    },
}


def pin_id(argv):
    """The experiment's name; a built-in region system other than the
    combined one, pinned first under the bare name, adds its own."""
    name, *flags = argv
    if name == "region" and flags[1] != "combined":
        return f"region-{flags[1]}"
    return name


@pytest.mark.parametrize("argv", REPORT_PINS, ids=pin_id)
def test_experiment_report_digests(capsys, tmp_path, argv):
    run(capsys, "experiment", *argv, "--out", str(tmp_path / f"{argv[0]}.json"))
    for name, pin in REPORT_PINS[argv].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pin, name


# every flag of each experiment at a small size, and the values its report
# adds to them
PARAMETER_CASES = {
    "fraction": ({"n": 2000, "m": 2, "d": 1, "replicates": 2, "seed": 3, "threads": 2},
                 {"degree": 3}),
    "gamma": ({"n": 3000, "m": 1, "dlo": 1, "dhi": 10, "seed": 3}, {}),
    "concentration": ({"n": 300, "m": 1, "d": 1, "replicates": 100, "seed": 3, "threads": 2},
                      {"expectation_proxy": "replicate grand mean"}),
    "sums": ({"n": 10000, "d": 3, "beta": 0.8, "alpha": None}, {}),
    "corollary": ({"n_grid": "1000,2000", "m": 1, "exponent": 0.25, "replicates": 1,
                   "seed": 3, "threads": 2}, {"n_grid": [1000, 2000]}),
    "region": ({"system": "theorem1", "inequalities": None}, {}),
    "equivalence": ({"n": 2, "m": 1, "samples": 100, "seed": 3}, {}),
}


@pytest.mark.parametrize("experiment", PARAMETER_CASES)
def test_report_parameters_are_the_flags(capsys, tmp_path, experiment):
    flags, extra = PARAMETER_CASES[experiment]
    argv = [tok for key, val in flags.items() if val is not None
            for tok in (f"--{key.replace('_', '-')}", str(val))]
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "experiment", experiment, *argv, "--out", str(out))
    assert code in (0, 1)
    report = json.loads(out.read_text())
    assert set(report) == {"name", "parameters", "replicates", "aggregates", "verdicts"}
    assert report["name"] == experiment
    assert report["parameters"] == {k: v for k, v in flags.items() if k != "threads"} | extra
    # the CSV has one row per replicate, or the aggregates alone, under
    # their sorted keys
    rows = report["replicates"] or [report["aggregates"]]
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == ",".join(sorted(rows[0]))
    assert len(lines) == 1 + len(rows)


def test_experiment_out_ending_in_csv_is_refused(capsys, tmp_path, monkeypatch):
    # the report's CSV is <out> with suffix .csv, so it would overwrite the report
    def no_replicates(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(analysis, "replicate_counts", no_replicates)
    code, stdout, err = run(capsys, "experiment", "fraction", "--n", "20000", "--d", "1",
                            "--replicates", "10", "--seed", "3",
                            "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "--out" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def option_surface(parser, command=()):
    """(command, flag, action) for every value the parser can set,
    positionals by name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from option_surface(sub, (*command, name))
        elif not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            yield " ".join(command), (action.option_strings or [action.dest])[0], action


def test_option_surface_is_pinned():
    surface = {
        "enumerate": "--n --out",
        "generate": "--n --m --variant --replicate --seed --out",
        "oracle": "formula --n --k --s --d --m --l",
        "experiment fraction": "--n --m --d --replicates --seed --out --threads",
        "experiment gamma": "--n --m --dlo --dhi --seed --out",
        "experiment concentration": "--n --m --d --replicates --seed --out --threads",
        "experiment sums": "--n --d --beta --alpha --out",
        "experiment corollary": "--n-grid --m --exponent --replicates --seed --out --threads",
        "experiment region": "--system --inequalities --out",
        "experiment equivalence": "--n --m --samples --seed --out",
        "replay": "--manifest",
    }
    pinned = {(command, flag) for command, flags in surface.items() for flag in flags.split()}
    assert {(command, flag) for command, flag, _ in option_surface(build_parser())} == pinned
    assert len(pinned) == 56


# One small valid command per subcommand, and one per oracle formula; the
# sweep changes one value of it at a time, adding a flag the command leaves
# at its default.  {out} is the run's own directory, {inputs} holds files.
SWEEP_BASES = {
    "enumerate": "--n 3 --out {out}/e.csv",
    "generate": "--n 20 --m 2 --variant pairing --replicate 1 --seed 1 --out {out}/g.csv",
    **{f"oracle {formula}": "--n 12 --k 2 --s 1 --d 1 --m 1 --l 2" for formula in _ORACLES},
    "experiment fraction": "--n 200 --d 1 --replicates 2 --seed 3 --out {out}/r.json",
    "experiment gamma": "--n 3000 --dlo 1 --dhi 10 --seed 3 --out {out}/r.json",
    "experiment concentration": "--n 100 --d 1 --replicates 100 --seed 3 --out {out}/r.json",
    "experiment sums": "--n 1000 --d 1 --beta 1 --out {out}/r.json",
    "experiment corollary": "--n-grid 1000,2000 --replicates 1 --seed 3 --out {out}/r.json",
    "experiment region": "--out {out}/r.json",
    "experiment equivalence": "--n 2 --samples 100 --seed 3 --out {out}/r.json",
    "replay": "--manifest {inputs}/e.csv.manifest.json",
}
# the values of a flag that takes text, by flag
SWEEP_TEXT = {
    "--out": ["{out}/missing/r.json", "{out}/r.csv"],
    "--n-grid": ["0", "-1", "1.5", "x", ",", str(2**63)],
    "--inequalities": ["{inputs}/missing.txt", "{inputs}/empty.txt", "{inputs}/bad.txt",
                       "{inputs}/unbounded.txt", "{inputs}/infeasible.txt"],
    "--manifest": ["{inputs}/missing.json", "{inputs}/empty.txt", "{inputs}/bad.txt"],
    "--variant": ["nope", *VARIANTS],
    "--system": ["nope", *BUILTIN_SYSTEMS, "combined"],
}
POINTS = POINT_CAP // 2  # the most n * m * samples of one call
# a value just past the cap of a size flag, given the other values of its base
SWEEP_CAPS = {
    ("enumerate", "--n"): ENUMERATION_CAP + 1,
    ("generate", "--n"): POINTS // 2 + 1,
    ("generate", "--m"): POINTS // 20 + 1,
    ("oracle prob-dk", "--n"): 1_700_000_000,  # past the log regime's rounding bound
    ("oracle cond-prob", "--n"): 3_300_000_000,
    ("experiment fraction", "--n"): POINTS + 1,
    ("experiment fraction", "--m"): POINTS // 200 + 1,
    ("experiment fraction", "--threads"): MAX_THREADS + 1,
    ("experiment gamma", "--n"): POINTS + 1,
    ("experiment gamma", "--m"): POINTS // 3000 + 1,
    ("experiment gamma", "--dhi"): 3001,  # past m*n, the largest in-degree
    ("experiment concentration", "--n"): POINTS + 1,
    ("experiment concentration", "--m"): POINTS // 100 + 1,
    ("experiment concentration", "--threads"): MAX_THREADS + 1,
    ("experiment sums", "--n"): 190667349,  # analysis.S1_TERM_CAP + 1 terms at beta = 1
    ("experiment corollary", "--m"): POINTS // 1000 + 1,
    ("experiment corollary", "--threads"): MAX_THREADS + 1,
    ("experiment equivalence", "--n"): POINTS // 100 + 1,
    ("experiment equivalence", "--m"): POINTS // 200 + 1,
    ("experiment equivalence", "--samples"): POINTS // 2 + 1,
}


def sweep_values(key, flag, action):
    """The values the sweep gives one flag of one base command."""
    if action.choices:
        values = ["nope", *action.choices]
    elif action.type is cli.finite_float:
        values = ["0", "-1", "nan", "inf", "1e308"]
    elif action.type is cli.integer:  # a count: 2^63 is refused by the parser
        values = ["0", "-1", "1.5", str(2**63)]
    elif action.type is int:
        values = ["0", "-1", "1.5"]
    else:
        values = SWEEP_TEXT[flag]
    cap = SWEEP_CAPS.get((key, flag))
    return values + ([str(cap)] if cap else [])


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def sweep_problems(capsys, out, argv) -> list:
    """What is wrong with one run: an exit code other than 0, 1 or 2, a
    traceback, an exit 2 without exactly one error line or with a file
    written, or a JSON file that a strict parser refuses."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught exception is a traceback
        return [f"{argv}: raised {exc!r}"]
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    written = sorted(p for p in out.rglob("*") if p.is_file())
    problems = []
    if code not in (0, 1, 2) or "Traceback" in err:
        problems.append(f"{argv}: exit {code}, stderr {err!r}")
    elif code == 2 and (len(errors) != 1 or written):
        problems.append(f"{argv}: exit 2 with errors {errors} and files {written}")
    for path in written:
        if path.suffix == ".json":
            try:
                strict_json(path.read_text())
            except ValueError as exc:
                problems.append(f"{argv}: {path.name} is not strict JSON: {exc}")
    return problems


@pytest.mark.parametrize("key", SWEEP_BASES)
def test_bad_values_sweep(capsys, tmp_path, monkeypatch, key):
    # every settable value of the command, changed one at a time to bad or
    # boundary values; no value may end in a traceback or a non-JSON file
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, text in {"empty.txt": "", "bad.txt": "1 2 3\n", "unbounded.txt": "0 1 <= 1\n",
                       "infeasible.txt": "1 0 < -1\n1 0 > 1\n"}.items():
        (inputs / name).write_text(text)
    assert main(["enumerate", "--n", "3", "--out", str(inputs / "e.csv")]) == 0
    command = "oracle" if key.startswith("oracle ") else key
    base = key.split() + SWEEP_BASES[key].split()
    problems, runs = [], 0
    for surface_command, flag, action in option_surface(build_parser()):
        if surface_command != command:
            continue
        for value in sweep_values(key, flag, action):
            out = tmp_path / f"run{runs}"
            out.mkdir()
            runs += 1
            argv = list(base)
            if flag == "formula":
                argv[1] = value
            elif flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
            argv = [tok.format(out=out, inputs=inputs) for tok in argv]
            problems += sweep_problems(capsys, out, argv)
    assert runs >= 3
    assert problems == []


def test_experiment_gamma_total_fits_the_total_degree_histogram(capsys, tmp_path):
    # gamma's fit runs through LAPACK, so its report is not pinned; its
    # total-degree fit must be the fit of the graph's total-degree histogram
    out = tmp_path / "gamma.json"
    run(capsys, "experiment", "gamma", "--n", "20000", "--m", "2", "--seed", "1",
        "--out", str(out))
    g = generate(ProcessParams(20000, 2, "sequential", 1))
    fit = power_law_exponent(*np.unique(g.total_degrees, return_counts=True), 5, 50)
    aggregates = json.loads(out.read_text())["aggregates"]
    assert aggregates["gamma_total"] == fit.gamma
    assert aggregates["stderr_total"] == fit.stderr


def test_experiment_fraction_small(capsys, tmp_path):
    out = tmp_path / "frac.json"
    code, stdout, _ = run(capsys, "experiment", "fraction", "--n", "20000", "--d", "1",
                          "--replicates", "10", "--seed", "3", "--out", str(out))
    assert code == 0, stdout
    payload = json.loads(out.read_text())
    assert len(payload["replicates"]) == 10


def test_experiment_fraction_in_degree_zero(capsys, tmp_path):
    # the limiting fraction at in-degree 0 is 2/(m+2) = 2/3 at m = 1
    out = tmp_path / "frac.json"
    code, stdout, _ = run(capsys, "experiment", "fraction", "--n", "20000", "--d", "0",
                          "--replicates", "10", "--seed", "3", "--out", str(out))
    assert code == 0, stdout
    assert "PASS fraction_within_5pct" in stdout
    assert json.loads(out.read_text())["aggregates"]["target"] == pytest.approx(2 / 3)
    # --threads was omitted: the manifest records its default
    argv = json.loads((tmp_path / "frac.json.manifest.json").read_text())["argv"]
    assert argv[argv.index("--threads") + 1] == "1"


def test_experiment_fraction_rejects_negative_d_before_replicates(capsys, tmp_path, monkeypatch):
    def no_replicates(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(analysis, "replicate_counts", no_replicates)
    code, stdout, err = run(capsys, "experiment", "fraction", "--n", "20000", "--d", "-1",
                            "--replicates", "10", "--seed", "3",
                            "--out", str(tmp_path / "frac.json"))
    assert code == 2
    assert "d >= 0" in err
    assert stdout == ""


def test_experiment_failed_verdict_nonzero_exit(capsys, tmp_path):
    out = tmp_path / "gamma.json"
    code, stdout, _ = run(capsys, "experiment", "gamma", "--n", "100000", "--m", "3",
                          "--seed", "0", "--out", str(out))
    # the in-degree fit over [5, 50] gives gamma ~ 2.45 at finite n, outside
    # the asymptotic [2.8, 3.2] band (acceptance criterion 4); the verdict
    # shows the slope of the limiting law over the same window beside it
    assert code == 1
    assert "FAIL gamma_in_band" in stdout
    assert "limiting law over the window 2.4303" in stdout
    payload = json.loads(out.read_text())
    assert round(payload["aggregates"]["predicted_gamma_in"], 4) == 2.4303
    # the report holds the two log-log fits and the law's slope, and no other estimate
    assert set(payload["aggregates"]) == {"gamma_in", "stderr_in", "gamma_total",
                                          "stderr_total", "predicted_gamma_in"}
    verdict = next(line for line in stdout.splitlines() if "gamma_in_band" in line)
    assert "Hill" not in verdict


def test_corollary_rejects_zero_replicates(capsys, tmp_path):
    code, stdout, err = run(capsys, "experiment", "corollary", "--n-grid", "1000",
                            "--replicates", "0", "--seed", "0",
                            "--out", str(tmp_path / "cor.json"))
    assert code == 2
    assert "at least 1 replicate, got 0" in err
    assert stdout == ""


def test_corollary_n_grid_names_flag(capsys, tmp_path):
    for grid in ("10,x", ","):
        code, stdout, err = run(capsys, "experiment", "corollary", "--n-grid", grid,
                                "--seed", "0", "--out", str(tmp_path / "cor.json"))
        assert code == 2
        assert "--n-grid" in err
        assert "comma-separated integers >= 1" in err
        assert stdout == ""


def test_gamma_degree_window_must_start_at_1(capfd, tmp_path):
    # capfd also holds what LAPACK writes to the process's file descriptors
    code = main(["experiment", "gamma", "--n", "2000", "--dlo", "0", "--seed", "1",
                 "--out", str(tmp_path / "g.json")])
    out, err = capfd.readouterr()
    assert code == 2
    assert "[0, 50]" in err
    assert "DLASCL" not in out + err
    assert "SVD" not in err


def test_threads_rejected_where_unused(tmp_path):
    # gamma runs one graph; --threads is taken only by replicate experiments
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "gamma", "--n", "1000", "--threads", "2",
              "--out", str(tmp_path / "gamma.json")])
    assert exc.value.code == 2


def test_replay_reproduces_generate(capsys, tmp_path):
    out = tmp_path / "g.csv"
    run(capsys, "generate", "--n", "100", "--m", "1", "--seed", "9", "--out", str(out))
    manifest = tmp_path / "g.csv.manifest.json"
    code, stdout, _ = run(capsys, "replay", "--manifest", str(manifest))
    assert code == 0
    assert "replay PASS" in stdout


def test_manifest_records_peak_memory_and_versions(capsys, tmp_path):
    out = tmp_path / "eq.json"
    run(capsys, "experiment", "equivalence", "--n", "3", "--m", "2", "--samples", "2000",
        "--seed", "5", "--out", str(out))
    manifest_path = tmp_path / "eq.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert isinstance(manifest["peak_rss_bytes"], int)
    assert manifest["peak_rss_bytes"] > 1 << 20  # an interpreter with numpy
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert set(manifest["outputs"]) == {"eq.json", "eq.csv"}
    # the new fields are not outputs: a fresh manifest replays byte for byte
    code, stdout, _ = run(capsys, "replay", "--manifest", str(manifest_path))
    assert code == 0
    assert "replay PASS" in stdout


def test_manifest_records_this_process_peak_memory(tmp_path):
    # on Linux a child's ru_maxrss starts from the peak of the process that
    # forked it; the manifest records the child's own
    held = np.ones(200 << 17)  # 200 MiB, every page touched
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys\nfrom lcdgraph.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", code, "generate", "--n", "2", "--seed", "0",
                           "--out", str(tmp_path / "g.csv")],
                          env=env, capture_output=True, text=True, timeout=60)
    del held
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert 1 << 20 < manifest["peak_rss_bytes"] < 100 << 20


def test_manifest_peak_memory_is_null_without_proc(capsys, tmp_path, monkeypatch):
    def no_proc(path, *args, **kwargs):  # a host without /proc
        if str(path).startswith("/proc/"):
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    run(capsys, "generate", "--n", "2", "--seed", "0", "--out", str(tmp_path / "g.csv"))
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["peak_rss_bytes"] is None


@pytest.mark.parametrize("size", [2 << 10, 5 << 20], ids=["2kB", "5MB"])
def test_manifest_digest_peaks_below_300_kB(tmp_path, size):
    # one 2^18-byte buffer for any file; a 1 MiB read allocates 1 MiB even for 2 kB
    path = tmp_path / "out.bin"
    data = np.random.default_rng(0).bytes(size)
    path.write_bytes(data)
    expected = hashlib.sha256(data).hexdigest()
    del data
    tracemalloc.start()
    digest = cli._sha256(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert digest == expected
    assert peak < 300_000


def test_replay_reproduces_experiment(capsys, tmp_path):
    out = tmp_path / "sums.json"
    run(capsys, "experiment", "sums", "--n", "100000", "--d", "3", "--beta", "0.8",
        "--out", str(out))
    code, stdout, _ = run(capsys, "replay",
                          "--manifest", str(tmp_path / "sums.json.manifest.json"))
    assert code == 0
    assert "replay PASS" in stdout


@pytest.mark.parametrize(
    "manifest",
    [
        {"outputs": {}},
        [1, 2],
        {"argv": ["generate", "--n", "5", "--seed", "0", "--out", "g.csv"]},
        {"argv": ["replay", "--manifest", "bad.manifest.json"], "outputs": {}},
        {"argv": ["oracle", "prob-dk", "--n", "2"], "outputs": {}},  # checks nothing
        # an output name that is not a plain file name would hash a file the
        # replay did not write
        {"argv": ["generate", "--n", "5", "--seed", "0", "--out", "g.csv"],
         "outputs": {"/etc/hostname": "0" * 64}},
        {"argv": ["generate", "--n", "5", "--seed", "0", "--out", "g.csv"],
         "outputs": {"../g.csv": "0" * 64}},
    ],
)
def test_replay_rejects_malformed_manifest(capsys, tmp_path, manifest):
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(manifest))
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert "not a run manifest" in err
    assert stdout == ""  # rejected before anything was re-run


def test_replay_names_a_manifest_the_parser_refuses(capsys, tmp_path):
    # a generate manifest recorded while the command took --format
    run(capsys, "generate", "--n", "5", "--seed", "0", "--out", str(tmp_path / "g.csv"))
    path = tmp_path / "g.csv.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["argv"][1:1] = ["--format", "csv"]
    path.write_text(json.dumps(manifest))
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert "unrecognized arguments: --format csv" in err
    assert f"cannot replay {path}: the parser stopped its command" in err
    assert stdout == ""


def test_replay_names_a_manifest_that_runs_no_command(capsys, tmp_path):
    path = tmp_path / "version.manifest.json"
    path.write_text(json.dumps({"argv": ["--version"], "outputs": {"g.csv": "0" * 64}}))
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert f"cannot replay {path}: the parser stopped its command" in err
    assert stdout == f"{cli.__version__}\n"  # argparse's version line, and no PASS


def test_replay_fails_a_command_that_fails_when_run(capsys, tmp_path):
    path = tmp_path / "p.csv.manifest.json"
    path.write_text(json.dumps({"argv": ["enumerate", "--n", "9", "--out", "p.csv"],
                                "outputs": {"p.csv": "0" * 64}}))
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert "exceeds the enumeration cap" in err
    assert f"cannot replay {path}: its recorded command exited 2" in err
    assert stdout == ""  # no digest is checked


def test_replay_names_a_manifest_whose_command_the_program_refuses(capsys, tmp_path):
    # the parser takes --m 0, and generate refuses it
    run(capsys, "generate", "--n", "5", "--seed", "0", "--out", str(tmp_path / "g.csv"))
    path = tmp_path / "g.csv.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["argv"][manifest["argv"].index("--m") + 1] = "0"
    path.write_text(json.dumps(manifest))
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert f"error: cannot replay {path}: its recorded command exited 2" in err
    assert stdout == ""


def test_replay_rejects_raw_text(capsys, tmp_path):
    path = tmp_path / "bad.manifest.json"
    path.write_text("this is not json\n")
    code, stdout, err = run(capsys, "replay", "--manifest", str(path))
    assert code == 2
    assert "not a run manifest" in err
    assert stdout == ""


def test_equivalence_rejects_nonpositive_samples(capsys, tmp_path):
    for samples in ("0", "-5"):
        code, _, err = run(capsys, "experiment", "equivalence", "--n", "3", "--samples", samples,
                           "--seed", "0", "--out", str(tmp_path / "eq.json"))
        assert code == 2
        assert "samples" in err


@pytest.mark.parametrize("n, m", [(40, 1), (28, 2)])
def test_equivalence_refuses_rows_too_wide_before_drawing(capsys, tmp_path, monkeypatch, n, m):
    # every row's largest total degree is at least 2m, so (2m + 1)^n codes
    # past int64 are refused whatever the rows drawn would be
    def no_batch(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(cli, "batch_total_degrees", no_batch)
    code, stdout, err = run(capsys, "experiment", "equivalence", "--n", str(n), "--m", str(m),
                            "--samples", "100000", "--seed", "3",
                            "--out", str(tmp_path / "eq.json"))
    assert (code, stdout) == (2, "")
    assert err == f"error: rows of shape (100000, {n}) are too wide for an int64 row code\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_negative_seed_or_replicate(capsys, tmp_path):
    for flag in ("--seed", "--replicate"):
        code, _, err = run(capsys, "generate", "--n", "5", flag, "-1",
                           "--out", str(tmp_path / "g.csv"))
        assert code == 2
        assert flag in err
        assert not (tmp_path / "g.csv").exists()


def test_threads_flag_rejects_nonpositive(capsys, tmp_path):
    for threads in ("0", "-2"):
        code, _, err = run(capsys, "experiment", "fraction", "--n", "100", "--d", "1",
                           "--replicates", "2", "--threads", threads, "--seed", "3",
                           "--out", str(tmp_path / "frac.json"))
        assert code == 2
        assert "--threads" in err


def test_threads_help_names_the_edge_threshold():
    actions = {(command, flag): a for command, flag, a in option_surface(build_parser())}
    for command in ("experiment fraction", "experiment concentration", "experiment corollary"):
        assert f"fewer than {analysis.THREAD_MIN_EDGES} primed edges" in actions[
            command, "--threads"].help


def test_threads_flag_rejects_more_than_the_cap(capsys, tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(analysis, "THREAD_MIN_EDGES", 1)  # a loop that ran would start helpers
    for experiment, extra in (("fraction", ["--d", "1"]), ("concentration", ["--d", "1"]),
                              ("corollary", ["--n-grid", "100,200"])):
        for threads in (str(MAX_THREADS + 1), "100000"):
            code, _, err = run(capsys, "experiment", experiment, *extra, "--n", "100",
                               "--replicates", "100000", "--threads", threads, "--seed", "3",
                               "--out", str(tmp_path / f"{experiment}.json"))
            assert code == 2
            assert "--threads" in err and str(MAX_THREADS) in err
            assert not (tmp_path / f"{experiment}.json").exists()


def test_benchmark_hooks_stay_exposed(capsys, tmp_path, monkeypatch):
    # perfbench/bench.py drives the CLI through main and build_parser and
    # wraps cli.batch_total_degrees to keep the rows that equivalence samples
    assert callable(cli.main) and callable(cli.build_parser)
    calls = []
    original = cli.batch_total_degrees

    def capture(variant, *args):
        calls.append((variant, *args[:3], type(args[3])))
        return original(variant, *args)

    monkeypatch.setattr(cli, "batch_total_degrees", capture)
    code, _, _ = run(capsys, "experiment", "equivalence", "--n", "3", "--m", "2",
                     "--samples", "500", "--seed", "1", "--out", str(tmp_path / "eq.json"))
    assert code in (0, 1)
    assert calls == [(v, 3, 2, 500, np.random.Generator) for v in VARIANTS]

    # spans.py wraps these six oracle names on cli; each formula calls its own once
    formulas = {"prob-dk": "prob_dk", "count-ns": "count_ns", "ratio-f": "ratio_f",
                "mode-s01": "mode_s01", "mode-s02": "mode_s02", "cond-prob": "cond_prob_degree"}
    counts = dict.fromkeys(formulas.values(), 0)

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(cli, name, counting(name))
    for formula, name in formulas.items():
        before = dict(counts)
        code, _, _ = run(capsys, "oracle", formula, "--n", "12", "--k", "2", "--s", "1")
        assert code == 0
        assert counts == {**before, name: before[name] + 1}, formula


# Run in a fresh interpreter: the modules loaded, as JSON on the last line
STARTUP_PRELUDE = """
import json, sys
import lcdgraph.cli as cli
def loaded():
    return sorted(name for name in sys.modules
                  if name in ("numpy", "dataclasses", "csv", "concurrent.futures")
                  or name.partition(".")[0] == "lcdgraph")
"""
STARTUP_CHECKS = {
    # the parser loads no other module of the package; oracle adds the
    # oracles alone, and import lcdgraph.exact adds exact alone
    "start": """
cli.build_parser()
facts = {"parser": loaded()}
cli.main(["oracle", "prob-dk", "--n", "100", "--k", "3", "--s", "2"])
facts["oracle"] = loaded()
import lcdgraph.exact
facts["exact"] = loaded()
""",
    # enumerate adds numpy, lcd and io alone, and generate adds processes
    "commands": """
cli.main(["enumerate", "--n", "3", "--out", sys.argv[1] + "/p.csv"])
facts = {"enumerate": loaded()}
cli.main(["generate", "--n", "2", "--seed", "0", "--out", sys.argv[1] + "/g.csv"])
from lcdgraph import processes
facts |= {"generate": loaded(), "bound": cli.generate is processes.generate}
""",
    # a wrapper set before the first command, as perfbench's capture does, is kept
    "wrapper": """
from lcdgraph.processes import batch_total_degrees
calls = []
def wrapper(variant, *args):
    calls.append(variant)
    return batch_total_degrees(variant, *args)
cli.batch_total_degrees = wrapper
# at n = 1 every construction gives the row (2), so every TV is 0
code = cli.main(["experiment", "equivalence", "--n", "1", "--samples", "100", "--seed", "1",
                 "--out", sys.argv[1] + "/eq.json"])
facts = {"code": code, "calls": calls, "kept": cli.batch_total_degrees is wrapper}
""",
    # the same for an oracle, as perfbench's tracer wraps it, over two commands
    "oracle_wrapper": """
from lcdgraph.oracles import prob_dk
calls = []
def wrapper(query):
    calls.append(query.n)
    return prob_dk(query)
cli.prob_dk = wrapper
codes = [cli.main(["oracle", "prob-dk", "--n", str(n), "--k", "1", "--s", "1"]) for n in (2, 3)]
facts = {"codes": codes, "calls": calls, "kept": cli.prob_dk is wrapper}
""",
    # experiment region and its replay write JSON and CSV alone: no numpy, and no lcd
    "region": """
import contextlib, io
import lcdgraph.io
facts = {"io": loaded()}
out = sys.argv[1] + "/r.json"
cli.main(["experiment", "region", "--system", "combined", "--out", out])
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    cli.main(["replay", "--manifest", out + ".manifest.json"])
facts |= {"region": loaded(), "replay": printed.getvalue().splitlines()[-1],
          "numpy": json.load(open(out + ".manifest.json"))["numpy"]}
""",
    # a replicate experiment on two threads loads no thread pool, nor the logging it imports
    "threads": """
code = cli.main(["experiment", "fraction", "--n", "200", "--d", "1", "--replicates", "4",
                 "--threads", "2", "--seed", "3", "--out", sys.argv[1] + "/f.json"])
facts = {"code": code, "pool": [name for name in ("concurrent.futures", "logging")
                                if name in sys.modules]}
""",
}


def startup_facts(tmp_path, check: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = STARTUP_PRELUDE + STARTUP_CHECKS[check] + "print(json.dumps(facts))\n"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_starts_without_the_sampling_layers(tmp_path):
    facts = startup_facts(tmp_path, "start")
    parser = ["lcdgraph", "lcdgraph.cli", "lcdgraph.errors"]
    oracle = sorted(parser + ["lcdgraph.oracles"])
    assert facts == {"parser": parser, "oracle": oracle,
                     "exact": sorted(oracle + ["lcdgraph.exact"])}
    # no analysis, regions, exact or oracles, and neither csv nor concurrent.futures
    enumerate_ = sorted(parser + ["dataclasses", "numpy", "lcdgraph.io", "lcdgraph.lcd"])
    facts = startup_facts(tmp_path, "commands")
    assert facts == {"enumerate": enumerate_, "bound": True,
                     "generate": sorted(enumerate_ + ["lcdgraph.processes"])}
    facts = startup_facts(tmp_path, "wrapper")
    assert facts == {"code": 0, "calls": list(VARIANTS), "kept": True}
    facts = startup_facts(tmp_path, "oracle_wrapper")
    assert facts == {"codes": [0, 0], "calls": [2, 3], "kept": True}
    assert startup_facts(tmp_path, "threads") == {"code": 0, "pool": []}
    io_ = sorted(parser + ["lcdgraph.io"])
    assert startup_facts(tmp_path, "region") == {
        "io": io_, "region": sorted(io_ + ["csv", "dataclasses", "lcdgraph.regions"]),
        "replay": "replay PASS", "numpy": None}
    with pytest.raises(AttributeError, match="nope"):
        cli.__getattr__("nope")
