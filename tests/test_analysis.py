import hashlib
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lcdgraph import analysis, exact
from lcdgraph.analysis import (
    concentration_experiment,
    corollary_experiment,
    count_rows,
    degree_histogram,
    degree_rows_to_distribution,
    empirical_fraction,
    limiting_in_degree_gamma,
    power_law_exponent,
    replicate_counts,
    row_code_space,
    sum_s1,
    sum_s2_bound,
)
from lcdgraph.errors import CapacityError, DomainError, InsufficientDataError
from lcdgraph.exact import cond_prob_discrepancy_table, exact_sequential_law, tv_distance
from lcdgraph.oracles import expected_count
from lcdgraph.processes import ProcessParams, batch_total_degrees, generate, replicate_rng
from pair_tables import exact_pairing_law


def _loop_graph():
    return generate(ProcessParams(1, 1, "sequential", 0))


def test_histogram_loop_graph():
    degrees, counts = degree_histogram(_loop_graph())
    assert degrees.tolist() == [1] and counts.tolist() == [1]  # total degree 2


def test_histogram_totals_and_handshake():
    g = generate(ProcessParams(2000, 3, "sequential", 4))
    degrees, counts = degree_histogram(g)
    assert counts.sum() == 2000
    assert ((degrees + 3) * counts).sum() == 2 * 3 * 2000  # total degree
    assert int(g.in_degrees.sum()) == 3 * 2000
    assert (np.bincount(g.src)[1:] == 3).all()


def test_empirical_fraction_impossible_degree_is_zero():
    params = ProcessParams(50, 1, "sequential", 0)
    res = empirical_fraction(params, 2 * 50 + 5, replicates=3)
    assert res.mean == 0.0


def test_empirical_fraction_past_mn_draws_no_graph(monkeypatch):
    def no_graphs(*args):
        raise AssertionError("a graph was drawn for an unreachable in-degree")

    monkeypatch.setattr(analysis, "generate", no_graphs)
    params = ProcessParams(50, 2, "sequential", 0)
    res = empirical_fraction(params, 2 * 50 + 1, replicates=3)
    assert res.fractions == [0.0, 0.0, 0.0]
    assert (res.mean, res.std) == (0.0, 0.0)


def test_replicate_counts_refuses_a_negative_in_degree(monkeypatch):
    def no_graphs(*args):
        raise AssertionError("a graph was drawn for a negative in-degree")

    monkeypatch.setattr(analysis, "generate", no_graphs)
    with pytest.raises(DomainError, match="got d=-1"):
        replicate_counts(ProcessParams(100, 1, "sequential", 3), -1, 100, 1)


def test_empirical_fraction_validation():
    params = ProcessParams(10, 1, "sequential", 0)
    with pytest.raises(DomainError):
        empirical_fraction(params, 2, replicates=1)


def counted_starts(monkeypatch) -> list:
    """The threads started from now on, each still started for real."""
    started, start = [], threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_empirical_fraction_threaded_matches_serial(monkeypatch):
    params = ProcessParams(2000, 1, "sequential", 9)
    started = counted_starts(monkeypatch)
    serial = empirical_fraction(params, 2, replicates=8, threads=1)
    assert len(started) == 0  # one thread is the caller alone
    threaded = empirical_fraction(params, 2, replicates=8, threads=4)
    assert len(started) == 3  # the caller draws beside three started threads
    assert serial.fractions == threaded.fractions  # replicate streams are keyed
    # no more threads than replicates: the caller and two started ones
    capped = empirical_fraction(params, 2, replicates=3, threads=64)
    assert len(started) == 5
    assert capped.fractions == serial.fractions[:3]
    # many short replicates, more threads than cores and a short switch
    # interval: a count lost or written at another replicate's index shows
    tiny = ProcessParams(2, 1, "sequential", 9)
    tiny_serial = replicate_counts(tiny, 1, 2000, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert replicate_counts(tiny, 1, 2000, threads=8) == tiny_serial
    finally:
        sys.setswitchinterval(interval)


def test_replicate_counts_threaded_matches_serial_with_rejections(monkeypatch):
    # at n = 3e5 each replicate's draw rejects about ten 32-bit words, so
    # each thread carries its own generator through rejections and spare halves
    params = ProcessParams(3 * 10**5, 1, "sequential", 3)
    serial = replicate_counts(params, 1, 4, threads=1)
    started = counted_starts(monkeypatch)
    assert replicate_counts(params, 1, 4, threads=2) == serial
    assert len(started) == 1

    def failing(p, r):
        if r == 1:
            raise RuntimeError("replicate 1 failed")
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)  # a started thread is still drawing when the caller stops
        return generate(p, r)

    monkeypatch.setattr(analysis, "generate", failing)
    before = threading.active_count()
    for threads in (1, 3):  # the error is raised once every started thread is joined
        with pytest.raises(RuntimeError, match="replicate 1 failed"):
            replicate_counts(ProcessParams(200, 1, "sequential", 3), 1, 6, threads)
        assert threading.active_count() == before


def _synthetic_histogram(gamma: float, c: float = 10**9) -> tuple:
    degrees = np.arange(5, 51)
    return degrees, np.array([int(c * d**-gamma) for d in degrees.tolist()])


def test_power_law_recovers_synthetic_exponents():
    for gamma in (2.0, 3.0, 4.0):
        fit = power_law_exponent(*_synthetic_histogram(gamma), 5, 50)
        assert abs(fit.gamma - gamma) <= max(0.05, 2 * fit.stderr)


def test_power_law_reads_only_the_histograms_bins():
    # a window past every bin fits the bins it holds, and as fast
    hist = _synthetic_histogram(3.0)
    assert power_law_exponent(*hist, 5, 2**63 - 1) == power_law_exponent(*hist, 5, 50)


def test_power_law_too_few_bins():
    with pytest.raises(InsufficientDataError):
        power_law_exponent(np.array([5, 6]), np.array([10, 8]), 5, 50)


def test_limiting_in_degree_gamma_values():
    # the finite-window slope of the exact limiting law, not the asymptotic 3
    assert round(limiting_in_degree_gamma(3, 5, 50), 4) == 2.4303
    assert round(limiting_in_degree_gamma(1, 5, 50), 4) == 2.6817
    assert 2.9 < limiting_in_degree_gamma(3, 50, 500) < 3.0
    with pytest.raises(DomainError):
        limiting_in_degree_gamma(3, 0, 50)


@pytest.mark.parametrize("m, d_lo", [(1, 1), (3, 5)])
def test_limiting_in_degree_gamma_is_the_fit_of_the_law(m, d_lo):
    # summed over chunks of the window, the slope is the one power_law_exponent
    # fits to the law held whole, over a window of several chunks
    d_hi = 2 * analysis.FIT_CHUNK + 7
    degrees = np.arange(d_lo, d_hi + 1, dtype=np.float64)
    fit = power_law_exponent(degrees, expected_count(1, m, degrees), d_lo, d_hi)
    assert limiting_in_degree_gamma(m, d_lo, d_hi) == pytest.approx(fit.gamma, rel=1e-12)


def test_limiting_in_degree_gamma_heap_peak():
    # 10^7 degrees, a chunk at a time: the whole window as float arrays and
    # the fit's temporaries took about 81 B a degree, 810 MB here
    tracemalloc.start()
    try:
        gamma = limiting_in_degree_gamma(3, 5, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2.99 < gamma < 3.0
    assert peak < 8e6, peak


@pytest.mark.parametrize("m", [1, 3])
def test_limiting_law_array_is_the_expected_count_formula(m):
    # the float-array path, which limiting_in_degree_gamma fits, is the int path
    law = expected_count(1, m, np.arange(1, 201, dtype=np.float64))
    assert law.tolist() == [expected_count(1, m, k) for k in range(1, 201)]


def test_fit_windows_must_start_at_degree_1():
    h = _synthetic_histogram(3.0)
    for lo, hi in ((0, 50), (-3, 50), (20, 10)):
        with pytest.raises(DomainError, match=rf"\[{lo}, {hi}\]"):
            power_law_exponent(*h, lo, hi)
    assert power_law_exponent(np.arange(1, 6), np.full(5, 10), 1, 5).gamma == pytest.approx(0.0)


def test_concentration_degenerate_n1():
    res = concentration_experiment(ProcessParams(1, 1, "sequential", 0), 1,
                                   replicates=100)
    assert res.exceedance_rate == 0.0


def test_concentration_validation():
    with pytest.raises(DomainError):
        concentration_experiment(ProcessParams(10, 1, "sequential", 0), 1,
                                 replicates=10)


def test_concentration_small_run():
    res = concentration_experiment(ProcessParams(2000, 1, "sequential", 2), 1,
                                   replicates=100)
    assert 0.0 <= res.exceedance_rate <= 1.0
    assert res.threshold == pytest.approx(math.sqrt(2000 * math.log(2000)))


def test_sum_s1_pure_power_sum_d0():
    n, beta = 10**6, 0.8
    res = sum_s1(n, 0, beta)
    m_hi = math.floor(n**beta / math.log(n))
    approx = (2.0 / 3.0) * m_hi**1.5 / math.sqrt(n)
    assert res.value == pytest.approx(approx, rel=0.05)


def test_sum_s1_precondition_violated():
    # beta = 0.5 at n = 10^6 gives M = 72 < log^2 n = 191: outside the
    # operation's stated domain
    with pytest.raises(DomainError):
        sum_s1(10**6, 3, 0.5)


@pytest.mark.parametrize("n, d, beta", [(2, 1, 0.5), (10**6, -1, 0.8), (10**6, 1, 0.0),
                                        (10**6, 1, 1.5)],
                         ids=["n-below-3", "d-negative", "beta-0", "beta-above-1"])
def test_sum_s1_refuses_arguments_outside_its_domain(n, d, beta):
    with pytest.raises(DomainError, match="need n >= 3, d >= 0, beta in"):
        sum_s1(n, d, beta)


def test_sum_s1_case_classification():
    # default alpha_eff = log_n d
    res = sum_s1(10**6, 3, 0.75)
    assert res.case == 1
    res = sum_s1(10**6, 1, 0.9, alpha=0.3)  # beta > 1 - 2a, d < n^0.05
    assert res.case == 2
    d = math.ceil((10**6) ** 0.2)
    res = sum_s1(10**6, d, 0.9)
    assert res.case == 3


def test_sum_s1_integral_tracks_the_sum_in_case_3():
    # the closed-form integral stays within 1.2 % of the sum on case-3 cells
    # whose ratio to the claimed n/d^3 runs from 0.019 to 2.05
    cells = [(10**4, 3, 0.8)] + [(n, math.ceil(n**0.2), 0.9) for n in (10**5, 10**6, 10**7)]
    ratios = []
    for n, d, beta in cells:
        res = sum_s1(n, d, beta)
        assert res.case == 3
        assert res.m_threshold == math.floor(n**beta / math.log(n))
        assert res.integral == pytest.approx(res.value, rel=0.012)
        ratios.append(res.ratio)
    assert min(ratios) < 0.02 and max(ratios) > 2


def test_sum_s1_case_boundary_orders_coincide():
    # at beta = 1 - 2a cases 1 and 2 claim the same order
    a = sum_s1(10**6, 2, 0.6, alpha=0.2)  # beta = 1 - 2*0.2 exactly: case 1
    b = sum_s1(10**6, 2, 0.6000001, alpha=0.2)  # infinitesimally above: case 2
    assert a.case == 1 and b.case == 2
    assert a.claimed_order == pytest.approx(b.claimed_order, rel=1e-5)


def test_sum_s2_bound_chain_and_zero():
    n = 10**6
    res = sum_s2_bound(n, 10, 0.875)
    assert 0 < res.bound_primary <= res.bound_final
    m_thr = math.floor(n**0.875 / math.log(n))  # M
    res0 = sum_s2_bound(n, m_thr + 1, 0.875)
    assert res0.bound_primary == res0.bound_final == 0.0


def test_sum_s2_d1_bound():
    n = 10**6
    res = sum_s2_bound(n, 1, 0.9)
    m_thr = math.floor(n**0.9 / math.log(n))  # M
    assert res.bound_primary == pytest.approx(m_thr**2 / (2 * n))
    assert res.bound_primary <= 2 * n


def test_corollary_validation_and_impossible_degree():
    with pytest.raises(DomainError):
        corollary_experiment([100], 1, 0.25)
    res = corollary_experiment([1000], 1, 1.2, replicates=2)  # d > 2mn
    assert res.fractions == [0.0]


def test_corollary_skips_an_in_degree_above_mn(monkeypatch):
    # d = 1413 lies between m*n and 2mn: no in-degree reaches it, so no graph is drawn
    def no_graphs(*args):
        raise AssertionError("a graph was drawn for an unreachable in-degree")

    monkeypatch.setattr(analysis, "generate", no_graphs)
    res = corollary_experiment([1000], 1, 1.05, replicates=2)
    assert res.d_values == [1413]
    assert res.fractions == [0.0]


def test_corollary_needs_a_replicate():
    # no replicate would average to NaN, which the decreasing check passes
    with pytest.raises(DomainError, match="got 0"):
        corollary_experiment([1000, 4000], 1, 0.25, replicates=0)


def test_corollary_small_grid_runs():
    res = corollary_experiment([1000, 4000], 1, 0.25, replicates=4)
    assert len(res.fractions) == 2
    assert all(0 <= f <= 1 for f in res.fractions)


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_laws_agree(n):
    seq = exact_sequential_law(n)
    pair = exact_pairing_law(n)
    assert seq == pair
    assert sum(seq.values()) == 1


# sha256 of repr(sorted(law.items())), pinned so that no change to the
# enumeration moves an exact law
EXACT_PAIRING_LAW_SHA256 = {
    1: "edda94be1cf8a30cf788272fe0d8239cc66e4af8f2a3df018396ed78accadfa5",
    2: "03ec2d0e6438a60a910f1edb9ef2cc4668040c7063d695549d9890a025d9afff",
    3: "152e6ff7ed5c6730eac669369b7633091bdb23e2f94d495e3dbd5b1888ba2755",
    4: "95643299899a2ed97e727e735873648ee594cc937e3ebf4005d59b5e02edbe4d",
    5: "047e90543ca4f738c10f305b088264e04facf08c177e203a40d760e1631544d3",
    6: "549c5e954a3b086a66a43bc6b3aa6cc1ef981bee206fed870fe386f948168277",
}


def sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_pairing_law_digest(n):
    assert sha256_of_repr(sorted(exact_pairing_law(n).items())) == EXACT_PAIRING_LAW_SHA256[n]


# the same digests, taken from the former path recursion over all (2n-1)!!
# choice paths, as the two laws are one dict; n = 7 is beyond the pairing pins
EXACT_SEQUENTIAL_LAW_SHA256 = {
    **EXACT_PAIRING_LAW_SHA256,
    7: "76717e0be822719cbced9afd933f7b390c1568f83c4284bca6882828251ef7a2",
}


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_sequential_law_digest(n):
    law = exact_sequential_law(n)
    assert sha256_of_repr(sorted(law.items())) == EXACT_SEQUENTIAL_LAW_SHA256[n]


def test_exact_sequential_law_n2_values():
    law = exact_sequential_law(2)
    assert law == {(2, 2): Fraction(1, 3), (3, 1): Fraction(2, 3)}


def test_tv_distance_basics():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_degree_rows_to_distribution():
    rows = np.array([[1, 3], [1, 3], [2, 2], [1, 3]])
    dist = degree_rows_to_distribution(rows)
    assert dist[(1, 3)] == pytest.approx(0.75)
    assert dist[(2, 2)] == pytest.approx(0.25)


def test_count_rows_rejects_rows_too_wide_for_a_code():
    # 18 columns of values up to 17: 18**18 codes do not fit in an int64
    with pytest.raises(DomainError, match="too wide"):
        count_rows(np.full((2, 18), 17))
    assert count_rows(np.full((2, 15), 17)) == {(17,) * 15: 2}  # 18**15 codes fit
    # the bound that experiment equivalence checks before drawing: base 3
    # passes int64 at width 40, and a huge width is refused at once
    assert row_code_space((5, 39), 3) == 3**39
    for shape, base in (((5, 40), 3), ((5, 2**63 - 1), 2)):
        with pytest.raises(DomainError, match=rf"rows of shape \({shape[0]}, {shape[1]}\)"):
            row_code_space(shape, base)
    assert row_code_space((5, 2**63 - 1), 1) == 1


# at width 2, 181**2 codes fit an int16 and 182**2 need an int32
@pytest.mark.parametrize("top", [180, 181])
def test_count_rows_is_np_unique(top):
    rows = np.random.default_rng(top).integers(0, top + 1, size=(5000, 2), dtype=np.int16)
    rows[0] = top
    seqs, counts = np.unique(rows, axis=0, return_counts=True)
    reference = [(tuple(s), c) for s, c in zip(seqs.tolist(), counts.tolist())]
    assert list(count_rows(rows).items()) == reference


# Heap peak with a margin over the 6.0 MB that numpy 2.4 gives here: the
# int16 row codes and np.unique's sorted copy.  Intp codes took 18.0 MB.
def test_degree_rows_to_distribution_heap_peak():
    rows = batch_total_degrees("sequential", 4, 1, 10**6, replicate_rng(0))
    tracemalloc.start()
    try:
        dist = degree_rows_to_distribution(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dist.values()) == pytest.approx(1.0)
    assert peak < 8e6, peak


def test_cond_prob_discrepancy_table():
    rows = cond_prob_discrepancy_table(4)
    cell = next(r for r in rows if (r["n"], r["k"], r["s"], r["d"]) == (2, 1, 0, 0))
    assert cell["enumerated"] == 0
    assert cell["formula"] == Fraction(1, 2)
    assert not cell["match"]
    # the agreeing n=2 cells from the closed form
    ok = next(r for r in rows if (r["n"], r["k"], r["s"], r["d"]) == (2, 1, 1, 0))
    assert ok["match"]
    # every cell of n <= 6 and of n <= 7, pinned
    assert sha256_of_repr(cond_prob_discrepancy_table(6)) == (
        "ac31312907426ee30d6f5926867a1f328561a64db8af1f34e6be920515a9e774"
    )
    assert sha256_of_repr(cond_prob_discrepancy_table(7)) == (
        "56bae3fbc17e6114d73106abd53b19ef102918b65ab30eb50fd1a8fd75fd7cbe"
    )


def test_cond_prob_discrepancy_table_reads_the_chain(monkeypatch):
    # the exact column is the forward chain's law, read once for each n
    read = []

    def spy(n):
        read.append(n)
        return exact_sequential_law(n)

    monkeypatch.setattr(exact, "exact_sequential_law", spy)
    assert sha256_of_repr(cond_prob_discrepancy_table(6)) == (
        "ac31312907426ee30d6f5926867a1f328561a64db8af1f34e6be920515a9e774"
    )
    assert read == [2, 3, 4, 5, 6]


def test_exact_law_refuses_n_below_1():
    with pytest.raises(DomainError, match="n must be >= 1"):
        exact_sequential_law(0)


def test_exact_law_cap_refuses_before_any_state(monkeypatch):
    # Counter builds the chain's states; past the cap no state is built
    def no_states(*args):
        raise AssertionError("a chain state was built")

    monkeypatch.setattr(exact, "Counter", no_states)
    with pytest.raises(CapacityError, match="cap 12"):
        exact_sequential_law(exact.EXACT_LAW_CAP + 1)
    with pytest.raises(CapacityError, match="cap 12"):
        cond_prob_discrepancy_table(13)
