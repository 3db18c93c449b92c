import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdgraph.errors import CapacityError, DomainError
from lcdgraph.lcd import enumerate_pairings
from lcdgraph.oracles import (
    EXACT_CAP,
    DkQuery,
    ExactProb,
    cond_prob_degree,
    count_ns,
    expected_count,
    lemma2_approx,
    mode_s01,
    mode_s02,
    pairing_count,
    prob_dk,
    ratio_f,
    tail_bound,
)
from lcdgraph.oracles import _PRIMES, _fact_exponents, _reduced_ratio, _unpack
from pair_tables import partner_rows, reference_degree_rows


@pytest.mark.parametrize("n", [0, 1, 2, 100, 2048, 20000])
def test_pairing_count_is_the_product_of_the_odd_numbers(n):
    assert pairing_count(n) == math.prod(range(1, 2 * n, 2))


def test_dkquery_validation():
    with pytest.raises(DomainError):
        DkQuery(2, 3, 0)
    with pytest.raises(DomainError):
        DkQuery(2, 1, 2)  # s > n - k
    with pytest.raises(DomainError):
        DkQuery(2, 1, -1)
    # a query is immutable: no field can be set, and no attribute added
    q = DkQuery(4, 2, 1)
    assert (q.n, q.k, q.s) == (4, 2, 1)
    for attr in ("n", "extra"):
        with pytest.raises(AttributeError):
            setattr(q, attr, 3)


def test_prob_dk_n2_values():
    assert prob_dk(DkQuery(2, 1, 0)).value == Fraction(1, 3)
    assert prob_dk(DkQuery(2, 1, 1)).value == Fraction(2, 3)


def test_prob_dk_sums_to_one_n6_k3():
    assert sum(prob_dk(DkQuery(6, 3, s)).value for s in range(4)) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_normalization_exact(n):
    for k in range(1, n + 1):
        total = sum(prob_dk(DkQuery(n, k, s)).value for s in range(n - k + 1))
        assert total == 1


def test_count_ns_n2_values():
    assert count_ns(DkQuery(2, 1, 0)) == 1
    assert count_ns(DkQuery(2, 1, 1)) == 2


# sha256 of the hex of count_ns over 69 cells at n = 512, 2048 and 20000 (the
# last past EXACT_CAP), k and s from each end, the middle and the mode
COUNT_NS_SHA256 = "789af682c9a699c71bfa7a9dda1ccda494312451fda47d1b8dbd4995a9e3a9ee"


def test_count_ns_is_pinned_at_large_n():
    h = hashlib.sha256()
    for n in (512, 2048, 20000):
        for k in sorted({1, 2, n // 4, n // 2, n - 1, n}):
            for s in sorted({0, 1, mode_s01(n, k), (n - k) // 2, n - k}):
                if s <= n - k:
                    h.update(f"{count_ns(DkQuery(n, k, s)):x};".encode())
    assert h.hexdigest() == COUNT_NS_SHA256


@pytest.mark.parametrize("n", range(1, 7))
def test_count_ns_partitions_all_pairings(n):
    for k in range(1, n + 1):
        assert sum(count_ns(DkQuery(n, k, s)) for s in range(n - k + 1)) == pairing_count(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_prob_count_consistency(n):
    for k in range(1, n + 1):
        for s in range(n - k + 1):
            q = DkQuery(n, k, s)
            assert prob_dk(q).value * pairing_count(n) == count_ns(q)


@pytest.mark.parametrize("n", range(2, 7))
def test_prob_dk_matches_enumeration(n):
    counts: Counter = Counter()
    for block in enumerate_pairings(n):
        # s = D_k - 2k for k = 1..n, one row per pairing
        degs = reference_degree_rows(partner_rows(block))
        s = np.cumsum(degs, axis=1) - 2 * np.arange(1, n + 1)
        for row in s.tolist():
            counts.update(enumerate(row, 1))
    for k in range(1, n + 1):
        for s in range(n - k + 1):
            expected = Fraction(counts.get((k, s), 0), pairing_count(n))
            assert prob_dk(DkQuery(n, k, s)).value == expected


def test_prob_dk_matches_the_process_chain():
    # D_k of the process itself, on every cell with n <= 40: after step k,
    # D = 2k on all (2k-1)!! paths; step t > k hits one of the first k
    # vertices, adding 1 to D, on D of its 2t-1 choices
    cells = 0
    for k in range(1, 41):
        paths = {2 * k: pairing_count(k)}  # D -> choice paths
        for n in range(k, 41):
            if n > k:
                step: Counter = Counter()
                for dk, c in paths.items():
                    step[dk + 1] += c * dk
                    step[dk] += c * (2 * n - 1 - dk)
                paths = step
            total = pairing_count(n)
            for s in range(n - k + 1):
                assert prob_dk(DkQuery(n, k, s)).value == Fraction(paths[2 * k + s], total)
                cells += 1
    assert cells == 11_480


def test_ratio_f_n2():
    assert ratio_f(2, 1, 0) == Fraction(2)


@pytest.mark.parametrize("n", range(2, 7))
def test_ratio_f_equals_prob_quotient(n):
    for k in range(1, n + 1):
        for s in range(n - k):
            lhs = ratio_f(n, k, s)
            rhs = prob_dk(DkQuery(n, k, s + 1)).value / prob_dk(DkQuery(n, k, s)).value
            assert lhs == rhs


def test_ratio_f_strictly_decreasing():
    vals = [ratio_f(20, 5, s) for s in range(15)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ratio_f_boundary_error():
    with pytest.raises(DomainError):
        ratio_f(2, 1, 1)


def test_mode_s01_at_k_equals_n():
    for n in (1, 5, 12, 40):
        assert mode_s01(n, n) == 0


@pytest.mark.parametrize("mode, n, k", [(mode_s01, 3, 0), (mode_s02, 3, 4)])
def test_modes_refuse_k_outside_1_to_n(mode, n, k):
    with pytest.raises(DomainError, match=f"need 1 <= k <= n, got n={n}, k={k}"):
        mode(n, k)


def test_mode_s01_formula_example():
    assert mode_s01(100, 25) == 50


@pytest.mark.parametrize("n", [10, 25, 40])
def test_argmax_within_one_of_s01(n):
    for k in range(1, n + 1):
        vals = [prob_dk(DkQuery(n, k, s)).value for s in range(n - k + 1)]
        argmax = vals.index(max(vals))
        s01 = mode_s01(n, k)
        assert argmax in (s01 - 1, s01)


def ceil_root(n, k, sign):
    """ceil((1 - 4k + sign * sqrt(16kn - 8n + 1)) / 2) by search: the least s
    with 2s - (1 - 4k) >= sign * sqrt(disc), compared in integers."""
    c, disc = 1 - 4 * k, 16 * k * n - 8 * n + 1

    def reached(s):
        x = 2 * s - c
        return x >= 0 and x * x >= disc if sign > 0 else x >= 0 or x * x <= disc

    guess = math.ceil((c + sign * math.sqrt(disc)) / 2)  # places the window only
    window = range(guess - 3, guess + 4)
    assert not reached(window[0]) and reached(window[-1])
    return next(s for s in window if reached(s))


def test_modes_are_the_exact_ceilings():
    # (n, k) = (1, 1) and (3, 1) give the perfect-square discriminants 9 and 25
    for n in range(1, 81):
        for k in range(1, n + 1):
            assert mode_s01(n, k) == max(0, min(ceil_root(n, k, 1), n - k)), (n, k)
            assert mode_s02(n, k) == ceil_root(n, k, -1), (n, k)


def test_mode_s02_always_negative():
    for n in (2, 10, 40):
        for k in range(1, n + 1):
            assert mode_s02(n, k) < 0


def test_tail_bound_values():
    assert tail_bound(100, 0) == 1.0
    assert tail_bound(100, 1) == 1.0
    assert tail_bound(100, 20) == pytest.approx(math.exp(-0.95))
    with pytest.raises(DomainError):
        tail_bound(100, -1)


@pytest.mark.parametrize("n", [5, 12, 25])
def test_tail_bound_dominates_prob(n):
    for k in range(1, n + 1):
        s01 = mode_s01(n, k)
        for l in range(0, n):
            for s in (s01 + l, s01 - l):
                if 0 <= s <= n - k:
                    p = float(prob_dk(DkQuery(n, k, s)).value)
                    assert p <= tail_bound(n, l) + 1e-12


def test_cond_prob_examples():
    assert cond_prob_degree(2, 1, 1, 0).value == 1
    assert cond_prob_degree(2, 1, 0, 1).value == 1
    # documented small-n discrepancy: the formula gives 1/2 where
    # enumeration gives 0
    assert cond_prob_degree(2, 1, 0, 0).value == Fraction(1, 2)


def test_cond_prob_domain_errors():
    with pytest.raises(DomainError):
        cond_prob_degree(2, 1, 0, 2)
    with pytest.raises(DomainError):
        cond_prob_degree(3, 1, 3, 0)
    with pytest.raises(DomainError, match="k = n"):  # (2n-2k-s-d-1)! at k = n is (-1)!
        cond_prob_degree(3, 3, 0, 0)


def test_expected_count_m1_identity():
    for n, d in ((600, 1), (10**6, 10), (50, 3)):
        assert expected_count(n, 1, d) == pytest.approx(4 * n / ((d + 1) * (d + 2) * (d + 3)))


def test_expected_count_examples():
    assert expected_count(600, 1, 1) == pytest.approx(100.0)
    assert expected_count(10**6, 1, 10) == pytest.approx(4e6 / (11 * 12 * 13))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_expected_count_in_degree_zero(m):
    # in-degree 0 lies inside the limiting law: 2m(m+1)/(m(m+1)(m+2)) = 2/(m+2)
    assert expected_count(3000, m, 0) == pytest.approx(2 * 3000 / (m + 2))
    with pytest.raises(DomainError):
        expected_count(3000, m, -1)


def test_lemma2_approx_values():
    assert lemma2_approx(16, 4, 0) == pytest.approx(0.5)  # k/n = 1/4
    assert lemma2_approx(100, 99, 3) < 1e-5
    n, k = 10**4, 400
    total = sum(lemma2_approx(n, k, d) for d in range(3000))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_prob_format():
    assert prob_dk(DkQuery(2, 1, 1)).format() == "2/3 (exact)"
    big = prob_dk(DkQuery(EXACT_CAP, 10, 5))
    assert big.tag == "log"
    assert big.format().startswith("exp(")


def exact_log(num: int, den: int) -> float:
    # math.log reads an int of any size, so no value underflows to 0.0 here
    return math.log(num) - math.log(den)


LOG_CAP_N = (EXACT_CAP // 2 + 1, 3000)  # the first n of the log regime, and one beyond


@pytest.mark.parametrize("n", LOG_CAP_N)
@pytest.mark.parametrize("where", ["s=0", "mode", "s=n-k"])
def test_log_regime_matches_exact_recomputation(n, where):
    # n beyond the cap: rebuild the exact rational directly and compare logs
    k = 700
    s = {"s=0": 0, "mode": mode_s01(n, k), "s=n-k": n - k}[where]
    p = prob_dk(DkQuery(n, k, s))
    assert p.tag == "log"
    num = (
        math.factorial(2 * k + s - 1)
        * math.factorial(2 * n - 2 * k - s)
        * math.factorial(n)
        * 2 ** (s + 1)
    )
    den = (
        math.factorial(s)
        * math.factorial(k - 1)
        * math.factorial(n - k - s)
        * math.factorial(2 * n)
    )
    assert abs(p.value - exact_log(num, den)) <= 1e-10


@pytest.mark.parametrize("n", LOG_CAP_N)
@pytest.mark.parametrize("where", ["near", "s=0,d=0", "s=0,d=n-k", "s=n-k,d=0", "d=n-k-s"])
def test_cond_prob_log_regime_matches_exact_recomputation(n, where):
    # n beyond the cap: rebuild the exact rational directly and compare logs;
    # "near" and "s=0,d=0" lie between e^-9 and e^-4; the others reach e^15500
    k = 700
    s, d = {"near": (1, 3), "s=0,d=0": (0, 0), "s=0,d=n-k": (0, n - k),
            "s=n-k,d=0": (n - k, 0), "d=n-k-s": (5, n - k - 5)}[where]
    p = cond_prob_degree(n, k, s, d)
    assert p.tag == "log"
    num = (
        2**d
        * math.factorial(s + d)
        * math.factorial(n - k - s)
        * math.factorial(2 * n - 2 * k - s - d - 1)
    )
    den = math.factorial(n - k - s - d) * math.factorial(2 * n - 2 * k - s)
    assert abs(p.value - exact_log(num, den)) <= 1e-10


def test_log_regime_refuses_past_its_rounding_bound():
    # at n = 1e18 the lgamma terms, about 8e19 each, round to 16384, so the
    # old sum printed exp(0) for a true value of 1/(2e18 - 1)
    n = 10**18
    with pytest.raises(CapacityError, match="rounding bound"):
        prob_dk(DkQuery(n, 1, 0))
    with pytest.raises(CapacityError, match="rounding bound"):
        cond_prob_degree(n, 1, 0, 0)
    with pytest.raises(CapacityError):
        prob_dk(DkQuery(10**10, 1, 0))  # error 1.3e-4, past LOG_ERROR_CAP


def test_log_regime_serves_n_1e9():
    n = 10**9
    assert abs(prob_dk(DkQuery(n, 1, 0)).value + math.log(2 * n - 1)) <= 1e-6


def test_exact_regime_reaches_the_cap():
    n = EXACT_CAP // 2
    assert prob_dk(DkQuery(n, 700, 3)).tag == "exact"
    assert cond_prob_degree(n, 700, 3, 2).tag == "exact"


def contract_cells():
    """(oracle, args) on every prob_dk cell with n <= 40 (11,480), every
    cond_prob_degree cell with n <= 25 (20,450), and 1,000 random cells of
    each with n <= 2048."""
    for n in range(1, 41):
        for k in range(1, n + 1):
            for s in range(n - k + 1):
                yield prob_dk, (DkQuery(n, k, s),)
    for n in range(2, 26):
        for k in range(1, n):
            for s in range(n - k + 1):
                for d in range(n - k - s + 1):
                    yield cond_prob_degree, (n, k, s, d)
    rng = random.Random(16)
    for _ in range(1000):
        n = rng.randint(1, 2048)
        k = rng.randint(1, n)
        yield prob_dk, (DkQuery(n, k, rng.randint(0, n - k)),)
        n = rng.randint(2, 2048)
        k = rng.randint(1, n - 1)
        s = rng.randint(0, n - k)
        yield cond_prob_degree, (n, k, s, rng.randint(0, n - k - s))


# sha256 of the repr of every (tag, value) over contract_cells(), pinned so
# that no change to the exact evaluator moves a value
ORACLE_CONTRACT_SHA256 = "62e6c1e737ee6cf30b6db6f7ebcf94127faf1d23bf78b458a439075d14ccc062"


def test_exact_values_are_pinned():
    h = hashlib.sha256()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # values near n = 2048 run to thousands of digits
    try:
        for oracle, args in contract_cells():
            p = oracle(*args)
            h.update(repr((p.tag, p.value)).encode())
    finally:
        sys.set_int_max_str_digits(limit)
    assert h.hexdigest() == ORACLE_CONTRACT_SHA256


@pytest.mark.parametrize(
    "x", [0, 1, 2, 97, 4095, 4096, *random.Random(16).sample(range(3, 4095), 4)]
)
def test_fact_exponents_rebuild_the_factorial(x):
    exps = _unpack(_fact_exponents(x), len(_PRIMES))
    assert math.prod(map(pow, _PRIMES, exps)) == math.factorial(x)


@pytest.mark.parametrize("x", [-1, EXACT_CAP + 1])
def test_fact_exponents_refuse_arguments_beyond_the_prime_table(x):
    with pytest.raises(DomainError):
        _fact_exponents(x)
    with pytest.raises(DomainError):
        _reduced_ratio(0, (x,), (1,))


# (pow2, num, den) of prob_dk at (2, 1, 0), (40, 7, 12) and (2048, 700, 30),
# and of cond_prob_degree at (2048, 700, 30, 5) and (2048, 1, 0, 2047)
@pytest.mark.parametrize(
    "pow2, num, den",
    [
        (1, (1, 2, 2), (0, 0, 1, 4)),
        (13, (25, 54, 40), (12, 6, 21, 80)),
        (31, (1429, 2666, 2048), (30, 699, 1318, 4096)),
        (5, (35, 1318, 2660), (1313, 2666)),
        (2047, (2047, 2047, 2046), (0, 4094)),
        (3, (1,), (0,)),  # every factorial below 2, so only pow2 names a prime
    ],
)
def test_reduced_ratio_is_coprime_and_exact(pow2, num, den):
    top, bot = _reduced_ratio(pow2, num, den)
    assert math.gcd(top, bot) == 1
    assert top * math.prod(map(math.factorial, den)) == (
        bot * 2**pow2 * math.prod(map(math.factorial, num))
    )


def test_exact_prob_validation():
    with pytest.raises(DomainError):
        ExactProb(Fraction(-1, 2))
    # the tag follows the value's type
    assert ExactProb(Fraction(1, 2)).tag == "exact"
    assert ExactProb(-0.5).tag == "log"
    for attr in ("value", "extra"):
        with pytest.raises(AttributeError):
            setattr(ExactProb(-0.5), attr, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.data())
def test_prob_dk_in_unit_interval_and_ratio_identity(n, data):
    k = data.draw(st.integers(1, n))
    s = data.draw(st.integers(0, n - k))
    p = prob_dk(DkQuery(n, k, s)).value
    assert 0 <= p <= 1
    if s < n - k:
        assert ratio_f(n, k, s) * p == prob_dk(DkQuery(n, k, s + 1)).value
