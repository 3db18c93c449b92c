"""Closed-form combinatorial quantities for the m = 1 attachment process.

Every probability-valued operation runs in one of two numeric regimes:
exact arbitrary-precision rationals when the point count 2n is at most
``EXACT_CAP``, and log-gamma evaluation above it, up to the n whose
rounding bound reaches ``LOG_ERROR_CAP``.  Exact results are
``fractions.Fraction``; log results carry log(p) as a float.

The exact regime never forms a factorial.  It adds the Legendre exponent
vectors of the factorials over the primes up to ``EXACT_CAP`` (cached per
argument, packed 16 bits a prime into one int) and multiplies the positive
and the negative prime powers into a numerator and a denominator that are
coprime by construction, so no big gcd reduces them.
"""

import bisect
import math
import struct
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .errors import CapacityError, DomainError

EXACT_CAP = 4096  # threshold on 2n for the exact-rational regime
# Most rounding error of a log-regime log(p): its terms, about 2n log 2n
# each, round to about ulp(term), so the sum's error is about terms * ulp(largest).
# The cap serves n up to about 1.6e9 in prob_dk (error 6.6e-7 at n = 1e9,
# 1.3e-4 at 1e10 and 4.8 at 1e15, against the exact -log(2n - 1) at k = 1).
LOG_ERROR_CAP = 1e-4


def _primes_upto(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


_PRIMES = _primes_upto(EXACT_CAP)  # the 564 primes that can divide x! for x <= EXACT_CAP
# An exponent vector over _PRIMES is packed into one int, 16 bits a prime,
# the lowest prime in the lowest bits; _ONES has a 1 at the foot of each field.
_ONES = ((1 << 16 * len(_PRIMES)) - 1) // 0xFFFF
_BIAS = _ONES << 15


# memoised: a sweep of oracle calls in one process (the discrepancy table,
# a benchmark round) asks for the same factorials again and again
@lru_cache(maxsize=None)
def _fact_exponents(x: int) -> int:
    """The packed exponent in x! of each prime, by Legendre's formula
    sum_j floor(x / p^j).  Refuses x > EXACT_CAP, whose x! has prime factors
    beyond the table."""
    if not 0 <= x <= EXACT_CAP:
        raise DomainError(f"exact factorial needs 0 <= x <= {EXACT_CAP}, got {x}")
    exps = []
    for p in _PRIMES[: bisect.bisect_right(_PRIMES, x)]:
        e, q = 0, x
        while q:
            q //= p
            e += q
        exps.append(e)
    return int.from_bytes(struct.pack(f"{len(exps)}H", *exps), sys.byteorder)


def _unpack(packed: int, count: int) -> memoryview:
    """The first ``count`` fields of a packed exponent vector."""
    return memoryview(packed.to_bytes(2 * count, sys.byteorder)).cast("H")


def _reduced_ratio(pow2: int, num: tuple, den: tuple) -> tuple:
    """Coprime (top, bot) with top/bot = 2^pow2 * prod(x! for x in num) /
    prod(y! for y in den)."""
    # Each field of t holds 2^15 + e for its prime's exponent e in the ratio.
    # |e| < 2^15, since p's exponent in x! is below x <= 4096 and each side
    # of an oracle's ratio adds at most four such terms, pow2 <= n among
    # them.  So no field borrows from the next, and bit 15 says e >= 0.
    t = _BIAS + pow2 + sum(map(_fact_exponents, num)) - sum(map(_fact_exponents, den))
    nonneg = ((t >> 15) & _ONES) * 0xFFFF
    # only primes up to the largest argument, or 2 for pow2, can have e != 0
    count = bisect.bisect_right(_PRIMES, max(2, *num, *den))
    up = _unpack((t & nonneg) - (_BIAS & nonneg), count)
    down = _unpack((_BIAS & ~nonneg) - (t & ~nonneg), count)
    top = math.prod(map(pow, compress(_PRIMES, up), filter(None, up)))
    return top, math.prod(map(pow, compress(_PRIMES, down), filter(None, down)))


def pairing_count(n: int) -> int:
    """Number of pairings of 2n points: (2n-1)!! = (2n)! / (n! 2^n), which
    is 1 at n = 0."""
    return math.perm(2 * n, n) >> n


class ExactProb(namedtuple("ExactProb", "value")):
    """A probability, either exact rational or as log(p).

    ``tag`` is "exact" (value is a non-negative Fraction) or "log" (value is
    a float holding the natural log).  Probability-law oracles keep values in
    [0,1]; the verbatim conditional-degree expression can exceed 1 at small
    n (a documented discrepancy), so only non-negativity is enforced here.
    """

    __slots__ = ()

    def __new__(cls, value):
        if isinstance(value, Fraction) and value < 0:
            raise DomainError("exact probability must be non-negative")
        return super().__new__(cls, value)

    @property
    def tag(self) -> str:
        return "exact" if isinstance(self.value, Fraction) else "log"

    def format(self) -> str:
        if self.tag == "exact":
            return f"{self.value.numerator}/{self.value.denominator} (exact)"
        return f"exp({self.value:.15g}) (log)"


class DkQuery(namedtuple("DkQuery", "n k s")):
    """Ask for Pr[D_k = 2k+s]: degree sum of the first k vertices overshoots
    its 2k minimum by s."""

    __slots__ = ()

    def __new__(cls, n, k, s):
        if n < 1 or not 1 <= k <= n:
            raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
        if not 0 <= s <= n - k:
            raise DomainError(f"need 0 <= s <= n-k = {n - k}, got s={s}")
        return super().__new__(cls, n, k, s)


def _factorial_ratio(n: int, pow2: int, num: tuple, den: tuple) -> ExactProb:
    """2^pow2 * prod(x! for x in num) / prod(y! for y in den), exactly when
    2n <= EXACT_CAP and as a left-to-right sum of log-gamma terms above it,
    which raises CapacityError when its rounding bound exceeds LOG_ERROR_CAP."""
    if 2 * n <= EXACT_CAP:
        return ExactProb(Fraction(*_reduced_ratio(pow2, num, den)))
    terms = [math.lgamma(x + 1) for x in num] + [pow2 * math.log(2.0)]
    terms += [-math.lgamma(y + 1) for y in den]
    error = len(terms) * math.ulp(max(map(abs, terms)))
    if error > LOG_ERROR_CAP:
        raise CapacityError(f"n={n}: the log regime's rounding bound {error:.2g} on log(p) "
                            f"exceeds {LOG_ERROR_CAP:g}")
    logp = 0.0
    for term in terms:  # in order: sum() compensates from Python 3.12, changing the bits
        logp += term
    return ExactProb(logp)


def prob_dk(q: DkQuery) -> ExactProb:
    """Pr[D_k = 2k+s] for the m = 1 process on n vertices.

    Closed form: (2k+s-1)! (2n-2k-s)! n! 2^(s+1) /
    (s! (k-1)! (n-k-s)! (2n)!).
    """
    n, k, s = q.n, q.k, q.s
    p = _factorial_ratio(
        n, s + 1, (2 * k + s - 1, 2 * n - 2 * k - s, n), (s, k - 1, n - k - s, 2 * n)
    )
    return p if p.tag == "exact" else ExactProb(min(p.value, 0.0))


def count_ns(q: DkQuery) -> int:
    """N(s): the number of pairings of 2n points with D_k = 2k+s.

    Product of matching counts: s! choices interleaving the s extra chords
    and (2k+s-1)*C(2k+s-2, s) placements on the left block, together
    (2k+s-1)*P(2k+s-2, s); (2k-3)!! matchings of the remaining left points,
    C(2n-2k-s, s) right attachment points and (2n-2k-2s-1)!! matchings of
    the remaining right points.  Satisfies prob_dk = N(s)/(2n-1)!! exactly.
    """
    n, k, s = q.n, q.k, q.s
    return (
        math.perm(2 * k + s - 2, s)
        * (2 * k + s - 1)
        * pairing_count(k - 1)
        * math.comb(2 * n - 2 * k - s, s)
        * pairing_count(n - k - s)
    )


def ratio_f(n: int, k: int, s: int) -> Fraction:
    """f(s) = Pr[D_k = 2k+s+1] / Pr[D_k = 2k+s], exactly.

    Equals 2(2k+s)(n-k-s) / ((s+1)(2n-2k-s)); strictly decreasing in s.
    """
    DkQuery(n, k, s)
    if s >= n - k:
        raise DomainError(f"ratio undefined at s = n-k = {n - k}")
    return Fraction(2 * (2 * k + s) * (n - k - s), (s + 1) * (2 * n - 2 * k - s))


def _mode_root(n: int, k: int, sign: int) -> int:
    """ceil((1 - 4k + sign * sqrt(16kn - 8n + 1)) / 2) in exact integers: the
    root of f(s) = 1 for sign +1 (positive) or -1 (negative)."""
    DkQuery(n, k, 0)
    disc = 16 * k * n - 8 * n + 1  # 8n(2k-1) + 1 >= 9
    # isqrt floors: ceil(sqrt(disc)) = isqrt(disc - 1) + 1 for disc >= 1
    root = math.isqrt(disc - 1) + 1 if sign > 0 else -math.isqrt(disc)
    return -((4 * k - 1 - root) // 2)


def mode_s01(n: int, k: int) -> int:
    """The s maximizing Pr[D_k = 2k+s], via the positive root of f(s) = 1:
    ceil(-2k + sqrt(4kn - 2n + 1/4) + 1/2), clamped to [0, n-k].

    Exact integer arithmetic (isqrt); the true argmax lies in
    {s01 - 1, s01} because of the ceiling.
    """
    return max(0, min(_mode_root(n, k, 1), n - k))


def mode_s02(n: int, k: int) -> int:
    """The negative root of f(s) = 1: ceil(-2k - sqrt(4kn - 2n + 1/4) + 1/2).

    Always indexes an infeasible s < 0 for valid inputs; returned unclamped.
    """
    return _mode_root(n, k, -1)


def tail_bound(n: int, l: int) -> float:
    """exp(-l(l-1)/(4n)): upper bound on Pr[D_k = 2k + s01 +/- l]."""
    if l < 0 or n < 1:
        raise DomainError("need l >= 0 and n >= 1")
    return math.exp(-l * (l - 1) / (4.0 * n))


def cond_prob_degree(n: int, k: int, s: int, d: int) -> ExactProb:
    """The closed-form expression for Pr[total degree of v_{k+1} is d+1
    given D_k = 2k+s]:

        2^d (s+d)! (n-k-s)! (2n-2k-s-d-1)! / ((n-k-s-d)! (2n-2k-s)!)

    Evaluated verbatim and NOT renormalized.  It disagrees with exhaustive
    enumeration on d = 0 and d >= 1 cells alike (for n <= 6, on 35 of the 70
    d >= 1 cells with enumerated mass), and the sum over d can exceed 1; the
    comparison table is ``exact.cond_prob_discrepancy_table``.
    """
    DkQuery(n, k, s)
    if not 0 <= d <= n - k - s:
        raise DomainError(f"need 0 <= d <= n-k-s = {n - k - s}, got d={d}")
    if k == n:
        raise DomainError("negative factorial argument: (2n-2k-s-d-1)! at k = n")
    return _factorial_ratio(
        n, d, (s + d, n - k - s, 2 * n - 2 * k - s - d - 1), (n - k - s - d, 2 * n - 2 * k - s)
    )


def expected_count(n: int, m: int, d):
    """Leading-term approximation to E[#vertices of total degree d+m]:
    2m(m+1)n / ((d+m)(d+m+1)(d+m+2)) for in-degree d >= 0 (2n/(m+2) at d = 0).
    At m=1 this is 4n/((d+1)(d+2)(d+3)); at n = 1, the limiting in-degree law.
    ``d`` is an int, or a float array of in-degrees, each refused below 0."""
    if n < 1 or m < 1 or (d < 0 if isinstance(d, int) else (d < 0).any()):
        raise DomainError(f"need n, m >= 1 and d >= 0, got n={n}, m={m}, d={d}")
    return 2.0 * m * (m + 1) * n / ((d + m) * (d + m + 1) * (d + m + 2))


def lemma2_approx(n: int, k: int, d: int) -> float:
    """Asymptotic Pr[total degree of v_{k+1} is d+1]:
    sqrt(k/n) * (1 - sqrt(k/n))^d.  Sums to 1 over d (geometric series)."""
    if not 1 <= k < n or d < 0:
        raise DomainError("need 1 <= k < n and d >= 0")
    q = math.sqrt(k / n)
    return q * (1.0 - q) ** d
