"""Desk-scale sampled experiments: degree statistics, exponent fits, concentration,
asymptotic-sum surrogates and batch degree-row laws; the exact laws are in ``exact``."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, InsufficientDataError
from .oracles import expected_count
from .processes import ProcessParams, generate


def degree_histogram(g) -> tuple:
    """The in-degrees that occur in ``g``, in increasing order, and the
    number of vertices of each, as the two arrays of ``np.unique``."""
    return np.unique(g.in_degrees, return_counts=True)


@dataclass
class FractionResult:
    """Replicate-level fractions of vertices at one exact degree."""

    fractions: list
    mean: float
    std: float


def replicate_counts(params: ProcessParams, degree: int, replicates: int, threads: int) -> list:
    """Vertices of in-degree ``degree`` in ``generate(params, r)`` for
    r = 0..replicates-1, in replicate order; ``degree`` < 0 is refused, and
    past m*n, the largest in-degree, no graph is drawn.

    ``threads`` threads draw the replicates: the calling thread and
    min(threads, replicates) - 1 started ones, each taking the next index
    from one shared ``iter(range(replicates))`` and writing its count at
    that index.  A replicate that raises stops the loop: every thread
    finishes the replicate it holds and takes no other, the started ones
    are joined, and then the first error is raised."""
    if degree < 0:
        raise DomainError(f"need in-degree d >= 0, got d={degree}")
    if degree > params.m * params.n:
        return [0] * replicates
    counts = [0] * replicates
    indices = iter(range(replicates))  # one next() runs under the interpreter lock
    errors = []

    def draw() -> None:
        try:
            for r in indices:
                if errors:
                    return
                counts[r] = int(np.count_nonzero(generate(params, r).in_degrees == degree))
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=draw) for _ in range(min(threads, replicates) - 1)]
    for helper in helpers:
        helper.start()
    draw()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return counts


def empirical_fraction(
    params: ProcessParams,
    degree: int,
    replicates: int = 50,
    threads: int = 1,
) -> FractionResult:
    """Mean and std over independent replicates of N(degree)/n, N(d) the
    number of vertices of in-degree d."""
    if replicates < 2:
        raise DomainError("need at least 2 replicates")
    fracs = [c / params.n for c in replicate_counts(params, degree, replicates, threads)]
    arr = np.array(fracs)
    return FractionResult(
        fractions=fracs,
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)),
    )


@dataclass
class ExponentFit:
    gamma: float
    stderr: float


def _check_fit_window(d_lo: int, d_hi: int, bins: int) -> None:
    """A fit window starts at 1 or above and holds at least 5 nonzero bins."""
    if not 1 <= d_lo <= d_hi:
        raise DomainError(f"degree window [{d_lo}, {d_hi}] needs 1 <= d_lo <= d_hi")
    if bins < 5:
        raise InsufficientDataError(f"only {bins} nonzero bins in [{d_lo}, {d_hi}]")


def power_law_exponent(degrees, counts, d_lo: int, d_hi: int) -> ExponentFit:
    """Least-squares slope of log(count) vs log(degree) over [d_lo, d_hi],
    negated, for increasing ``degrees``; zero-count bins are excluded."""
    keep = (degrees >= d_lo) & (degrees <= d_hi) & (counts > 0)
    _check_fit_window(d_lo, d_hi, np.count_nonzero(keep))
    x = np.log(degrees[keep].astype(float))
    y = np.log(counts[keep].astype(float))
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return ExponentFit(
        gamma=float(-slope),
        stderr=float(math.sqrt(cov[0, 0])),
    )


FIT_CHUNK = 1 << 16  # degrees of the window that limiting_in_degree_gamma holds at a time


def limiting_in_degree_gamma(m: int, d_lo: int, d_hi: int) -> float:
    """The exponent ``power_law_exponent`` fits over in-degrees [d_lo, d_hi]
    to the limiting in-degree law P(k) = ``expected_count(1, m, k)``: what
    a finite-window in-degree fit should be judged against.  It tends to 3
    only as the window moves out (2.430 at m = 3 over [5, 50]).

    The law is nonzero at every degree, so every degree of the window is a
    bin.  The slope is summed over ``FIT_CHUNK`` degrees at a time, in two
    passes (the means, then the centred sums), so the heap holds a few
    chunks, not the window: 10^7 degrees take about 3 MB, not about 800 MB."""
    bins = d_hi - d_lo + 1
    _check_fit_window(d_lo, d_hi, bins)

    def chunks():  # (log degree, log law) over the window, a chunk at a time
        for lo in range(d_lo, d_hi + 1, FIT_CHUNK):
            degrees = np.arange(lo, min(lo + FIT_CHUNK, d_hi + 1), dtype=np.float64)
            yield np.log(degrees), np.log(expected_count(1, m, degrees))

    x_sum = y_sum = 0.0
    for x, y in chunks():
        x_sum += x.sum()
        y_sum += y.sum()
    sxx = sxy = 0.0
    for x, y in chunks():
        x -= x_sum / bins
        y -= y_sum / bins
        sxx += (x * x).sum()
        sxy += (x * y).sum()
    return float(-sxy / sxx)


@dataclass
class ConcentrationResult:
    threshold: float
    mean_count: float
    std_count: float
    exceedance_rate: float


def concentration_experiment(
    params: ProcessParams,
    d: int,
    replicates: int = 200,
    threads: int = 1,
) -> ConcentrationResult:
    """Fraction of replicates whose vertex count at in-degree d deviates from
    the replicate grand mean by at least sqrt(n log n).

    The grand mean stands in for the expectation E[N_d] until its exact
    finite-n value is computed; the report names it ``expectation_proxy``.
    """
    if replicates < 100:
        raise DomainError("need at least 100 replicates")
    counts = np.array(replicate_counts(params, d, replicates, threads), dtype=float)
    threshold = math.sqrt(params.n * math.log(params.n))
    mean = counts.mean()
    exceed = float(np.mean(np.abs(counts - mean) >= threshold)) if params.n > 1 else 0.0
    return ConcentrationResult(
        threshold=threshold,
        mean_count=float(mean),
        std_count=float(counts.std(ddof=1)),
        exceedance_rate=exceed,
    )


S1_TERM_CAP = 10**7  # sum_s1 terms; one float64 array of them is then 80 MB


@dataclass
class SumS1Result:
    value: float
    case: int
    claimed_order: float
    ratio: float
    m_threshold: int  # M = floor(n^beta / log n)
    integral: float  # 2n * int x^2 (1-x)^d dx over x = sqrt(k/n), k in [log^2 n, M]


def sum_s1(n: int, d: int, beta: float, alpha: float | None = None) -> SumS1Result:
    """Direct evaluation of sum_{k=ceil(log^2 n)}^{M} sqrt(k/n)(1-sqrt(k/n))^d
    with M = floor(n^beta / log n), plus its asymptotic classification.

    Case 1 (beta <= 1-2a) and case 2 (beta > 1-2a, d < n^((1-beta)/2)) claim
    order n^(3b/2-1/2)/log^(3/2) n; case 3 (d >= n^((1-beta)/2)) claims
    O(n/d^3).  ``alpha`` defaults to log_n(d).

    ``integral`` is the sum's continuum form, 2n * int x^2 (1-x)^d dx from
    x = sqrt(k_lo/n) to sqrt(M/n), in closed form.  It is of order n/d^3
    only when d * sqrt(M/n) >> 1, so that (1-x)^d cuts the integrand off
    below the upper limit; otherwise the upper limit cuts it off first.
    """
    if n < 3 or d < 0 or not 0 < beta <= 1:
        raise DomainError("need n >= 3, d >= 0, beta in (0, 1]")
    log_n = math.log(n)
    k_lo = math.ceil(log_n**2)
    k_hi = math.floor(n**beta / log_n)
    if k_hi <= k_lo:
        raise DomainError(f"M = {k_hi} must exceed log^2 n = {k_lo}")
    if k_hi - k_lo + 1 > S1_TERM_CAP:
        raise CapacityError(f"{k_hi - k_lo + 1} terms of S1 exceed the cap {S1_TERM_CAP}")
    alpha_eff = alpha if alpha is not None else (math.log(d) / log_n if d >= 2 else 0.0)
    k = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    root = np.sqrt(k / n)
    value = float(np.sum(root * np.exp(d * np.log1p(-root))))
    d_split = n ** ((1.0 - beta) / 2.0)
    if beta <= 1.0 - 2.0 * alpha_eff:
        case = 1
    elif d < d_split:
        case = 2
    else:
        case = 3
    if case in (1, 2):
        claimed = n ** (1.5 * beta - 0.5) / log_n**1.5
    else:
        claimed = n / d**3  # case 3 has d >= n^((1-beta)/2) >= 1
    return SumS1Result(
        value=value,
        case=case,
        claimed_order=claimed,
        ratio=value / claimed,
        m_threshold=k_hi,
        integral=2 * n * (_s1_antiderivative(1 - math.sqrt(k_lo / n), d)
                          - _s1_antiderivative(1 - math.sqrt(k_hi / n), d)),
    )


def _s1_antiderivative(y: float, d: int) -> float:
    """F with F(1-a) - F(1-b) = int_a^b x^2 (1-x)^d dx: in y = 1 - x the
    integrand is (1 - 2y + y^2) y^d."""
    return y ** (d + 1) / (d + 1) - 2 * y ** (d + 2) / (d + 2) + y ** (d + 3) / (d + 3)


@dataclass
class SumS2Result:
    bound_primary: float  # M^(d+1) / (2^d n^d)
    bound_final: float  # 2n / d^3


def sum_s2_bound(n: int, d: int, beta: float) -> SumS2Result:
    """The late-vertex tail bound chain: S2 <= M^(d+1)/(2^d n^d) <= 2n/d^3;
    both bounds are 0 when d > M (no vertex can accumulate d late links)."""
    if n < 3 or d < 1 or not 0 < beta <= 1:
        raise DomainError("need n >= 3, d >= 1, beta in (0, 1]")
    m_thr = math.floor(n**beta / math.log(n))
    if d > m_thr:
        return SumS2Result(0.0, 0.0)
    log_primary = (d + 1) * math.log(m_thr) - d * math.log(2.0) - d * math.log(n)
    return SumS2Result(math.exp(log_primary), 2.0 * n / d**3)


@dataclass
class CorollaryResult:
    d_values: list
    fractions: list
    decreasing: bool


def corollary_experiment(
    n_grid,
    m: int,
    exponent: float,
    replicates: int = 8,
    master_seed: int = 0,
    threads: int = 1,
) -> CorollaryResult:
    """Fraction of vertices at in-degree d = ceil(n^exponent) for each n in the
    grid, averaged over replicates; reports whether the sequence decreases.
    Every grid point's d and run are checked before any graph is drawn."""
    n_grid = list(n_grid)
    if any(n < 10**3 for n in n_grid):
        raise DomainError("every n in the grid must be >= 10^3")
    if replicates < 1:
        raise DomainError(f"need at least 1 replicate, got {replicates}")
    d_values, runs = [], []
    for n in n_grid:
        try:
            d_values.append(math.ceil(n**exponent))
        except OverflowError:
            raise DomainError(f"exponent {exponent}: n^exponent overflows at n = {n}") from None
        runs.append(ProcessParams(n=n, m=m, variant="sequential", master_seed=master_seed))
    fracs = [float(np.mean([c / p.n for c in replicate_counts(p, d, replicates, threads)]))
             for p, d in zip(runs, d_values)]
    decreasing = all(a > b for a, b in zip(fracs, fracs[1:]))
    return CorollaryResult(
        d_values=d_values,
        fractions=fracs,
        decreasing=decreasing,
    )


def row_code_space(shape: tuple, base: int) -> int:
    """base^width, the codes of rows of ``shape`` (samples, width) over
    (base,) * width; raises DomainError when an int64 cannot hold them."""
    space = base ** min(shape[1], 63)  # a base of 2 or more passes int64 at width 63
    if space > np.iinfo(np.int64).max:
        raise DomainError(f"rows of shape {shape} are too wide for an int64 row code")
    return space


def count_rows(rows: np.ndarray) -> dict:
    """Occurrences of each distinct row of a 2-D array of non-negative ints,
    keyed by the row as a tuple of ints, in increasing row-code order.

    Rows are counted through a mixed-radix code over (max + 1,) * width,
    built column by column by Horner's rule in the narrowest signed type
    that holds every code below (max + 1)^width; rows whose code space
    exceeds int64 raise DomainError."""
    base = int(rows.max()) + 1
    shape = (base,) * rows.shape[1]
    space = row_code_space(rows.shape, base)
    # signed: an unsigned code plus a signed column would promote past it
    codes = rows[:, 0].astype(np.min_scalar_type(-space))
    for col in rows.T[1:]:
        codes *= base
        codes += col
    seqs, counts = np.unique(codes, return_counts=True)
    return {
        tuple(int(x) for x in s): c
        for s, c in zip(zip(*np.unravel_index(seqs, shape)), counts.tolist())
    }


def degree_rows_to_distribution(rows: np.ndarray) -> dict:
    """Empirical distribution of degree-sequence rows (samples, n)."""
    total = rows.shape[0]
    return {k: c / total for k, c in count_rows(rows).items()}

