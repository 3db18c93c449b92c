"""Exact feasibility analysis of linear inequality systems over (alpha, beta).

All arithmetic is over ``fractions.Fraction``; results such as sup alpha are
exact rationals, never floats.  One polygon algorithm serves every result:
the corners of the closed region are its pairwise boundary intersections,
and sup alpha is the largest corner alpha.  Strict inequalities are closed
when taking the supremum and the result is flagged "not attained" when the
optimum sits on a strict boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, InfeasibleSystemError

_OPS = ("<", "<=", ">", ">=")
_EMPTY = "the region is empty, even with its strict inequalities closed"


@dataclass(frozen=True)
class Inequality:
    """a*alpha + b*beta < c when ``strict``, else <= c; a, b, c rational."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool


def parse_inequality(line: str) -> Inequality:
    """Parse "a b cmp c" meaning a*alpha + b*beta cmp c, a, b, c rational;
    a ``>`` or ``>=`` is stored negated, as ``<`` or ``<=``."""
    parts = line.split()
    if len(parts) != 4:
        raise DomainError(f"expected 'a b cmp c', got {line!r}")
    a, b, op, c = parts
    if op not in _OPS:
        raise DomainError(f"unknown comparison {op!r}")
    for x in (a, b, c):  # Fraction would raise ZeroDivisionError, not a ValueError
        denominator = x.partition("/")[2].replace("_", "")
        if denominator.isdecimal() and int(denominator) == 0:
            raise DomainError(f"zero denominator in {line!r}")
    sign = -1 if op.startswith(">") else 1
    a, b, c = (sign * Fraction(x) for x in (a, b, c))
    return Inequality(a, b, c, strict=op in ("<", ">"))


@dataclass(frozen=True)
class RegionSystem:
    """A conjunction of linear inequalities over (alpha, beta)."""

    inequalities: tuple

    def __post_init__(self):
        if not self.inequalities:
            raise DomainError("a region system needs at least one inequality")

    @classmethod
    def from_lines(cls, lines) -> "RegionSystem":
        return cls(tuple(parse_inequality(ln) for ln in lines if ln.strip()))


@dataclass(frozen=True)
class RegionResult:
    """Outcome of the sup-alpha computation for one system."""

    sup_alpha: Fraction
    attained: bool
    beta_interval: tuple  # closed (lo, hi) of beta at alpha = sup, None if unbounded
    witness_beta: Fraction
    vertices: tuple  # corner points of the closed region, CCW


def _interval_1d(bounds):
    """Intersect one-variable bounds (coef, strict, c), each meaning
    coef*x < c when strict, else <= c.  Returns (lo, hi) with None for an
    absent bound, or None when no x satisfies them all."""
    lo = hi = None
    lo_strict = hi_strict = False
    for coef, strict, c in bounds:
        if coef == 0:
            if c < 0 or (strict and c == 0):
                return None
            continue
        val = c / coef
        if coef > 0:  # x <(=) val
            if hi is None or val < hi or (val == hi and strict):
                hi, hi_strict = val, strict
        else:  # x >(=) val
            if lo is None or val > lo or (val == lo and strict):
                lo, lo_strict = val, strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    return lo, hi


def _beta_interval_at(ineqs, alpha: Fraction):
    """Feasible (lo, hi) of beta at a fixed alpha, None when no beta fits."""
    return _interval_1d([(q.b, q.strict, q.c - q.a * alpha) for q in ineqs])


def region_max_alpha(sys: RegionSystem) -> RegionResult:
    """Exact sup of alpha over the region, with a witnessing beta.

    Strict inequalities are closed for the supremum; ``attained`` reports
    whether the original system reaches it.  Raises InfeasibleSystemError
    when even the closure is empty, DomainError when alpha is unbounded.
    """
    closed = [replace(q, strict=False) for q in sys.inequalities]
    vertices = region_vertices(sys)
    if vertices:  # a region with a corner holds no line, so a finite sup is a corner
        sup = max(a for a, _ in vertices)
    else:  # empty, or a strip between parallel boundaries
        lo, sup = _interval_1d([(q.a, q.strict, q.c) for q in closed if q.b == 0]) or (None, None)
        # a nonempty region without a corner is a strip between parallel
        # boundaries, so it is empty iff alpha = sup (else lo, else 0) has no beta
        if _beta_interval_at(closed, sup if sup is not None else lo or 0) is None:
            raise InfeasibleSystemError(_EMPTY)
    # the closure is convex, so alpha is unbounded iff it reaches past sup
    if sup is None or _beta_interval_at(closed, sup + 1) is not None:
        raise DomainError("alpha is unbounded above; no finite supremum")
    b_lo, b_hi = _beta_interval_at(closed, sup)
    # a witnessing beta strictly inside the interval when it has interior
    if b_lo is not None and b_hi is not None:
        witness = (b_lo + b_hi) / 2
    elif b_lo is not None:
        witness = b_lo + 1
    elif b_hi is not None:
        witness = b_hi - 1
    else:
        witness = Fraction(0)
    return RegionResult(
        sup_alpha=sup,
        # the original system, strictness kept, reaches alpha = sup iff its
        # beta interval there is non-empty
        attained=_beta_interval_at(sys.inequalities, sup) is not None,
        beta_interval=(b_lo, b_hi),
        witness_beta=witness,
        vertices=vertices,
    )


def _angle_key(x: Fraction, y: Fraction) -> Fraction:
    """An exact key that increases with the angle of (x, y) in (-pi, pi],
    as atan2 does: 1 - x/r above the x-axis, x/r - 1 below, r = |x| + |y|."""
    r = abs(x) + abs(y)
    if r == 0:
        return Fraction(0)
    return 1 - x / r if y >= 0 else x / r - 1


def region_vertices(sys: RegionSystem) -> tuple:
    """Corner points of the closed region: pairwise boundary intersections
    that satisfy the closure, ordered counter-clockwise for plotting."""
    pts = set()
    for q1, q2 in combinations(sys.inequalities, 2):
        det = q1.a * q2.b - q2.a * q1.b
        if det == 0:
            continue
        alpha = (q1.c * q2.b - q2.c * q1.b) / det
        beta = (q1.a * q2.c - q2.a * q1.c) / det
        if all(q.a * alpha + q.b * beta <= q.c for q in sys.inequalities):
            pts.add((alpha, beta))
    if not pts:
        return ()
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return tuple(sorted(pts, key=lambda p: _angle_key(p[0] - cx, p[1] - cy)))


# ---------------------------------------------------------------------------
# built-in systems

_BOX = [
    "1 0 >= 0",  # alpha >= 0
    "1 0 <= 1/3",  # alpha <= 1/3
    "0 1 >= 0",  # beta >= 0
    "0 1 <= 1",  # beta <= 1
]
_AZUMA = ["3 0 < 1/2"]  # 1 - 3*alpha > 1/2
_SHARED = [
    "-1 2 > 3/2",  # 2*beta - alpha > 3/2
    "-1 1 > 1/2",  # beta - alpha > 1/2
]


def _sys(extra):
    return RegionSystem.from_lines(_SHARED + extra + _BOX + _AZUMA)


BUILTIN_SYSTEMS = {
    # first theorem: shared pair, 3*alpha + beta <= 1, box, concentration cut
    "theorem1": _sys(["3 1 <= 1"]),
    # second theorem, early-vertex sum case splits
    "theorem2-case1": _sys(["2 1 <= 1", "3 3/2 <= 3/2"]),
    "theorem2-case2": _sys(["2 1 > 1", "3 3/2 <= 3/2"]),
    "theorem2-case3": _sys(["2 1 > 1"]),
}

COMBINED_CASES = ("theorem2-case1", "theorem2-case2", "theorem2-case3")


def combined_max_alpha() -> RegionResult:
    """Sup alpha over the union of the three second-theorem case regions,
    which is not convex: the largest case result (sups 1/10, 1/10 and 1/6),
    the first case's on a tie."""
    results = (region_max_alpha(BUILTIN_SYSTEMS[name]) for name in COMBINED_CASES)
    return max(results, key=lambda res: res.sup_alpha)


def builtin_max_alpha(name: str) -> RegionResult:
    """``region_max_alpha`` of the built-in system ``name``, or
    ``combined_max_alpha()`` when ``name`` is ``combined``."""
    if name == "combined":
        return combined_max_alpha()
    if name not in BUILTIN_SYSTEMS:
        raise DomainError(f"unknown system {name!r}, not one of {(*BUILTIN_SYSTEMS, 'combined')}")
    return region_max_alpha(BUILTIN_SYSTEMS[name])
