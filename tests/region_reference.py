"""Test references for regions: membership of a point, feasibility along a
direction, and sup alpha by Fourier-Motzkin elimination of beta.  The
package finds sup alpha from the region's corners; these references check
it by a second route."""

from dataclasses import replace
from fractions import Fraction

from lcdgraph.errors import DomainError, InfeasibleSystemError
from lcdgraph.regions import _interval_1d


def holds(q, alpha, beta) -> bool:
    """True when (alpha, beta) satisfies the inequality ``q``."""
    lhs = q.a * Fraction(alpha) + q.b * Fraction(beta)
    return lhs < q.c if q.strict else lhs <= q.c


def system_holds(sys, alpha, beta) -> bool:
    """True when (alpha, beta) satisfies every inequality of ``sys``."""
    return all(holds(q, alpha, beta) for q in sys.inequalities)


def feasible_along(sys, point, direction) -> bool:
    """True when point + eps*direction satisfies every inequality (including
    strict ones) for all small enough eps > 0.  Exact arithmetic."""
    px, py = Fraction(point[0]), Fraction(point[1])
    dx, dy = Fraction(direction[0]), Fraction(direction[1])
    for q in sys.inequalities:
        g0 = q.a * px + q.b * py - q.c
        g1 = q.a * dx + q.b * dy
        # need g0 + eps*g1 < 0 (or <= 0) for small eps > 0
        if g0 < 0:
            continue
        if g0 == 0:
            if g1 < 0 or (g1 == 0 and not q.strict):
                continue
        return False
    return True


def eliminate_beta(ineqs):
    """Fourier-Motzkin step: project the system onto alpha.

    Inequalities are a*alpha + b*beta (<|<=) c, as stored.  Returns bounds on
    alpha as (coef, strict, c) triples meaning coef*alpha (<|<=) c.
    """
    uppers, lowers, pure = [], [], []
    for q in ineqs:
        if q.b == 0:
            pure.append((q.a, q.strict, q.c))
        elif q.b > 0:  # beta <=(<) (c - a*alpha)/b
            uppers.append(q)
        else:  # beta >=(>) (c - a*alpha)/b
            lowers.append(q)
    for lo in lowers:
        for up in uppers:
            # (c_lo - a_lo*alpha)/b_lo <= beta <= (c_up - a_up*alpha)/b_up
            # with b_lo < 0 < b_up; cross-multiplying by -b_lo*b_up > 0:
            a = up.a * (-lo.b) + lo.a * up.b
            c = up.c * (-lo.b) + lo.c * up.b
            pure.append((a, lo.strict or up.strict, c))
    return pure


def reference_sup_alpha(sys) -> Fraction:
    """sup alpha of the closed region by projecting it onto alpha.  Raises
    InfeasibleSystemError when the closure is empty, DomainError when alpha
    is unbounded above."""
    alphas = _interval_1d(eliminate_beta([replace(q, strict=False) for q in sys.inequalities]))
    if alphas is None:
        raise InfeasibleSystemError("the closed region is empty")
    _, sup = alphas
    if sup is None:
        raise DomainError("alpha is unbounded above; no finite supremum")
    return sup
