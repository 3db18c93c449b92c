from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdgraph.errors import DomainError, InfeasibleSystemError
from lcdgraph.regions import (
    BUILTIN_SYSTEMS,
    RegionSystem,
    combined_max_alpha,
    parse_inequality,
    region_max_alpha,
    region_vertices,
)
from region_reference import feasible_along, holds, reference_sup_alpha, system_holds


def test_parse_inequality():
    # stored as a*alpha + b*beta (<|<=) c: a > or >= line is negated
    for line, stored in [("3 1 <= 1", (3, 1, 1, False)),
                         ("-1 2 < 3/2", (-1, 2, Fraction(3, 2), True)),
                         ("-1 2 > 3/2", (1, -2, Fraction(-3, 2), True)),
                         ("1 0 >= 0", (-1, 0, 0, False))]:
        q = parse_inequality(line)
        assert (q.a, q.b, q.c, q.strict) == stored


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_inequality("1 2 3")
    with pytest.raises(DomainError, match="unknown comparison '=='"):
        parse_inequality("1 2 == 3")
    with pytest.raises(DomainError, match="1/0"):
        parse_inequality("1 0 <= 1/0")


def test_inequality_holds_and_closure():
    q = parse_inequality("1 0 < 1/3")
    assert holds(q, Fraction(1, 4), Fraction(0))
    assert not holds(q, Fraction(1, 3), Fraction(0))
    assert holds(replace(q, strict=False), Fraction(1, 3), Fraction(0))


def test_first_theorem_sup_alpha_is_exactly_1_14():
    res = region_max_alpha(BUILTIN_SYSTEMS["theorem1"])
    assert res.sup_alpha == Fraction(1, 14)
    assert isinstance(res.sup_alpha, Fraction)
    assert not res.attained  # strict boundary: "sup, not attained"


def test_combined_sup_alpha_is_exactly_1_6_with_7_8_witness():
    res = combined_max_alpha()
    assert res.sup_alpha == Fraction(1, 6)
    lo, hi = res.beta_interval
    assert lo <= Fraction(7, 8) <= hi
    assert not res.attained
    # moving off the supremum along (-1, +2) enters the strict region
    sys3 = BUILTIN_SYSTEMS["theorem2-case3"]
    assert feasible_along(sys3, (Fraction(1, 6), Fraction(7, 8)), (-1, 2))


def test_case_systems_individual_suprema():
    assert region_max_alpha(BUILTIN_SYSTEMS["theorem2-case1"]).sup_alpha == Fraction(1, 10)
    assert region_max_alpha(BUILTIN_SYSTEMS["theorem2-case2"]).sup_alpha == Fraction(1, 10)
    assert region_max_alpha(BUILTIN_SYSTEMS["theorem2-case3"]).sup_alpha == Fraction(1, 6)


def test_case2_strict_system_has_no_interior():
    # its beta-window degenerates to the line beta = 1 - 2*alpha, which the
    # strict side excludes
    sys2 = BUILTIN_SYSTEMS["theorem2-case2"]
    res = region_max_alpha(sys2)
    assert not res.attained
    for a_num in range(0, 11):
        a = Fraction(a_num, 30)
        for b_num in range(0, 33):
            assert not system_holds(sys2, a, Fraction(b_num, 32))


def test_alpha_box_alone():
    sys = RegionSystem.from_lines(["1 0 >= 0", "1 0 <= 1/3"])
    res = region_max_alpha(sys)
    assert res.sup_alpha == Fraction(1, 3)
    assert res.attained  # non-strict bound, beta unconstrained


def test_strict_alpha_bound_not_attained():
    sys = RegionSystem.from_lines(["1 0 < 1/3", "1 0 >= 0"])
    res = region_max_alpha(sys)
    assert res.sup_alpha == Fraction(1, 3)
    assert not res.attained


@pytest.mark.parametrize(
    "lines, interval",
    [
        (["1 0 <= 1", "0 1 > 0"], (Fraction(0), None)),  # beta > 0 only
        (["1 0 <= 1", "0 1 < 0"], (None, Fraction(0))),  # beta < 0 only
    ],
)
def test_beta_bounded_on_one_side(lines, interval):
    sys = RegionSystem.from_lines(lines)
    res = region_max_alpha(sys)
    assert res.sup_alpha == 1
    assert res.attained
    assert res.beta_interval == interval
    assert system_holds(sys, res.sup_alpha, res.witness_beta)


def test_infeasible_system():
    sys = RegionSystem.from_lines(["1 0 >= 1", "1 0 <= 0"])
    with pytest.raises(InfeasibleSystemError):
        region_max_alpha(sys)


def test_corner_free_empty_system_with_a_finite_sup():
    # parallel boundaries alpha + beta >= 1 and <= 1/2, with alpha <= 1:
    # no corner, and alpha's range has a finite sup, yet no point fits
    sys = RegionSystem.from_lines(["-2 -2 < -2", "-2 -2 > -1", "-2 0 > -2"])
    assert region_vertices(sys) == ()
    with pytest.raises(InfeasibleSystemError):
        region_max_alpha(sys)


def test_unbounded_alpha():
    sys = RegionSystem.from_lines(["1 0 >= 0"])
    with pytest.raises(DomainError):
        region_max_alpha(sys)
    # a half-plane that leaves out alpha = 0 is not empty either
    with pytest.raises(DomainError):
        region_max_alpha(RegionSystem.from_lines(["1 0 >= 1"]))


def test_unit_box_vertices():
    sys = RegionSystem.from_lines(["1 0 >= 0", "1 0 <= 1", "0 1 >= 0", "0 1 <= 1"])
    verts = region_vertices(sys)
    assert set(verts) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    }
    assert len(verts) == 4


def test_beta_elimination_uses_cross_constraints():
    # beta >= alpha and beta <= 1 - alpha force alpha <= 1/2 even though no
    # single inequality bounds alpha above
    sys = RegionSystem.from_lines(["-1 1 >= 0", "1 1 <= 1", "1 0 >= 0"])
    res = region_max_alpha(sys)
    assert res.sup_alpha == Fraction(1, 2)
    assert res.witness_beta == Fraction(1, 2)
    assert res.attained


def test_feasible_along_negative_case():
    sys = BUILTIN_SYSTEMS["theorem2-case3"]
    # moving toward larger alpha from the supremum leaves the region
    assert not feasible_along(sys, (Fraction(1, 6), Fraction(7, 8)), (1, 0))


def test_empty_system_rejected():
    with pytest.raises(DomainError):
        RegionSystem(())


def test_vertices_ccw_at_extreme_scales():
    # the corners are ordered by an exact angle key; a float angle overflows
    # at 1e400 and rounds every corner of the 1e-400 box to the centre
    big, eps, zero = Fraction(10) ** 400, Fraction(1, 10**400), Fraction(0)
    wide = RegionSystem.from_lines(["1 0 <= 1e400", "0 1 <= 1", "1 0 >= 0", "0 1 >= 0"])
    assert region_vertices(wide) == ((zero, zero), (big, zero), (big, 1), (zero, 1))
    tiny = RegionSystem.from_lines(["1 0 <= 1e-400", "0 1 <= 1e-400", "1 0 >= 0", "0 1 >= 0"])
    assert region_vertices(tiny) == ((zero, zero), (eps, zero), (eps, eps), (zero, eps))


# zero twice, so that boundaries parallel to an axis are common
_COEF = st.sampled_from([Fraction(v) for v in
                         ("-2", "-1", "-1/2", "-1/3", "0", "0", "1/3", "1/2", "1", "3/2", "2")])
_INEQ = st.builds(lambda a, b, op, c: f"{a} {b} {op} {c}",
                  _COEF, _COEF, st.sampled_from(["<", "<=", ">", ">="]), _COEF)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_INEQ, min_size=1, max_size=7))
def test_corner_sup_matches_fourier_motzkin(lines):
    sys = RegionSystem.from_lines(lines)
    try:
        want = reference_sup_alpha(sys)
    except (DomainError, InfeasibleSystemError) as exc:
        with pytest.raises(type(exc)):
            region_max_alpha(sys)
    else:
        assert region_max_alpha(sys).sup_alpha == want
