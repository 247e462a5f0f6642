from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qpflab.circle import mod1
from qpflab.errors import PreconditionError
from qpflab.geometry import (OrbitIntersections, crosses_over, image_curve,
                             intersection_projection, is_flat_intersection)
from qpflab.plgraph import PLGraph
from qpflab.sl2 import Cocycle, cocycle_qpf
from qpflab.systems import MAX_DEPTH, Lift, QpfSystem, _orbit


def test_image_constant_translation():
    system = QpfSystem.translation(rho=F(1, 4))
    g = PLGraph.constant(F(1, 5))
    img = image_curve(system, g, 3)
    assert img.circle_value(F(1, 3)) == mod1(F(1, 5) + F(3, 4))
    assert image_curve(system, g, 0) is g


def test_image_rejects_deep():
    system = QpfSystem.translation()
    with pytest.raises(PreconditionError):
        image_curve(system, PLGraph.constant(F(0)), MAX_DEPTH + 1)


def test_image_refuses_non_affine_base():
    harper = cocycle_qpf(Cocycle.harper(0.0, 2.0))
    with pytest.raises(PreconditionError):
        image_curve(harper, PLGraph.constant(F(1, 5)), 1)


def test_image_skew_pointwise_oracle():
    phi = PLGraph.from_points([(0, F(3, 10)), (F(1, 2), F(4, 10))])
    system = QpfSystem.skew(phi)
    tent = PLGraph.tent(F(2, 5), F(1, 5))
    img = image_curve(system, tent, 2)
    lift = Lift(system)
    for i in range(257):
        theta = F(i, 257)
        x0 = tent.circle_value(theta - 2 * system.omega)
        expected = _orbit(lift, theta - 2 * system.omega, [x0], 2)[0][-1]
        assert mod1(F(expected) - img.circle_value(theta)) == 0


def test_intersection_constants():
    a, b = PLGraph.constant(F(1, 5)), PLGraph.constant(F(7, 10))
    assert intersection_projection(a, b).is_empty
    assert intersection_projection(a, a).is_full


def test_intersection_tent_crossings():
    t = PLGraph.tent(F(2, 5), F(1, 5))
    x = intersection_projection(PLGraph.constant(F(1, 2)), t)
    assert [p for p in x.pieces] == [(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))]
    flat, proj = is_flat_intersection(PLGraph.constant(F(1, 2)), t)
    assert not flat and proj.n_components() == 2


def test_flatness_cases():
    a, b = PLGraph.constant(F(1, 5)), PLGraph.constant(F(7, 10))
    flat, proj = is_flat_intersection(a, b)
    assert flat and proj.is_empty  # empty counts as flat (documented choice)
    g1 = PLGraph.constant(F(1, 2))
    g2 = PLGraph.from_points([(0, F(3, 10)), (F(1, 10), F(1, 2)), (F(2, 10), F(1, 2)),
                              (F(11, 20), F(3, 10))])
    flat, proj = is_flat_intersection(g1, g2)
    assert flat and proj.pieces == ((F(1, 10), F(2, 10)),)


def test_crossing_predicate():
    c = PLGraph.constant(F(1, 2))
    t = PLGraph.tent(F(2, 5), F(1, 5))
    assert crosses_over(c, t, (F(1, 10), F(9, 10)))
    assert not crosses_over(c, PLGraph.constant(F(3, 4)), (F(0), F(1)))
    tangent = PLGraph.tent(F(3, 10), F(1, 5))  # touches 1/2 at the peak only
    assert not crosses_over(c, tangent, (F(1, 10), F(9, 10)))


def test_crossing_needs_interior_component():
    c = PLGraph.constant(F(1, 2))
    t = PLGraph.tent(F(2, 5), F(1, 5))
    # the crossing abscissa 1/4 sits on the arc boundary: not certified
    assert not crosses_over(c, t, (F(1, 4), F(1, 2)))


def _pl_curves(degrees=(0, 1)):
    """Tent and PL curves with small rational breakpoints; repeated values make flat runs."""
    values = st.fractions(-1, 2, max_denominator=12)
    tent = st.builds(PLGraph.tent, values, st.fractions(-1, 1, max_denominator=12),
                     st.fractions(1, 11, max_denominator=12).map(lambda p: p / 12))
    pl = st.builds(
        lambda pts, deg: PLGraph.from_points(pts, degree=deg),
        st.dictionaries(st.fractions(0, 1, max_denominator=16).filter(lambda t: t < 1),
                        values, min_size=1, max_size=5).map(lambda d: sorted(d.items())),
        st.sampled_from(degrees))
    return st.one_of(tent, pl)


@st.composite
def _bases(draw):
    omega = draw(st.fractions(0, 1, max_denominator=60).filter(lambda w: 0 < w < 1))
    if draw(st.booleans()):
        rho = draw(st.one_of(st.just(F(0)), st.fractions(0, 1, max_denominator=20)))
        return QpfSystem.translation(rho=rho, omega=omega)
    return QpfSystem.skew(draw(_pl_curves(degrees=(0,))), omega=omega)


@settings(max_examples=120, deadline=None)
@given(system=_bases(), curve=_pl_curves(), i=st.integers(-3, 3), j=st.integers(-3, 3))
@example(system=QpfSystem.translation(rho=F(0), omega=F(1, 10)),        # flat overlaps
         curve=PLGraph.from_points([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]), i=-1, j=2)
def test_orbit_table_between_matches_direct_intersection(system, curve, i, j):
    if i == j:
        return
    table = OrbitIntersections(system, curve)
    direct = intersection_projection(image_curve(system, curve, i), image_curve(system, curve, j))
    assert table.between(i, j) == direct
    assert table.between(j, i) == direct
