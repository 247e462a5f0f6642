from fractions import Fraction as F

import pytest

from qpflab.circle import mod1
from qpflab.errors import (BoxNotFound, EscapeTimeout, IntervalTooWide, OrbitSearchTimeout,
                           PreconditionError)
from qpflab.geometry import crosses_over, image_curve, intersection_projection, is_flat_intersection
from qpflab.plgraph import PLGraph
from qpflab.surgery import (apply_perturbation, check_escaping, ensure_crossing,
                            find_perturbation_box, flatten_to_depth, graphs_equal_off,
                            itinerary_of_interval, itinerary_of_point, validate_box,
                            verify_x_law)
from qpflab.systems import QpfSystem

R = QpfSystem.translation()
CONST = PLGraph.constant(F(1, 5))
FROZEN = QpfSystem.translation(rho=F(0))


def test_point_itinerary_constant_curve():
    it = itinerary_of_point(R, CONST, (F(1, 7), F(1, 5)), n=3, horizon=50)
    assert it.times == (0,)
    assert it.length == 0


def test_point_itinerary_needs_point_on_curve():
    with pytest.raises(PreconditionError):
        itinerary_of_point(R, CONST, (F(1, 7), F(1, 2)), 3, 50)


def test_point_itinerary_engineered_return():
    # curve with an exact flat overlap with its own image at depth 1
    base = image_curve(R, CONST, 1)
    lo, hi = F(3, 10), F(7, 20)
    seg = [(lo, base.value(lo)), (hi, base.value(hi))]
    g = CONST.splice(lo, hi, [(lo, CONST.value(lo)), (lo + F(1, 100), base.value(lo + F(1, 100))),
                              (hi - F(1, 100), base.value(hi - F(1, 100))), (hi, CONST.value(hi))])
    # points on the overlap carry the return time -1 (they lie on R^1(CONST))
    z = (lo + F(1, 50), g.circle_value(lo + F(1, 50)))
    assert mod1(F(base.circle_value(z[0])) - F(z[1])) == 0
    it = itinerary_of_point(R, g, z, n=2, horizon=50)
    assert -1 in it.times and 0 in it.times


def test_interval_itinerary_mirrors_point():
    it = itinerary_of_interval(R, CONST, (F(1, 7), F(1, 7) + F(1, 100)), n=3)
    assert it.times == (0,)


def test_escape_timeout_on_invariant_graph():
    frozen = QpfSystem.translation(rho=F(0))
    with pytest.raises(EscapeTimeout):
        itinerary_of_point(frozen, CONST, (F(1, 7), F(1, 5)), n=1, horizon=10)


@pytest.mark.parametrize("itinerary, timeout", [
    (lambda g, horizon: itinerary_of_point(FROZEN, g, (F(1, 2), F(1, 5)), 5, horizon),
     EscapeTimeout),
    (lambda g, horizon: itinerary_of_interval(FROZEN, g, (F(49, 100), F(51, 100)), 5, horizon),
     IntervalTooWide),
])
def test_return_horizon_is_exact(itinerary, timeout):
    # the curve sits at 1/5 over [2/5, 3/5] only: with rho = 0 the fiber point returns
    # exactly when theta + k*omega lands there, six times with gaps <= 5
    g = PLGraph.from_points([(F(2, 5), F(1, 5)), (F(3, 5), F(1, 5)), (F(4, 5), F(1, 2))])
    assert itinerary(g, 6).times == (-13, -8, -5, 0, 5, 8, 13)
    with pytest.raises(timeout):
        itinerary(g, 5)


def test_find_box_validates():
    box = find_perturbation_box(R, CONST, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    ok, reason = validate_box(R, CONST, box)
    assert ok, reason
    assert box.itinerary.times == (0,)


def test_find_box_resolution_floor():
    with pytest.raises(BoxNotFound):
        find_perturbation_box(R, CONST, (F(1, 7), F(1, 5)), 3, F(1, 10**10), F(1, 50))


def test_perturbation_through_point_and_support():
    box = find_perturbation_box(R, CONST, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    w = (box.theta + box.delta * F(2, 3), mod1(box.x + box.eta / 3))
    g2, rec = apply_perturbation(R, CONST, box, through_points=[w])
    assert g2.contains_point(w[0], w[1])
    assert graphs_equal_off(CONST, g2, rec.support)
    law = verify_x_law(R, CONST, g2, rec, 3)
    assert all(v["match"] for v in law.values())


def test_perturbation_trivial_itinerary_leaves_x_sets():
    box = find_perturbation_box(R, CONST, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    g2, rec = apply_perturbation(R, CONST, box)
    for k in range(1, 4):
        x_new = intersection_projection(g2, image_curve(R, g2, k))
        assert x_new.is_empty  # X_k was empty and stays empty


def test_flatten_trivial_constant():
    flat, cert = flatten_to_depth(R, CONST, 3)
    assert cert.flat and not cert.steps


def test_flatten_tent_depth2_with_oracle():
    tent = PLGraph.tent(F(1, 5), F(7, 10))
    flat, cert = flatten_to_depth(R, tent, 2)
    assert cert.flat and cert.steps
    for k in (1, 2):
        ok, proj = is_flat_intersection(flat, image_curve(R, flat, k))
        assert ok
        # the flattened set contains the original crossing abscissas
        old = intersection_projection(tent, image_curve(R, tent, k))
        new = intersection_projection(flat, image_curve(R, flat, k))
        assert new.n_components() == old.n_components()
        for lo, hi in old.pieces:
            assert new.contains(lo)
    # strict per-sweep decrease is recorded
    for s in cert.steps:
        assert s.degenerate_after < s.degenerate_before
        assert s.counts_preserved


def test_flatten_rejects_excessive_depth():
    with pytest.raises(PreconditionError):
        flatten_to_depth(R, CONST, R.max_depth)


def test_ensure_crossing_full_circle():
    g2, wit = ensure_crossing(R, CONST, (F(0), F(1)), (F(0), F(1)), depth=3)
    assert wit.verified and wit.m > 0
    assert crosses_over(g2, image_curve(R, g2, wit.m, check_depth=False), wit.arc_exact)
    for k in range(1, 4):
        ok, _ = is_flat_intersection(g2, image_curve(R, g2, k))
        assert ok


def test_ensure_crossing_thin_arcs_within_bound():
    g2, wit = ensure_crossing(R, CONST, (F(1, 10), F(2, 10)), (F(6, 10), F(7, 10)), depth=3)
    assert wit.verified and wit.m <= 10**4


def test_ensure_crossing_timeout():
    with pytest.raises(OrbitSearchTimeout):
        ensure_crossing(R, CONST, (F(1, 10), F(2, 10)), (F(6, 10), F(7, 10)), depth=3, m_max=1)


def test_escaping_cases():
    rep = check_escaping(R, CONST, 3, 10)
    assert rep.escaping and rep.max_time >= 1
    frozen = QpfSystem.translation(rho=F(0))
    rep2 = check_escaping(frozen, CONST, 2, 8)
    assert not rep2.escaping and not rep2.inconclusive
    rep3 = check_escaping(R, CONST, 3, 0)
    assert rep3.inconclusive and not rep3.escaping
