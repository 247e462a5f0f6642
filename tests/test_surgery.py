import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpflab import surgery
from qpflab.circle import mod1
from qpflab.errors import (BoxNotFound, EscapeTimeout, OrbitSearchTimeout, PreconditionError,
                           QpfLabError)
from qpflab.geometry import (OrbitIntersections, crosses_over, image_curve,
                             intersection_projection, is_flat_intersection)
from qpflab.pipeline import prepare_curve
from qpflab.plgraph import PLGraph
from qpflab.surgery import (_localize_in_triangle, _orbit_candidates, _orbit_point,
                            apply_perturbation, arcs_disjoint, ensure_crossing, find_perturbation_box,
                            flatten_to_depth, graphs_equal_off, itinerary_of_point,
                            validate_box, verify_x_law)
from qpflab.systems import MAX_DEPTH, QpfSystem

R = QpfSystem.translation()
CONST = PLGraph.constant(F(1, 5))
CONST_TABLE = OrbitIntersections(R, CONST)
FROZEN = QpfSystem.translation(rho=F(0))


def test_point_itinerary_constant_curve():
    it = itinerary_of_point(R, CONST, (F(1, 7), F(1, 5)), n=3, horizon=50)
    assert it.times == (0,)


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


def test_escape_timeout_on_invariant_graph():
    frozen = QpfSystem.translation(rho=F(0))
    with pytest.raises(EscapeTimeout):
        itinerary_of_point(frozen, CONST, (F(1, 7), F(1, 5)), n=1, horizon=10)


@pytest.mark.parametrize("itinerary, timeout", [
    (lambda g, horizon: itinerary_of_point(FROZEN, g, (F(1, 2), F(1, 5)), 5, horizon),
     EscapeTimeout),
])
def test_return_horizon_is_exact(itinerary, timeout):
    # the curve sits at 1/5 over [2/5, 3/5] only: with rho = 0 the fiber point returns
    # exactly when theta + k*omega lands there, six times with gaps <= 5
    g = PLGraph.from_points([(F(2, 5), F(1, 5)), (F(3, 5), F(1, 5)), (F(4, 5), F(1, 2))])
    assert itinerary(g, 6).times == (-13, -8, -5, 0, 5, 8, 13)
    with pytest.raises(timeout):
        itinerary(g, 5)


def test_find_box_validates():
    box = find_perturbation_box(CONST_TABLE, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    ok, reason = validate_box(CONST_TABLE, box)
    assert ok, reason
    assert box.itinerary.times == (0,)


def test_find_box_resolution_floor():
    with pytest.raises(BoxNotFound):
        find_perturbation_box(CONST_TABLE, (F(1, 7), F(1, 5)), 3, F(1, 10**10), F(1, 50))


def test_perturbation_through_point_and_support():
    box = find_perturbation_box(CONST_TABLE, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    w = (box.theta + box.delta * F(2, 3), mod1(box.x + box.eta / 3))
    g2, rec = apply_perturbation(CONST_TABLE, box, through_points=[w])
    assert g2.contains_point(w[0], w[1])
    assert graphs_equal_off(CONST, g2, rec.support)
    law = verify_x_law(R, CONST, g2, rec, 3)
    assert all(v["match"] for v in law.values())


def test_perturbation_trivial_itinerary_leaves_x_sets():
    box = find_perturbation_box(CONST_TABLE, (F(1, 7), F(1, 5)), 3, F(1, 50), F(1, 50))
    g2, rec = apply_perturbation(CONST_TABLE, box)
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


class _FromScratch(OrbitIntersections):
    """Reference table: every read recomputes its curve images and intersection directly."""

    def image(self, k):
        return image_curve(self.system, self.graph, k)

    def x(self, k):
        return intersection_projection(self.graph, self.image(k))

    def between(self, i, j):
        return intersection_projection(self.image(i), self.image(j))


def _every_m(system, z, tri, m_max):
    """Reference crossing search: every m, unscreened."""
    return range(1, m_max + 1)


@pytest.fixture
def reference_search(monkeypatch):
    """Switch the surgery layer to the from-scratch table and the exhaustive m loop."""

    def switch():
        monkeypatch.setattr(surgery, "OrbitIntersections", _FromScratch)
        monkeypatch.setattr(surgery, "_orbit_candidates", _every_m)

    return switch


@pytest.mark.parametrize("curve, depth", [(CONST, 3), (PLGraph.tent(F(1, 5), F(7, 10)), 2),
                                          (PLGraph.tent(F(1, 5), F(7, 10)), 3)])
def test_flatten_certificate_matches_from_scratch(curve, depth, reference_search):
    flat, cert = flatten_to_depth(R, curve, depth)
    assert cert.flat == (depth > 0)
    for k in range(1, depth + 1):
        direct = intersection_projection(flat, image_curve(R, flat, k))
        assert cert.components[k] == [(float(lo), float(hi)) for lo, hi in direct.pieces]
        assert not direct.degenerate_components()
    reference_search()
    ref_flat, ref_cert = flatten_to_depth(R, curve, depth)
    assert flat == ref_flat
    assert cert.to_jsonable() == ref_cert.to_jsonable()
    assert bool(cert.steps) == (curve is not CONST)


@pytest.mark.parametrize("arc_i, arc_j", [
    ((F(1, 10), F(2, 10)), (F(6, 10), F(7, 10))),
    ((F(0), F(1)), (F(0), F(1))),
    ((F(3, 10), F(1, 2)), (F(1, 20), F(3, 10))),
    ((F(7, 10), F(11, 10)), (F(1, 3), F(1, 2))),
])
def test_screened_crossing_search_matches_exhaustive(arc_i, arc_j, reference_search):
    got = ensure_crossing(R, CONST, arc_i, arc_j, depth=3)
    reference_search()
    assert got == ensure_crossing(R, CONST, arc_i, arc_j, depth=3)


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_screened_prepare_curve_matches_exhaustive(seed, reference_search):
    got = prepare_curve(R, CONST, 3, crossings=2, seed=seed)
    reference_search()
    ref = prepare_curve(R, CONST, 3, crossings=2, seed=seed)
    assert got[0] == ref[0]
    assert got[1].to_jsonable() == ref[1].to_jsonable()
    assert got[2] == ref[2]


def _check_orbit_screen(lift, m, m_max, beyond):
    z = (F(1, 7), F(1, 5))
    theta, x = _orbit_point(R, z[0], z[1], m)
    # apex 1e-14 left of R^m(z): the point is inside, far closer to the box
    # edge than the float error of theta0 + m*omega could be trusted with
    apex = (theta - F(1, 10**14) + lift[0], x + lift[1])
    tri = (apex, (apex[0] + F(1, 10), apex[1] - F(1, 20)), (apex[0] + F(1, 10), apex[1] + F(1, 20)))
    # the exact test on every k whose float point is within 1e-6 of the triangle's
    # bounding box, far above the float error: no k with its point inside is left out
    ks = np.arange(1, m_max + 1)
    near = np.ones(m_max, dtype=bool)
    for axis, step in ((0, R.omega), (1, R.rho)):
        lo = min(float(p[axis]) for p in tri)
        width = max(float(p[axis]) for p in tri) - lo
        near &= np.mod(float(z[axis]) + ks * float(step) - lo + 1e-6, 1.0) <= width + 2e-6
    exact = [k for k in ks[near].tolist()
             if _localize_in_triangle(_orbit_point(R, z[0], z[1], k), tri) is not None]
    kept = list(_orbit_candidates(R, z, tri, m_max))
    assert m in exact
    assert set(exact) <= set(kept)
    assert kept == sorted(kept) and len(kept) < m_max // 10
    # beyond the bounding box, within the margin (m_max + 4) * 2^-48 but above
    # the float error (3m + 10) * 2^-53: kept as well
    outside = ((theta + beyond + lift[0], x + lift[1]),) + tri[1:]
    assert _localize_in_triangle((theta, x), outside) is None
    assert m in _orbit_candidates(R, z, outside, m_max)


@pytest.mark.parametrize("lift", [(0, 0), (1, -2)])
def test_orbit_screen_keeps_points_within_its_margin(lift):
    # margin 3.6e-12 at m_max = 1000
    _check_orbit_screen(lift, 777, 1000, F(1, 10**12))


def test_orbit_screen_keeps_a_point_past_its_first_block():
    # m in the second block of 2^14 orbit times; margin 1.2e-10 at m_max = 2^15,
    # float error under 5.8e-12 at m = 2^14 + 777
    block = surgery._SCREEN_BLOCK
    _check_orbit_screen((1, -2), block + 777, 2 * block, F(5, 10**11))


# (N, crossing seed) -> the m of both crossings prepare_curve certifies at depth 2N+1
CROSSINGS = {
    (4, 0): [2687, 2209], (4, 1): [746, 61321], (4, 2): [8259, 24835],
    (4, 3): [886, 1055], (4, 4): [2448, 2110], (4, 5): [309, 64037],
    (4, 6): [43859, 1253], (4, 7): [717, 35740],
    (5, 3): [58255, 31631], (6, 3): [59619, 36655], (7, 3): [59619, 36655],
    (8, 3): [2716, 12467], (16, 3): [95219, 15661],
}


@pytest.mark.parametrize("n, seed", sorted(CROSSINGS))
def test_crossing_seeds_cross_at_every_depth(n, seed):
    cur, cert, witnesses = prepare_curve(R, CONST, 2 * n + 1, crossings=2, seed=seed)
    assert cert.flat
    assert [w.m for w in witnesses] == CROSSINGS[n, seed]
    for w in witnesses:
        assert w.verified
        assert crosses_over(cur, image_curve(R, cur, w.m, check_depth=False), w.arc_exact)


def _crossing_arc(draw):
    """An arc as prepare_curve draws one: width 0.15-0.3, endpoints on the 10^-6 grid."""
    lo = draw(st.integers(0, 10**6 - 1))
    return F(lo, 10**6), F(lo + draw(st.integers(150000, 300000)), 10**6)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data(), depth=st.sampled_from([3, 5, 9]))
def test_random_crossing_arcs_cross_or_raise(data, depth):
    arc_i, arc_j = _crossing_arc(data.draw), _crossing_arc(data.draw)
    try:
        graph, wit = ensure_crossing(R, CONST, arc_i, arc_j, depth)
    except QpfLabError:
        return
    assert 0 < wit.m <= surgery._CROSSING_M_MAX and wit.verified
    assert crosses_over(graph, image_curve(R, graph, wit.m, check_depth=False), wit.arc_exact)


def test_crossing_search_timeout_names_arcs_and_budget(monkeypatch):
    # N = 4 (depth 9), two crossings, seed 2: the second crossing needs m = 24835
    monkeypatch.setattr(surgery, "_CROSSING_M_MAX", 10**4)
    with pytest.raises(OrbitSearchTimeout) as err:
        prepare_curve(R, CONST, 9, crossings=2, seed=2)
    msg = str(err.value)
    assert "m_max=10000" in msg and "I=[" in msg and "J=[" in msg
    width, height, screened, inside = re.search(
        r"J triangle (\S+) x (\S+) \(theta-width x x-height\).*: (\d+)/(\d+)$", msg).groups()
    assert 0 < float(width) * float(height) and int(screened) >= int(inside)


def test_flatten_rejects_excessive_depth():
    with pytest.raises(PreconditionError):
        flatten_to_depth(R, CONST, MAX_DEPTH)


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


def test_ensure_crossing_timeout(monkeypatch):
    monkeypatch.setattr(surgery, "_CROSSING_M_MAX", 1)
    with pytest.raises(OrbitSearchTimeout, match="m_max=1 "):
        ensure_crossing(R, CONST, (F(1, 10), F(2, 10)), (F(6, 10), F(7, 10)), depth=3)


def pairwise_disjoint(arcs) -> bool:
    """The oracle: no arc starts inside another, tested pair by pair on the circle."""
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            d = mod1(arcs[j][0] - arcs[i][0])
            if d < arcs[i][1] - arcs[i][0] or 1 - d < arcs[j][1] - arcs[j][0]:
                return False
    return True


@st.composite
def circle_arcs(draw):
    """Closed arcs of positive length on a coarse grid, so that they wrap, touch and coincide."""
    den = draw(st.sampled_from([4, 6, 12, 60]))
    arcs = []
    for _ in range(draw(st.integers(1, 6))):
        if arcs and draw(st.booleans()):
            lo = draw(st.sampled_from([mod1(arcs[-1][1]), arcs[-1][0]]))    # touch or coincide
        else:
            lo = F(draw(st.integers(0, den - 1)), den)
        arcs.append((lo, lo + F(draw(st.integers(1, den - 1)), den)))
    return arcs


@settings(max_examples=300, deadline=None)
@given(arcs=circle_arcs())
@example(arcs=[(F(0), F(1, 2)), (F(1, 2), F(1))])                # touching, covering the circle
@example(arcs=[(F(3, 4), F(5, 4)), (F(1, 4), F(3, 4))])          # touching across 0
@example(arcs=[(F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))])          # coinciding
@example(arcs=[(F(5, 6), F(7, 6)), (F(1, 12), F(1, 6))])         # inside a wrapping arc
def test_arcs_disjoint_is_the_pairwise_test(arcs):
    assert arcs_disjoint(arcs) == pairwise_disjoint(arcs)
