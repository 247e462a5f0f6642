"""The theta-chamber engine against the direct exact builders.

Each stage's ``fiber(theta)`` evaluates its chamber table; ``_fiber_uncached``
(``build_fiber_projection`` for pi) builds the same fiber directly.  The
direct builder of a stage reads the stages below through their ``fiber``, so
equality stage by stage, from mu upwards, gives equality of the whole stack.
The float readers (the density fiber, ``phi_minus`` and so f) must equal the
floats of the direct builds bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qpflab.atlas import audit_atlas, build_partition_atlas
from qpflab.chamber import Affine, Chamber, Probe
from qpflab.circle import OMEGA_GOLDEN, mod1, mod1_array
from qpflab.density import audit_density
from qpflab.errors import AtlasInvariantViolation, LiftAmbiguous
from qpflab.measure import MeasureFamily, build_fiber_projection, build_mu, build_pi
from qpflab.pipeline import default_pipeline, run_blowup
from qpflab.plgraph import PLGraph
from qpflab.systems import Lift, QpfSystem, rotation_number
from qpflab.transport import verify_semiconjugacy
from qpflab.weights import make_weights


@pytest.fixture(scope="module")
def stacks():
    tent_weights = make_weights("quadratic", k=4, half_width=1, epsilon=F(1, 2))
    return {
        "constant": default_pipeline(half_width=4, fiber_grid=64, vertical_grid=64),
        "tent": run_blowup(QpfSystem.translation(), PLGraph.tent(F(1, 5), F(7, 10)),
                           tent_weights, F(1, 2), fiber_grid=64, vertical_grid=64),
        "crossed": default_pipeline(half_width=4, fiber_grid=64, vertical_grid=64,
                                    crossings=2, seed=3),
    }


SWITCH = F(1931, 5650)


def switching_atlas(shift=0):
    """Three curves overlapping at 1/2 whose allocation switches at SWITCH + shift.

    The shift 1/100 - SWITCH puts the switch just past 0, inside the chamber
    that wraps across 0.
    """
    g1 = PLGraph.from_points([(F(9, 100), F(7, 10)), (F(7, 50), F(1, 2)),
                              (F(27, 50), F(1, 2)), (F(59, 100), F(3, 10))])
    gm = PLGraph.from_points([(F(21, 100), F(7, 10)), (F(13, 50), F(1, 2)),
                              (F(59, 100), F(1, 2)), (F(16, 25), F(3, 10))])
    masses = {0: F(9, 50), 1: F(1, 20), -1: F(1, 10)}
    curves = {0: PLGraph.constant(F(1, 2)), 1: g1.shift_theta(shift), -1: gm.shift_theta(shift)}
    mu = build_mu(curves, masses=masses, beta=1 - sum(masses.values()), waive_flatness=True)
    return build_partition_atlas(mu, build_pi(mu, 0), F(1, 2))


def thetas(cuts):
    """Random rationals, the thetas of the f walk, multiples of omega, the cut
    points and points next to them."""
    near = st.tuples(st.sampled_from(cuts), st.integers(6, 18), st.sampled_from((-1, 1)))
    return st.one_of(
        st.fractions(0, 1, max_denominator=10**9),
        st.floats(0, 1, exclude_max=True).map(lambda x: F(x).limit_denominator(10**15)),
        st.integers(-60, 60).map(lambda k: k * OMEGA_GOLDEN),
        st.sampled_from(cuts),
        near.map(lambda c: c[0] + c[2] * F(1, 10**c[1])))


def assert_stack_exact(pipe, theta):
    mu, pi, atlas, density = pipe.mu, pipe.projection, pipe.atlas, pipe.density
    a, b = mu.fiber(theta), mu._fiber_uncached(theta)
    assert (a.theta, a.atoms, a.t_split) == (b.theta, b.atoms, b.t_split)
    a, b = pi.fiber(theta), build_fiber_projection(mu, pi.n0, theta)
    assert a.plateaus == b.plateaus
    assert np.array_equal(a.seg_starts, b.seg_starts) and np.array_equal(a.seg_target, b.seg_target)
    a, b = atlas.fiber(theta), atlas._fiber_uncached(theta)
    assert (a.u, a.v) == (b.u, b.v)
    assert pipe.bumps.fiber(theta) == pipe.bumps._fiber_uncached(theta)
    a, b = density.fiber(theta), density._fiber_uncached(theta)
    assert a.theta == b.theta
    for name in ("s0", "knots", "hvals", "cum"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def exact_fiber_values(pipe, theta, xs):
    """TransportedMap.fiber_values from the direct builds of pi and the density."""
    tmap, nxt = pipe.tmap, theta + pipe.system.omega
    fd = pipe.density._fiber_uncached(nxt)
    p0, p1 = (float(mod1(build_fiber_projection(pipe.mu, pipe.projection.n0, th)
                         .plateau_of(c).start))
              for th, c in ((theta, tmap.curve0), (nxt, tmap.curve1)))
    return fd.quantile_from(p1, mod1_array(xs - p0) * fd.total)


def assert_floats_exact(pipe, theta):
    for c in pipe.mu.curves:
        plateau = pipe.projection.fiber(theta).plateau_of(c)
        assert pipe.tmap.phi_minus(theta, c) == float(mod1(plateau.start))
    xs = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(pipe.tmap.fiber_values(theta, xs), exact_fiber_values(pipe, theta, xs))


@pytest.mark.parametrize("curve", ["constant", "tent", "crossed"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chamber_fibers_equal_direct_builds(stacks, curve, data):
    pipe = stacks[curve]
    cuts = pipe.density.chambers.cuts or [F(0)]
    theta = data.draw(thetas(cuts))
    assert_stack_exact(pipe, theta)
    assert_stack_exact(pipe, theta + pipe.system.omega)
    assert_floats_exact(pipe, theta)


@settings(max_examples=200, deadline=None)
@given(c0=st.fractions(-3, 3, max_denominator=10**40), c1=st.fractions(-3, 3, max_denominator=10**20),
       t=st.fractions(0, 2, max_denominator=10**30), reduce=st.booleans())
def test_floats_are_float_of_the_exact_values(c0, c1, t, reduce):
    probe = Probe(F(0), F(2))
    numbers = (c0, Affine(c0, c1, probe) if c1 else c0, c1)
    exact = [x.at(t) if isinstance(x, Affine) else x for x in numbers]
    want = [float(mod1(x) if reduce else x) for x in exact]
    assert Chamber(F(0), F(2), numbers).floats(t, tuple, reduce) == want


def test_f_walk_reads_no_template_in_fractions(stacks, monkeypatch):
    pipe = stacks["crossed"]
    f_lift = Lift(pipe.f_system)
    rotation_number(f_lift, 0.0, 0.0, 8)           # builds the chamber tables
    calls = []
    at = Affine.at
    monkeypatch.setattr(Affine, "at", lambda x, t: calls.append(t) or at(x, t))
    est = rotation_number(f_lift, 0.0, 0.0, 512)
    assert calls == [] and 0 < est.value < 1


def fraction_locate(table, theta):
    """ChamberTable.locate by a bisect over the Fraction cuts alone."""
    r = mod1(F(theta))
    i = bisect_right(table.cuts, r) - 1
    if i >= 0 and table.cuts[i] == r:
        return None, r
    ch = table.chambers[i]
    return ch, (r if r > ch.a else r + 1)


def test_locate_matches_fraction_bisect(stacks):
    degree_one = build_mu({0: PLGraph((F(0),), (F(1, 3),), 1)}, masses={0: F(1, 4)},
                          beta=F(3, 4)).chambers
    for table in (degree_one, stacks["crossed"].density.chambers,
                  stacks["tent"].projection.chambers):
        assert table.cuts
        for cut in table.cuts:
            for d in (0, F(1, 10**6), F(1, 10**17), F(1, 10**30)):
                for theta in (cut - d, cut + d, cut + d + 1):
                    assert table.locate(theta) == fraction_locate(table, theta)
    assert degree_one.cuts[0] == 0


def test_chamber_cuts(stacks):
    # the constant stack is one chamber with no cut; the others cut at every real
    # kink, and elsewhere only where a curve crosses an integer or meets another
    assert stacks["constant"].density.chambers.cuts == []
    assert len(stacks["constant"].density.chambers.chambers) == 1
    for curve in ("tent", "crossed"):
        pipe = stacks[curve]
        curves = pipe.mu.curves.values()
        kinks = {t for c in curves for t in c.kinks()}
        assert kinks <= set(pipe.mu.chambers.cuts)
        for t in set(pipe.mu.chambers.cuts) - kinks:
            positions = [c.circle_value(t) for c in curves]
            assert 0 in positions or len(set(positions)) < len(positions)
        assert len(pipe.density.chambers.chambers) == len(pipe.density.chambers.cuts)


@pytest.mark.parametrize("shift", [0, F(1, 100) - SWITCH])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_allocation_switches_split_chambers(shift, data):
    atlas = switching_atlas(shift)
    extra = sorted(set(atlas.chambers.cuts) - set(atlas.mu.chambers.cuts))
    assert extra == [mod1(SWITCH + shift)]
    theta = data.draw(st.one_of(thetas(extra), thetas(atlas.chambers.cuts)))
    try:
        direct = atlas._fiber_uncached(theta)
    except LiftAmbiguous:               # an isolated crossing: no lift there either way
        with pytest.raises(LiftAmbiguous):
            atlas.fiber(theta)
        return
    fa = atlas.fiber(theta)
    assert (fa.u, fa.v) == (direct.u, direct.v)


@pytest.mark.parametrize("pivot", [0, F(1, 2), 1])
def test_certificate_reads_both_chamber_ends(pivot):
    atlas = switching_atlas()
    ch = next(c for c in atlas.chambers.chambers if not c.constant)
    atlas.audit_chamber(ch)
    at = ch.a + pivot * (ch.b - ch.a)
    # move one U arc (and its V arc) by theta - at: the fiber at `at` is unchanged
    shift = Affine(-at, F(1), Probe(ch.a, ch.b))
    n = next(iter(ch.template.u))
    u, v = dict(ch.template.u), dict(ch.template.v)
    u[n] = tuple((lo + shift, hi + shift) for lo, hi in u[n])
    v[n] = tuple((lo + shift, hi + shift) for lo, hi in v[n])
    ch.template = replace(ch.template, u=u, v=v)
    if pivot == F(1, 2):
        atlas.audit_fiber(at)
    with pytest.raises(AtlasInvariantViolation):
        atlas.audit_chamber(ch)


def test_zero_length_arc_fails_the_certificate():
    atlas = switching_atlas()
    ch = next(c for c in atlas.chambers.chambers if not c.constant)
    u, v = dict(ch.template.u), dict(ch.template.v)
    end = u[-1][-1][1]
    u[-1] += ((end, end),)
    v[-1] += ((end, end),)
    ch.template = replace(ch.template, u=u, v=v)
    with pytest.raises(AtlasInvariantViolation, match="not interior"):
        atlas.audit_chamber(ch)


def test_midpoint_on_a_crossing():
    # theta -> theta meets the constant 1/2 at theta = 1/2, the midpoint of the trial
    # turn: the equal positions there must split it, not group the atoms for good
    line, half = PLGraph((F(0),), (F(0),), 1), PLGraph.constant(F(1, 2))
    mu = build_mu({0: line, 1: half}, masses={0: F(1, 4), 1: F(1, 4)}, beta=F(1, 2),
                  waive_flatness=True)
    assert F(1, 2) in mu.chambers.cuts
    for theta in (F(1, 3), F(1, 2) - F(1, 10**9), F(1, 2) + F(1, 10**9), F(4, 5)):
        assert mu.fiber(theta).atoms == mu._fiber_uncached(theta).atoms
    with pytest.raises(LiftAmbiguous):
        mu.fiber(F(1, 2))


def test_degree_one_curve_without_kinks():
    # theta -> theta + 1/3 has no kink but crosses an integer at theta = 2/3, so the
    # trial turn from 0 records that root and 0 becomes a cut point too
    mu = build_mu({0: PLGraph((F(0),), (F(1, 3),), 1)}, masses={0: F(1, 4)}, beta=F(3, 4))
    assert mu.chambers.cuts == [0, F(2, 3)]
    for theta in (F(0), F(1, 7), F(2, 3), F(2, 3) + F(1, 10**12), F(9, 10), OMEGA_GOLDEN):
        assert mu.fiber(theta).atoms == mu._fiber_uncached(theta).atoms


def test_audit_certifies_every_chamber(stacks):
    pipe = stacks["crossed"]
    audit = audit_atlas(pipe.atlas, 64)
    assert audit.chambers == len(pipe.atlas.chambers.chambers) > 100
    assert audit.passed and audit.min_v_fraction == 0.5


def test_direct_mu_builds_do_not_grow_with_the_grid(monkeypatch):
    calls = []
    direct = MeasureFamily._fiber_uncached

    def counted(self, theta):
        calls.append(theta)
        return direct(self, theta)

    monkeypatch.setattr(MeasureFamily, "_fiber_uncached", counted)
    per_grid = {}
    for grid in (64, 512):
        calls.clear()
        plain8 = default_pipeline(half_width=8, fiber_grid=grid, vertical_grid=64)
        audit_atlas(plain8.atlas, grid)
        audit_density(plain8.density, grid, vertical=64)
        verify_semiconjugacy(plain8.tmap, plain8.mu_shifted, grid, 64)
        chambers = (len(plain8.mu.chambers.chambers)
                    + len(plain8.mu_shifted.chambers.chambers))
        assert len(calls) <= 2 * chambers
        per_grid[grid] = len(calls)
    assert per_grid[64] == per_grid[512]
