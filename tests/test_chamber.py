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
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qpflab import chamber, transport
from qpflab.atlas import PartitionAtlas, audit_atlas
from qpflab.chamber import Affine, Chamber, Probe, class_thetas, grid_classes, grid_pass
from qpflab.circle import OMEGA_GOLDEN, mod1, mod1_array
from qpflab.density import audit_density
from qpflab.errors import (AtlasInvariantViolation, DensityNonpositive, InvariantViolation,
                           LiftAmbiguous)
from qpflab.measure import (MeasureFamily, build_fiber_projection, build_mu,
                            build_pi, quantile_table)
from qpflab.pipeline import default_pipeline, run_blowup
from qpflab.plgraph import PLGraph
from qpflab.systems import Lift, QpfSystem, rotation_number
from qpflab.transport import (TransportedMap, circ_dist_array, pushed, verify_nonminimality,
                              verify_semiconjugacy)
from qpflab.weights import make_weights


@pytest.fixture(scope="module")
def stacks():
    tent_weights = make_weights(k=4, half_width=1, epsilon=F(1, 2))
    skew_weights = make_weights(k=4, half_width=2, epsilon=F(1, 2))
    return {
        "constant": default_pipeline(half_width=4),
        "tent": run_blowup(QpfSystem.translation(), PLGraph.tent(F(1, 5), F(7, 10)),
                           tent_weights),
        "crossed": default_pipeline(half_width=4, crossings=2, seed=3),
        "skew": run_blowup(QpfSystem.skew(PLGraph.from_points([(0, F(3, 10)), (F(1, 2), F(2, 5))])),
                           PLGraph.constant(F(1, 5)), skew_weights),
    }


def shifted_window(pipe):
    """R_* mu as the measure of the image curves: Gamma_m, m in [-N+1, N+1], carries a_(m-1).

    R maps Gamma_(m-1) onto Gamma_m, so this is the push-forward of mu by R,
    built from the curves alone: the reference for transport.pushed.
    """
    w, n = pipe.weights, pipe.weights.half_width
    window = range(-n + 1, n + 2)
    return build_mu({m: pipe.family[m] for m in window},
                    masses={m: w.a(m - 1) for m in window}, beta=w.beta)


@pytest.fixture(scope="module")
def shifted(stacks):
    return {name: shifted_window(pipe) for name, pipe in stacks.items()}


SWITCH = F(1931, 5650)


def switching_atlas(shift=0):
    """Three curves overlapping at 1/2 whose allocation switches at SWITCH + shift.

    The shift 1/100 - SWITCH puts the switch just past the cut at 0.
    """
    g1 = PLGraph.from_points([(F(9, 100), F(7, 10)), (F(7, 50), F(1, 2)),
                              (F(27, 50), F(1, 2)), (F(59, 100), F(3, 10))])
    gm = PLGraph.from_points([(F(21, 100), F(7, 10)), (F(13, 50), F(1, 2)),
                              (F(59, 100), F(1, 2)), (F(16, 25), F(3, 10))])
    masses = {0: F(9, 50), 1: F(1, 20), -1: F(1, 10)}
    curves = {0: PLGraph.constant(F(1, 2)), 1: g1.shift_theta(shift), -1: gm.shift_theta(shift)}
    mu = build_mu(curves, masses=masses, beta=1 - sum(masses.values()), waive_flatness=True)
    return PartitionAtlas(build_pi(mu), F(1, 2))


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
    assert (a.atoms, a.t_split) == (b.atoms, b.t_split)
    a, b = pi.fiber(theta), build_fiber_projection(mu, theta)
    assert a.plateaus == b.plateaus
    assert np.array_equal(a.seg_starts, b.seg_starts) and np.array_equal(a.seg_target, b.seg_target)
    a, b = atlas.fiber(theta), atlas._fiber_uncached(theta)
    assert (a.u, a.v) == (b.u, b.v)
    a, b = density.fiber(theta), density._fiber_uncached(theta)
    for name in ("s0", "knots", "hvals", "cum"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def exact_fiber_values(pipe, theta, xs):
    """TransportedMap.fiber_values from the direct builds of pi and the density."""
    nxt = theta + pipe.system.omega
    fd = pipe.density._fiber_uncached(nxt)
    p0, p1 = (float(mod1(build_fiber_projection(pipe.mu, th).plateau_of(c).start))
              for th, c in ((theta, 0), (nxt, 1)))
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
    with Probe(F(0), F(2)):
        numbers = (c0, Affine(c0, c1) if c1 else c0, c1)
        ch = Chamber(F(0), F(2), numbers)
    exact = [x.at(t) if isinstance(x, Affine) else x for x in numbers]
    want = [float(mod1(x) if reduce else x) for x in exact]
    assert ch.floats(t, tuple, reduce) == want


def exact_sign(a, b, c0, c1):
    """Probe.sign by the exact rule alone: the root if a < root < b, the sign at the midpoint."""
    root = -c0 / c1
    v = c0 + c1 * (a + b) / 2
    return (v > 0) - (v < 0), ({root} if a < root < b else set())


@st.composite
def chamber_differences(draw):
    """(a, b, x, y, c0, c1): a chamber and two values whose difference x - y is
    c0 + c1*theta, its root anywhere, on an end, on the midpoint or within 1e-15
    of an end; y is 0, a constant or an Affine."""
    frac = st.fractions(0, 1, max_denominator=10**40)
    a = draw(frac)
    width = draw(st.one_of(frac, frac.map(lambda w: w / 10**20)).filter(bool))
    b = a + width
    c1 = draw(st.fractions(-10**6, 10**6, max_denominator=10**40).filter(bool))
    near = draw(st.fractions(-1, 1, max_denominator=10**40)) / 10**15
    root = draw(st.one_of(st.fractions(-1, 3, max_denominator=10**40),
                          st.sampled_from((a, b, (a + b) / 2, a + near, b + near))))
    c0 = -c1 * root
    y0, y1 = (draw(st.one_of(st.just(F(0)), st.fractions(-10**3, 10**3, max_denominator=10**40)))
              for _ in range(2))
    y = chamber.affine(y0, y1) if y0 or y1 else 0
    return a, b, chamber.affine(c0 + y0, c1 + y1), y, c0, c1


@settings(max_examples=400, deadline=None)
@given(chamber_differences())
@example((F(1), F(2), Affine(F(-3, 2), F(501)), Affine(F(0), F(500)), F(-3, 2), F(1)))
def test_sign_screen_agrees_with_the_exact_rule(case):
    a, b, x, y, c0, c1 = case
    probe = Probe(a, b)
    assert (probe.sign(x, y), probe.roots) == exact_sign(a, b, c0, c1)


def test_sign_decides_clear_differences_in_floats(monkeypatch):
    for name in ("at", "__sub__", "__rsub__"):     # no exact difference is ever formed
        monkeypatch.setattr(Affine, name, None)
    probe = Probe(F(1, 3), F(2, 3))
    assert probe.sign(Affine(F(1, 10**9), F(1))) == 1
    assert probe.sign(Affine(F(2, 3) + F(1, 10**9), F(-1))) == 1
    assert probe.sign(Affine(F(-1), F(1, 7))) == -1
    assert probe.sign(Affine(F(1), F(1)), Affine(F(-1), F(2))) == 1
    assert probe.sign(F(1, 2), Affine(F(0), F(2))) == -1
    assert probe.roots == set()


def test_tables_cut_at_zero_and_tile_the_circle(stacks):
    pipe = stacks["crossed"]
    tables = [pipe.mu, pipe.projection, pipe.atlas, pipe.density]
    chambers = [len(stage.chambers.chambers) for stage in tables]
    assert chambers == [chambers[-1]] * 4 and chambers[0] > 100
    for shift in (0, F(1, 100) - SWITCH):
        atlas = switching_atlas(shift)
        tables += [atlas.mu, atlas.projection, atlas]
    for stage in tables:
        table = stage.chambers
        assert table.cuts[0] == 0
        assert [(ch.a, ch.b) for ch in table.chambers] == list(zip(table.cuts, table.cuts[1:] + [1]))


def collinear_mu():
    """A degree-one curve whose first breakpoint, 1/4, is no kink, and a constant curve.

    The chamber from the cut at 0 to the kink at 1/2 has its midpoint on that
    collinear breakpoint.
    """
    turn = PLGraph.from_points([(F(1, 4), F(11, 160)), (F(1, 2), F(1, 10)), (F(9, 10), F(41, 40))],
                               degree=1)
    return build_mu({0: PLGraph.constant(F(1, 2)), 1: turn}, masses={0: F(1, 4), 1: F(1, 4)},
                    beta=F(1, 2), waive_flatness=True)


@pytest.mark.parametrize("curve", ["tent", "crossed", "collinear"])
def test_template_lines_are_the_lines_through_the_chamber_ends(stacks, curve, monkeypatch):
    mu = collinear_mu() if curve == "collinear" else replace(stacks[curve].mu)
    values = []
    value = PLGraph.value
    monkeypatch.setattr(PLGraph, "value", lambda g, t: values.append(t) or value(g, t))
    table = mu.chambers
    assert values == []
    monkeypatch.undo()
    refs = [(ch.a + ch.b) / 2 for ch in table.chambers]
    for ch, ref in zip(table.chambers, refs):
        for n, c in mu.curves.items():
            va, vb = c.value(ch.a), c.value(ch.b)
            slope = (vb - va) / (ch.b - ch.a)
            assert mu.lines[n].at(ref) == (va - slope * ch.a, slope)
        assert mu.fiber(ref).atoms == mu._fiber_uncached(ref).atoms
    if curve == "collinear":
        assert F(1, 4) in refs and F(1, 4) not in mu.curves[1].kinks()


def test_f_walk_reads_no_template_in_fractions(stacks, monkeypatch):
    pipe = stacks["crossed"]
    f_lift = Lift(pipe.tmap.as_system())
    rotation_number(f_lift, 0.0, 0.0, 8)           # builds the chamber tables
    calls = []
    at = Affine.at
    monkeypatch.setattr(Affine, "at", lambda x, t: calls.append(t) or at(x, t))
    est = rotation_number(f_lift, 0.0, 0.0, 512)
    assert calls == [] and 0 < est.value < 1


def fraction_locate(table, theta):
    """ChamberTable.locate by a bisect over the Fraction cuts alone: chamber ends, theta mod 1."""
    r = mod1(F(theta))
    i = bisect_right(table.cuts, r) - 1
    if table.cuts[i] == r:
        return (r, r), r
    ch = table.chambers[i]
    return (ch.a, ch.b), r


def test_locate_matches_fraction_bisect(stacks):
    degree_one = build_mu({0: PLGraph((F(0),), (F(1, 3),), 1)}, masses={0: F(1, 4)},
                          beta=F(3, 4)).chambers
    for table in (degree_one, stacks["crossed"].density.chambers,
                  stacks["tent"].projection.chambers):
        assert table.cuts
        for cut in table.cuts:
            for d in (0, F(1, 10**6), F(1, 10**17), F(1, 10**30)):
                for theta in (cut - d, cut + d, cut + d + 1):
                    ch, r = table.locate(theta)
                    assert ((ch.a, ch.b), r) == fraction_locate(table, theta)
            # a cut locates its one-point chamber, built once from the direct build
            ch, _ = table.locate(cut)
            assert ch is table.locate(cut + 1)[0] and ch.fixed is ch.template and ch.constant
    assert degree_one.cuts[0] == 0


def three_pass_knots(density, fp, fb):
    """DensityField._knots hashing each knot three times: the reference for the one-pass build."""
    w = density.weights
    s0 = fp.start
    pieces = []
    for m in density.bumps.indices():
        coef = (w.a(m) - w.a(m - 1)) / fb[m].integral
        for comp in fb[m].knots:
            for (u, g) in comp:
                pieces.append((u, 1 - coef * g))
    val_map = {s0 + mod1(u - s0): h for u, h in pieces}
    knots = sorted({s0, s0 + 1, *val_map})
    return tuple(knots), tuple(val_map.get(u, F(1)) for u in knots)


@pytest.mark.parametrize("curve", ["constant", "tent", "crossed"])
def test_density_knots_equal_three_pass_build(stacks, curve):
    density = stacks[curve].density
    atlas, pi, bumps = density.atlas, density.atlas.projection, density.bumps
    for ch in density.chambers.chambers:
        with Probe(ch.a, ch.b) as probe:
            fp = pi.chambers.template_on(probe)
            fb = bumps._bumps(None, atlas.chambers.template_on(probe))
            assert density._knots(fp, fb) == three_pass_knots(density, fp, fb) == ch.template
            assert probe.roots == set()
    for theta in density.chambers.cuts or [F(1, 3)]:     # the direct builds, on the cuts
        fp, fb = pi.fiber(theta), bumps._fiber_uncached(theta)
        assert density._knots(fp, fb) == three_pass_knots(density, fp, fb)


def test_chamber_cuts(stacks):
    # the constant stack is one chamber with no cut; the others cut at 0, at every
    # real kink, and elsewhere only where a curve crosses an integer or meets another
    assert stacks["constant"].density.chambers.cuts == []
    assert len(stacks["constant"].density.chambers.chambers) == 1
    for curve in ("tent", "crossed"):
        pipe = stacks[curve]
        curves = pipe.mu.curves.values()
        kinks = {t for c in curves for t in c.kinks()}
        assert kinks <= set(pipe.mu.chambers.cuts)
        for t in set(pipe.mu.chambers.cuts) - kinks - {0}:
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
    with Probe(ch.a, ch.b):
        shift = Affine(-at, F(1))
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
    # trial chamber (0, 1) records that root, and a table with a cut has one at 0
    mu = build_mu({0: PLGraph((F(0),), (F(1, 3),), 1)}, masses={0: F(1, 4)}, beta=F(3, 4))
    assert mu.chambers.cuts == [0, F(2, 3)]
    for theta in (F(0), F(1, 7), F(2, 3), F(2, 3) + F(1, 10**12), F(9, 10), OMEGA_GOLDEN):
        assert mu.fiber(theta).atoms == mu._fiber_uncached(theta).atoms


def test_audit_certifies_every_chamber(stacks):
    pipe = stacks["crossed"]
    audit = audit_atlas(pipe.atlas, 64)
    assert audit.chambers == len(pipe.atlas.chambers.chambers) > 100
    assert audit.min_v_fraction == 0.5


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
        plain8 = default_pipeline(half_width=8)
        audit_atlas(plain8.atlas, grid)
        audit_density(plain8.density, grid, vertical=64)
        verify_semiconjugacy(plain8.tmap, grid, 64)
        assert len(calls) <= len(plain8.mu.chambers.cuts)
        per_grid[grid] = len(calls)
    assert per_grid[64] == per_grid[512]


def test_audits_build_mu_once_per_cut(monkeypatch):
    # a table binds its direct builder when it is built, so the patch comes first
    calls = []
    direct = MeasureFamily._fiber_uncached
    monkeypatch.setattr(MeasureFamily, "_fiber_uncached",
                        lambda self, theta: calls.append(theta) or direct(self, theta))
    pipe = default_pipeline(half_width=4, crossings=2, seed=3)
    audit_atlas(pipe.atlas, 64)
    verify_nonminimality(pipe.tmap, grid=64)
    verify_semiconjugacy(pipe.tmap, 64, 64)
    cuts = pipe.mu.chambers.cuts
    assert len(cuts) > 100
    assert len(calls) == len(set(calls)) <= len(cuts) and set(calls) <= set(cuts)


def per_fiber_audits(pipe, image_mu, grid, vertical):
    """The grid loops of the atlas, density and semiconjugacy audits, fiber by fiber.

    R_* mu is read from image_mu, the measure of the image curves.
    """
    atlas, density, pi, tmap = pipe.atlas, pipe.density, pipe.projection, pipe.tmap
    max_components = {n: 0 for n in atlas.order}
    min_v, min_h, worst = 1.0, 1.0, 0.0
    xs = np.arange(vertical) / vertical
    res, shifted = np.empty(grid), 0.0
    for g in range(grid):
        theta = F(g, grid)
        nxt = theta + pipe.system.omega
        fa, fd = atlas.fiber(theta), density.fiber(theta)
        for n in atlas.order:
            max_components[n] = max(max_components[n], fa.components(n))
            min_v = min(min_v, float(fa.v_width(n) / pipe.mu.masses[n]))
        min_h = min(min_h, fd.min_h)
        for m in density.bumps.indices():
            arcs = np.array([[float(lo), float(hi)] for lo, hi in fa.u[m]])
            clo, chi = (np.interp(fd._unroll(arcs[:, i]), fd.knots, fd.cum) for i in (0, 1))
            layer = float(np.sum(np.mod(chi - clo, fd.total)))
            worst = max(worst, abs(layer - float(pipe.weights.a(m - 1))))
        fvals = tmap.fiber_values(theta, xs)
        rhs = pipe.system.circle_values(theta, pi.fiber(theta).map_array(xs))
        res[g] = float(np.max(circ_dist_array(pi.fiber(nxt).map_array(fvals), rhs)))
        if g % max(1, grid // 64) == 0:
            quant = quantile_table(image_mu.fiber(nxt), pipe.mu.curves[1].circle_value(nxt), F(0))
            fd = density.fiber(nxt)
            masses = fd.mass_from(tmap.phi_minus(nxt, 1), fvals) / fd.total
            shifted = max(shifted, float(np.max(circ_dist_array(quant.map_array(masses), rhs))))
    return max_components, min_v, min_h, worst, res, shifted


@pytest.mark.parametrize("curve", ["constant", "crossed"])
def test_grid_classes_give_the_per_fiber_results(stacks, shifted, curve):
    # 200 is no power of two and the stride of the R_* mu check is 3, so neither the
    # subsample nor the chamber ends line up with the grid
    pipe, grid, vertical = stacks[curve], 200, 64
    max_components, min_v, min_h, worst, res, shifted_res = per_fiber_audits(
        pipe, shifted[curve], grid, vertical)
    atlas = audit_atlas(pipe.atlas, grid)
    density = audit_density(pipe.density, grid, vertical=vertical)
    report = verify_semiconjugacy(pipe.tmap, grid, vertical)
    assert (atlas.max_components, atlas.min_v_fraction) == (max_components, min_v)
    assert (density["min_h"], density["worst_layer_defect"]) == (min_h, worst)
    assert np.array_equal(report.residual_per_fiber, res)
    assert report.shifted_residual == shifted_res
    assert report.tv_defect == max(transport._tv_at(pipe.tmap, F(2 * s + 1, 16)) for s in range(8))


@pytest.mark.parametrize("curve", ["constant", "tent", "crossed", "skew"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pushed_mu_is_the_measure_of_the_image_curves(stacks, shifted, curve, data):
    # at cuts, at grid points and at random theta: same positions, same masses
    pipe = stacks[curve]
    cuts = pipe.mu.chambers.cuts or [F(0)]
    theta = data.draw(st.one_of(thetas(cuts), st.integers(0, 63).map(lambda g: F(g, 64))))
    got = pushed(pipe.mu.fiber(theta), pipe.system.displacement(theta))
    want = shifted[curve].fiber(theta + pipe.system.omega)
    assert [(a.position, a.mass) for a in got.atoms] == [(a.position, a.mass) for a in want.atoms]
    assert got.beta == want.beta


def test_every_subsampled_fiber_runs_the_shifted_check(stacks, monkeypatch):
    # itself, or through a checked fiber with the same constant chambers in every table read;
    # the check alone pushes mu forward once _tv_defect is stubbed out
    pipe, grid = stacks["crossed"], 200
    omega = pipe.system.omega
    read, ran = [], []
    fiber = pipe.mu.fiber
    monkeypatch.setattr(transport, "_tv_defect", lambda *args, **kwargs: 0.0)
    monkeypatch.setattr(pipe.mu, "fiber", lambda theta: read.append(theta) or fiber(theta))
    # the check reads mu at theta just before it pushes that fiber forward
    monkeypatch.setattr(transport, "pushed",
                        lambda fm, d: ran.append(read[-1] * grid) or pushed(fm, d))
    verify_semiconjugacy(pipe.tmap, grid, 64)
    reads = [(pipe.projection.chambers, 0), (pipe.projection.chambers, omega),
             (pipe.density.chambers, omega), (pipe.mu.chambers, 0),
             (pipe.mu.chambers, omega)]

    def chambers(g):
        return [constant_at(table, F(g, grid) + shift) for table, shift in reads]

    subsample = range(0, grid, grid // 64)
    assert set(ran) <= set(subsample) and len(ran) < len(subsample)
    for g in subsample:
        assert g in ran or None not in chambers(g) and any(
            all(a is b for a, b in zip(chambers(g), chambers(r))) for r in ran)


def constant_at(table, theta):
    """The constant chamber holding theta, else None (a cut point, a non-constant chamber):
    the per-fiber reference for ChamberTable.grid_map."""
    ch, _ = table.locate(theta)
    return ch if ch.constant and ch.a < ch.b else None


def semiconjugacy_reads(pipe):
    """The (table, shift) pairs that verify_semiconjugacy reads at theta + shift."""
    omega = pipe.system.omega
    return [(pipe.projection.chambers, 0), (pipe.projection.chambers, omega),
            (pipe.density.chambers, omega), (pipe.mu.chambers, 0), (pipe.mu.chambers, omega)]


@pytest.mark.parametrize("curve", ["constant", "tent", "crossed", "skew"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grid=st.integers(1, 300), step=st.integers(1, 5), stride=st.integers(1, 4))
@example(grid=200, step=3, stride=3)
@example(grid=96, step=1, stride=1)
def test_grid_maps_equal_the_per_fiber_chambers(stacks, curve, grid, step, stride):
    # every table at shifts 0 and omega, and the semiconjugacy's classes with its tag
    pipe = stacks[curve]
    gs = range(0, grid, step)
    for table in (pipe.mu.chambers, pipe.projection.chambers, pipe.atlas.chambers,
                  pipe.density.chambers):
        for shift in (0, pipe.system.omega):
            got = table.grid_map(grid, shift, step)
            assert got == [constant_at(table, F(g, grid) + shift) for g in gs]
            assert table.grid_map(grid, shift, step) is got
    reads, tag = semiconjugacy_reads(pipe), lambda g: g % stride == 0
    first = {}
    for g, r in zip(gs, grid_classes(grid, reads, tag, step)):
        chambers = [constant_at(table, F(g, grid) + shift) for table, shift in reads]
        assert r == (g if None in chambers else first.setdefault((*map(id, chambers), tag(g)), g))
    assert grid_classes(grid, [], lambda g: g, step) == list(gs)


def test_a_second_pass_locates_and_reduces_nothing(stacks, monkeypatch):
    # a cut-free table answers with no reduction at all; a cut table reduces its
    # shift once per map, and a pass never locates a grid fiber
    calls = []
    locate, mod1_ = chamber.ChamberTable.locate, chamber.mod1
    monkeypatch.setattr(chamber.ChamberTable, "locate",
                        lambda self, theta: calls.append("locate") or locate(self, theta))
    monkeypatch.setattr(chamber, "mod1", lambda x: calls.append("mod1") or mod1_(x))
    plain = stacks["constant"]
    reads = [(plain.density.chambers, 0), (plain.mu.chambers, plain.system.omega)]
    assert grid_classes(331, reads, step=2) == [0] * 166
    assert calls == []
    reads = semiconjugacy_reads(stacks["crossed"])
    first = grid_classes(331, reads, lambda g: g % 5 == 0)
    assert calls == ["mod1"] * 5
    calls.clear()
    assert grid_classes(331, reads, lambda g: g % 5 == 0) == first
    assert class_thetas(331, reads) and list(grid_pass(331, reads, lambda theta: theta))
    assert calls == []


def test_grid_class_members_share_constant_chambers(stacks):
    table = stacks["crossed"].density.chambers
    reps = grid_classes(200, [(table, 0)], tag=lambda g: g % 3)
    assert 0 < sum(r != g for g, r in enumerate(reps)) < 200
    for g, r in enumerate(reps):
        ch = constant_at(table, F(g, 200))
        assert r <= g and g % 3 == r % 3
        assert ch is constant_at(table, F(r, 200)) if ch else r == g
    assert grid_classes(200, [(stacks["constant"].density.chambers, 0)]) == [0] * 200


def test_reuse_cannot_hide_an_atlas_failure():
    pipe = default_pipeline(half_width=4)
    fa = pipe.atlas.fiber(F(1, 3))
    n = pipe.atlas.order[-1]
    (ulo, uhi), *_ = fa.u[n]
    (vlo, vhi), *rest = fa.v[n]
    moved = (vlo + (uhi - ulo), vhi + (uhi - ulo))      # V arc past the end of its U arc
    pipe.atlas.chambers.chambers[0].fixed = replace(fa, v={**fa.v, n: (moved, *rest)})
    with pytest.raises(AtlasInvariantViolation, match=rf"^theta=0\.0: V_{n} not interior"):
        audit_atlas(pipe.atlas, 200)


def test_reuse_cannot_hide_a_density_failure():
    pipe = default_pipeline(half_width=4)
    fd = pipe.density.fiber(F(1, 3))
    floor = float(pipe.weights.min_density_bound())
    hvals = fd.hvals.copy()
    hvals[len(hvals) // 2] = floor / 2
    pipe.density.chambers.chambers[0].fixed = replace(fd, hvals=hvals, min_h=floor / 2)
    with pytest.raises(DensityNonpositive, match=r"at theta=0\.0 below the derived floor"):
        audit_density(pipe.density, 200, vertical=64)


@pytest.mark.parametrize("zero_end", ["a", "b"])
def test_annulus_certificate_reads_both_chamber_ends(zero_end):
    mu = build_mu({0: PLGraph.constant(F(1, 2)), 1: PLGraph.tent(F(1, 10), F(1, 5), F(2, 5))},
                  masses={0: F(1, 10), 1: F(1, 10)}, beta=F(4, 5))
    pi = build_pi(mu)
    tmap = TransportedMap(system=QpfSystem.translation(), nu=None, projection=pi)
    verify_nonminimality(tmap, grid=1)
    # the one grid fiber, theta = 0, lies outside the chamber whose anchor plateau moves
    ch = next(c for c in pi.chambers.chambers if c.a > 0)
    pivot = getattr(ch, zero_end)
    with Probe(ch.a, ch.b):
        lift = Affine(-pivot, F(1)) * (F(1) / (ch.b - ch.a))
        lift = lift if zero_end == "a" else -lift       # 0 at one end, 1 at the other
        plateaus = tuple(replace(p, start=p.start + lift) if 0 in p.members else p
                         for p in ch.template.plateaus)
        ch.template = replace(ch.template, plateaus=plateaus)
    with pytest.raises(InvariantViolation, match="annulus normalization fails"):
        verify_nonminimality(tmap, grid=1)
