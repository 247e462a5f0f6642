from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpflab import geometry, measure, pipeline, surgery
from qpflab.circle import mod1
from qpflab.errors import PreconditionError
from qpflab.geometry import OrbitIntersections, image_curve
from qpflab.measure import (FiberAtom, FiberMeasure, build_mu, build_pi, kolmogorov_distance,
                            quantile_table)
from qpflab.plgraph import PLGraph
from qpflab.surgery import FlattenCertificate, flatten_to_depth
from qpflab.systems import QpfSystem
from qpflab.weights import make_weights

R = QpfSystem.translation()


def default_family(half_width=8):
    w = make_weights(k=4, half_width=half_width, epsilon=F(1, 2))
    fam = {n: image_curve(R, PLGraph.constant(F(1, 5)), n)
           for n in range(-half_width, half_width + 1)}
    return w, build_mu(fam, weights=w)


def fiber_mass(fm):
    return fm.beta + sum(a.mass for a in fm.atoms)


def test_single_atom_cdf_jump():
    mu = build_mu({0: PLGraph.constant(F(0))}, masses={0: F(1, 2)}, beta=F(1, 2))
    fm = mu.fiber(F(1, 3))
    assert fiber_mass(fm) == 1
    cdf = fm.cdf(np.array([0.0, 0.5, 0.99]))
    assert abs(cdf[0] - 0.5) < 1e-15  # jump at the atom
    assert abs(cdf[1] - 0.75) < 1e-15


def test_family_mass_one_everywhere():
    _, mu = default_family()
    for g in range(16):
        assert fiber_mass(mu.fiber(F(g, 16))) == 1


def test_zero_curves_is_lebesgue():
    mu = build_mu({}, masses={}, beta=F(1))
    fm = mu.fiber(F(1, 7))
    assert fiber_mass(fm) == 1 and not fm.atoms


def test_quantile_closed_form_half_atom():
    mu = build_mu({0: PLGraph.constant(F(0))}, masses={0: F(1, 2)}, beta=F(1, 2))
    pi = build_pi(mu)
    fp = pi.fiber(F(1, 3))
    xs = np.array([0.1, 0.3, 0.5, 0.6, 0.75, 0.9])
    expected = np.array([0.0, 0.0, 0.0, 0.2, 0.5, 0.8])  # 0 on [0,1/2], 2x-1 after
    assert np.allclose(fp.map_array(xs), expected, atol=1e-12)


def test_preimage_intervals():
    w, mu = default_family()
    pi = build_pi(mu)
    theta = F(1, 3)
    # the preimage of curve 5's position is its plateau, as wide as its mass exactly
    plateau = pi.fiber(theta).plateau_of(5)
    assert plateau.target == mu.curves[5].circle_value(theta)
    assert plateau.length == w.a(5)


def test_quantile_cdf_inversion_property():
    # the quantile table from an atom inverts the fiber CDF counted from that atom
    _, mu = default_family(half_width=4)
    rng = np.random.default_rng(11)
    for g in range(4):
        fm = mu.fiber(F(g, 4))
        anchor = fm.atom_of(0)
        fp = quantile_table(fm, anchor.position, F(0))
        below = fm.cdf([float(anchor.position)])[0] - float(anchor.mass)

        def cdf(ys):
            return np.mod(fm.cdf(ys) - below, 1.0)

        us = rng.random(2500)
        xs = rng.random(2500)
        assert np.all(np.mod(cdf(fp.map_array(us)) - us + 0.5, 1.0) - 0.5 >= -1e-9)
        d = np.mod(fp.map_array(cdf(xs)) - xs, 1.0)
        assert np.all(np.minimum(d, 1.0 - d) <= 1e-9)


def test_pushforward_kolmogorov():
    _, mu = default_family()
    pi = build_pi(mu)
    rng = np.random.default_rng(7)
    fp, fm = pi.fiber(F(1, 5)), mu.fiber(F(1, 5))
    ks = kolmogorov_distance(fm, fp.map_array(rng.random(50000)))
    assert ks <= 0.01


def test_conjugating_rotation_identity_and_anchor():
    # a change of anchor rotates the source by one offset, the same at every plateau;
    # curve 1's atom carries no other curve, so its table lifts no mass below zero
    _, mu = default_family(half_width=4)
    theta = F(1, 8)
    fm = mu.fiber(theta)
    fp0, fp1 = build_pi(mu).fiber(theta), quantile_table(fm, fm.atom_of(1).position, F(0))
    assert fm.atom_of(1).members == (1,)
    offsets = {mod1(fp1.plateau_of(n).start - fp0.plateau_of(n).start) for n in mu.curves}
    assert len(offsets) == 1
    # shifting the source by that offset aligns the fiber maps
    alpha = float(offsets.pop())
    xs = np.linspace(0, 1, 64, endpoint=False)
    lhs = fp0.map_array(xs)
    rhs = fp1.map_array((xs + alpha) % 1.0)
    d = np.abs(lhs - rhs)
    assert float(np.minimum(d, 1 - d).max()) <= 1e-9


def test_flatness_precondition_gate():
    tent = PLGraph.tent(F(1, 5), F(7, 10))
    fam = {0: tent, 1: image_curve(R, tent, 1)}
    with pytest.raises(PreconditionError):
        build_mu(fam, masses={0: F(1, 8), 1: F(1, 8)}, beta=F(3, 4))
    mu = build_mu(fam, masses={0: F(1, 8), 1: F(1, 8)}, beta=F(3, 4), waive_flatness=True)
    assert mu.beta == F(3, 4)


def test_run_blowup_refuses_unflat_certificate(monkeypatch):
    # a certificate that says the curve is not flat must not waive the refusal
    tent = PLGraph.tent(F(1, 5), F(7, 10))
    cert = FlattenCertificate(depth=3, steps=[], components={}, flat=False)
    monkeypatch.setattr(pipeline, "prepare_curve", lambda *a, **k: (tent, cert, []))
    w = make_weights(k=4, half_width=1, epsilon=F(1, 2))
    with pytest.raises(PreconditionError, match="non-flat"):
        pipeline.run_blowup(R, tent, w)


def test_build_mu_table_path_matches_pairwise():
    # a flattened tent: its window curves meet in flat overlaps with side data
    n = 1
    flat, _ = flatten_to_depth(R, PLGraph.tent(F(1, 5), F(7, 10)), 2 * n + 1)
    w = make_weights(k=4, half_width=n, epsilon=F(1, 2))
    fam = {m: image_curve(R, flat, m) for m in range(-n, n + 1)}
    direct = build_mu(fam, weights=w)
    tabled = build_mu(fam, weights=w, table=OrbitIntersections(R, flat))
    assert direct.overlaps and tabled.overlaps == direct.overlaps


def test_run_blowup_computes_each_orbit_intersection_once(monkeypatch):
    calls = []
    real = geometry.intersection_projection

    def counted(g1, g2):
        calls.append(1)
        return real(g1, g2)

    for module in (geometry, surgery, measure):
        monkeypatch.setattr(module, "intersection_projection", counted)
    n = 4
    w = make_weights(k=4, half_width=n, epsilon=F(1, 2))
    pipeline.run_blowup(R, PLGraph.constant(F(1, 5)), w)
    # X_1..X_(2N+1) for the flattening certificate, X_1..X_(2N) for the window
    assert len(calls) <= 2 * (2 * n + 1)


def test_run_blowup_reads_the_windows_off_the_flattening_table(monkeypatch):
    calls = []
    real = geometry.intersection_projection

    def counted(g1, g2):
        calls.append(1)
        return real(g1, g2)

    for module in (geometry, surgery, measure):
        monkeypatch.setattr(module, "intersection_projection", counted)
    n = 8
    w = make_weights(k=4, half_width=n, epsilon=F(1, 2))
    pipe = pipeline.run_blowup(R, PLGraph.constant(F(1, 5)), w)
    # X_1..X_(2N+1) of the flattened curve, and the window needs no other
    assert len(calls) == 2 * n + 1
    assert all(pipe.family[m] == image_curve(R, pipe.curve, m) for m in pipe.family)


@st.composite
def atom_layouts(draw):
    """A fiber measure of total mass 1, an anchor atom and a top mass (0 or not)."""
    positions = draw(st.lists(st.fractions(0, 1, max_denominator=997).filter(lambda x: x < 1),
                              min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 50), min_size=len(positions),
                            max_size=len(positions)))
    beta = draw(st.fractions(F(1, 10), F(9, 10), max_denominator=97))
    scale = (1 - beta) / sum(weights)
    atoms = tuple(sorted((FiberAtom(position=x, members=(i,), mass=wt * scale)
                          for i, (x, wt) in enumerate(zip(positions, weights))),
                         key=lambda a: a.position))
    fm = FiberMeasure(beta=beta, atoms=atoms,
                      masses={a.members[0]: a.mass for a in atoms}, t_split={})
    anchor = draw(st.sampled_from(atoms))
    top = draw(st.one_of(st.just(F(0)), st.fractions(0, 1, max_denominator=97)
                         .map(lambda t: t * anchor.mass)))
    return fm, anchor, top


@given(atom_layouts())
def test_quantile_table_properties(layout):
    fm, anchor, top = layout
    fp = quantile_table(fm, anchor.position, top)
    assert fiber_mass(fm) == 1
    # each plateau maps to its atom's position
    for p in fp.plateaus:
        mids = np.array([float(mod1(p.start + p.length * t)) for t in (F(1, 3), F(1, 2), F(2, 3))])
        assert np.all(fp.map_array(mids) == float(p.target))
    # off the plateaus the inverse knots undo map_array
    xs = (np.arange(997) + 0.5) / 997
    off = np.ones(len(xs), dtype=bool)
    for p in fp.plateaus:
        off &= np.mod(xs - float(p.start) + 1e-9, 1.0) > float(p.length) + 2e-9
    tk, sk = fp.inverse_knots
    ys = fp.map_array(xs[off])
    back = np.mod(np.interp(np.mod(ys - tk[0], 1.0) + tk[0], tk, sk), 1.0)
    d = np.mod(back - xs[off], 1.0)
    assert np.all(np.minimum(d, 1.0 - d) <= 1e-12)
    # the anchor plateau starts at -top; the top-0 table starts at 0
    assert fp.plateau_of(anchor.members[0]).start == -top
    if top == 0:
        assert fp.start == 0 and fp.seg_starts[0] == 0.0
        assert fp.map_array(np.array([0.0]))[0] == float(anchor.position)


def test_quantile_table_needs_an_anchor_atom():
    mu = build_mu({0: PLGraph.constant(F(0))}, masses={0: F(1, 2)}, beta=F(1, 2))
    with pytest.raises(PreconditionError):
        quantile_table(mu.fiber(F(1, 3)), F(1, 4), F(0))
