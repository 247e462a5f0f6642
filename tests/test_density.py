from fractions import Fraction as F

import numpy as np
import pytest

from qpflab.atlas import build_partition_atlas
from qpflab.density import audit_density, build_bumps, build_density_h
from qpflab.errors import DensityNonpositive, PreconditionError
from qpflab.geometry import image_curve
from qpflab.measure import build_mu, build_pi
from qpflab.plgraph import PLGraph
from qpflab.systems import QpfSystem
from qpflab.weights import make_weights

R = QpfSystem.translation()


@pytest.fixture(scope="module")
def stack4():
    w = make_weights("quadratic", k=4, half_width=4, epsilon=F(1, 2))
    fam = {n: image_curve(R, PLGraph.constant(F(1, 5)), n) for n in range(-4, 5)}
    mu = build_mu(fam, weights=w)
    pi = build_pi(mu, 0)
    atlas = build_partition_atlas(mu, pi, F(1, 2))
    return w, mu, pi, atlas


def test_urysohn_bumps_g1_g2(stack4):
    w, mu, pi, atlas = stack4
    bumps = build_bumps(atlas, F(1, 2), variant="urysohn")
    for g in range(16):
        theta = F(g, 16)
        fb = bumps.fiber(theta)
        fa = atlas.fiber(theta)
        for m in bumps.indices():
            assert (1 - F(1, 2)) * w.a(m) <= fb[m].integral <= w.a(m)
            # (g1): support is exactly U_m (zero at arc boundaries, positive inside)
            for comp, (lo, hi) in zip(fb[m].knots, fa.u[m]):
                assert comp[0][0] == lo and comp[-1][0] == hi
                assert comp[0][1] == 0 and comp[-1][1] == 0
                assert all(v > 0 for _, v in comp[1:-1])


def test_hoelder_bumps_constant_and_bounds(stack4):
    w, mu, pi, atlas = stack4
    bumps = build_bumps(atlas, F(1, 2), variant="hoelder", alpha=1 / 3)
    fb = bumps.fiber(F(1, 3))
    for m in bumps.indices():
        expected = ((4 * abs(m) + 2) / (0.5 * float(w.a(m)))) ** (1 / 3)
        assert fb[m].hoelder_constant <= expected + 1e-9
        assert (1 - F(1, 2)) * w.a(m) <= fb[m].integral <= w.a(m)


def test_density_floor_and_layers(stack4):
    w, mu, pi, atlas = stack4
    bumps = build_bumps(atlas, F(1, 2), variant="urysohn")
    field = build_density_h(w, atlas, bumps)
    audit = audit_density(field, grid=64, vertical=512)
    assert audit["min_h"] >= float(w.min_density_bound()) - 1e-12
    # with the urysohn profile b_m = (1 - eps/2) a_m, so the realized floor is higher
    assert abs(audit["min_h"] - (1 - 0.36 / 0.75)) < 1e-12
    assert audit["worst_layer_defect"] < 1e-12


def test_density_total_telescopes(stack4):
    w, mu, pi, atlas = stack4
    field = build_density_h(w, atlas, build_bumps(atlas, F(1, 2)))
    for g in range(8):
        fd = field.fiber(F(g, 8))
        assert abs(fd.total - 1.0) < 1e-14  # symmetric weights: a_N - a_{-N} = 0


def test_density_positive_everywhere(stack4):
    w, mu, pi, atlas = stack4
    field = build_density_h(w, atlas, build_bumps(atlas, F(1, 2)))
    fd = field.fiber(F(0))
    xs = np.linspace(0, 1, 257)
    assert np.all(fd.eval_h(xs) > 0)


def test_density_rejects_nonsymmetric_or_bad_ratio():
    with pytest.raises(PreconditionError):
        w = make_weights("hoelder", k=5, half_width=3, epsilon=F(1, 2), alpha=1 / 3, s=1.5)
        fam = {n: image_curve(R, PLGraph.constant(F(1, 5)), n) for n in range(-3, 4)}
        mu = build_mu(fam, masses={n: w.a(n) for n in range(-3, 4)}, beta=w.beta)
        atlas = build_partition_atlas(mu, build_pi(mu, 0), F(1, 2))
        build_density_h(w, atlas, build_bumps(atlas, F(1, 2), variant="hoelder", alpha=1 / 3))
