from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qpflab.atlas import PartitionAtlas
from qpflab.density import BumpFamily, DensityField, _density_fiber, audit_density
from qpflab.errors import DensityNonpositive, EtaNotInvertible, PreconditionError
from qpflab.geometry import image_curve
from qpflab.measure import build_mu, build_pi
from qpflab.plgraph import PLGraph
from qpflab.systems import QpfSystem
from qpflab.transport import build_f
from qpflab.weights import make_weights

R = QpfSystem.translation()


@pytest.fixture(scope="module")
def stack4():
    w = make_weights(k=4, half_width=4, epsilon=F(1, 2))
    fam = {n: image_curve(R, PLGraph.constant(F(1, 5)), n) for n in range(-4, 5)}
    mu = build_mu(fam, weights=w)
    pi = build_pi(mu)
    atlas = PartitionAtlas(pi, F(1, 2))
    return w, mu, pi, atlas


def test_urysohn_bumps_g1_g2(stack4):
    w, mu, pi, atlas = stack4
    bumps = BumpFamily(atlas)
    for g in range(16):
        theta = F(g, 16)
        fb = bumps._fiber_uncached(theta)
        fa = atlas.fiber(theta)
        for m in bumps.indices():
            assert (1 - F(1, 2)) * w.a(m) <= fb[m].integral <= w.a(m)
            # (g1): support is exactly U_m (zero at arc boundaries, positive inside)
            for comp, (lo, hi) in zip(fb[m].knots, fa.u[m]):
                assert comp[0][0] == lo and comp[-1][0] == hi
                assert comp[0][1] == 0 and comp[-1][1] == 0
                assert all(v > 0 for _, v in comp[1:-1])


def test_density_floor_and_layers(stack4):
    w, mu, pi, atlas = stack4
    field = DensityField(w, atlas)
    audit = audit_density(field, grid=64, vertical=512)
    assert audit["min_h"] >= float(w.min_density_bound()) - 1e-12
    # with the urysohn profile b_m = (1 - eps/2) a_m, so the realized floor is higher
    assert abs(audit["min_h"] - (1 - 0.36 / 0.75)) < 1e-12
    assert audit["worst_layer_defect"] < 1e-12


def test_density_total_telescopes(stack4):
    w, mu, pi, atlas = stack4
    field = DensityField(w, atlas)
    for g in range(8):
        fd = field.fiber(F(g, 8))
        assert abs(fd.total - 1.0) < 1e-14  # symmetric weights: a_N - a_{-N} = 0


def test_density_positive_everywhere(stack4):
    w, mu, pi, atlas = stack4
    field = DensityField(w, atlas)
    fd = field.fiber(F(0))
    # h is linear between its knots, so positive knot values make it positive
    assert fd.min_h > 0
    assert np.all(fd.hvals > 0)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x0=st.floats(-3, 3), g=st.integers(0, 7))
def test_cum_at_one_point_is_the_array_interp(stack4, x0, g):
    # mass_from and quantile_from read the prefix integral at x0 on floats;
    # it must be the value the array path gives, for points on either side of s0
    w, mu, pi, atlas = stack4
    fd = DensityField(w, atlas).fiber(F(g, 8))
    want = float(np.interp(fd._unroll(np.array([x0]))[0], fd.knots, fd.cum))
    assert fd._cum_at(x0).hex() == want.hex()


def test_density_rejects_nonsymmetric_or_bad_ratio(stack4):
    w, mu, pi, atlas = stack4
    # a deficit ratio of 1 admits h = 0 somewhere
    with pytest.raises(DensityNonpositive, match="nonpositive density"):
        DensityField(replace(w, boundary_ratio=F(1)), atlas)
    # moving mass from a_4 to a_-4 keeps the total at 1 - beta but breaks the
    # symmetry the density total needs
    moved = {**w.weights, 4: w.a(4) / 2, -4: w.a(-4) + w.a(4) / 2}
    skewed = replace(w, weights=moved)
    assert sum(skewed.weights.values()) == 1 - w.beta and not skewed.is_symmetric()
    skewed_pi = build_pi(build_mu(mu.curves, weights=skewed))
    field = DensityField(w, atlas)
    with pytest.raises(PreconditionError, match="symmetric"):
        build_f(R, field, skewed_pi)


def test_fiber_build_rejects_a_non_invertible_mass_coordinate():
    # h > 0 everywhere, but the knots run backwards over [1/4, 1/2]: the
    # prefix integral decreases there, so the fiber build refuses it
    knots, hvals = [0.0, 0.5, 0.25, 1.0], [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(EtaNotInvertible, match="theta=0.5"):
        _density_fiber(F(1, 2), knots + hvals)
    assert _density_fiber(F(1, 2), sorted(knots) + hvals).total == 1.0
