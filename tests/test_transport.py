from fractions import Fraction as F

import numpy as np
import pytest

from qpflab.measure import build_mu, build_pi, kolmogorov_distance
from qpflab.plgraph import PLGraph
from qpflab.systems import Lift, QpfSystem
from qpflab.transport import (TransportedMap, build_f, verify_nonminimality,
                              verify_semiconjugacy)


def test_transport_law_pushes_leb_to_nu(small4):
    tmap = small4.tmap
    rng = np.random.default_rng(2)
    theta = F(3, 16)
    fd = small4.density.fiber(theta + small4.system.omega)
    xs1, xs2 = rng.random(1000), rng.random(1000)
    y1 = tmap.fiber_values(theta, xs1)
    y2 = tmap.fiber_values(theta, xs2)
    lhs = fd.mass_from(0.0, y2) - fd.mass_from(0.0, y1)
    rhs = (xs2 - xs1)
    d = np.abs(np.mod(lhs - rhs, 1.0))
    assert float(np.minimum(d, 1 - d).max()) < 1e-9


def test_f_maps_bottom_edges(small4):
    tmap = small4.tmap
    for g in range(12):
        theta = F(g, 12)
        lo = tmap.phi_minus(theta, 0)
        img = float(tmap.fiber_values(theta, np.array([lo]))[0])
        expect = tmap.phi_minus(theta + small4.system.omega, 1)
        d = abs((img - expect) % 1.0)
        assert min(d, 1 - d) < 1e-12


def test_fiber_maps_monotone_degree_one(small4):
    sys_f = small4.f_system
    lift = Lift(sys_f)
    theta = 0.37
    xs = np.linspace(0, 1, 257)
    vals = np.array([lift.value(theta, float(x)) for x in xs])
    assert np.all(np.diff(vals) > -1e-12)
    assert abs((vals[-1] - vals[0]) - 1.0) < 1e-9


def test_empirical_pushforward_matches_nu(small4):
    # Kolmogorov distance between f(uniform) and nu on a tested fiber
    rng = np.random.default_rng(4)
    theta = F(5, 16)
    ys = small4.tmap.fiber_values(theta, rng.random(40000))
    fd = small4.density.fiber(theta + small4.system.omega)
    grid = np.linspace(0, 1, 1024, endpoint=False)
    emp = np.searchsorted(np.sort(ys), grid) / len(ys)
    cdf = fd.mass_from(0.0, grid)
    cdf -= cdf[0]
    drift = emp - cdf
    assert np.max(np.abs(drift - drift.mean())) < 0.02


def test_theta_continuity_of_f(small4):
    sys_f = small4.f_system
    xs = np.linspace(0, 1, 129, endpoint=False)
    a = small4.tmap.fiber_values(F(1, 3), xs)
    b = small4.tmap.fiber_values(F(1, 3) + F(1, 256), xs)
    d = np.abs(a - b)
    assert float(np.minimum(d, 1 - d).max()) < 0.05


def test_semiconjugacy_report(small4):
    rep = verify_semiconjugacy(small4.tmap, grid=128, vertical=512)
    assert rep.passed
    assert rep.shifted_residual <= 2 / 512
    assert abs(rep.tv_defect - rep.tv_expected) < 1e-9
    w = small4.weights
    assert rep.bound == pytest.approx(float(w.a(4) / w.beta) + 4 / 512)


def test_constant_stack_report_computes_two_fibers(plain8, monkeypatch):
    # one grid class in the subsample of the R_* mu check and one outside it
    calls = []
    fiber_values = TransportedMap.fiber_values
    monkeypatch.setattr(TransportedMap, "fiber_values",
                        lambda self, theta, xs: calls.append(theta) or fiber_values(self, theta, xs))
    rep = verify_semiconjugacy(plain8.tmap, grid=4096, vertical=4096)
    assert rep.passed and len(rep.residual_per_fiber) == 4096
    assert len(calls) <= 2


def test_nonminimality_annulus(small4):
    rep = verify_nonminimality(small4.tmap, grid=64)
    assert rep.annulus_height == float(small4.weights.a(0))
    assert rep.annulus_verified_fibers == 64
    assert rep.probes == [] and rep.hit_fraction == 1.0  # no witnesses supplied


def test_identity_transport_when_mu_is_lebesgue():
    # nu = Leb and phi0- = phi1- = 0 gives the identity-fiber skew map
    system = QpfSystem.translation()

    class LebesgueFibers:
        def fiber(self, theta):
            from qpflab.density import FiberDensity
            kn = np.array([0.0, 1.0])
            return FiberDensity(s0=0.0, knots=kn, hvals=np.array([1.0, 1.0]),
                                cum=np.array([0.0, 1.0]), min_h=1.0)

    mu = build_mu({0: PLGraph.constant(F(0)), 1: PLGraph.constant(F(1, 2))},
                  masses={0: F(1, 100), 1: F(1, 100)}, beta=F(49, 50))
    pi = build_pi(mu, 0)
    tmap = build_f(system, LebesgueFibers(), pi, curve0=0, curve1=0)
    xs = np.linspace(0, 1, 65, endpoint=False)
    vals = tmap.fiber_values(F(1, 7), xs)
    d = np.abs(vals - xs)
    assert float(np.minimum(d, 1 - d).max()) < 1e-12
