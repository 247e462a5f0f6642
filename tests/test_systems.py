import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qpflab.circle import OMEGA_GOLDEN, mod1
from qpflab.plgraph import PLGraph
from qpflab.sl2 import Cocycle, Mat2, cocycle_qpf
from qpflab.systems import (Lift, QpfSystem, _orbit, classify_rho_boundedness, deviations,
                            rotation_number)

TENT_PHI = PLGraph.from_points([(0, F(3, 10)), (F(1, 2), F(4, 10))])  # 0.3 + 0.1*tent


def compose(lift, theta, n, x):
    """The n-step fiber composition F^n_theta(x), n >= 0: the last point of the walk."""
    return _orbit(lift, theta, [x], n)[0][-1] if n else x


def test_compose_translation_exact():
    lift = Lift(QpfSystem.translation(rho=F(1, 4)))
    assert compose(lift, F(0), 4, F(0)) == 1
    assert compose(lift, F(0), 0, 0.37) == 0.37


@pytest.mark.parametrize("theta, x", [(F(0), F(0)), (F(2, 7), 0.0), (F(5, 9), 1.0 / 3.0)])
def test_translation_orbit_matches_theta_stepping_walk(theta, x):
    # the translation branch of the orbit walk never steps theta; the walk
    # that steps it through Lift.value gives the same numbers, type for type
    lift = Lift(QpfSystem.translation())
    want, y = [], x
    for k in range(300):
        y = lift.value(mod1(theta + k * lift.base.omega), y)
        want.append(y)
    got = _orbit(lift, theta, [x], 300)[0]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def test_compose_skew_matches_direct_summation():
    system = QpfSystem.skew(TENT_PHI)
    lift = Lift(system)
    total = sum(TENT_PHI.value(mod1(k * OMEGA_GOLDEN)) for k in range(10))
    assert compose(lift, F(0), 10, F(0)) == total


def test_degree_one_and_monotonicity():
    lift = Lift(QpfSystem.skew(TENT_PHI))
    for theta in (F(0), F(2, 7)):
        for n in (1, 3, 5):
            a = compose(lift, theta, n, F(1, 10))
            b = compose(lift, theta, n, F(1, 10) + 1)
            assert b - a == 1
            c = compose(lift, theta, n, F(1, 10) + F(1, 100))
            assert c > a


def test_cocycle_identity_exact_kinds():
    lift = Lift(QpfSystem.skew(TENT_PHI))
    omega = OMEGA_GOLDEN
    for theta in (0.0, 0.37, 0.9):
        for m, n in ((2, 3), (1, 4)):
            lhs = compose(lift, theta, m + n, 0.25)
            rhs = compose(lift, float(mod1(theta + n * float(omega))), m,
                          compose(lift, theta, n, 0.25))
            assert abs(lhs - rhs) < 1e-12


def test_rotation_number_translation_exact():
    lift = Lift(QpfSystem.translation(rho=F(1, 4)))
    est = rotation_number(lift, F(0), F(0), 1000)
    assert est.value == 0.25
    ident = Lift(QpfSystem.translation(rho=F(0)))
    assert rotation_number(ident, F(0), F(0), 64).value == 0.0


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=10**30)),
       rho=st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=10**40)),
       n=st.integers(1, 400))
def test_translation_displacements_from_an_exact_start_are_the_walk_s(x, rho, n):
    # the closed form x + k*mod1(rho), rounded from integers, against the Fraction walk
    lift = Lift(QpfSystem.translation(rho=rho))
    walked = np.array([float(v) for v in _orbit(lift, F(0), [x], n)[0]]) - float(x)
    est = rotation_number(lift, F(0), x, n)
    assert est.displacements.tobytes() == walked.tobytes()
    assert est.value == float(walked[-1]) / n
    want = walked - np.arange(1, n + 1) * est.value
    assert deviations(lift, F(0), x, n).devs.tobytes() == want.tobytes()


def test_rotation_number_skew_birkhoff():
    # mean displacement 0.3; frozen constant C = 0.1 measured once (worst N*err ~ 0.038)
    phi = PLGraph.from_points([(0, F(1, 4)), (F(1, 2), F(1, 4) + F(1, 10))])
    lift = Lift(QpfSystem.skew(phi))
    for n in (1000, 10**5):
        est = rotation_number(lift, F(0), 0.0, n)
        assert abs(est.value - 0.3) <= 0.1 / n
        assert abs(est.value - 0.3) <= 10.0 / n  # the coarse bound


def test_deviations_translation_zero():
    lift = Lift(QpfSystem.translation(rho=F(1, 3) + F(1, 1000)))
    trace = deviations(lift, F(0), F(0), 200, rho=float(F(1, 3) + F(1, 1000)))
    assert trace.sup_growth[-1] <= 1e-12
    assert np.all(np.diff(trace.sup_growth) >= 0)


def test_deviations_coboundary_telescopes():
    psi = PLGraph.from_points([(0, F(0)), (F(1, 2), F(1, 20))])
    cob = psi.shift_theta(-OMEGA_GOLDEN).add_graph(psi.negate()).add_scalar(F(3, 10))
    lift = Lift(QpfSystem.skew(cob.canonical()))
    trace = deviations(lift, F(0), 0.0, 2000, rho=0.3)
    assert trace.sup_growth[-1] <= 0.1  # 2 * ||psi||_inf


def test_rotation_estimates_and_default_rho_come_from_the_orbit():
    # one orbit walk gives the estimate, its Cauchy gap and the deviations from it
    lift = Lift(QpfSystem.skew(TENT_PHI))
    est = rotation_number(lift, F(1, 7), 0.25, 300)
    est_half = (compose(lift, F(1, 7), 150, 0.25) - 0.25) / 150
    assert est.cauchy_gap == abs(est.value - est_half)
    trace = deviations(lift, F(1, 7), 0.25, 300)
    assert trace.rho_estimate == est.value
    assert np.array_equal(trace.devs, deviations(lift, F(1, 7), 0.25, 300, rho=est.value).devs)


@pytest.mark.parametrize("system", [QpfSystem.translation(), QpfSystem.skew(TENT_PHI)])
def test_rotation_estimate_deviations_are_a_deviations_walk(system):
    # qpflab analyze writes deviations.csv from the prefix of its rotation walk
    lift = Lift(system)
    est = rotation_number(lift, F(0), F(0), 700)
    got = est.deviations(512)
    want = deviations(lift, F(0), F(0), 512, rho=est.value)
    assert got.rho_estimate == want.rho_estimate
    assert np.array_equal(got.devs, want.devs)
    assert np.array_equal(got.sup_growth, want.sup_growth)


def test_classifier_verdicts():
    lift = Lift(QpfSystem.translation())
    rep = classify_rho_boundedness(lift, 200, 4, rho=float(QpfSystem.translation().rho))
    assert rep.verdict == "bounded-suspected"
    assert np.all(rep.growth <= 1e-12)
    psi = PLGraph.from_points([(0, F(0)), (F(1, 2), F(1, 20))])
    cob = psi.shift_theta(-OMEGA_GOLDEN).add_graph(psi.negate()).add_scalar(F(3, 10))
    rep2 = classify_rho_boundedness(Lift(QpfSystem.skew(cob.canonical())), 400, 4, rho=0.3)
    assert rep2.verdict == "bounded-suspected"
    # tent-wave skew over the golden base: verdict recorded, no ground truth claimed
    rep3 = classify_rho_boundedness(Lift(QpfSystem.skew(TENT_PHI)), 400, 4)
    assert rep3.verdict in ("bounded-suspected", "unbounded-suspected")


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_classifier_translation_bounded_at_long_horizons(n):
    # a rigid rotation has no deviations; what float sums leave must not read as growth
    lift = Lift(QpfSystem.translation())
    rho = rotation_number(lift, F(0), F(0), n).value
    rep = classify_rho_boundedness(lift, n, 8, rho=rho)
    assert rep.verdict == "bounded-suspected"


def test_classifier_requires_n():
    with pytest.raises(ValueError):
        classify_rho_boundedness(Lift(QpfSystem.translation()), 99, 2)


def test_lift_normalization():
    system = QpfSystem.skew(TENT_PHI)
    lift = Lift(system)
    for theta in (F(0), F(1, 3), F(9, 10)):
        f0 = lift.value(theta, 0)
        assert 0 <= f0 < 1


@pytest.fixture(scope="module")
def lifts(crossed4):
    """One lift of each kind of fiber map: exact translation and skew, a float cocycle, a blowup f."""
    return {"translation": Lift(QpfSystem.translation()),
            "skew": Lift(QpfSystem.skew(TENT_PHI)),
            "cocycle": Lift(cocycle_qpf(Cocycle.harper(0.0, 2.0))),
            "crossed-f": Lift(crossed4.tmap.as_system())}


def one_point_step(lift, theta, x):
    """F_theta(x) read on its own, as a walk of one start point reads it."""
    base = lift.base
    if base.is_affine:
        return x + mod1(base.displacement(theta))
    m = math.floor(x)
    f0, fr = base.circle_values(theta, [0.0, x - m]).tolist()
    return m + f0 + (fr - f0) % 1.0


@pytest.mark.parametrize("kind", ["translation", "skew", "cocycle", "crossed-f"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_multi_start_walk_matches_one_point_steps(lifts, kind, data):
    # start points sharing a theta orbit read each fiber together; each must
    # come out as its own one-point walk would, value and type
    lift = lifts[kind]
    theta = data.draw(st.fractions(0, 1, max_denominator=10**6))
    starts = data.draw(st.lists(st.one_of(st.fractions(-2, 3, max_denominator=10**4),
                                          st.floats(-2, 3)), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 24))
    omega = lift.base.omega
    th, om = (theta, omega) if lift.base.is_affine else (float(theta), float(omega))
    got = _orbit(lift, theta, starts, n)
    assert len(got) == len(starts)
    for x, orbit in zip(starts, got):
        want, y = [], x
        for k in range(n):
            y = one_point_step(lift, mod1(th + k * om), y)
            want.append(y)
        assert list(map(repr, orbit)) == list(map(repr, want))
    assert lift.value(th, starts[0]) == one_point_step(lift, th, starts[0])


@pytest.mark.parametrize("kind", ["translation", "skew", "cocycle", "crossed-f"])
def test_classifier_rho_is_the_rotation_walk_estimate(lifts, kind):
    # without a given rho the classifier takes it from its own (0, 0) walk
    lift = lifts[kind]
    n = 512
    rep = classify_rho_boundedness(lift, n, 2)
    est = rotation_number(lift, F(0) if lift.base.is_affine else 0.0, 0.0, n)
    assert rep.rho.hex() == est.value.hex()
    assert classify_rho_boundedness(lift, n, 2, rho=est.value).ratio == rep.ratio


def reference_sample(system, fiber_grid, vertical_grid):
    """The sampled table one fiber row at a time: the oracle for the row blocks."""
    knots = np.linspace(0.0, 1.0, vertical_grid + 1)
    rows = np.empty((fiber_grid, vertical_grid + 1))
    for i in range(fiber_grid):
        vals = system.circle_values(i / fiber_grid, knots)
        f0 = vals[0]
        rows[i] = f0 + np.mod(vals - f0, 1.0)
        rows[i, -1] = f0 + 1.0
    return rows


@pytest.mark.parametrize("system", [
    cocycle_qpf(Cocycle.harper(0.0, 2.0)),
    cocycle_qpf(Cocycle.harper(5.0, 0.7)),
    cocycle_qpf(Cocycle.rotation(0.3)),
    cocycle_qpf(Cocycle.diagonal(2.0)),
    cocycle_qpf(Cocycle.constant(Mat2(2.0, 1.0, 1.0, 1.0))),
    "small4",
], ids=["harper", "harper-elliptic", "rotation", "diagonal", "constant", "f"])
def test_sample_matches_row_by_row_reference(request, system):
    # 77 fiber rows: two whole row blocks and a ragged one
    if system == "small4":
        system = request.getfixturevalue("small4").tmap.as_system()
    assert np.array_equal(system.sample(77, 61), reference_sample(system, 77, 61))
