from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpflab.circle import (OMEGA_GOLDEN, ORBIT_STEPS, RHO_SILVER, mod1, mod1_array,
                           orbit_thetas, signed_gap)
from qpflab.errors import PreconditionError

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=997)


def test_default_constants_precision():
    # |omega - (sqrt5-1)/2| and |rho - (sqrt2-1)| below 1e-30, verified in integers:
    # golden: w^2 + w - 1 = 0; silver: r^2 + 2r - 1 = 0
    w = OMEGA_GOLDEN
    assert abs(w * w + w - 1) < Fraction(1, 10**29)
    r = RHO_SILVER
    assert abs(r * r + 2 * r - 1) < Fraction(1, 10**29)
    assert w.denominator > 10**14 and r.denominator > 10**14


@given(fractions)
def test_mod1_range(x):
    m = mod1(x)
    assert 0 <= m < 1
    assert (x - m).denominator == 1


@given(fractions, fractions)
def test_signed_gap_consistency(a, b):
    g = signed_gap(a, b)
    assert -Fraction(1, 2) < g <= Fraction(1, 2)
    assert mod1(a + g - b) == 0


def test_mod1_array_is_np_mod_bit_for_bit():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.normal(size=4000) * scale for scale in (1e-18, 1e-3, 1.0, 1e6, 1e15)]
                        + [[0.0, -0.0, 1.0, -1.0, -5e-324, 2.0**-53 - 1.0, -(2.0**-54), 2.0**52]])
    assert np.array_equal(mod1_array(xs).view(np.int64), np.mod(xs, 1.0).view(np.int64))


@settings(max_examples=500)
@given(st.floats(0.0, 1.0, exclude_max=True),
       st.one_of(st.just(float(OMEGA_GOLDEN)),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       st.integers(-ORBIT_STEPS + 1, ORBIT_STEPS - 4))
def test_orbit_thetas_within_two_ulps_of_exact(theta0, omega, k):
    got = orbit_thetas(theta0, omega, k, k + 4).tolist()
    for i, theta in enumerate(got):
        err = mod1(Fraction(theta) - Fraction(theta0) - (k + i) * Fraction(omega))
        assert min(err, 1 - err) <= Fraction(1, 2**51)


def test_orbit_thetas_from_zero_is_the_iterated_golden_orbit():
    # lyapunov's default start: the closed form keeps the bits of the recursion
    omega = float(OMEGA_GOLDEN)
    theta, want = 0.0, []
    for _ in range(10**5):
        want.append(theta)
        theta = (theta + omega) % 1.0
    assert orbit_thetas(0.0, omega, 0, 10**5).tolist() == want


def test_orbit_thetas_rejects_steps_past_the_exact_range():
    with pytest.raises(PreconditionError):
        orbit_thetas(0.0, 0.5, -ORBIT_STEPS, -ORBIT_STEPS + 1)
    with pytest.raises(PreconditionError):
        orbit_thetas(0.0, 0.5, ORBIT_STEPS, ORBIT_STEPS + 1)
