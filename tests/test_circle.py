from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from qpflab.circle import OMEGA_GOLDEN, RHO_SILVER, circ_dist, mod1, mod1_array, signed_gap

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
def test_circ_dist_bounds(a, b):
    d = circ_dist(a, b)
    assert 0 <= d <= Fraction(1, 2)
    assert d == circ_dist(b, a)
    assert circ_dist(a, a) == 0


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
