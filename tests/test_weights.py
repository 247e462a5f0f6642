from fractions import Fraction as F

import pytest

from qpflab.errors import WeightsInvalid
from qpflab.weights import make_weights


def test_quadratic_defaults_against_summation_oracle():
    w = make_weights(k=4, half_width=8, epsilon=F(1, 2))
    total = sum(F(1, (abs(n) + 4) ** 2) for n in range(-8, 9))
    assert w.beta == 1 - total
    # frozen value of the direct summation
    assert abs(float(w.beta) - 0.6547689453804172) < 1e-15
    assert w.a(0) == F(1, 16) and w.a(8) == F(1, 144)
    assert w.is_symmetric()


def test_boundary_ratio_frozen():
    w = make_weights(k=4, half_width=8, epsilon=F(1, 2))
    # deficit ratio (a_0 - a_{-1}) / ((1-eps) a_0) = (9/25) / (1/2) = 18/25
    assert w.boundary_ratio == F(18, 25)
    assert w.min_density_bound() == F(7, 25)  # = 0.28
    assert (w.a(0) - w.a(-1)) / w.a(0) == F(9, 25)


def test_quadratic_k1_invalid():
    with pytest.raises(WeightsInvalid):
        make_weights(k=1, half_width=8, epsilon=F(1, 2))


def test_epsilon_validation():
    with pytest.raises(WeightsInvalid):
        make_weights(k=4, half_width=8, epsilon=F(0))
    with pytest.raises(WeightsInvalid):
        make_weights(k=4, half_width=8, epsilon=F(1))
