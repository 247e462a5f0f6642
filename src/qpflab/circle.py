"""Circle arithmetic over floats and exact rationals.

Angles live in [0, 1) (units of full turns).  Exact geometry uses
``fractions.Fraction``; numerics use floats.  The default base frequency and
translation number are high-precision rational convergents of the golden-ratio
conjugate and of sqrt(2)-1, accurate to 1e-30, so that 1, omega, rho are
(effectively) rationally independent while all breakpoint arithmetic stays
exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[int, float, Fraction]


def mod1(x: Scalar) -> Scalar:
    """Reduce to [0, 1), preserving the numeric type."""
    if isinstance(x, Fraction):
        return x - (x.numerator // x.denominator)
    return x % 1 if isinstance(x, int) else x % 1.0


def mod1_array(x):
    """Float arrays reduced to [0, 1): bit for bit np.mod(x, 1.0) on finite values.

    The exact part x - trunc(x) and the one rounding after adding 1 to a
    negative remainder are the same in both, and x - floor(x) skips the
    divmod that makes np.mod an order of magnitude slower.
    """
    return x - np.floor(x)


def circ_dist(a: Scalar, b: Scalar) -> Scalar:
    """Circular distance, always <= 1/2."""
    d = mod1(a - b)
    half = Fraction(1, 2) if isinstance(d, Fraction) else 0.5
    return d if d <= half else 1 - d


def signed_gap(a: Scalar, b: Scalar) -> Scalar:
    """Representative of b - a in (-1/2, 1/2]."""
    d = mod1(b - a)
    half = Fraction(1, 2) if isinstance(d, Fraction) else 0.5
    return d if d <= half else d - 1


def _convergent(coeff: int, err: Fraction) -> Fraction:
    """Continued-fraction convergent of [0; c, c, c, ...] with error < err."""
    p0, q0, p1, q1 = 0, 1, 1, coeff
    while Fraction(1, q1 * q1) >= err:
        p0, q0, p1, q1 = p1, q1, coeff * p1 + p0, coeff * q1 + q0
    return Fraction(p1, q1)


#: golden-ratio conjugate (sqrt(5)-1)/2, exact rational to 1e-30
OMEGA_GOLDEN: Fraction = _convergent(1, Fraction(1, 10**30))

#: sqrt(2)-1, exact rational to 1e-30
RHO_SILVER: Fraction = _convergent(2, Fraction(1, 10**30))

