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

from .errors import PreconditionError

Scalar = Union[int, float, Fraction]


def mod1(x: Scalar) -> Scalar:
    """Reduce to [0, 1), preserving the numeric type."""
    if isinstance(x, Fraction):
        k = x.numerator // x.denominator
        return x - k if k else x
    return x % 1 if isinstance(x, int) else x % 1.0


def mod1_array(x):
    """Float arrays reduced to [0, 1): bit for bit np.mod(x, 1.0) on finite values.

    The exact part x - trunc(x) and the one rounding after adding 1 to a
    negative remainder are the same in both, and x - floor(x) skips the
    divmod that makes np.mod an order of magnitude slower.
    """
    return x - np.floor(x)


#: orbit_thetas is exact up to its final roundings for |k| below this
ORBIT_STEPS = 1 << 27
# orbit_thetas forms its result in place this many steps at a time, so that its
# temporaries stay small beside the result
_PIECE = 1 << 13


def orbit_thetas(theta0: float, omega: float, lo: int, hi: int) -> np.ndarray:
    """The base orbit theta_k = theta0 + k * omega mod 1 for k in [lo, hi), in closed form.

    omega splits as omega_hi + omega_lo (Veltkamp's split), omega_hi keeping
    26 significant bits, so k * omega_hi and its fractional part are exact
    for |k| < 2**27 and |k * omega_lo| < 1.  theta_k is then
    mod1(mod1(k * omega_hi) + (theta0 + k * omega_lo)), within 2**-51 of the
    exact value on the circle at any k; the naive mod1(theta0 + k * omega)
    is off by 1.2e-10 at k = 10**6.  For theta0 in [0, 1).  Each piece of
    the result is formed in place from its k with those float operations
    (`mod1_array`'s x - floor(x) twice), so the call holds the result and
    temporaries of _PIECE steps.
    """
    if lo <= -ORBIT_STEPS or hi > ORBIT_STEPS:
        raise PreconditionError(f"orbit steps [{lo}, {hi}) reach past |k| < 2**27")
    c = omega * (2.0**27 + 1.0)
    omega_hi = c - (c - omega)
    omega_lo = omega - omega_hi
    out = np.arange(lo, hi, dtype=float)
    for s in range(0, len(out), _PIECE):
        ks = out[s:s + _PIECE]
        head = ks * omega_hi
        head -= np.floor(head)
        ks *= omega_lo
        ks += theta0
        ks += head
        ks -= np.floor(ks)
    return out


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

