"""Atom weights for the blown-up measure: a_n = (|n|+k)^-2.

The weights are exact rationals over the truncation window |n| <= N.  They
are symmetric (a_n = a_-n), which the transported map needs: the density
total telescopes to 1 only when a_N = a_-N.  beta = 1 - sum a_n must stay
positive, and the density deficit ratio that controls positivity of the
transported density is recorded at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WeightsInvalid


@dataclass(frozen=True)
class WeightScheme:
    k: int
    half_width: int              # N: atoms carried for |n| <= N
    epsilon: Fraction            # shrinking parameter used downstream
    weights: dict                # n -> Fraction, |n| <= N
    beta: Fraction
    boundary_ratio: Fraction     # max_n (a_{n+1}-a_n)^+ / ((1-eps) a_{n+1})

    def a(self, n: int) -> Fraction:
        return self.weights[n]

    @property
    def window(self):
        return range(-self.half_width, self.half_width + 1)

    def bump_indices(self):
        """Indices m = n+1 of the bump family used in the density sum."""
        return range(-self.half_width + 1, self.half_width + 1)

    def min_density_bound(self) -> Fraction:
        return 1 - self.boundary_ratio

    def is_symmetric(self) -> bool:
        return all(self.weights[n] == self.weights[-n] for n in self.window)


def make_weights(k: int, half_width: int, epsilon) -> WeightScheme:
    """Build and validate a weight scheme; names the violated inequality on failure."""
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise WeightsInvalid("epsilon must satisfy 0 < epsilon < 1")
    if k < 1:
        raise WeightsInvalid("k >= 1 required")
    if half_width < 1:
        raise WeightsInvalid("half-width N >= 1 required")
    weights = {n: Fraction(1, (abs(n) + k) ** 2) for n in range(-half_width, half_width + 1)}
    total = sum(weights.values())
    beta = 1 - total
    if beta <= 0:
        raise WeightsInvalid(f"total atom mass {float(total):.6f} >= 1 (beta must be positive)")
    ratio = Fraction(0)
    for n in range(-half_width, half_width):
        step = weights[n + 1] - weights[n]
        if step > 0:
            ratio = max(ratio, step / ((1 - epsilon) * weights[n + 1]))
    if ratio >= 1:
        raise WeightsInvalid(
            f"density deficit ratio {float(ratio):.4f} >= 1 (weights change too fast)")
    return WeightScheme(k=k, half_width=half_width, epsilon=epsilon, weights=weights,
                        beta=beta, boundary_ratio=ratio)
