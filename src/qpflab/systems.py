"""Quasiperiodically forced circle systems, lifts, rotation numbers, deviations.

A QpfSystem is the map (theta, x) -> (theta + omega, f_theta(x)).  Exact kinds
(translation, PL skew rotation) evaluate in rational arithmetic and admit
exact curve images; sampled / cocycle-induced / blowup-built kinds evaluate
through float fiber maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .circle import OMEGA_GOLDEN, RHO_SILVER, mod1, mod1_array
from .plgraph import PLGraph

EXACT_KINDS = ("translation", "skew")


@dataclass(frozen=True, eq=False)
class QpfSystem:
    """A family of monotone degree-one circle fiber maps over theta -> theta + omega.

    Affine kinds carry a displacement (rho or phi); the sampled kind carries a
    table of normalized lifts; every other kind carries one vectorized map
    circle_fn(theta, xs) -> f_theta(xs) mod 1, from which the lift, its
    inverse and the sampled table are all derived.
    """

    omega: Fraction
    kind: str
    rho: Optional[Fraction] = None
    phi: Optional[PLGraph] = None
    circle_fn: Optional[Callable] = None
    table: Optional[np.ndarray] = None
    max_depth: int = 128
    label: str = ""

    # -- constructors --------------------------------------------------------

    @staticmethod
    def translation(rho=RHO_SILVER, omega=OMEGA_GOLDEN) -> "QpfSystem":
        return QpfSystem(omega=Fraction(omega), kind="translation", rho=Fraction(rho))

    @staticmethod
    def skew(phi: PLGraph, omega=OMEGA_GOLDEN) -> "QpfSystem":
        if phi.degree != 0:
            raise ValueError("skew displacement must have degree 0")
        return QpfSystem(omega=Fraction(omega), kind="skew", phi=phi)

    @staticmethod
    def from_callable(omega, circle_fn, kind="cocycle", label="") -> "QpfSystem":
        return QpfSystem(omega=Fraction(omega), kind=kind, circle_fn=circle_fn, label=label)

    @property
    def is_affine(self) -> bool:
        return self.kind in EXACT_KINDS

    # -- fiber evaluation ----------------------------------------------------

    def displacement(self, theta):
        """Fiber displacement for affine kinds (exact for Fraction input)."""
        if self.kind == "translation":
            return self.rho
        if self.kind == "skew":
            if isinstance(theta, Fraction):
                return self.phi.value(theta)
            return _pl_value_float(self.phi, float(theta))
        raise ValueError(f"{self.kind} systems have no affine displacement")

    def circle_values(self, theta, xs) -> np.ndarray:
        """Circle values f_theta(xs) in [0, 1) at an array of points of one fiber."""
        xs = np.asarray(xs, dtype=float)
        if self.is_affine:
            return mod1_array(xs + float(self.displacement(theta)))
        if self.kind == "sampled":
            return self.table_step(float(theta), xs)
        return self.circle_fn(theta, xs)

    def fiber_circle_inv(self, theta, y):
        """Inverse fiber map on the circle: exact for affine kinds, else bisection."""
        if self.is_affine:
            return mod1(y - self.displacement(theta))
        return _bisect_inverse(lambda x: float(self.circle_values(theta, [x])[0]), y)

    def table_step(self, th, x: np.ndarray) -> np.ndarray:
        """Circle values of the tabulated fiber maps at arrays of points (th, x).

        Each point takes the nearest fiber row of the table, then linear
        interpolation in x between the vertical knots; x = 1 uses the last
        cell, as the orbit kernel does.
        """
        table = self.table
        vres = table.shape[1] - 1
        i = nearest_rows(th, table.shape[0])
        pos = x * vres
        j = np.minimum(pos.astype(int), vres - 1)
        frac = pos - j
        return (table[i, j] * (1.0 - frac) + table[i, j + 1] * frac) % 1.0

    def sample(self, fiber_grid: int, vertical_grid: int) -> "QpfSystem":
        """Tabulate normalized-lift fiber maps on a grid (the 'sampled' kind).

        Each row is the lift with F_theta(0) = f_theta(0) in [0, 1), rising by
        exactly 1 over the fiber.
        """
        knots = np.linspace(0.0, 1.0, vertical_grid + 1)
        rows = np.empty((fiber_grid, vertical_grid + 1))
        for i in range(fiber_grid):
            if self.is_affine:
                rows[i] = knots + float(mod1(self.displacement(Fraction(i, fiber_grid))))
                continue
            vals = self.circle_values(i / fiber_grid, knots)
            f0 = vals[0]
            rows[i] = f0 + np.mod(vals - f0, 1.0)
            rows[i, -1] = f0 + 1.0
        return QpfSystem(omega=self.omega, kind="sampled", table=rows,
                         label=f"sampled({self.label or self.kind})")


def nearest_rows(th: np.ndarray, g: int) -> np.ndarray:
    """Index of the nearest of g equally spaced fiber rows, per base point."""
    return np.mod(np.floor(th * g + 0.5).astype(int), g)


@lru_cache(maxsize=256)
def _pl_float_tables(graph: PLGraph):
    ts = np.array([float(t) for t in graph.thetas] + [float(graph.thetas[0]) + 1.0])
    vs = np.array([float(v) for v in graph.values] + [float(graph.values[0]) + graph.degree])
    return ts, vs


def _pl_value_float(graph: PLGraph, t: float) -> float:
    ts, vs = _pl_float_tables(graph)
    k = math.floor(t - ts[0])
    return float(np.interp(t - k, ts, vs)) + k * graph.degree


def _bisect_inverse(f_circle, y, tol=1e-13):
    """Invert a monotone degree-one circle map by bisection on its lift."""
    y = y % 1.0
    f0 = f_circle(0.0)
    target = (y - f0) % 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        delta = (f_circle(mid) - f0) % 1.0
        if delta <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class Lift:
    """Lift of a QpfSystem normalized by F_theta(0) in [0, 1)."""

    base: QpfSystem

    def value(self, theta, x):
        if self.base.is_affine:
            return x + mod1(self.base.displacement(theta))
        m = math.floor(x)
        f0, fr = self.base.circle_values(theta, [0.0, x - m]).tolist()
        return m + f0 + (fr - f0) % 1.0

    def inverse(self, theta, y):
        """x with F_theta(x) = y."""
        if self.base.is_affine:
            return y - mod1(self.base.displacement(theta))
        f0 = float(self.base.circle_values(theta, [0.0])[0])
        return math.floor(y - f0) + float(self.base.fiber_circle_inv(theta, y % 1.0))


def _base_arithmetic(base: QpfSystem, theta):
    """theta and omega as exact numbers for affine kinds, as floats otherwise."""
    if base.is_affine:
        return theta, base.omega
    return float(theta), float(base.omega)


def _orbit(lift: Lift, theta, x, n: int) -> list:
    """The iterates F^1_theta(x), ..., F^n_theta(x)."""
    theta, omega = _base_arithmetic(lift.base, theta)
    orbit = []
    for k in range(n):
        x = lift.value(mod1(theta + k * omega), x)
        orbit.append(x)
    return orbit


def compose_fiber(lift: Lift, theta, n: int, x):
    """n-step fiber composition F^n_theta(x); n may be negative."""
    if n >= 0:
        return _orbit(lift, theta, x, n)[-1] if n else x
    theta, omega = _base_arithmetic(lift.base, theta)
    for k in range(1, -n + 1):
        x = lift.inverse(mod1(theta - k * omega), x)
    return x


@dataclass
class RotationEstimate:
    value: float
    cauchy_gap: float
    n: int


def rotation_number(lift: Lift, theta0, x0, n: int) -> RotationEstimate:
    """Birkhoff estimate (F^n(x)-x)/n with the N vs N/2 Cauchy gap."""
    if n < 1:
        raise ValueError("n >= 1 required")
    orbit = _orbit(lift, theta0, x0, n)
    half = max(1, n // 2)
    est = (float(orbit[-1]) - float(x0)) / n
    est_half = (float(orbit[half - 1]) - float(x0)) / half
    return RotationEstimate(value=est, cauchy_gap=abs(est - est_half), n=n)


@dataclass
class DeviationTrace:
    rho_estimate: float
    devs: np.ndarray          # D_1 .. D_N
    sup_growth: np.ndarray    # running sup |D_n|, nondecreasing

    def sup(self) -> float:
        return float(self.sup_growth[-1]) if len(self.sup_growth) else 0.0


def deviations(lift: Lift, theta, x, n: int, rho: float | None = None) -> DeviationTrace:
    """D_k = F^k_theta(x) - x - k*rho for k = 1..n; rho defaults to (F^n(x) - x)/n."""
    orbit = np.array([float(v) for v in _orbit(lift, theta, x, n)])
    if rho is None:
        rho = (orbit[-1] - float(x)) / n
    devs = orbit - float(x) - np.arange(1, n + 1) * float(rho)
    return DeviationTrace(rho_estimate=float(rho), devs=devs,
                          sup_growth=np.maximum.accumulate(np.abs(devs)))


@dataclass
class BoundednessReport:
    verdict: str                 # "bounded-suspected" | "unbounded-suspected"
    ratio: float
    sup_full: float
    sup_half: float
    growth: np.ndarray           # running max over samples of |D_n|


def classify_rho_boundedness(lift: Lift, n: int, fiber_samples: int,
                             threshold: float = 1.5, rho: float | None = None) -> BoundednessReport:
    """Heuristic deviation-growth dichotomy probe; the verdict is 'suspected' only."""
    if n < 100:
        raise ValueError("n >= 100 required")
    affine = lift.base.is_affine
    if rho is None:
        rho = rotation_number(lift, Fraction(0) if affine else 0.0, 0.0, n).value
    growth = np.zeros(n)
    for j in range(fiber_samples):
        theta = Fraction(j, fiber_samples) if affine else j / fiber_samples
        for x in (0.0, 1.0 / 3.0):
            trace = deviations(lift, theta, x, n, rho=rho)
            growth = np.maximum(growth, np.abs(trace.devs))
    growth = np.maximum.accumulate(growth)
    sup_full = float(growth[-1])
    sup_half = float(growth[n // 2 - 1])
    # deviations below the round-off of an n-step float sum carry no growth signal
    if sup_full <= n * n * 2.0**-52:
        ratio = 1.0
    else:
        ratio = sup_full / max(sup_half, 1e-300)
    verdict = "unbounded-suspected" if ratio > threshold else "bounded-suspected"
    return BoundednessReport(verdict=verdict, ratio=ratio, sup_full=sup_full,
                             sup_half=sup_half, growth=growth)
