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

from .circle import OMEGA_GOLDEN, RHO_SILVER, mod1
from .plgraph import PLGraph

EXACT_KINDS = ("translation", "skew")


@dataclass(frozen=True, eq=False)
class QpfSystem:
    """A family of monotone degree-one circle fiber maps over theta -> theta + omega."""

    omega: Fraction
    kind: str
    rho: Optional[Fraction] = None
    phi: Optional[PLGraph] = None
    fiber_fn: Optional[Callable] = None
    fiber_inv_fn: Optional[Callable] = None
    fiber_lift_fn: Optional[Callable] = None
    fiber_vec_fn: Optional[Callable] = None  # vectorized normalized-lift values
    table: Optional[np.ndarray] = None
    vertical_knots: Optional[np.ndarray] = None
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
    def from_callable(omega, fiber_fn, fiber_inv_fn=None, fiber_vec_fn=None,
                      fiber_lift_fn=None, kind="cocycle", label="") -> "QpfSystem":
        return QpfSystem(omega=Fraction(omega), kind=kind, fiber_fn=fiber_fn,
                         fiber_inv_fn=fiber_inv_fn, fiber_vec_fn=fiber_vec_fn,
                         fiber_lift_fn=fiber_lift_fn, label=label)

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

    def fiber_circle(self, theta, x):
        """Circle value f_theta(x) in [0, 1)."""
        if self.is_affine:
            return mod1(x + self.displacement(theta))
        if self.kind == "sampled":
            return mod1(self._table_lift(theta, x))
        return mod1(self.fiber_fn(theta, x))

    def fiber_circle_inv(self, theta, y):
        """Inverse fiber map on the circle."""
        if self.is_affine:
            return mod1(y - self.displacement(theta))
        if self.fiber_inv_fn is not None:
            return mod1(self.fiber_inv_fn(theta, y))
        return _bisect_inverse(lambda x: float(self.fiber_circle(theta, x)), y)

    def table_step(self, th: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Circle values of the tabulated fiber maps at arrays of points (th, x).

        Each point takes the nearest fiber row of the table, then linear
        interpolation in x between the vertical knots.
        """
        table = self.table
        vres = table.shape[1] - 1
        i = nearest_rows(th, table.shape[0])
        pos = np.clip(x * vres, 0.0, vres - 1e-9)
        j = pos.astype(int)
        frac = pos - j
        return (table[i, j] * (1.0 - frac) + table[i, j + 1] * frac) % 1.0

    def _table_lift(self, theta, x):
        g = self.table.shape[0]
        i = int(math.floor(float(theta) * g + 0.5)) % g
        m = math.floor(x)
        r = x - m
        return m + float(np.interp(r, self.vertical_knots, self.table[i]))

    def sample(self, fiber_grid: int, vertical_grid: int) -> "QpfSystem":
        """Tabulate normalized-lift fiber maps on a grid (the 'sampled' kind)."""
        knots = np.linspace(0.0, 1.0, vertical_grid + 1)
        lift = Lift(self)
        rows = np.empty((fiber_grid, vertical_grid + 1))
        for i in range(fiber_grid):
            theta = Fraction(i, fiber_grid) if self.is_affine else i / fiber_grid
            if self.fiber_vec_fn is not None:
                rows[i] = self.fiber_vec_fn(float(theta), knots)
            else:
                rows[i] = [float(lift.value(theta, float(x))) for x in knots]
        return QpfSystem(omega=self.omega, kind="sampled", table=rows,
                         vertical_knots=knots, label=f"sampled({self.label or self.kind})")


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
        if self.base.fiber_lift_fn is not None:
            return self.base.fiber_lift_fn(theta, x)
        m = math.floor(x)
        r = x - m
        f0 = float(self.base.fiber_circle(theta, 0.0))
        if r == 0:
            return m + f0
        delta = (float(self.base.fiber_circle(theta, r)) - f0) % 1.0
        return m + f0 + delta

    def inverse(self, theta, y):
        """x with F_theta(x) = y."""
        if self.base.is_affine:
            return y - mod1(self.base.displacement(theta))
        f0 = float(self.base.fiber_circle(theta, 0.0))
        w = (y - f0) % 1.0
        k = round(y - f0 - w)
        r = float(self.base.fiber_circle_inv(theta, y % 1.0))
        return k + r


def compose_fiber(lift: Lift, theta, n: int, x):
    """n-step fiber composition F^n_theta(x); n may be negative."""
    base = lift.base
    omega = base.omega if base.is_affine else float(base.omega)
    if not base.is_affine:
        theta = float(theta)
    cur = x
    if n >= 0:
        for k in range(n):
            cur = lift.value(mod1(theta + k * omega), cur)
    else:
        for k in range(1, -n + 1):
            cur = lift.inverse(mod1(theta - k * omega), cur)
    return cur


@dataclass
class RotationEstimate:
    value: float
    cauchy_gap: float
    n: int


def rotation_number(lift: Lift, theta0, x0, n: int) -> RotationEstimate:
    """Birkhoff estimate (F^n(x)-x)/n with the N vs N/2 Cauchy gap."""
    if n < 1:
        raise ValueError("n >= 1 required")
    base = lift.base
    omega = base.omega if base.is_affine else float(base.omega)
    if not base.is_affine:
        theta0 = float(theta0)
    cur = x0
    half = max(1, n // 2)
    est_half = None
    for k in range(n):
        cur = lift.value(mod1(theta0 + k * omega), cur)
        if k + 1 == half:
            est_half = (float(cur) - float(x0)) / half
    est = (float(cur) - float(x0)) / n
    return RotationEstimate(value=est, cauchy_gap=abs(est - (est_half if est_half is not None else est)), n=n)


@dataclass
class DeviationTrace:
    rho_estimate: float
    devs: np.ndarray          # D_1 .. D_N
    sup_growth: np.ndarray    # running sup |D_n|, nondecreasing

    def sup(self) -> float:
        return float(self.sup_growth[-1]) if len(self.sup_growth) else 0.0


def deviations(lift: Lift, theta, x, n: int, rho: float | None = None) -> DeviationTrace:
    """D_k = F^k_theta(x) - x - k*rho for k = 1..n."""
    if rho is None:
        rho = rotation_number(lift, theta, x, n).value
    base = lift.base
    omega = base.omega if base.is_affine else float(base.omega)
    if not base.is_affine:
        theta = float(theta)
    devs = np.empty(n)
    cur = x
    for k in range(n):
        cur = lift.value(mod1(theta + k * omega), cur)
        devs[k] = float(cur) - float(x) - (k + 1) * float(rho)
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
