"""Quasiperiodically forced circle systems, lifts, rotation numbers, deviations.

A QpfSystem is the map (theta, x) -> (theta + omega, f_theta(x)).  Exact kinds
(translation, PL skew rotation) evaluate in rational arithmetic and admit
exact curve images; every other system (a cocycle's projective action, the
blown-up map) evaluates through one float fiber map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .circle import OMEGA_GOLDEN, RHO_SILVER, mod1, mod1_array
from .plgraph import PLGraph

EXACT_KINDS = ("translation", "skew")

#: the deepest curve image |n| and window 2 * depth + 1 any system admits
MAX_DEPTH = 128

# QpfSystem.sample calls a callable system's map on this many rows at a time
_SAMPLE_ROWS = 32

# classify_rho_boundedness suspects unbounded deviations when the sup over
# the whole walk exceeds the sup over its first half by more than this factor
_GROWTH_RATIO = 1.5


@dataclass(frozen=True, eq=False)
class QpfSystem:
    """A family of monotone degree-one circle fiber maps over theta -> theta + omega.

    Affine kinds carry a displacement (rho or phi); the one other kind,
    "callable", carries a vectorized map circle_fn(theta, xs) -> f_theta(xs)
    mod 1, from which the lift and the sampled table are derived.  theta is
    a float or a column of thetas (shape (r, 1)) and xs a 1-D array of
    points; at a column the map returns one row of values per theta.
    """

    omega: Fraction
    kind: str
    rho: Optional[Fraction] = None
    phi: Optional[PLGraph] = None
    circle_fn: Optional[Callable] = None

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
    def from_callable(omega, circle_fn) -> "QpfSystem":
        return QpfSystem(omega=Fraction(omega), kind="callable", circle_fn=circle_fn)

    @property
    def is_affine(self) -> bool:
        return self.kind in EXACT_KINDS

    # -- fiber evaluation ----------------------------------------------------

    def displacement(self, theta):
        """Exact fiber displacement for affine kinds (at the Fraction of a float theta)."""
        if self.kind == "translation":
            return self.rho
        if self.kind == "skew":
            return self.phi.value(theta)
        raise ValueError(f"{self.kind} systems have no affine displacement")

    def circle_values(self, theta, xs) -> np.ndarray:
        """Circle values f_theta(xs) in [0, 1) at an array of points of one fiber."""
        xs = np.asarray(xs, dtype=float)
        if self.is_affine:
            return mod1_array(xs + float(self.displacement(theta)))
        return self.circle_fn(theta, xs)

    def sample(self, fiber_grid: int, vertical_grid: int) -> np.ndarray:
        """The normalized-lift fiber maps on a grid, one row per fiber.

        Row i holds the lift F at theta = i / fiber_grid at the vertical_grid + 1
        knots of [0, 1], with F(0) = f(0) in [0, 1), rising by exactly 1 over
        the fiber.  `row_step` steps a point through the table.  A callable
        system's map is called once per block of _SAMPLE_ROWS rows, on the
        column of their thetas.
        """
        knots = np.linspace(0.0, 1.0, vertical_grid + 1)
        rows = np.empty((fiber_grid, vertical_grid + 1))
        if self.is_affine:
            for i in range(fiber_grid):
                rows[i] = knots + float(mod1(self.displacement(Fraction(i, fiber_grid))))
            return rows
        for lo in range(0, fiber_grid, _SAMPLE_ROWS):
            block = rows[lo:lo + _SAMPLE_ROWS]
            thetas = np.arange(lo, lo + len(block))[:, None] / fiber_grid
            # a map constant in theta returns one row for the whole column
            vals = np.broadcast_to(self.circle_fn(thetas, knots), block.shape)
            f0 = vals[:, :1]
            np.subtract(vals, f0, out=block)
            block -= np.floor(block)        # mod1_array in place: np.mod's bits, faster
            block += f0
            block[:, -1:] = f0 + 1.0
        return rows


def nearest_rows(th: np.ndarray, g: int, dtype=int) -> np.ndarray:
    """Index of the nearest of g equally spaced fiber rows, per base point.

    The indices have the given integer dtype; the one float temporary,
    th * g + 0.5, is floored in place.
    """
    rows = th * g
    rows += 0.5
    np.floor(rows, out=rows)
    rows = rows.astype(dtype)
    rows %= g
    return rows


def row_step(table: np.ndarray, i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circle values of the tabulated fiber maps at points x of the rows i.

    The one array-valued step of a sampled map: linear interpolation in x
    between the vertical knots of row i, with x = 1 in the last cell.  Its
    float operations are those of the orbit kernel's scalar step, in the same
    order, so both give the same bits.
    """
    vk = table.shape[1]
    return flat_row_step(table.reshape(-1), vk - 1, i * vk, x)


def flat_row_step(flat: np.ndarray, vres: int, base: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`row_step` on the rows of the raveled table that start at the offsets base.

    The two knots of each point are read by `take` at base + j and
    base + j + 1, which is cheaper than a 2-D gather on a few hundred points.
    """
    pos = x * vres
    j = np.minimum(pos.astype(int), vres - 1)
    frac = pos - j
    k = base + j
    return mod1_array(flat.take(k) * (1.0 - frac) + flat.take(k + 1) * frac)


@lru_cache(maxsize=256)
def _pl_float_tables(graph: PLGraph):
    ts = np.array([float(t) for t in graph.thetas] + [float(graph.thetas[0]) + 1.0])
    vs = np.array([float(v) for v in graph.values] + [float(graph.values[0]) + graph.degree])
    return ts, vs


def pl_values_float(graph: PLGraph, t: np.ndarray) -> np.ndarray:
    """Float values of a PL circle graph at an array of thetas."""
    ts, vs = _pl_float_tables(graph)
    k = np.floor(t - ts[0])
    return np.interp(t - k, ts, vs) + k * graph.degree


@dataclass(frozen=True, eq=False)
class Lift:
    """Lift of a QpfSystem normalized by F_theta(0) in [0, 1)."""

    base: QpfSystem

    def value(self, theta, x):
        return self.values(theta, (x,))[0]

    def values(self, theta, xs) -> list:
        """F_theta at several points of one fiber, read through one circle_values call.

        Each point gets the operations of a one-point read, in the same order,
        so its value and type do not depend on the other points.
        """
        if self.base.is_affine:
            d = mod1(self.base.displacement(theta))
            return [x + d for x in xs]
        ms = [math.floor(x) for x in xs]
        f0, *frs = self.base.circle_values(theta, [0.0, *(x - m for x, m in zip(xs, ms))]).tolist()
        return [m + f0 + (fr - f0) % 1.0 for m, fr in zip(ms, frs)]


def _base_arithmetic(base: QpfSystem, theta):
    """theta and omega as exact numbers for affine kinds, as floats otherwise."""
    if base.is_affine:
        return theta, base.omega
    return float(theta), float(base.omega)


def _orbit(lift: Lift, theta, xs, n: int) -> list:
    """The iterates F^1_theta(x), ..., F^n_theta(x) of each start point x in xs.

    The start points share one theta orbit, so each step reads the fiber once
    for all of them (Lift.values).
    """
    orbits = [[] for _ in xs]
    if lift.base.kind == "translation":
        # every fiber adds the same mod1(rho), so theta is never read; a float
        # start adds float(step) once converted, as float + Fraction does each step
        step = mod1(lift.base.rho)
        for x, orbit in zip(xs, orbits):
            dx = float(step) if type(x) is float else step
            for _ in range(n):
                x = x + dx
                orbit.append(x)
        return orbits
    theta, omega = _base_arithmetic(lift.base, theta)
    for k in range(n):
        xs = lift.values(mod1(theta + k * omega), xs)
        for x, orbit in zip(xs, orbits):
            orbit.append(x)
    return orbits


@dataclass
class DeviationTrace:
    rho_estimate: float
    devs: np.ndarray          # D_1 .. D_N
    sup_growth: np.ndarray    # running sup |D_n|, nondecreasing


def _displacements(orbit: list, x) -> np.ndarray:
    """F^k(x) - x for k = 1..n, in floats."""
    return np.array([float(v) for v in orbit]) - float(x)


def _walk_displacements(lift: Lift, theta, x, n: int) -> np.ndarray:
    """F^k_theta(x) - x for k = 1..n, in floats: _displacements of the orbit walk.

    Over a translation base from an exact start, F^k(x) = x + k*mod1(rho)
    exactly.  Over a common denominator that is (a + k*b) / d in integers,
    and int / int rounds the quotient correctly, as float() of the Fraction
    does, so no Fraction is summed.
    """
    if lift.base.kind != "translation" or type(x) is float:
        return _displacements(_orbit(lift, theta, [x], n)[0], x)
    x, step = Fraction(x), mod1(lift.base.rho)
    d = x.denominator * step.denominator
    a, b = x.numerator * step.denominator, step.numerator * x.denominator
    return np.array([(a + k * b) / d for k in range(1, n + 1)]) - float(x)


def _deviation_trace(disp: np.ndarray, rho) -> DeviationTrace:
    devs = disp - np.arange(1, len(disp) + 1) * float(rho)
    return DeviationTrace(rho_estimate=float(rho), devs=devs,
                          sup_growth=np.maximum.accumulate(np.abs(devs)))


@dataclass
class RotationEstimate:
    value: float
    cauchy_gap: float
    n: int
    displacements: np.ndarray = field(repr=False, compare=False)   # F^k(x) - x, k = 1..n

    def deviations(self, m: int) -> DeviationTrace:
        """D_1 .. D_m of the estimate's own walk, against its value."""
        return _deviation_trace(self.displacements[:m], self.value)


def rotation_number(lift: Lift, theta0, x0, n: int) -> RotationEstimate:
    """Birkhoff estimate (F^n(x)-x)/n with the N vs N/2 Cauchy gap."""
    if n < 1:
        raise ValueError("n >= 1 required")
    disp = _walk_displacements(lift, theta0, x0, n)
    half = max(1, n // 2)
    est = float(disp[-1]) / n
    est_half = float(disp[half - 1]) / half
    return RotationEstimate(value=est, cauchy_gap=abs(est - est_half), n=n, displacements=disp)


def deviations(lift: Lift, theta, x, n: int, rho: float | None = None) -> DeviationTrace:
    """D_k = F^k_theta(x) - x - k*rho for k = 1..n; rho defaults to (F^n(x) - x)/n."""
    disp = _walk_displacements(lift, theta, x, n)
    return _deviation_trace(disp, float(disp[-1]) / n if rho is None else rho)


@dataclass
class BoundednessReport:
    verdict: str                 # "bounded-suspected" | "unbounded-suspected"
    ratio: float
    sup_full: float
    sup_half: float
    growth: np.ndarray           # running max over samples of |D_n|
    rho: float                   # the rotation number the deviations are taken against


def classify_rho_boundedness(lift: Lift, n: int, fiber_samples: int,
                             rho: float | None = None) -> BoundednessReport:
    """Heuristic deviation-growth dichotomy probe; the verdict is 'suspected' only.

    Each fiber sample walks its two start points together.  Without a given
    rho, rho is the Birkhoff estimate of the first walk, (theta, x) = (0, 0),
    as rotation_number gives it.
    """
    if n < 100:
        raise ValueError("n >= 100 required")
    affine = lift.base.is_affine
    starts = (0.0, 1.0 / 3.0)
    growth = np.zeros(n)
    for j in range(fiber_samples):
        theta = Fraction(j, fiber_samples) if affine else j / fiber_samples
        for x, orbit in zip(starts, _orbit(lift, theta, starts, n)):
            disp = _displacements(orbit, x)
            if rho is None:
                rho = float(disp[-1]) / n
            growth = np.maximum(growth, np.abs(_deviation_trace(disp, rho).devs))
    growth = np.maximum.accumulate(growth)
    sup_full = float(growth[-1])
    sup_half = float(growth[n // 2 - 1])
    # deviations below the round-off of an n-step float sum carry no growth signal
    if sup_full <= n * n * 2.0**-52:
        ratio = 1.0
    else:
        ratio = sup_full / max(sup_half, 1e-300)
    verdict = "unbounded-suspected" if ratio > _GROWTH_RATIO else "bounded-suspected"
    return BoundednessReport(verdict=verdict, ratio=ratio, sup_full=sup_full,
                             sup_half=sup_half, growth=growth, rho=rho)
