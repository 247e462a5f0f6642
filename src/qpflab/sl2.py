"""Quasiperiodic SL(2,R) cocycles and their projective circle dynamics.

The projective chart is x = (direction angle)/pi mod 1, so the rotation
matrix by angle pi*phi acts as x -> x + phi and the two-point minimal set of
the quarter-turn cocycle lands exactly on {x, x + 1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import OMEGA_GOLDEN, mod1_array, orbit_thetas
from .errors import PreconditionError
from .minimal import _ROW_BLOCK, FiberSet, approximate_minimal_set
from .systems import QpfSystem

# lyapunov takes its thetas in chunks of at most this many steps, the
# orbit kernel's block
_THETA_CHUNK = 1 << 14
# lyapunov renormalizes the running product every this many steps
_RENORM_EVERY = 32
# Mat2.require_unimodular's bound on |det - 1|
_UNIMODULAR_TOL = 1e-12
# minimal_fiber_cardinality counts the clusters of this many random fibers
_CARDINALITY_FIBERS = 256


def _mul(p: tuple, q: tuple) -> tuple:
    """Entries of the product p @ q of 2x2 matrices given as (a, b, c, d)."""
    return (p[0] * q[0] + p[1] * q[2],
            p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2],
            p[2] * q[1] + p[3] * q[3])


def _det(m: tuple) -> float:
    return m[0] * m[3] - m[1] * m[2]


def _norm(m: tuple) -> float:
    return math.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2 + m[3] ** 2)


@dataclass(frozen=True)
class Mat2:
    a: float
    b: float
    c: float
    d: float

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> float:
        return _det(self.entries())

    def require_unimodular(self) -> "Mat2":
        if abs(self.det() - 1.0) > _UNIMODULAR_TOL:
            raise PreconditionError(f"matrix determinant {self.det()} != 1: not in SL(2,R)")
        return self

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_mul(self.entries(), other.entries()))

    def norm(self) -> float:
        return _norm(self.entries())


def projective_action_array(m: Mat2, xs: np.ndarray) -> np.ndarray:
    """Image directions of the lines at angles pi*xs under the matrix."""
    t = np.pi * np.mod(xs, 1.0)
    cv, sv = np.cos(t), np.sin(t)
    return mod1_array(np.arctan2(m.c * cv + m.d * sv, m.a * cv + m.b * sv) / np.pi)


@dataclass(frozen=True, eq=False)
class Cocycle:
    omega: Fraction
    family: str              # "constant" | "rotation" | "diagonal" | "harper"
    params: tuple

    def entries(self, theta) -> tuple:
        """Entries (a, b, c, d) of the matrix at theta, a float or an array of thetas.

        An entry that varies with theta is an array at an array of thetas;
        every other entry is a plain float.
        """
        if self.family == "constant":
            return self.params
        if self.family == "rotation":
            t = math.pi * self.params[0]
            return (math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
        if self.family == "diagonal":
            lam = self.params[0]
            return (lam, 0.0, 0.0, 1.0 / lam)
        if self.family == "harper":
            energy, lam = self.params
            return (energy - 2.0 * lam * np.cos(2 * np.pi * theta), -1.0, 1.0, 0.0)
        raise PreconditionError(f"unknown cocycle family {self.family!r}")

    def matrix(self, theta: float) -> Mat2:
        return Mat2(*self.entries(theta))

    @staticmethod
    def constant(m: Mat2, omega=OMEGA_GOLDEN) -> "Cocycle":
        m.require_unimodular()
        return Cocycle(omega=Fraction(omega), family="constant", params=(m.a, m.b, m.c, m.d))

    @staticmethod
    def rotation(angle_over_pi: float, omega=OMEGA_GOLDEN) -> "Cocycle":
        return Cocycle(omega=Fraction(omega), family="rotation", params=(angle_over_pi,))

    @staticmethod
    def diagonal(lam: float, omega=OMEGA_GOLDEN) -> "Cocycle":
        if lam == 0:
            raise PreconditionError("diagonal cocycle needs lam != 0 (diag(lam, 1/lam))")
        return Cocycle(omega=Fraction(omega), family="diagonal", params=(lam,))

    @staticmethod
    def harper(energy: float, lam: float, omega=OMEGA_GOLDEN) -> "Cocycle":
        return Cocycle(omega=Fraction(omega), family="harper", params=(energy, lam))


def cocycle_qpf(c: Cocycle) -> QpfSystem:
    """The qpf circle system induced by the projective action.

    At a column of thetas the matrix entries are columns, and the action
    broadcasts to one row of values per theta.
    """
    return QpfSystem.from_callable(
        c.omega, lambda theta, xs: projective_action_array(c.matrix(theta), xs))


@dataclass
class LyapunovEstimate:
    value: float
    n: int
    det_drift: float     # sum of |log det| over the blocks of norm below 1e6


def lyapunov(c: Cocycle, n: int, theta0: float = 0.0) -> LyapunovEstimate:
    """(1/N) log ||A^N|| with periodic norm renormalization of the running product.

    The thetas come from `orbit_thetas` in chunks of at most _THETA_CHUNK
    steps, whole blocks each.  The renormalization blocks of a chunk are
    formed side by side (`_block_products`), each in the order of the
    one-step loop, so its determinant (exactly 1 for an SL(2,R) product)
    measures the float drift block by block.  det_drift sums |log det| over
    the blocks of norm below 1e6 only: in a larger block the determinant
    cancels to noise.  On a strongly hyperbolic cocycle that leaves out
    every full block (Harper E=0, lambda=2: all 32-step blocks), so
    det_drift reads 0 there or covers only a shorter final block.
    """
    if n < 10**3:
        raise PreconditionError("n >= 1000 required")
    omega = float(c.omega)
    b = (1.0, 0.0, 0.0, 1.0)
    log_norm = 0.0
    drift_log = 0.0
    theta0 %= 1.0
    span = max(1, _THETA_CHUNK // _RENORM_EVERY) * _RENORM_EVERY
    for lo in range(0, n, span):
        thetas = orbit_thetas(theta0, omega, lo, min(lo + span, n))
        blocks = _block_products(c, thetas, _RENORM_EVERY)
        for chunk in zip(*(e.tolist() for e in blocks)):
            d = _det(chunk)
            if d > 0:
                # |log det| of an exactly-unimodular block measures the float drift;
                # for strongly hyperbolic blocks the subtraction cancels and the
                # chunk is skipped rather than reported as fake drift
                if _norm(chunk) < 1e6:
                    drift_log += abs(math.log(d))
            acc = _mul(chunk, b)
            s = _norm(acc)
            log_norm += math.log(s)
            b = (acc[0] / s, acc[1] / s, acc[2] / s, acc[3] / s)
    return LyapunovEstimate(value=log_norm / n, n=n, det_drift=abs(drift_log))


def _block_products(c: Cocycle, thetas: np.ndarray, size: int) -> tuple:
    """Entry arrays of A(theta_{s+size-1}) ... A(theta_s) over consecutive blocks of thetas.

    Block j covers thetas[j*size:(j+1)*size]; the last may be shorter.  All
    blocks take one array step at a time, chunk = A(theta_t) @ chunk from
    the identity, which are the float operations of the one-step loop in
    the same order.
    """
    count = -(-len(thetas) // size)
    prod = (np.ones(count), np.zeros(count), np.zeros(count), np.ones(count))
    for t in range(min(size, len(thetas))):
        ts = thetas[t::size]            # the blocks that have a step t
        k = len(ts)
        step = _mul(c.entries(ts), tuple(e[:k] for e in prod))
        for e, v in zip(prod, step):
            e[:k] = v
    return prod


@dataclass
class CardinalityReport:
    histogram: dict            # cluster count -> number of sampled fibers
    modal_count: int
    modal_fraction: float
    occupancy_fraction: float
    verdict: str
    flag: str | None


def minimal_fiber_cardinality(c: Cocycle, fiber_grid: int = 1024, vertical_grid: int = 1024,
                              bins: int = 1024, iters: int = 2 * 10**6, burnin: int = 10**4,
                              cluster_tol: int = 8, seed: int = 0) -> CardinalityReport:
    """Histogram of per-fiber cluster counts of the approximate minimal set."""
    if cluster_tol < 2:
        raise PreconditionError("cluster tolerance must be at least 2 bins")
    system = cocycle_qpf(c)
    fs = approximate_minimal_set(system, burnin=burnin, iters=iters,
                                 fiber_grid=fiber_grid, vertical_grid=vertical_grid,
                                 bins=bins, seed=seed)
    occupancy = fs.occupied_count() / (bins * bins)
    hist: dict = {}
    rng = np.random.default_rng(seed + 1)
    fibers = rng.integers(0, bins, size=_CARDINALITY_FIBERS)
    for i in fibers:
        occ = fs.fiber_occupancy(int(i))
        if len(occ) == 0:
            continue
        count = _cluster_count(occ, bins, cluster_tol)
        hist[count] = hist.get(count, 0) + 1
    if not hist:
        return CardinalityReport(histogram={}, modal_count=0, modal_fraction=0.0,
                                 occupancy_fraction=occupancy, verdict="inconclusive", flag=None)
    modal = max(hist, key=lambda k: hist[k])
    frac = hist[modal] / sum(hist.values())
    continuity = _graph_continuity(fs, cluster_tol)
    if occupancy > 0.5:
        verdict = "whole-torus"
    elif frac >= 0.9 and continuity >= 0.99:
        verdict = "(p,q)-graph-like"
    elif frac >= 0.99 and modal == 1:
        verdict = "one-point"
    elif frac >= 0.99 and modal == 2:
        verdict = "two-point"
    else:
        verdict = "inconclusive"
    flag = None
    if verdict == "one-point":
        flag = ("one-point verdict observed: no non-minimal strip-free linear example "
                "is known, so this deserves scrutiny")
    return CardinalityReport(histogram=dict(sorted(hist.items())), modal_count=modal,
                             modal_fraction=frac, occupancy_fraction=occupancy,
                             verdict=verdict, flag=flag)


def _graph_continuity(fs: FiberSet, tol: int) -> float:
    """Fraction of adjacent occupied fiber pairs whose sets track within tol bins.

    Fiber i tracks fiber i + 1 (the last one the first) when each of its bins
    lies within tol bins, circularly, of one of the next fiber's.  The next
    fibers are dilated _ROW_BLOCK rows at a time.
    """
    b = fs.bins
    n = len(b)
    occupied = b.any(axis=1)
    rows = occupied & np.roll(occupied, -1)
    if not rows.any():
        return 0.0
    ok = np.empty(n, dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        nxt = b[np.arange(lo + 1, min(lo + _ROW_BLOCK, n) + 1) % n]
        dilated = nxt.copy()
        for d in range(1, tol + 1):
            dilated |= np.roll(nxt, d, axis=1) | np.roll(nxt, -d, axis=1)
        ok[lo:lo + _ROW_BLOCK] = ~(b[lo:lo + _ROW_BLOCK] & ~dilated).any(axis=1)
    return float(np.mean(ok[rows]))


def _cluster_count(occupied: np.ndarray, bins: int, tol: int) -> int:
    """Circular gap-splitting cluster count of occupied bin indices."""
    if len(occupied) == 0:
        return 0
    gaps = np.diff(occupied)
    wrap_gap = occupied[0] + bins - occupied[-1]
    splits = int(np.sum(gaps > tol)) + (1 if wrap_gap > tol else 0)
    return max(1, splits)
