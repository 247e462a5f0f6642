"""Bump functions on the atlas and the transported density.

The bump g_n is supported exactly on U_n with unit plateau on V_n (Urysohn
variant) or the Hoelder profile min{1, (C d(x, U^c))^alpha}; its fiber
integral b_n(theta) sits in [(1-eps)a_n, a_n].  The density
h = 1 - sum (a_{n+1}-a_n) g_{n+1}/b_{n+1} stays above 1 - boundary_ratio and
integrates to a_n over each layer U_{n+1}, which is what transports
mass a_n onto the image curve Gamma_{n+1} at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chamber import ChamberTable
from .circle import mod1, mod1_array
from .errors import BumpBoundViolation, DensityNonpositive, PreconditionError
from .atlas import PartitionAtlas
from .weights import WeightScheme


@dataclass(frozen=True)
class FiberBump:
    index: int
    knots: tuple        # ((u0,g0),(u1,g1),...) per component, unrolled coords
    integral: Fraction  # b_n(theta), exact for the urysohn variant
    hoelder_constant: float | None = None


@dataclass(eq=False)
class BumpFamily:
    atlas: PartitionAtlas
    epsilon: Fraction
    variant: str                 # "urysohn" | "hoelder"
    alpha: float | None = None

    def __post_init__(self):
        if self.variant not in ("urysohn", "hoelder"):
            raise PreconditionError(f"unknown bump variant {self.variant!r}")
        if self.variant == "hoelder" and not (self.alpha and 0 < self.alpha < 0.5):
            raise PreconditionError("hoelder bumps need alpha in (0, 1/2)")

    def indices(self):
        w = self.atlas.mu.weights
        if w is not None:
            return list(w.bump_indices())
        return sorted(self.atlas.mu.curves.keys())

    @cached_property
    def chambers(self) -> ChamberTable:
        """The atlas chambers; urysohn bumps are affine wherever the atlas is."""
        return ChamberTable(self.atlas.chambers.cuts,
                            lambda probe: self._bumps(None, self.atlas.chambers.template_on(probe)))

    def fiber(self, theta) -> dict:
        if self.variant == "hoelder":  # float profiles, evaluated per theta
            return self._fiber_uncached(Fraction(theta))
        return self.chambers.fiber(theta, self._fiber_uncached)

    def _fiber_uncached(self, theta: Fraction) -> dict:
        return self._bumps(theta, self.atlas.fiber(theta))

    def _bumps(self, theta, fa) -> dict:
        masses = self.atlas.mu.masses
        out = {}
        for m in self.indices():
            arcs = fa.u[m]
            if self.variant == "urysohn":
                knots = []
                total = Fraction(0)
                for (lo, hi), (vlo, vhi) in zip(arcs, fa.v[m]):
                    knots.append(((lo, Fraction(0)), (vlo, Fraction(1)),
                                  (vhi, Fraction(1)), (hi, Fraction(0))))
                    total += (hi - lo) - ((vlo - lo) + (hi - vhi)) / 2
                bump = FiberBump(index=m, knots=tuple(knots), integral=total)
            else:
                bump = self._hoelder_bump(m, arcs, masses[m])
            lo_ok = bump.integral >= (1 - self.epsilon) * masses[m]
            hi_ok = bump.integral <= masses[m]
            if not (lo_ok and hi_ok):
                raise BumpBoundViolation(
                    f"b_{m}({theta}) = {float(bump.integral)} outside "
                    f"[(1-eps)a, a] = [{float((1-self.epsilon)*masses[m])}, {float(masses[m])}]")
            out[m] = bump
        return out

    def _hoelder_bump(self, m: int, arcs, mass: Fraction) -> FiberBump:
        alpha = float(self.alpha)
        c = float((4 * abs(m) + 2) / (self.epsilon * mass))
        # piecewise profile sampled on each component; integral computed analytically
        total = 0.0
        knots = []
        d_star = (1.0 / c)
        for lo, hi in arcs:
            length = float(hi - lo)
            half = length / 2
            pts = [(float(lo), 0.0)]
            for frac in (0.125, 0.25, 0.375, 0.5):
                d = half * 2 * frac if half * 2 * frac <= half else half
                g = min(1.0, (c * d) ** alpha)
                pts.append((float(lo) + d, g))
            for frac in (0.625, 0.75, 0.875):
                d = length * (1 - frac)
                pts.append((float(lo) + length * frac, min(1.0, (c * d) ** alpha)))
            pts.append((float(hi), 0.0))
            if half <= d_star:
                part = 2 * (c ** alpha) * half ** (alpha + 1) / (alpha + 1)
            else:
                part = 2 * ((c ** alpha) * d_star ** (alpha + 1) / (alpha + 1) + (half - d_star))
            total += part
            knots.append(tuple((Fraction(p).limit_denominator(10**12), Fraction(g).limit_denominator(10**12))
                               for p, g in pts))
        return FiberBump(index=m, knots=tuple(knots),
                         integral=Fraction(total).limit_denominator(10**12),
                         hoelder_constant=c ** alpha)


# ---------------------------------------------------------------------------
# transported density
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FiberDensity:
    theta: Fraction
    s0: float                   # unroll base (anchor plateau start)
    knots: np.ndarray           # sorted in [s0, s0 + 1]
    hvals: np.ndarray
    cum: np.ndarray             # exact trapezoid prefix integral, cum[0] = 0
    min_h: float

    @property
    def total(self) -> float:
        return float(self.cum[-1])

    def _unroll(self, xs):
        return self.s0 + mod1_array(np.asarray(xs, dtype=float) - self.s0)

    def eval_h(self, xs) -> np.ndarray:
        return np.interp(self._unroll(xs), self.knots, self.hvals)

    def mass_from(self, x0: float, xs) -> np.ndarray:
        """nu-mass of the positively-oriented arc [x0, x]."""
        cum0 = float(np.interp(self._unroll(np.array([x0]))[0], self.knots, self.cum))
        cx = np.interp(self._unroll(xs), self.knots, self.cum)
        return np.mod(cx - cum0, self.total)

    def quantile_from(self, x0: float, us) -> np.ndarray:
        """y with nu[x0, y] = u (mod total); inverse of mass_from."""
        cum0 = float(np.interp(self._unroll(np.array([x0]))[0], self.knots, self.cum))
        target = np.mod(cum0 + np.asarray(us, dtype=float), self.total)
        return mod1_array(np.interp(target, self.cum, self.knots))


@dataclass(eq=False)
class DensityField:
    weights: WeightScheme
    atlas: PartitionAtlas
    bumps: BumpFamily

    def __post_init__(self):
        if self.weights.boundary_ratio >= 1:
            raise DensityNonpositive("weight scheme admits a nonpositive density")

    @cached_property
    def chambers(self) -> ChamberTable:
        """The bump chambers, split where two density knots cross."""
        return ChamberTable(self.bumps.chambers.cuts, lambda probe: self._knots(
            self.atlas.projection.chambers.template_on(probe),
            self.bumps.chambers.template_on(probe)))

    def fiber(self, theta) -> FiberDensity:
        return self.chambers.fiber(theta, self._fiber_uncached, _density_fiber, _density_leaves)

    def _fiber_uncached(self, theta: Fraction) -> FiberDensity:
        exact = self._knots(self.atlas.projection.fiber(theta), self.bumps.fiber(theta))
        return _density_fiber(theta, [float(x) for x in _density_leaves(exact)])

    def _knots(self, fp, fb) -> tuple:
        """Exact (sorted knots from s0 to s0 + 1, h at the knots) of one fiber."""
        w = self.weights
        s0 = fp.start
        pieces = []  # (u, h) knot pairs, exact
        for m in self.bumps.indices():
            coef = (w.a(m) - w.a(m - 1)) / fb[m].integral
            for comp in fb[m].knots:
                for (u, g) in comp:
                    pieces.append((u, 1 - coef * g))
        knots = sorted({s0, s0 + 1, *(_unrolled(s0, u) for u, _ in pieces)})
        val_map = {_unrolled(s0, u): h for u, h in pieces}
        return tuple(knots), tuple(val_map.get(u, Fraction(1)) for u in knots)


def _density_leaves(exact: tuple) -> tuple:
    """The numbers a FiberDensity is made of: the knots, then h at the knots."""
    knots, hvals = exact
    return (*knots, *hvals)


def _density_fiber(theta, floats: list) -> FiberDensity:
    """The float fiber from the floats of _density_leaves (s0 is the first knot)."""
    k = len(floats) // 2
    kn, hv = np.array(floats[:k]), np.array(floats[k:])
    if hv.min() <= 0:
        raise DensityNonpositive(f"h <= 0 at theta={float(theta)}")
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (hv[1:] + hv[:-1]) * np.diff(kn))))
    return FiberDensity(theta=theta, s0=floats[0], knots=kn, hvals=hv, cum=cum,
                        min_h=float(hv.min()))


def build_bumps(atlas: PartitionAtlas, epsilon, variant: str = "urysohn",
                alpha: float | None = None) -> BumpFamily:
    return BumpFamily(atlas=atlas, epsilon=Fraction(epsilon), variant=variant, alpha=alpha)


def build_density_h(weights: WeightScheme, atlas: PartitionAtlas, bumps: BumpFamily) -> DensityField:
    if bumps.variant != "urysohn":
        raise PreconditionError("the transported pipeline uses the urysohn bump variant")
    return DensityField(weights=weights, atlas=atlas, bumps=bumps)


def audit_density(field: DensityField, grid: int, tol_cells: float = 10.0,
                  vertical: int = 4096) -> dict:
    """Grid audit: positivity floor and the layer-integral transport identities.

    Layer integrals are recomputed from the assembled knot table (the
    trapezoid rule is exact on the PL density), not from the identity that
    produced them.
    """
    w = field.weights
    floor = float(w.min_density_bound())
    min_h = 1.0
    worst_layer = 0.0
    for g in range(grid):
        theta = Fraction(g, grid)
        fd = field.fiber(theta)
        min_h = min(min_h, fd.min_h)
        fa = field.atlas.fiber(theta)
        for m in field.bumps.indices():
            arcs = np.array([[float(lo), float(hi)] for lo, hi in fa.u[m]])
            clo = np.interp(fd._unroll(arcs[:, 0]), fd.knots, fd.cum)
            chi = np.interp(fd._unroll(arcs[:, 1]), fd.knots, fd.cum)
            integral = float(np.sum(np.mod(chi - clo, fd.total)))
            worst_layer = max(worst_layer, abs(integral - float(w.a(m - 1))))
    if min_h < floor - 1e-12:
        raise DensityNonpositive(f"min h {min_h} below the derived floor {floor}")
    if worst_layer > tol_cells / vertical:
        raise DensityNonpositive(f"layer integral defect {worst_layer}")
    return {"min_h": min_h, "floor": floor, "worst_layer_defect": worst_layer}


def _unrolled(base: Fraction, u) -> Fraction:
    """The exact point u moved into [base, base + 1)."""
    return base + mod1(u - base)

