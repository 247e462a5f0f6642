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
from functools import lru_cache

import numpy as np

from .circle import mod1
from .errors import BumpBoundViolation, DensityNonpositive, PreconditionError, SupportGap
from .atlas import PartitionAtlas
from .measure import Projection
from .systems import QpfSystem
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
        self._cache = lru_cache(maxsize=32768)(self._fiber_uncached)

    def indices(self):
        w = self.atlas.mu.weights
        if w is not None:
            return list(w.bump_indices())
        return sorted(self.atlas.mu.curves.keys())

    def fiber(self, theta) -> dict:
        return self._cache(Fraction(theta))

    def _fiber_uncached(self, theta: Fraction) -> dict:
        fa = self.atlas.fiber(theta)
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
                    f"b_{m}({float(theta)}) = {float(bump.integral)} outside "
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
    layer_integrals: dict       # bump index -> Fraction, analytic
    min_h: float

    @property
    def total(self) -> float:
        return float(self.cum[-1])

    def _unroll(self, xs):
        return self.s0 + np.mod(np.asarray(xs, dtype=float) - self.s0, 1.0)

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
        return np.mod(np.interp(target, self.cum, self.knots), 1.0)


@dataclass(eq=False)
class DensityField:
    weights: WeightScheme
    atlas: PartitionAtlas
    bumps: BumpFamily

    def __post_init__(self):
        if self.weights.boundary_ratio >= 1:
            raise DensityNonpositive("weight scheme admits a nonpositive density")
        self._cache = lru_cache(maxsize=32768)(self._fiber_uncached)

    def fiber(self, theta) -> FiberDensity:
        return self._cache(Fraction(theta))

    def _fiber_uncached(self, theta: Fraction) -> FiberDensity:
        fa = self.atlas.fiber(theta)
        fb = self.bumps.fiber(theta)
        fp = self.atlas.projection.fiber(theta)
        w = self.weights
        s0 = fp.start
        pieces = []  # (u, h) knot pairs, exact Fractions
        layer = {}
        for m in self.bumps.indices():
            coef = (w.a(m) - w.a(m - 1)) / fb[m].integral
            for comp in fb[m].knots:
                for (u, g) in comp:
                    pieces.append((u, 1 - coef * g))
            layer[m] = w.a(m - 1)  # analytic value of the layer integral
        knot_list, kn = _knot_table(s0, (u for u, _ in pieces))
        val_map = {_unrolled(s0, u): h for u, h in pieces}
        hv = np.array([float(val_map.get(u, Fraction(1))) for u in knot_list])
        if hv.min() <= 0:
            raise DensityNonpositive(f"h <= 0 at theta={float(theta)}")
        cum = _trapezoid_cum(hv, kn)
        return FiberDensity(theta=theta, s0=float(s0), knots=kn, hvals=hv, cum=cum,
                            layer_integrals=layer, min_h=float(hv.min()))


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


# ---------------------------------------------------------------------------
# the measure nu for general (not necessarily Lebesgue-preserving) bases
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class NuFamily:
    """Fiber measures nu_theta as CDF knot tables (nu1 + nu2 construction)."""

    system: QpfSystem
    projection: Projection
    bumps: BumpFamily
    weights: WeightScheme

    def __post_init__(self):
        self._cache = lru_cache(maxsize=32768)(self._fiber_uncached)

    def fiber(self, theta) -> FiberDensity:
        return self._cache(Fraction(theta))

    def _fiber_uncached(self, theta: Fraction) -> FiberDensity:
        fp = self.projection.fiber(theta)
        fb = self.bumps.fiber(theta)
        fa = self.bumps.atlas.fiber(theta)
        w = self.weights
        base = fp.start
        bump_set = set(self.bumps.indices())
        plain = [m for m in self.projection.mu.curves if m not in bump_set]
        points = [u for m in self.bumps.indices() for comp in fb[m].knots for u, _ in comp]
        points += [end for m in plain for arc in fa.u[m] for end in arc]
        points += [end for p in fp.plateaus for end in (p.start, p.start + p.length)]
        _, kn = _knot_table(base, points)
        # nu1 density: sum_m (a_{m-1}/b_m) g_m
        g = np.zeros_like(kn)
        for m in self.bumps.indices():
            coef = float(w.a(m - 1) / fb[m].integral)
            for comp in fb[m].knots:
                cus = np.array([float(_unrolled(base, u)) for u, _ in comp])
                cgs = np.array([float(gv) for _, gv in comp])
                order = np.argsort(cus)
                inside = (kn >= cus.min()) & (kn <= cus.max())
                g[inside] += coef * np.interp(kn[inside], cus[order], cgs[order])
        nu1_cum = _trapezoid_cum(g, kn)
        # the window-edge layer has no bump in the truncated sum; it keeps
        # Lebesgue coverage, mirroring h = 1 there in the density route
        for m in plain:
            for lo, hi in fa.u[m]:
                alo = float(_unrolled(base, lo))
                ahi = alo + float(hi - lo)
                sel = (kn[:-1] >= alo - 1e-15) & (kn[1:] <= ahi + 1e-15)
                inc = np.where(sel, np.diff(kn), 0.0)
                nu1_cum[1:] += np.cumsum(inc)
        # nu2: beta * (R_* Leb) o pi, continuous and flat across plateaus
        targets = fp.map_array(np.mod(kn, 1.0))
        nu2_cum = np.zeros_like(kn)
        inv = self.system
        prev = 0.0
        for i in range(1, len(kn)):
            seg = _pushforward_arc_mass(inv, theta, targets[i - 1], targets[i])
            prev += float(self.projection.mu.beta) * seg
            nu2_cum[i] = prev
        cum = nu1_cum + nu2_cum
        if np.any(np.diff(cum) < -1e-15):
            raise SupportGap("nu fiber CDF decreased")
        if np.any(np.diff(cum) <= 1e-15):
            gaps = np.where(np.diff(cum) <= 1e-15)[0]
            # zero increments are legal only on zero-length knot intervals
            if np.any(np.diff(kn)[gaps] > 1e-12):
                raise SupportGap("nu fiber measure has a support gap")
        dens = np.gradient(cum, kn, edge_order=1)
        return FiberDensity(theta=theta, s0=float(base), knots=kn, hvals=dens, cum=cum,
                            layer_integrals={}, min_h=float(dens.min()))


def _unrolled(base: Fraction, u) -> Fraction:
    """The exact point u moved into [base, base + 1)."""
    return base + mod1(Fraction(u) - base)


def _knot_table(base: Fraction, points) -> tuple:
    """Sorted exact knots base, base + 1 and the unrolled points, with their floats."""
    knot_list = sorted({base, base + 1, *(_unrolled(base, u) for u in points)})
    return knot_list, np.array([float(u) for u in knot_list])


def _trapezoid_cum(vals: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Prefix integral of the PL function with these knot values, from 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(knots))))


def _pushforward_arc_mass(system: QpfSystem, theta: Fraction, y0: float, y1: float) -> float:
    """(R_* Leb)_theta mass of a short positively-oriented target arc [y0, y1].

    Adjacent knots are at most a fraction of the circle apart; a gap close to
    a full turn is a float wobble across a plateau boundary, not a real arc.
    """
    span = (y1 - y0) % 1.0
    if span == 0.0 or span > 0.5:
        return 0.0
    prev = theta - system.omega
    x0 = float(system.fiber_circle_inv(prev, y0))
    x1 = float(system.fiber_circle_inv(prev, y1))
    d = (x1 - x0) % 1.0
    return 0.0 if d > 0.5 else d


def build_nu_general(system: QpfSystem, projection: Projection, bumps: BumpFamily,
                     weights: WeightScheme) -> NuFamily:
    return NuFamily(system=system, projection=projection, bumps=bumps, weights=weights)
