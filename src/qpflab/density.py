"""Bump functions on the atlas and the transported density.

The bump g_n is the Urysohn profile: supported exactly on U_n, linear on
the two ends of U_n outside V_n and 1 on V_n; its fiber integral b_n(theta)
sits in [(1-eps)a_n, a_n].  The density
h = 1 - sum (a_{n+1}-a_n) g_{n+1}/b_{n+1} stays above 1 - boundary_ratio and
integrates to a_n over each layer U_{n+1}, which is what transports
mass a_n onto the image curve Gamma_{n+1} at finite truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

import numpy as np

from .chamber import ChamberTable, class_thetas, row_values
from .circle import mod1, mod1_array
from .errors import BumpBoundViolation, DensityNonpositive, EtaNotInvertible, InvariantViolation
from .atlas import PartitionAtlas
from .weights import WeightScheme

# audit_density's bound on a layer-integral defect, in vertical grid cells
_LAYER_TOL_CELLS = 10.0


@dataclass(frozen=True)
class FiberBump:
    index: int
    knots: tuple        # ((u0,g0),(u1,g1),...) per component, unrolled coords
    integral: Fraction  # b_n(theta), exact


@dataclass(eq=False)
class BumpFamily:
    atlas: PartitionAtlas

    def indices(self):
        w = self.atlas.mu.weights
        if w is not None:
            return list(w.bump_indices())
        return sorted(self.atlas.mu.curves.keys())

    def _fiber_uncached(self, theta: Fraction) -> dict:
        return self._bumps(theta, self.atlas.fiber(theta))

    def _bumps(self, theta, fa) -> dict:
        masses, epsilon = self.atlas.mu.masses, self.atlas.epsilon
        out = {}
        for m in self.indices():
            knots = []
            total = Fraction(0)
            for (lo, hi), (vlo, vhi) in zip(fa.u[m], fa.v[m]):
                knots.append(((lo, Fraction(0)), (vlo, Fraction(1)),
                              (vhi, Fraction(1)), (hi, Fraction(0))))
                total += (hi - lo) - ((vlo - lo) + (hi - vhi)) / 2
            lo_ok = total >= (1 - epsilon) * masses[m]
            hi_ok = total <= masses[m]
            if not (lo_ok and hi_ok):
                raise BumpBoundViolation(
                    f"b_{m}({theta}) = {float(total)} outside "
                    f"[(1-eps)a, a] = [{float((1-epsilon)*masses[m])}, {float(masses[m])}]")
            out[m] = FiberBump(index=m, knots=tuple(knots), integral=total)
        return out


# ---------------------------------------------------------------------------
# transported density
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FiberDensity:
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

    def _cum_at(self, x0: float) -> float:
        """The prefix integral at one point: _unroll and np.interp on floats, not arrays."""
        d = x0 - self.s0
        return float(np.interp(self.s0 + (d - math.floor(d)), self.knots, self.cum))

    def mass_from(self, x0: float, xs) -> np.ndarray:
        """nu-mass of the positively-oriented arc [x0, x]."""
        cx = np.interp(self._unroll(xs), self.knots, self.cum)
        return np.mod(cx - self._cum_at(x0), self.total)

    def quantile_from(self, x0: float, us) -> np.ndarray:
        """y with nu[x0, y] = u (mod total); inverse of mass_from."""
        target = np.mod(self._cum_at(x0) + np.asarray(us, dtype=float), self.total)
        return mod1_array(np.interp(target, self.cum, self.knots))


@dataclass(eq=False)
class DensityField:
    weights: WeightScheme
    atlas: PartitionAtlas

    def __post_init__(self):
        if self.weights.boundary_ratio >= 1:
            raise DensityNonpositive("weight scheme admits a nonpositive density")

    @cached_property
    def bumps(self) -> BumpFamily:
        """The Urysohn bumps of this field's own atlas."""
        return BumpFamily(self.atlas)

    @cached_property
    def chambers(self) -> ChamberTable:
        """The atlas chambers, split where two density knots cross; the bumps are built inside."""
        return ChamberTable(self.atlas.chambers.cuts, lambda probe: self._knots(
            self.atlas.projection.chambers.template_on(probe),
            self.bumps._bumps(None, self.atlas.chambers.template_on(probe))),
            self._fiber_uncached)

    def fiber(self, theta) -> FiberDensity:
        return self.chambers.fiber(theta, lambda ch: _DensityRows(
            *ch.compiled(_density_leaves), f"theta in [{float(ch.a)}, {float(ch.b)}]"))

    def _fiber_uncached(self, theta: Fraction) -> FiberDensity:
        exact = self._knots(self.atlas.projection.fiber(theta), self.bumps._fiber_uncached(theta))
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
        # each knot is hashed once, here or by setdefault; the ends take h = 1
        val_map = {_unrolled(s0, u): h for u, h in pieces}
        val_map.setdefault(s0, Fraction(1))
        val_map.setdefault(s0 + 1, Fraction(1))
        knots, hvals = zip(*sorted(val_map.items(), key=itemgetter(0)))
        return knots, hvals


def _density_leaves(exact: tuple) -> tuple:
    """The numbers a FiberDensity is made of: the knots, then h at the knots."""
    knots, hvals = exact
    return (*knots, *hvals)


def _density_fiber(theta, floats: list) -> FiberDensity:
    """The float fiber at theta from the floats of _density_leaves."""
    return _DensityRows(floats, [], f"theta={float(theta)}")(theta, None)


class _DensityRows:
    """The float fibers of one density chamber, from the floats and rows of _density_leaves.

    h is constant on a chamber, which its rows confirm, so its array, its
    minimum and the check h > 0 are made once.  A read fills in the affine
    knots (chamber.row_values), s0 being the first, and checks that the
    mass coordinate it integrates is invertible.
    """

    def __init__(self, floats: list, rows: list, where: str):
        k = len(floats) // 2
        self.rows, self.affine = rows, [i for i, *_ in rows]
        if any(i >= k for i in self.affine):
            raise InvariantViolation(f"h is not constant on {where}")
        self.knots, self.hvals = np.array(floats[:k]), np.array(floats[k:])
        self.min_h = float(self.hvals.min())
        if self.min_h <= 0:
            raise DensityNonpositive(f"h <= 0 at {where}")
        self.mean_h = 0.5 * (self.hvals[1:] + self.hvals[:-1])     # the trapezoids' mean heights

    def __call__(self, theta, t) -> FiberDensity:
        kn = self.knots
        if self.rows:
            kn = kn.copy()
            kn[self.affine] = [x for _, x in row_values(self.rows, t)]
        cum = np.zeros(len(kn))
        np.cumsum(self.mean_h * (kn[1:] - kn[:-1]), out=cum[1:])
        if cum[-1] <= 0 or (cum[1:] < cum[:-1]).any():
            raise EtaNotInvertible(f"nu mass coordinate is not invertible at theta={float(theta)}")
        return FiberDensity(s0=float(kn[0]), knots=kn, hvals=self.hvals, cum=cum, min_h=self.min_h)


def audit_density(field: DensityField, grid: int, vertical: int = 4096) -> dict:
    """Grid audit: positivity floor and the layer-integral transport identities.

    Layer integrals are recomputed from the assembled knot table (the
    trapezoid rule is exact on the PL density), not from the identity that
    produced them.  The audit reads the density and atlas fibers, so it reads
    one theta per grid class of those two tables (chamber.class_thetas).
    """
    w = field.weights
    floor = float(w.min_density_bound())
    min_h, min_at = 1.0, Fraction(0)
    worst_layer = 0.0
    for theta in class_thetas(grid, [(field.chambers, 0), (field.atlas.chambers, 0)]):
        fd = field.fiber(theta)
        if fd.min_h < min_h:
            min_h, min_at = fd.min_h, theta
        fa = field.atlas.fiber(theta)
        for m in field.bumps.indices():
            arcs = np.array([[float(lo), float(hi)] for lo, hi in fa.u[m]])
            clo = np.interp(fd._unroll(arcs[:, 0]), fd.knots, fd.cum)
            chi = np.interp(fd._unroll(arcs[:, 1]), fd.knots, fd.cum)
            integral = float(np.sum(np.mod(chi - clo, fd.total)))
            worst_layer = max(worst_layer, abs(integral - float(w.a(m - 1))))
    if min_h < floor - 1e-12:
        raise DensityNonpositive(
            f"min h {min_h} at theta={float(min_at)} below the derived floor {floor}")
    if worst_layer > _LAYER_TOL_CELLS / vertical:
        raise DensityNonpositive(f"layer integral defect {worst_layer}")
    return {"min_h": min_h, "floor": floor, "worst_layer_defect": worst_layer}


def _unrolled(base: Fraction, u) -> Fraction:
    """The exact point u moved into [base, base + 1)."""
    return base + mod1(u - base)

