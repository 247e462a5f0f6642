"""The transported homeomorphism f and its semi-conjugacy contract.

f_theta is the monotone transport sending Lebesgue measure onto nu_{theta+w}
while mapping the bottom edge of the blown-up Gamma_0 to the bottom edge of
the blown-up Gamma_1, its image: pi is anchored at curve 0 and f carries
curve 0 onto curve 1.  At finite truncation pi_* nu differs from R_* mu by the relocated
edge atoms (total variation a_N + a_{-N}); the beta density floor converts
that mass defect into the sup-residual bound a_N / beta for pi o f vs R o pi.
R's fiber map at theta is the rotation by d(theta), so R_* mu at theta + w is
mu at theta with every atom moved by d(theta) (``pushed``); the projection
built from R_* mu satisfies the commuting identity to grid precision by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chamber import class_thetas, grid_pass, map_leaves
from .circle import mod1, mod1_array
from .errors import InvariantViolation, PreconditionError
from .measure import FiberMeasure, Projection, quantile_table
from .systems import QpfSystem

# a witness's hitting-time probe walks f at most this many steps past its m
_PROBE_SLACK = 64


@dataclass(eq=False)
class TransportedMap:
    """Fiberwise f_theta = eta_{theta+w}^{-1} o Leb[phi0^-(theta), .]."""

    system: QpfSystem            # the base R (supplies omega)
    nu: object                   # per-fiber CDF tables (a DensityField)
    projection: Projection

    def __post_init__(self):
        if 1 not in self.projection.mu.curves:
            raise PreconditionError("image curve 1 missing from the family")

    def phi_minus(self, theta, curve: int) -> float:
        """Bottom edge of the blown curve: inf pi^{-1}(Gamma_curve) at this fiber.

        It is read from the projection chamber's integer rows.
        """
        ch, t = self.projection.chambers.locate(theta)
        return ch.floats(t, _plateau_start(curve), reduce=True)[0]

    def fiber_values(self, theta, xs) -> np.ndarray:
        """Circle values of f_theta on an array of source points.

        theta and theta + omega are reduced mod 1 once, for the three tables read.
        """
        theta = mod1(theta if isinstance(theta, Fraction) else Fraction(theta))
        theta_next = mod1(theta + self.system.omega)
        fd = self.nu.fiber(theta_next)
        p0 = self.phi_minus(theta, 0)
        p1 = self.phi_minus(theta_next, 1)
        us = mod1_array(np.asarray(xs, dtype=float) - p0) * fd.total
        return fd.quantile_from(p1, us)

    def as_system(self) -> QpfSystem:
        """f as a callable system; a column of thetas is read one exact fiber at a time."""
        def fiber(theta, xs):
            th = theta if isinstance(theta, Fraction) else Fraction(theta).limit_denominator(10**15)
            return self.fiber_values(th, xs)

        def circle_fn(theta, xs):
            if np.ndim(theta) == 0:
                return fiber(theta, xs)
            return np.stack([fiber(th, xs) for th in np.ravel(theta).tolist()])

        return QpfSystem.from_callable(self.system.omega, circle_fn)


@lru_cache(maxsize=None)
def _plateau_start(curve: int):
    """The leaves phi_minus reads off a projection fiber: the start of the curve's plateau.

    One function per curve, so each chamber compiles the row once (Chamber.floats).
    """
    return lambda fp: [fp.plateau_of(curve).start]


def build_f(system: QpfSystem, nu, projection: Projection) -> TransportedMap:
    """Monotone transport with f(phi0^-) = phi1^- and Leb -> nu fiberwise."""
    w = projection.mu.weights
    if w is not None and not w.is_symmetric():
        raise PreconditionError("the transported pipeline expects symmetric weights")
    return TransportedMap(system=system, nu=nu, projection=projection)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def circ_dist_array(a, b) -> np.ndarray:
    d = mod1_array(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(d, 1.0 - d)


@dataclass
class SemiconjugacyReport:
    grid: int
    vertical: int
    residual: float                  # sup over the grid of d(pi o f, R o pi)
    residual_per_fiber: np.ndarray
    bound: float                     # a_N / beta + 4 cells
    shifted_residual: float          # sup of d(pi' o f, R o pi), pi' from R_* mu
    tv_defect: float                 # |pi_* nu - R_* mu|, the worst over the audited fibers
    tv_expected: float               # a_N + a_{-N}

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def pushed(fm: FiberMeasure, d) -> FiberMeasure:
    """The push-forward of a fiber measure by the rotation x -> x + d: atoms moved, masses kept."""
    atoms = sorted((replace(a, position=mod1(a.position + d)) for a in fm.atoms),
                   key=lambda a: a.position)
    return replace(fm, atoms=tuple(atoms))


def verify_semiconjugacy(tmap: TransportedMap, grid: int, vertical: int) -> SemiconjugacyReport:
    """Sup of d(pi o f, R o pi) over the grid, plus the two-sided checks.

    Over a translation base R_theta is the same rotation at every theta, so
    the residual at theta reads only fibers: pi and mu (for R_* mu) at theta,
    and pi, nu and mu (for gamma_1) at theta + w.  It is then computed
    once per grid class of those tables (chamber.grid_pass), split by
    whether the fiber is in the subsample of the R_* mu check.  Over other bases
    every fiber is its own class.
    """
    system = tmap.system
    pi = tmap.projection
    w = pi.mu.weights
    omega = system.omega
    xs = np.arange(vertical) / vertical
    stride = max(1, grid // 64)

    def residuals(theta):
        """The residual at theta, and the one against R_* mu (0 off the subsample)."""
        theta_next = theta + omega
        fvals = tmap.fiber_values(theta, xs)
        lhs = pi.fiber(theta_next).map_array(fvals)
        pivals = pi.fiber(theta).map_array(xs)
        rhs = system.circle_values(theta, pivals)
        res = float(np.max(circ_dist_array(lhs, rhs)))
        if (theta * grid) % stride:
            return res, 0.0
        # identity pi' o f = R o pi at a subsample of fibers, pi' the quantile of R_* mu
        gamma1 = pi.mu.curves[1].circle_value(theta_next)
        quant = quantile_table(pushed(pi.mu.fiber(theta), system.displacement(theta)),
                               gamma1, Fraction(0))
        fd = tmap.nu.fiber(theta_next)
        p1 = tmap.phi_minus(theta_next, 1)
        masses = fd.mass_from(p1, fvals) / fd.total
        lhs_shift = quant.map_array(masses)
        return res, float(np.max(circ_dist_array(lhs_shift, rhs)))

    reads = [(pi.chambers, 0), (pi.chambers, omega), (tmap.nu.chambers, omega),
             (pi.mu.chambers, 0), (pi.mu.chambers, omega)]
    tag = lambda g: g % stride == 0
    if system.kind != "translation":
        reads, tag = [], lambda g: g        # R_theta varies with theta: no reuse
    res = np.empty(grid)
    shifted_sup = 0.0
    for g, (r, shifted) in enumerate(grid_pass(grid, reads, residuals, tag)):
        res[g] = r
        shifted_sup = max(shifted_sup, shifted)
    # truncation defect: positionwise atom masses of pi_* nu vs R_* mu
    tv = _tv_defect(tmap, fibers=8)
    bound = float(w.a(w.half_width) / w.beta) + 4.0 / vertical if w is not None else float("nan")
    return SemiconjugacyReport(
        grid=grid, vertical=vertical,
        residual=float(res.max()), residual_per_fiber=res, bound=bound,
        shifted_residual=shifted_sup, tv_defect=tv,
        tv_expected=float(w.a(w.half_width) + w.a(-w.half_width)) if w is not None else float("nan"),
    )


def _tv_defect(tmap: TransportedMap, fibers: int) -> float:
    """Total variation between pi_* nu and R_* mu, atom part, the worst over fibers.

    The fibers are theta = (2s+1)/(2*fibers), s < fibers, that is s/fibers
    + half.  Over a translation base the TV at theta reads only nu and pi at
    theta and mu at theta - w, so it is computed once per grid class of
    those tables at the shift half (chamber.grid_pass); over other bases
    every fiber is its own class.
    """
    pi, omega = tmap.projection, tmap.system.omega
    half = Fraction(1, 2 * fibers)
    reads = [(tmap.nu.chambers, half), (pi.chambers, half), (pi.mu.chambers, half - omega)]
    tag = None
    if tmap.system.kind != "translation":
        reads, tag = [], lambda g: g
    return max(grid_pass(fibers, reads, lambda theta: _tv_at(tmap, theta + half), tag))


def _tv_at(tmap: TransportedMap, theta: Fraction) -> float:
    """The atom part of |pi_* nu - R_* mu| at theta."""
    pi = tmap.projection
    fd = tmap.nu.fiber(theta)
    fp = pi.fiber(theta)
    before = theta - tmap.system.omega
    fm_shift = pushed(pi.mu.fiber(before), tmap.system.displacement(before))
    nu_mass = {}
    for p in fp.plateaus:
        lo = float(mod1(p.start))
        hi = lo + float(p.length)
        m = float(fd.mass_from(lo, np.array([hi]))[0])
        nu_mass[float(p.target)] = nu_mass.get(float(p.target), 0.0) + m
    tv = 0.0
    seen = set()
    for atom in fm_shift.atoms:
        pos = float(atom.position)
        tv += abs(nu_mass.get(pos, 0.0) - float(atom.mass))
        seen.add(pos)
    for pos, m in nu_mass.items():
        if pos not in seen:
            tv += m
    return tv


# ---------------------------------------------------------------------------
# non-minimality witness and transitivity probes
# ---------------------------------------------------------------------------


@dataclass
class NonminimalityReport:
    annulus_height: float
    hit_times: list              # per witness, the first hit of its probe or None
    hit_fraction: float


def verify_nonminimality(tmap: TransportedMap, witnesses=(), grid: int = 256,
                         probe_points: int = 64) -> NonminimalityReport:
    """(a) the open annulus inside pi^{-1}(Xi); (b) hitting-time probes.

    The annulus normalization (curve 0's plateau starts at or below 0 and
    reaches the annulus height a_0) is certified for every theta: the start and
    length are affine on a projection chamber, so both closed ends of each
    chamber and each cut point (its one-point chamber) cover it.  The grid check
    follows as a cross-check, on one theta per grid class of the projection
    table (chamber.class_thetas).
    """
    pi = tmap.projection
    height = pi.mu.masses[0]

    def check(plateau, where):
        if not (plateau.start <= 0 and plateau.start + plateau.length >= height):
            raise InvariantViolation(f"annulus normalization fails at {where}")

    table = pi.chambers
    for ch in table.chambers:
        plateau = ch.template.plateau_of(0)
        for t in (ch.a, ch.b):
            check(map_leaves(plateau, lambda x: x.at(t)),
                  f"theta in ({float(ch.a)}, {float(ch.b)}), end {float(t)}")
    for cut in table.cuts:
        check(pi.fiber(cut).plateau_of(0), f"cut point theta={float(cut)}")
    for theta in class_thetas(grid, [(table, 0)]):
        check(pi.fiber(theta).plateau_of(0), f"fiber {theta * grid}/{grid}")
    hit_times = [_probe_hit_time(tmap, wit, float(height), probe_points, wit.m + _PROBE_SLACK)
                 for wit in witnesses]
    frac = sum(hit is not None for hit in hit_times) / len(hit_times) if hit_times else 1.0
    return NonminimalityReport(annulus_height=float(height), hit_times=hit_times,
                               hit_fraction=frac)


def _probe_hit_time(tmap: TransportedMap, wit, height: float, npts: int, n_max: int):
    """First n <= n_max with f^n(U) meeting V, walked on f itself.

    U is a k x k grid (k = isqrt(npts)) over the arc I and (0, height).  Each
    of its k fibers walks an exact theta orbit, from the Fraction of its float
    arc point, and f is read once per fiber and step.  A hit is a point whose
    theta after the step lies in the arc J and whose x lies in (0, height).
    """
    ilo, ihi = wit.i_arc
    jlo, jhi = wit.j_arc
    span_i = (ihi - ilo) % 1.0 or 1.0
    span_j = (jhi - jlo) % 1.0 or 1.0
    k = int(np.sqrt(npts))
    thetas = [Fraction(t) for t in (ilo + span_i * (np.arange(k) + 0.5) / k) % 1.0]
    xs = [height * (np.arange(k) + 0.5) / k] * k
    omega = tmap.system.omega
    for n in range(1, n_max + 1):
        xs = [tmap.fiber_values(th, x) for th, x in zip(thetas, xs)]
        thetas = [mod1(th + omega) for th in thetas]
        for th, x in zip(thetas, xs):
            if (float(th) - jlo) % 1.0 <= span_j and np.any((x > 0.0) & (x < height)):
                return n
    return None
