"""The transported homeomorphism f and its semi-conjugacy contract.

f_theta is the monotone transport sending Lebesgue measure onto nu_{theta+w}
while mapping the bottom edge of the blown anchor curve to the bottom edge of
its image.  At finite truncation pi_* nu differs from R_* mu by the relocated
edge atoms (total variation a_N + a_{-N}); the beta density floor converts
that mass defect into the sup-residual bound a_N / beta for pi o f vs R o pi.
The projection built from R_* mu (shifted window) satisfies the commuting
identity to grid precision by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atlas import PartitionAtlas
from .circle import mod1, mod1_array
from .errors import EtaNotInvertible, InvariantViolation, PreconditionError
from .measure import MeasureFamily, Projection, quantile_table
from .systems import QpfSystem


@dataclass(eq=False)
class TransportedMap:
    """Fiberwise f_theta = eta_{theta+w}^{-1} o Leb[phi0^-(theta), .]."""

    system: QpfSystem            # the base R (supplies omega)
    nu: object                   # per-fiber CDF tables (a DensityField)
    projection: Projection
    curve0: int = 0
    curve1: int = 1

    def __post_init__(self):
        if self.curve1 not in self.projection.mu.curves:
            raise PreconditionError(f"image curve {self.curve1} missing from the family")

    def phi_minus(self, theta, curve: int) -> float:
        """Bottom edge of the blown curve: inf pi^{-1}(Gamma_curve) at this fiber.

        Off the cut points it is read from the projection chamber's integer rows.
        """
        ch, t = self.projection.chambers.locate(theta)
        if ch is None:
            return float(mod1(self.projection.fiber(theta).plateau_of(curve).start))
        for i, plateau in enumerate(ch.template.plateaus):
            if curve in plateau.members:
                return ch.floats(t, _plateau_starts, reduce=True)[i]
        raise KeyError(curve)

    def fiber_values(self, theta, xs) -> np.ndarray:
        """Circle values of f_theta on an array of source points."""
        theta = Fraction(theta)
        theta_next = theta + self.system.omega
        fd = self.nu.fiber(theta_next)
        if fd.total <= 0 or np.any(np.diff(fd.cum) < 0):
            raise EtaNotInvertible("nu fiber mass coordinate is not invertible")
        p0 = self.phi_minus(theta, self.curve0)
        p1 = self.phi_minus(theta_next, self.curve1)
        us = mod1_array(np.asarray(xs, dtype=float) - p0) * fd.total
        return fd.quantile_from(p1, us)

    def as_system(self) -> QpfSystem:
        def circle_fn(theta, xs):
            th = theta if isinstance(theta, Fraction) else Fraction(theta).limit_denominator(10**15)
            return self.fiber_values(th, xs)

        return QpfSystem.from_callable(self.system.omega, circle_fn,
                                       kind="blowup", label="blowup-built")


def _plateau_starts(fp) -> list:
    return [p.start for p in fp.plateaus]


def build_f(system: QpfSystem, nu, projection: Projection,
            curve0: int = 0, curve1: int = 1) -> TransportedMap:
    """Monotone transport with f(phi0^-) = phi1^- and Leb -> nu fiberwise."""
    w = projection.mu.weights
    if w is not None and not w.is_symmetric():
        raise PreconditionError("the transported pipeline expects symmetric weights")
    return TransportedMap(system=system, nu=nu, projection=projection,
                          curve0=curve0, curve1=curve1)


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
    atom_image_defect: float         # interval-image check on sampled atoms
    tv_defect: float                 # |pi_* nu - R_* mu| averaged over audited fibers
    tv_expected: float               # a_N + a_{-N}

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def verify_semiconjugacy(tmap: TransportedMap, mu_shifted: MeasureFamily,
                         grid: int, vertical: int,
                         atom_samples: int = 16) -> SemiconjugacyReport:
    """Sup of d(pi o f, R o pi) over the grid, plus the two-sided checks."""
    system = tmap.system
    pi = tmap.projection
    w = pi.mu.weights
    xs = np.arange(vertical) / vertical
    res = np.empty(grid)
    shifted_sup = 0.0
    for g in range(grid):
        theta = Fraction(g, grid)
        theta_next = theta + system.omega
        fvals = tmap.fiber_values(theta, xs)
        lhs = pi.fiber(theta_next).map_array(fvals)
        pivals = pi.fiber(theta).map_array(xs)
        rhs = system.circle_values(theta, pivals)
        res[g] = float(np.max(circ_dist_array(lhs, rhs)))
        # shifted-window identity pi' o f = R o pi at a subsample of fibers
        if g % max(1, grid // 64) == 0:
            gamma1 = pi.mu.curves[tmap.curve1].circle_value(theta_next)
            quant = quantile_table(mu_shifted.fiber(theta_next), gamma1, Fraction(0))
            fd = tmap.nu.fiber(theta_next)
            p1 = tmap.phi_minus(theta_next, tmap.curve1)
            masses = fd.mass_from(p1, fvals) / fd.total
            lhs_shift = quant.map_array(masses)
            shifted_sup = max(shifted_sup, float(np.max(circ_dist_array(lhs_shift, rhs))))
    # interval-image check: f maps atom preimage edges onto the image edges
    atom_defect = 0.0
    idxs = [n for n in pi.mu.curves if n + 1 in pi.mu.curves]
    for s in range(atom_samples):
        theta = Fraction(s, atom_samples)
        n = idxs[s % len(idxs)]
        lo = tmap.phi_minus(theta, n)
        lo_img = tmap.fiber_values(theta, np.array([lo]))[0]
        expect = tmap.phi_minus(theta + system.omega, n + 1)
        d = float(circ_dist_array(np.array([lo_img]), np.array([expect]))[0])
        atom_defect = max(atom_defect, d)
    # truncation defect: positionwise atom masses of pi_* nu vs R_* mu
    tv = _tv_defect(tmap, mu_shifted, fibers=8)
    bound = float(w.a(w.half_width) / w.beta) + 4.0 / vertical if w is not None else float("nan")
    return SemiconjugacyReport(
        grid=grid, vertical=vertical,
        residual=float(res.max()), residual_per_fiber=res, bound=bound,
        shifted_residual=shifted_sup, atom_image_defect=atom_defect,
        tv_defect=tv,
        tv_expected=float(w.a(w.half_width) + w.a(-w.half_width)) if w is not None else float("nan"),
    )


def _tv_defect(tmap: TransportedMap, mu_shifted: MeasureFamily, fibers: int) -> float:
    """Total variation between pi_* nu and R_* mu, atom part, averaged over fibers."""
    pi = tmap.projection
    worst = 0.0
    for s in range(fibers):
        theta = Fraction(2 * s + 1, 2 * fibers)
        fd = tmap.nu.fiber(theta)
        fp = pi.fiber(theta)
        fm_shift = mu_shifted.fiber(theta)
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
        worst = max(worst, tv)
    return worst


# ---------------------------------------------------------------------------
# non-minimality witness and transitivity probes
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    witness_m: int
    hit_time: int | None
    tested_points: int


@dataclass
class NonminimalityReport:
    annulus_curve: int
    annulus_height: float
    annulus_verified_fibers: int
    probes: list
    hit_fraction: float
    inconclusive: int


def verify_nonminimality(tmap: TransportedMap, atlas: PartitionAtlas,
                         witnesses=(), grid: int = 256,
                         sampled: QpfSystem | None = None,
                         probe_points: int = 64, slack: int = 64) -> NonminimalityReport:
    """(a) the open annulus inside pi^{-1}(Xi); (b) hitting-time probes."""
    pi = tmap.projection
    n0 = pi.n0
    height = float(pi.annulus_height())
    for g in range(grid):
        theta = Fraction(g, grid)
        plateau = pi.fiber(theta).plateau_of(n0)
        if not (plateau.start <= 0 and plateau.start + plateau.length >= pi.annulus_height()):
            raise InvariantViolation(
                f"annulus normalization fails at fiber {g}/{grid}")
    probes = []
    hits = 0
    inconclusive = 0
    for wit in witnesses:
        if sampled is None:
            inconclusive += 1
            probes.append(ProbeResult(witness_m=wit.m, hit_time=None, tested_points=0))
            continue
        hit = _probe_hit_time(sampled, wit, height, probe_points, wit.m + slack)
        probes.append(ProbeResult(witness_m=wit.m, hit_time=hit, tested_points=probe_points))
        if hit is not None:
            hits += 1
    frac = hits / len(probes) if probes else 1.0
    return NonminimalityReport(annulus_curve=n0, annulus_height=height,
                               annulus_verified_fibers=grid, probes=probes,
                               hit_fraction=frac, inconclusive=inconclusive)


def _probe_hit_time(sampled: QpfSystem, wit, height: float, npts: int, n_max: int):
    """First n <= n_max with f^n(U) meeting V, on the sampled fiber tables."""
    ilo, ihi = wit.i_arc
    jlo, jhi = wit.j_arc
    span_i = (ihi - ilo) % 1.0 or 1.0
    span_j = (jhi - jlo) % 1.0 or 1.0
    k = int(np.sqrt(npts))
    thetas = (ilo + span_i * (np.arange(k) + 0.5) / k) % 1.0
    xs = height * (np.arange(k) + 0.5) / k
    th = np.repeat(thetas, k)
    x = np.tile(xs, k)
    omega = float(sampled.omega)
    for n in range(1, n_max + 1):
        x = sampled.table_step(th, x)
        th = (th + omega) % 1.0
        in_j = np.mod(th - jlo, 1.0) <= span_j
        in_v = (x > 0.0) & (x < height)
        if np.any(in_j & in_v):
            return n
    return None
