"""Fiberwise atomic measures and the quantile semi-conjugacy.

mu = beta * Leb + sum_n a_n * delta_{Gamma_n} over a finite curve window with
pairwise flat intersections.  The projection pi is the fiberwise quantile of
the lifted measure, anchored so that the preimage of the anchor curve contains
the annulus T^1 x [0, a_{n0}].  Where curves overlap flatly, the two Dirac
masses are interpolated linearly across the overlap arc; the interpolation
data is recorded exactly and reused by the partition atlas.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chamber import ChamberTable, Probe, affine
from .circle import mod1, mod1_array
from .errors import LiftAmbiguous, PreconditionError
from .geometry import OrbitIntersections, _branch_sign_near, intersection_projection
from .plgraph import PLGraph
from .weights import WeightScheme


def allocation_rank(n: int) -> int:
    """Zigzag enumeration 0, 1, -1, 2, -2, ... used for anchoring and the atlas."""
    return 0 if n == 0 else (2 * n - 1 if n > 0 else -2 * n)


@dataclass(frozen=True)
class OverlapRecord:
    """One flat-overlap component of curves i and j with lift side data.

    t_left/t_right give the fraction of curve j's mass lifted below curve i
    at the component endpoints (1 when j enters from below).
    """

    i: int
    j: int
    lo: Fraction
    hi: Fraction
    t_left: int
    t_right: int

    def t_at(self, theta: Fraction) -> Fraction:
        if self.hi == self.lo:
            return Fraction(self.t_left)
        w = mod1(theta - self.lo) / (self.hi - self.lo)
        return Fraction(self.t_left) + (Fraction(self.t_right) - Fraction(self.t_left)) * w


@dataclass(frozen=True)
class FiberAtom:
    position: Fraction          # circle position shared by the members
    members: tuple              # curve indices in allocation order
    mass: Fraction              # total mass at the position


@dataclass(frozen=True)
class FiberMeasure:
    beta: Fraction
    atoms: tuple                # FiberAtom, sorted by position
    masses: dict                # curve index -> mass
    t_split: dict               # (j, i) -> Fraction top-fraction of j relative to i

    def atom_of(self, curve: int) -> FiberAtom:
        for a in self.atoms:
            if curve in a.members:
                return a
        raise KeyError(curve)

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        """F(x) = beta*x + sum of atom masses at positions <= x, from 0."""
        pos = np.array([float(a.position) for a in self.atoms])
        mass = np.array([float(a.mass) for a in self.atoms])
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(pos, xs, side="right")
        cum = np.concatenate(([0.0], np.cumsum(mass)))
        return float(self.beta) * xs + cum[idx]


class CurveLines:
    """The exact line of each piece of a PL curve, laid out for the chamber templates.

    The piece from breakpoint (t0, v0) to the next one, of slope c1, has the
    lift value c0 + c1*theta with c0 = v0 - c1*t0, and one turn earlier
    c0 - (degree - c1) + c1*theta.  The pieces cover the two turns from
    theta_0 - 1, which hold the midpoint of every chamber, in (0, 1).
    """

    def __init__(self, curve: PLGraph):
        ts, vs, degree = curve.thetas, curve.values, curve.degree
        ends = list(zip(ts, vs))
        pieces = []
        for (t0, v0), (t1, v1) in zip(ends, ends[1:] + [(ts[0] + 1, vs[0] + degree)]):
            c1 = (v1 - v0) / (t1 - t0)
            pieces.append((t0, v0 - c1 * t0, c1))
        self.starts = [t0 + k for k in (-1, 0) for t0, _, _ in pieces]
        self.lines = [(c0 + (degree - c1) * k, c1) for k in (-1, 0) for _, c0, c1 in pieces]
        self.float_starts = [float(t) for t in self.starts]

    def at(self, ref: Fraction) -> tuple:
        """(c0, c1) of the piece holding ref in (theta_0 - 1, theta_0 + 1), by a float bisect."""
        x = float(ref)
        i = bisect_right(self.float_starts, x) - 1
        # float() is monotone, so only a start that rounds to x itself can lie past ref
        while self.float_starts[i] == x and self.starts[i] > ref:
            i -= 1
        return self.lines[i]


@dataclass(eq=False)
class MeasureFamily:
    curves: dict                 # n -> PLGraph
    masses: dict                 # n -> Fraction
    beta: Fraction
    overlaps: dict               # frozenset({i,j}) -> list[OverlapRecord]
    weights: WeightScheme | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise PreconditionError("beta must be positive")
        total = self.beta + sum(self.masses.values())
        if total != 1:
            raise PreconditionError(f"total mass {float(total)} != 1")

    def indices(self):
        return sorted(self.curves.keys())

    @cached_property
    def chambers(self) -> ChamberTable:
        """Cut at the real kinks of the window curves, refined by the runs."""
        kinks = {t for c in self.curves.values() for t in c.kinks()}
        return ChamberTable(kinks, self._template, self._fiber_uncached)

    @cached_property
    def lines(self) -> dict:
        """n -> CurveLines of the curve, built once for all chambers."""
        return {n: CurveLines(c) for n, c in self.curves.items()}

    def _template(self, probe: Probe) -> FiberMeasure:
        """The fiber on one chamber: no kink inside, so each curve is one line on it.

        Any piece holding the midpoint has that line, the two sides of a
        collinear breakpoint too.
        """
        positions = {n: mod1(affine(*lines.at(probe.ref))) for n, lines in self.lines.items()}
        return self._measure(probe.theta, positions)

    def fiber(self, theta) -> FiberMeasure:
        return self.chambers.fiber(theta)

    def _fiber_uncached(self, theta: Fraction) -> FiberMeasure:
        return self._measure(theta, {n: c.circle_value(theta) for n, c in self.curves.items()})

    def _measure(self, theta, positions: dict) -> FiberMeasure:
        """Atoms from exact curve positions, Fractions or chamber forms."""
        groups: dict = {}
        for n, p in positions.items():
            groups.setdefault(p, []).append(n)
        atoms = []
        t_split = {}
        for p, members in groups.items():
            members.sort(key=allocation_rank)
            mass = sum(self.masses[n] for n in members)
            atoms.append(FiberAtom(position=p, members=tuple(members), mass=mass))
            for i in members:
                for j in members:
                    if i == j:
                        continue
                    t_split[(j, i)] = self._t_value(i, j, theta)
        atoms.sort(key=lambda a: a.position)
        return FiberMeasure(beta=self.beta, atoms=tuple(atoms),
                            masses=dict(self.masses), t_split=t_split)

    def _t_value(self, i: int, j: int, theta: Fraction) -> Fraction:
        for rec in self.overlaps.get(frozenset((i, j)), []):
            if mod1(theta - rec.lo) <= rec.hi - rec.lo:
                t = rec.t_at(theta)
                return t if rec.j == j else 1 - t
        raise LiftAmbiguous(
            f"curves {i},{j} share a position at theta={float(theta)} outside any overlap record")


def build_mu(curves: dict, weights: WeightScheme | None = None, masses: dict | None = None,
             beta=None, waive_flatness: bool = False,
             table: OrbitIntersections | None = None) -> MeasureFamily:
    """Assemble the measure family; pairwise flatness is verified unless waived.

    With table, curves[n] must be R^n(Gamma) for the table's curve Gamma, and
    each pair's intersection is read from it; without, it is computed here.
    """
    if weights is not None:
        masses = {n: weights.a(n) for n in weights.window if n in curves}
        missing = [n for n in weights.window if n not in curves]
        if missing:
            raise PreconditionError(f"curve window incomplete: missing indices {missing}")
        beta = weights.beta
    if masses is None or beta is None:
        raise PreconditionError("either weights or (masses, beta) must be given")
    masses = {n: Fraction(m) for n, m in masses.items()}
    beta = Fraction(beta)
    overlaps: dict = {}
    idx = sorted(curves.keys())
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            proj = (table.between(i, j) if table is not None
                    else intersection_projection(curves[i], curves[j]))
            if proj.is_full:
                raise LiftAmbiguous(f"curves {i} and {j} coincide")
            if proj.is_empty:
                continue
            if proj.degenerate_components() and not waive_flatness:
                raise PreconditionError(
                    f"curves {i} and {j} have a non-flat intersection; "
                    "flatten first or waive explicitly")
            records = []
            for lo, hi in proj.pieces:
                if lo == hi:
                    continue
                sl = _branch_sign_near(curves[i], curves[j], lo, -1)
                sr = _branch_sign_near(curves[i], curves[j], hi, +1)
                if sl == 0 or sr == 0:
                    raise LiftAmbiguous(f"overlap of curves {i},{j} has no side data")
                records.append(OverlapRecord(i=i, j=j, lo=lo, hi=hi,
                                             t_left=1 if sl < 0 else 0,
                                             t_right=1 if sr < 0 else 0))
            if records:
                overlaps[frozenset((i, j))] = records
    return MeasureFamily(curves=dict(curves), masses=masses, beta=beta,
                         overlaps=overlaps, weights=weights)


# ---------------------------------------------------------------------------
# the projection pi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plateau:
    members: tuple
    start: Fraction      # source coordinate, unrolled from the anchor start
    length: Fraction
    target: Fraction     # circle position of the collapsed atom
    chat: Fraction       # target offset from the anchor position


@dataclass(eq=False)
class FiberProjection:
    """The anchored quantile of one fiber measure as a table of pieces.

    The source coordinate is unrolled from ``start`` = -top_mass, where the
    anchor atom's plateau begins.  The atoms follow in circle order from the
    anchor; each is a plateau of its mass followed by an affine gap of slope
    1/beta (beta > 0, distinct positions and total mass 1 make every gap
    non-empty).  The pieces alternate, plateaus at even and gaps at odd
    indices.
    """

    beta: Fraction
    anchor_pos: Fraction
    top_mass: Fraction            # anchor-group mass lifted below the zero section
    plateaus: tuple               # Plateau, by increasing start

    @cached_property
    def seg_starts(self) -> np.ndarray:     # piece boundaries, plateau and gap alternating
        return np.array([float(x) for p in self.plateaus for x in (p.start, p.start + p.length)])

    @cached_property
    def seg_target(self) -> np.ndarray:     # plateau: atom position; gap: lifted value at its start
        return np.array([x for p in self.plateaus
                         for x in (float(p.target), float(self.anchor_pos) + float(p.chat))])

    @property
    def start(self) -> Fraction:
        """Unrolled source coordinate where the anchor plateau begins."""
        return -self.top_mass

    def map_array(self, xs: np.ndarray) -> np.ndarray:
        s0 = float(self.start)
        u = s0 + mod1_array(np.asarray(xs, dtype=float) - s0)
        idx = np.clip(np.searchsorted(self.seg_starts, u, side="right") - 1,
                      0, len(self.seg_starts) - 1)
        affine = self.seg_target[idx] + (1.0 / float(self.beta)) * (u - self.seg_starts[idx])
        return np.where(idx % 2 == 0, self.seg_target[idx], mod1_array(affine))

    @property
    def inverse_knots(self) -> tuple:
        """(target, source) knots of map_array inverted off the plateaus.

        The targets run over positions lifted from the anchor, one turn from
        tk[0]; an atom's position is a double knot at both ends of its
        plateau.  A target y has the source point
        mod1(interp(mod1(y - tk[0]) + tk[0], tk, sk)).
        """
        tk = np.append(np.repeat(self.seg_target[1::2], 2), self.seg_target[1] + 1.0)
        sk = np.append(self.seg_starts, self.seg_starts[0] + 1.0)
        return tk, sk

    def plateau_of(self, curve: int) -> Plateau:
        for p in self.plateaus:
            if curve in p.members:
                return p
        raise KeyError(curve)


def quantile_table(fm: FiberMeasure, anchor_pos: Fraction, top: Fraction) -> FiberProjection:
    """Anchored quantile of fm: the atom at anchor_pos starts at source -top.

    The projection pi lifts the anchor group's top mass below the zero
    section; the R_* mu check uses top = 0.
    """
    ordered = sorted(fm.atoms, key=lambda a: mod1(a.position - anchor_pos))
    if not ordered or ordered[0].position != anchor_pos:
        raise PreconditionError("anchor position carries no atom")
    plateaus = []
    acc = Fraction(0)
    for atom in ordered:
        chat = mod1(atom.position - anchor_pos)
        plateaus.append(Plateau(members=atom.members, start=-top + fm.beta * chat + acc,
                                length=atom.mass, target=atom.position, chat=chat))
        acc += atom.mass
    return FiberProjection(beta=fm.beta, anchor_pos=anchor_pos,
                           top_mass=top, plateaus=tuple(plateaus))


def anchored_projection(fm: FiberMeasure, n0: int) -> FiberProjection:
    """pi on one fiber: the anchor group's mass lifted below curve n0 sits under zero."""
    anchor_atom = fm.atom_of(n0)
    top = sum((fm.masses[j] * fm.t_split[(j, n0)] for j in anchor_atom.members if j != n0),
              Fraction(0))
    return quantile_table(fm, anchor_atom.position, top)


def build_fiber_projection(mu: MeasureFamily, n0: int, theta) -> FiberProjection:
    return anchored_projection(mu.fiber(Fraction(theta)), n0)


@dataclass(eq=False)
class Projection:
    mu: MeasureFamily
    n0: int

    def __post_init__(self):
        if self.n0 not in self.mu.curves:
            raise PreconditionError(f"anchor {self.n0} not in the curve window")

    @cached_property
    def chambers(self) -> ChamberTable:
        return ChamberTable(self.mu.chambers.cuts, lambda probe: anchored_projection(
            self.mu.chambers.template_on(probe), self.n0),
            lambda th: build_fiber_projection(self.mu, self.n0, th))

    def fiber(self, theta) -> FiberProjection:
        return self.chambers.fiber(theta)

    def annulus_height(self) -> Fraction:
        return self.mu.masses[self.n0]


def build_pi(mu: MeasureFamily, n0: int = 0) -> Projection:
    """Fiberwise quantile of the lifted measure, anchored at curve n0."""
    proj = Projection(mu=mu, n0=n0)
    # annulus normalization check on a token fiber: [0, a_{n0}] inside the preimage
    fp = proj.fiber(Fraction(1, 7))
    p = fp.plateau_of(n0)
    if not (mod1(p.start) + p.length >= mu.masses[n0] or p.length >= mu.masses[n0]):
        raise PreconditionError("anchor plateau too short (annulus normalization)")
    return proj


def kolmogorov_distance(fm: FiberMeasure, samples: np.ndarray) -> float:
    """sup_x |F_emp(x) - F_mu(x)| with atom jumps handled on both sides."""
    ys = np.sort(np.asarray(samples, dtype=float) % 1.0)
    n = len(ys)
    atoms = np.array([float(a.position) for a in fm.atoms])
    masses = np.array([float(a.mass) for a in fm.atoms])
    cand = np.unique(np.concatenate([ys, atoms]))
    f_right = fm.cdf(cand)
    jump_map = {float(a.position): float(a.mass) for a in fm.atoms}
    jump = np.array([jump_map.get(float(c), 0.0) for c in cand])
    f_left = f_right - jump
    e_right = np.searchsorted(ys, cand, side="right") / n
    e_left = np.searchsorted(ys, cand, side="left") / n
    return float(max(np.max(np.abs(e_right - f_right)), np.max(np.abs(e_left - f_left))))
