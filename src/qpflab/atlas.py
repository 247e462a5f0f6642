"""Partition atlas: disjoint open allocations U_n inside the blown-up regions.

Within each quantile plateau the member curves receive sub-arcs by the
inductive collapsing order (0, 1, -1, 2, -2, ...): each curve's arc sits at
the offset given by the mass of later curves lifted below it, punctured by
the arcs of earlier curves.  Fiberwise widths are exact: Leb(U_{n,theta}) is
the atom weight a_n, and the component count is bounded by the allocation
rank + 1 <= 2|n| + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .chamber import Affine, ChamberTable, Probe, class_thetas
from .errors import AtlasInvariantViolation, CoverFailure
from .measure import MeasureFamily, Projection, allocation_rank


@dataclass(frozen=True)
class FiberAtlas:
    u: dict          # n -> tuple of (lo, hi) open arcs, unrolled source coords
    v: dict          # n -> tuple of (lo, hi) closed arcs (compact shrinkings)

    def u_width(self, n) -> Fraction:
        return sum((hi - lo for lo, hi in self.u[n]), Fraction(0))

    def v_width(self, n) -> Fraction:
        return sum((hi - lo for lo, hi in self.v[n]), Fraction(0))

    def components(self, n) -> int:
        return len(self.u[n])


def _allocate_plateau(members, masses, t_split, start: Fraction, length: Fraction):
    """Sequential within-plateau allocation; returns n -> list of closed arcs."""
    if len(members) == 1:       # the plateau is its one member's mass long
        return {members[0]: [(start, start + length)]}
    allocated: list = []   # disjoint closed arcs already assigned, sorted
    out = {}
    for idx, m in enumerate(members):
        later = members[idx + 1:]
        offset = sum((t_split[(j, m)] * masses[j] for j in later), Fraction(0))
        # free pieces of the plateau in increasing order
        free = []
        cur = start
        for lo, hi in sorted(allocated):
            if lo > cur:
                free.append((cur, lo))
            cur = max(cur, hi)
        if cur < start + length:
            free.append((cur, start + length))
        # consume the free pieces from the collapsed offset
        target = masses[m]
        arcs = []
        pos = Fraction(0)
        for lo, hi in free:
            piece = hi - lo
            take_lo = max(lo, lo + (offset - pos))
            take_hi = min(hi, lo + (offset + target - pos))
            if take_lo < take_hi:
                arcs.append((take_lo, take_hi))
            pos += piece
        got = sum((hi - lo for lo, hi in arcs), Fraction(0))
        if got != target:
            raise AtlasInvariantViolation(
                f"allocation of curve {m} got width {float(got)} != {float(target)}")
        out[m] = arcs
        allocated.extend(arcs)
    return out


def _shrink_arcs(arcs, epsilon: Fraction):
    """Proportional inward shrink keeping total (1-eps) of the length."""
    out = []
    for lo, hi in arcs:
        margin = (hi - lo) * epsilon / 2
        out.append((lo + margin, hi - margin))
    return out


@dataclass(eq=False)
class PartitionAtlas:
    projection: Projection
    epsilon: Fraction

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise CoverFailure("epsilon must lie in (0,1) for a compact shrinking")

    @property
    def mu(self) -> MeasureFamily:
        return self.projection.mu

    @cached_property
    def order(self) -> tuple:
        """The window in allocation order, from curve 0."""
        return tuple(sorted(self.mu.curves, key=allocation_rank))

    @cached_property
    def chambers(self) -> ChamberTable:
        """The projection's chambers, split where the plateau allocation switches."""
        return ChamberTable(self.projection.chambers.cuts, lambda probe: self._allocate(
            self.mu.chambers.template_on(probe), self.projection.chambers.template_on(probe)),
            self._fiber_uncached)

    def fiber(self, theta) -> FiberAtlas:
        return self.chambers.fiber(theta)

    def _fiber_uncached(self, theta: Fraction) -> FiberAtlas:
        return self._allocate(self.mu.fiber(theta), self.projection.fiber(theta))

    def _allocate(self, fm, fp) -> FiberAtlas:
        u: dict = {}
        for plateau in fp.plateaus:
            arcs = _allocate_plateau(list(plateau.members), fm.masses, fm.t_split,
                                     plateau.start, plateau.length)
            u.update(arcs)
        u = {n: tuple(v) for n, v in u.items()}
        v = {n: tuple(_shrink_arcs(list(arcs), self.epsilon)) for n, arcs in u.items()}
        return FiberAtlas(u=u, v=v)

    def audit_fiber(self, theta) -> None:
        """Raise AtlasInvariantViolation if any invariant fails at this fiber."""
        self._check(self.fiber(theta), self.projection.fiber(theta), f"theta={float(theta)}")

    def audit_chamber(self, ch) -> None:
        """Raise AtlasInvariantViolation unless the invariants hold on the whole chamber."""
        with Probe(ch.a, ch.b) as probe:
            self._check(self.chambers.template_on(probe),
                        self.projection.chambers.template_on(probe),
                        f"theta in ({float(ch.a)}, {float(ch.b)})", (ch.a, ch.b))

    def _check(self, fa: FiberAtlas, fp, where: str, ends=None) -> None:
        """The invariants of one fiber, or of one chamber through its closed ends.

        Each invariant is x <= y or x < y between values affine on the
        chamber: x <= y at both ends gives it on the chamber, and x < y on the
        open chamber needs x < y at one end more.
        """
        def le(x, y, strict=False):
            if ends is None:
                return x < y if strict else x <= y
            d = y - x
            at = [d.at(t) for t in ends] if isinstance(d, Affine) else [d]
            return min(at) >= 0 and (not strict or max(at) > 0)

        plateau = {n: p for p in fp.plateaus for n in p.members}
        all_arcs = []
        for n in self.order:
            arcs, mass = fa.u[n], self.mu.masses[n]
            width = fa.u_width(n)
            if not (le(width, mass) and le(mass, width)):
                raise AtlasInvariantViolation(f"{where}: width of U_{n} is not a_{n}")
            if len(arcs) > 2 * abs(n) + 1:
                raise AtlasInvariantViolation(
                    f"{where}: U_{n} has {len(arcs)} components > {2 * abs(n) + 1}")
            start = plateau[n].start
            end = start + plateau[n].length
            if not all(le(start, lo) and le(hi, end) for lo, hi in arcs):
                raise AtlasInvariantViolation(f"{where}: U_{n} leaves its plateau")
            if not le((1 - self.epsilon) * mass, fa.v_width(n)):
                raise AtlasInvariantViolation(f"{where}: V_{n} too small")
            if not all(le(lo, vlo, True) and le(vhi, hi, True)
                       for (lo, hi), (vlo, vhi) in zip(arcs, fa.v[n])):
                raise AtlasInvariantViolation(f"{where}: V_{n} not interior to U_{n}")
            all_arcs.extend(arcs)
        all_arcs.sort(key=lambda arc: arc[0])
        if not all(le(ahi, blo) for (_, ahi), (blo, _) in zip(all_arcs, all_arcs[1:])):
            raise AtlasInvariantViolation(f"{where}: allocations overlap")


@dataclass
class AtlasAudit:
    chambers: int            # chambers certified exactly, besides their cut points
    max_components: dict
    min_v_fraction: float


def audit_atlas(atlas: PartitionAtlas, grid: int) -> AtlasAudit:
    """Every-theta certificate, then the grid audit as a cross-check.

    The certificate covers each chamber through its closed ends and each cut
    point through its one-point chamber.  The grid audit reads the atlas and
    projection fibers, so it reads one theta per run of those two tables
    (chamber.class_thetas): the other grid fibers of a run read the same
    fibers.  Raises AtlasInvariantViolation on the first failure.
    """
    table = atlas.chambers
    for ch in table.chambers:
        atlas.audit_chamber(ch)
    for cut in table.cuts:
        atlas.audit_fiber(cut)
    max_components = {n: 0 for n in atlas.order}
    min_v_frac = 1.0
    for theta in class_thetas(grid, [(table, 0), (atlas.projection.chambers, 0)]):
        atlas.audit_fiber(theta)
        fa = atlas.fiber(theta)
        for n in atlas.order:
            max_components[n] = max(max_components[n], fa.components(n))
            frac = float(fa.v_width(n) / atlas.mu.masses[n])
            min_v_frac = min(min_v_frac, frac)
    return AtlasAudit(chambers=len(table.chambers), max_components=max_components,
                      min_v_fraction=min_v_frac)

