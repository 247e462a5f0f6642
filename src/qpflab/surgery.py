"""Curve surgery: itineraries, perturbation boxes, flattening, crossing insertion.

All geometry here is exact rational arithmetic.  A perturbation replaces each
graph copy above the box base by a two-segment path (or a multi-segment path
through prescribed points); the predicted effect on every intersection set
X_k = p1(Gamma /\\ R^k Gamma) is recorded and can be re-checked from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import mod1, mod1_array, signed_gap
from .errors import (BoxNotFound, EscapeTimeout, LambdaNotFound,
                     OrbitSearchTimeout, PreconditionError, SurgeryStalled)
from .geometry import OrbitIntersections, crosses_over, image_curve, intersection_projection
from .plgraph import CircIntervalSet, PLGraph, polyline_value
from .systems import MAX_DEPTH, QpfSystem

RESOLUTION_FLOOR = Fraction(1, 10**9)
# the returns of a point's itinerary, forward and backward, before EscapeTimeout
_ITINERARY_HORIZON = 10**4
# flatten_to_depth sizes its boxes at depth n by _EPS0 / 2**n, and gives a
# depth up after _MAX_SURGERIES surgeries
_EPS0 = Fraction(1, 10)
_MAX_SURGERIES = 400
# ensure_crossing: the bound on the width and height of both crossing boxes, the
# orbit times m it tries, and how many of them one float screen takes at once
_CROSSING_EPS = Fraction(1, 20)
_CROSSING_M_MAX = 10**7
_SCREEN_BLOCK = 2**14


# ---------------------------------------------------------------------------
# itineraries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Itinerary:
    """Return times {q_-r < ... < q_0 = 0 < ... < q_s} with gaps <= n."""

    times: tuple[int, ...]
    gap_bound: int

    def __post_init__(self):
        if 0 not in self.times or tuple(sorted(self.times)) != self.times:
            raise ValueError("itinerary must be sorted and contain 0")
        for a, b in zip(self.times, self.times[1:]):
            if not 0 < b - a <= self.gap_bound:
                raise ValueError(f"itinerary gap {b - a} outside (0, {self.gap_bound}]")

    def window(self) -> tuple[int, int]:
        return self.times[0] - self.gap_bound, self.times[-1] + self.gap_bound


def _orbit_point(system: QpfSystem, theta, x, k: int):
    """Exact R^k(theta, x) for affine bases."""
    theta, x = Fraction(theta), Fraction(x)
    if system.kind == "translation":
        return mod1(theta + k * system.omega), mod1(x + k * system.rho)
    if k >= 0:
        for j in range(k):
            x = x + system.phi.value(theta)
            theta = theta + system.omega
    else:
        for j in range(-k):
            theta = theta - system.omega
            x = x - system.phi.value(theta)
    return mod1(theta), mod1(x)


def itinerary_of_point(system: QpfSystem, graph: PLGraph, z, n: int, horizon: int) -> Itinerary:
    """Finite return-time set N(z) of a point z on the graph, gaps <= n.

    Return times are searched forward and backward from 0 in gaps <= n; more
    than horizon returns in all raise EscapeTimeout.
    """
    theta, x = Fraction(z[0]), Fraction(z[1])
    if not graph.contains_point(theta, x):
        raise PreconditionError("itinerary base point must lie on the graph")

    def meets(k: int) -> bool:
        return graph.contains_point(*_orbit_point(system, theta, x, k))

    times = [0]
    for direction in (+1, -1):
        k = 0
        while True:
            hit = next((k + direction * d for d in range(1, n + 1)
                        if meets(k + direction * d)), None)
            if hit is None:
                break
            times.append(hit)
            k = hit
            if len(times) > horizon + 1:
                raise EscapeTimeout(f"first-return orbit did not terminate within {horizon} steps")
    return Itinerary(tuple(sorted(times)), n)


# ---------------------------------------------------------------------------
# perturbation boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationBox:
    """Box [theta, theta+delta] x [x-eta, x+eta] anchored at z=(theta,x) on Gamma."""

    theta: Fraction
    delta: Fraction
    x: Fraction
    eta: Fraction
    itinerary: Itinerary
    depth: int

    @property
    def arc(self):
        return (self.theta, self.theta + self.delta)

    def contains_interior(self, theta, x) -> bool:
        t = mod1(Fraction(theta) - self.theta)
        if not (0 < t < self.delta):
            return False
        d = signed_gap(self.x, Fraction(x))
        return -self.eta < d < self.eta


def arcs_disjoint(arcs) -> bool:
    """Whether closed arcs (lo, hi) of positive length meet at most in their ends.

    Exactly when the measure of their union is the sum of their lengths:
    arcs that only touch merge into a union of the same measure, and two
    that share an interval lose its length.
    """
    return CircIntervalSet.from_pieces(arcs).measure() == sum(hi - lo for lo, hi in arcs)


def _pl_range(graph: PLGraph, a: Fraction, b: Fraction):
    """Exact (min, max) of the lift values over the window [a, b], b <= a+1."""
    span = b - a
    vals = [graph.value(a), graph.value(b)]
    for t in graph.thetas:
        off = mod1(t - a)
        if 0 < off < span:
            vals.append(graph.value(a + off))
    return min(vals), max(vals)


def validate_box(table: OrbitIntersections, box: PerturbationBox) -> tuple[bool, str]:
    """Constructive check of the three perturbation-box conditions for the table's curve.

    The copy R^-k(Gamma) and its meet with Gamma come from the curve's orbit
    intersection table, so the boxes validated on one table compute each of
    them once.
    """
    system = table.system
    kmin, kmax = box.itinerary.window()
    if box.eta <= 0 or box.delta <= 0 or box.eta >= Fraction(1, 4):
        return False, "degenerate box dimensions"
    # item 1: pairwise disjoint iterates of I across the window
    lo_arc, hi_arc = box.arc
    starts = [mod1(lo_arc + k * system.omega) for k in range(kmin, kmax + 1)]
    if not arcs_disjoint([(a, a + box.delta) for a in starts]):
        return False, f"iterates I+kw overlap for k in [{kmin}, {kmax}]"
    copies = {k: table.image(-k) for k in range(kmin, kmax + 1)}
    # item 3: containment/disjointness of each copy over I
    for k in range(kmin, kmax + 1):
        vmin, vmax = _pl_range(copies[k], lo_arc, hi_arc)
        if k in box.itinerary.times:
            shift = box.x - copies[k].value(box.theta)
            if shift.denominator != 1:
                return False, f"copy {k} misses the anchor point"
            if not (vmin + shift >= box.x - box.eta and vmax + shift <= box.x + box.eta):
                return False, f"copy {k} not contained in the box"
        else:
            lo_t = (box.x - box.eta - vmax).__floor__()
            hi_t = (box.x + box.eta - vmin).__ceil__()
            for t in range(lo_t, hi_t + 1):
                if vmin + t <= box.x + box.eta and vmax + t >= box.x - box.eta:
                    return False, f"copy {k} meets the box"
    # item 2: the interval shares the itinerary of its left endpoint
    for k in range(kmin, kmax + 1):
        if k == 0:
            continue  # Gamma meets itself over I, and 0 is in every itinerary
        meets = not table.between(-k, 0).intersect_arc(lo_arc, hi_arc).is_empty
        if meets != (k in box.itinerary.times):
            return False, f"interval itinerary disagrees at k={k}"
    return True, "ok"


def find_perturbation_box(table: OrbitIntersections, z, n: int,
                          delta_max, eta_max) -> PerturbationBox:
    """Box at z with z as left endpoint; eta fixed from vertical gaps, delta bisected.

    z lies on the table's curve, and every delta tried reads the same copies
    and meets from the table.
    """
    theta, x = Fraction(z[0]), Fraction(z[1])
    if Fraction(delta_max) < RESOLUTION_FLOOR:
        raise BoxNotFound("delta_max below the resolution floor")
    itin = itinerary_of_point(table.system, table.graph, z, n, _ITINERARY_HORIZON)
    kmin, kmax = itin.window()
    # eta first (proof order): half the smallest vertical gap to non-itinerary copies
    eta = Fraction(eta_max)
    for k in range(kmin, kmax + 1):
        if k in itin.times:
            continue
        gap = mod1(table.image(-k).value(theta) - x)
        gap = min(gap, 1 - gap)
        eta = min(eta, gap / 2)
    if eta < RESOLUTION_FLOOR:
        raise BoxNotFound("vertical separation below the resolution floor")
    delta = Fraction(delta_max)
    while delta >= RESOLUTION_FLOOR:
        box = PerturbationBox(theta=theta, delta=delta, x=x, eta=eta, itinerary=itin, depth=n)
        ok, _reason = validate_box(table, box)
        if ok:
            return box
        delta = delta / 2
    raise BoxNotFound(f"box bisection hit the resolution floor at z=({float(theta)},{float(x)})")


# ---------------------------------------------------------------------------
# the perturbation itself
# ---------------------------------------------------------------------------


@dataclass
class SurgeryPlan:
    box: PerturbationBox
    shifts: dict          # q -> integer branch shift aligning the copy at the anchor
    right_values: dict    # q -> aligned lift value at theta + delta
    groups: list          # list of (value, [q, ...]) sorted by value
    lam: Fraction

    def host_group(self):
        for value, qs in self.groups:
            if 0 in qs:
                return value, qs
        raise RuntimeError("host group missing")


@dataclass
class SurgeryRecord:
    box: PerturbationBox
    lam: Fraction
    support: CircIntervalSet
    predicted: dict      # k -> CircIntervalSet of J_{i,k} arcs


def plan_perturbation(table: OrbitIntersections, box: PerturbationBox,
                      min_tp_abscissa: Fraction | None = None) -> SurgeryPlan:
    theta, delta, x = box.theta, box.delta, box.x
    copies = {q: table.image(-q) for q in box.itinerary.times}
    shifts, right = {}, {}
    for q, copy in copies.items():
        s = x - copy.value(theta)
        if s.denominator != 1:
            raise PreconditionError("box anchor is not on every itinerary copy")
        shifts[q] = s
        right[q] = copy.value(theta + delta) + s
    by_value: dict = {}
    for q in box.itinerary.times:
        by_value.setdefault(right[q], []).append(q)
    groups = sorted(((v, sorted(qs)) for v, qs in by_value.items()), key=lambda g: g[0])
    # separation abscissa: intersections of cross-group copies must end by theta+lam
    t_max = theta
    qs_all = box.itinerary.times
    for a in range(len(qs_all)):
        for b in range(a + 1, len(qs_all)):
            qa, qb = qs_all[a], qs_all[b]
            if right[qa] == right[qb]:
                continue
            meet = table.between(-qa, -qb).intersect_arc(theta, theta + delta)
            for lo, hi in meet.pieces:
                end = theta + mod1(lo - theta) + (hi - lo)
                t_max = max(t_max, end)
    lam = None
    j = 1
    while delta * Fraction(1, 2**j) >= RESOLUTION_FLOOR:
        cand = delta * Fraction(1, 2**j)
        if theta + cand >= t_max and (min_tp_abscissa is None or theta + cand < min_tp_abscissa):
            lam = cand
            break
        if min_tp_abscissa is None:
            break  # smaller dyadics only shrink the containment interval
        j += 1
    if lam is None:
        raise LambdaNotFound("no dyadic split point separates the graph copies")
    return SurgeryPlan(box=box, shifts=shifts, right_values=right, groups=groups, lam=lam)


def _polyline_intersection_closure(pa, pb) -> list:
    """Closed abscissa components where two polylines over [t0,t1] agree exactly."""
    knots = sorted({t for t, _ in pa} | {t for t, _ in pb})
    pieces = []
    for a, b in zip(knots, knots[1:]):
        da = polyline_value(pa, a) - polyline_value(pb, a)
        db = polyline_value(pa, b) - polyline_value(pb, b)
        if da == 0 and db == 0:
            pieces.append((a, b))
        elif da == 0:
            pieces.append((a, a))
        elif db == 0:
            pieces.append((b, b))
        elif (da < 0 < db) or (db < 0 < da):
            t = a + (b - a) * (-da) / (db - da)
            pieces.append((t, t))
    merged = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(p) for p in merged]


def apply_perturbation(table: OrbitIntersections, box: PerturbationBox,
                       through_points=None) -> tuple[PLGraph, SurgeryRecord]:
    """Two-segment (or through-point) replacement above each itinerary copy of the table's curve."""
    system = table.system
    theta, delta, x = box.theta, box.delta, box.x
    tps = []
    if through_points:
        tps = sorted(((Fraction(t), Fraction(v)) for t, v in through_points), key=lambda p: p[0])
        for t, v in tps:
            if not box.contains_interior(t, v):
                raise PreconditionError("through points must lie inside the box")
        if len({t for t, _ in tps}) != len(tps):
            raise PreconditionError("through points need distinct abscissas")
    plan = plan_perturbation(table, box, min_tp_abscissa=tps[0][0] if tps else None)
    lam = plan.lam
    host_value, host_qs = plan.host_group()

    paths = {}
    for value, qs in plan.groups:
        pts = [(theta, x), (theta + lam, x)]
        if value == x and not (qs == host_qs and tps):
            pts = [(theta, x), (theta + delta, x)]
        else:
            if qs == host_qs and tps:
                for t, v in tps:
                    rep = x + signed_gap(mod1(x), mod1(v))
                    pts.append((t, rep))
            pts.append((theta + delta, value))
        for q in qs:
            paths[q] = pts

    # exact structure check: cross-group closures must be exactly [theta, theta+lam]
    for a in range(len(plan.groups)):
        for b in range(a + 1, len(plan.groups)):
            pa = paths[plan.groups[a][1][0]]
            pb = paths[plan.groups[b][1][0]]
            comps = _polyline_intersection_closure(pa, pb)
            if comps != [(theta, theta + lam)]:
                raise LambdaNotFound("through points break the two-segment separation")

    new_graph = table.graph
    support_pieces = []
    for q in box.itinerary.times:
        path = [(t, v - plan.shifts[q]) for t, v in paths[q]]
        image_path = _transform_path(system, path, q)
        lo = mod1(theta + q * system.omega)
        new_graph = new_graph.splice(lo, lo + delta, [(lo + (t - theta), v) for t, v in image_path])
        support_pieces.append((lo, lo + delta))

    predicted: dict = {}
    times = box.itinerary.times
    for qi in times:
        for qj in times:
            k = qi - qj
            if 1 <= k <= box.depth:
                same = plan.right_values[qi] == plan.right_values[qj]
                hi = theta + (delta if same else lam)
                arc = (mod1(theta + qi * system.omega), mod1(theta + qi * system.omega) + (hi - theta))
                predicted.setdefault(k, []).append(arc)
    record = SurgeryRecord(
        box=box, lam=lam,
        support=CircIntervalSet.from_pieces(support_pieces),
        predicted={k: CircIntervalSet.from_pieces(v) for k, v in predicted.items()},
    )
    return new_graph.canonical(), record


def _transform_path(system: QpfSystem, path, q: int):
    """Exact image of a PL path over [t0, t1] under R^q (values only; abscissas shift)."""
    if q == 0:
        return path
    if system.kind == "translation":
        return [(t, v + q * system.rho) for t, v in path]
    disp = None
    rng = range(q) if q > 0 else range(1, -q + 1)
    for j in rng:
        term = system.phi.shift_theta(-j * system.omega) if q > 0 else \
            system.phi.shift_theta(j * system.omega).negate()
        disp = term if disp is None else disp.add_graph(term)
    t0, t1 = path[0][0], path[-1][0]
    abscissas = {t for t, _ in path}
    for t in disp.thetas:
        off = mod1(t - t0)
        if 0 < off < t1 - t0:
            abscissas.add(t0 + off)
    out = []
    for t in sorted(abscissas):
        out.append((t, polyline_value(path, t) + disp.value(t)))
    return out


def verify_x_law(system: QpfSystem, old: PLGraph, new: PLGraph,
                 record: SurgeryRecord, depth: int) -> dict:
    """Recompute every X'_k from scratch and compare with X_k u U J_{i,k}."""
    report = {}
    for k in range(1, depth + 1):
        xk = intersection_projection(old, image_curve(system, old, k))
        xk_new = intersection_projection(new, image_curve(system, new, k))
        expected = xk.union(record.predicted[k]) if k in record.predicted else xk
        report[k] = {
            "match": xk_new == expected,
            "components_before": xk.n_components(),
            "components_after": xk_new.n_components(),
        }
    return report


def graphs_equal_off(g1: PLGraph, g2: PLGraph, support: CircIntervalSet) -> bool:
    """Exact equality of two graphs outside the (closed) support arcs."""
    probes = set(g1.thetas) | set(g2.thetas)
    for lo, hi in support.pieces:
        probes.add(mod1(lo))
        probes.add(mod1(hi))
        probes.add(mod1(lo + (hi - lo) / 2))
    sorted_probes = sorted(probes)
    for a, b in zip(sorted_probes, sorted_probes[1:] + [sorted_probes[0] + 1]):
        mid = a + (b - a) / 2
        for t in (a, mid):
            if support.contains(t):
                continue
            if mod1(g1.value(Fraction(t)) - g2.value(Fraction(t))) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# flattening to finite depth
# ---------------------------------------------------------------------------


@dataclass
class FlattenStep:
    depth: int
    abscissa: float
    degenerate_before: int
    degenerate_after: int
    counts_preserved: bool


@dataclass
class FlattenCertificate:
    depth: int
    steps: list
    components: dict     # k -> list of (lo, hi) floats of the final X_k
    flat: bool
    # the final curve's intersection table, X_1..X_depth computed
    table: OrbitIntersections | None = field(default=None, repr=False, compare=False)

    def to_jsonable(self):
        return {
            "depth": self.depth,
            "flat": self.flat,
            "surgeries": [
                {"depth": s.depth, "abscissa": s.abscissa,
                 "degenerate_before": s.degenerate_before,
                 "degenerate_after": s.degenerate_after,
                 "counts_preserved": s.counts_preserved}
                for s in self.steps
            ],
            "components": {str(k): v for k, v in self.components.items()},
        }


def flatten_to_depth(system: QpfSystem, graph: PLGraph, depth: int):
    """Surgery loop making Gamma /\\ R^k Gamma flat for 1 <= k <= depth."""
    if 2 * depth + 1 > MAX_DEPTH:
        raise PreconditionError(f"depth {depth} exceeds the configured max depth")
    cur = graph
    table = OrbitIntersections(system, cur)
    steps = []
    for n in range(1, depth + 1):
        eps_n = _EPS0 / 2**n
        guard = 0
        while True:
            xs = {k: table.x(k) for k in range(1, n + 1)}
            degs = xs[n].degenerate_components()
            if not degs:
                break
            guard += 1
            if guard > _MAX_SURGERIES:
                raise SurgeryStalled(f"depth {n}: surgery budget exhausted "
                                     f"with {len(degs)} isolated points left")
            gap = None
            for k in range(1, n + 1):
                g = xs[k].min_component_gap()
                if g is not None and g > 0:
                    gap = g if gap is None else min(gap, g)
            delta_max = min(eps_n / 4, Fraction(1, 4 * n))
            if gap is not None:
                delta_max = min(delta_max, gap / 4)
            a = degs[0][0]
            z = (a, cur.circle_value(a))
            # a box too wide for a split point (a steep copy meets another past
            # theta + delta/2) is searched again at half its delta, down to BoxNotFound
            while True:
                box = find_perturbation_box(table, z, n, delta_max, eps_n / 2)
                try:
                    new_graph, _ = apply_perturbation(table, box)
                    break
                except LambdaNotFound:
                    delta_max = box.delta / 2
            new_table = OrbitIntersections(system, new_graph)
            after = len(new_table.x(n).degenerate_components())
            counts_ok = True
            for k in range(1, n):
                nk = new_table.x(k)
                counts_ok &= (nk.n_components() == xs[k].n_components())
                counts_ok &= not nk.degenerate_components()
            if after >= len(degs):
                raise SurgeryStalled(
                    f"depth {n}: isolated count {len(degs)} -> {after} at abscissa {float(a)}")
            if not counts_ok:
                raise SurgeryStalled(f"depth {n}: component counts not preserved below")
            steps.append(FlattenStep(depth=n, abscissa=float(a),
                                     degenerate_before=len(degs), degenerate_after=after,
                                     counts_preserved=counts_ok))
            cur, table = new_graph, new_table
    components = {}
    flat = True
    for k in range(1, depth + 1):
        proj = table.x(k)
        flat &= not proj.degenerate_components()
        components[k] = [(float(lo), float(hi)) for lo, hi in proj.pieces]
    return cur, FlattenCertificate(depth=depth, steps=steps, components=components, flat=flat,
                                   table=table)


# ---------------------------------------------------------------------------
# crossing insertion
# ---------------------------------------------------------------------------


@dataclass
class CrossingWitness:
    m: int
    arc: tuple          # (lo, hi) floats of the certified crossing arc
    arc_exact: tuple    # exact Fractions
    i_arc: tuple
    j_arc: tuple
    verified: bool


def _point_in_triangle(p, a, b, c) -> bool:
    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos) and d1 != 0 and d2 != 0 and d3 != 0


def _sector_triangle(plan: SurgeryPlan):
    """Open triangle adjacent to the host copy's fan segment, inside the box."""
    box = plan.box
    theta, delta, x, eta = box.theta, box.delta, box.x, box.eta
    host_value, _ = plan.host_group()
    apex = (theta + plan.lam, x)
    values = [v for v, _ in plan.groups]
    above = [v for v in values if v > host_value]
    below = [v for v in values if v < host_value]
    for bound in (min(above) if above else x + eta, max(below) if below else x - eta):
        if bound != host_value:
            return apex, (theta + delta, host_value), (theta + delta, bound)
    raise PreconditionError("no non-degenerate sector next to the host fan segment")


def ensure_crossing(system: QpfSystem, graph: PLGraph, arc_i, arc_j, depth: int):
    """Insert a certified crossing of Gamma with some R^m(Gamma) over (I+mw) /\\ J."""
    if system.kind != "translation":
        raise PreconditionError("crossing insertion needs a (minimal) translation base")
    ilo, ihi = Fraction(arc_i[0]), Fraction(arc_i[1])
    jlo, jhi = Fraction(arc_j[0]), Fraction(arc_j[1])
    span_i, span_j = ihi - ilo, jhi - jlo
    if span_i <= 0 or span_j <= 0:
        raise PreconditionError("crossing arcs must be non-degenerate")

    table = OrbitIntersections(system, graph)
    theta_i = mod1(ilo + span_i / 3)
    box_i = find_perturbation_box(table, (theta_i, graph.circle_value(theta_i)),
                                  depth, min(span_i / 4, _CROSSING_EPS), _CROSSING_EPS)
    tri_i = _sector_triangle(plan_perturbation(table, box_i))
    # the tracked point: the centroid of the I sector triangle
    z_d = (sum(p[0] for p in tri_i) / 3, sum(p[1] for p in tri_i) / 3)
    gamma_bar, _ = apply_perturbation(table, box_i, through_points=[z_d])
    bar_table = OrbitIntersections(system, gamma_bar)

    # a disjoint perturbation box over J for the modified curve
    box_j = None
    for slot in range(8):
        theta_j = mod1(jlo + span_j * Fraction(2 * slot + 1, 16))
        try:
            cand = find_perturbation_box(bar_table, (theta_j, gamma_bar.circle_value(theta_j)),
                                         depth, min(span_j / 4, _CROSSING_EPS), _CROSSING_EPS)
        except BoxNotFound:
            continue
        if _families_disjoint(system, box_i, cand):
            box_j = cand
            break
    if box_j is None:
        raise PreconditionError("no perturbation box over J disjoint from the I family")
    tri_j = _sector_triangle(plan_perturbation(bar_table, box_j))

    screened = inside = 0
    for m in _orbit_candidates(system, z_d, tri_j, _CROSSING_M_MAX):
        screened += 1
        local = _localize_in_triangle(_orbit_point(system, z_d[0], z_d[1], m), tri_j)
        if local is None:
            continue
        inside += 1
        try:
            result = _insert_and_verify(bar_table, box_j, tri_j, local, m, (ilo, ihi), (jlo, jhi))
        except (LambdaNotFound, PreconditionError):
            continue
        if result is not None:
            return result
    raise OrbitSearchTimeout(
        f"no orbit segment hit the J box within m_max={_CROSSING_M_MAX} iterations: "
        f"I=[{float(ilo):.6f}, {float(ihi):.6f}], J=[{float(jlo):.6f}, {float(jhi):.6f}], "
        f"J triangle {_extent(tri_j, 0):.1e} x {_extent(tri_j, 1):.1e} (theta-width x x-height), "
        f"orbit times that passed the float screen / the exact triangle test: {screened}/{inside}")


def _extent(tri, axis: int) -> float:
    """The width of a triangle's bounding box along axis (0: theta, 1: x)."""
    return float(max(p[axis] for p in tri) - min(p[axis] for p in tri))


def _orbit_candidates(system: QpfSystem, z, tri, m_max: int):
    """The m in [1, m_max], increasing, whose orbit point R^m(z) may lie in tri.

    A float screen, run over blocks of _SCREEN_BLOCK orbit times: R^m(z) =
    (theta0 + m*omega, x0 + m*rho) mod 1 is formed for every m of a block at once
    and kept when it lies in tri's bounding box on the torus, widened on each
    side by margin = (m_max + 4) * 2^-48.  The float point and the box test are
    off the exact ones by less than (3m + 10) * 2^-53 (one rounding of omega, of
    m*omega and of the sum, each under m * 2^-53), below a tenth of the margin,
    so every m whose exact point is inside tri is kept; the caller decides the
    survivors exactly, and stops the search at its first certified one.
    """
    margin = (m_max + 4) * 2.0**-48
    boxes = [(float(mod1(z[axis])), float(step), float(mod1(min(p[axis] for p in tri))) - margin,
              _extent(tri, axis) + 2 * margin)
             for axis, step in ((0, system.omega), (1, system.rho))]
    for start in range(1, m_max + 1, _SCREEN_BLOCK):
        ms = np.arange(start, min(start + _SCREEN_BLOCK, m_max + 1), dtype=float)
        keep = np.ones(len(ms), dtype=bool)
        for z0, step, lo, width in boxes:
            keep &= mod1_array(mod1_array(z0 + ms * step) - lo) <= width
        yield from (np.flatnonzero(keep) + start).tolist()


def _localize_in_triangle(p, tri):
    """Branch-align a torus point to the triangle's coordinates, or None."""
    apex = tri[0]
    t = apex[0] + mod1(Fraction(p[0]) - apex[0])
    base = apex[1] - mod1(apex[1])  # integer part of the apex ordinate branch
    for k in (0, -1, 1):
        cand = (t, Fraction(p[1]) + base + k)
        if _point_in_triangle(cand, *tri):
            return cand
    return None


def _families_disjoint(system: QpfSystem, box_a: PerturbationBox, box_b: PerturbationBox) -> bool:
    arcs = []
    for box in (box_a, box_b):
        for q in box.itinerary.times:
            lo = mod1(box.theta + q * system.omega)
            arcs.append((lo, lo + box.delta))
    return arcs_disjoint(arcs)


def _insert_and_verify(table, box_j, tri_j, orbit_pt, m, arc_i, arc_j):
    system, gamma_bar = table.system, table.graph
    curve_m = image_curve(system, gamma_bar, m, check_depth=False)
    u_star = orbit_pt[0]
    apex, va, vb = tri_j
    sigma = min((va[0] - u_star) / 4, (u_star - apex[0]) / 4)
    if sigma <= 0:
        return None
    for _ in range(40):
        lo_w, hi_w = u_star - sigma, u_star + sigma
        branch = orbit_pt[1] - curve_m.value(u_star)
        if branch.denominator != 1:
            return None
        vmin, vmax = _pl_range(curve_m, lo_w, hi_w)
        vmin, vmax = vmin + branch, vmax + branch
        tau = sigma / 4
        z1 = (lo_w, vmin - tau)
        z2 = (hi_w, vmax + tau)
        if _point_in_triangle(z1, *tri_j) and _point_in_triangle(z2, *tri_j):
            new_graph, _ = apply_perturbation(table, box_j, through_points=[z1, z2])
            w_pieces = _arc_overlap(arc_i, m * system.omega, arc_j, mod1(u_star))
            if w_pieces is None:
                return None
            ok = crosses_over(new_graph, image_curve(system, new_graph, m, check_depth=False), w_pieces)
            if ok:
                witness = CrossingWitness(
                    m=m,
                    arc=(float(w_pieces[0]), float(w_pieces[1])),
                    arc_exact=w_pieces,
                    i_arc=(float(arc_i[0]), float(arc_i[1])),
                    j_arc=(float(arc_j[0]), float(arc_j[1])),
                    verified=True,
                )
                return new_graph, witness
            return None
        sigma = sigma / 2
    return None


def _arc_overlap(arc_i, shift, arc_j, inside_point):
    """The component of (I + shift) /\\ J containing the given abscissa."""
    ilo = mod1(arc_i[0] + shift)
    ihi = ilo + (arc_i[1] - arc_i[0])
    piece = CircIntervalSet.from_pieces([(ilo, ihi)]).intersect_arc(arc_j[0], arc_j[1])
    for lo, hi in piece.pieces:
        if mod1(inside_point - lo) <= hi - lo:
            return (lo, hi)
    return None
