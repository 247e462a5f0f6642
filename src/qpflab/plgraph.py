"""Exact piecewise-linear circle graphs and circle interval sets.

A PLGraph stores the graph of a continuous map T^1 -> T^1 as an ordered list
of rational breakpoints (theta_i, v_i); v_i are lift values, and the curve
closes up with v(theta_0 + 1) = v(theta_0) + degree.  All predicates on these
graphs are decided in exact rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .circle import mod1

Frac = Fraction


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


@dataclass(frozen=True)
class PLGraph:
    """Piecewise-linear circle graph with exact rational breakpoints."""

    thetas: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    degree: int = 0

    def __post_init__(self):
        if not self.thetas:
            raise ValueError("PLGraph needs at least one breakpoint")
        for a, b in zip(self.thetas, self.thetas[1:]):
            if not a < b:
                raise ValueError("breakpoint abscissas must be strictly increasing")
        if not (0 <= self.thetas[0] < 1):
            raise ValueError("breakpoints must live in [0,1)")
        if self.thetas[-1] >= self.thetas[0] + 1:
            raise ValueError("breakpoints must span less than one period")

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_points(points, degree: int = 0) -> "PLGraph":
        pts = sorted(((Fraction(t), Fraction(v)) for t, v in points), key=lambda p: p[0])
        return PLGraph(tuple(p[0] for p in pts), tuple(p[1] for p in pts), degree)

    @staticmethod
    def constant(c) -> "PLGraph":
        return PLGraph((Fraction(0),), (Fraction(c),), 0)

    @staticmethod
    def tent(base, amplitude, peak=Fraction(1, 2)) -> "PLGraph":
        base, amplitude, peak = Fraction(base), Fraction(amplitude), Fraction(peak)
        return PLGraph((Fraction(0), peak), (base, base + amplitude), 0)

    # -- evaluation ----------------------------------------------------------

    def value(self, t) -> Fraction:
        """Lift value at any real abscissa t (Fraction)."""
        t = Fraction(t)
        k = _floor(t - self.thetas[0])
        u = t - k  # in [theta_0, theta_0 + 1)
        i = bisect_right(self.thetas, u) - 1
        t0, v0 = self.thetas[i], self.values[i]
        if i + 1 < len(self.thetas):
            t1, v1 = self.thetas[i + 1], self.values[i + 1]
        else:
            t1, v1 = self.thetas[0] + 1, self.values[0] + self.degree
        if u == t0:
            base = v0
        else:
            base = v0 + (v1 - v0) * (u - t0) / (t1 - t0)
        return base + k * self.degree

    def circle_value(self, t) -> Fraction:
        return mod1(self.value(t))

    def contains_point(self, theta, x) -> bool:
        """Exact membership of the torus point (theta, x) in the graph."""
        return mod1(self.value(Fraction(theta)) - Fraction(x)) == 0

    # -- transforms ----------------------------------------------------------

    def shift_theta(self, c) -> "PLGraph":
        """Graph of theta -> gamma(theta - c)."""
        c = Fraction(c)
        new_thetas = sorted(mod1(t + c) for t in self.thetas)
        return PLGraph(tuple(new_thetas), tuple(self.value(t - c) for t in new_thetas), self.degree)

    def add_scalar(self, c) -> "PLGraph":
        c = Fraction(c)
        return PLGraph(self.thetas, tuple(v + c for v in self.values), self.degree)

    def add_graph(self, other: "PLGraph") -> "PLGraph":
        """Pointwise sum of lift values."""
        abscissas = merged_abscissas(self, other)
        return PLGraph(
            abscissas,
            tuple(self.value(t) + other.value(t) for t in abscissas),
            self.degree + other.degree,
        )

    def negate(self) -> "PLGraph":
        return PLGraph(self.thetas, tuple(-v for v in self.values), -self.degree)

    def canonical(self) -> "PLGraph":
        """Drop interior breakpoints that are exactly collinear."""
        if len(self.thetas) <= 2:
            return self
        keep = self._kink_indices() or [0]  # globally affine: keep a single anchor
        return PLGraph(
            tuple(self.thetas[i] for i in keep),
            tuple(self.values[i] for i in keep),
            self.degree,
        )

    def kinks(self) -> tuple:
        """Breakpoints where the slope changes; collinear ones are no kinks."""
        return tuple(self.thetas[i] for i in self._kink_indices())

    def _kink_indices(self) -> list:
        n = len(self.thetas)
        keep = []
        for i in range(n):
            tp, vp = self.thetas[i - 1], self.values[i - 1]
            if i == 0:
                tp, vp = tp - 1, vp - self.degree
            t, v = self.thetas[i], self.values[i]
            j = (i + 1) % n
            tn, vn = self.thetas[j], self.values[j]
            if j == 0:
                tn, vn = tn + 1, vn + self.degree
            if (v - vp) * (tn - t) != (vn - v) * (t - tp):
                keep.append(i)
        return keep

    def splice(self, lo, hi, path) -> "PLGraph":
        """Replace the curve over the closed arc [lo, hi] by a PL path.

        ``path`` is a list of (t, v) with lo = t_0 < ... < t_k = hi; its end
        values must agree with the original curve mod 1 (the lift branch is
        aligned automatically, and both ends must use the same branch shift).
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi <= lo + 1:
            raise ValueError("splice arc must satisfy lo < hi <= lo + 1")
        path = [(Fraction(t), Fraction(v)) for t, v in path]
        if path[0][0] != lo or path[-1][0] != hi:
            raise ValueError("path must span exactly [lo, hi]")
        shift = self.value(lo) - path[0][1]
        if shift.denominator != 1:
            raise ValueError("path start does not meet the curve mod 1")
        if self.value(hi) - path[-1][1] != shift:
            raise ValueError("path end does not meet the curve in the same branch")
        path = [(t, v + shift) for t, v in path]

        def new_lift(t: Fraction) -> Fraction:
            k = _floor(t - lo)
            u = t - k  # in [lo, lo+1)
            if u <= hi:
                for (ta, va), (tb, vb) in zip(path, path[1:]):
                    if ta <= u <= tb:
                        val = va if u == ta else va + (vb - va) * (u - ta) / (tb - ta)
                        return val + k * self.degree
                return path[-1][1] + k * self.degree
            return self.value(t)

        abscissas = {mod1(t) for t, _ in path}
        span = hi - lo
        for t in self.thetas:
            if mod1(t - lo) >= span:  # keep breakpoints outside the open arc
                abscissas.add(t)
        new_thetas = tuple(sorted(abscissas))
        return PLGraph(new_thetas, tuple(new_lift(t) for t in new_thetas), self.degree).canonical()

    def breakpoint_count(self) -> int:
        return len(self.thetas)


def merged_abscissas(g1: PLGraph, g2: PLGraph) -> tuple[Fraction, ...]:
    return tuple(sorted(set(g1.thetas) | set(g2.thetas)))


# ---------------------------------------------------------------------------
# circle interval sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircIntervalSet:
    """Finite union of disjoint closed circle arcs, exact endpoints.

    Pieces are (lo, hi) with lo in [0,1), lo <= hi <= lo + 1; a degenerate
    arc has lo == hi.  Canonical form: sorted, pairwise non-touching; the
    full circle is the single piece (0, 1).
    """

    pieces: tuple[tuple[Fraction, Fraction], ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_full(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0][1] - self.pieces[0][0] == 1

    def n_components(self) -> int:
        return len(self.pieces)

    def degenerate_components(self):
        return [p for p in self.pieces if p[0] == p[1]]

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.pieces), Fraction(0))

    def contains(self, theta) -> bool:
        t = mod1(Fraction(theta))
        return any(mod1(t - lo) <= hi - lo for lo, hi in self.pieces)

    def union(self, other: "CircIntervalSet") -> "CircIntervalSet":
        return CircIntervalSet.from_pieces(list(self.pieces) + list(other.pieces))

    def shift(self, c) -> "CircIntervalSet":
        c = Fraction(c)
        return CircIntervalSet.from_pieces([(mod1(lo + c), mod1(lo + c) + (hi - lo)) for lo, hi in self.pieces])

    def intersect_arc(self, lo, hi) -> "CircIntervalSet":
        """Intersection with a single closed arc [lo, hi] (hi <= lo + 1)."""
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        for plo, phi in self.pieces:
            for k in (-1, 0, 1):
                a = max(lo, plo + k)
                b = min(hi, phi + k)
                if a <= b:
                    out.append((mod1(a), mod1(a) + (b - a)))
        return CircIntervalSet.from_pieces(out)

    def min_component_gap(self) -> Fraction | None:
        """Smallest circular gap between consecutive components (None if <=1)."""
        if len(self.pieces) < 2:
            return None
        gaps = []
        for i, (lo, hi) in enumerate(self.pieces):
            nlo = self.pieces[(i + 1) % len(self.pieces)][0]
            gap = mod1(nlo - mod1(hi))
            gaps.append(gap if gap > 0 else Fraction(0))
        return min(gaps)

    @staticmethod
    def empty() -> "CircIntervalSet":
        return CircIntervalSet(())

    @staticmethod
    def full() -> "CircIntervalSet":
        return CircIntervalSet(((Fraction(0), Fraction(1)),))

    @staticmethod
    def from_pieces(raw) -> "CircIntervalSet":
        """Normalize raw (lo, hi) pieces: reduce, merge touching, sort."""
        if not raw:
            return CircIntervalSet(())
        linear = []  # sub-pieces inside [0, 1]
        for lo, hi in raw:
            lo, hi = Fraction(lo), Fraction(hi)
            if hi < lo:
                raise ValueError("piece with hi < lo")
            if hi - lo >= 1:
                return CircIntervalSet.full()
            lo_r = mod1(lo)
            hi_r = lo_r + (hi - lo)
            if hi_r <= 1:
                linear.append((lo_r, hi_r))
            else:
                linear.append((lo_r, Fraction(1)))
                linear.append((Fraction(0), hi_r - 1))
        linear.sort()
        merged = [list(linear[0])]
        for lo, hi in linear[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        # join across the 0/1 seam
        if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
            first = merged.pop(0)
            merged[-1][1] = 1 + first[1]
        elif len(merged) == 1 and merged[0][0] == 0 and merged[0][1] == 1:
            return CircIntervalSet.full()
        pieces = []
        for lo, hi in merged:
            if hi - lo >= 1:
                return CircIntervalSet.full()
            pieces.append((mod1(Fraction(lo)), mod1(Fraction(lo)) + (hi - lo)))
        pieces.sort()
        return CircIntervalSet(tuple(pieces))
