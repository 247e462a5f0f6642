"""Exact geometry of PL circle graphs under qpf dynamics.

Curve images are exact for affine bases (translation, PL skew rotation);
intersections, flatness and crossing predicates are decided in rational
arithmetic, so degenerate components are certified, never guessed.
"""

from __future__ import annotations

from fractions import Fraction

from .circle import mod1
from .errors import PreconditionError
from .plgraph import CircIntervalSet, PLGraph, _ceil, _floor, merged_abscissas
from .systems import MAX_DEPTH, QpfSystem


def image_curve(system: QpfSystem, graph: PLGraph, n: int, check_depth: bool = True) -> PLGraph:
    """Exact graph of R^n(Gamma); only affine bases (translation, PL skew) have one."""
    if check_depth and abs(n) > MAX_DEPTH:
        raise PreconditionError(f"|n|={abs(n)} exceeds max depth {MAX_DEPTH}")
    if not system.is_affine:
        raise PreconditionError("exact curve images need a translation or PL skew base")
    cur = graph
    if system.kind == "translation":
        if n == 0:
            return cur
        return cur.shift_theta(n * system.omega).add_scalar(n * system.rho).canonical()
    for _ in range(n if n > 0 else 0):
        # R(Gamma): theta -> gamma(theta - w) + phi(theta - w)
        cur = cur.add_graph(system.phi).shift_theta(system.omega).canonical()
    for _ in range(-n if n < 0 else 0):
        # R^{-1}(Gamma): theta -> gamma(theta + w) - phi(theta)
        cur = cur.shift_theta(-system.omega).add_graph(system.phi.negate()).canonical()
    return cur


def difference_pieces(g1: PLGraph, g2: PLGraph):
    """Linear pieces of the lift difference g1 - g2 over one period.

    Yields (a, b, da, db): abscissa span and difference values at its ends.
    """
    abscissas = merged_abscissas(g1, g2)
    d = [g1.value(t) - g2.value(t) for t in abscissas]
    m = len(abscissas)
    deg = g1.degree - g2.degree
    for i in range(m):
        a, da = abscissas[i], d[i]
        if i + 1 < m:
            b, db = abscissas[i + 1], d[i + 1]
        else:
            b, db = abscissas[0] + 1, d[0] + deg
        yield a, b, da, db


def intersection_projection(g1: PLGraph, g2: PLGraph) -> CircIntervalSet:
    """p1(Gamma1 /\\ Gamma2): exact abscissa set where the circle values agree."""
    pieces = []
    for a, b, da, db in difference_pieces(g1, g2):
        if da == db:
            if da.denominator == 1:
                pieces.append((a, b))
            continue
        lo, hi = (da, db) if da < db else (db, da)
        for level in range(_ceil(lo), _floor(hi) + 1):
            t = a + (level - da) * (b - a) / (db - da)
            pieces.append((t, t))
    return CircIntervalSet.from_pieces([(mod1(lo), mod1(lo) + (hi - lo)) for lo, hi in pieces])


class OrbitIntersections:
    """The sets X_k = p1(Gamma /\\ R^k Gamma) of one curve, each k computed once.

    R is a fibre-preserving bijection over theta -> theta + omega, so for
    i < j, R^i Gamma /\\ R^j Gamma = R^i(Gamma /\\ R^(j-i) Gamma) and its
    projection is X_(j-i) shifted by i*omega; CircIntervalSet is canonical, so
    the shifted set equals the one intersection_projection gives directly.
    """

    def __init__(self, system: QpfSystem, graph: PLGraph):
        self.system = system
        self.graph = graph
        self._images: dict = {}               # k -> R^k(Gamma)
        self._x: dict = {}                    # k >= 1 -> X_k

    def image(self, k: int) -> PLGraph:
        """R^k(Gamma), computed once (k within the system's max depth)."""
        if k not in self._images:
            self._images[k] = image_curve(self.system, self.graph, k)
        return self._images[k]

    def x(self, k: int) -> CircIntervalSet:
        """X_k for k >= 1."""
        if k not in self._x:
            self._x[k] = intersection_projection(self.graph, self.image(k))
        return self._x[k]

    def between(self, i: int, j: int) -> CircIntervalSet:
        """p1(R^i Gamma /\\ R^j Gamma) for i != j."""
        lo, hi = min(i, j), max(i, j)
        if lo == hi:
            raise PreconditionError("a curve meets itself everywhere")
        x = self.x(hi - lo)
        return x.shift(lo * self.system.omega) if lo else x


def is_flat_intersection(g1: PLGraph, g2: PLGraph):
    """Definition check: every component of the projected intersection is an arc.

    The empty intersection counts as flat.  Returns (flat, components).
    """
    proj = intersection_projection(g1, g2)
    return (not proj.degenerate_components(), proj)


def crosses_over(g1: PLGraph, g2: PLGraph, arc) -> bool:
    """Whether g2 passes from one side of g1 to the other inside the arc.

    arc is (lo, hi) with hi <= lo + 1; the crossing must be realized strictly
    inside, so components touching the arc boundary are not certified.
    """
    lo, hi = Fraction(arc[0]), Fraction(arc[1])
    if hi <= lo:
        raise PreconditionError("crossing arc must be non-degenerate")
    meet = intersection_projection(g1, g2).intersect_arc(lo, hi)
    if meet.is_empty:
        return False
    span = hi - lo
    for comp in meet.pieces:
        if span < 1:
            clo_off = mod1(comp[0] - lo)
            chi_off = clo_off + (comp[1] - comp[0])
            if clo_off == 0 or chi_off >= span:
                continue  # touches the arc boundary: not certifiable inside
        left = _branch_sign_near(g1, g2, comp[0], -1)
        right = _branch_sign_near(g1, g2, comp[1], +1)
        if left is not None and right is not None and left * right < 0:
            return True
    return False


def _branch_sign_near(g1: PLGraph, g2: PLGraph, endpoint: Fraction, direction: int):
    """Sign of the local branch of (g2 - g1) adjacent to an intersection endpoint."""
    abscissas = sorted(set(mod1(t) for t in merged_abscissas(g1, g2)))
    # find the nearest breakpoint strictly on the chosen side to form a probe point
    eps = Fraction(1, 1)
    e = mod1(endpoint)
    for t in abscissas:
        gap = mod1(direction * (t - e))
        if 0 < gap < eps:
            eps = gap
    probe = e + direction * eps / 2
    diff = g2.value(probe) - g1.value(probe)
    # compare against the branch value at the endpoint (an exact integer there)
    base = g2.value(e) - g1.value(e)
    rel = diff - base
    if rel == 0:
        return 0
    return 1 if rel > 0 else -1
