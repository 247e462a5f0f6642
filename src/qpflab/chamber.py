"""Theta-chambers: exact affine tables of the blowup stack.

Over an affine base the window curves are exact PL graphs, so between finitely
many cut points of the circle the combinatorics of every stage are fixed and
each exact quantity is affine in theta.  A stage builds its table by running
its exact builder once per chamber on ``Affine`` numbers: arithmetic stays
exact, and each comparison is decided at the chamber's midpoint while the root
of the compared difference is recorded.  A run that records no root strictly
inside its chamber has the same combinatorics at every point of it; otherwise
the chamber is split at the roots and run again.  ``fiber(theta)`` evaluates
the template of the chamber holding theta, and a theta on a cut point goes to
the stage's direct builder.  Float readers skip the Fractions: ``floats``
reads a template's numbers from integer rows, rounded as float() rounds them.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import total_ordering

from .circle import mod1
from .errors import QpfLabError


class Probe:
    """One chamber (a, b) under construction, in unrolled theta: midpoint and roots met."""

    def __init__(self, a: Fraction, b: Fraction):
        self.a, self.b, self.ref, self.roots = a, b, (a + b) / 2, set()

    @property
    def theta(self) -> "Affine":
        return Affine(Fraction(0), Fraction(1), self)

    def sign(self, d) -> int:
        """Sign of d at the midpoint; records the root of a theta-dependent d."""
        if isinstance(d, Affine):
            root = -d.c0 / d.c1
            if self.a < root < self.b:
                self.roots.add(root)
            d = d.at(self.ref)
        return (d > 0) - (d < 0)


def affine(c0, c1, probe: Probe):
    """c0 + c1*theta on the probe's chamber; a plain Fraction when c1 = 0."""
    return c0 if c1 == 0 else Affine(c0, c1, probe)


@total_ordering
class Affine:
    """c0 + c1*theta (c1 != 0) on one chamber, theta unrolled across it.

    Sums and products with constants stay exact.  Comparisons, equality,
    hashing and float() read the value at the probe's midpoint, and
    comparisons record the root; float() serves error messages and the float
    tables a template carries unused.
    """

    __slots__ = ("c0", "c1", "probe")

    def __init__(self, c0, c1, probe: Probe):
        self.c0, self.c1, self.probe = c0, c1, probe

    def at(self, t):
        return self.c0 + self.c1 * t

    def __add__(self, other):
        if isinstance(other, Affine):
            return affine(self.c0 + other.c0, self.c1 + other.c1, self.probe)
        return Affine(self.c0 + other, self.c1, self.probe)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.c0, -self.c1, self.probe)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Affine):
            raise TypeError("a product of two theta-dependent values is not affine")
        return affine(self.c0 * other, self.c1 * other, self.probe)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / other)

    def __mod__(self, one):
        """Reduction mod 1, as circle.mod1 asks for it; records the integer crossings."""
        k = math.floor(self.at(self.probe.ref))
        self.probe.sign(self - (k + 1))
        self.probe.sign(self - k)
        return self - k

    def __eq__(self, other):
        if not isinstance(other, (Affine, Fraction, int)):
            return NotImplemented
        return self.probe.sign(self - other) == 0

    def __lt__(self, other):
        return self.probe.sign(self - other) < 0

    def __hash__(self):
        return hash(self.at(self.probe.ref))

    def __float__(self):
        return float(self.at(self.probe.ref))


def map_leaves(obj, leaf):
    """obj rebuilt with every Affine inside it replaced by leaf(it)."""
    if isinstance(obj, Affine):
        return leaf(obj)
    if isinstance(obj, (tuple, list)):
        return type(obj)(map_leaves(x, leaf) for x in obj)
    if isinstance(obj, dict):
        return {k: map_leaves(v, leaf) for k, v in obj.items()}
    if is_dataclass(obj):
        return replace(obj, **{f.name: map_leaves(getattr(obj, f.name), leaf)
                               for f in fields(obj) if f.init})
    return obj


def _has_affine(obj) -> bool:
    """Whether obj holds an Affine where map_leaves looks; stops at the first."""
    if isinstance(obj, Affine):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_has_affine(x) for x in obj)
    if isinstance(obj, dict):
        return any(_has_affine(v) for v in obj.values())
    if is_dataclass(obj):
        return any(_has_affine(getattr(obj, f.name)) for f in fields(obj) if f.init)
    return False


def rebind(template, probe: Probe, shift):
    """The template in the probe's theta, where the template's own theta is it + shift."""
    return map_leaves(template, lambda x: affine(x.c0 + x.c1 * shift, x.c1, probe))


def restamp(theta, fiber):
    """A copy of a fiber carrying this theta (frozen dataclasses too)."""
    if not hasattr(fiber, "theta"):
        return fiber
    fiber = copy.copy(fiber)
    object.__setattr__(fiber, "theta", theta)
    return fiber


class Chamber:
    def __init__(self, a, b, template):
        self.a, self.b, self.template = a, b, template
        self.constant = not _has_affine(template)
        self.fixed = None           # the finished fiber of a constant template
        self.rows = {}              # (leaves, reduce) -> compiled floats, made on first use

    def floats(self, t: Fraction, leaves, reduce=False) -> list:
        """float() of the numbers leaves(template) lists, at unrolled t; of them mod 1 with reduce.

        A theta-dependent number c0 + c1*t over the common denominator m of c0
        and c1 is the integer row (c0*m, c1*m, m), and at t = p/q its value is
        (c0*m*q + c1*m*p) / (m*q).  Python's int division rounds that quotient
        correctly, as float() of the Fraction does, so the two agree bit for
        bit.  Constant numbers are rounded once.
        """
        key = (leaves, reduce)
        if key not in self.rows:
            self.rows[key] = _compile(leaves(self.template), reduce)
        fixed, rows = self.rows[key]
        out = fixed.copy()
        p, q = t.numerator, t.denominator
        for i, a, c, m in rows:
            num, den = a * q + c * p, m * q
            out[i] = (num % den if reduce else num) / den
        return out


def _compile(numbers, reduce: bool) -> tuple:
    """Floats of the constant numbers, and a row (index, c0*m, c1*m, m) per Affine."""
    fixed, rows = [], []
    for i, x in enumerate(numbers):
        if isinstance(x, Affine):
            m = math.lcm(x.c0.denominator, x.c1.denominator)
            rows.append((i, x.c0.numerator * (m // x.c0.denominator),
                         x.c1.numerator * (m // x.c1.denominator), m))
            x = 0
        fixed.append(float(mod1(x) if reduce else x))
    return fixed, rows


class ChamberTable:
    """Sorted cut points in [0, 1) and one template per chamber between them.

    Chamber i runs from cuts[i] to cuts[i + 1], and the last one to
    cuts[0] + 1, in unrolled theta.  Without cuts the one chamber is the
    whole circle and its template is constant.
    """

    def __init__(self, cuts, build):
        cuts = set(cuts)
        whole = not cuts
        ends = sorted(cuts) or [Fraction(0)]
        todo = list(zip(ends, ends[1:] + [ends[0] + 1]))
        self.chambers = []
        while todo:
            a, b = todo.pop()
            probe = Probe(a, b)
            try:
                template = build(probe)
            except QpfLabError:
                if not probe.roots:     # it fails at the midpoint itself
                    raise
            if probe.roots:
                roots = sorted(probe.roots)
                cuts.update(mod1(r) for r in roots)
                # a piece split off the wrapping chamber past 1 starts over in [0, 1)
                todo += [(x - (x >= 1), y - (x >= 1)) for x, y in zip([a] + roots, roots + [b])]
            else:
                self.chambers.append(Chamber(a, b, template))
        if whole and (cuts or not self.chambers[0].constant):
            cuts.add(Fraction(0))       # the trial turn from 0 ends at a real cut
        self.cuts = sorted(cuts)
        self.float_cuts = [float(c) for c in self.cuts]
        self.chambers.sort(key=lambda c: c.a)

    def locate(self, theta):
        """(chamber, unrolled t) holding theta, or (None, theta mod 1) on a cut point."""
        r = mod1(theta if isinstance(theta, Fraction) else Fraction(theta))
        x = float(r)
        i = bisect_right(self.float_cuts, x) - 1
        # float() is monotone, so only a cut that rounds to x itself can lie past r or on it
        while i >= 0 and self.float_cuts[i] == x and self.cuts[i] > r:
            i -= 1
        if i >= 0 and self.float_cuts[i] == x and self.cuts[i] == r:
            return None, r
        ch = self.chambers[i]
        return ch, (r if i >= 0 or r > ch.a else r + 1)

    def constant_at(self, theta):
        """The constant chamber holding theta; None on a cut point or in a non-constant one."""
        if not self.cuts:               # one constant chamber, the whole circle
            return self.chambers[0]
        ch, _ = self.locate(theta)
        return ch if ch is not None and ch.constant else None

    def template_on(self, probe: Probe):
        """The template of the chamber that holds the probe's, bound to the probe."""
        ch, t = self.locate(probe.ref)
        return rebind(ch.template, probe, t - probe.ref)

    def fiber(self, theta, direct, finish=restamp, leaves=None):
        """The fiber at theta: direct(theta) on a cut point, else finish(theta, x).

        x is the chamber's template evaluated at theta or, given leaves, the
        floats of the numbers leaves(template) lists (Chamber.floats).
        """
        if not isinstance(theta, Fraction):
            theta = Fraction(theta)
        ch, t = self.locate(theta)
        if ch is None:
            return direct(theta)
        if ch.constant and ch.fixed is not None:
            return restamp(theta, ch.fixed)
        fiber = finish(theta, ch.floats(t, leaves) if leaves
                       else map_leaves(ch.template, lambda x: x.at(t)))
        if not ch.constant:
            return fiber
        ch.fixed = fiber
        return restamp(theta, fiber)


def grid_classes(grid: int, reads, tag=None) -> list:
    """For each g < grid, the first g' whose grid fiber theta = g'/grid has g's inputs.

    A grid pass reads, at theta, the fiber of each table at theta + shift
    for the (table, shift) pairs in reads.  g and g' are in one class when
    every table holds their two thetas in the same constant chamber (chambers
    keyed by identity) and tag(g) == tag(g'): then every fiber the pass reads
    is the same restamped one, and so is its result.  A g with some theta +
    shift on a cut point or in a non-constant chamber is its own class.
    """
    first: dict = {}
    out = []
    shifts = list({shift for _, shift in reads})
    slots = [(table, shifts.index(shift)) for table, shift in reads]
    for g in range(grid):
        theta = Fraction(g, grid)
        at = [theta + shift for shift in shifts]     # one Fraction sum per distinct shift
        key = [table.constant_at(at[i]) for table, i in slots]
        if None in key:
            out.append(g)
            continue
        key = (*map(id, key), tag(g) if tag else None)
        out.append(first.setdefault(key, g))
    return out
