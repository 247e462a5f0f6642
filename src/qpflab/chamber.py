"""Theta-chambers: exact affine tables of the blowup stack.

Over an affine base the window curves are exact PL graphs, so between finitely
many cut points of the circle the combinatorics of every stage are fixed and
each exact quantity is affine in theta.  A table with any cut has one at 0, so
its chambers tile [0, 1] and every chamber reads plain theta in [0, 1].  A
stage builds its table by running its exact builder once per chamber on
``Affine`` numbers c0 + c1*theta, inside the chamber's ``Probe``: arithmetic
stays exact, and each comparison is decided at the midpoint of the active
probe while the root of the compared difference is recorded.  ``Probe.sign``
decides a comparison in floats, without forming the exact difference, when the
difference clears a rounding bound with one sign at both closed ends, and
exactly otherwise.  A run that records no root strictly inside its chamber has
the same combinatorics at every point of it; otherwise the chamber is split at
the roots and run again.  An Affine holds no probe, so a stage reads the
templates of the stage below as they are.  ``fiber(theta)`` evaluates the
template of the chamber holding theta mod 1.  A cut point is a chamber of one
point: its first read runs the stage's direct builder there, once, and keeps
that fiber.  Float readers skip the Fractions: ``floats`` reads a template's
numbers from integer rows, rounded as float() rounds them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import total_ordering

from .circle import mod1
from .errors import QpfLabError


_active: list = []     # the probes of the builds in progress, innermost last; see Probe


class Probe:
    """One chamber (a, b) of [0, 1] under construction: midpoint and roots met.

    Entered as a context manager around a build, it is the probe that every
    Affine compares, hashes and rounds at; a nested build pushes its own, and
    leaving the with-block pops it on success and on error alike.
    """

    def __init__(self, a: Fraction, b: Fraction):
        self.a, self.b, self.ref, self.roots = a, b, (a + b) / 2, set()
        self.fa, self.fb = float(a), float(b)

    def __enter__(self) -> "Probe":
        _active.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _active.pop()

    @property
    def theta(self) -> "Affine":
        return Affine(Fraction(0), Fraction(1))

    def sign(self, x, y=0) -> int:
        """Sign of x - y at the midpoint; records the root of a theta-dependent x - y in (a, b).

        The difference is first screened in floats at the closed ends, with
        no exact subtraction.  Each side, given by the floats (x0, x1) of its
        (c0, c1), or (x0, 0) for a constant, is x0 + x1*t at t = fa and fb to
        within about 4 ulp of |x0| + |x1*t|, so the float differences va and
        vb err by far less than the bound
        1e-14*(|x0| + |y0| + (|x1| + |y1|)*(|fa| + |fb|)) + 1e-300 (the last
        term covers subnormal underflow).  When both clear it with one strict
        sign, x - y has no root in [a, b] and that is its sign at the
        midpoint.  Otherwise the root and the midpoint sign are exact.
        """
        (x0, x1), (y0, y1), fa, fb = _floats(x), _floats(y), self.fa, self.fb
        va = x0 + x1 * fa - (y0 + y1 * fa)
        vb = x0 + x1 * fb - (y0 + y1 * fb)
        bound = 1e-14 * (abs(x0) + abs(y0) + (abs(x1) + abs(y1)) * (abs(fa) + abs(fb))) + 1e-300
        if va > bound and vb > bound:
            return 1
        if va < -bound and vb < -bound:
            return -1
        d = x - y
        if isinstance(d, Affine):
            root = -d.c0 / d.c1
            if self.a < root < self.b:
                self.roots.add(root)
            d = d.at(self.ref)
        return (d > 0) - (d < 0)


def _floats(x) -> tuple:
    """(c0, c1) of an Affine, or (x, 0) of a constant, as correctly rounded floats."""
    if isinstance(x, Affine):
        return x.c0.numerator / x.c0.denominator, x.c1.numerator / x.c1.denominator
    return x.numerator / x.denominator, 0.0


def affine(c0, c1):
    """c0 + c1*theta; a plain Fraction when c1 = 0."""
    return c0 if c1 == 0 else Affine(c0, c1)


@total_ordering
class Affine:
    """c0 + c1*theta (c1 != 0) on one chamber, for theta in [0, 1].

    Sums and products with constants stay exact.  Comparisons, equality,
    hashing and float() read the value at the midpoint of the active probe,
    the innermost build in progress, and comparisons record the root there;
    float() serves error messages.
    """

    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1):
        self.c0, self.c1 = c0, c1

    def at(self, t):
        return self.c0 + self.c1 * t

    def __add__(self, other):
        if isinstance(other, Affine):
            return affine(self.c0 + other.c0, self.c1 + other.c1)
        return Affine(self.c0 + other, self.c1)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.c0, -self.c1)

    def __sub__(self, other):
        if isinstance(other, Affine):
            return affine(self.c0 - other.c0, self.c1 - other.c1)
        return Affine(self.c0 - other, self.c1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Affine):
            raise TypeError("a product of two theta-dependent values is not affine")
        return affine(self.c0 * other, self.c1 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / other)

    def __mod__(self, one):
        """Reduction mod 1, as circle.mod1 asks for it; records the integer crossings."""
        probe = _active[-1]
        k = math.floor(self.at(probe.ref))
        probe.sign(self, k + 1)
        probe.sign(self, k)
        return self - k

    def __eq__(self, other):
        if not isinstance(other, (Affine, Fraction, int)):
            return NotImplemented
        return _active[-1].sign(self, other) == 0

    def __lt__(self, other):
        return _active[-1].sign(self, other) < 0

    def __hash__(self):
        return hash(self.at(_active[-1].ref))

    def __float__(self):
        return float(self.at(_active[-1].ref))


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


class Chamber:
    def __init__(self, a, b, template):
        self.a, self.b, self.template = a, b, template
        self.constant = not _has_affine(template)
        self.fixed = None           # the finished fiber of a constant template
        self.rows = {}              # (leaves, reduce) -> compiled floats, made on first use
        self.reader = None          # the reader that ChamberTable.fiber made for this chamber

    def compiled(self, leaves, reduce=False) -> tuple:
        """(floats, rows) of the numbers leaves(template) lists, made once: _compile's."""
        key = (leaves, reduce)
        if key not in self.rows:
            self.rows[key] = _compile(leaves(self.template), reduce)
        return self.rows[key]

    def floats(self, t: Fraction, leaves, reduce=False) -> list:
        """float() of the numbers leaves(template) lists, at t in [0, 1]; of them mod 1 with reduce."""
        fixed, rows = self.compiled(leaves, reduce)
        out = fixed.copy()
        for i, x in row_values(rows, t, reduce):
            out[i] = x
        return out


def row_values(rows, t: Fraction, reduce=False):
    """(index, float) of each compiled row's number at t in [0, 1]; mod 1 with reduce.

    A theta-dependent number c0 + c1*t over the common denominator m of c0
    and c1 is the integer row (c0*m, c1*m, m), and at t = p/q its value is
    (c0*m*q + c1*m*p) / (m*q).  Python's int division rounds that quotient
    correctly, as float() of the Fraction does, so the two agree bit for bit.
    """
    p, q = t.numerator, t.denominator
    for i, a, c, m in rows:
        num, den = a * q + c * p, m * q
        yield i, (num % den if reduce else num) / den


def _compile(numbers, reduce: bool) -> tuple:
    """Floats of the numbers, 0 for each Affine, and a row (index, c0*m, c1*m, m) per Affine.

    Constant numbers are rounded here, once.
    """
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

    Chamber i runs from cuts[i] to cuts[i + 1], and the last one to 1.  A
    table with any cut has one at 0, so its chambers tile [0, 1].  Without
    cuts the one chamber is the whole circle and its template is constant.
    Each cut point is a chamber [cut, cut] of its own: its first read keeps
    exact(cut), the stage's direct build, as its template and its one fiber.
    """

    def __init__(self, cuts, build, exact):
        cuts = set(cuts)
        ends = sorted(cuts | {Fraction(0)})
        todo = list(zip(ends, ends[1:] + [Fraction(1)]))
        self.chambers = []
        while todo:
            a, b = todo.pop()
            probe = Probe(a, b)
            try:
                with probe:
                    template = build(probe)
            except QpfLabError:
                if not probe.roots:     # it fails at the midpoint itself
                    raise
            if probe.roots:
                roots = sorted(probe.roots)
                cuts.update(roots)
                todo += zip([a] + roots, roots + [b])
            else:
                self.chambers.append(Chamber(a, b, template))
        if cuts or not self.chambers[0].constant:
            cuts.add(Fraction(0))       # the circle is cut, or its one chamber jumps at 0
        self.cuts = sorted(cuts)
        self.float_cuts = [float(c) for c in self.cuts]
        self.chambers.sort(key=lambda c: c.a)
        self.exact = exact
        self.points = {}                # cut -> its one-point chamber, made on first read
        self.maps = {}                  # (grid, shift, step) -> grid_map's list, made on first use

    def locate(self, theta):
        """(chamber holding theta, theta mod 1); on a cut point, the cut's own chamber."""
        r = mod1(theta if isinstance(theta, Fraction) else Fraction(theta))
        x = float(r)
        i = bisect_right(self.float_cuts, x) - 1
        # float() is monotone, so only a cut that rounds to x itself can lie past r or on it
        while i >= 0 and self.float_cuts[i] == x and self.cuts[i] > r:
            i -= 1
        if i >= 0 and self.float_cuts[i] == x and self.cuts[i] == r:
            if r not in self.points:
                ch = self.points[r] = Chamber(r, r, self.exact(r))
                ch.fixed = ch.template
            return self.points[r], r
        return self.chambers[i], r

    def grid_map(self, grid: int, shift, step: int = 1) -> list:
        """For each g in range(0, grid, step), the constant chamber holding g/grid + shift, else None.

        None stands for a cut point (a chamber of that point alone) and for a
        non-constant chamber.  The list is made once per (grid, shift, step)
        and shared by every pass that asks for it.  A table without cuts
        answers with its one chamber; otherwise each constant chamber (a, b)
        takes the g with a < g/grid + shift - k < b for k = 0, 1 (shift
        reduced mod 1), found from its ends with one floor and one ceiling.
        """
        key = (grid, shift, step)
        if key in self.maps:
            return self.maps[key]
        n = len(range(0, grid, step))
        if not self.cuts:
            out = [self.chambers[0]] * n
        else:
            out, s = [None] * n, mod1(shift)
            for ch in self.chambers:
                if not ch.constant:
                    continue
                for k in (0, 1):
                    lo = max(0, math.floor(grid * (ch.a + k - s)) + 1)
                    hi = min(grid - 1, math.ceil(grid * (ch.b + k - s)) - 1)
                    i, j = -(-lo // step), hi // step       # the multiples of step in [lo, hi]
                    if i <= j:
                        out[i:j + 1] = [ch] * (j + 1 - i)
        self.maps[key] = out
        return out

    def template_on(self, probe: Probe):
        """The template of the chamber holding the probe's (whose table has all our cuts)."""
        return self.locate(probe.ref)[0].template

    def fiber(self, theta, reader=None):
        """The fiber at theta: the template of the chamber holding it, at theta.

        Given reader, it is reader(chamber)(theta, t) at t = theta mod 1:
        reader runs once per chamber, at its first read, and the chamber
        keeps what it returns.  A constant chamber, a cut point's included,
        makes its fiber once and hands out that one object.
        """
        if not isinstance(theta, Fraction):
            theta = Fraction(theta)
        ch, t = self.locate(theta)
        if ch.fixed is not None:
            return ch.fixed
        if reader is None:
            fiber = map_leaves(ch.template, lambda x: x.at(t))
        else:
            if ch.reader is None:
                ch.reader = reader(ch)
            fiber = ch.reader(theta, t)
        if ch.constant:
            ch.fixed = fiber
        return fiber


def grid_classes(grid: int, reads, tag=None, step: int = 1) -> list:
    """For each g in range(0, grid, step), the first such g' whose fiber g'/grid has g's inputs.

    A grid pass reads, at theta, the fiber of each table at theta + shift
    for the (table, shift) pairs in reads.  g and g' are in one class when
    every table holds their two thetas in the same constant chamber (the
    tables' grid maps, ChamberTable.grid_map) and tag(g) == tag(g'): then
    every fiber the pass reads is its chamber's one fiber object, and so is
    its result.  A g with some theta + shift on a cut point or in a
    non-constant chamber is its own class.
    """
    gs = range(0, grid, step)
    maps = [table.grid_map(grid, shift, step) for table, shift in reads]
    first: dict = {}
    out = []
    for g, chambers in zip(gs, zip(*maps) if maps else [()] * len(gs)):
        if None in chambers:
            out.append(g)
            continue
        key = (*map(id, chambers), tag(g) if tag else None)     # the maps hold the chambers
        out.append(first.setdefault(key, g))
    return out


def grid_pass(grid: int, reads, fn, tag=None, step: int = 1):
    """A row pass: fn(g/grid) for each g in range(0, grid, step), computed once per grid class.

    A class's value is held only until its last member has taken it.
    """
    gs = range(0, grid, step)
    reps = grid_classes(grid, reads, tag, step)
    last = dict(zip(reps, gs))
    held: dict = {}
    for g, r in zip(gs, reps):
        value = held.pop(r) if r in held else fn(Fraction(g, grid))
        if last[r] > g:
            held[r] = value
        yield value


def class_thetas(grid: int, reads) -> list:
    """For a pass that reduces (a maximum, a check): the theta of each grid class's first member."""
    return [Fraction(g, grid) for g, r in enumerate(grid_classes(grid, reads)) if r == g]
