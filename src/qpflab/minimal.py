"""Approximate minimal sets: orbit binning, fiber components, structure probes.

One long orbit is binned on a torus grid (the uniqueness of the minimal set
for transitive or strip-free maps licenses the single-orbit shortcut; a
second seed cross-checks it).  A long orbit's second half runs in a forked
child process, whose bins count only when its guessed start has merged
with the orbit.  Diagnostics test the vertical-segment property and bound
the occupied measure of each fiber (a Cantor proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .branch import Branch
from .chamber import grid_pass
from .circle import mod1_array, orbit_thetas
from .errors import PreconditionError
from .systems import QpfSystem, flat_row_step, nearest_rows, pl_values_float, row_step

# The speculative orbit runs in blocks of _SEGMENTS x _SEGMENT steps; each
# segment's guess starts _WARMUP steps early.  On a contracting cocycle two
# orbits of the table become the same float within a few dozen steps (Harper
# E=0, lambda=2, 512^2 table: 26 at the median and 46 at most over 1000
# random pairs), so the guesses are mostly the orbit itself.  Once the repair
# pass has walked _MIN_WALK steps of a block and repaired more than
# 1/_GIVE_UP of them, the speculation ends; the rest of the run walks in
# chunks of _CHUNK steps, small enough that the chunk's Python lists (about
# 130 bytes a step) add little to the peak memory.  The child process of a
# long orbit bins from _CHUNK steps after its guessed start, far past the
# merge times above.
_SEGMENTS = 512
_SEGMENT = 128
_WARMUP = 64
_BLOCK = _SEGMENTS * _SEGMENT
_GIVE_UP = 8
_MIN_WALK = 1 << 10
_CHUNK = 1 << 10
# The projection lift walks its samples in blocks of _LIFT_BLOCK; the
# diagnostics and the run-length lines read the occupancy _ROW_BLOCK fibers
# at a time.
_LIFT_BLOCK = 1 << 14
_ROW_BLOCK = 64


def _index_dtype(size: int):
    """int32 for the flat indices of an array of this many entries if they fit, else intp."""
    return np.int32 if size <= 2**31 else np.intp


def _walk(flat, vres, offsets, x):
    """x after each scalar step of the tabulated map from x.

    Step k reads the table row that starts at flat offset offsets[k] and
    interpolates linearly in x between the vertical knots, x = 1 in the last
    cell: the float operations of `row_step`, in the same order.
    """
    out = []
    for row in offsets:
        pos = x * vres
        j = int(pos)
        if j >= vres:
            j = vres - 1
        frac = pos - j
        k = row + j
        x = (flat[k] * (1.0 - frac) + flat[k + 1] * frac) % 1.0
        out.append(x)
    return out


def _speculate(flat, vres, offsets, segs, x):
    """Guesses of the orbit from x over segs segments, stepped all at once.

    offsets[_WARMUP + k] is the flat offset of the table row of step k.
    Segment s covers steps s*_SEGMENT onward; its guess starts from x at
    step s*_SEGMENT - _WARMUP and every segment steps at once through
    `flat_row_step`.  Segment 0 restarts from x itself, so its guesses are
    exact.  Returns the guessed x at the start of each segment (a list) and
    after every step (flat).
    """
    guess = np.full(segs, x)
    for t in range(_WARMUP):
        guess = flat_row_step(flat, vres, offsets[t::_SEGMENT][:segs], guess)
    guess[0] = x
    starts = guess.tolist()
    xs = np.empty((segs, _SEGMENT))
    for t in range(_SEGMENT):
        guess = flat_row_step(flat, vres, offsets[_WARMUP + t::_SEGMENT][:segs], guess)
        xs[:, t] = guess
    return starts, xs.reshape(-1)


def _speculative_block(flat, vres, offsets, n, x):
    """The orbit over at most n steps from x, guessed, then repaired.

    offsets[_WARMUP + k] is the flat offset of the table row of step k.  The
    scalar pass walks the true orbit segment by segment, each up to the
    first step whose x equals the guess: a step is a function of x and the
    row, so from there on the guess is the orbit.  At the end of a segment,
    once it has walked _MIN_WALK steps and repaired more than 1/_GIVE_UP of
    them, the pass gives up and drops the guesses after that segment.
    Returns x after each step walked, the last x, and whether it gave up.
    """
    segs = -(-n // _SEGMENT)
    starts, xs = _speculate(flat, vres, offsets, segs, x)
    fv = memoryview(flat)
    ov = memoryview(offsets)
    xv = memoryview(xs)
    repaired = 0
    for s, start in enumerate(starts):
        lo = s * _SEGMENT
        hi = min(lo + _SEGMENT, n)
        if x != start:
            for k in range(lo, hi):
                (x,) = _walk(fv, vres, (ov[_WARMUP + k],), x)
                if x == xv[k]:
                    break
                xv[k] = x
                repaired += 1
        x = xv[hi - 1]
        if hi >= _MIN_WALK and repaired * _GIVE_UP > hi:
            return xs[:hi], x, True
    return xs[:n], x, False


def _set_bins(occ, bi, xs):
    """Mark the bins of the points (bi, xs) in occ; bi holds theta * bins.

    bi and xs are overwritten: xs is scaled to bins, and bi becomes the flat
    index of each bin in occ.
    """
    bins = occ.shape[0]
    bi %= bins
    bi *= bins
    xs *= bins
    bj = xs.astype(bi.dtype)
    bj %= bins
    bi += bj
    del bj                  # the scatter may copy bi to intp
    occ.reshape(-1)[bi] = True


def _orbit_steps(occ, table, omega, theta0, x, first, burnin, stop):
    """Walk steps first..stop-1 of the orbit of the tabulated map from x, the
    x before step first, and mark in occ the bins of the steps from burnin on.

    Returns the x after the last step.  The base orbit of each block, with
    the _WARMUP thetas before it, comes in closed form from `orbit_thetas`
    at the absolute step indices, so any first step gives the thetas of the
    run from step 0.  The fiber recursion runs block by block: guessed
    segment-parallel, then repaired by one scalar pass
    (`_speculative_block`).  Every recorded x is either computed by the
    scalar step or equal to a value the true orbit reached, and
    `flat_row_step` does the scalar step's float operations in the same
    order, so the occupancy is bit-identical to the plain one-step loop over
    the same thetas.  Once the repair pass gives up (a map that does not
    contract, such as a rotation), the run goes on from the last true x by
    the plain chunked walk.  The visited bins of each block are set in one
    scatter.

    Memory: a block's thetas (8 bytes a step) live only until its row
    offsets and its bin rows are formed, 4 bytes a step each when the table
    and the grid have at most 2**31 entries; then the guesses take 8 bytes
    a step.  The transient peak is about 20 bytes a block step.
    """
    g, vk = table.shape
    vres = vk - 1
    flat = np.ascontiguousarray(table).reshape(-1)
    fv = memoryview(flat)
    row_dtype = _index_dtype(flat.size)
    bins = occ.shape[0]
    bin_dtype = _index_dtype(bins * bins)
    done = first
    speculate = True
    while done < stop:
        n = min(_BLOCK if speculate else _CHUNK, stop - done)
        # ths[lead + k] is theta before step done + k, for k from -lead to n
        # and, when speculating, on to the end of the last segment, which is
        # guessed whole
        lead = _WARMUP if speculate else 0
        end = -(-n // _SEGMENT) * _SEGMENT if speculate else n
        ths = orbit_thetas(theta0, omega, done - lead, done + end + 1)
        offsets = nearest_rows(ths[:-1], g, row_dtype)
        offsets *= vk
        after = ths[lead + 1:lead + n + 1]      # theta after each step
        after *= bins
        bi = after.astype(bin_dtype)
        del ths, after          # not held while the guesses are made
        if speculate:
            xs, x, gave_up = _speculative_block(flat, vres, offsets, n, x)
            speculate = not gave_up
            n = len(xs)
        else:
            walked = _walk(fv, vres, offsets.tolist(), x)
            x = walked[-1]
            xs = np.array(walked)
        del offsets
        skip = max(0, burnin - done)
        if skip < n:
            _set_bins(occ, bi[skip:n], xs[skip:])
        del xs, bi              # not held while the next block is built
        done += n
    return x


def _orbit_occupancy(table, omega, theta0, x0, burnin, iters, bins):
    """Occupancy of the orbit tail of the tabulated map on a bins x bins grid.

    One process walks the whole orbit from x0 (`_orbit_steps`), and the
    steps from burnin on are binned.
    """
    occ = np.zeros((bins, bins), dtype=np.bool_)
    _orbit_steps(occ, table, omega, theta0, x0, 0, burnin, burnin + iters)
    return occ


def _two_process_occupancy(table, omega, theta0, x0, burnin, iters, bins):
    """`_orbit_occupancy`'s occupancy, the second half of the binned steps
    walked by a forked child (`branch.Branch`).

    The child starts at step split = burnin + iters // 2 from a guess, x0,
    and bins the steps from split + _CHUNK on.  Meanwhile this process
    walks the orbit from x0 up to split + _CHUNK, binning as one process
    does, and walks the guess from split by the scalar step up to that same
    step.  Both are exact walks, of the orbit and of the guess.  If the two
    x agree there, every later step of the child is the orbit's, and its
    bins, packed 8 a byte, are OR-ed in _ROW_BLOCK rows at a time.  If they
    do not (the orbits did not merge: a rotation, or a cocycle that
    contracts too slowly), the child is killed and reaped, and this process
    walks the rest itself.  Either way the occupancy is bit-identical to one process's.  Runs whose
    halves are shorter than one _BLOCK stay in one process.
    """
    if iters // 2 < _BLOCK:
        return _orbit_occupancy(table, omega, theta0, x0, burnin, iters, bins)
    split = burnin + iters // 2
    join = split + _CHUNK
    stop = burnin + iters
    tail = Branch(partial(_packed_tail, table, omega, theta0, x0, split, join, stop, bins))
    try:
        occ = np.zeros((bins, bins), dtype=np.bool_)
        x = _orbit_steps(occ, table, omega, theta0, x0, 0, burnin, join)
        g, vk = table.shape
        offsets = nearest_rows(orbit_thetas(theta0, omega, split, join), g) * vk
        guess = _walk(memoryview(np.ascontiguousarray(table).reshape(-1)), vk - 1,
                      offsets.tolist(), x0)[-1]
        if x == guess:
            packed = tail.result()
            for lo in range(0, bins, _ROW_BLOCK):
                rows = occ[lo:lo + _ROW_BLOCK]
                rows |= np.unpackbits(packed[lo:lo + _ROW_BLOCK], axis=1,
                                      count=bins).view(np.bool_)
        else:
            tail.cancel()
            _orbit_steps(occ, table, omega, theta0, x, join, burnin, stop)
    except BaseException:
        tail.cancel()
        raise
    return occ


def _packed_tail(table, omega, theta0, x, first, burnin, stop, bins):
    """The bins of steps burnin..stop-1 of the orbit from x, the x before
    step first, each row packed 8 bins a byte (`np.packbits`)."""
    occ = np.zeros((bins, bins), dtype=np.bool_)
    _orbit_steps(occ, table, omega, theta0, x, first, burnin, stop)
    return np.packbits(occ, axis=1)


@dataclass(eq=False)
class FiberSet:
    """Binned orbit closure: occupancy matrix over (fiber bin, vertical bin)."""

    bins: np.ndarray             # bool, shape (resolution, resolution)

    @property
    def resolution(self) -> int:
        return self.bins.shape[0]

    def occupied_count(self) -> int:
        return int(self.bins.sum())

    def fiber_occupancy(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.bins[i])

    @cached_property
    def component_counts(self) -> np.ndarray:
        """Connected runs of occupied vertical bins per fiber (circular).

        Computed once, a block of _ROW_BLOCK rows at a time; bins must not
        change afterwards.
        """
        counts = np.empty(self.resolution, dtype=int)
        for lo in range(0, self.resolution, _ROW_BLOCK):
            b = self.bins[lo:lo + _ROW_BLOCK]
            starts = (b[:, 1:] > b[:, :-1]).sum(axis=1) + (b[:, 0] > b[:, -1])
            counts[lo:lo + _ROW_BLOCK] = np.where(b.all(axis=1), 1, starts)
        return counts

    def to_rle_lines(self):
        """Run-length encoding, one line per fiber: 'i: start+len start+len ...'.

        The runs are formed _ROW_BLOCK rows at a time, from `np.diff` of the
        rows padded with zeros, and the lines are made as they are consumed.
        Every number is one of the strings of 0..resolution, made once.
        """
        names = [str(i) for i in range(self.resolution + 1)]
        width = self.bins.shape[1] + 1          # the diff of a padded row
        edges = np.zeros((_ROW_BLOCK, width + 1), dtype=np.int8)
        for lo in range(0, self.resolution, _ROW_BLOCK):
            rows = self.bins[lo:lo + _ROW_BLOCK]
            edges[:len(rows), 1:-1] = rows
            d = np.diff(edges[:len(rows)], axis=1).ravel()
            up, down = np.flatnonzero(d > 0), np.flatnonzero(d < 0)
            row_of, starts = np.divmod(up, width)
            # the zero padding ends every run in its own row: down - up are the lengths
            tokens = [names[s] + "+" + names[n]
                      for s, n in zip(starts.tolist(), (down - up).tolist())]
            ends = np.searchsorted(row_of, np.arange(1, len(rows) + 1)).tolist()
            first = 0
            for i, last in enumerate(ends):
                yield names[lo + i] + ": " + " ".join(tokens[first:last])
                first = last

    @staticmethod
    def from_rle_lines(lines, resolution: int) -> "FiberSet":
        """The fiber set of to_rle_lines' rows."""
        bins = np.zeros((resolution, resolution), dtype=bool)
        for line in lines:
            head, _, body = line.partition(":")
            i = int(head)
            for token in body.split():
                start, _, length = token.partition("+")
                bins[i, int(start):int(start) + int(length)] = True
        return FiberSet(bins=bins)


def approximate_minimal_set(system: QpfSystem, burnin: int = 10**5, iters: int = 10**7,
                            fiber_grid: int = 4096, vertical_grid: int = 4096,
                            bins: int = 4096, seed: int = 0,
                            start: tuple | None = None) -> FiberSet:
    """Binned closure of one long orbit tail; deterministic given the seed.

    A run with iters >= 2 * _BLOCK forks a child process for the second half
    of its orbit (`_two_process_occupancy`), so the caller must run no other
    thread at the call (see `qpflab.branch`).
    """
    if iters < 10 * fiber_grid:
        raise PreconditionError("iters must be at least 10x the fiber grid")
    table = system.sample(fiber_grid, vertical_grid)
    if start is None:
        rng = np.random.default_rng(seed)
        start = (rng.random(), rng.random())
    occ = _two_process_occupancy(table, float(system.omega), float(start[0]),
                                 float(start[1]), burnin, iters, bins)
    return FiberSet(bins=occ)


def minimal_set_via_projection(projection, system: QpfSystem, iters: int = 2 * 10**6,
                               burnin: int = 0, fiber_grid: int = 1024, bins: int = 1024,
                               seed: int = 0) -> FiberSet:
    """Binned orbit of the ideal transported map through the semi-conjugacy.

    Off the blown set the ideal f is conjugate to the base map by pi, so its
    orbit is the exact base orbit lifted through the fiberwise quantile; this
    avoids compounding the truncation defect of the table-iterated map and is
    the honest approximator of K = clos(pi^{-1}(Xi^c)).

    The samples are walked in blocks of _LIFT_BLOCK: each block takes its
    thetas, and over a translation base its targets, from `orbit_thetas`,
    lifts every target through the inverse knots of its nearest grid fiber
    (one stacked table, `StackedKnots`) and sets its bins in one scatter.
    The occupancy is a union of bins, so it is the same for any blocking.
    """
    if not system.is_affine:
        raise PreconditionError("projection-lifted orbits need an affine base")
    rng = np.random.default_rng(seed)
    theta0, target0 = rng.random(), rng.random()
    omega = float(system.omega)
    # the members of a grid class of the projection table read their constant chamber's one fiber
    knots = StackedKnots.stack(grid_pass(fiber_grid, [(projection.chambers, 0)],
                                         lambda theta: projection.fiber(theta).inverse_knots))
    occ = np.zeros(bins * bins, dtype=bool)
    t = target0
    for lo in range(burnin, burnin + iters, _LIFT_BLOCK):
        hi = min(lo + _LIFT_BLOCK, burnin + iters)
        thetas = orbit_thetas(theta0, omega, lo, hi)
        if system.kind == "translation":
            targets = orbit_thetas(target0, float(system.rho), lo, hi)
        else:
            # the skew displacements summed along the exact base orbit
            targets = []
            for phi in pl_values_float(system.phi, thetas).tolist():
                targets.append(t)
                t = (t + phi) % 1.0
            targets = np.array(targets)
        rows = nearest_rows(thetas, fiber_grid)
        first = knots.xp.take(rows * knots.width)
        xs = mod1_array(knots.interp(rows, mod1_array(targets - first) + first))
        occ[(thetas * bins).astype(int) % bins * bins + (xs * bins).astype(int) % bins] = True
    return FiberSet(bins=occ.reshape(bins, bins))


@dataclass(frozen=True, eq=False)
class StackedKnots:
    """Ragged rows of finite interpolation knots in one flat table, row r at r * width.

    width is the least power of two above the longest row, so every row ends
    in at least one +inf pad, and a branchless binary search of log2(width)
    halvings counts the knots at or below a point.  The values are padded
    with each row's last value; a lookup never reads the slope of a pad.
    """

    xp: np.ndarray               # knot abscissae, +inf padded
    fp: np.ndarray               # knot values
    slopes: np.ndarray           # (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]), as np.interp has them
    last: np.ndarray             # flat index of each row's last knot
    width: int

    @staticmethod
    def stack(rows) -> "StackedKnots":
        rows = list(rows)
        lengths = np.array([len(xp) for xp, _ in rows])
        width = 1 << int(lengths.max()).bit_length()
        xp = np.full((len(rows), width), np.inf)
        fp = np.empty((len(rows), width))
        for r, (x, f) in enumerate(rows):
            xp[r, :len(x)] = x
            fp[r, :len(f)] = f
            fp[r, len(f):] = f[-1]
        slopes = np.zeros((len(rows), width))
        with np.errstate(all="ignore"):
            slopes[:, :-1] = np.diff(fp, axis=1) / np.diff(xp, axis=1)
        last = np.arange(len(rows)) * width + lengths - 1
        return StackedKnots(xp=xp.ravel(), fp=fp.ravel(), slopes=slopes.ravel(),
                            last=last, width=width)

    def interp(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """np.interp(x[k], xp[rows[k]], fp[rows[k]]) for each k, bit for bit.

        Each x must be at or above the first knot of its row.  j is the last
        knot at or below x, as np.interp's search finds it; a point on a knot
        or at or past the last knot takes the knot's value, any other point
        np.interp's slope * (x - xp[j]) + fp[j], whose operations are the
        same and in the same order.
        """
        pos = rows * self.width
        step = self.width >> 1
        while step:
            pos += (self.xp.take(pos + (step - 1)) <= x) * step
            step >>= 1
        pos -= 1                                # the flat index of j
        xj = self.xp.take(pos)
        fj = self.fp.take(pos)
        with np.errstate(all="ignore"):     # np.interp does not warn either
            out = self.slopes.take(pos) * (x - xj) + fj
        on_knot = (xj == x) | (pos == self.last.take(rows))
        out[on_knot] = fj[on_knot]
        return out


@dataclass
class ComponentReport:
    counts: np.ndarray
    c_min: int
    attaining_fraction: float


def fiber_component_count(fs: FiberSet) -> ComponentReport:
    """Per-fiber component counts; c(K) = min, and the fraction attaining it."""
    counts = fs.component_counts
    occupied = counts[counts > 0]
    if len(occupied) == 0:
        raise PreconditionError("fiber set is empty")
    c_min = int(occupied.min())
    frac = float(np.mean(occupied == c_min))
    return ComponentReport(counts=counts, c_min=c_min, attaining_fraction=frac)


@dataclass
class StructureReport:
    vertical_segments: bool          # no occupied bin pair is horizontally adjacent
    max_horizontal_extent: int
    max_fiber_measure: float
    fiber_measure_bound: float | None
    open_question_flag: str | None


def structure_diagnostics(fs: FiberSet, beta: float | None = None) -> StructureReport:
    """Vertical-segment and fiber-measure diagnostics of a binned fiber set."""
    b = fs.bins
    n = fs.resolution
    # components are vertical segments: under 4-connectivity a component
    # spans >1 fiber column iff two horizontally adjacent bins are occupied
    joined = np.empty(n, dtype=bool)       # fibers i and i+1 share a bin
    for lo in range(0, n, _ROW_BLOCK):
        nxt = b[np.arange(lo + 1, min(lo + _ROW_BLOCK, n) + 1) % n]
        joined[lo:lo + _ROW_BLOCK] = (b[lo:lo + _ROW_BLOCK] & nxt).any(axis=1)
    vertical_ok = not bool(joined.any())
    # the largest run of consecutive fiber columns joined by horizontal adjacency
    max_extent = 1 if vertical_ok else min(_longest_true_run(joined) + 1, n)
    # Cantor proxy: fiber occupied measure; binning widens each component of
    # a fiber by up to two bins
    measures = b.sum(axis=1) / n
    bound = None if beta is None else beta + 2.0 * int(fs.component_counts.max()) / n
    flag = None
    if vertical_ok and beta is None:
        flag = ("can c(K) be finite for strip-free non-minimal maps? "
                "(open question surfaced on ambiguous diagnostics)")
    return StructureReport(
        vertical_segments=vertical_ok,
        max_horizontal_extent=max_extent,
        max_fiber_measure=float(measures.max()),
        fiber_measure_bound=bound,
        open_question_flag=flag,
    )


def _longest_true_run(mask: np.ndarray) -> int:
    best = cur = 0
    for v in np.concatenate([mask, mask]):  # circular
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return min(best, len(mask))


def invariance_defect(fs: FiberSet, table: np.ndarray, omega) -> float:
    """Fraction of occupied bins that leave the set after one step of a sampled table.

    The table is `QpfSystem.sample`'s; each bin center steps on its nearest row.
    """
    n = fs.resolution
    idx = np.argwhere(fs.bins)
    if len(idx) == 0:
        return 0.0
    th = (idx[:, 0] + 0.5) / n
    x = (idx[:, 1] + 0.5) / n
    x1 = row_step(table, nearest_rows(th, len(table)), x)
    th1 = (th + float(omega)) % 1.0
    bi = (th1 * n).astype(int) % n
    bj = (x1 * n).astype(int) % n
    stays = fs.bins[bi, bj]
    # tolerate one-bin boundary effects
    for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        stays = stays | fs.bins[(bi + di) % n, (bj + dj) % n]
    return float(1.0 - np.mean(stays))
