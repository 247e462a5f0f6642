"""Approximate minimal sets: orbit binning, fiber components, structure probes.

One long orbit is binned on a torus grid (the uniqueness of the minimal set
for transitive or strip-free maps licenses the single-orbit shortcut; a
second seed cross-checks it).  Diagnostics test the vertical-segment
property and bound the occupied measure of each fiber (a Cantor proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .systems import QpfSystem, nearest_rows, row_step

# The speculative orbit runs in blocks of _SEGMENTS x _SEGMENT steps; each
# segment's guess starts _WARMUP steps early.  On a contracting cocycle two
# orbits of the table become the same float within a few dozen steps (Harper
# E=0, lambda=2, 512^2 table: 26 at the median and 46 at most over 1000
# random pairs), so the guesses are mostly the orbit itself.  A block whose
# repair took more than 1/_GIVE_UP of its steps ends the speculation; the
# rest of the run walks in chunks of _CHUNK steps, small enough that the
# chunk's Python lists (about 130 bytes a step) add little to the peak memory.
_SEGMENTS = 256
_SEGMENT = 64
_WARMUP = 64
_BLOCK = _SEGMENTS * _SEGMENT
_GIVE_UP = 8
_CHUNK = 1 << 10


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


def _speculate(table, rows, segs, x):
    """Guesses of the orbit from x over segs segments, stepped all at once.

    rows[_WARMUP + k] is the table row of step k.  Segment s covers steps
    s*_SEGMENT onward; its guess starts from x at step s*_SEGMENT - _WARMUP
    and every segment steps at once through `row_step`.  Segment 0 restarts
    from x itself, so its guesses are exact.  Returns the guessed x at the
    start of each segment (a list) and after every step (flat).
    """
    guess = np.full(segs, x)
    for t in range(_WARMUP):
        guess = row_step(table, rows[t::_SEGMENT][:segs], guess)
    guess[0] = x
    starts = guess.tolist()
    xs = np.empty((segs, _SEGMENT))
    for t in range(_SEGMENT):
        guess = row_step(table, rows[_WARMUP + t::_SEGMENT][:segs], guess)
        xs[:, t] = guess
    return starts, xs.reshape(-1)


def _speculative_block(table, flat, ths, n, x):
    """The orbit over one block of n steps from x, guessed, then repaired.

    ths[_WARMUP + k] is theta before step k.  The scalar pass walks the true
    orbit segment by segment, each up to the first step whose x equals the
    guess: a step is a function of x and the row, so from there on the guess
    is the orbit.  Returns x after each step, the last x, and the number of
    steps whose guess was wrong.
    """
    g, vk = table.shape
    vres = vk - 1
    segs = -(-n // _SEGMENT)
    rows = nearest_rows(ths[:_WARMUP + segs * _SEGMENT], g)
    starts, xs = _speculate(table, rows, segs, x)
    rv = memoryview(rows)
    xv = memoryview(xs)
    repaired = 0
    for s, start in enumerate(starts):
        lo = s * _SEGMENT
        hi = min(lo + _SEGMENT, n)
        if x != start:
            for k in range(lo, hi):
                (x,) = _walk(flat, vres, (rv[_WARMUP + k] * vk,), x)
                if x == xv[k]:
                    break
                xv[k] = x
                repaired += 1
        x = xv[hi - 1]
    return xs[:n], x, repaired


def _set_bins(occ, ths, xs):
    """Mark the bins of the points (ths, xs) in occ; xs is scaled in place."""
    bins = occ.shape[0]
    bi = (ths * bins).astype(int)
    bi %= bins
    xs *= bins
    bj = xs.astype(int)
    bj %= bins
    occ[bi, bj] = True


def _orbit_occupancy(table, omega, theta0, x0, burnin, iters, bins):
    """Occupancy of the orbit tail of the tabulated map on a bins x bins grid.

    The base recursion is a scalar loop.  The fiber recursion runs block by
    block: guessed segment-parallel, then repaired by one scalar pass
    (`_speculative_block`).  Every recorded x is either computed by the
    scalar step or equal to a value the true orbit reached, and `row_step`
    does the scalar step's float operations in the same order, so the
    occupancy is bit-identical to the plain one-step loop.  Once a block
    needed repair on more than 1/_GIVE_UP of its steps (a map that does not
    contract, such as a rotation), the rest of the run takes the plain
    chunked walk.  The visited bins of each block are set in one scatter.
    """
    g, vk = table.shape
    vres = vk - 1
    flat = memoryview(np.ascontiguousarray(table).ravel())
    occ = np.zeros((bins, bins), dtype=np.bool_)
    # ths[_WARMUP + k] is theta before step k of the block; the _WARMUP
    # entries in front are the thetas before the block, for the warm-up
    ths = np.zeros(_WARMUP + _BLOCK + 1)
    thv = memoryview(ths)
    th = ths[_WARMUP] = theta0
    x = x0
    total = burnin + iters
    done = 0
    speculate = True
    while done < total:
        n = min(_BLOCK if speculate else _CHUNK, total - done)
        for k in range(_WARMUP + 1, _WARMUP + n + 1):
            th = (th + omega) % 1.0
            thv[k] = th
        if speculate:
            xs, x, repaired = _speculative_block(table, flat, ths, n, x)
            speculate = repaired * _GIVE_UP <= n
        else:
            rows = nearest_rows(ths[_WARMUP:_WARMUP + n], g)
            walked = _walk(flat, vres, (rows * vk).tolist(), x)
            x = walked[-1]
            xs = np.array(walked)
        skip = max(0, burnin - done)
        if skip < n:
            _set_bins(occ, ths[_WARMUP + 1 + skip:_WARMUP + n + 1], xs[skip:])
        del xs                  # not held while the next block is built
        ths[:_WARMUP + 1] = ths[n:_WARMUP + n + 1]
        done += n
    return occ


@dataclass(eq=False)
class FiberSet:
    """Binned orbit closure: occupancy matrix over (fiber bin, vertical bin)."""

    bins: np.ndarray             # bool, shape (resolution, resolution)
    resolution: int
    burnin: int
    iters: int
    seed: int

    def occupied_count(self) -> int:
        return int(self.bins.sum())

    def fiber_occupancy(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.bins[i])

    def fiber_measure(self, i: int) -> float:
        return float(self.bins[i].sum()) / self.resolution

    def component_counts(self) -> np.ndarray:
        """Connected runs of occupied vertical bins per fiber (circular)."""
        b = self.bins
        starts = b & ~np.roll(b, 1, axis=1)
        counts = starts.sum(axis=1)
        full = b.all(axis=1)
        counts[full] = 1
        return counts.astype(int)

    def to_rle_lines(self):
        """Run-length encoding, one line per fiber: 'i: start+len start+len ...'."""
        lines = []
        for i in range(self.resolution):
            occ = self.bins[i]
            runs = []
            j = 0
            while j < self.resolution:
                if occ[j]:
                    start = j
                    while j < self.resolution and occ[j]:
                        j += 1
                    runs.append(f"{start}+{j - start}")
                else:
                    j += 1
            lines.append(f"{i}: " + " ".join(runs))
        return lines

    @staticmethod
    def from_rle_lines(lines, resolution: int, burnin=0, iters=0, seed=0) -> "FiberSet":
        bins = np.zeros((resolution, resolution), dtype=bool)
        for line in lines:
            head, _, body = line.partition(":")
            i = int(head)
            for token in body.split():
                start, _, length = token.partition("+")
                bins[i, int(start):int(start) + int(length)] = True
        return FiberSet(bins=bins, resolution=resolution, burnin=burnin, iters=iters, seed=seed)


def approximate_minimal_set(system: QpfSystem, burnin: int = 10**5, iters: int = 10**7,
                            fiber_grid: int = 4096, vertical_grid: int = 4096,
                            bins: int = 4096, seed: int = 0,
                            start: tuple | None = None) -> FiberSet:
    """Binned closure of one long orbit tail; deterministic given the seed."""
    if iters < 10 * fiber_grid:
        raise PreconditionError("iters must be at least 10x the fiber grid")
    sampled = system if system.kind == "sampled" else system.sample(fiber_grid, vertical_grid)
    if start is None:
        rng = np.random.default_rng(seed)
        start = (rng.random(), rng.random())
    occ = _orbit_occupancy(sampled.table, float(system.omega), float(start[0]),
                           float(start[1]), burnin, iters, bins)
    return FiberSet(bins=occ, resolution=bins, burnin=burnin, iters=iters, seed=seed)


def minimal_set_via_projection(projection, system: QpfSystem, iters: int = 2 * 10**6,
                               burnin: int = 0, fiber_grid: int = 1024, bins: int = 1024,
                               seed: int = 0, start: tuple | None = None) -> FiberSet:
    """Binned orbit of the ideal transported map through the semi-conjugacy.

    Off the blown set the ideal f is conjugate to the base map by pi, so its
    orbit is the exact base orbit lifted through the fiberwise quantile; this
    avoids compounding the truncation defect of the table-iterated map and is
    the honest approximator of K = clos(pi^{-1}(Xi^c)).
    """
    if not system.is_affine:
        raise PreconditionError("projection-lifted orbits need an affine base")
    rng = np.random.default_rng(seed)
    if start is None:
        start = (rng.random(), rng.random())
    theta0, target0 = float(start[0]), float(start[1])
    omega = float(system.omega)
    ks = np.arange(burnin, burnin + iters, dtype=float)
    thetas = np.mod(theta0 + ks * omega, 1.0)
    if system.kind == "translation":
        targets = np.mod(target0 + ks * float(system.rho), 1.0)
    else:
        # accumulate the skew displacements along the exact base orbit
        targets = np.empty(iters)
        t = target0
        from .systems import _pl_value_float
        for i, k in enumerate(range(burnin, burnin + iters)):
            targets[i] = t
            t = (t + _pl_value_float(system.phi, (theta0 + k * omega) % 1.0)) % 1.0
    del ks
    # group the samples by grid fiber (one stable sort), then lift each group
    # through its fiber's inverse-quantile table: target position -> source point
    fiber_idx = nearest_rows(thetas, fiber_grid)
    order = np.argsort(fiber_idx, kind="stable")
    bounds = np.searchsorted(fiber_idx[order], np.arange(fiber_grid + 1))
    del fiber_idx
    targets = targets[order]
    xs = np.empty(iters)
    for i in range(fiber_grid):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        xs[order[lo:hi]] = projection.fiber(Fraction(i, fiber_grid)).inverse_map_array(
            targets[lo:hi])
    del order, targets
    occ = np.zeros((bins, bins), dtype=bool)
    occ[(thetas * bins).astype(int) % bins, (xs * bins).astype(int) % bins] = True
    return FiberSet(bins=occ, resolution=bins, burnin=burnin, iters=iters, seed=seed)


@dataclass
class ComponentReport:
    counts: np.ndarray
    c_min: int
    attaining_fraction: float


def fiber_component_count(fs: FiberSet) -> ComponentReport:
    """Per-fiber component counts; c(K) = min, and the fraction attaining it."""
    counts = fs.component_counts()
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
    horiz = b & np.roll(b, -1, axis=0)
    vertical_ok = not bool(horiz.any())
    max_extent = _max_horizontal_extent(b) if not vertical_ok else 1
    # Cantor proxy: fiber occupied measure; binning widens each component of
    # a fiber by up to two bins
    measures = b.sum(axis=1) / n
    bound = None if beta is None else beta + 2.0 * int(fs.component_counts().max()) / n
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


def _max_horizontal_extent(b: np.ndarray) -> int:
    """Largest run of consecutive fiber columns joined by horizontal adjacency."""
    joined = (b & np.roll(b, -1, axis=0)).any(axis=1)
    return min(_longest_true_run(joined) + 1, b.shape[0])


def _longest_true_run(mask: np.ndarray) -> int:
    best = cur = 0
    for v in np.concatenate([mask, mask]):  # circular
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return min(best, len(mask))


def invariance_defect(fs: FiberSet, sampled: QpfSystem) -> float:
    """Fraction of occupied bins that leave the set after one sampled step."""
    n = fs.resolution
    idx = np.argwhere(fs.bins)
    if len(idx) == 0:
        return 0.0
    th = (idx[:, 0] + 0.5) / n
    x = (idx[:, 1] + 0.5) / n
    x1 = sampled.table_step(th, x)
    th1 = (th + float(sampled.omega)) % 1.0
    bi = (th1 * n).astype(int) % n
    bj = (x1 * n).astype(int) % n
    stays = fs.bins[bi, bj]
    # tolerate one-bin boundary effects
    for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        stays = stays | fs.bins[(bi + di) % n, (bj + dj) % n]
    return float(1.0 - np.mean(stays))
