import functools
import math
import os
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpflab.circle import orbit_thetas
from qpflab.errors import PreconditionError
from qpflab import minimal
from qpflab.minimal import (_BLOCK, _CHUNK, _LIFT_BLOCK, _MIN_WALK, _SEGMENT, _WARMUP, FiberSet,
                            StackedKnots, _longest_true_run, _orbit_occupancy,
                            approximate_minimal_set, fiber_component_count, invariance_defect,
                            minimal_set_via_projection, structure_diagnostics)
from qpflab.pipeline import run_blowup
from qpflab.plgraph import PLGraph
from qpflab.sl2 import Cocycle, cocycle_qpf
from qpflab.systems import QpfSystem, nearest_rows, row_step
from qpflab.weights import make_weights


def reference_step(table, th, x):
    """One step of the tabulated map at the point (th, x), on Python scalars."""
    g, vk = table.shape
    vres = vk - 1
    i = int(math.floor(th * g + 0.5)) % g
    pos = x * vres
    j = int(pos)
    if j >= vres:
        j = vres - 1
    frac = pos - j
    return (table[i, j] * (1.0 - frac) + table[i, j + 1] * frac) % 1.0


def reference_orbit(table, omega, theta0, x0, burnin, iters, bins):
    """The orbit binning one step at a time: the oracle for the chunked kernel."""
    occ = np.zeros((bins, bins), dtype=np.bool_)
    thetas = orbit_thetas(theta0, omega, 0, burnin + iters + 1).tolist()
    x = x0
    for step in range(burnin + iters):
        x = reference_step(table, thetas[step], x)
        th = thetas[step + 1]
        if step >= burnin:
            bi = int(th * bins) % bins
            bj = int(x * bins) % bins
            occ[bi, bj] = True
    return occ


def reference_phi(graph, t):
    """A PL graph's float value at one theta, on Python scalars."""
    ts = [float(x) for x in graph.thetas] + [float(graph.thetas[0]) + 1.0]
    vs = [float(v) for v in graph.values] + [float(graph.values[0]) + graph.degree]
    k = math.floor(t - ts[0])
    return float(np.interp(t - k, ts, vs)) + k * graph.degree


def reference_projection_lift(projection, system, iters, burnin, fiber_grid, bins, seed):
    """The projection lift with one boolean mask per fiber: the oracle for the blocks.

    Each fiber's targets go through np.interp on its inverse knots; over a
    skew base the targets take the skew recurrence one scalar step at a time.
    """
    rng = np.random.default_rng(seed)
    theta0, target0 = rng.random(), rng.random()
    omega = float(system.omega)
    thetas = orbit_thetas(theta0, omega, burnin, burnin + iters)
    if system.kind == "translation":
        targets = orbit_thetas(target0, float(system.rho), burnin, burnin + iters)
    else:
        targets = np.empty(iters)
        t = target0
        for i, theta in enumerate(thetas.tolist()):
            targets[i] = t
            t = (t + reference_phi(system.phi, theta)) % 1.0
    fiber_idx = np.mod(np.floor(thetas * fiber_grid + 0.5).astype(int), fiber_grid)
    xs = np.empty(iters)
    for i in range(fiber_grid):
        mask = fiber_idx == i
        if not mask.any():
            continue
        tk, sk = projection.fiber(F(i, fiber_grid)).inverse_knots
        xs[mask] = np.mod(np.interp(np.mod(targets[mask] - tk[0], 1.0) + tk[0], tk, sk), 1.0)
    occ = np.zeros((bins, bins), dtype=bool)
    occ[(thetas * bins).astype(int) % bins, (xs * bins).astype(int) % bins] = True
    return occ


def reference_rle_lines(bins):
    """The run-length lines by a scan of every bin: the oracle for to_rle_lines."""
    n = bins.shape[1]
    lines = []
    for i, occ in enumerate(bins):
        runs = []
        j = 0
        while j < n:
            if occ[j]:
                start = j
                while j < n and occ[j]:
                    j += 1
                runs.append(f"{start}+{j - start}")
            else:
                j += 1
        lines.append(f"{i}: " + " ".join(runs))
    return lines


HARPER = cocycle_qpf(Cocycle.harper(0.0, 2.0))
HARPER_PARTIAL = cocycle_qpf(Cocycle.harper(0.0, 1.2))
ROTATION = cocycle_qpf(Cocycle.rotation(0.3))
DIAGONAL = cocycle_qpf(Cocycle.diagonal(2.0))


def random_table(rows=64, knots=65, seed=0):
    """A table of random increasing fiber maps (normalized lifts), as QpfSystem.sample gives."""
    rng = np.random.default_rng(seed)
    steps = rng.random((rows, knots - 1)) + 0.05
    table = np.concatenate([np.zeros((rows, 1)), np.cumsum(steps, axis=1)], axis=1)
    return table / table[:, -1:] + rng.random((rows, 1))


RANDOM = random_table()


@pytest.mark.parametrize("system, burnin, iters, grid, bins, start", [
    (HARPER, 10**4, 10**5, 512, 512, None),               # the cocycle command's grids
    (QpfSystem.translation(), 100, 20000, 256, 256, None),
    (HARPER, 50, _CHUNK - 100, 64, 128, None),            # shorter than one chunk
    (HARPER, 20000, 30001, 300, 200, None),               # burn-in spans blocks, ragged end
    (QpfSystem.translation(), 20000, 5000, 256, 2048, None),  # the same, on sparse bins
    (RANDOM, 0, 5000, 64, 4096, (0.3, 1.0 - 2.0**-53)),  # x just below 1
    (RANDOM, 0, 5000, 64, 4096, (0.3, 1.0)),              # x * vres = vres: the j clamp
    # several blocks, burn-in ending mid-block, a ragged last block and segment
    (HARPER, _BLOCK + 5000, 2 * _BLOCK + 301, 256, 256, None),
    (HARPER, 10, 50, 4, 16, None),                        # shorter than one segment
    (HARPER_PARTIAL, 100, 2 * _BLOCK, 256, 256, None),    # guesses merge late or never
    (ROTATION, 100, 2 * _BLOCK + _CHUNK + 7, 256, 256, None),  # the plain walk takes over
    (DIAGONAL, 100, 2 * _BLOCK, 256, 256, None),          # orbits meet at a fixed point
])
def test_orbit_kernel_matches_scalar_reference(system, burnin, iters, grid, bins, start):
    # a random table (RANDOM) goes to the kernel directly, over the golden omega
    if isinstance(system, np.ndarray):
        table, omega = system, float(QpfSystem.translation().omega)
        occ = _orbit_occupancy(table, omega, start[0], start[1], burnin, iters, bins)
    else:
        table, omega = system.sample(grid, grid), float(system.omega)
        occ = approximate_minimal_set(system, burnin=burnin, iters=iters, fiber_grid=grid,
                                      vertical_grid=grid, bins=bins, seed=3, start=start).bins
    if start is None:
        rng = np.random.default_rng(3)
        start = (rng.random(), rng.random())
    ref = reference_orbit(table, omega, float(start[0]), float(start[1]), burnin, iters, bins)
    assert np.array_equal(occ, ref)


def test_orbit_block_memory_is_bounded():
    # a block's thetas, row offsets, bin rows and guesses, not the run, set the peak
    table = HARPER.sample(512, 512)
    tracemalloc.start()
    try:
        occ = _orbit_occupancy(table, float(HARPER.omega), 0.3, 0.6, 0, 3 * _BLOCK + 77, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - occ.nbytes <= 24 * _BLOCK


def count_orbit_steps(monkeypatch, system, iters):
    """The kernel's array steps (`flat_row_step` calls) and the steps of its plain walk."""
    counts = {"array": 0, "plain": 0}
    step, walk = minimal.flat_row_step, minimal._walk

    def array_step(*args):
        counts["array"] += 1
        return step(*args)

    def plain_walk(flat, vres, offsets, x):
        if len(offsets) > 1:            # the repair pass walks one step a call
            counts["plain"] += len(offsets)
        return walk(flat, vres, offsets, x)

    monkeypatch.setattr(minimal, "flat_row_step", array_step)
    monkeypatch.setattr(minimal, "_walk", plain_walk)
    _orbit_occupancy(system.sample(256, 256), float(system.omega), 0.3, 0.6, 0, iters, 256)
    return counts


def test_repair_pass_gives_up_inside_the_first_block(monkeypatch):
    # the rotation's guesses never merge: one block is guessed, and the plain
    # walk takes over from the end of the repair pass's first stretch
    iters = 3 * _BLOCK
    counts = count_orbit_steps(monkeypatch, ROTATION, iters)
    assert counts["array"] == _WARMUP + _SEGMENT
    assert iters - counts["plain"] <= _MIN_WALK + _SEGMENT < _BLOCK


def test_contracting_cocycle_speculates_every_block(monkeypatch):
    counts = count_orbit_steps(monkeypatch, HARPER, 3 * _BLOCK)
    assert counts == {"array": 3 * (_WARMUP + _SEGMENT), "plain": 0}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(system=st.sampled_from([HARPER, HARPER_PARTIAL]),
       burnin=st.integers(0, 300),
       iters=st.integers(2 * _BLOCK - 3, 2 * _BLOCK + 3),
       seed=st.integers(0, 2**16),
       start=st.none() | st.tuples(st.floats(0, 1, exclude_max=True),
                                   st.floats(0, 1, exclude_max=True)))
def test_two_process_orbit_is_the_one_process_orbit(system, burnin, iters, seed, start):
    # iters straddles the split threshold: one process below it, two from it on
    fs = approximate_minimal_set(system, burnin=burnin, iters=iters, fiber_grid=64,
                                 vertical_grid=64, bins=128, seed=seed, start=start)
    assert_no_child_left()
    if start is None:
        rng = np.random.default_rng(seed)
        start = (rng.random(), rng.random())
    ref = reference_orbit(system.sample(64, 64), float(system.omega), start[0], start[1],
                          burnin, iters, 128)
    assert np.array_equal(fs.bins, ref)


@pytest.mark.parametrize("system, calls", [
    (ROTATION, ["cancel"]),             # the orbits never merge: this process walks on
    (HARPER, ["result"]),               # they merge within _CHUNK: the child's bins count
])
def test_orbit_child_is_joined_only_where_the_orbits_merge(monkeypatch, system, calls):
    seen = []

    class Recorded(minimal.Branch):
        def result(self):
            seen.append("result")
            return super().result()

        def cancel(self):
            if self.pid is not None:            # a live child, not one already waited for
                seen.append("cancel")
            super().cancel()

    monkeypatch.setattr(minimal, "Branch", Recorded)
    fs = approximate_minimal_set(system, burnin=100, iters=2 * _BLOCK, fiber_grid=256,
                                 vertical_grid=256, bins=256, seed=5)
    assert seen == calls
    assert_no_child_left()
    rng = np.random.default_rng(5)
    ref = reference_orbit(system.sample(256, 256), float(system.omega), rng.random(),
                          rng.random(), 100, 2 * _BLOCK, 256)
    assert np.array_equal(fs.bins, ref)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0 - 2.0**-53])
def test_table_step_matches_orbit_step(x):
    # the array step and the orbit kernel's step are one map, last cell included
    thetas = np.linspace(0.0, 1.0, 37, endpoint=False)
    got = row_step(RANDOM, nearest_rows(thetas, len(RANDOM)), np.full(len(thetas), x))
    want = [reference_step(RANDOM, float(th), x) for th in thetas]
    assert got.tolist() == want


@pytest.fixture(scope="module")
def skew2():
    """A small blowup over a PL skew base."""
    phi = PLGraph.from_points([(0, F(3, 10)), (F(1, 2), F(4, 10))])
    return run_blowup(QpfSystem.skew(phi), PLGraph.constant(F(1, 5)),
                      make_weights(k=4, half_width=2, epsilon=F(1, 2)))


@pytest.mark.parametrize("stack, iters, burnin, grid, bins", [
    ("small4", 100000, 777, 256, 256),
    # several blocks from a burn-in inside a block, a ragged last block
    ("small4", 2 * _LIFT_BLOCK + 301, _LIFT_BLOCK + 5000, 256, 256),
    ("small4", 5000, 10, 256, 256),                       # shorter than one block
    ("small4", 100000, 0, 4096, 4096),
    ("crossed4", 200000, 1000, 1024, 1024),               # atoms merge on the overlaps
    ("skew2", 50000, 333, 256, 256),
])
def test_projection_lift_matches_masked_reference(request, stack, iters, burnin, grid, bins):
    pipe = request.getfixturevalue(stack)
    fs = minimal_set_via_projection(pipe.projection, pipe.system, iters=iters,
                                    burnin=burnin, fiber_grid=grid, bins=bins, seed=4)
    ref = reference_projection_lift(pipe.projection, pipe.system, iters=iters,
                                    burnin=burnin, fiber_grid=grid, bins=bins, seed=4)
    assert np.array_equal(fs.bins, ref)


@st.composite
def knot_rows(draw):
    """Ragged rows of knots with double knots, and points on and off them."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        xp = sorted(draw(st.lists(st.floats(-2, 2), min_size=1, max_size=12)))
        doubled = draw(st.lists(st.booleans(), min_size=len(xp), max_size=len(xp)))
        xp = [x for x, d in zip(xp, doubled) for _ in range(1 + d)]
        fp = draw(st.lists(st.floats(-2, 2), min_size=len(xp), max_size=len(xp)))
        rows.append((np.array(xp), np.array(fp)))
    points = []
    for _ in range(draw(st.integers(1, 40))):
        r = draw(st.integers(0, len(rows) - 1))
        xp = rows[r][0]
        x = draw(st.one_of(st.sampled_from(xp.tolist()), st.just(xp[-1]),
                           st.floats(xp[0], xp[-1]), st.floats(xp[-1], 4)))
        points.append((r, x))
    return rows, points


@given(knot_rows())
def test_stacked_interp_is_np_interp(case):
    rows, points = case
    r = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    got = StackedKnots.stack(rows).interp(r, x)
    want = [np.interp(xk, *rows[rk]) for rk, xk in points]
    assert got.tobytes() == np.array(want).tobytes()


def test_projection_lift_memory_is_bounded(small4):
    # the block's arrays, not the 10^6 samples, set the peak
    lift = functools.partial(minimal_set_via_projection, small4.projection, small4.system,
                             fiber_grid=256, bins=256)
    lift(iters=1000)                # the chamber tables are built outside the trace
    tracemalloc.start()
    try:
        lift(iters=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_line_closure_single_component_per_fiber():
    # rho = omega: the orbit closure is the diagonal line x = theta + c
    system = QpfSystem.translation(rho=QpfSystem.translation().omega)
    fs = approximate_minimal_set(system, burnin=100, iters=20000,
                                 fiber_grid=256, vertical_grid=256, bins=256, seed=1)
    comp = fiber_component_count(fs)
    assert comp.c_min == 1
    assert comp.attaining_fraction == 1.0
    # Weyl equidistribution of the visited fibers
    occupied_fibers = fs.bins.any(axis=1).mean()
    assert occupied_fibers > 0.99


def test_full_torus_closure_for_independent_pair():
    system = QpfSystem.translation()  # omega, rho, 1 rationally independent
    fs = approximate_minimal_set(system, burnin=100, iters=200000,
                                 fiber_grid=128, vertical_grid=128, bins=64, seed=1)
    assert fs.occupied_count() > 0.95 * 64 * 64


def test_determinism_bit_for_bit():
    system = QpfSystem.translation()
    a = approximate_minimal_set(system, burnin=10, iters=5000, fiber_grid=64,
                                vertical_grid=64, bins=64, seed=9)
    b = approximate_minimal_set(system, burnin=10, iters=5000, fiber_grid=64,
                                vertical_grid=64, bins=64, seed=9)
    assert np.array_equal(a.bins, b.bins)


def test_iters_precondition():
    with pytest.raises(PreconditionError):
        approximate_minimal_set(QpfSystem.translation(), burnin=0, iters=10,
                                fiber_grid=64, vertical_grid=64, bins=64)


def test_invariant_graph_fiber_sets():
    # rho = 0 leaves every horizontal circle invariant; orbit closure is a line
    system = QpfSystem.translation(rho=F(0))
    fs = approximate_minimal_set(system, burnin=10, iters=10000, fiber_grid=128,
                                 vertical_grid=128, bins=128, seed=0,
                                 start=(0.25, 0.5))
    rows = np.flatnonzero(fs.bins.any(axis=1))
    for i in rows:
        occ = fs.fiber_occupancy(int(i))
        assert len(occ) == 1 and abs(occ[0] - 64) <= 1
    diag = structure_diagnostics(fs)
    assert not diag.vertical_segments  # invariant-strip-like, correctly flagged
    assert diag.max_horizontal_extent == 128


def test_two_constant_graphs_component_count():
    bins = np.zeros((64, 64), dtype=bool)
    bins[:, 10] = True
    bins[:, 42] = True
    fs = FiberSet(bins=bins)
    comp = fiber_component_count(fs)
    assert comp.c_min == 2 and comp.attaining_fraction == 1.0


def test_fiber_measure_bound_counts_components():
    # three components per fiber: binning can widen each of them by two bins
    bins = np.zeros((64, 64), dtype=bool)
    bins[:, 5:9] = True
    bins[:, 20:22] = True
    bins[:, 40] = True
    bins[7, 50] = True       # one fiber with a fourth component
    fs = FiberSet(bins=bins)
    diag = structure_diagnostics(fs, beta=0.05)
    assert diag.max_fiber_measure == 8 / 64
    assert diag.fiber_measure_bound == 0.05 + 2 * 4 / 64
    assert diag.max_fiber_measure <= diag.fiber_measure_bound


def test_rle_roundtrip():
    rng = np.random.default_rng(3)
    bins = rng.random((32, 32)) < 0.2
    fs = FiberSet(bins=bins)
    back = FiberSet.from_rle_lines(fs.to_rle_lines(), 32)
    assert np.array_equal(bins, back.bins)


@st.composite
def occupancies(draw):
    """Random n x n occupancies with empty rows, full rows and runs at both ends."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    rows = st.integers(0, n - 1)
    bins[draw(st.lists(rows, max_size=5))] = False
    bins[draw(st.lists(rows, max_size=5))] = True
    edge = draw(st.lists(rows, max_size=5))
    bins[edge, 0] = bins[edge, -1] = True
    return bins


@given(occupancies())
def test_rle_matches_scan_and_roundtrips(bins):
    n = len(bins)
    lines = list(FiberSet(bins=bins).to_rle_lines())
    assert lines == reference_rle_lines(bins)
    assert np.array_equal(FiberSet.from_rle_lines(lines, n).bins, bins)


@given(occupancies())
def test_diagnostics_match_full_matrix_formulas(bins):
    fs = FiberSet(bins=bins)
    starts = (bins & ~np.roll(bins, 1, axis=1)).sum(axis=1)
    assert np.array_equal(fs.component_counts, np.where(bins.all(axis=1), 1, starts))
    joined = (bins & np.roll(bins, -1, axis=0)).any(axis=1)
    diag = structure_diagnostics(fs, beta=0.5)
    assert diag.vertical_segments == (not joined.any())
    extent = min(_longest_true_run(joined) + 1, len(bins)) if joined.any() else 1
    assert diag.max_horizontal_extent == extent


def test_projection_lift_avoids_atlas_interiors(small4):
    fs = minimal_set_via_projection(small4.projection, small4.system,
                                    iters=200000, fiber_grid=256, bins=256, seed=0)
    assert fs.occupied_count() > 0
    viols = 0
    for i in np.flatnonzero(fs.bins.any(axis=1))[::17]:
        fa = small4.atlas.fiber(F(int(i), 256) + F(1, 512))
        occ = np.flatnonzero(fs.bins[i]) / 256.0
        for n in small4.atlas.order:
            for lo, hi in fa.u[n]:
                lof = float(lo) % 1.0
                width = float(hi - lo)
                inside = ((occ - lof) % 1.0 > 2 / 256) & ((occ - lof) % 1.0 < width - 2 / 256)
                viols += int(inside.sum())
    assert viols == 0


def test_projection_lift_determinism(small4):
    a = minimal_set_via_projection(small4.projection, small4.system, iters=50000,
                                   fiber_grid=128, bins=128, seed=2)
    b = minimal_set_via_projection(small4.projection, small4.system, iters=50000,
                                   fiber_grid=128, bins=128, seed=2)
    assert np.array_equal(a.bins, b.bins)


def test_invariance_proxy(small4):
    fs = minimal_set_via_projection(small4.projection, small4.system, iters=300000,
                                    fiber_grid=256, bins=256, seed=0)
    assert invariance_defect(fs, small4.tmap.as_system().sample(256, 512), small4.system.omega) < 0.05


def test_refinement_monotonicity(small4):
    coarse = minimal_set_via_projection(small4.projection, small4.system, iters=400000,
                                        fiber_grid=256, bins=128, seed=0)
    fine = minimal_set_via_projection(small4.projection, small4.system, iters=400000,
                                      fiber_grid=256, bins=256, seed=0)
    # doubling the grid never increases the estimated fiber measure much
    for i in range(128):
        m_coarse = coarse.bins[i].mean()
        m_fine = max(fine.bins[2 * i].mean(), fine.bins[2 * i + 1].mean())
        assert m_fine <= m_coarse + 17 / 128  # one bin width per component
