import math

import numpy as np
import pytest

from qpflab.circle import orbit_thetas
from qpflab.errors import PreconditionError
from qpflab.minimal import FiberSet, approximate_minimal_set
from qpflab.sl2 import (_THETA_CHUNK, Cocycle, Mat2, _graph_continuity, cocycle_qpf, lyapunov,
                        minimal_fiber_cardinality, projective_action_array)

IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def act(m, x):
    """The image direction of the one line at angle pi*x."""
    return float(projective_action_array(m, np.array([x]))[0])


def rotation(angle_over_pi):
    """The rotation by pi * angle_over_pi; projective action x -> x + angle_over_pi."""
    return Cocycle.rotation(angle_over_pi).matrix(0.0)


def diagonal(lam):
    return Cocycle.diagonal(lam).matrix(0.0)


def test_projective_action_basics():
    assert abs(act(IDENTITY, 0.37) - 0.37) < 1e-12
    assert abs(act(rotation(0.25), 0.1) - 0.35) < 1e-12
    m = diagonal(2.0)
    assert act(m, 0.0) == 0.0
    assert abs(act(m, 0.5) - 0.5) < 1e-12
    # 0 attracts, 1/2 repels
    assert abs(act(m, 0.1)) < 0.1
    assert abs(act(m, 0.45) - 0.5) > 0.05


def test_homomorphism_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rotation(float(rng.random()))
        b = diagonal(0.5 + 2 * float(rng.random()))
        x = float(rng.random())
        lhs = act(a @ b, x)
        rhs = act(a, act(b, x))
        d = abs(lhs - rhs) % 1.0
        assert min(d, 1 - d) < 1e-12


def test_orientation_and_degree_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rotation(float(rng.random())) @ diagonal(0.3 + 3 * float(rng.random()))
        xs = np.linspace(0, 1, 64, endpoint=False)
        vals = projective_action_array(m, xs)
        lift = vals.copy()
        for i in range(1, len(lift)):
            while lift[i] < lift[i - 1] - 1e-12:
                lift[i] += 1.0
        assert lift[-1] - lift[0] < 1.0 + 1e-9


def test_unimodular_check():
    Mat2(1.0, 0.0, 0.0, 1.0).require_unimodular()
    with pytest.raises(Exception):
        Mat2(2.0, 0.0, 0.0, 1.0).require_unimodular()


def test_cocycle_inputs_are_sl2():
    with pytest.raises(PreconditionError, match="determinant"):
        Cocycle.constant(Mat2(2.0, 0.0, 0.0, 1.0))
    with pytest.raises(PreconditionError, match="lam != 0"):
        Cocycle.diagonal(0.0)


def test_lyapunov_diagonal_and_rotation():
    est = lyapunov(Cocycle.diagonal(2.0), 10**5)
    assert abs(est.value - math.log(2)) < 1e-6
    est = lyapunov(Cocycle.rotation(0.3), 10**5)
    assert abs(est.value) < 1e-4
    assert est.det_drift <= 1e-9


def reference_lyapunov(c, n, theta0=0.0, renorm_every=32):
    """lyapunov's block products formed one step at a time with Mat2: its oracle."""
    thetas = orbit_thetas(theta0 % 1.0, float(c.omega), 0, n).tolist()
    b = IDENTITY
    log_norm = drift_log = 0.0
    step = 0
    while step < n:
        chunk = IDENTITY
        for _ in range(min(renorm_every, n - step)):
            chunk = c.matrix(thetas[step]) @ chunk
            step += 1
        d = chunk.det()
        if d > 0 and chunk.norm() < 1e6:
            drift_log += abs(math.log(d))
        acc = chunk @ b
        s = acc.norm()
        log_norm += math.log(s)
        b = Mat2(acc.a / s, acc.b / s, acc.c / s, acc.d / s)
    return log_norm / n, abs(drift_log)


@pytest.mark.parametrize("cocycle, theta0", [
    (Cocycle.harper(0.0, 2.0), 0.0),
    (Cocycle.harper(0.3, 0.7), 0.37),
    (Cocycle.harper(0.0, 1.6), 0.0),     # block norms on both sides of 1e6
    (Cocycle.rotation(0.3), 0.0),
    (Cocycle.constant(Mat2(2.0, 1.0, 1.0, 1.0)), 0.0),
])
def test_lyapunov_matches_mat2_reference(cocycle, theta0):
    n = 12345  # not a multiple of the block length
    est = lyapunov(cocycle, n, theta0=theta0)
    value, drift = reference_lyapunov(cocycle, n, theta0=theta0)
    assert est.value == value
    assert est.det_drift == drift


@pytest.mark.parametrize("cocycle", [
    Cocycle.harper(0.0, 1.6),
    Cocycle.rotation(0.3),
    Cocycle.diagonal(1.01),
    Cocycle.constant(Mat2(2.0, 1.0, 1.0, 1.0)),
])
@pytest.mark.parametrize("n, theta0", [
    (12345, 0.37),                       # not a multiple of the block length
    (_THETA_CHUNK - 1, 0.0),             # around one chunk of thetas
    (_THETA_CHUNK, 0.0),
    (_THETA_CHUNK + 1, 0.9),
    (2 * _THETA_CHUNK + 33, 0.0),
])
def test_lyapunov_matches_mat2_reference_across_chunks(cocycle, n, theta0):
    # every family, blocks side by side in one chunk or split over several
    est = lyapunov(cocycle, n, theta0=theta0)
    assert (est.value, est.det_drift) == reference_lyapunov(cocycle, n, theta0=theta0)


def test_lyapunov_det_drift_leaves_out_blocks_of_norm_1e6():
    # on Harper E=0 every full 32-step block has norm >= 1e6, so at n = 5e4
    # det_drift is |log det| of the final 16-step block alone
    c = Cocycle.harper(0.0, 2.0)
    n = 5 * 10**4
    block = IDENTITY
    for theta in orbit_thetas(0.0, float(c.omega), n - n % 32, n).tolist():
        block = c.matrix(theta) @ block
    assert n % 32 == 16 and block.norm() < 1e6
    assert lyapunov(c, n).det_drift == abs(math.log(block.det()))


def test_lyapunov_harper_recorded():
    a = lyapunov(Cocycle.harper(0.0, 2.0), 10**5, theta0=0.0)
    b = lyapunov(Cocycle.harper(0.0, 2.0), 10**5, theta0=0.37)
    assert a.value > 0 and b.value > 0
    assert abs(a.value - b.value) < 0.01


def test_cocycle_qpf_feeds_minimal_sets():
    system = cocycle_qpf(Cocycle.diagonal(2.0))
    fs = approximate_minimal_set(system, burnin=1000, iters=50000, fiber_grid=128,
                                 vertical_grid=128, bins=128, seed=0)
    # attracting constant graph at x = 0: every occupied fiber hugs bin 0
    rows = np.flatnonzero(fs.bins.any(axis=1))
    for i in rows:
        occ = fs.fiber_occupancy(int(i))
        assert all(min(j, 128 - j) <= 1 for j in occ)


@pytest.mark.parametrize("cocycle", [
    Cocycle.harper(0.0, 2.0),
    Cocycle.diagonal(2.0),
    Cocycle.rotation(0.5),
    Cocycle.rotation(math.sqrt(2) / 3),
])
def test_sampled_cocycle_rows_are_normalized_lifts(cocycle):
    # every row rises monotonically by exactly one turn from f_theta(0)
    table = cocycle_qpf(cocycle).sample(512, 512)
    assert np.all(np.diff(table, axis=1) >= 0.0)
    assert np.max(np.abs(table[:, -1] - table[:, 0] - 1.0)) <= 1e-15


def test_cardinality_verdicts():
    rep = minimal_fiber_cardinality(Cocycle.diagonal(2.0), fiber_grid=256,
                                    vertical_grid=256, bins=256, iters=10**5,
                                    burnin=5000, seed=0)
    assert rep.modal_count == 1 and rep.modal_fraction == 1.0
    assert rep.verdict == "(p,q)-graph-like"  # a continuous (1,1)-graph
    rep2 = minimal_fiber_cardinality(Cocycle.rotation(0.5), fiber_grid=256,
                                     vertical_grid=256, bins=256, iters=10**5,
                                     burnin=5000, seed=0)
    assert rep2.modal_count == 2 and rep2.modal_fraction >= 0.99
    rep3 = minimal_fiber_cardinality(Cocycle.rotation(math.sqrt(2) / 3), fiber_grid=256,
                                     vertical_grid=256, bins=256, iters=10**6,
                                     burnin=5000, seed=0)
    assert rep3.verdict == "whole-torus"


def test_cluster_tolerance_precondition():
    with pytest.raises(Exception):
        minimal_fiber_cardinality(Cocycle.diagonal(2.0), cluster_tol=1)


def full_array_continuity(b, tol):
    """_graph_continuity by whole-array rolls and a loop over the fibers: the reference."""
    dilated = b.copy()
    for d in range(1, tol + 1):
        dilated |= np.roll(b, d, axis=1) | np.roll(b, -d, axis=1)
    nxt = np.roll(dilated, -1, axis=0)
    rows = b.any(axis=1) & np.roll(b.any(axis=1), -1)
    if not rows.any():
        return 0.0
    return float(np.mean([bool(np.all(~b[i] | nxt[i])) for i in np.flatnonzero(rows)]))


def continuity(b, tol):
    return _graph_continuity(FiberSet(bins=b), tol)


@pytest.mark.parametrize("shape", [(1, 16), (5, 3), (64, 64), (130, 50), (200, 300)])
def test_graph_continuity_matches_full_array_formula(shape):
    # 130 and 200 rows end in a partial block; 3 bins are fewer than the tolerance
    rng = np.random.default_rng(sum(shape))
    for density in (0.0, 0.003, 0.02, 0.3, 0.9):
        for tol in (1, 2, 8):
            b = rng.random(shape) < density
            assert continuity(b, tol) == full_array_continuity(b, tol)


def test_graph_continuity_wraps_rows_and_bins():
    # the last fiber tracks the first across the 0/1 seam: bins 49 and 1 are 2 apart
    b = np.zeros((130, 50), dtype=bool)
    b[129, 49] = b[0, 1] = True
    assert continuity(b, 2) == full_array_continuity(b, 2) == 1.0
    assert continuity(b, 1) == full_array_continuity(b, 1) == 0.0
