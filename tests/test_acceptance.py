"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here, straight from the criterion statements; nothing is calibrated at run
time.  Criterion 8's vertical-extent clause is asserted faithfully and is
expected to fail at finite truncation (see the strict xfail reason).
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import numpy as np
import pytest

from qpflab.atlas import audit_atlas
from qpflab.density import audit_density
from qpflab.geometry import (OrbitIntersections, image_curve, intersection_projection,
                             is_flat_intersection)
from qpflab.measure import kolmogorov_distance
from qpflab.minimal import minimal_set_via_projection, structure_diagnostics
from qpflab.plgraph import PLGraph
from qpflab.sl2 import Cocycle, lyapunov, minimal_fiber_cardinality
from qpflab.surgery import apply_perturbation, find_perturbation_box, flatten_to_depth, verify_x_law
from qpflab.systems import QpfSystem
from qpflab.transport import verify_nonminimality, verify_semiconjugacy
from qpflab.errors import BoxNotFound, LambdaNotFound


def report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_flatness_certification():
    system = QpfSystem.translation()
    tent = PLGraph.tent(F(1, 5), F(7, 10))
    t0 = time.monotonic()
    flat, cert = flatten_to_depth(system, tent, 4)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0 and cert.flat
    for k in range(1, 5):
        is_flat, proj = is_flat_intersection(flat, image_curve(system, flat, k))
        ok &= is_flat
        ok &= all(lo != hi for lo, hi in proj.pieces) or proj.is_empty
    decreasing = all(s.degenerate_after < s.degenerate_before for s in cert.steps)
    ok &= decreasing and len(cert.steps) > 0
    report("1 flatness-certification",
           ok, f"{len(cert.steps)} surgeries in {elapsed:.1f}s, all depths exact-flat")
    assert ok


# -- criterion 2 -------------------------------------------------------------


def _random_fixture_curve(rng) -> PLGraph:
    pts = []
    base = rng.random() * 0.8
    for j in range(4):
        theta = F(j, 4) + F(int(rng.integers(1, 200)), 1000)
        value = F(int((base + 0.7 * rng.random()) * 1000), 1000)
        pts.append((theta, value))
    return PLGraph.from_points(pts)


def test_criterion_2_perturbation_law():
    system = QpfSystem.translation()
    successes = 0
    failures = []
    seed = 0
    while successes < 20 and seed < 200:
        seed += 1
        rng = np.random.default_rng(seed)
        curve = _random_fixture_curve(rng)
        depth = int(rng.integers(1, 4))
        proj = intersection_projection(curve, image_curve(system, curve, depth))
        degs = proj.degenerate_components()
        if not degs:
            continue
        z = (degs[0][0], curve.circle_value(degs[0][0]))
        gaps = proj.min_component_gap()
        delta_max = min(F(1, 64), gaps / 4 if gaps else F(1, 64))
        try:
            table = OrbitIntersections(system, curve)
            box = find_perturbation_box(table, z, depth, delta_max, F(1, 32))
            new_curve, record = apply_perturbation(table, box)
        except (BoxNotFound, LambdaNotFound):
            continue
        law = verify_x_law(system, curve, new_curve, record, depth)
        counts_ok = all(law[k]["components_after"] == law[k]["components_before"]
                        for k in range(1, depth))
        exact = all(v["match"] for v in law.values())
        if exact and counts_ok:
            successes += 1
        else:
            failures.append(seed)
    ok = successes >= 20 and not failures
    report("2 perturbation-law", ok,
           f"{successes} randomized box fixtures verified exactly, failures={failures}")
    assert ok


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_projection_contract(plain8):
    worst_ks = 0.0
    worst_width = 0.0
    for g in range(64):
        theta = F(g, 64)
        rng = np.random.default_rng(5000 + g)
        fp = plain8.projection.fiber(theta)
        fm = plain8.mu.fiber(theta)
        ks = kolmogorov_distance(fm, fp.map_array(rng.random(100000)))
        worst_ks = max(worst_ks, ks)
        for n in plain8.mu.curves:
            plateau = fp.plateau_of(n)
            worst_width = max(worst_width,
                              abs(float(plateau.length - plain8.mu.masses[n])))
    ok = worst_ks <= 0.005 and worst_width <= 1e-10
    report("3 projection-contract", ok,
           f"worst KS {worst_ks:.5f} <= 0.005 on 64 fibers; "
           f"atom width defect {worst_width:.2e} <= 1e-10")
    assert ok


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_atlas_audit(plain8):
    t0 = time.monotonic()
    audit = audit_atlas(plain8.atlas, 4096)
    elapsed = time.monotonic() - t0
    bound_ok = all(audit.max_components[n] <= 2 * abs(n) + 1 for n in plain8.atlas.order)
    ok = bound_ok and audit.min_v_fraction >= 0.5 - 1e-12 and elapsed < 300
    report("4 atlas-audit", ok,
           f"4096 fibers in {elapsed:.0f}s; widths exact, components within 2|n|+1, "
           f"min V fraction {audit.min_v_fraction:.3f}")
    assert ok


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_density_bounds(plain8):
    audit = audit_density(plain8.density, 4096, vertical=4096)
    ok = audit["min_h"] >= 0.28 and audit["worst_layer_defect"] <= 10 / 4096
    report("5 density-bounds", ok,
           f"min h {audit['min_h']:.4f} >= 0.28; layer defect "
           f"{audit['worst_layer_defect']:.2e} <= {10 / 4096:.2e}")
    assert ok


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_semiconjugacy_residual(plain4, plain8, plain16):
    reports = {}
    for label, pipe in (("4", plain4), ("8", plain8), ("16", plain16)):
        reports[label] = verify_semiconjugacy(pipe.tmap, 4096, 4096)
    r8 = reports["8"]
    ok = r8.residual <= r8.bound
    ok &= reports["16"].residual < reports["8"].residual < reports["4"].residual
    ok &= r8.shifted_residual <= 2 / 4096
    report("6 semiconjugacy-residual", ok,
           f"residual(8)={r8.residual:.6f} <= {r8.bound:.6f}; decay "
           f"{reports['4'].residual:.4f} > {reports['8'].residual:.4f} > "
           f"{reports['16'].residual:.4f}; shifted {r8.shifted_residual:.2e} <= "
           f"{2 / 4096:.2e}")
    assert ok


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_nonminimality_probes(plain8, crossed4):
    rep8 = verify_nonminimality(plain8.tmap, grid=1024)
    annulus_ok = rep8.annulus_height >= float(plain8.weights.a(0)) - 1e-9
    repc = verify_nonminimality(crossed4.tmap, witnesses=crossed4.witnesses, grid=256)
    ok = annulus_ok and repc.hit_fraction >= 0.9 and len(repc.hit_times) >= 2
    report("7 nonminimality-transitivity", ok,
           f"annulus height {rep8.annulus_height:.6f} >= a_0 - 1e-9; "
           f"hit fraction {repc.hit_fraction:.2f} on {len(repc.hit_times)} certified pairs")
    assert ok


# -- criterion 8 -------------------------------------------------------------


@pytest.fixture(scope="module")
def crossed_minimal_set(crossed4):
    return minimal_set_via_projection(crossed4.projection, crossed4.system,
                                      iters=10**7, burnin=10**5,
                                      fiber_grid=4096, bins=4096, seed=0)


def test_criterion_8_fiber_measure(crossed4, crossed_minimal_set):
    beta = float(crossed4.weights.beta)
    diag = structure_diagnostics(crossed_minimal_set, beta=beta)
    bound = beta + 2 / 4096
    ok = diag.max_fiber_measure <= bound
    report("8 minimal-set-fiber-measure", ok,
           f"max fiber measure {diag.max_fiber_measure:.4f} <= beta + 2 bins = {bound:.4f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="spec defect at finite truncation: the approximated minimal set has "
    "per-fiber Lebesgue measure ~ beta > 0 (the complement of finitely many "
    "blown annuli), so any faithful dense binning contains horizontally "
    "adjacent occupied bins; the vertical-segment property of the infinite "
    "construction (components of K are single-fiber segments) emerges only in "
    "the N -> infinity limit.  See README.md, section 'Minimal-set vertical extent'.")
def test_criterion_8_vertical_extent(crossed4, crossed_minimal_set):
    diag = structure_diagnostics(crossed_minimal_set, beta=float(crossed4.weights.beta))
    report("8 minimal-set-vertical-extent", diag.vertical_segments,
           f"max horizontal extent {diag.max_horizontal_extent} fiber cells "
           "(criterion demands <= 1; unattainable at finite truncation, see ledger)")
    assert diag.vertical_segments


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_sl2_probes():
    est = lyapunov(Cocycle.diagonal(2.0), 10**6)
    lyap_ok = abs(est.value - np.log(2.0)) <= 1e-4
    rep = minimal_fiber_cardinality(Cocycle.rotation(0.5), fiber_grid=1024,
                                    vertical_grid=1024, bins=1024,
                                    iters=2 * 10**6, burnin=10**4, seed=0)
    two_ok = rep.histogram.get(2, 0) / max(1, sum(rep.histogram.values())) >= 0.99
    h1 = minimal_fiber_cardinality(Cocycle.harper(0.0, 2.0), fiber_grid=512,
                                   vertical_grid=512, bins=512, iters=10**6,
                                   burnin=10**4, seed=0)
    h2 = minimal_fiber_cardinality(Cocycle.harper(0.0, 2.0), fiber_grid=512,
                                   vertical_grid=512, bins=512, iters=10**6,
                                   burnin=10**4, seed=1)
    harper_ok = h1.verdict == h2.verdict
    ok = lyap_ok and two_ok and harper_ok
    report("9 sl2-probes", ok,
           f"lyap(diag 2) err {abs(est.value - np.log(2.0)):.2e} <= 1e-4; "
           f"quarter-turn cardinality-2 fraction "
           f"{rep.histogram.get(2, 0) / max(1, sum(rep.histogram.values())):.3f} >= 0.99; "
           f"harper verdicts agree: {h1.verdict!r}")
    assert ok


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    import filecmp

    from qpflab.cli import main

    manifest = tmp_path / "m.ini"
    manifest.write_text("""
[weights]
n = 4
[grids]
fibers = 128
vertical = 128
bins = 128
[run]
seed = 3
crossings = 1
iters = 20000
burnin = 100
""", encoding="ascii")
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["blowup", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert main(["analyze", "--manifest", str(manifest),
                     "--out", str(out / "an")]) == 0
        assert main(["cocycle", "--manifest", str(manifest),
                     "--out", str(out / "coc")]) == 0
        outs.append(out)
    mismatches = []
    for rel in ["curve.txt", "nu_cdf.bin", "residual.csv", "report.jsonl",
                "atlas.jsonl", "manifest.echo.txt", "an/rotation.csv",
                "an/deviations.csv", "an/verdict.jsonl", "an/fiberset.rle.txt",
                "coc/lyapunov.csv", "coc/cardinality_hist.csv", "coc/verdict.jsonl"]:
        if not filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False):
            mismatches.append(rel)
    ok = not mismatches
    report("10 determinism", ok,
           "all data artifacts byte-identical across reruns" if ok else
           f"mismatches: {mismatches}")
    assert ok
