"""Deterministic command-line front end.

Commands: curve, blowup, analyze, cocycle.  Identical manifests and seeds
produce byte-identical data artifacts; wall-clock timing lives only in the
sidecar run.log, which also holds the seconds each handler reports: for
analyze, those of its serial head and of its two branches; for cocycle,
those of lyapunov and of the cardinality verdict.  Two commands fork one
child process each (POSIX, qpflab.branch): analyze runs its minimal-set
branch there, beside f's classification, and cocycle's orbit
(minimal.approximate_minimal_set) its second half.  A child that ends without a result is BranchLost; a failed
command has reaped its child.  Exit codes: 0 ok, 4 when a run fails its
own audit, and else the one the error class carries (qpflab.errors): 2
config, 3 precondition, 4 invariant violation, 5 timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import artifacts
from .atlas import audit_atlas
from .chamber import grid_pass
from .density import audit_density
from .branch import Branch
from .errors import QpfLabError
from .manifest import Manifest, load_manifest
from .minimal import fiber_component_count, minimal_set_via_projection, structure_diagnostics
from .pipeline import prepare_curve, run_blowup
from .sl2 import Cocycle, Mat2, lyapunov, minimal_fiber_cardinality
from .systems import Lift, classify_rho_boundedness, rotation_number
from .transport import verify_nonminimality, verify_semiconjugacy
from .weights import make_weights

EXIT_OK = 0
EXIT_INVARIANT = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qpflab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curve", "blowup", "analyze", "cocycle"):
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--emit-svg", action="store_true")
        p.add_argument("--grid", type=int, default=None)
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        manifest = load_manifest(args.manifest, seed=args.seed, grid=args.grid)
        args.out.mkdir(parents=True, exist_ok=True)
        handler = {"curve": cmd_curve, "blowup": cmd_blowup,
                   "analyze": cmd_analyze, "cocycle": cmd_cocycle}[args.command]
        code, seconds = handler(manifest, args.out, emit_svg=args.emit_svg)
    except QpfLabError as exc:
        print(f"{exc.prefix} {exc}", file=sys.stderr)
        return exc.exit_code
    (args.out / "run.log").write_text(
        f"command={args.command}\nelapsed_s={time.time() - t0:.3f}\n"
        + "".join(f"{name}={value:.3f}\n" for name, value in seconds.items())
        + f"finished_at={time.strftime('%Y-%m-%dT%H:%M:%S')}\n", encoding="ascii")
    return code


def _echo_manifest(manifest: Manifest, out: Path) -> None:
    (out / "manifest.echo.txt").write_text(manifest.normalized_text(), encoding="ascii")


def _run_blowup(manifest: Manifest, system):
    """The blowup pipeline on the manifest's weights and curve."""
    weights = make_weights(manifest.weights_k, manifest.weights_n, manifest.epsilon)
    return run_blowup(system, manifest.initial_curve(), weights,
                      crossings=manifest.crossings, seed=manifest.seed,
                      flatten=manifest.curve_kind != "file",
                      waive_flatness=manifest.waive_flatness)


def cmd_curve(manifest: Manifest, out: Path, emit_svg: bool) -> tuple[int, dict]:
    system = manifest.base_system()
    curve = manifest.initial_curve()
    depth = 2 * manifest.weights_n + 1          # the flattening depth of run_blowup
    final, cert, witnesses = prepare_curve(system, curve, depth,
                                           crossings=manifest.crossings,
                                           seed=manifest.seed)
    _echo_manifest(manifest, out)
    artifacts.write_curve(out / "curve.txt", final)
    records = [{"type": "flatness", **cert.to_jsonable()}]
    for wit in witnesses:
        records.append({"type": "crossing", "m": wit.m, "arc": list(wit.arc),
                        "i_arc": list(wit.i_arc), "j_arc": list(wit.j_arc),
                        "verified": wit.verified})
    artifacts.write_jsonl(out / "certificate.jsonl", records)
    if emit_svg:
        from .geometry import image_curve
        fam = [image_curve(system, final, k) for k in range(0, min(4, depth + 1))]
        (out / "curves.svg").write_text(artifacts.curve_svg(fam), encoding="ascii")
    return (EXIT_OK if cert.flat and all(w.verified for w in witnesses) else EXIT_INVARIANT), {}


def cmd_blowup(manifest: Manifest, out: Path, emit_svg: bool) -> tuple[int, dict]:
    pipeline = _run_blowup(manifest, manifest.base_system())
    _echo_manifest(manifest, out)
    atlas_audit = audit_atlas(pipeline.atlas, manifest.fibers)
    density_audit = audit_density(pipeline.density, min(manifest.fibers, 512), manifest.vertical)
    report = verify_semiconjugacy(pipeline.tmap, manifest.fibers, manifest.vertical)
    nonmin = verify_nonminimality(pipeline.tmap, witnesses=pipeline.witnesses,
                                  grid=min(manifest.fibers, 512),
                                  probe_points=manifest.probe_points)
    # per-fiber nu CDF tables on the uniform vertical grid, written row by row
    xs = np.linspace(0.0, 1.0, manifest.vertical + 1)
    artifacts.write_cdf_tables(out / "nu_cdf.bin", xs, manifest.fibers, grid_pass(
        manifest.fibers, [(pipeline.density.chambers, 0)], partial(_cdf_row, pipeline.density, xs)))
    artifacts.write_curve(out / "curve.txt", pipeline.curve)
    step = max(1, manifest.fibers // 256)
    arcs = grid_pass(manifest.fibers, [(pipeline.atlas.chambers, 0)],
                     partial(_u_arcs, pipeline.atlas), step=step)
    # the line json.dumps makes of {"fiber": g, "u": u}, around the run's text of u
    artifacts.write_jsonl(out / "atlas.jsonl", (f'{{"fiber": {g}, "u": {u}}}' for g, u
                                                in zip(range(0, manifest.fibers, step), arcs)))
    artifacts.write_csv(out / "residual.csv", ["fiber", "residual"],
                        [(i, float(r)) for i, r in enumerate(report.residual_per_fiber)])
    summary = {
        "residual": report.residual,
        "residual_bound": report.bound,
        "residual_passed": report.passed,
        "shifted_residual": report.shifted_residual,
        "tv_defect": report.tv_defect,
        "tv_expected": report.tv_expected,
        "min_h": density_audit["min_h"],
        "min_h_floor": density_audit["floor"],
        "atlas_max_components": {str(k): v for k, v in atlas_audit.max_components.items()},
        "min_v_fraction": atlas_audit.min_v_fraction,
        "v_fraction_floor": float(1 - pipeline.weights.epsilon),
        "annulus_height": nonmin.annulus_height,
        "probe_hit_fraction": nonmin.hit_fraction,
        "beta": float(pipeline.weights.beta),
    }
    artifacts.write_jsonl(out / "report.jsonl", [summary])
    if emit_svg:
        fam = [pipeline.family[n] for n in sorted(pipeline.family)[:6]]
        (out / "curves.svg").write_text(artifacts.curve_svg(fam), encoding="ascii")
        (out / "atlas.svg").write_text(artifacts.atlas_svg(pipeline.atlas, grid=128),
                                       encoding="ascii")
    ok = report.passed and nonmin.hit_fraction >= 0.9
    return (EXIT_OK if ok else EXIT_INVARIANT), {}


def _cdf_row(density, xs: np.ndarray, theta) -> bytes:
    """The nu CDF of the fiber at theta on the vertical grid xs, as its <f8 bytes."""
    fd = density.fiber(theta)
    row = fd.mass_from(0.0, xs)
    row[-1] = fd.total
    return row.astype("<f8").tobytes()


def _u_arcs(atlas, theta) -> str:
    """The JSON text of the U arcs of the atlas fiber at theta, as the atlas.jsonl row holds them."""
    fa = atlas.fiber(theta)
    return json.dumps({str(n): [[float(lo), float(hi)] for lo, hi in fa.u[n]]
                       for n in atlas.order}, sort_keys=True, allow_nan=False)


def cmd_analyze(manifest: Manifest, out: Path, emit_svg: bool) -> tuple[int, dict]:
    start = time.perf_counter()
    system = manifest.base_system()
    lift = Lift(system)
    n_rot = max(1000, 10 * manifest.fibers)
    est = rotation_number(lift, Fraction(0), Fraction(0), n_rot)
    trace = est.deviations(min(n_rot, 4096))
    verdict = classify_rho_boundedness(lift, max(100, min(n_rot, 2048)), 8, rho=est.value)
    _echo_manifest(manifest, out)
    artifacts.write_csv(out / "rotation.csv", ["n", "estimate", "cauchy_gap"],
                        [(est.n, est.value, est.cauchy_gap)])
    artifacts.write_csv(out / "deviations.csv", ["n", "dev", "sup"],
                        [(i + 1, float(d), float(s)) for i, (d, s)
                         in enumerate(zip(trace.devs, trace.sup_growth))])
    records = [{"target": "base", "rho": est.value, "verdict": verdict.verdict,
                "ratio": verdict.ratio, "sup_dev": verdict.sup_full}]
    # blowup target: build the pipeline at the configured grids, then classify f
    # here while a forked child builds the minimal set, which reads only pi
    pipeline = _run_blowup(manifest, system)
    head_seconds = time.perf_counter() - start
    branch = Branch(partial(_minimal_branch, manifest, system, pipeline, out, emit_svg))
    try:
        t0 = time.perf_counter()
        f_verdict = classify_rho_boundedness(Lift(pipeline.tmap.as_system()), 512, 4)
        f_seconds = time.perf_counter() - t0
        minimal_record, minimal_seconds = branch.result()
    except BaseException:
        # f's error wins over the child's; a failed run leaves no fiber set
        branch.cancel()
        for name in ("fiberset.rle.txt", "fiberset.svg"):
            (out / name).unlink(missing_ok=True)
        raise
    records.append({"target": "blowup-f", "rho": f_verdict.rho,
                    "verdict": f_verdict.verdict, "ratio": f_verdict.ratio})
    records.append(minimal_record)
    artifacts.write_jsonl(out / "verdict.jsonl", records)
    return EXIT_OK, {"head_s": head_seconds, "f_branch_s": f_seconds,
                     "minimal_branch_s": minimal_seconds}


def _minimal_branch(manifest: Manifest, system, pipeline, out: Path, emit_svg: bool):
    """analyze's minimal set K, lifted through pi: it writes the fiber set and
    returns the verdict record and its own wall seconds."""
    t0 = time.perf_counter()
    fs = minimal_set_via_projection(pipeline.projection, system, iters=manifest.iters,
                                    burnin=min(manifest.burnin, manifest.iters // 10),
                                    fiber_grid=manifest.fibers, bins=manifest.bins,
                                    seed=manifest.seed)
    comp = fiber_component_count(fs)
    diag = structure_diagnostics(fs, beta=float(pipeline.weights.beta))
    record = {
        "target": "blowup-f-minimal-set",
        "c_min": comp.c_min,
        "attaining_fraction": comp.attaining_fraction,
        "vertical_segments": diag.vertical_segments,
        "max_horizontal_extent": diag.max_horizontal_extent,
        "max_fiber_measure": diag.max_fiber_measure,
        "fiber_measure_bound": diag.fiber_measure_bound,
        "open_question": diag.open_question_flag,
    }
    artifacts.write_rle(out / "fiberset.rle.txt", fs.to_rle_lines(), fs.resolution)
    if emit_svg:
        (out / "fiberset.svg").write_text(artifacts.fiberset_svg(fs), encoding="ascii")
    return record, time.perf_counter() - t0


def cmd_cocycle(manifest: Manifest, out: Path, emit_svg: bool) -> tuple[int, dict]:
    fam = manifest.cocycle_family
    omega = manifest.omega
    if fam == "harper":
        coc = Cocycle.harper(manifest.cocycle_energy, manifest.cocycle_lam, omega=omega)
    elif fam == "rotation":
        coc = Cocycle.rotation(manifest.cocycle_angle, omega=omega)
    elif fam == "diagonal":
        coc = Cocycle.diagonal(manifest.cocycle_lam, omega=omega)
    else:
        coc = Cocycle.constant(Mat2(manifest.cocycle_a, manifest.cocycle_b,
                                    manifest.cocycle_c, manifest.cocycle_d), omega=omega)
    _echo_manifest(manifest, out)
    t0 = time.perf_counter()
    est = lyapunov(coc, max(1000, manifest.iters // 10))
    t1 = time.perf_counter()
    rep = minimal_fiber_cardinality(coc, fiber_grid=manifest.fibers,
                                    vertical_grid=manifest.vertical, bins=manifest.bins,
                                    iters=manifest.iters, burnin=manifest.burnin,
                                    seed=manifest.seed)
    t2 = time.perf_counter()
    artifacts.write_csv(out / "lyapunov.csv", ["n", "value", "det_drift"],
                        [(est.n, est.value, est.det_drift)])
    artifacts.write_csv(out / "cardinality_hist.csv", ["clusters", "fibers"],
                        sorted(rep.histogram.items()))
    artifacts.write_jsonl(out / "verdict.jsonl", [{
        "family": fam, "verdict": rep.verdict, "modal_count": rep.modal_count,
        "modal_fraction": rep.modal_fraction, "occupancy": rep.occupancy_fraction,
        "flag": rep.flag, "lyapunov": est.value,
    }])
    return EXIT_OK, {"lyapunov_s": t1 - t0, "cardinality_s": t2 - t1}


if __name__ == "__main__":
    sys.exit(main())
