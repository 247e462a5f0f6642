"""Deterministic command-line front end.

Commands: curve, blowup, analyze, cocycle.  Identical manifests and seeds
produce byte-identical data artifacts; wall-clock timing lives only in the
sidecar run.log.  Exit codes: 0 ok, 2 config, 3 precondition, 4 invariant
violation, 5 timeout.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import (ConfigError, InvariantViolation, PreconditionError,
                     QpfLabError, TimeoutError_)
from .manifest import Manifest, load_manifest
from .minimal import fiber_component_count, minimal_set_via_projection, structure_diagnostics
from .pipeline import prepare_curve, run_blowup
from .sl2 import Cocycle, Mat2, lyapunov, minimal_fiber_cardinality
from .systems import Lift, classify_rho_boundedness, deviations, rotation_number
from .transport import verify_nonminimality
from .weights import make_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4
EXIT_TIMEOUT = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qpflab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curve", "blowup", "analyze", "cocycle"):
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--emit-svg", action="store_true")
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        manifest = load_manifest(args.manifest)
        if args.seed is not None:
            manifest.seed = args.seed
        if args.depth is not None:
            manifest.depth = args.depth
        if args.grid is not None:
            manifest.fibers = manifest.vertical = manifest.bins = args.grid
        args.out.mkdir(parents=True, exist_ok=True)
        handler = {"curve": cmd_curve, "blowup": cmd_blowup,
                   "analyze": cmd_analyze, "cocycle": cmd_cocycle}[args.command]
        code = handler(manifest, args.out, emit_svg=args.emit_svg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TimeoutError_ as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except QpfLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    (args.out / "run.log").write_text(
        f"command={args.command}\nelapsed_s={time.time() - t0:.3f}\n"
        f"finished_at={time.strftime('%Y-%m-%dT%H:%M:%S')}\n", encoding="ascii")
    return code


def _echo_manifest(manifest: Manifest, out: Path) -> None:
    (out / "manifest.echo.txt").write_text(manifest.normalized_text(), encoding="ascii")


def _run_blowup(manifest: Manifest, system):
    """The blowup pipeline on the manifest's weights, curve and grids."""
    weights = make_weights(manifest.weights_mode, manifest.weights_k, manifest.weights_n,
                           manifest.epsilon, alpha=manifest.alpha, s=manifest.s)
    return run_blowup(system, manifest.initial_curve(), weights, manifest.epsilon,
                      n0=manifest.anchor, crossings=manifest.crossings,
                      seed=manifest.seed, fiber_grid=manifest.fibers,
                      vertical_grid=manifest.vertical,
                      flatten=manifest.curve_kind != "file",
                      waive_flatness=manifest.waive_flatness)


def cmd_curve(manifest: Manifest, out: Path, emit_svg: bool = False) -> int:
    system = manifest.base_system()
    curve = manifest.initial_curve()
    final, cert, witnesses = prepare_curve(system, curve, manifest.depth,
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
        fam = [image_curve(system, final, k) for k in range(0, min(4, manifest.depth + 1))]
        (out / "curves.svg").write_text(artifacts.curve_svg(fam), encoding="ascii")
    return EXIT_OK if cert.flat and all(w.verified for w in witnesses) else EXIT_INVARIANT


def cmd_blowup(manifest: Manifest, out: Path, emit_svg: bool = False) -> int:
    pipeline = _run_blowup(manifest, manifest.base_system())
    _echo_manifest(manifest, out)
    atlas_audit = pipeline.atlas_audit()
    density_audit = pipeline.density_audit(grid=min(manifest.fibers, 512))
    report = pipeline.semiconjugacy_report()
    sampled = pipeline.sampled_f()
    nonmin = verify_nonminimality(pipeline.tmap, pipeline.atlas,
                                  witnesses=pipeline.witnesses,
                                  grid=min(manifest.fibers, 512), sampled=sampled,
                                  probe_points=manifest.probe_points)
    # per-fiber nu CDF tables on the uniform vertical grid
    xs = np.linspace(0.0, 1.0, manifest.vertical + 1)
    knots = np.tile(xs, (manifest.fibers, 1))
    values = np.empty_like(knots)
    for g in range(manifest.fibers):
        fd = pipeline.density.fiber(Fraction(g, manifest.fibers))
        values[g] = fd.mass_from(0.0, xs)
        values[g, -1] = fd.total
    artifacts.write_cdf_tables(out / "nu_cdf.bin", knots, values)
    artifacts.write_curve(out / "curve.txt", pipeline.curve)
    atlas_rows = []
    step = max(1, manifest.fibers // 256)
    for g in range(0, manifest.fibers, step):
        fa = pipeline.atlas.fiber(Fraction(g, manifest.fibers))
        atlas_rows.append({
            "fiber": g,
            "u": {str(n): [[float(lo), float(hi)] for lo, hi in fa.u[n]]
                  for n in pipeline.atlas.order},
        })
    artifacts.write_jsonl(out / "atlas.jsonl", atlas_rows)
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
        "v_fraction_floor": float(1 - pipeline.epsilon),
        "annulus_height": nonmin.annulus_height,
        "probe_hit_fraction": nonmin.hit_fraction,
        "beta": float(pipeline.weights.beta),
    }
    artifacts.write_jsonl(out / "report.jsonl", [summary])
    if emit_svg:
        fam = [pipeline.family[n] for n in sorted(pipeline.family)[:6]]
        (out / "curves.svg").write_text(artifacts.curve_svg(fam), encoding="ascii")
        (out / "atlas.svg").write_text(
            artifacts.atlas_svg(pipeline.atlas, pipeline.atlas.order, grid=128),
            encoding="ascii")
    ok = report.passed and atlas_audit.passed and nonmin.hit_fraction >= 0.9
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_analyze(manifest: Manifest, out: Path, emit_svg: bool = False) -> int:
    system = manifest.base_system()
    lift = Lift(system)
    n_rot = max(1000, 10 * manifest.fibers)
    est = rotation_number(lift, Fraction(0), Fraction(0), n_rot)
    trace = deviations(lift, Fraction(0), Fraction(0), min(n_rot, 4096), rho=est.value)
    verdict = classify_rho_boundedness(lift, max(100, min(n_rot, 2048)), 8, rho=est.value)
    _echo_manifest(manifest, out)
    artifacts.write_csv(out / "rotation.csv", ["n", "estimate", "cauchy_gap"],
                        [(est.n, est.value, est.cauchy_gap)])
    artifacts.write_csv(out / "deviations.csv", ["n", "dev", "sup"],
                        [(i + 1, float(d), float(s)) for i, (d, s)
                         in enumerate(zip(trace.devs, trace.sup_growth))])
    records = [{"target": "base", "rho": est.value, "verdict": verdict.verdict,
                "ratio": verdict.ratio, "sup_dev": verdict.sup_full}]
    # blowup target: build the pipeline at the configured grids and classify f
    pipeline = _run_blowup(manifest, system)
    f_sys = pipeline.f_system
    f_lift = Lift(f_sys)
    f_verdict = classify_rho_boundedness(f_lift, 512, 4)
    records.append({"target": "blowup-f", "rho": rotation_number(f_lift, 0.0, 0.0, 512).value,
                    "verdict": f_verdict.verdict, "ratio": f_verdict.ratio})
    fs = minimal_set_via_projection(pipeline.projection, system, iters=manifest.iters,
                                    burnin=min(manifest.burnin, manifest.iters // 10),
                                    fiber_grid=manifest.fibers, bins=manifest.bins,
                                    seed=manifest.seed)
    comp = fiber_component_count(fs)
    diag = structure_diagnostics(fs, beta=float(pipeline.weights.beta), seed=manifest.seed)
    records.append({
        "target": "blowup-f-minimal-set",
        "c_min": comp.c_min,
        "attaining_fraction": comp.attaining_fraction,
        "vertical_segments": diag.vertical_segments,
        "max_horizontal_extent": diag.max_horizontal_extent,
        "max_fiber_measure": diag.max_fiber_measure,
        "fiber_measure_bound": diag.fiber_measure_bound,
        "open_question": diag.open_question_flag,
    })
    artifacts.write_jsonl(out / "verdict.jsonl", records)
    artifacts.write_rle(out / "fiberset.rle.txt", fs.to_rle_lines(), fs.resolution)
    if emit_svg:
        (out / "fiberset.svg").write_text(artifacts.fiberset_svg(fs), encoding="ascii")
    return EXIT_OK


def cmd_cocycle(manifest: Manifest, out: Path, emit_svg: bool = False) -> int:
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
    est = lyapunov(coc, max(1000, manifest.iters // 10))
    rep = minimal_fiber_cardinality(coc, fiber_grid=manifest.fibers,
                                    vertical_grid=manifest.vertical, bins=manifest.bins,
                                    iters=manifest.iters, burnin=manifest.burnin,
                                    seed=manifest.seed)
    artifacts.write_csv(out / "lyapunov.csv", ["n", "value", "det_drift"],
                        [(est.n, est.value, est.det_drift)])
    artifacts.write_csv(out / "cardinality_hist.csv", ["clusters", "fibers"],
                        sorted(rep.histogram.items()))
    artifacts.write_jsonl(out / "verdict.jsonl", [{
        "family": fam, "verdict": rep.verdict, "modal_count": rep.modal_count,
        "modal_fraction": rep.modal_fraction, "occupancy": rep.occupancy_fraction,
        "flag": rep.flag, "lyapunov": est.value,
    }])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
