"""Negative tests for the output checks: each corrupted artifact must be caught.

    python3 -m pytest -q perfbench/test_checks.py

A valid artifact set is written for each workload; the checks must pass on
it, and fail once any single property is broken.
"""

import json
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import RHO, quadratic_weights, run_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLOWUP = dict(WORKLOADS["blowup-plain"](0)["params"], fibers=8, vertical=16)
ANALYZE = dict(WORKLOADS["analyze-crossed"](0)["params"], vertical=16, bins=8)
COCYCLE = WORKLOADS["cocycle-harper"](0)["params"]


def _jsonl(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _edit_json(path, **changes):
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in recs:
        for key, val in changes.items():
            if key in rec:
                rec[key] = val(rec) if callable(val) else val
    _jsonl(path, recs)


def write_blowup(out: Path, cdf=None, residuals=None):
    p = BLOWUP
    a, beta, floor = quadratic_weights(p["n"], p["k"], p["epsilon"])
    n, fibers, vertical = p["n"], p["fibers"], p["vertical"]
    residuals = [0.01] * fibers if residuals is None else residuals
    _jsonl(out / "report.jsonl", [{
        "beta": float(beta), "min_h": float(floor) + 0.1, "residual": max(residuals),
        "tv_defect": float(a[n] + a[-n]), "shifted_residual": 0.0,
        "annulus_height": float(a[0]),
        "atlas_max_components": {str(m): 1 for m in range(-n, n + 1)}}])
    xs = np.linspace(0.0, 1.0, vertical + 1)
    values = np.tile(xs, (fibers, 1)) if cdf is None else cdf
    with (out / "nu_cdf.bin").open("wb") as fh:
        fh.write(struct.pack("<QQ", *values.shape))
        for row in values:
            fh.write(xs.astype("<f8").tobytes() + row.astype("<f8").tobytes())
    (out / "residual.csv").write_text(
        "fiber,residual\n" + "".join(f"{i},{r!r}\n" for i, r in enumerate(residuals)))


def write_analyze(out: Path):
    p = ANALYZE
    _, beta, _ = quadratic_weights(p["n"], p["k"], p["epsilon"])
    (out / "rotation.csv").write_text(f"n,estimate,cauchy_gap\n2560,{RHO!r},0.0\n")
    (out / "deviations.csv").write_text("n,dev,sup\n1,0.0,0.0\n2,1e-12,1e-12\n")
    rows = ["0: 1+3 5+2"] + [f"{i}: 0+2 4+2" for i in range(1, p["bins"])]
    (out / "fiberset.rle.txt").write_text(f"# resolution={p['bins']}\n" + "\n".join(rows) + "\n")
    _jsonl(out / "verdict.jsonl", [
        {"target": "base", "rho": RHO, "verdict": "bounded-suspected"},
        {"target": "blowup-f", "rho": RHO + 0.004, "verdict": "bounded-suspected"},
        {"target": "blowup-f-minimal-set", "c_min": 2, "max_fiber_measure": 5 / 8,
         "fiber_measure_bound": float(beta) + 2 / 8}])


# qpflab's lyapunov() on Harper E=0, lambda=2, golden omega, at n=1000
LYAPUNOV_1000 = 0.6927853105277822


def write_cocycle(out: Path):
    (out / "lyapunov.csv").write_text(f"n,value,det_drift\n1000,{LYAPUNOV_1000!r},4e-13\n")
    (out / "cardinality_hist.csv").write_text("clusters,fibers\n1,200\n2,40\n")
    _jsonl(out / "verdict.jsonl", [{"family": "harper", "lyapunov": LYAPUNOV_1000,
                                    "modal_count": 1,
                                    "occupancy": 0.01, "verdict": "inconclusive"}])


def _cdf(mutate):
    p = BLOWUP
    values = np.tile(np.linspace(0.0, 1.0, p["vertical"] + 1), (p["fibers"], 1))
    mutate(values)
    return values


def _replace(name, old, new):
    def corrupt(out):
        text = (out / name).read_text()
        assert old in text
        (out / name).write_text(text.replace(old, new, 1))
    return corrupt


def _rewrite_blowup(**kwargs):
    return lambda out: write_blowup(out, **kwargs)


BLOWUP_CORRUPTIONS = {
    "beta": lambda out: _edit_json(out / "report.jsonl", beta=lambda r: r["beta"] + 1e-9),
    "min_h": lambda out: _edit_json(out / "report.jsonl", min_h=0.2),
    "residual": _rewrite_blowup(residuals=[0.01] * 7 + [0.5]),
    "tv_defect": lambda out: _edit_json(out / "report.jsonl",
                                        tv_defect=lambda r: r["tv_defect"] + 1e-6),
    "shifted_residual": lambda out: _edit_json(out / "report.jsonl", shifted_residual=0.2),
    "annulus_height": lambda out: _edit_json(out / "report.jsonl", annulus_height=0.05),
    "atlas_components": lambda out: _edit_json(
        out / "report.jsonl", atlas_max_components=lambda r: {**r["atlas_max_components"],
                                                              "2": 6}),
    "cdf_non_monotone": _rewrite_blowup(cdf=_cdf(lambda v: v.__setitem__((3, 5), 0.1))),
    "cdf_not_to_one": _rewrite_blowup(cdf=_cdf(lambda v: v.__setitem__((slice(None), -1),
                                                                        0.99))),
    "cdf_theta_dependent": _rewrite_blowup(cdf=_cdf(lambda v: v.__setitem__((2, 4), 0.26))),
    "cdf_header": _rewrite_blowup(cdf=_cdf(lambda v: None)[:7]),
    "residual_rows": _replace("residual.csv", "7,0.01\n", ""),
    "residual_max": _replace("residual.csv", "7,0.01\n", "7,0.02\n"),
    "missing_file": lambda out: (out / "nu_cdf.bin").unlink(),
}

ANALYZE_CORRUPTIONS = {
    "base_rotation": _replace("rotation.csv", repr(RHO), repr(RHO + 1e-9)),
    "base_deviation": _replace("deviations.csv", "2,1e-12", "2,1e-6"),
    "f_rotation": lambda out: _edit_json(out / "verdict.jsonl",
                                         rho=lambda r: r["rho"] + 0.4),
    "fiber_measure": lambda out: (
        _edit_json(out / "verdict.jsonl", max_fiber_measure=1.0),
        _replace("fiberset.rle.txt", "0: 1+3 5+2", "0: 0+8")(out)),
    "c_min": lambda out: _edit_json(out / "verdict.jsonl", c_min=0),
    "rle_rows": _replace("fiberset.rle.txt", "7: 0+2 4+2\n", ""),
    "rle_occupancy": _replace("fiberset.rle.txt", "0: 1+3 5+2", "0: 1+3 5+1"),
    "rle_overlap": _replace("fiberset.rle.txt", "0: 1+3 5+2", "0: 1+3 3+2"),
}

COCYCLE_CORRUPTIONS = {
    "lyapunov": lambda out: (_replace("lyapunov.csv", repr(LYAPUNOV_1000), "0.5")(out),
                             _edit_json(out / "verdict.jsonl", lyapunov=0.5)),
    "lyapunov_recomputed": lambda out: (
        _replace("lyapunov.csv", repr(LYAPUNOV_1000), repr(LYAPUNOV_1000 + 1e-8))(out),
        _edit_json(out / "verdict.jsonl", lyapunov=LYAPUNOV_1000 + 1e-8)),
    "lyapunov_steps": _replace("lyapunov.csv", "1000,", "1024,"),
    "det_drift": _replace("lyapunov.csv", "4e-13", "2e-07"),
    "occupancy": lambda out: _edit_json(out / "verdict.jsonl", occupancy=0.6),
    "modal_count": lambda out: _edit_json(out / "verdict.jsonl", modal_count=3),
    "verdict_lyapunov": lambda out: _edit_json(out / "verdict.jsonl", lyapunov=0.7),
    "hist_zero": _replace("cardinality_hist.csv", "2,40", "2,0"),
    "hist_sum": _replace("cardinality_hist.csv", "2,40", "2,400"),
}

CASES = {
    "blowup": (write_blowup, BLOWUP, BLOWUP_CORRUPTIONS),
    "analyze": (write_analyze, ANALYZE, ANALYZE_CORRUPTIONS),
    "cocycle": (write_cocycle, COCYCLE, COCYCLE_CORRUPTIONS),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_valid_artifacts_pass(tmp_path, command):
    write, params, _ = CASES[command]
    write(tmp_path)
    assert run_checks(command, tmp_path, params) == []


@pytest.mark.parametrize("command,corruption", [
    (cmd, name) for cmd, (_, _, corr) in sorted(CASES.items()) for name in corr])
def test_corrupted_artifact_fails(tmp_path, command, corruption):
    write, params, corruptions = CASES[command]
    write(tmp_path)
    corruptions[corruption](tmp_path)
    assert run_checks(command, tmp_path, params), f"{command}: {corruption} not caught"


def test_weights_recomputed_independently():
    a, beta, floor = quadratic_weights(8, 4, BLOWUP["epsilon"])
    assert math.isclose(float(beta), 1 - sum((abs(n) + 4) ** -2 for n in range(-8, 9)))
    assert a[0] == Fraction(1, 16) and 0 < floor < 1
