"""Output checks for each workload, computed apart from qpflab.

Each check takes the CLI output directory and the workload parameters and
returns a list of failure messages (empty when the outputs are correct).
Expected values are recomputed here with ``fractions``, or follow from a
property the method must have; nothing here imports qpflab.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

RHO = math.sqrt(2.0) - 1.0


def quadratic_weights(n: int, k: int, epsilon: Fraction):
    """a_n = (|n|+k)^-2 on |n| <= N, beta = 1 - sum a_n, and the density floor."""
    a = {m: Fraction(1, (abs(m) + k) ** 2) for m in range(-n, n + 1)}
    beta = 1 - sum(a.values())
    ratio = max(max(a[m + 1] - a[m], 0) / ((1 - epsilon) * a[m + 1]) for m in range(-n, n))
    return a, beta, 1 - ratio


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]


def _csv(path: Path) -> list:
    with path.open(encoding="ascii", newline="") as fh:
        return list(csv.reader(fh))


def _circle_dist(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def golden_omega() -> float:
    """(sqrt(5)-1)/2 as the nearest double, from a ratio of Fibonacci numbers."""
    a, b = 0, 1
    for _ in range(150):
        a, b = b, a + b
    return a / b


def harper_exponent(energy: float, lam: float, n: int) -> float:
    """(1/n) log ||A(theta_{n-1}) ... A(theta_0)|| (Frobenius) for the almost Mathieu
    cocycle A(theta) = [[E - 2 lam cos(2 pi theta), -1], [1, 0]], theta_0 = 0 and
    theta_{j+1} = theta_j + omega mod 1, renormalized every 8 steps."""
    omega = golden_omega()
    theta = 0.0
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_norm = 0.0
    for step in range(n):
        t = energy - 2.0 * lam * math.cos(2.0 * math.pi * theta)
        a, b, c, d = t * a - c, t * b - d, a, b
        theta = (theta + omega) % 1.0
        if step % 8 == 7 or step == n - 1:
            s = math.sqrt(a * a + b * b + c * c + d * d)
            log_norm += math.log(s)
            a, b, c, d = a / s, b / s, c / s, d / s
    return log_norm / n


def check_blowup(out: Path, p: dict) -> list:
    fails = []
    a, beta, floor = quadratic_weights(p["n"], p["k"], p["epsilon"])
    n, fibers, vertical = p["n"], p["fibers"], p["vertical"]
    (rep,) = _jsonl(out / "report.jsonl")
    if rep["beta"] != float(beta):
        fails.append(f"beta {rep['beta']!r} != recomputed {float(beta)!r}")
    if not rep["min_h"] >= float(floor):
        fails.append(f"min_h {rep['min_h']} below the floor {float(floor)}")
    res_bound = float(a[n] / beta) + 4.0 / vertical
    if not rep["residual"] <= res_bound:
        fails.append(f"residual {rep['residual']} > a_N/beta + 4/vertical = {res_bound}")
    tv = float(a[n] + a[-n])
    if not abs(rep["tv_defect"] - tv) <= 1e-9:
        fails.append(f"tv_defect {rep['tv_defect']} != a_N + a_-N = {tv}")
    if not rep["shifted_residual"] <= 2.0 / vertical:
        fails.append(f"shifted_residual {rep['shifted_residual']} > 2/vertical")
    if rep["annulus_height"] != float(a[0]):
        fails.append(f"annulus_height {rep['annulus_height']} != a_0 = {float(a[0])}")
    comps = rep["atlas_max_components"]
    if sorted(int(m) for m in comps) != list(range(-n, n + 1)):
        fails.append(f"atlas components cover {sorted(comps)}, not the window |n| <= {n}")
    for m, c in comps.items():
        if not 1 <= c <= 2 * abs(int(m)) + 1:
            fails.append(f"atlas U_{m} has {c} components, more than 2|n|+1")
    raw = (out / "nu_cdf.bin").read_bytes()
    header = struct.unpack_from("<QQ", raw, 0)
    if header != (fibers, vertical + 1) or len(raw) != 16 + 16 * fibers * (vertical + 1):
        fails.append(f"nu_cdf.bin header {header}, expected ({fibers}, {vertical + 1})")
    else:
        body = np.frombuffer(raw, dtype="<f8", offset=16).reshape(fibers, 2, vertical + 1)
        knots, values = body[:, 0], body[:, 1]
        if not np.array_equal(knots, np.tile(np.linspace(0.0, 1.0, vertical + 1), (fibers, 1))):
            fails.append("nu_cdf.bin knots are not the uniform vertical grid")
        if np.min(np.diff(values, axis=1)) < -1e-12:
            fails.append("a nu CDF row decreases")
        if np.max(np.abs(values[:, 0])) > 1e-12 or np.max(np.abs(values[:, -1] - 1.0)) > 1e-12:
            fails.append("a nu CDF row does not run from 0 to 1")
        if np.max(np.abs(values - values[0])) > 1e-12:
            fails.append("nu CDF rows differ, but nu is theta-independent here")
    rows = _csv(out / "residual.csv")
    if rows[0] != ["fiber", "residual"] or [int(r[0]) for r in rows[1:]] != list(range(fibers)):
        fails.append("residual.csv does not hold one row per fiber")
    elif max(float(r[1]) for r in rows[1:]) != rep["residual"]:
        fails.append("residual.csv maximum differs from the reported residual")
    return fails


def check_analyze(out: Path, p: dict) -> list:
    fails = []
    a, beta, _ = quadratic_weights(p["n"], p["k"], p["epsilon"])
    n, vertical, bins = p["n"], p["vertical"], p["bins"]
    rot = _csv(out / "rotation.csv")
    if rot[0] != ["n", "estimate", "cauchy_gap"] or len(rot) != 2:
        fails.append("rotation.csv malformed")
    elif not abs(float(rot[1][1]) - RHO) <= 1e-12:
        fails.append(f"base rotation estimate {rot[1][1]} is not sqrt(2)-1")
    devs = _csv(out / "deviations.csv")
    if devs[0] != ["n", "dev", "sup"] or len(devs) < 2:
        fails.append("deviations.csv malformed")
    elif max(abs(float(r[1])) for r in devs[1:]) > 1e-9:
        fails.append("a base deviation |D_n| exceeds 1e-9, but the base is a rigid rotation")
    recs = {r["target"]: r for r in _jsonl(out / "verdict.jsonl")}
    if set(recs) != {"base", "blowup-f", "blowup-f-minimal-set"}:
        return fails + [f"verdict.jsonl targets {sorted(recs)}"]
    f_bound = float(a[n] / beta) + 4.0 / vertical + 2.0 / 512
    if not _circle_dist(recs["blowup-f"]["rho"], RHO) <= f_bound:
        fails.append(f"f rotation {recs['blowup-f']['rho']} further than {f_bound} "
                     "from sqrt(2)-1")
    ms = recs["blowup-f-minimal-set"]
    if not ms["max_fiber_measure"] <= float(beta) + 2.0 / bins:
        fails.append(f"max fiber measure {ms['max_fiber_measure']} > beta + 2/bins")
    if not ms["c_min"] >= 1:
        fails.append(f"c_min {ms['c_min']} < 1")
    lines = (out / "fiberset.rle.txt").read_text(encoding="ascii").splitlines()
    if lines[0] != f"# resolution={bins}" or len(lines) != bins + 1:
        return fails + ["fiberset.rle.txt does not hold one line per bin row"]
    occupancy = []
    for i, line in enumerate(lines[1:]):
        head, _, body = line.partition(":")
        covered = 0
        end = 0
        for token in body.split():
            start, _, length = token.partition("+")
            start, length = int(start), int(length)
            if start < end or length < 1 or start + length > bins:
                fails.append(f"fiberset row {i}: run {token} out of order or range")
            covered += length
            end = start + length
        if int(head) != i:
            fails.append(f"fiberset row {i} is labelled {head}")
        occupancy.append(covered / bins)
    if max(occupancy) != ms["max_fiber_measure"]:
        fails.append(f"fiberset occupancy {max(occupancy)} != max_fiber_measure "
                     f"{ms['max_fiber_measure']}")
    return fails


def check_cocycle(out: Path, p: dict) -> list:
    fails = []
    lyap = _csv(out / "lyapunov.csv")
    if lyap[0] != ["n", "value", "det_drift"] or len(lyap) != 2:
        return ["lyapunov.csv malformed"]
    steps, value, drift = int(lyap[1][0]), float(lyap[1][1]), float(lyap[1][2])
    if not value >= math.log(p["lam"]) - 1e-3:
        fails.append(f"lyapunov {value} below Herman's bound log(lambda)")
    expected = harper_exponent(p["energy"], p["lam"], steps)
    if not abs(value - expected) <= 1e-9:
        fails.append(f"lyapunov {value} over {steps} steps != recomputed {expected}")
    # lyapunov() leaves every block of norm >= 1e6 out of det_drift, which on this
    # cocycle is every full block, so this bound rarely has anything to test
    if not drift <= 1e-9:
        fails.append(f"det drift {drift} over {steps} steps exceeds 1e-9")
    (rec,) = _jsonl(out / "verdict.jsonl")
    if not rec["occupancy"] < 0.5:
        fails.append(f"occupancy {rec['occupancy']} >= 1/2")
    if rec["modal_count"] not in (1, 2):
        fails.append(f"modal count {rec['modal_count']} outside the dichotomy {{1, 2}}")
    if rec["lyapunov"] != value:
        fails.append("verdict lyapunov differs from lyapunov.csv")
    hist = _csv(out / "cardinality_hist.csv")
    counts = [int(r[1]) for r in hist[1:]]
    if hist[0] != ["clusters", "fibers"] or not counts:
        fails.append("cardinality_hist.csv malformed or empty")
    elif min(counts) < 1 or sum(counts) > p["fiber_samples"]:
        fails.append(f"histogram counts {counts} not positive or above "
                     f"{p['fiber_samples']} sampled fibers")
    return fails


CHECKS = {"blowup": check_blowup, "analyze": check_analyze, "cocycle": check_cocycle}


def run_checks(command: str, out: Path, params: dict) -> list:
    """Failure messages; a missing or unreadable artifact is a failure too."""
    try:
        return CHECKS[command](out, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def digests(out: Path) -> dict:
    """SHA-256 of each data artifact (run.log holds wall-clock time and is left out)."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.is_file() and f.name != "run.log"}
