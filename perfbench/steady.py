"""Steadiness check: two sets of benchmark runs, taken apart in time.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --trace

Each set runs every workload RUNS times, each run with its own seed (set one
uses seeds 1..RUNS, set two the next RUNS seeds), with the run length from
BENCHMARK.json; the second set starts GAP_S seconds after the first ends.
For each end-to-end metric it prints the median, the quartiles and the
quartile spread (q3 - q1) / median of each set, and checks that

- every spread stays within the metric's bound,
- the two medians differ, in either direction, by at most the bound as a
  share of the first,
- the share of failed operations is the same in both sets.

With ``--trace`` it makes one traced run per workload instead and prints the
per-layer medians and their spread over the traced operations.  Raw results
go to ``.perfbench/steady-*.json``.  Exit code 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
GAP_S = 120


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def run_sets(spec: dict, workloads: list) -> list:
    sets = []
    for k in range(2):
        if k:
            time.sleep(GAP_S)
        results = {}
        for w in workloads:
            results[w] = []
            for i in range(RUNS):
                seed = k * RUNS + i + 1
                res, _ = bench_run(spec, w, seed, 0)
                results[w].append(res)
                print(f"set {k + 1} {w} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4f}" for m, v in res["metrics"].items())
                    + f" attempted={res['attempted']} failed={res['failed']}"
                    + ("" if res["correct"] else " INCORRECT"), flush=True)
        sets.append(results)
    return sets


def compare(spec: dict, sets: list, workloads: list) -> bool:
    ok = True
    print("\n| workload | metric | set | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        shares = []
        for k, results in enumerate(sets):
            att = sum(r["attempted"] for r in results[w])
            shares.append((sum(r["failed"] for r in results[w]), att))
            if not all(r["correct"] for r in results[w]):
                print(f"FAIL {w}: set {k + 1} has incorrect outputs")
                ok = False
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print(f"FAIL {w}: failed shares differ {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results[w]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = quartile_spread(values)
                medians.append(q2)
                print(f"| {w} | {name} | {k + 1} | {q2:.4f} | {q1:.4f} | {q3:.4f} | "
                      f"{spread:.3f} | {bound} |")
                if spread > bound:
                    print(f"FAIL {w} {name}: set {k + 1} spread {spread:.3f} > {bound}")
                    ok = False
            moved = (medians[1] - medians[0]) / medians[0]
            if abs(moved) > bound:
                print(f"FAIL {w} {name}: second median moved by {moved:+.3f}, "
                      f"more than {bound}")
                ok = False
    return ok


def trace_runs(spec: dict, workloads: list) -> None:
    for w in workloads:
        res, lines = bench_run(spec, w, 1, 1)
        print(f"\n{w}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        print("| metric | median | spread |")
        print("| --- | --- | --- |")
        spreads = {ln.split()[1]: ln.split()[3].split("=")[1]
                   for ln in lines if ln.startswith("layer ")}
        for name, m in res["metrics"].items():
            print(f"| {name} | {m['value']:.6g} {m['unit']} | {spreads.get(name, '-')} |")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.trace:
        trace_runs(spec, workloads)
        return 0
    sets = run_sets(spec, workloads)
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    ok = compare(spec, sets, workloads)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
