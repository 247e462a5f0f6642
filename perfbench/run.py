"""qpflab end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is taken from the ``src/`` directory beside ``perfbench/`` in the
same checkout, not from an installed copy.  Each operation is one ``qpflab``
CLI invocation in a fresh child process, followed by the workload's output
checks.  Operations repeat while the next one is expected to end within S
seconds (at least one runs); every run attempts whole operations.

--trace 0  prints the end-to-end metrics: median ``wall_s`` (main() entry to
           exit), median ``peak_rss_mb`` (ru_maxrss of the waited child) and
           ``setup_s`` (median of 11 fresh interpreter starts that import
           qpflab.cli and load the manifest, spread between the operations).
--trace 1  alternates untraced and traced operations and prints the
           per-layer metrics (medians over the traced ones), the tracing
           overhead, and a table of each metric's spread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import digests, run_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_STARTS = 11
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    # drop PYTHONPATH and the like, so that qpflab comes from SRC and nowhere else
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV)
    return env


def spawn(args: list) -> tuple[int, float, float]:
    """Run a child to completion: exit code, wall seconds, peak RSS in MB."""
    errlog = WORK / "child.stderr"
    with errlog.open("wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    lines = errlog.read_text(errors="replace").strip().splitlines()
    if code != 0 and lines:
        print(lines[-1], file=sys.stderr)
    return code, wall, usage.ru_maxrss / 1024.0


def setup_start(manifest: Path, command: str) -> float:
    """One fresh start that imports qpflab.cli and loads the manifest."""
    code, wall, _ = spawn([str(SRC), os.devnull, "--setup-only", "--",
                           command, "--manifest", str(manifest)])
    if code != 0:
        raise SystemExit(f"set-up start failed with exit code {code}")
    return wall


def run_op(spec: dict, manifest: Path, index: int, traced: bool) -> dict:
    """One CLI invocation plus its output checks."""
    out = WORK / f"out{index}"
    if out.exists():
        shutil.rmtree(out)
    result = WORK / f"result{index}.json"
    result.unlink(missing_ok=True)
    args = [str(SRC), str(result), *(["--trace"] if traced else []), "--",
            spec["command"], "--manifest", str(manifest), "--out", str(out)]
    code, _, rss = spawn(args)
    op = {"traced": traced, "failed": True, "rss_mb": rss, "check_failures": []}
    if code != 0 or not result.exists():
        return op
    record = json.loads(result.read_text(encoding="ascii"))
    if record["exit"] != 0:
        return op
    op.update(failed=False, wall_s=record["wall_s"], layers=record.get("layers"))
    op["check_failures"] = run_checks(spec["command"], out, spec["params"])
    op["digests"] = digests(out)
    return op


def quartile_spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qpflab" / "cli.py").is_file():
        print(f"no qpflab source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    spec = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    manifest = WORK / f"{args.workload}.ini"
    manifest.write_text(spec["manifest"], encoding="ascii")
    # set-up starts are spread over the run, so that they meet the same
    # host speed as the operations rather than one moment of it
    setup_times = []
    if not args.trace:
        setup_start(manifest, spec["command"])  # warm-up: byte-compiles a fresh checkout

    ops = []
    rounds = 0
    start = perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            op = run_op(spec, manifest, len(ops), traced)
            ops.append(op)
            status = "FAILED" if op["failed"] else (
                "checks failed: " + "; ".join(op["check_failures"])
                if op["check_failures"] else "ok")
            wall = f"{op['wall_s']:.4f}" if "wall_s" in op else "-"
            print(f"op {len(ops) - 1} traced={int(traced)} wall_s={wall} "
                  f"rss_mb={op['rss_mb']:.1f} {status}")
        rounds += 1
        while not args.trace and len(setup_times) < SETUP_STARTS * min(
                1.0, (perf_counter() - start) / args.seconds):
            setup_times.append(setup_start(manifest, spec["command"]))
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:  # the next round would overrun
            break
    while not args.trace and len(setup_times) < SETUP_STARTS:
        setup_times.append(setup_start(manifest, spec["command"]))
    for name, digest in ops[0].get("digests", {}).items():
        print(f"sha256 {digest} {name}")

    done = [op for op in ops if not op["failed"]]
    correct = all(not op["check_failures"] for op in done)
    failed = len(ops) - len(done)
    untraced = [op["wall_s"] for op in done if not op["traced"]]
    metrics = {}
    if args.trace:
        traced_ops = [op for op in done if op["traced"]]
        for name in (traced_ops[0]["layers"] if traced_ops else {}):
            values = [op["layers"][name] for op in traced_ops]
            metrics[name] = {"value": statistics.median(values), "unit": units[name]}
            print(f"layer {name} median={statistics.median(values):.6g} "
                  f"spread={quartile_spread(values):.4f} n={len(values)}")
        if traced_ops and untraced:
            overhead = (statistics.median(op["wall_s"] for op in traced_ops)
                        - statistics.median(untraced))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    else:
        if untraced:
            metrics["wall_s"] = {"value": statistics.median(untraced), "unit": units["wall_s"]}
            metrics["peak_rss_mb"] = {"value": statistics.median(op["rss_mb"] for op in done),
                                      "unit": units["peak_rss_mb"]}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": units["setup_s"]}
    print(json.dumps({"correct": correct and bool(done), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
