"""The benchmark's workloads: one qpflab command and a manifest made from the seed.

The seed picks the constant initial curve of the two blowup workloads (a
vertical shift, which commutes with the translation base, so the work per
run does not depend on it) and the orbit seed of the cocycle workload.  The
crossing search of ``analyze-crossed`` keeps its own fixed seed: the search
time differs by a factor of ten between seeds that succeed, and seeds 2, 6
and 7 fail (see README.md).
"""

from __future__ import annotations

from fractions import Fraction

# constant initial curves j/997; the seed picks one of them
CURVE_VALUES = tuple(Fraction(j, 997) for j in
                     (199, 61, 137, 262, 331, 419, 503, 587,
                      659, 743, 811, 883, 947, 29, 97, 373))

CROSSING_SEED = 3


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def blowup_plain(seed: int) -> dict:
    params = {"n": 8, "k": 4, "epsilon": Fraction(1, 2), "fibers": 256, "vertical": 256,
              "curve": CURVE_VALUES[seed % len(CURVE_VALUES)]}
    manifest = _ini({
        "base": {"kind": "translation", "omega": "golden", "rho": "sqrt2m1"},
        "curve": {"kind": "constant", "value": params["curve"]},
        "weights": {"mode": "quadratic", "k": params["k"], "n": params["n"],
                    "epsilon": params["epsilon"]},
        "grids": {"fibers": params["fibers"], "vertical": params["vertical"], "bins": 256},
        "run": {"seed": seed, "crossings": 0},
    })
    return {"command": "blowup", "manifest": manifest, "params": params}


def analyze_crossed(seed: int) -> dict:
    params = {"n": 4, "k": 4, "epsilon": Fraction(1, 2), "fibers": 256, "vertical": 256,
              "bins": 1024, "iters": 2 * 10**6,
              "curve": CURVE_VALUES[seed % len(CURVE_VALUES)]}
    manifest = _ini({
        "base": {"kind": "translation", "omega": "golden", "rho": "sqrt2m1"},
        "curve": {"kind": "constant", "value": params["curve"]},
        "weights": {"mode": "quadratic", "k": params["k"], "n": params["n"],
                    "epsilon": params["epsilon"]},
        "grids": {"fibers": params["fibers"], "vertical": params["vertical"],
                  "bins": params["bins"]},
        "run": {"seed": CROSSING_SEED, "crossings": 2, "iters": params["iters"],
                "burnin": 1000},
    })
    return {"command": "analyze", "manifest": manifest, "params": params}


def cocycle_harper(seed: int) -> dict:
    params = {"energy": 0.0, "lam": 2.0, "fibers": 512, "iters": 10**6, "fiber_samples": 256}
    manifest = _ini({
        "base": {"omega": "golden"},
        "grids": {"fibers": params["fibers"], "vertical": 512, "bins": 512},
        "run": {"seed": seed, "iters": params["iters"], "burnin": 10**4},
        "cocycle": {"family": "harper", "energy": params["energy"], "lam": params["lam"]},
    })
    return {"command": "cocycle", "manifest": manifest, "params": params}


WORKLOADS = {
    "blowup-plain": blowup_plain,
    "analyze-crossed": analyze_crossed,
    "cocycle-harper": cocycle_harper,
}
