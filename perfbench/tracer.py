"""Span tracer for one qpflab CLI invocation, installed from outside the package.

``Tracer.install()`` wraps the public functions of each qpflab module (plus the
uncached per-fiber builders behind the lru caches, which is where fibers are
counted) and rebinds every name that another qpflab module imported with
``from .x import y``, so calls made through ``qpflab.cli`` and
``qpflab.pipeline`` are seen too.  Spans (name, start, end, parent) stay in
memory; ``Tracer.layer_metrics()`` turns them into the per-layer metrics once the
command has returned.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

# (module, attribute or Class.method, span name); manifest.load, weights.make and
# pipeline.run_blowup carry no metric of their own but count toward trace.coverage
SPANS = [
    ("manifest", "load_manifest", "manifest.load"),
    ("weights", "make_weights", "weights.make"),
    ("measure", "MeasureFamily._fiber_uncached", "measure.mu_fiber"),
    ("measure", "build_fiber_projection", "measure.pi_fiber"),
    ("atlas", "PartitionAtlas._fiber_uncached", "atlas.fiber"),
    ("atlas", "audit_atlas", "atlas.audit"),
    ("density", "BumpFamily._fiber_uncached", "density.bumps_fiber"),
    ("density", "DensityField._fiber_uncached", "density.h_fiber"),
    ("density", "DensityField.fiber", "density.fiber_request"),
    ("density", "audit_density", "density.audit"),
    ("transport", "TransportedMap.fiber_values", "transport.f_values"),
    ("transport", "verify_semiconjugacy", "transport.semiconjugacy"),
    ("transport", "verify_nonminimality", "transport.nonminimality"),
    ("systems", "QpfSystem.sample", "systems.sample"),
    ("systems", "rotation_number", "systems.rotation"),
    ("systems", "deviations", "systems.deviations"),
    ("systems", "classify_rho_boundedness", "systems.classify"),
    ("surgery", "ensure_crossing", "surgery.crossing"),
    ("surgery", "flatten_to_depth", "surgery.flatten"),
    ("surgery", "apply_perturbation", "surgery.perturbation"),
    ("geometry", "image_curve", "geometry.image_curve"),
    ("pipeline", "run_blowup", "pipeline.run_blowup"),
    ("minimal", "minimal_set_via_projection", "minimal.projection_lift"),
    ("minimal", "approximate_minimal_set", "minimal.orbit"),
    ("minimal", "fiber_component_count", "minimal.diagnostics"),
    ("minimal", "structure_diagnostics", "minimal.diagnostics"),
    ("minimal", "invariance_defect", "minimal.diagnostics"),
    ("sl2", "lyapunov", "sl2.lyapunov"),
    ("sl2", "minimal_fiber_cardinality", "sl2.cardinality"),
    ("artifacts", "write_curve", "artifacts.write"),
    ("artifacts", "write_jsonl", "artifacts.write"),
    ("artifacts", "write_csv", "artifacts.write"),
    ("artifacts", "write_cdf_tables", "artifacts.write"),
    ("artifacts", "write_rle", "artifacts.write"),
]

# span name -> the arguments whose values give the work done by one call
WORK_ARGS = {
    "minimal.projection_lift": ("iters",),
    "minimal.orbit": ("burnin", "iters"),
    "sl2.lyapunov": ("n",),
}


class Tracer:
    """Spans and counters of one process; ``install()`` makes qpflab report to it."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index or -1)
        self.stack: list = []
        self.work: dict = {}        # span name -> summed work arguments
        self.counts = {"systems.lift_steps": 0, "artifacts.bytes": 0}

    def _span_wrapper(self, fn, name):
        sig = inspect.signature(fn) if name in WORK_ARGS or name == "artifacts.write" else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if sig is not None:
                    self._record_work(name, sig.bind(*args, **kwargs))

        return wrapper

    def _record_work(self, name, bound) -> None:
        bound.apply_defaults()
        if name == "artifacts.write":
            path = bound.arguments["path"]
            if os.path.exists(path):
                self.counts["artifacts.bytes"] += os.path.getsize(path)
        else:
            self.work[name] = self.work.get(name, 0) + sum(
                int(bound.arguments[a]) for a in WORK_ARGS[name])

    def _counter_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable; call before ``qpflab.cli.main`` runs."""
        replaced = {}
        for mod_name, attr, span in SPANS:
            mod = importlib.import_module(f"qpflab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._span_wrapper(cls.__dict__[meth], span))
            else:
                orig = getattr(mod, attr)
                replaced[id(orig)] = (orig, self._span_wrapper(orig, span))
        systems = importlib.import_module("qpflab.systems")
        systems.Lift.value = self._counter_wrapper(systems.Lift.value, "systems.lift_steps")
        importlib.import_module("qpflab.cli")
        for name, mod in list(sys.modules.items()):
            if name == "qpflab" or name.startswith("qpflab."):
                for key, val in list(vars(mod).items()):
                    orig, wrapped = replaced.get(id(val), (None, None))
                    if orig is val:
                        setattr(mod, key, wrapped)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced command; untouched layers read 0."""
        return layer_metrics(self.spans, self.work, self.counts, wall_s)


def _aggregate(spans):
    """Per name: call count, self seconds, and inclusive seconds of the outermost calls."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st[2] += t1 - t0
    top = sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
    return stats, top


def layer_metrics(spans: list, work: dict, counts: dict, wall_s: float) -> dict:
    stats, top = _aggregate([s for s in spans if s is not None])

    def count(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def incl_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    lift_work = work.get("minimal.projection_lift", 0)
    orbit_work = work.get("minimal.orbit", 0)
    lyap_work = work.get("sl2.lyapunov", 0)
    return {
        "measure.mu_fiber_ms": per(self_s("measure.mu_fiber"), count("measure.mu_fiber"), 1e3),
        "measure.pi_fiber_ms": per(self_s("measure.pi_fiber"), count("measure.pi_fiber"), 1e3),
        "measure.fibers_built": count("measure.mu_fiber"),
        "atlas.fiber_ms": per(self_s("atlas.fiber"), count("atlas.fiber"), 1e3),
        "atlas.fibers_built": count("atlas.fiber"),
        "atlas.audit_s": incl_s("atlas.audit"),
        "density.bumps_fiber_ms": per(self_s("density.bumps_fiber"),
                                      count("density.bumps_fiber"), 1e3),
        "density.h_fiber_ms": per(self_s("density.h_fiber"), count("density.h_fiber"), 1e3),
        "density.fibers_built": count("density.h_fiber"),
        "density.fiber_requests": count("density.fiber_request"),
        "density.audit_s": incl_s("density.audit"),
        "transport.f_values_ms": per(self_s("transport.f_values"),
                                     count("transport.f_values"), 1e3),
        "transport.semiconjugacy_s": incl_s("transport.semiconjugacy"),
        "transport.nonminimality_s": incl_s("transport.nonminimality"),
        "systems.sample_s": self_s("systems.sample"),
        "systems.rotation_s": self_s("systems.rotation"),
        "systems.deviations_s": self_s("systems.deviations") + self_s("systems.classify"),
        "systems.lift_steps": counts["systems.lift_steps"],
        "surgery.crossing_s": incl_s("surgery.crossing"),
        "surgery.flatten_s": incl_s("surgery.flatten"),
        "surgery.perturbations_applied": count("surgery.perturbation"),
        "geometry.image_curve_s": incl_s("geometry.image_curve"),
        "geometry.image_curves": count("geometry.image_curve"),
        "minimal.projection_lift_s": incl_s("minimal.projection_lift"),
        "minimal.projection_lift_ns_per_sample": per(self_s("minimal.projection_lift"),
                                                     lift_work, 1e9),
        "minimal.orbit_s": self_s("minimal.orbit"),
        "minimal.orbit_us_per_step": per(self_s("minimal.orbit"), orbit_work, 1e6),
        "minimal.diagnostics_s": incl_s("minimal.diagnostics"),
        "sl2.lyapunov_s": incl_s("sl2.lyapunov"),
        "sl2.lyapunov_us_per_step": per(incl_s("sl2.lyapunov"), lyap_work, 1e6),
        "sl2.cardinality_s": self_s("sl2.cardinality"),
        "artifacts.write_s": incl_s("artifacts.write"),
        "artifacts.bytes": counts["artifacts.bytes"],
        "cli.other_s": wall_s - top,
        "trace.coverage": top / wall_s,
    }
