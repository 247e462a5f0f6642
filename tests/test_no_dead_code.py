"""Every function, class and method of qpflab is used by qpflab itself.

A definition counts as used when its name occurs in ``src/qpflab`` outside
its own definition, as a name or as an attribute.  Dunder methods are exempt,
and so are the names that ``perfbench/tracer.py`` wraps (its ``SPANS``, loaded
by path as ``test_trace_spans.py`` loads them) and the short list below.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpflab"
TRACER = ROOT / "perfbench" / "tracer.py"

# kept with no caller in src: the tests' oracles and the artifact readers
KEPT = {
    "graphs_equal_off", "is_flat_intersection", "verify_x_law",   # curve surgery oracles
    "kolmogorov_distance",              # the pushforward check of pi
    "norm",                             # Mat2's norm, for the Lyapunov reference
    "measure",                          # CircIntervalSet's, for the interval-set tests
    "read_cdf_tables", "from_rle_lines",                          # artifact readers
    "default_pipeline",                 # the spec-default stack of the test fixtures
}


def traced_names() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr.split(".")[-1] for _, attr, _ in module.SPANS}


def unused_definitions() -> list:
    defs, refs = [], {}             # refs: name -> [(file, line)]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path.name, node.lineno))
    exempt = KEPT | traced_names()
    return [f"{file}:{lo} {name}" for file, name, lo, hi in defs
            if not (name.startswith("__") and name.endswith("__")) and name not in exempt
            and all(f == file and lo <= line <= hi for f, line in refs.get(name, []))]


def test_every_definition_has_a_caller_in_src():
    assert unused_definitions() == []
