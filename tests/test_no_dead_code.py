"""Every function, class and method of qpflab is used by qpflab itself.

A definition counts as used when its name occurs in ``src/qpflab`` outside
its own definition, as a name or as an attribute.  An attribute ``C.name``
read on a class ``C`` of the package counts only for a method ``name`` of
``C``, not for a definition of that name elsewhere.  Dunder methods are
exempt, and so are the names that ``perfbench/tracer.py`` wraps (its
``SPANS``, loaded by path as ``test_trace_spans.py`` loads them) and the
short list below.
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


def unused_definitions(src: Path = SRC, exempt=None) -> list:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    defs, refs = [], {}             # refs: name -> [(file, line, class read on or None)]
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        item.owner = node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((file, node.name, node.lineno, node.end_lineno,
                             getattr(node, "owner", None)))
            elif isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((file, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                on = node.value.id if isinstance(node.value, ast.Name) else None
                refs.setdefault(node.attr, []).append(
                    (file, node.lineno, on if on in classes else None))
    if exempt is None:
        exempt = KEPT | traced_names()
    return [f"{file}:{lo} {name}" for file, name, lo, hi, owner in defs
            if not (name.startswith("__") and name.endswith("__")) and name not in exempt
            and all((f == file and lo <= line <= hi) or on not in (None, owner)
                    for f, line, on in refs.get(name, []))]


def test_every_definition_has_a_caller_in_src():
    assert unused_definitions() == []


def test_a_read_on_another_class_is_no_use(tmp_path):
    # Hub.build and the function build share a name; only Spoke.build is read
    (tmp_path / "mod.py").write_text(
        "class Hub:\n"
        "    def build(self):\n"
        "        return 1\n"
        "\n"
        "class Spoke:\n"
        "    def build(self):\n"
        "        return Hub()\n"
        "\n"
        "def build():\n"
        "    return 2\n"
        "\n"
        "def main():\n"
        "    return Spoke.build(Spoke())\n"
        "\n"
        "main()\n", encoding="utf-8")
    unused = sorted(unused_definitions(tmp_path, exempt=set()))
    assert unused == ["mod.py:2 build", "mod.py:9 build"]
