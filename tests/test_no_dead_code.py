"""Every function, class and method of qpflab is used by qpflab itself.

A definition counts as used when its name occurs in ``src/qpflab`` outside
its own definition, as a name or as an attribute.  An attribute ``C.name``
read on a class ``C`` of the package counts only for a method ``name`` of
``C``, not for a definition of that name elsewhere.  Dunder methods are
exempt, and so are the names that ``perfbench/tracer.py`` wraps (its
``SPANS``, loaded by path as ``test_trace_spans.py`` loads them) and the
short list below.

Likewise every defaulted parameter of qpflab is passed by some call in
``src/qpflab`` or ``tests``: a value nothing sets is a module constant.  A
parameter counts as passed when a call names it as a keyword, or passes it
by position to a callable of the function's name, resolved as above (a call
``C(...)`` reaches ``C.__init__``).
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpflab"
TESTS = ROOT / "tests"
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

# defaulted parameters kept with no caller setting them: default_pipeline's fixture knobs
KNOBS = {"default_pipeline." + name for name in ("k", "epsilon", "curve_value", "crossings", "seed")}


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


def _parse(*dirs) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _callee(func, classes):
    """(name, class it is read on or None) of a call's function, or None."""
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        on = func.value.id if isinstance(func.value, ast.Name) else None
        return func.attr, on if on in classes else None
    return None


def unpassed_defaults(src: Path = SRC, callers=(TESTS,), exempt=KNOBS) -> list:
    """'file:line name(parameter)' of each defaulted parameter in src that no call passes.

    The calls are those in src and in the callers' directories; exempt
    holds 'name.parameter' entries.
    """
    trees = _parse(src)
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    params = []             # (file, line, name, owner, parameter, position or None)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        item.owner = node.name
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = getattr(node, "owner", None)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner and not static else 0         # self or cls
            args = node.args.posonlyargs + node.args.args
            name = owner if node.name == "__init__" else node.name
            first = len(args) - len(node.args.defaults)
            for i, arg in enumerate(args[first:], first):
                params.append((path.name, node.lineno, name, owner, arg.arg, i - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    params.append((path.name, node.lineno, name, owner, arg.arg, None))
    named, reach = set(), {}    # (name, class or None, keyword); (name, class or None) -> positions
    for tree in list(trees.values()) + list(_parse(*callers).values()):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            key = _callee(node.func, classes)
            if key is not None:
                named.update((*key, kw.arg) for kw in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                n = float("inf") if starred else len(node.args)
                reach[key] = max(reach.get(key, 0), n)
    out = []
    for file, line, name, owner, param, pos in params:
        keys = [(name, None)] + ([(name, owner)] if owner else [])
        if f"{name}.{param}" in exempt or any((*key, param) in named for key in keys):
            continue
        if pos is None or pos >= max(reach.get(key, 0) for key in keys):
            out.append(f"{file}:{line} {name}({param})")
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unpassed_defaults() == []


def test_a_default_nothing_passes_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, size=1, depth=2):\n"
        "        self.size = size\n"
        "\n"
        "    def grow(self, by=1, limit=9):\n"
        "        return by\n"
        "\n"
        "def read(path, mode='r', tries=3):\n"
        "    return path\n"
        "\n"
        "Box(4).grow(limit=5)\n"
        "read('p', 'rb')\n", encoding="utf-8")
    unpassed = sorted(unpassed_defaults(tmp_path, callers=(), exempt=set()))
    assert unpassed == ["mod.py:2 Box(depth)", "mod.py:5 grow(by)", "mod.py:8 read(tries)"]


# the shared signature of the CLI's command handlers, whatever each one reads of it
HANDLER_PARAMETERS = ("manifest", "out", "emit_svg")


def unread_parameters(src: Path = SRC) -> list:
    """'file:line name(parameter)' of each parameter of a src function that its body never reads.

    A parameter is read when its name is loaded anywhere in the body, nested
    functions included.  The first parameter of a method (self or cls) is
    exempt, and so are dunder methods and the handler parameters of cmd_*.
    """
    out = []
    for path, tree in _parse(src).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        item.method = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                              for d in item.decorator_list)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            if getattr(node, "method", False):
                params = params[1:]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{path.name}:{node.lineno} {node.name}({p.arg})" for p in params
                    if p.arg not in read
                    and not (node.name.startswith("cmd_") and p.arg in HANDLER_PARAMETERS)]
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_an_unread_parameter_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def grow(self, by, limit):\n"
        "        return by\n"
        "\n"
        "    @staticmethod\n"
        "    def make(size):\n"
        "        return Box()\n"
        "\n"
        "def read(path, mode, *rest):\n"
        "    mode = 'r'\n"
        "    def inner():\n"
        "        return path\n"
        "    return inner, mode\n"
        "\n"
        "def cmd_run(manifest, out, emit_svg, grid):\n"
        "    return manifest\n", encoding="utf-8")
    unread = sorted(unread_parameters(tmp_path))
    assert unread == ["mod.py:15 cmd_run(grid)", "mod.py:2 grow(limit)", "mod.py:6 make(size)",
                      "mod.py:9 read(rest)"]
