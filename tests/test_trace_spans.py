"""The benchmark's span tracer names qpflab callables; each name must resolve.

``perfbench/tracer.py`` is loaded by path and only read: a renamed function
or method would otherwise surface as a KeyError in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module, attr, span", load_spans())
def test_span_target_resolves(module, attr, span):
    mod = importlib.import_module(f"qpflab.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), span
    else:
        assert callable(getattr(mod, attr)), span
