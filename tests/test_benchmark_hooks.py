"""The functions the benchmark's tracer wraps must keep their names.

``perfbench/spans.py`` wraps program functions by module and name; a
renamed function would only show up there as an unmeasured hook.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()
HOOKS = [(module, attr) for _, module, attr in (*_SPANS.SPAN_HOOKS, *_SPANS.COUNT_HOOKS)]


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hooked_function_exists(module, attr):
    assert module.split(".")[0] == "citescreen"
    assert callable(getattr(importlib.import_module(module), attr, None))
