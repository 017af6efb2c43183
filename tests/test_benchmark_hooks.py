"""The functions the benchmark's tracer wraps must keep their names.

``perfbench/spans.py`` wraps program functions by module and name; a
renamed function would only show up there as an unmeasured hook, and a
changed argument or result shape only as a note error.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_traced_pipeline_run_records_every_note(fixture_corpus_dir, gold_path,
                                                tmp_path):
    """Every hook is called, and every span note reads its arguments and
    result without an error; a hooked function left defined but no longer
    called would read 0 in the per-layer metrics."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spans\n"
        "from citescreen import cli\n"
        "tracer = spans.Tracer(); tracer.install()\n"
        "try:\n"
        "    cli.main(args=sys.argv[4:], prog_name='citescreen')\n"
        "finally:\n"
        "    tracer.dump(sys.argv[3])\n"
    )
    trace_path = tmp_path / "trace.json"
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(SPANS_PATH.parent),
         str(trace_path), "--fixture-dir", str(fixture_corpus_dir),
         "pipeline", str(gold_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["note_errors"] == {}
    assert trace["unmeasured"] == []
    spanned = {span[0] for span in trace["spans"]}
    counters = trace["counters"]
    assert [name for name, _, _ in _SPANS.SPAN_HOOKS if name not in spanned] == []
    assert [name for name, _, _ in _SPANS.COUNT_HOOKS if counters.get(name, 0) < 1] == []
    screened = sum(span[0] == "screen.screen_citation" for span in trace["spans"])
    decided = counters.get("screen.rejected", 0) + sum(
        counters.get(f"screen.accepted_c{k}", 0) for k in range(1, 5)
    )
    assert screened > 0
    assert decided == screened
    assert trace["distinct"]["extract.pmids"] > 0
