import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import settings

from citescreen.pipeline import Resources, load_resources

FIXTURES = Path(__file__).parent / "fixtures"
STUB_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "stub.py"

# Hypothesis's per-example deadline is wall-clock time, so a stall of the
# host (a 0.4 s SIGSTOP does it) fails whichever property runs then;
# no property here is a timing test.  Loaded before any test module, so
# ``@settings`` without a deadline inherit it.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, description): groups a test under one acceptance "
        "criterion; the terminal summary prints one pass/fail line per "
        "criterion",
    )
    config._acceptance_meta = {}
    config._acceptance_outcomes = defaultdict(lambda: defaultdict(int))


def pytest_collection_modifyitems(config, items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker:
            num, description = marker.args
            config._acceptance_meta[item.nodeid] = num
            config._acceptance_meta.setdefault(("desc", num), description)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    num = item.config._acceptance_meta.get(item.nodeid)
    if num is None or report.when != "call":
        return
    bucket = item.config._acceptance_outcomes[num]
    if hasattr(report, "wasxfail"):
        bucket["xfailed" if report.skipped else "failed"] += 1
    elif report.passed:
        bucket["passed"] += 1
    elif report.failed:
        bucket["failed"] += 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = config._acceptance_outcomes
    if not outcomes:
        return
    write = terminalreporter.write_line
    write("")
    write("acceptance criteria:")
    for num in sorted(outcomes):
        counts = outcomes[num]
        description = config._acceptance_meta[("desc", num)]
        parts = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        if counts.get("failed"):
            status = "FAIL"
        elif counts.get("xfailed"):
            status = ("FAIL (expected: known-unreproducible cases, "
                      "see notes/decisions.md)")
        else:
            status = "PASS"
        write(f"  criterion {num}: {status} — {description} [{parts}]")


@pytest.fixture(scope="session")
def fixture_corpus_dir() -> Path:
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def gold_path() -> Path:
    return FIXTURES / "gold.tsv"


@pytest.fixture(scope="session")
def expected_dir() -> Path:
    return FIXTURES / "expected"


@pytest.fixture(scope="session")
def resources(fixture_corpus_dir) -> Resources:
    return load_resources(None, str(fixture_corpus_dir))


@pytest.fixture(scope="session")
def stub():
    """``perfbench/stub.py``, the benchmark's local E-utilities server."""
    spec = importlib.util.spec_from_file_location("perfbench_stub", STUB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
