"""Run the ``citescreen`` command line in the test process.

A plain function rather than a fixture, so that Hypothesis tests, which
run many examples per fixture, can call it too.
"""

import contextlib
import io
from dataclasses import dataclass

from citescreen.cli import main


@dataclass
class CliResult:
    exit_code: int
    #: stdout and stderr interleaved in the order they were written
    output: str
    #: the exception other than ``SystemExit`` that ended the run, if any
    exception: Exception | None


def run_cli(args) -> CliResult:
    """``main(args=args, prog_name="citescreen")`` with stdout and stderr
    captured; ``main`` must end in ``SystemExit``, as the console script
    and the benchmark child rely on."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(args=args, prog_name="citescreen")
        except SystemExit as exc:
            return CliResult(exc.code, output.getvalue(), None)
        except Exception as exc:  # kept for the test to raise or inspect
            return CliResult(1, output.getvalue(), exc)
    raise AssertionError("main returned instead of raising SystemExit")
