"""Line ledger: which lines and functions under ``src/repro`` does a
pytest run never execute?

    PYTHONPATH=src python tests/ledger.py [--json] [pytest args]

The script installs ``sys.settrace`` and ``threading.settrace`` (so
reactor workers and every other thread the suite starts are traced),
runs ``pytest.main`` with the remaining arguments, and prints:

- executable lines, missed lines and the missed share, where the
  executable lines of a module are the union of ``co_lines()`` over all
  of its code objects;
- the files with the most missed lines;
- every function never entered -- no line of its body after
  ``co_firstlineno`` ran -- with its line span.

``--json`` prints the same report as one JSON document on stdout and
sends pytest's own output to stderr.  The exit status is pytest's.

The figures are an upper bound on what the suite leaves unexecuted:
code that runs only in a child process (``tests/test_examples.py``,
``tests/test_reactor_parity.py``, the ``spawn`` child of
``tests/test_ros_shmros.py``) is not traced.  pytest does not collect
this file, since it matches neither ``test_*.py`` nor ``bench_*.py``.
Tracing every line costs about 1.3x the suite's wall time and 1.7x its
CPU time (measured on a 2-CPU host).
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

TOP_FILES = 15


def _package_root() -> str:
    """The directory ``import repro`` would load, without importing it."""
    spec = importlib.util.find_spec("repro")
    return os.path.realpath(spec.submodule_search_locations[0])


class Tracer:
    """Records the lines run in files under ``root``."""

    def __init__(self, root: str) -> None:
        self.prefix = root + os.sep
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._local: dict[str, object] = {}

    def _tracer_for(self, filename: str):
        lines = self.hits[filename]

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename)
        if local is None:
            if not filename.startswith(self.prefix):
                return None
            local = self._local[filename] = self._tracer_for(filename)
        # The "call" event's line counts too: a module body starts on the
        # line-0 instruction that ``co_lines()`` lists.
        return local(frame, event, arg)

    @contextlib.contextmanager
    def installed(self):
        threading.settrace(self)
        sys.settrace(self)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


def _is_function(code) -> bool:
    """A def or lambda body: not a module, class body or comprehension."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and not (
        code.co_name.startswith("<") and code.co_name != "<lambda>"
    )


def _walk(code, ran: set[int], executable: set[int], never_entered: list,
          inside_missed: bool = False) -> None:
    """Collect ``code``'s executable lines, and report it when it is a
    function that never ran -- unless it is nested in one already
    reported."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    executable |= lines
    if _is_function(code) and not inside_missed:
        body = {line for line in lines if line > code.co_firstlineno}
        if body and not body & ran:
            inside_missed = True
            never_entered.append((code, max(body)))
    for const in code.co_consts:
        if inspect.iscode(const):
            _walk(const, ran, executable, never_entered, inside_missed)


def ledger(root: str, hits: dict[str, set[int]]) -> dict:
    """The report for every ``.py`` file under ``root``."""
    files = []
    never_entered = []
    for path in sorted(Path(root).rglob("*.py")):
        filename = str(path)
        name = os.path.relpath(filename, os.path.dirname(root))
        ran = hits.get(filename, set())
        executable: set[int] = set()
        missed_functions: list = []
        _walk(compile(path.read_text(), filename, "exec"), ran, executable,
              missed_functions)
        never_entered += [
            {"file": name, "function": code.co_qualname,
             "first": code.co_firstlineno, "last": last,
             "lines": last - code.co_firstlineno + 1}
            for code, last in missed_functions
        ]
        missed = sorted(executable - ran)
        files.append({
            "file": name,
            "executable": len(executable),
            "missed": len(missed),
            "missed_lines": missed,
        })
    executable = sum(entry["executable"] for entry in files)
    missed = sum(entry["missed"] for entry in files)
    return {
        "executable": executable,
        "missed": missed,
        "missed_share": missed / executable if executable else 0.0,
        "never_entered_functions": len(never_entered),
        "never_entered_lines": sum(f["lines"] for f in never_entered),
        "files": sorted(files, key=lambda entry: -entry["missed"]),
        "never_entered": never_entered,
    }


def summary(report: dict) -> str:
    """The one-line figure."""
    return (
        f"ledger: {report['missed']:,} of {report['executable']:,} "
        f"executable lines missed ({report['missed_share']:.1%}); "
        f"{report['never_entered_functions']} functions never entered "
        f"({report['never_entered_lines']} lines)"
    )


def render(report: dict) -> str:
    out = [summary(report), "", "most missed lines:"]
    for entry in report["files"][:TOP_FILES]:
        if entry["missed"]:
            out.append(
                f"  {entry['missed']:5d} / {entry['executable']:5d}  "
                f"{entry['file']}"
            )
    out += ["", "never entered:"]
    for func in report["never_entered"]:
        out.append(
            f"  {func['file']}:{func['first']}-{func['last']}  "
            f"{func['function']}  ({func['lines']} lines)"
        )
    return "\n".join(out)


def main(argv: list[str]) -> int:
    as_json = "--json" in argv
    pytest_args = [arg for arg in argv if arg != "--json"]
    root = _package_root()
    tracer = Tracer(root)
    import pytest

    pytest_out = sys.stderr if as_json else sys.stdout
    with contextlib.redirect_stdout(pytest_out), tracer.installed():
        status = pytest.main(pytest_args)
    report = ledger(root, tracer.hits)
    if as_json:
        report["summary"] = summary(report)
        json.dump(report, sys.stdout, indent=1)
        print()
    else:
        print(render(report))
    return int(status)


# The guard matters: a ``spawn`` child re-imports the parent's main
# module, and unguarded it would start the whole suite again.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
