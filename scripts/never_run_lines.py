"""List the executable lines of src/hyquant that a pytest run never runs.

    python scripts/never_run_lines.py tests            # over tier-1
    python scripts/never_run_lines.py tests/test_graph.py -k manifest

Runs pytest in this process, with the given arguments, under a sys.settrace
line counter limited to src/hyquant, and prints to stdout each executable
line that never ran, as path:line: source, then the count; pytest's own
output goes to stderr. A line is executable when a code object compiled
from the file maps an instruction to it (co_lines). Tests that run hyquant
in a subprocess are not traced, so lines that only they reach are listed.
The exit status is pytest's. Uses the standard library only, apart from
pytest itself; over tier-1 it takes about 1.5 times as long as the plain run.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyquant"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from path runs."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list[str], hits: dict[str, set[int]]) -> int:
    """pytest.main(args) with every line run in a file of hits (by absolute
    path) added to its set; returns pytest's exit status."""
    import pytest

    owner: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = hits.get(os.path.abspath(name))
        seen = owner[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # the def line, which no line event names

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return int(pytest.main(["-q", *args]))
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's hyquant
    files = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(p): set() for p in files}
    status = traced_run(argv, hits)
    total = missed = 0
    for path in files:
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - hits[str(path)]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"{missed} of {total} executable lines never run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
