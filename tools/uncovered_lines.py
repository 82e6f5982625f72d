"""Print each executable line of ``src/sgconv`` that no tier-1 test runs.

    python tools/uncovered_lines.py [pytest arguments]

It runs the tier-1 suite in this process (the ``tests`` and ``perfbench``
test paths, or what the arguments select) under ``sys.settrace`` and
``threading.settrace``, both started before anything imports ``sgconv``,
so module-level lines and the lines of worker threads count too. It then
prints, one per line and in file order,

    src/sgconv/<module>.py:<line>: <source>

for every line the compiler emits code for that no traced frame reached.
An ``except`` or ``raise`` line means no test takes that failure path, a
function's body line that no test calls it. Lines that only a
subprocess runs (the demos, the bench's smoke runs) are not seen, so a
line listed here may still run there. pytest's own output goes to
stderr, followed by a count of the lines listed; the exit code is
pytest's. Tracing slows the suite by about 40%. No coverage package is
needed.
"""
from __future__ import annotations

import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgconv"


def executable_lines(path: Path) -> set[int]:
    """The line numbers a compile of ``path`` attributes code to."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    package = str(PACKAGE)
    hit: dict[str, set[int]] = {}
    watched: dict[str, bool] = {}  # filename -> whether it lies in the package

    def trace_lines(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in watched:
            watched[filename] = filename.startswith(package)
            if watched[filename]:
                hit[filename] = set()
        return trace_lines if watched[filename] else None

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # as the tier-1 command sets it, for the tests' subprocesses
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the listing alone
            code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} executable lines of src/sgconv ran in no test", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
