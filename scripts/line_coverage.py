"""List the lines of ``src/causaluplift`` that no test runs.

``coverage`` is not a dependency, so this runs the test suite in-process
under a ``sys.settrace`` tracer, installed before the package is imported
and limited to frames of files under ``src/causaluplift``. It prints, per
module, the executable lines (those in the ``co_lines`` of any code object
the module compiles to) that the tracer never saw run, then a total.

Run from anywhere: python3 scripts/line_coverage.py [pytest args]
(default: the whole ``tests/`` suite). Tracing slows every test, so
timing gates such as acceptance criterion 01's can fail under it; the
script exits 0 whatever pytest returns.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "causaluplift") + os.sep

ran = {}  # file name -> set of line numbers seen running
_traced = {}  # code object -> its file's line set, or None when not traced


def _local(frame, event, arg):
    ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    lines = _traced.get(code, False)
    if lines is False:
        name = code.co_filename
        lines = ran.setdefault(name, set()) if name.startswith(PACKAGE) else None
        _traced[code] = lines
    if lines is None:
        return None
    lines.add(frame.f_lineno)  # the ``call`` line: a def, class or module's first
    return _local


def executable_lines(path):
    """Every line number in the ``co_lines`` of the code ``path`` compiles to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(numbers):
    """``{3, 4, 5, 9}`` as ``"3-5, 9"``."""
    spans = []
    for n in sorted(numbers):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    sys.path.insert(0, SRC)
    sys.settrace(_global)
    threading.settrace(_global)
    import pytest  # imported under the tracer, like everything after it

    os.chdir(ROOT)
    status = pytest.main(
        argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]
    )
    sys.settrace(None)
    threading.settrace(None)

    total = modules = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = executable_lines(path) - ran.get(path, set())
        if missed:
            total += len(missed)
            modules += 1
            print(f"{name}: {len(missed)} lines: {_ranges(missed)}")
    print(f"{total} lines never ran in {modules} modules (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
