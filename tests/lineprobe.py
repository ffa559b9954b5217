"""An opt-in pytest plugin that lists the ``src/trajkit`` lines a test run
never ran, per function. It uses only the standard library
(``sys.settrace`` and ``threading.settrace``); run it as

    PYTHONPATH=src:tests python -m pytest -p lineprobe

It writes one line per function with unrun statements,
``<file>:<function>: <line numbers>``, then their total, to
``lineprobe.txt`` in the working directory. Tracing starts before pytest
loads the conftest files, so before any test imports trajkit. It sees
this process and its threads only: lines run in forked worker processes
or in CLI subprocesses count as unrun.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trajkit"
OUT = Path("lineprobe.txt")
_run: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    lines = _run.get(frame.f_code.co_filename)
    if lines is None:
        if not frame.f_code.co_filename.startswith(str(SRC)):
            return None
        lines = _run.setdefault(frame.f_code.co_filename, set())

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)


def _unrun(path: Path) -> list[tuple[str, list[int]]]:
    """(function, its statement lines never run) for each code object of ``path``."""
    source = path.read_text(encoding="utf-8")
    statements = {node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.stmt)}
    run = _run.get(str(path), set())
    found, codes = [], [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        # A lambda or comprehension holds no statement its function lacks.
        if code.co_name.startswith("<") and code.co_name != "<module>":
            continue
        lines = {line for _, _, line in code.co_lines() if line} & statements
        if missed := sorted(lines - run):
            found.append((getattr(code, "co_qualname", code.co_name), missed))
    return sorted(found, key=lambda item: item[1])


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # Before the conftest files import trajkit.
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    total, out = 0, []
    for path in sorted(SRC.rglob("*.py")):
        for function, missed in _unrun(path):
            total += len(missed)
            out.append(f"{path.relative_to(SRC.parent.parent)}:{function}: "
                       f"{', '.join(map(str, missed))}")
    out.append(f"{total} statements never ran")
    OUT.write_text("\n".join(out) + "\n", encoding="utf-8")
