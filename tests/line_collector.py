"""Opt-in pytest plugin: the run fails if a line inside a function or method
under ``src/dial`` never ran. Module and class bodies run on import and are
not counted. Run the whole suite with it:

    PYTHONPATH=src:tests python -m pytest -q -p line_collector

It traces with ``sys.settrace``; a code object stops being traced once every
one of its lines has run."""

from __future__ import annotations

import inspect
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dial"
ALLOWED = {  # "file:function" or "file" -> why no test in this process runs it
    "cli.py:main": "the console entry point; tests run it only in child interpreters",
    "__main__.py": "runs only as `python -m dial`, in child interpreters",
}
_pending: dict[types.CodeType, tuple[str, set[int]]] = {}  # code -> (file, lines not yet run)
_seen: set[tuple[str, int]] = set()
_missing: list[str] = []


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _call(frame, event, arg):
    code = frame.f_code
    if code not in _pending:  # module and class bodies share their def lines with functions
        path = Path(code.co_filename).resolve()
        counted = path.parent == SRC and code.co_flags & inspect.CO_OPTIMIZED
        _pending[code] = (path.name, _lines(code) if counted else set())
    name, pending = _pending[code]
    if not pending:
        return None

    def trace(frame, event, arg):
        pending.discard(frame.f_lineno)
        _seen.add((name, frame.f_lineno))
        return trace
    return trace(frame, event, arg)


def _function_lines(path: Path) -> dict[int, str]:
    """Each line of a function or method in ``path`` -> the function's name."""
    def walk(code, prefix):
        for const in code.co_consts:
            name = prefix + getattr(const, "co_name", "")
            if isinstance(const, types.CodeType) and f"{path.name}:{name}" not in ALLOWED:
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    yield from ((line, name) for line in _lines(const))
                yield from walk(const, name + ".")
    if path.name in ALLOWED:
        return {}
    return dict(walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ""))


def pytest_configure():
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    _missing.extend(f"{path.name}:{line} in {function}" for path in sorted(SRC.glob("*.py"))
                    for line, function in sorted(_function_lines(path).items())
                    if (path.name, line) not in _seen)
    if _missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", f"{len(_missing)} lines under src/dial never ran")
    for entry in _missing:
        terminalreporter.write_line(entry)
