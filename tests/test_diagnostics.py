"""Diagnostic codes. A diagnostic checks nothing when it is built, so every
call in ``src/dial`` that builds one is checked here, over the source text:
its code is a literal in ``ERROR_CODES`` or ``lint.RULES``, or the ``code``
parameter that one of a fixed list of helpers passes on."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dial
from dial.diagnostics import ERROR_CODES
from dial.lint import RULES

KNOWN = ERROR_CODES.keys() | {rule.code for rule in RULES}
BUILDERS = {"Diagnostic", "emit", "err"}  # a call of a name or method of these builds one
# module -> the functions (qualified, without "<locals>") that pass their ``code`` on
FORWARDERS = {"lint": {"lint.emit"}, "parser": {"_Lowerer.err"}, "typecheck": {"_Ctx.err"}}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def code_problems(source: str, forwarders: set[str]) -> tuple[list[str], list[str]]:
    """The literal codes of the diagnostic-building calls in ``source``, and
    each such call whose code is neither a known literal nor the ``code``
    parameter of the function in ``forwarders`` that makes the call."""
    codes: list[str] = []
    problems: list[str] = []

    def visit(node: ast.AST, scope: str, params: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in BUILDERS:
                    code = child.args[0] if child.args else next(
                        (k.value for k in child.keywords if k.arg == "code"), None)
                    if isinstance(code, ast.Constant) and code.value in KNOWN:
                        codes.append(code.value)
                    elif not (isinstance(code, ast.Name) and code.id == "code"
                              and scope in forwarders and "code" in params):
                        problems.append(f"line {child.lineno}: {ast.unparse(child)}")
            if isinstance(child, SCOPES):
                inner = getattr(child, "name", "<lambda>")
                arguments = getattr(child, "args", None)
                visit(child, f"{scope}.{inner}" if scope else inner,
                      set() if arguments is None else
                      {a.arg for a in (*arguments.posonlyargs, *arguments.args,
                                       *arguments.kwonlyargs)})
            else:
                visit(child, scope, params)

    visit(ast.parse(source), "", set())
    return codes, problems


def test_every_code_the_package_builds_is_known():
    seen = set()
    for path in sorted(Path(dial.__file__).parent.glob("*.py")):
        codes, problems = code_problems(path.read_text(encoding="utf-8"),
                                        FORWARDERS.get(path.stem, set()))
        assert problems == [], path.name
        seen.update(codes)
    # E301 is raised as RenderMismatch and never built as a diagnostic
    assert seen == KNOWN - {"E301"}


ALL_FORWARDERS = set().union(*FORWARDERS.values())


def test_a_listed_helper_may_pass_its_code_on():
    source = ("def lint(typed):\n    def emit(code, message):\n"
              "        out.append(Diagnostic(code, message))\n    emit('W207', 'm')\n"
              "class _Ctx:\n    def err(self, code, message):\n        Diagnostic(code=code, message=message)\n")
    assert code_problems(source, ALL_FORWARDERS) == (["W207"], [])


@pytest.mark.parametrize("source", [
    'Diagnostic("E999", "m")',
    'def lint(typed):\n    emit("W299", "m", None)\n',
    'err("e002", "m", 0)',
    'raise SerializationError(Diagnostic(f"E{number}", "m"))',
    'def relay(code, message):\n    err(code, message)\n',
    'class _Ctx:\n    def note(self, code, message):\n        Diagnostic(code, message)\n',
    'def lint(typed):\n    def emit(rule, message):\n        Diagnostic(rule, message)\n',
    'class _Ctx:\n    def err(self, message):\n        code = "E101"\n        Diagnostic(code, message)\n',
    'class _Ctx:\n    def err(self, code, message):\n        f = lambda code: Diagnostic(code, message)\n',
    'self.err(*args)',
    'Diagnostic(message="m")',
], ids=["unknown_error", "unknown_rule", "lower_case", "computed", "unlisted_helper",
        "unlisted_method", "other_parameter", "local_name", "lambda_parameter", "starred",
        "no_code"])
def test_a_planted_bad_code_is_found(source):
    codes, problems = code_problems(source, ALL_FORWARDERS)
    assert codes == [] and len(problems) == 1, problems
