"""Command-line front end.

  dial check FILE...  [--json]                parse, lower, validate, type-check
  dial lint  FILE...  [--deny warnings] [--allow Wxxx] [--json] [--list]
  dial render FILE -o OUT [--format svg|tikz] [--debug-layout]
  dial fmt   FILE [--write | --check]
  dial symbols [--dialect sys|nn] [--json]

Exit codes: 0 clean, 1 error-level diagnostics (or warnings under --deny,
or a non-canonical file under fmt --check), 2 usage or I/O failure.
Diagnostics go to stderr; --json replaces them with one JSON array on
stdout. Rendered artifacts and formatted sources never mix with
diagnostics. NO_COLOR suppresses ANSI colors.

``run`` may be called any number of times in one process. Its argument
parser is built on the first call and reused; help and usage text still go
to each call's own streams.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import cache, cached_property

from . import __version__, layout, lint as lint_mod, render
from .diagnostics import Diagnostic, dump_json, has_errors
from .model import Diagram, validate_structure
from .parser import LoweredUnit, format_source, locate, lower, parse, tokenize
from .registry import DIALECTS, list_symbols
from .typecheck import TypedDiagram, check_diagram


class CompileResult:
    """A compiled file. The back half runs on demand in the checker's
    orientation: lint from the typed diagram alone, render from one cached
    layout per result. Its stages are looked up as module attributes
    at call time, so a tracer that replaces them there sees every call."""

    def __init__(self, file: str) -> None:
        self.file = file
        self.diagnostics: list[Diagnostic] = []
        self.diagram: Diagram | None = None
        self.typed: TypedDiagram | None = None

    @property
    def failed(self) -> bool:
        return has_errors(self.diagnostics)

    @cached_property
    def layout_result(self) -> layout.LayoutResult:
        """Layout of ``typed.diagram`` as ``typed`` orients and layers it; requires one."""
        typed = self.typed
        return layout.layout(typed.diagram, typed.oriented, typed.reversed_edges, typed.layers)

    def lint(self, disabled: frozenset[str] = frozenset()) -> list[Diagnostic]:
        """W2xx warnings, as ``lint`` built them; ``[]`` without a typed diagram."""
        if self.typed is None:
            return []
        return lint_mod.lint(self.typed, disabled=disabled)

    def render(self, fmt: str, out=None) -> str | None:
        """SVG or TikZ (``fmt`` is "svg" or "tikz") written into the text stream
        ``out`` as it is drawn, or else returned; requires a typed diagram."""
        draw = {"svg": render.render_svg, "tikz": render.render_tikz}[fmt]
        return draw(self.typed, self.layout_result, out)


def compile_source(source: str, file_name: str = "<string>") -> CompileResult:
    """Front half of the pipeline: parse, lower, validate, type-check."""
    result = CompileResult(file_name)
    tokens, diags = tokenize(source)
    result.diagnostics.extend(diags)
    ast, diags = parse(tokens)
    del tokens  # the AST keeps its own offsets; frees the token lists before lowering
    result.diagnostics.extend(diags)
    if ast is None or has_errors(result.diagnostics):
        return result

    unit: LoweredUnit = lower(ast)
    del ast  # not needed past lowering; frees it before type-checking
    result.diagnostics.extend(unit.diagnostics)
    result.diagram = unit.diagram
    if unit.diagram is None or has_errors(result.diagnostics):
        return result

    diags, graph = validate_structure(unit.diagram, unit.registry)
    if graph is not None:
        result.typed = check_diagram(unit.diagram, graph, unit.registry)
        diags = result.typed.diagnostics
    # front-end diagnostics carry their span; these name a declaration instead,
    # and are shown at it when it has a span
    for diag in diags:
        at = unit.spans.get(diag.ir_kind, {}).get(diag.ir_path)
        result.diagnostics.append(diag if at is None else diag._replace(span=locate(source, at)))
    return result


def read_source(path: str) -> str:
    """UTF-8 with BOM tolerance; undecodable bytes surface as E001."""
    with open(path, "rb") as file:
        return file.read().decode("utf-8-sig", errors="replace")


def compile_file(path: str) -> CompileResult:
    return compile_source(read_source(path), path)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    return not os.environ.get("NO_COLOR") and bool(getattr(stream, "isatty", lambda: False)())


def _print_human(file: str, diagnostics: list[Diagnostic], stream) -> None:
    color = _use_color(stream)
    for diag in diagnostics:
        line = diag.render_human(file)
        if color:
            line = _COLORS[diag.severity] + line + _RESET
        print(line, file=stream)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _report(args, stdout, stderr, diagnose, deny_warnings: bool = False) -> int:
    """Print ``diagnose(result)`` for every readable file in ``args.files`` and
    "cannot read" for every other one; exit 2 if any file could not be read."""
    groups: list[tuple[str, list[Diagnostic]]] = []  # (file, its diagnostics)
    worst = 0
    for path in args.files:
        try:
            result = compile_file(path)
        except OSError as exc:
            print(f"dial: cannot read {path}: {exc}", file=stderr)
            worst = 2
            continue
        groups.append((result.file, diagnose(result)))
        if result.failed:
            worst = max(worst, 1)
    if args.json:
        dump_json(groups, stdout)
    else:
        for path, diagnostics in groups:
            _print_human(path, diagnostics, stderr)
    if deny_warnings and any(d.severity == "warning" for _, diags in groups for d in diags):
        worst = max(worst, 1)
    return worst


def _cmd_check(args, stdout, stderr) -> int:
    return _report(args, stdout, stderr, lambda result: result.diagnostics)


def _cmd_lint(args, stdout, stderr) -> int:
    if args.list:
        for rule in lint_mod.RULES:
            print(f"{rule.code}  {rule.description}", file=stdout)
        return 0
    if not args.files:
        print("dial lint: at least one FILE is required", file=stderr)
        return 2
    disabled = frozenset(args.allow or ())
    return _report(args, stdout, stderr,
                   lambda result: result.diagnostics + result.lint(disabled),
                   deny_warnings=args.deny == "warnings")


def _cmd_render(args, stdout, stderr) -> int:
    try:
        result = compile_file(args.files[0])
    except OSError as exc:
        print(f"dial: cannot read {args.files[0]}: {exc}", file=stderr)
        return 2
    _print_human(result.file, result.diagnostics, stderr)
    if result.failed or result.typed is None:
        print("dial render: refusing to write output with errors present",
              file=stderr)
        return 1
    if args.debug_layout:
        stderr.write(layout.debug_dump(result.typed.diagram, result.layout_result))
    try:
        with open(args.output, "w", encoding="utf-8") as out:
            result.render(args.format, out)
    except OSError as exc:
        print(f"dial: cannot write {args.output}: {exc}", file=stderr)
        return 2
    return 0


def _cmd_fmt(args, stdout, stderr) -> int:
    path = args.files[0]
    try:
        source = read_source(path)
    except OSError as exc:
        print(f"dial: cannot read {path}: {exc}", file=stderr)
        return 2
    formatted, diagnostics = format_source(source)
    if formatted is None:
        _print_human(path, diagnostics, stderr)
        return 1
    if args.check:
        return 0 if formatted == source else 1
    if args.write:
        try:
            if formatted != source:
                with open(path, "w", encoding="utf-8") as out:
                    out.write(formatted)
        except OSError as exc:
            print(f"dial: cannot write {path}: {exc}", file=stderr)
            return 2
        return 0
    stdout.write(formatted)
    return 0


def _cmd_symbols(args, stdout, stderr) -> int:
    dialects = [args.dialect] if args.dialect else list(DIALECTS)
    rows = []
    for dialect in dialects:
        for sym in list_symbols(dialect):
            mark = render.GLYPH_TABLE[sym.glyph_id].mark
            glyph = render.SVG_MARKS.get(mark, "") if mark else ""
            rows.append({
                "code": sym.code, "dialect": sym.dialect, "glyph": glyph,
                "shape": render.GLYPH_TABLE[sym.glyph_id].primitive,
                "description": sym.name,
                "arity": [sym.min_in, sym.max_in, sym.min_out, sym.max_out],
            })
    if args.json:
        import json

        json.dump(rows, stdout, indent=2, ensure_ascii=True)
        stdout.write("\n")
    else:
        for row in rows:
            print(f"{row['code']:<16}{row['glyph'] or row['shape']:<12}"
                  f"{row['description']}", file=stdout)
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dial", description="compiler toolchain for the DIAL diagram language")
    parser.add_argument("--version", action="version", version=f"dial {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, validate and type-check")
    p_check.add_argument("files", metavar="FILE", nargs="+")
    p_check.add_argument("--json", action="store_true")

    p_lint = sub.add_parser("lint", help="check plus style rules")
    p_lint.add_argument("files", metavar="FILE", nargs="*")
    p_lint.add_argument("--deny", choices=["warnings"])
    p_lint.add_argument("--allow", action="append", metavar="Wxxx",
                        choices=[rule.code for rule in lint_mod.RULES])
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument("--list", action="store_true", help="list the rules")

    p_render = sub.add_parser("render", help="render to SVG or TikZ")
    p_render.add_argument("files", metavar="FILE", nargs=1)
    p_render.add_argument("-o", "--output", required=True)
    p_render.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p_render.add_argument("--debug-layout", action="store_true")

    p_fmt = sub.add_parser("fmt", help="canonical formatting")
    p_fmt.add_argument("files", metavar="FILE", nargs=1)
    group = p_fmt.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true", help="rewrite in place")
    group.add_argument("--check", action="store_true",
                       help="exit 1 if the file is not canonical")

    p_sym = sub.add_parser("symbols", help="list the registered symbols")
    p_sym.add_argument("--dialect", choices=list(DIALECTS))
    p_sym.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "lint": _cmd_lint,
    "render": _cmd_render,
    "fmt": _cmd_fmt,
    "symbols": _cmd_symbols,
}


def run(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except BrokenPipeError:
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
