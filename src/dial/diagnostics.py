"""Diagnostic values shared by every pipeline stage.

Codes are stable across releases. The error codes and their meanings are
:data:`ERROR_CODES`, which ``docs/reference.md`` prints; the W2xx style
rules are ``dial.lint.RULES``. Every code is a literal in the source, so a
static test (``tests/test_diagnostics.py``) checks them all against those two
tables, and a diagnostic checks nothing when it is built.

A diagnostic names no file: the file is a fact of the compile
(``CompileResult.file``), and the printers take it beside its diagnostics.
"""

from __future__ import annotations

import io

from .record import Record


ERROR_CODES: dict[str, str] = {
    "E001": "lexical error",
    "E002": "syntax error",
    "E003": "duplicate declaration id / extension collision",
    "E004": "malformed data-term literal",
    "E010": "node code does not resolve in the enabled dialects",
    "E011": "dangling reference or invalid port",
    "E012": "detail-group containment cycle",
    "E013": "persistence or query edge without a stored resource",
    "E014": "node listed by more than one detail group",
    "E020": "interchange document version mismatch",
    "E021": "malformed interchange document",
    "E101": "input arity violation",
    "E102": "input does not fit the signature's domain",
    "E103": "dimension conflict",
    "E104": "declared edge term conflicts with the inferred term",
    "E105": "term propagation did not reach a fixed point",
    "E301": "layout does not belong to the diagram",
}


class Span(Record):
    """Source position, 1-based line and column."""

    line: int
    col: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Diagnostic(Record):
    code: str
    message: str
    span: Span | None = None
    ir_path: str | None = None  # node/edge id when no source span is known
    ir_kind: str | None = None  # what ir_path names: "node", "edge" or "group"

    @property
    def severity(self) -> str:
        return "error" if self.code.startswith("E") else "warning"

    def render_human(self, file: str | None) -> str:
        """One line, located in ``file``, at the span if any; at the
        ``ir_path`` if there is no file."""
        where = ""
        if file and self.span:
            where = f"{file}:{self.span}: "
        elif file:
            where = f"{file}: "
        elif self.ir_path:
            where = f"{self.ir_path}: "
        return f"{where}{self.severity} {self.code}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def dump_json(groups: list[tuple[str, list[Diagnostic]]], stream: io.TextIOBase) -> None:
    """One object per diagnostic of every ``(file, diagnostics)`` group, in the
    frozen wire shape, exactly these six keys, in one write, byte for byte as
    ``json.dumps(..., indent=2)`` prints the list."""
    from json.encoder import encode_basestring_ascii as text  # only --json output needs it
    objects = ",\n".join(
        f'  {{\n    "code": {text(d.code)},\n    "severity": {text(d.severity)},\n'
        f'    "file": {text(file)},\n'
        f'    "line": {"null" if d.span is None else d.span.line},\n'
        f'    "col": {"null" if d.span is None else d.span.col},\n'
        f'    "message": {text(d.message)}\n  }}'
        for file, diagnostics in groups for d in diagnostics)
    stream.write(f"[\n{objects}\n]\n" if objects else "[]\n")


class DialError(Exception):
    """Base for programming-interface errors."""


class UnknownDialect(DialError):
    pass


class CollidesWithBuiltin(DialError):
    pass


class SerializationError(DialError):
    """Raised by the interchange decoder; carries the matching diagnostic."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class RenderMismatch(DialError):
    """E301: the layout was computed from a different diagram value."""
