"""Diagnostic values shared by every pipeline stage.

Codes are stable across releases. The error codes and their meanings are
:data:`ERROR_CODES`, which ``docs/reference.md`` prints; the W2xx style
rules are ``dial.lint.RULES``.
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
    file: str | None = None
    span: Span | None = None
    ir_path: str | None = None  # node/edge id when no source span is known
    ir_kind: str | None = None  # what ir_path names: "node", "edge" or "group"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        code = self.code
        # lint's W codes are checked by shape: this module cannot import dial.lint
        if code not in ERROR_CODES and not (len(code) == 4 and code[0] == "W"
                                            and code[1:].isdigit()):
            raise ValueError(f"bad diagnostic code: {code!r}")
        return self

    @property
    def severity(self) -> str:
        return "error" if self.code.startswith("E") else "warning"

    def with_location(self, file: str | None, span: Span | None) -> Diagnostic:
        return Diagnostic(self.code, self.message, file, span, self.ir_path, self.ir_kind)

    def render_human(self) -> str:
        where = ""
        if self.file and self.span:
            where = f"{self.file}:{self.span}: "
        elif self.file:
            where = f"{self.file}: "
        elif self.ir_path:
            where = f"{self.ir_path}: "
        return f"{where}{self.severity} {self.code}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def dump_json(diagnostics: list[Diagnostic], stream: io.TextIOBase) -> None:
    """One object per diagnostic in the frozen wire shape, exactly these six keys,
    in one write, byte for byte as ``json.dumps(..., indent=2)`` prints the list."""
    from json.encoder import encode_basestring_ascii as text  # only --json output needs it
    objects = ",\n".join(
        f'  {{\n    "code": {text(d.code)},\n    "severity": {text(d.severity)},\n'
        f'    "file": {"null" if d.file is None else text(d.file)},\n'
        f'    "line": {"null" if d.span is None else d.span.line},\n'
        f'    "col": {"null" if d.span is None else d.span.col},\n'
        f'    "message": {text(d.message)}\n  }}' for d in diagnostics)
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
