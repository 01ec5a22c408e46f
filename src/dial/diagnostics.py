"""Diagnostic values shared by every pipeline stage.

Codes are stable across releases:

  E001  lexical error                 E101  arity violation
  E002  syntax error                  E102  input does not match a signature
  E003  duplicate declaration id      E103  dimension conflict
  E004  malformed data-term literal   E104  declared term conflicts with inferred
  E010  unresolvable node code        E105  term propagation did not converge
  E011  dangling reference / bad port
  E012  detail-group containment cycle
  E013  persistence/query edge endpoint is not a stored resource
  E014  node listed by more than one detail group
  E020  interchange document version mismatch
  E021  malformed interchange document
  E301  layout does not belong to the diagram

  W201..W208  style rules, see dial.lint
"""

from __future__ import annotations

import json
from typing import IO

from .record import Record


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
        if not (len(self.code) == 4 and self.code[0] in "EW" and self.code[1:].isdigit()):
            raise ValueError(f"bad diagnostic code: {self.code!r}")
        return self

    @property
    def severity(self) -> str:
        return "error" if self.code.startswith("E") else "warning"

    def with_location(self, file: str | None, span: Span | None) -> Diagnostic:
        return Diagnostic(self.code, self.message, file, span, self.ir_path, self.ir_kind)

    def to_json_obj(self) -> dict:
        # Frozen wire shape: exactly these six keys.
        return {
            "code": self.code,
            "severity": self.severity,
            "file": self.file,
            "line": self.span.line if self.span else None,
            "col": self.span.col if self.span else None,
            "message": self.message,
        }

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


def dump_json(diagnostics: list[Diagnostic], stream: IO[str]) -> None:
    json.dump([d.to_json_obj() for d in diagnostics], stream, indent=2)
    stream.write("\n")


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
