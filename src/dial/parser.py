"""Front end for the textual diagram DSL.

Pipeline: tokenize -> parse (AST with source offsets, declaration-level error
recovery) -> lower (core IR plus extension overlay) -> format (canonical
printer, idempotent).

Each stage is linear in tokens plus declarations. ``tokenize`` is one
``findall`` of every lexeme into :class:`Tokens`, parallel lists of kinds,
texts and start offsets: a start sums the lengths before it, and a kind is
looked up by first character, the whole text deciding only a string, arrow,
comment, non-ASCII digit or illegal character. The AST keeps token offsets,
and :func:`locate` makes a :class:`Span` only for a diagnostic, so a valid
file builds none, nor a table of line starts.
``parse`` reads those lists, and so does
:class:`~dial.terms.TermParser`, which reads a data term in place from its
first index, so a term costs only its own tokens. ``lower`` looks node and
group ids up in maps local to one lowering and builds each detail group's
member tuples once, at the end.

Grammar sketch (see the generated reference for the full version):

  unit      := "dial" VERSION "dialect" ident ("," ident)* diagram
  diagram   := "diagram" STRING ("at" region)? "{" item* "}"
  item      := node | data | edge | detail | table | embed | extend
  node      := "node" ident ":" code params? perf?
  data      := "data" ident ":" dataterm resTag?
  edge      := "edge" portref ARROW portref ("as" dataterm)?
  detail    := "detail" ident "for" ident ("entry" side)? ("exit" side)? "{" item* "}"
  table     := "table" ident ("at" region)? "{" (STRING ":" STRING ";")+ "}"
  embed     := "embedding" ident "(" "dim" "=" INT ")" STRING?
  extend    := "extend" ("symbol" | "task") ident "{" ... "}"

Comments run from ``//`` to end of line and are discarded.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from functools import lru_cache

from .diagnostics import CollidesWithBuiltin, Diagnostic, Span
from .model import (
    REGIONS,
    SIDES,
    Diagram,
    DetailGroup,
    Edge,
    EmbeddingDecl,
    MetaTable,
    Node,
    PerfAnnotation,
    Port,
    default_shape_class,
)
from .record import Record, replace
from .registry import (SYMBOL_CATEGORIES, Registry, Signature, Slot, SymbolDef,
                       dialect_list_error, node_kind)
from .terms import (
    MAX_NESTING,
    TermError,
    TermNestingError,
    TermParser,
    parse_term,
    token_text,
)

DSL_VERSION = "0.1"

KEYWORDS = frozenset({
    "dial", "dialect", "diagram", "node", "data", "edge", "detail", "table",
    "embedding", "extend", "for", "as", "perf", "at", "entry", "exit",
})
ARROWS = {
    "->": "flow", "<->": "biflow", "|->": "persist",
    "?>": "query", "-o": "interface", "~>": "recurrent",
}
ITEM_KEYWORDS = frozenset({"node", "data", "edge", "detail", "table", "embedding", "extend"})


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class Tokens:
    """Parallel lists of kinds, texts and start offsets into ``source``,
    ending with ``eof``. A :class:`Span` is made only on request."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.kinds: list[str] = []  # keyword | ident | string | number | punct | arrow | eof
        self.texts: list[str] = []  # a string token's text is unescaped
        self.starts: list[int] = []  # source offset of each token's first character

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, index: int) -> Span:
        """Span of token ``index``; a string's length is that of its unescaped text."""
        return locate(self.source, self.starts[index], len(self.texts[index]))


# A string up to its closing quote; a backslash escapes any character, and an
# unescaped newline or the end leaves the string open.
_STRING = r'"(?:[^"\\\n]|\\.)*'
# Every lexeme, whitespace and comments too, tried in order.
_LEXEME_RE = re.compile(r'[ \t\r\n]+|[A-Za-z_][A-Za-z0-9_]*|//[^\n]*|->|<->|\|->|\?>|-o|~>|'
                        + _STRING + r'["\\]?|\d+(?:\.\d+)?|.', re.DOTALL)
_STRING_RE = re.compile(_STRING + '"', re.DOTALL)  # a closed string lexeme
# A lexeme's kind by its first character; tokenize decides the other lexemes.
_FIRST_KIND = {**dict.fromkeys(" \t\r\n", "space"), **dict.fromkeys(":{}()[],=@^.;", "punct"),
               **dict.fromkeys("0123456789", "number"),
               **dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident")}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@lru_cache(maxsize=1)  # the diagnostics of one source share its table
def _line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def locate(source: str, offset: int, length: int | None = None) -> Span:
    """Physical line and column of a source offset (a tab is one column), and
    ``length``, by default that of the lexeme at the offset."""
    line_starts = _line_starts(source)
    line = bisect_right(line_starts, offset)
    if length is None:
        length = _LEXEME_RE.match(source, offset).end() - offset
    return Span(line, offset - line_starts[line - 1] + 1, length)


def tokenize(source: str) -> tuple[Tokens, list[Diagnostic]]:
    tokens = Tokens(source)
    kinds, texts, starts = tokens.kinds, tokens.texts, tokens.starts
    diagnostics: list[Diagnostic] = []
    end = 0
    for text in _LEXEME_RE.findall(source):
        start = end
        end += len(text)
        kind = _FIRST_KIND.get(text[0])
        if kind == "space":
            continue
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
        elif kind is None:
            first = text[0]
            if first == '"' and _STRING_RE.fullmatch(text):
                kind, text = "string", _ESCAPE_RE.sub(r"\1", text[1:-1])
            elif first.isdecimal():  # exactly the digits \d matches
                kind = "number"
            elif first == "/" and len(text) > 1:  # a comment
                continue
            elif first == '"' or len(text) == 1:
                message = "unterminated string literal" if first == '"' \
                    else f"illegal character {text!r}"
                diagnostics.append(Diagnostic("E001", message, span=locate(source, start, 1)))
                continue
            else:
                kind = "arrow"
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
    kinds.append("eof")
    texts.append("")
    starts.append(len(source))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class PortRef(Record):
    node: str
    slot: str | None
    at: int  # source offset of its first token


class PerfItem(Record):
    metric: str
    value: float
    corpus: str
    at: int


class NodeDecl(Record):
    id: str
    code: str
    params: tuple[tuple[str, object], ...]
    perf: tuple[PerfItem, ...]
    at: int


class DataDecl(Record):
    id: str
    term_literal: str
    tag: str | None  # dataset | gold | kb | kbfn
    tag_label: str | None
    at: int


class EdgeDecl(Record):
    source: PortRef
    arrow: str
    target: PortRef
    as_literal: str | None
    at: int


class DetailDecl(Record):
    id: str
    owner: str
    entry_side: str
    exit_side: str
    items: tuple
    at: int


class TableDecl(Record):
    id: str
    placement: str | None
    rows: tuple[tuple[str, str], ...]
    at: int


class EmbedDecl(Record):
    id: str
    dim: int
    label: str | None
    at: int


class ExtendDecl(Record):
    what: str  # "symbol" | "task"
    name: str
    fields: tuple[tuple[str, object], ...]
    at: int


class SourceAst(Record):
    version: str
    dialects: tuple[str, ...]
    name: str
    title_placement: str | None
    items: tuple
    at: int
    source: str  # the text the offsets index, for locating lowering's diagnostics


class _ParseAbort(Exception):
    pass


class Parser:
    """Single-pass recursive descent with panic-mode recovery per item and per block entry."""

    def __init__(self, tokens: Tokens) -> None:
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.depth = 0  # detail blocks open around the current item

    # -- cursor helpers -----------------------------------------------------

    def peek(self) -> tuple[str, str]:
        """Kind and text of the current token."""
        return self.kinds[self.pos], self.texts[self.pos]

    def span(self, offset: int = 0) -> Span:
        """:meth:`Tokens.span` of the token ``offset`` from the current one."""
        return self.tokens.span(self.pos + offset)

    def at(self, text: str | None = None, kind: str | None = None) -> bool:
        """The current token is ``text`` (which a string never is) or else of ``kind``."""
        pos = self.pos
        current = self.kinds[pos]  # its kind
        return current == kind if text is None else self.texts[pos] == text and current != "string"

    def advance(self) -> str:
        """Step past the current token (never past eof); returns its text."""
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "eof":
            self.pos += 1
        return text

    def expect(self, text: str | None = None, kind: str | None = None, what: str = "") -> str:
        """Step past the token :meth:`at` would match, inline; no caller expects eof."""
        pos = self.pos
        current = self.kinds[pos]  # its kind
        if current == kind if text is None else self.texts[pos] == text and current != "string":
            self.pos = pos + 1
            return self.texts[pos]
        expected = what or repr(text)
        found = token_text(*self.peek()) or "end of input"
        self.error(f"expected {expected}, found {found!r}", self.span())
        raise _ParseAbort()

    def error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic("E002", message, span=span))

    def skip_to_close(self) -> None:
        """Step past the bracket that closes the one just consumed."""
        depth = 1
        while depth and not self.at(kind="eof"):
            kind, text = self.peek()
            self.advance()
            if kind == "punct":
                depth += (text in "({[") - (text in ")}]")

    def recover_to_item(self, block: bool = False) -> None:
        """Step to the next item keyword or ``}``; after a ``block`` header's
        fault, step over the first ``{`` on the way through its ``}`` first."""
        while not self.at(kind="eof"):
            if self.at("}") or self.at(kind="keyword") and self.texts[self.pos] in ITEM_KEYWORDS:
                return
            if block and self.at("{"):
                self.advance()
                self.skip_to_close()
                return self.recover_to_item()
            self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_unit(self) -> SourceAst | None:
        try:
            at = self.starts[self.pos]
            self.expect("dial", what="'dial' header")
            version = self.expect(kind="number", what="language version")
            if version != DSL_VERSION:
                self.error(f"unsupported language version {version!r} "  # at 'dial'
                           f"(this toolchain speaks {DSL_VERSION})", self.span(-2))
            self.expect("dialect", what="'dialect'")
            dialects = [self.expect(kind="ident", what="dialect name")]
            while self.at(","):
                self.advance()
                dialects.append(self.expect(kind="ident", what="dialect name"))
            self.expect("diagram", what="'diagram'")
            name = self.expect(kind="string", what="diagram name")
            title_placement = None
            if self.at("at"):
                self.advance()
                title_placement = self._region()
            self.expect("{", what="'{'")
            items = self._items_until_close()
            return SourceAst(version, tuple(dialects), name, title_placement,
                             tuple(items), at, self.tokens.source)
        except _ParseAbort:
            return None

    def _items_until_close(self) -> list:
        items: list = []
        while True:
            if self.at("}"):
                self.advance()
                return items
            if self.at(kind="eof"):
                self.error("unexpected end of input, expected '}'", self.span())
                return items
            start = self.pos
            try:
                items.append(self._item())
            except _ParseAbort:
                # a block's header consumes no '{' but its own
                self.recover_to_item(self.kinds[start] == "keyword"
                                     and self.texts[start] in ("detail", "table", "extend")
                                     and "{" not in self.texts[start:self.pos])
                if self.at("}"):
                    self.advance()
                    return items

    def _block_body(self, what: str, entry) -> list:
        """The ``entry;`` list of a table or extend body, through its ``}``. A
        faulty entry resumes at its ``;`` or the ``}``; the block is then dropped."""
        entries, failed = [], False
        while not self.at("}"):
            if self.at(kind="eof"):
                self.error(f"unexpected end of input inside {what}", self.span())
                raise _ParseAbort()
            try:
                entries.append(entry())
                self.expect(";", what="';'")
            except _ParseAbort:
                failed = True
                while not (self.at(";") or self.at("}") or self.at(kind="eof")):
                    self.advance()
                if self.at(kind="eof"):
                    raise
                if self.at(";"):
                    self.advance()
        self.advance()
        if failed:
            raise _ParseAbort()
        return entries

    def _item(self):
        """One declaration; its handler gets the offset of its keyword."""
        kind, text = self.peek()
        handler = _ITEM_HANDLERS.get(text) if kind == "keyword" else None
        if handler is None:
            self.error(
                "expected a declaration (node, data, edge, detail, table, "
                f"embedding or extend), found {token_text(kind, text) or 'end of input'!r}",
                self.span())
            raise _ParseAbort()
        self.pos += 1  # a keyword, never eof
        return handler(self, self.starts[self.pos - 1])

    def _node(self, at: int) -> NodeDecl:
        ident = self.expect(kind="ident", what="node identifier")
        self.expect(":", what="':'")
        code = self.expect(kind="ident", what="symbol or task code")
        params = self._params() if self.at("(") else ()
        perf = self._perf() if self.at("perf") else ()
        return NodeDecl(ident, code, params, perf, at)

    def _params(self) -> tuple[tuple[str, object], ...]:
        self.expect("(")
        out: list[tuple[str, object]] = []
        while True:
            kind, key = self.peek()
            if kind not in ("ident", "keyword"):
                self.error(f"expected a parameter name, found {token_text(kind, key)!r}",
                           self.span())
                raise _ParseAbort()
            self.advance()
            self.expect("=", what="'='")
            kind, text = self.peek()
            if kind == "number":
                value: object = _number(text)
            elif kind in ("string", "ident", "keyword"):
                value = text
            else:
                self.error(f"expected a parameter value, found {text!r}", self.span())
                raise _ParseAbort()
            self.advance()
            out.append((key, value))
            if self.at(","):
                self.advance()
                continue
            self.expect(")", what="')' or ','")
            return tuple(out)

    def _perf(self) -> tuple[PerfItem, ...]:
        self.advance()  # perf
        self.expect("(")
        out: list[PerfItem] = []
        while True:
            at = self.starts[self.pos]
            metric = self.expect(kind="ident", what="metric name")
            self.expect("=", what="'='")
            value = float(self.expect(kind="number", what="metric value"))
            if metric == "acc" and not 0.0 <= value <= 1.0:
                self.error("acc must lie in [0,1]", self.span(-1))
            self.expect("@", what="'@'")
            corpus = self.expect(kind="string", what="corpus name")
            out.append(PerfItem(metric, value, corpus, at))
            if self.at(","):
                self.advance()
                continue
            self.expect(")", what="')' or ','")
            return tuple(out)

    def _data(self, at: int) -> DataDecl:
        ident = self.expect(kind="ident", what="data identifier")
        self.expect(":", what="':'")
        literal = self._dataterm_literal()
        tag = tag_label = None
        if self.at("@"):
            self.advance()
            tag = self.expect(kind="ident", what="resource tag")
            if tag not in ("dataset", "gold", "kb", "kbfn"):
                self.error(f"unknown resource tag @{tag}", self.span(-1))
                raise _ParseAbort()
            if tag == "dataset":
                self.expect("(", what="'('")
                tag_label = self.expect(kind="string", what="dataset label")
                self.expect(")", what="')'")
        return DataDecl(ident, literal, tag, tag_label, at)

    def _portref(self) -> PortRef:
        at = self.starts[self.pos]
        node = self.expect(kind="ident", what="node reference")
        slot = None
        if self.at("."):
            self.advance()
            slot = self.expect(kind="ident", what="port name")
        return PortRef(node, slot, at)

    def _edge(self, at: int) -> EdgeDecl:
        source = self._portref()
        arrow = self.expect(kind="arrow", what="an arrow (->, <->, |->, ?>, -o, ~>)")
        target = self._portref()
        as_literal = None
        if self.at("as"):
            self.advance()
            as_literal = self._dataterm_literal()
        return EdgeDecl(source, arrow, target, as_literal, at)

    def _dataterm_literal(self) -> str:
        """Consume the tokens of one data term; names are checked at lowering."""
        start = self.pos
        term_parser = TermParser(self.kinds, self.texts, None, start)
        try:
            term_parser.parse()
        except TermError as exc:
            span = self.tokens.span(exc.pos)  # exc.pos indexes the token lists
            if isinstance(exc, TermNestingError):
                # skip the whole term, so recovery resumes after it
                self.diagnostics.append(Diagnostic("E004", str(exc), span=span))
                self.pos = start + 1
                self.skip_to_close()
            else:
                self.error(f"malformed data term: {exc}", span)
            raise _ParseAbort()
        self.pos = term_parser.index
        return "".join(self.texts[start:self.pos])

    def _detail(self, at: int) -> DetailDecl:
        ident = self.expect(kind="ident", what="detail group identifier")
        self.expect("for", what="'for'")
        owner = self.expect(kind="ident", what="owner node identifier")
        entry_side, exit_side = "left", "right"
        if self.at("entry"):
            self.advance()
            entry_side = self._side()
        if self.at("exit"):
            self.advance()
            exit_side = self._side()
        self.expect("{", what="'{'")
        if self.depth == MAX_NESTING:
            self.error(f"detail blocks nested deeper than {MAX_NESTING} levels",
                       locate(self.tokens.source, at))
            self.skip_to_close()
            raise _ParseAbort()
        self.depth += 1
        items = self._items_until_close()
        self.depth -= 1
        return DetailDecl(ident, owner, entry_side, exit_side, tuple(items), at)

    def _side(self) -> str:
        side = self.expect(kind="ident", what="a side (left, right, top, bottom)")
        if side not in SIDES:
            self.error(f"unknown side {side!r}", self.span(-1))
            raise _ParseAbort()
        return side

    def _region(self) -> str:
        region = self.expect(kind="ident", what="a region (top_left, top_right, "
                                                "bottom_left, bottom_right)")
        if region not in REGIONS:
            self.error(f"unknown region {region!r}", self.span(-1))
            raise _ParseAbort()
        return region

    def _table(self, at: int) -> TableDecl:
        ident = self.expect(kind="ident", what="table identifier")
        placement = None
        if self.at("at"):
            self.advance()
            placement = self._region()
        self.expect("{", what="'{'")
        rows = self._block_body("table", self._row)
        if not rows:
            self.error("a table needs at least one row", self.span(-1))
        return TableDecl(ident, placement, tuple(rows), at)

    def _row(self) -> tuple[str, str]:
        key = self.expect(kind="string", what="row key string")
        self.expect(":", what="':'")
        return key, self.expect(kind="string", what="row value string")

    def _embedding(self, at: int) -> EmbedDecl:
        ident = self.expect(kind="ident", what="embedding identifier")
        self.expect("(", what="'('")
        if self.expect(kind="ident", what="'dim'") != "dim":
            self.error("embedding takes a single dim parameter", self.span(-1))
            raise _ParseAbort()
        self.expect("=", what="'='")
        dim = self.expect(kind="number", what="dimension")
        if "." in dim or int(dim) < 1:
            self.error("embedding dim must be a positive integer", self.span(-1))
            raise _ParseAbort()
        self.expect(")", what="')'")
        label = None
        if self.at(kind="string"):
            label = self.advance()
        return EmbedDecl(ident, int(dim), label, at)

    def _extend(self, at: int) -> ExtendDecl:
        what = self.expect(kind="ident", what="'symbol' or 'task'")
        if what not in ("symbol", "task"):
            self.error("extend introduces either a symbol or a task", self.span(-1))
            raise _ParseAbort()
        name = self.expect(kind="ident", what="extension code")
        self.expect("{", what="'{'")
        return ExtendDecl(what, name, tuple(self._block_body("extend", self._field)), at)

    def _field(self) -> tuple[str, object]:
        key = self.expect(kind="ident", what="field name")
        self.expect(":", what="':'")
        if key in ("domain", "range"):
            literals = [self._dataterm_literal()]
            while self.at(","):
                self.advance()
                literals.append(self._dataterm_literal())
            return key, tuple(literals)
        if key == "arity":
            return key, self._arity()
        kind, text = self.peek()
        if kind not in ("ident", "string", "number"):
            self.error(f"expected a field value, found {text!r}", self.span())
            raise _ParseAbort()
        self.advance()
        return key, text

    def _arity(self) -> tuple[int, int, int, int]:
        lo_in = self._arity_bound("minimum input arity")
        self.expect(".", what="'..'")
        self.expect(".", what="'..'")
        hi_in = self._arity_bound("maximum input arity")
        self.expect(kind="arrow", what="'->'")
        lo_out = self._arity_bound("minimum output arity")
        self.expect(".", what="'..'")
        self.expect(".", what="'..'")
        hi_out = self._arity_bound("maximum output arity")
        return (lo_in, hi_in, lo_out, hi_out)

    def _arity_bound(self, what: str) -> int:
        bound = self.expect(kind="number", what=what)
        if "." in bound:
            self.error(f"{what} must be a whole number", self.span(-1))
            raise _ParseAbort()
        return int(bound)


_ITEM_HANDLERS = {
    "node": Parser._node, "data": Parser._data, "edge": Parser._edge,
    "detail": Parser._detail, "table": Parser._table,
    "embedding": Parser._embedding, "extend": Parser._extend,
}


def _number(text: str) -> object:
    return float(text) if "." in text else int(text)


def parse(tokens: Tokens) -> tuple[SourceAst | None, list[Diagnostic]]:
    parser = Parser(tokens)
    ast = parser.parse_unit()
    if ast is not None and not parser.at(kind="eof"):
        parser.error(f"trailing input after the diagram: {parser.peek()[1]!r}",
                     parser.span())
    return ast, parser.diagnostics


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class LoweredUnit(Record):
    diagram: Diagram | None
    registry: Registry
    diagnostics: list[Diagnostic]
    spans: dict[str, dict[str, int]]  # node/edge/group -> id -> offset of its declaration


def lower(ast: SourceAst) -> LoweredUnit:
    """AST to core IR. Code resolution is deferred to validate_structure;
    data-term names are checked here (E004), ids here (E003)."""
    registry = Registry()
    diagnostics: list[Diagnostic] = []
    spans: dict[str, dict[str, int]] = {kind: {} for kind in ("node", "edge", "group")}

    problem = dialect_list_error(ast.dialects)
    if problem:
        diagnostics.append(Diagnostic("E003", problem, span=locate(ast.source, ast.at)))
        return LoweredUnit(None, registry, diagnostics, spans)

    diagram = Diagram(ast.name, frozenset(ast.dialects))
    if ast.title_placement:
        diagram.title_placement = ast.title_placement

    lowerer = _Lowerer(diagram, registry, diagnostics, spans, ast.source)
    _register_extensions(ast, registry, lowerer.err)
    lowerer.lower_items(ast.items, group=None)
    lowerer.lower_edges()
    return LoweredUnit(diagram, registry, diagnostics, spans)


def _walk_extends(items) -> list[ExtendDecl]:
    out: list[ExtendDecl] = []
    for item in items:
        if isinstance(item, ExtendDecl):
            out.append(item)
        elif isinstance(item, DetailDecl):
            out.extend(_walk_extends(item.items))
    return out


def _register_extensions(ast: SourceAst, registry: Registry,
                         err: Callable[[str, str, int], None]) -> None:
    """Register every ``extend`` block; ``err(code, message, offset)`` reports."""
    seen: set[str] = set()
    for decl in _walk_extends(ast.items):
        if decl.name in seen:
            err("E003", f"duplicate extension code {decl.name!r}", decl.at)
            continue
        seen.add(decl.name)
        for problem in _extend_field_problems(decl):
            err("E003", problem, decl.at)
        fields = dict(decl.fields)
        try:
            if decl.what == "symbol":
                lo_in, hi_in, lo_out, hi_out = fields.get("arity", (1, 1, 1, 1))
                registry.register_extension(SymbolDef(
                    code=decl.name, dialect="ext",
                    name=str(fields.get("name", decl.name)),
                    glyph_id=str(fields.get("glyph", "box_extension")),
                    min_in=lo_in, max_in=hi_in, min_out=lo_out, max_out=hi_out,
                    category=str(fields.get("category", "operator")),
                ))
            else:
                # parsed outside the registry's term cache, against the block's
                # labels, which join the vocabulary only once the block is registered
                labels = frozenset(
                    label for key in ("domain", "range") for literal in fields.get(key, ())
                    for label in parse_term(literal, None).all_labels())
                vocab = replace(registry.vocabulary, labels=registry.vocabulary.labels | labels)
                domain = tuple(Slot(parse_term(lit, vocab)) for lit in fields.get("domain", ()))
                rng = tuple(Slot(parse_term(lit, vocab)) for lit in fields.get("range", ()))
                if not domain or not rng:
                    err("E003", f"extension task {decl.name!r} needs domain and range", decl.at)
                    continue
                registry.register_extension(Signature(
                    code=decl.name, dialect="ext", name=decl.name,
                    variants=((domain, rng),)))
                registry.register_labels(labels)
        except CollidesWithBuiltin as exc:
            err("E003", str(exc), decl.at)
        except TermError as exc:
            err("E004", f"in extension {decl.name!r}: {exc}", decl.at)


_EXTEND_FIELDS = {"symbol": ("name", "glyph", "arity", "category"), "task": ("domain", "range")}


def _extend_field_problems(decl: ExtendDecl) -> list[str]:
    """Unknown, repeated and out-of-range fields (an unknown category, an
    arity whose minimum exceeds its maximum) of one ``extend`` block.
    Glyph ids are not checked here: the glyph table lives in ``render``."""
    allowed = _EXTEND_FIELDS[decl.what]
    where = f"extend {decl.what} {decl.name!r}"
    problems: list[str] = []
    given: set[str] = set()
    for key, value in decl.fields:
        if key not in allowed:
            problems.append(f"{where} takes no field {key!r} (fields: {', '.join(allowed)})")
        elif key in given:
            problems.append(f"{where} gives field {key!r} twice")
        elif key == "category" and value not in SYMBOL_CATEGORIES:
            problems.append(f"{where} has category {value!r}, not one of "
                            f"{', '.join(SYMBOL_CATEGORIES)}")
        elif key == "arity":
            for side, lo, hi in (("input", *value[:2]), ("output", *value[2:])):
                if lo > hi:
                    problems.append(f"{where} has {side} arity {lo}..{hi}: minimum above maximum")
        given.add(key)
    return problems


_SLOT_RE = re.compile(r"(in|out)(\d+)$")


class _Lowerer:
    def __init__(self, diagram, registry, diagnostics, spans, source) -> None:
        self.diagram = diagram
        self.registry = registry
        self.diagnostics = diagnostics
        self.spans = spans
        self.source = source
        self.pending_edges: list[tuple[EdgeDecl, str | None]] = []  # (decl, group id)
        self.next_in_slot: dict[str, int] = {}
        self.node_pos: dict[str, int] = {}  # node id -> index in diagram.nodes
        self.members: dict[str, tuple[list[str], list[str]]] = {}  # group id -> (nodes, edges)
        self.table_ids: set[str] = set()
        self.embedding_ids: set[str] = set()

    def err(self, code: str, message: str, at: int) -> None:
        self.diagnostics.append(Diagnostic(code, message, span=locate(self.source, at)))

    # -- declarations ---------------------------------------------------

    def lower_items(self, items, group: str | None) -> None:
        for item in items:
            if isinstance(item, NodeDecl):
                self._node(item, group)
            elif isinstance(item, DataDecl):
                self._data(item, group)
            elif isinstance(item, EdgeDecl):
                self.pending_edges.append((item, group))
            elif isinstance(item, DetailDecl):
                self._detail(item, group)
            elif isinstance(item, TableDecl):
                self._table(item)
            elif isinstance(item, EmbedDecl):
                self._embedding(item)
            # ExtendDecl already handled in the registration pre-pass.

    def _check_term(self, literal: str, at: int) -> bool:
        try:
            self.registry.parse_term(literal)
            return True
        except TermError as exc:
            self.err("E004", str(exc), at)
            return False

    def _add_node(self, node: Node, at: int, group: str | None) -> bool:
        if node.id in self.node_pos:
            self.err("E003", f"duplicate declaration id {node.id!r}", at)
            return False
        self.node_pos[node.id] = len(self.diagram.nodes)
        self.diagram.nodes.append(node)
        self.spans["node"][node.id] = at
        if group is not None:
            self.members[group][0].append(node.id)
        return True

    def _node(self, decl: NodeDecl, group: str | None) -> None:
        params = []
        label = shape = None
        for key, value in decl.params:
            if key == "label":
                label = str(value)
            elif key == "shape":
                if value not in ("feature", "component"):
                    self.err("E003", f"shape must be feature or component, got {value!r}",
                             decl.at)
                else:
                    shape = str(value)
            else:
                if key == "out":
                    self._check_term(str(value), decl.at)
                params.append((key, value))
        found = self.registry.resolve(decl.code, self.diagram.dialects)
        kind = node_kind(found) if found else "operator"
        node = Node(
            id=decl.id, kind=kind, code=decl.code, label=label,
            params=tuple(params),
            shape_class=shape or default_shape_class(kind),
            perf=tuple(PerfAnnotation(p.metric, p.value, p.corpus) for p in decl.perf),
        )
        self._add_node(node, decl.at, group)

    def _data(self, decl: DataDecl, group: str | None) -> None:
        self._check_term(decl.term_literal, decl.at)
        code = decl.tag or "interface"
        kind = "resource" if decl.tag else "io"
        node = Node(
            id=decl.id, kind=kind, code=code, label=decl.tag_label,
            params=(("out", decl.term_literal),),
            shape_class="component",
        )
        self._add_node(node, decl.at, group)

    def _detail(self, decl: DetailDecl, parent_group: str | None) -> None:
        if decl.id in self.members:
            self.err("E003", f"duplicate declaration id {decl.id!r}", decl.at)
            return
        self.members[decl.id] = ([], [])
        group = DetailGroup(decl.id, decl.owner, entry_side=decl.entry_side,
                            exit_side=decl.exit_side)
        self.diagram.groups.append(group)
        self.spans["group"][decl.id] = decl.at
        self.lower_items(decl.items, group=decl.id)
        owner_idx = self.node_pos.get(decl.owner)
        if owner_idx is not None:
            self.diagram.nodes[owner_idx] = replace(
                self.diagram.nodes[owner_idx], detail=decl.id)
        else:
            self.err("E011", f"detail group {decl.id!r} refines unknown node "
                             f"{decl.owner!r}", decl.at)

    def _table(self, decl: TableDecl) -> None:
        if decl.id in self.table_ids:
            self.err("E003", f"duplicate declaration id {decl.id!r}", decl.at)
            return
        self.table_ids.add(decl.id)
        kind = decl.id if decl.id in ("hyperparams", "results") else "freeform"
        self.diagram.tables.append(MetaTable(
            decl.id, kind=kind, rows=decl.rows,
            placement=decl.placement or "bottom_right"))

    def _embedding(self, decl: EmbedDecl) -> None:
        if decl.id in self.embedding_ids:
            self.err("E003", f"duplicate declaration id {decl.id!r}", decl.at)
            return
        self.embedding_ids.add(decl.id)
        self.diagram.embeddings.append(EmbeddingDecl(decl.id, decl.dim, decl.label))

    # -- edges (second pass so forward references work) -------------------

    def lower_edges(self) -> None:
        for decl, group in self.pending_edges:
            self._edge(decl, group)
        self.diagram.groups = [replace(g, member_nodes=tuple(self.members[g.id][0]),
                                       member_edges=tuple(self.members[g.id][1]))
                               for g in self.diagram.groups]

    def _resolve_slot(self, ref: PortRef, direction: str, flow_kind: str) -> int | None:
        if ref.slot is None:
            if direction == "out":
                return 0
            if flow_kind == "recurrent":
                return 0
            slot = self.next_in_slot.get(ref.node, 0)
            self.next_in_slot[ref.node] = slot + 1
            return slot
        if ref.slot == "true":
            return 0 if direction == "out" else None
        if ref.slot == "false":
            return 1 if direction == "out" else None
        m = _SLOT_RE.match(ref.slot)
        if m is None or m.group(1) != direction:
            return None
        slot = int(m.group(2))
        if direction == "in" and flow_kind != "recurrent":
            self.next_in_slot[ref.node] = max(self.next_in_slot.get(ref.node, 0), slot + 1)
        return slot

    def _edge(self, decl: EdgeDecl, group: str | None) -> None:
        kind = ARROWS[decl.arrow]
        ok = True
        for ref in (decl.source, decl.target):
            if ref.node not in self.node_pos:
                self.err("E011", f"edge references unknown node {ref.node!r}", ref.at)
                ok = False
        if not ok:
            return
        src_slot = self._resolve_slot(decl.source, "out", kind)
        tgt_slot = self._resolve_slot(decl.target, "in", kind)
        if src_slot is None or tgt_slot is None:
            bad = decl.source if src_slot is None else decl.target
            self.err("E011", f"bad port name {bad.slot!r} on {bad.node!r}", bad.at)
            return
        if decl.as_literal is not None:
            self._check_term(decl.as_literal, decl.at)
        edge_id = f"e{len(self.diagram.edges)}"
        self.diagram.edges.append(Edge(
            edge_id,
            Port(decl.source.node, src_slot, "out"),
            Port(decl.target.node, tgt_slot, "in"),
            kind, decl.as_literal,
        ))
        self.spans["edge"][edge_id] = decl.at
        if group is not None:
            self.members[group][1].append(edge_id)


# ---------------------------------------------------------------------------
# Canonical formatter
# ---------------------------------------------------------------------------


def format_ast(ast: SourceAst) -> str:
    """Canonical style: one declaration per line, two-space indents,
    single spaces around arrows. Idempotent over parse."""
    lines = [f"dial {ast.version}", "dialect " + ", ".join(ast.dialects), ""]
    header = f'diagram "{_esc(ast.name)}"'
    if ast.title_placement:
        header += f" at {ast.title_placement}"
    lines.append(header + " {")
    _format_items(ast.items, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_items(items, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    for item in items:
        if isinstance(item, NodeDecl):
            text = f"{pad}node {item.id}: {item.code}"
            if item.params:
                text += "(" + ", ".join(f"{k}={_param_value(v)}" for k, v in item.params) + ")"
            if item.perf:
                text += " perf(" + ", ".join(
                    f'{p.metric}={_num_text(p.value)}@"{_esc(p.corpus)}"' for p in item.perf) + ")"
            lines.append(text)
        elif isinstance(item, DataDecl):
            text = f"{pad}data {item.id}: {item.term_literal}"
            if item.tag == "dataset":
                text += f' @dataset("{_esc(item.tag_label or "")}")'
            elif item.tag:
                text += f" @{item.tag}"
            lines.append(text)
        elif isinstance(item, EdgeDecl):
            text = (f"{pad}edge {_port_text(item.source)} {item.arrow} "
                    f"{_port_text(item.target)}")
            if item.as_literal:
                text += f" as {item.as_literal}"
            lines.append(text)
        elif isinstance(item, DetailDecl):
            text = f"{pad}detail {item.id} for {item.owner}"
            if item.entry_side != "left":
                text += f" entry {item.entry_side}"
            if item.exit_side != "right":
                text += f" exit {item.exit_side}"
            lines.append(text + " {")
            _format_items(item.items, depth + 1, lines)
            lines.append(pad + "}")
        elif isinstance(item, TableDecl):
            text = f"{pad}table {item.id}"
            if item.placement:
                text += f" at {item.placement}"
            lines.append(text + " {")
            for key, value in item.rows:
                lines.append(f'{pad}  "{_esc(key)}": "{_esc(value)}";')
            lines.append(pad + "}")
        elif isinstance(item, EmbedDecl):
            text = f"{pad}embedding {item.id} (dim={item.dim})"
            if item.label:
                text += f' "{_esc(item.label)}"'
            lines.append(text)
        elif isinstance(item, ExtendDecl):
            lines.append(f"{pad}extend {item.what} {item.name} {{")
            for key, value in item.fields:
                if key in ("domain", "range"):
                    lines.append(f"{pad}  {key}: " + ", ".join(value) + ";")
                elif key == "arity":
                    lo_in, hi_in, lo_out, hi_out = value
                    lines.append(f"{pad}  arity: {lo_in}..{hi_in} -> {lo_out}..{hi_out};")
                else:
                    lines.append(f"{pad}  {key}: {_param_value(value)};")
            lines.append(pad + "}")


def _port_text(ref: PortRef) -> str:
    return ref.node if ref.slot is None else f"{ref.node}.{ref.slot}"


def _param_value(value: object) -> str:
    if isinstance(value, (int, float)):
        return _num_text(value)
    text = str(value)
    if _IDENT_RE.fullmatch(text) and text not in KEYWORDS:
        return text
    return f'"{_esc(text)}"'


def _num_text(value) -> str:
    # floats keep their decimal point so reparsing preserves the value's type
    return repr(value) if isinstance(value, float) else str(value)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def format_source(source: str) -> tuple[str | None, list[Diagnostic]]:
    """Parse and reprint a source text; None when there are syntax errors."""
    tokens, lex_diags = tokenize(source)
    ast, parse_diags = parse(tokens)
    diagnostics = lex_diags + parse_diags
    if ast is None or any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return format_ast(ast), diagnostics
