"""DSL front end: tokenizer, parser, lowering, canonical formatter."""

from __future__ import annotations

import ast as python_ast
import random
import re
import string
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import dial.layout
import dial.parser
from dial import terms
from dial.cli import compile_source
from dial.diagnostics import Span, has_errors
from dial.interchange import canonical_serialize
from dial.model import Diagram, validate_structure
from dial.parser import DetailDecl, format_source, lower, parse, tokenize
from dial.registry import Registry, node_kind
from oracles import (
    MARK_RE,
    ReferenceTermParser,
    _shown,
    _term_kind,
    mutate_source,
    random_front_end_source,
    reference_lower,
    reference_parse,
    reference_tokenize,
    token_list,
)

MINIMAL = 'dial 0.1\ndialect sys\ndiagram "D" { }\n'


def lex(source: str):
    tokens, diags = tokenize(source)
    return token_list(tokens), diags


def parse_source(source: str):
    tokens, lex_diags = tokenize(source)
    ast, diags = parse(tokens)
    return ast, lex_diags + diags


def lower_source(source: str):
    ast, diags = parse_source(source)
    assert ast is not None and not has_errors(diags), diags
    return lower(ast)


def wrap(*items: str, dialects: str = "sys") -> str:
    body = "\n".join(f"  {line}" for line in items)
    return f'dial 0.1\ndialect {dialects}\ndiagram "T" {{\n{body}\n}}\n'


# -- tokenizer ---------------------------------------------------------------


def test_tokenize_node_decl():
    tokens, diags = lex("node p: POS")
    assert not diags
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        ("keyword", "node"), ("ident", "p"), ("punct", ":"), ("ident", "POS")]


def test_tokenize_arrows():
    tokens, _ = lex("a -> b <-> c |-> d ?> e -o f ~> g")
    arrows = [t.text for t in tokens if t.kind == "arrow"]
    assert arrows == ["->", "<->", "|->", "?>", "-o", "~>"]


def test_unterminated_string():
    _, diags = tokenize('"unclosed')
    assert [d.code for d in diags] == ["E001"]
    assert diags[0].span.col == 1


def test_illegal_character():
    _, diags = tokenize("node p: POS $")
    assert [d.code for d in diags] == ["E001"]


def test_comments_are_discarded():
    tokens, _ = lex("// hello\nnode p: POS // trailing\n")
    assert all(t.kind != "string" for t in tokens)
    assert tokens[0].text == "node"
    assert tokens[0].span.line == 2


def test_spans_cover_positions():
    tokens, _ = lex('node p: POS\nedge a -> b\n')
    for token in tokens:
        assert token.span.line >= 1 and token.span.col >= 1


# source -> tokens as (kind, text, line, col, length), E001s as (message, line, col)
TOKEN_POSITIONS = {
    "tab_and_crlf": ("node\tp:\r\n\tPOS\r\n", [
        ("keyword", "node", 1, 1, 4), ("ident", "p", 1, 6, 1), ("punct", ":", 1, 7, 1),
        ("ident", "POS", 2, 2, 3), ("eof", "", 3, 1, 0)], []),
    # a string's length is its unescaped length; its raw width moves the column
    "string_escapes": ('x "a\\"b\\\\c" y', [
        ("ident", "x", 1, 1, 1), ("string", 'a"b\\c', 1, 3, 5), ("ident", "y", 1, 13, 1),
        ("eof", "", 1, 14, 0)], []),
    "open_string_at_newline": ('a "abc\nb', [
        ("ident", "a", 1, 1, 1), ("ident", "b", 2, 1, 1), ("eof", "", 2, 2, 0)],
        [("unterminated string literal", 1, 3)]),
    "open_string_at_end": ('a "abc\\', [("ident", "a", 1, 1, 1), ("eof", "", 1, 8, 0)],
                           [("unterminated string literal", 1, 3)]),
    "illegal_characters": ("a $ \u00e9\u00a0b", [
        ("ident", "a", 1, 1, 1), ("ident", "b", 1, 7, 1), ("eof", "", 1, 8, 0)],
        [("illegal character '$'", 1, 3), ("illegal character '\u00e9'", 1, 5),
         ("illegal character '\\xa0'", 1, 6)]),
    # \d matches any Unicode decimal digit; identifiers are ASCII
    "non_ascii_digits": ("\u0663\u0664 x1 \u0661.\u0662", [
        ("number", "\u0663\u0664", 1, 1, 2), ("ident", "x1", 1, 4, 2),
        ("number", "\u0661.\u0662", 1, 7, 3), ("eof", "", 1, 10, 0)], []),
    # eof sits at the end of the input, also after a comment with no newline
    "comment_at_end": ("node p\n  // trailing", [
        ("keyword", "node", 1, 1, 4), ("ident", "p", 1, 6, 1), ("eof", "", 2, 14, 0)], []),
    # the last character is a quote, but an escaped one: the string stays open
    "open_string_at_escaped_quote": ('x "abc\\"', [("ident", "x", 1, 1, 1), ("eof", "", 1, 9, 0)],
                                     [("unterminated string literal", 1, 3)]),
    "string_ending_in_escaped_backslash": ('x "a\\\\" y', [
        ("ident", "x", 1, 1, 1), ("string", "a\\", 1, 3, 2), ("ident", "y", 1, 9, 1),
        ("eof", "", 1, 10, 0)], []),
    "empty_string": ('x "" y', [
        ("ident", "x", 1, 1, 1), ("string", "", 1, 3, 0), ("ident", "y", 1, 6, 1),
        ("eof", "", 1, 7, 0)], []),
}


@pytest.mark.parametrize("source, expected, lexical", TOKEN_POSITIONS.values(),
                         ids=TOKEN_POSITIONS)
def test_token_positions(source, expected, lexical):
    tokens, diags = lex(source)
    assert [(t.kind, t.text, t.span.line, t.span.col, t.span.length) for t in tokens] == expected
    assert [(d.code, d.message, d.span.line, d.span.col) for d in diags] == \
        [("E001", *e001) for e001 in lexical]


def test_positions_after_an_escaped_newline_are_physical():
    tokens, _ = lex('diagram "a\\\nb" {\n  node')
    assert [(t.text, t.span.line, t.span.col) for t in tokens] == [
        ("diagram", 1, 1), ("a\nb", 1, 9), ("{", 2, 4), ("node", 3, 3), ("", 3, 7)]


def test_tokenize_matches_character_loop_on_odd_input():
    # pinned quirks and random bytes; the reference counts no line for a
    # newline escaped inside a string, so such sources are left out
    rng = random.Random(20261019)
    sources = [source for source, _, _ in TOKEN_POSITIONS.values()]
    sources += [bytes(rng.randrange(256) for _ in range(rng.randrange(64))).decode("latin-1")
                for _ in range(2000)]
    for source in sources:
        if "\\\n" not in source:
            assert lex(source) == reference_tokenize(source), source


# characters where one lexeme can end and another begin: quotes, escapes,
# comment and arrow parts, a non-ASCII digit, illegal characters, whitespace
BOUNDARY = ['"', "\\", "/", "-", "<", ">", "|", "?", "~", "o", ".", "_", "٣", "é",
            "\xa0", "#", *":{}()[],=@^;", " ", "\t", "\r", "\n"]
ALNUM = string.ascii_letters + string.digits


def test_tokenize_matches_character_loop_at_lexeme_boundaries():
    rng = random.Random(20261020)
    seen: Counter[str] = Counter()
    while seen["source"] < 20_000:
        source = "".join(rng.choice(BOUNDARY) if rng.random() < 0.8 else rng.choice(ALNUM)
                         for _ in range(rng.randrange(1, 16)))
        if "\\\n" in source:  # as above
            continue
        seen["source"] += 1
        tokens, diags = lex(source)
        assert (tokens, diags) == reference_tokenize(source), source
        kinds = [t.kind for t in tokens]
        seen.update(kinds)
        seen.update(d.message.split(" ")[0] for d in diags)  # unterminated, illegal
        seen["escaped string"] += "string" in kinds and "\\" in source
        seen["comment"] += "//" in source
    for case in ("arrow", "string", "number", "punct", "unterminated", "illegal",
                 "escaped string", "comment"):
        assert seen[case] >= 50, (case, seen)


def test_tokenize_builds_no_token_or_span(monkeypatch):
    built: Counter[str] = Counter()
    def counting(cls, *args, _new=Span.__new__):
        built["Span"] += 1
        return _new(cls, *args)
    monkeypatch.setattr(Span, "__new__", counting)
    tokens, diags = tokenize(wide_source(1000))
    assert diags == [] and len(tokens) == 44_009
    assert built == Counter()
    assert tokens.span(2) == Span(2, 1, 7) and built == {"Span": 2}


def test_tokenize_matches_no_pattern_for_a_string_without_backslash(monkeypatch):
    calls: Counter[str] = Counter()
    def counting(name, pattern):
        def count(method):
            def counted(*args):
                calls[name] += 1
                return method(*args)
            return counted
        return SimpleNamespace(fullmatch=count(pattern.fullmatch), sub=count(pattern.sub))
    monkeypatch.setattr(dial.parser, "_STRING_RE", counting("string", dial.parser._STRING_RE))
    monkeypatch.setattr(dial.parser, "_ESCAPE_RE", counting("escape", dial.parser._ESCAPE_RE))
    tokens, diags = tokenize(wide_source(1000))
    assert diags == [] and tokens.kinds.count("string") == 1001
    assert calls == Counter()
    tokens, diags = tokenize(" ".join(f'"a\\"{i}\\\\"' for i in range(7)))
    assert diags == [] and tokens.texts == [f'a"{i}\\' for i in range(7)] + [""]
    assert calls == {"string": 7, "escape": 7}


def test_tokenize_makes_one_match_per_token(monkeypatch):
    # the blanks after a lexeme ride on its match, so no match is whitespace
    found: list[int] = []
    def findall(*args, _findall=dial.parser._TOKEN_RE.findall):
        matches = _findall(*args)
        found.append(len(matches))
        return matches
    monkeypatch.setattr(dial.parser, "_TOKEN_RE", SimpleNamespace(findall=findall))
    tokens, diags = tokenize(wide_source(1000))
    assert diags == [] and found == [len(tokens) - 1]


def test_tokenize_keeps_one_object_per_distinct_text():
    tokens, _ = tokenize(wide_source(1000))
    assert len({id(text) for text in tokens.texts}) == len(set(tokens.texts)) == 3783


def test_tokenize_frees_each_match_once_it_is_read():
    # what tokenize holds at its peak beyond the tokens it returns is small
    # beside them: the match list is not kept whole beside the kept texts
    source = wide_source(1000)
    tokenize(source)  # compiled patterns and caches are not part of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tokens, diags = tokenize(source)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = current - before
    assert diags == [] and len(tokens) == 44_009
    assert peak - current <= kept / 8, (peak - current, kept)


# blanks are " \t\r\n" only; every other control or space character is illegal
ODD_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"]


@pytest.mark.parametrize("source", [
    " \t\r\n \n\t", "\n\n  \ndial 0.1\n",
    'dial 0.1\r\ndialect sys\r\ndiagram "D" {\r\n\tnode a: POS\r\n\t\tedge a -> b\r\n}\r\n',
    "node a: POS  // no newline after this comment \t",
    'node a: "open   \n \t\r\n', 'table t { "k": "open  \t',
    'node a: "open\\ ', 'node a: "open\\\t  \n',
    *[f"{space}node{space}" for space in ODD_SPACES],
    *[f"a {space} b{space}\n" for space in ODD_SPACES],
])
def test_tokenize_matches_character_loop_on_whitespace(source):
    assert lex(source) == reference_tokenize(source)


def spans_in(value) -> list[Span]:
    """Every :class:`Span` inside records, tuples, lists and dicts."""
    if isinstance(value, Span):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [span for item in value for span in spans_in(item)]
    return []


def test_valid_compile_builds_no_span_or_line_table(monkeypatch):
    sources = [wide_source(1000)] + [path.read_text() for path in
                                     sorted(Path("corpus/pass").glob("*.dial"))]
    built: Counter[str] = Counter()
    def counting(cls, *args, _new=Span.__new__):
        built["Span"] += 1
        return _new(cls, *args)
    def line_starts(source, _build=dial.parser._line_starts):
        built["line table"] += 1
        return _build(source)
    monkeypatch.setattr(Span, "__new__", counting)
    monkeypatch.setattr(dial.parser, "_line_starts", line_starts)
    for source in sources:
        result = compile_source(source)
        assert result.diagnostics == [] and spans_in(result.lint()) == []
        assert result.render("svg").startswith("<?xml")
        ast, diags = parse(tokenize(source)[0])
        unit = lower(ast)
        assert diags == unit.diagnostics == []
        assert spans_in(ast) == spans_in(unit.spans) == []
    assert built == Counter()


# -- parser ------------------------------------------------------------------


def test_minimal_unit():
    ast, diags = parse_source(MINIMAL)
    assert not diags
    assert ast.name == "D" and ast.items == ()


def test_missing_brace():
    ast, diags = parse_source('dial 0.1\ndialect sys\ndiagram "D"\n')
    assert any(d.code == "E002" and "'{'" in d.message for d in diags)


def test_three_declarations_in_order():
    ast, diags = parse_source(wrap("node a: POS", "node b: NER", "edge a -> b"))
    assert not diags
    assert len(ast.items) == 3


def test_error_recovery_reports_both():
    src = wrap("node a POS", "node b: NER", "edge a -> -> b")
    _, diags = parse_source(src)
    assert sum(1 for d in diags if d.code == "E002") >= 2


def test_unsupported_version():
    _, diags = parse_source('dial 0.2\ndialect sys\ndiagram "D" { }\n')
    assert any(d.code == "E002" and "version" in d.message for d in diags)


def test_perf_acc_bounds_checked():
    _, diags = parse_source(wrap('node p: POS perf(acc=1.5@"x")'))
    assert any(d.code == "E002" and "acc" in d.message for d in diags)


@pytest.mark.parametrize("perf, kept", [('acc=2@"c"', ()),
                                        ('f1=0.5@"d", acc=2@"c"', (("f1", 0.5, "d"),))])
def test_an_out_of_range_acc_is_reported_and_left_out_of_the_tree(perf, kept):
    # the E002 sits on the value; the tree keeps the node and its other
    # entries, so lowering it returns diagnostics instead of raising
    src = wrap(f"node a: NER perf({perf})")
    ast, diags = parse_source(src)
    line = src.splitlines()[3]
    assert [(d.code, d.message, d.span) for d in diags] == [
        ("E002", "acc must lie in [0,1]", Span(4, line.index("2@") + 1, 1))]
    assert [(p.metric, p.value, p.corpus) for p in ast.items[0].perf] == list(kept)
    unit = lower(ast)
    assert unit.diagnostics == []
    assert [tuple(p) for p in unit.diagram.nodes[0].perf] == list(kept)


def test_diagnostic_spans_inside_input():
    src = wrap("node a POS")
    lines = src.splitlines()
    _, diags = parse_source(src)
    for d in diags:
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.col <= len(lines[d.span.line - 1]) + 1


DECLARATION = "expected a declaration (node, data, edge, detail, table, embedding or extend), found"


@pytest.mark.parametrize("item, errors", [
    ('table t { "}": "v"; }', []),
    ("table t { }", [("E002", 4, 13, "a table needs at least one row")]),
    ('"node" a: POS', [("E002", 4, 3, "expected a declaration (node, data, edge, detail, "
                                      "table, embedding or extend), found '\"node\"'")]),
    ('data s: "{" S "}"', [("E002", 4, 11, "malformed data term: expected a data term, "
                                          "found '\"{\"'")]),
    ('data s: S "^" NER', [("E002", 4, 13, "expected a declaration (node, data, edge, "
                                          "detail, table, embedding or extend), found '\"^\"'")]),
    ('node "a": POS', [("E002", 4, 8, "expected node identifier, found '\"a\"'")]),
    ('node a: POS("k"=1)', [("E002", 4, 15, "expected a parameter name, found '\"k\"'")]),
    ('node a: ""', [("E002", 4, 11, "expected symbol or task code, found '\"\"'")]),
    ('node a ":" POS', [("E002", 4, 10, "expected ':', found '\":\"'")]),
    ('data a ":" S', [("E002", 4, 10, "expected ':', found '\":\"'")]),
    ('node a: POS perf(acc"="0.5@"c")', [("E002", 4, 23, "expected '=', found '\"=\"'")]),
    ('node a: POS perf(acc=0.5"@""c")', [("E002", 4, 27, "expected '@', found '\"@\"'")]),
    ('edge a "." b -> c', [("E002", 4, 10, "expected an arrow (->, <->, |->, ?>, -o, ~>), "
                                          "found '\".\"'")]),
    ('node a: POS "(" n=2 ")"', [("E002", 4, 15, DECLARATION + " '\"(\"'")]),
    ('node a: POS "perf"(acc=0.5@"c")', [("E002", 4, 15, DECLARATION + " '\"perf\"'")]),
    ('data a: S "@"gold', [("E002", 4, 13, DECLARATION + " '\"@\"'")]),
    ('edge a -> b "as" S', [("E002", 4, 15, DECLARATION + " '\"as\"'")]),
], ids=["table_key", "empty_table", "keyword", "term_bracket", "term_caret", "expect", "param_name",
        "empty_string", "node_colon", "data_colon", "perf_equals", "perf_at", "port_dot",
        "node_params", "node_perf", "data_tag", "edge_as"])
def test_a_string_is_never_punctuation_or_keyword(item, errors):
    # a misplaced string is shown with its quotes, never as the text it spells
    src = wrap(item)
    got = compile_source(src).diagnostics
    assert [(d.code, d.span.line, d.span.col, d.message) for d in got] == errors
    assert (format_source(src)[0] is None) == bool(errors)
    compare_front_end(src)  # and the reference parser reads it so too


def test_detail_sides_and_placements_reach_the_diagram():
    src = wrap("node f: POS", "detail g for f exit top {", "  node m: func", "}",
               "detail h for m entry bottom exit left {", "}",
               'table t at top_left { "k": "v"; }').replace('"T" {', '"T" at bottom_right {')
    unit = lower_source(src)
    sides = {g.id: (g.entry_side, g.exit_side) for g in unit.diagram.groups}
    assert sides == {"g": ("left", "top"), "h": ("bottom", "left")}
    assert unit.diagram.title_placement == "bottom_right"
    assert [t.placement for t in unit.diagram.tables] == ["top_left"]


# the block after the name at fault is stepped over whole, so the name is the
# only diagnostic
@pytest.mark.parametrize("src, line, col, message", [
    (wrap("node f: POS", "detail g for f entry middle { node m: NER }"), 5, 24,
     "unknown side 'middle'"),
    (wrap("node f: POS", "detail g for f exit up { }"), 5, 23, "unknown side 'up'"),
    (wrap("node f: POS", 'table t at center { "k": "v"; }'), 5, 14, "unknown region 'center'"),
    (MINIMAL.replace('"D" {', '"D" at middle {'), 3, 16, "unknown region 'middle'"),
], ids=["entry", "exit", "table", "title"])
def test_unknown_side_or_region_is_e002(src, line, col, message):
    _, diags = parse_source(src)
    assert [(d.code, d.span.line, d.span.col, d.message) for d in diags] == [
        ("E002", line, col, message)]


# -- lowering ----------------------------------------------------------------


def test_lower_operator_params():
    unit = lower_source(wrap("data x: Term", "data y: Term",
                             "node s1: sim(metric=cosine)",
                             "edge x -> s1", "edge y -> s1"))
    node = unit.diagram.node_by_id("s1")
    assert node.kind == "operator"
    assert node.param("metric") == "cosine"


def test_a_detail_owner_comes_before_its_block_while_an_edge_may_name_a_later_node():
    early = lower_source(wrap("edge a -> b", "detail g for b { node m: NER }",
                              "node a: POS", "node b: NER"))
    assert [(d.code, d.message) for d in early.diagnostics] == [
        ("E011", "detail group 'g' refines unknown node 'b'")]
    late = lower_source(wrap("edge a -> b", "node a: POS", "node b: NER",
                             "detail g for b { node m: NER }"))
    assert late.diagnostics == []
    assert [(e.source.node, e.target.node) for e in late.diagram.edges] == [("a", "b")]
    assert [(g.id, g.owner) for g in late.diagram.groups] == [("g", "b")]


def test_lower_gold_data_decl():
    unit = lower_source(wrap("data gold1: T @gold"))
    node = unit.diagram.node_by_id("gold1")
    assert node.kind == "resource" and node.code == "gold"
    assert node.param("out") == "T"


def test_duplicate_node_id():
    unit = lower(parse_source(wrap("node a: POS", "node a: POS"))[0])
    assert [d.code for d in unit.diagnostics] == ["E003"]


def test_bad_term_in_data_decl():
    unit = lower(parse_source(wrap("data x: S^Zebra"))[0])
    assert [d.code for d in unit.diagnostics] == ["E004"]


def test_bare_target_slots_fill_in_order():
    unit = lower_source(wrap("data x: Term", "data y: Term",
                             "node s1: sim", "edge x -> s1", "edge y -> s1"))
    slots = [e.target.slot for e in unit.diagram.edges]
    assert slots == [0, 1]


def test_named_ports():
    unit = lower_source(wrap("data x: T", "node c: cond(pred=nonempty)",
                             "node v1: verify", "node v2: verify",
                             "edge x -> c", "edge c.true -> v1",
                             "edge c.false -> v2"))
    edges = unit.diagram.edges
    assert edges[1].source.slot == 0
    assert edges[2].source.slot == 1


def test_detail_groups_collect_members():
    unit = lower_source(wrap("data x: S", "node p: POS",
                             "detail dz for p { data gi: S", "  node f: func",
                             "  edge gi -> f }", "edge x -> p"))
    group = unit.diagram.groups[0]
    assert set(group.member_nodes) == {"gi", "f"}
    assert len(group.member_edges) == 1
    assert group.owner == "p"


def test_extension_labels_resolve_in_terms():
    unit = lower_source(wrap(
        "extend task LangID { domain: S; range: S^Lang; }",
        "data x: S^Lang"))
    assert not unit.diagnostics


def test_extension_collision_is_reported():
    unit = lower(parse_source(wrap(
        "extend symbol POS { glyph: op_func; }"))[0])
    assert [d.code for d in unit.diagnostics] == ["E003"]


@pytest.mark.parametrize("second", [
    "extend symbol z { glyph: op_cond; }",
    "extend task z { domain: S; range: S; }",
], ids=["symbol_twice", "task_beside_symbol"])
def test_repeated_extension_code_is_e003(second):
    # like a repeated node id; the later block neither replaces nor shadows the first
    unit = lower(parse_source(wrap("extend symbol z { glyph: op_func; }", second))[0])
    assert [(d.code, d.message, d.span.line, d.span.col) for d in unit.diagnostics] == [
        ("E003", "duplicate extension code 'z'", 5, 3)]
    found = unit.registry.resolve("z", frozenset({"sys"}))
    assert node_kind(found) == "operator" and found.glyph_id == "op_func"


@pytest.mark.parametrize("block, message", [
    ("extend symbol z { colour: red; }",
     "extend symbol 'z' takes no field 'colour' (fields: name, glyph, arity, category)"),
    ("extend task Q { domain: S; range: S; arity: 1..1 -> 1..1; }",
     "extend task 'Q' takes no field 'arity' (fields: domain, range)"),
    ("extend symbol z { glyph: op_func; glyph: op_cond; }",
     "extend symbol 'z' gives field 'glyph' twice"),
    ("extend task Q { domain: S; range: S; range: T; }",
     "extend task 'Q' gives field 'range' twice"),
    ("extend symbol z { category: bogus; }",
     "extend symbol 'z' has category 'bogus', not one of operator, resource, nn, meta"),
    ("extend symbol z { arity: 5..2 -> 1..1; }",
     "extend symbol 'z' has input arity 5..2: minimum above maximum"),
    ("extend symbol z { arity: 1..2 -> 3..0; }",
     "extend symbol 'z' has output arity 3..0: minimum above maximum"),
    ("extend task T { domain: S; }", "extension task 'T' needs domain and range"),
], ids=["symbol_unknown_field", "task_unknown_field", "symbol_field_twice",
        "task_field_twice", "bad_category", "inverted_input_arity", "inverted_output_arity",
        "task_without_range"])
def test_extension_fields_are_checked(block, message):
    unit = lower(parse_source(wrap(block))[0])
    assert [(d.code, d.message, d.span.line, d.span.col) for d in unit.diagnostics] == [
        ("E003", message, 4, 3)]


def test_extension_with_every_field_is_clean():
    unit = lower(parse_source(wrap(
        'extend symbol z { name: "zed"; glyph: nosuch; arity: 1..2 -> 1..1; category: nn; }',
        "extend task Q { domain: S, T; range: S; }"))[0])
    assert unit.diagnostics == []


# the only diagnostic: a fault before a block's '{' steps over the block, and
# a fault inside it resumes at its ';'
@pytest.mark.parametrize("item, line, col, message", [
    ("embedding e (dim=0)", 4, 20, "embedding dim must be a positive integer"),
    ("embedding e (dim=1.5)", 4, 20, "embedding dim must be a positive integer"),
    ("extend foo X { }", 4, 10, "extend introduces either a symbol or a task"),
    ("extend symbol X { name: (; }", 4, 27, "expected a field value, found '('"),
], ids=["dim_zero", "dim_fraction", "extend_neither", "field_value"])
def test_malformed_embedding_or_extend_is_e002(item, line, col, message):
    _, diags = parse_source(wrap(item))
    assert [(d.code, d.span.line, d.span.col, d.message) for d in diags] == [
        ("E002", line, col, message)]


def checked_declarations(ast) -> list[tuple[str, str, str | None]]:
    """What lowering and validation say about a parsed unit's declarations."""
    unit = lower(ast)
    diags = unit.diagnostics + validate_structure(unit.diagram, unit.registry)[0]
    return [(d.code, d.message, d.ir_path) for d in diags]


@pytest.mark.parametrize("block, errors", [
    ('table t { "k" "v"; "k2": 5; "k3": "w"; }',
     [(4, 17, "expected ':', found '\"v\"'"), (4, 28, "expected row value string, found '5'")]),
    ("extend task Q { domain S; range: S^Lang; arity 1; }",
     [(4, 26, "expected ':', found 'S'"), (4, 50, "expected ':', found '1'")]),
], ids=["table", "extend"])
def test_a_syntax_error_in_a_block_body_resumes_at_its_semicolon_or_brace(block, errors):
    # each faulty entry resumes at its own ';', the block ends at its own '}',
    # and every later declaration is parsed and checked as if the block were
    # not there; a later syntax error is still found
    later = ("node a: POS", "node b: Bogus", "edge a -> b")
    ast, diags = parse_source(wrap(block, *later, "node c POS"))
    assert [(d.span.line, d.span.col, d.message) for d in diags] == errors + [
        (8, 10, "expected ':', found 'POS'")]
    assert not any("trailing input" in d.message for d in diags)
    assert [type(item).__name__ for item in ast.items] == ["NodeDecl", "NodeDecl", "EdgeDecl"]
    assert [(item.id, item.code) for item in ast.items[:2]] == [("a", "POS"), ("b", "Bogus")]
    clean, _ = parse_source(wrap(*later))
    assert checked_declarations(ast) == checked_declarations(clean) == [
        ("E010", "code 'Bogus' does not resolve in dialects {sys}", "b")]


@pytest.mark.parametrize("block, error", [
    ("extend foo X { name: y; }", (4, 10, "extend introduces either a symbol or a task")),
    ('table t at center { "k": "v"; }', (4, 14, "unknown region 'center'")),
    ("detail g for a entry middle { node z: POS }", (4, 24, "unknown side 'middle'")),
], ids=["extend", "table", "detail"])
def test_a_fault_in_a_block_header_steps_over_the_block(block, error):
    # the first '{' after the fault opens the block, which is skipped through
    # its matching '}'; every later declaration is parsed and checked as if
    # the block were not there
    later = ("node a: POS", "node b: Bogus", "edge a -> b")
    ast, diags = parse_source(wrap(block, *later, "node c POS"))
    assert [(d.span.line, d.span.col, d.message) for d in diags] == [
        error, (8, 10, "expected ':', found 'POS'")]
    assert not any("trailing input" in d.message for d in diags)
    assert [type(item).__name__ for item in ast.items] == ["NodeDecl", "NodeDecl", "EdgeDecl"]
    clean, _ = parse_source(wrap(*later))
    assert checked_declarations(ast) == checked_declarations(clean) == [
        ("E010", "code 'Bogus' does not resolve in dialects {sys}", "b")]


@pytest.mark.parametrize("item, message", [
    ('table t { "k" "v"; } {', "expected ':', found '\"v\"'"),
    ('"table" {', "expected a declaration (node, data, edge, detail, table, embedding or "
                  "extend), found '\"table\"'"),
], ids=["after_the_body", "string"])
def test_a_stray_brace_is_no_block_to_step_over(item, message):
    # only a block keyword whose header failed owns the next '{'; here it is
    # one more token to skip, not a block that would swallow what follows
    _, diags = parse_source(wrap(item, "node a: POS", "node b POS"))
    assert [d.message for d in diags] == [message, "expected ':', found 'POS'"]


@pytest.mark.parametrize("source", [
    'table t { "k" "v";', 'table t { "k" "v"', 'table t { "k": "v";\n  node a: POS',
    "extend task Q { domain S;", "extend task Q { domain S; node a: POS\n}",
    'table t at center { "k": "v";\n  node a: POS',
], ids=["table_after_semicolon", "table_inside_row", "table_then_item", "extend",
        "extend_then_item", "header_then_item"])
def test_a_block_body_without_its_brace_ends_in_diagnostics(source):
    result = compile_source(f'dial 0.1\ndialect sys\ndiagram "T" {{\n  {source}\n')
    assert result.failed and result.typed is None
    assert {d.code for d in result.diagnostics} == {"E002"}
    assert result.diagnostics[-1].message == "unexpected end of input, expected '}'"


def test_source_ending_inside_extend_is_e002():
    _, diags = parse_source('dial 0.1\ndialect sys\ndiagram "T" {\n  extend symbol X { name: y;')
    assert (diags[0].code, diags[0].message) == ("E002", "unexpected end of input inside extend")


@pytest.mark.parametrize("item, col, message", [
    ("data x: (S", 13, "malformed data term: expected ')', found 'end of input'"),
    ("data x:", 10, "malformed data term: expected a data term, found 'end of input'"),
    ("node a: POS(", 15, "expected a parameter name, found 'end of input'"),
    ("node a: POS(k=", 17, "expected a parameter value, found 'end of input'"),
    ("extend symbol s { name:", 26, "expected a field value, found 'end of input'"),
], ids=["term_closer", "term", "param_name", "param_value", "field_value"])
def test_a_source_ending_inside_an_item_names_the_end_of_input(item, col, message):
    # the end-of-input token's text is empty; a message shows it by name
    _, diags = parse_source(f'dial 0.1\ndialect sys\ndiagram "T" {{\n  {item}')
    assert (diags[0].code, str(diags[0].span), diags[0].message) == ("E002", f"4:{col}", message)


@pytest.mark.parametrize("item, code, message", [
    ("extend task T { domain: Bogus; range: S; }", "E004",
     "in extension 'T': unknown data category 'Bogus'"),
    ("node a: func(shape=round)", "E003", "shape must be feature or component, got 'round'"),
], ids=["task_unknown_category", "unknown_shape"])
def test_lowering_rejects_the_declaration(item, code, message):
    unit = lower(parse_source(wrap(item))[0])
    assert [(d.code, d.message, d.span.line, d.span.col) for d in unit.diagnostics] == [
        (code, message, 4, 3)]


def test_labels_of_a_duplicate_extension_are_not_registered():
    unit = lower(parse_source(wrap("extend task LangID { domain: S; range: S^Lang; }",
                                   "extend task LangID { domain: S; range: S^Other; }",
                                   "data e: T^Other"))[0])
    assert [(d.code, d.message) for d in unit.diagnostics] == [
        ("E003", "duplicate extension code 'LangID'"),
        ("E004", "unknown classification label 'Other'")]


@pytest.mark.parametrize("blocks, message", [
    (["extend task POS { domain: S; range: S^Lang; }"], "'POS' is a builtin code"),
    (["extend task Q { range: S^Lang; }"], "extension task 'Q' needs domain and range"),
    (["extend task Q { domain: S; range: S; }", "extend task Q { domain: S; range: S^Lang; }"],
     "duplicate extension code 'Q'"),
], ids=["builtin_code", "without_domain", "duplicate"])
def test_labels_of_a_rejected_extension_are_not_registered(blocks, message):
    unit = lower(parse_source(wrap(*blocks, "data x: S^Lang"))[0])
    assert [(d.code, d.message) for d in unit.diagnostics] == [
        ("E003", message), ("E004", "unknown classification label 'Lang'")]


# -- formatter ---------------------------------------------------------------


def test_format_normalizes_spacing():
    src = 'dial 0.1\ndialect sys\ndiagram "D" {\n  node   a :POS\n}\n'
    formatted, diags = format_source(src)
    assert not diags
    assert "  node a: POS\n" in formatted


def test_format_idempotent_on_canonical_input():
    formatted, _ = format_source(wrap("node a: POS", "data x: S", "edge x -> a"))
    again, _ = format_source(formatted)
    assert again == formatted


def test_format_indents_nested_details():
    src = wrap("node p: POS", "detail dz for p { data gi: S", "  node f: func }")
    formatted, _ = format_source(src)
    assert "\n  detail dz for p {\n    data gi: S\n    node f: func\n  }\n" in formatted


def test_format_preserves_ir():
    src = wrap("data x: S", "node p: POS(type=MaxEnt) perf(acc=0.9@\"dev\")",
               "edge x -> p as S", 'table t0 { "k": "v"; }',
               "embedding w (dim=300) \"lbl\"",
               'extend symbol sc { name: "linear scaling"; glyph: op_func; arity: 1..1 -> 1..1; }',
               "extend task Cls { domain: S, T; range: P_c[0,1]; }",
               "node s: sc", "node c: Cls")
    formatted, diags = format_source(src)
    assert diags == [] and format_source(formatted) == (formatted, [])
    first = lower(parse_source(src)[0])
    second = lower(parse_source(formatted)[0])
    assert first.diagram == second.diagram
    for code in ("sc", "Cls"):
        assert (first.registry.resolve(code, frozenset({"sys"}))
                == second.registry.resolve(code, frozenset({"sys"})))


# a float literal the lexer reads: at most MAX_DIGITS digits before the point
_FLOAT_LITERALS = st.from_regex(rf"[0-9]{{1,{terms.MAX_DIGITS}}}\.[0-9]{{1,30}}", fullmatch=True)


@settings(deadline=None)
@given(param=_FLOAT_LITERALS, perf=_FLOAT_LITERALS)
@example(param="0.00001", perf="10000000000000000.0")
@example(param="999999999999999999.9", perf="0.000000000000000000000123")
def test_format_prints_floats_the_grammar_reads(param, perf):
    # repr spells 0.00001 as 1e-05 and 10.0 ** 16 as 1e+16, which do not lex
    src = wrap("data x: S", f'node p: POS(w={param}) perf(f1={perf}@"dev")', "edge x -> p")
    formatted, diags = format_source(src)
    assert diags == [] and format_source(formatted) == (formatted, [])
    first, second = compile_source(src), compile_source(formatted)
    assert [d.code for d in second.diagnostics] == [d.code for d in first.diagnostics]
    assert canonical_serialize(second.diagram) == canonical_serialize(first.diagram)


def test_format_source_fails_on_syntax_errors():
    formatted, diags = format_source("dial 0.1 nope")
    assert formatted is None and has_errors(diags)


def test_fuzz_round_trip_small():
    rng = random.Random(20250811)
    from oracles import random_valid_source

    for _ in range(60):
        src = random_valid_source(rng)
        formatted, diags = format_source(src)
        assert formatted is not None, (src, diags)
        again, _ = format_source(formatted)
        assert again == formatted
        a = lower(parse_source(src)[0])
        b = lower(parse_source(formatted)[0])
        assert a.diagram == b.diagram
        assert [d.code for d in a.diagnostics] == [d.code for d in b.diagnostics]


def test_arbitrary_bytes_never_crash():
    rng = random.Random(99)
    for _ in range(2000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48)))
        text = raw.decode("latin-1")
        result = compile_source(text, "<fuzz>")
        assert all(d.code.startswith(("E0", "E1")) for d in result.diagnostics)
        lines = text.splitlines() or [""]
        for d in result.diagnostics:
            if d.span is not None:
                assert 1 <= d.span.line <= len(lines) + 1
                assert d.span.col >= 1


def test_bom_and_binary_input_are_handled(tmp_path):
    from dial.cli import compile_file

    bom = tmp_path / "bom.dial"
    bom.write_bytes("﻿".encode("utf-8")
                    + b'dial 0.1\ndialect sys\ndiagram "B" { }\n')
    assert compile_file(str(bom)).diagnostics == []

    binary = tmp_path / "junk.dial"
    binary.write_bytes(bytes(range(256)))
    result = compile_file(str(binary))
    assert result.failed
    assert all(d.code in ("E001", "E002") for d in result.diagnostics)


# -- differential check against the earlier front end ------------------------

FRONT_END_CASES = {  # case -> least number of sources (of 2,400) that show it
    "duplicate declaration id": 200,
    "refines unknown node": 300,
    "edge references unknown node": 500,
    "malformed data term": 250,
    "data term nested deeper": 70,
    "found 'end of input'": 20,  # the input ends inside a term
    "expected a parameter name": 150,
    "expected a parameter value": 50,
    "expected metric": 45,  # a perf entry without its name or value
    "acc must lie in [0,1]": 60,
    "expected a side": 50,
    "unknown side": 50,
    "expected a region": 30,
    "unknown region": 25,
    "nested detail": 150,
    "group of two nodes": 200,
    "group of two edges": 40,
}


QUOTED_MARK = re.compile(f"""found '"(?:{MARK_RE.pattern})"'""")


def relaid(rng: random.Random, source: str) -> str:
    """``source`` with a leading blank line, tab indents, trailing blanks,
    CRLF line ends and ``//`` comment lines between its lines."""
    lines = [rng.choice(("", " ", "\t ")) + "\r\n"]
    for line in source.split("\n"):
        body = line.lstrip(" ")
        lines.append("\t" * ((len(line) - len(body)) // 2) + body
                     + rng.choice(("", " ", "\t", " \t ")) + "\r\n")
        if rng.random() < 0.3:
            lines.append(rng.choice(("", "\t", "  ")) + "// between declarations\r\n")
    return "".join(lines)


def compare_front_end(src: str):
    """The front end's tokens, AST, diagnostics and lowered unit of ``src``,
    checked against the reference; None when the parse gives no AST."""
    tokens, lex_diags = tokenize(src)
    ref_tokens, ref_lex_diags = reference_tokenize(src)
    assert (token_list(tokens), lex_diags) == (ref_tokens, ref_lex_diags), src
    ast, diags = parse(tokens)
    assert (ast, diags) == reference_parse(ref_tokens, src), src
    if ast is None:
        return None
    unit, ref = lower(ast), reference_lower(ast)
    assert unit.diagram == ref.diagram, src
    assert unit.spans == ref.spans, src
    assert unit.diagnostics == ref.diagnostics, src
    token_spans = {token.span for token in ref_tokens}  # lowering reports at a token
    assert all(d.span in token_spans for d in unit.diagnostics), src
    return ast, diags, unit


def test_front_end_matches_quadratic_reference():
    # the flat token stream, the term reader over its lists and the lowering
    # maps give the same tokens, spans, offsets, AST, diagnostics and lowered
    # unit as the character loop, the earlier copying reader over triples and
    # scans; each unmutated source also once more, laid out differently. Some
    # sources quote a mark where one is expected: a string is never that mark
    rng, relay, quoter = random.Random(20261018), random.Random(20261021), random.Random(40)
    seen: Counter[str] = Counter()
    for i in range(2400):
        src = random_front_end_source(rng, quoter)
        if i % 3:
            src = mutate_source(rng, src)
        else:
            seen["re-laid"] += compare_front_end(relaid(relay, src)) is not None
        compared = compare_front_end(src)
        if compared is None:
            continue
        ast, diags, unit = compared
        messages = [d.message for d in diags + unit.diagnostics]
        groups = unit.diagram.groups if unit.diagram else []
        seen.update({case for case in FRONT_END_CASES
                     if any(case in message for message in messages)})
        seen["nested detail"] += any(isinstance(item, DetailDecl) and any(
            isinstance(inner, DetailDecl) for inner in item.items) for item in ast.items)
        seen["group of two nodes"] += any(len(g.member_nodes) > 1 for g in groups)
        seen["group of two edges"] += any(len(g.member_edges) > 1 for g in groups)
        seen["quoted mark"] += any(QUOTED_MARK.search(message) for message in messages)
    for case, least in FRONT_END_CASES.items():
        assert seen[case] >= least, (case, seen)
    assert seen["quoted mark"] >= 200, seen  # a string found where its mark is expected
    assert seen["re-laid"] >= 750, seen  # re-laid sources that parsed and lowered


# -- scaling guards ------------------------------------------------------------


def wide_source(pipelines: int) -> str:
    # data -> POS -> NER pipelines with an `as` term; every 4th has a detail block
    body = []
    for i in range(pipelines):
        body += [f"data d{i}: S^Token", f"node p{i}: POS",
                 f'node e{i}: NER perf(acc=0.9@"corpus")',
                 f"edge d{i} -> p{i}", f"edge p{i} -> e{i} as S^{{POS,Token}}"]
        if i % 4 == 3:
            body += [f"detail z{i} for e{i} {{", f"  data z{i}_in: S^{{NER,Names}}",
                     f"  node z{i}_fn: func", f"  edge z{i}_in -> z{i}_fn", "}"]
    return wrap(*body)


def best_of_two(run) -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def test_parse_reads_data_terms_in_place():
    # each term costs its own tokens: 1000 pipelines parse in well under a
    # second (copying the rest of the file at every term took 12 s)
    tokens, lex_diags = tokenize(wide_source(1000))
    ast, diags = parse(tokens)
    assert lex_diags == diags == [] and len(ast.items) == 5250
    assert best_of_two(lambda: parse(tokens)) < 0.5


def test_lower_scales_with_detail_groups():
    # 5000 one-node groups: member lists grow in place and ids are looked up
    # in maps (scanning the node and group lists took 7.8 s)
    body = []
    for i in range(5000):
        body += [f"node o{i}: func", f"detail g{i} for o{i} {{", f"  node f{i}: func", "}"]
    ast, diags = parse_source(wrap(*body))
    assert ast is not None and diags == []
    unit = lower(ast)
    assert unit.diagnostics == [] and len(unit.diagram.groups) == 5000
    assert unit.diagram.groups[-1].member_nodes == ("f4999",)
    assert best_of_two(lambda: lower(ast)) < 1.0


def test_lower_scans_no_node_list(monkeypatch):
    n = 2000
    decls = ["data t0: S^Token"] + [f"node t{i}: POS" for i in range(1, n)]
    ast, _ = parse_source(wrap(*decls, *(f"edge t{i} -> t{i + 1}" for i in range(n - 1))))
    calls = 0
    real = Diagram.node_by_id

    def counting(self, node_id):
        nonlocal calls
        calls += 1
        return real(self, node_id)

    monkeypatch.setattr(Diagram, "node_by_id", counting)
    unit = lower(ast)
    assert unit.diagnostics == [] and len(unit.diagram.edges) == n - 1
    assert calls == 0


def test_compile_parses_each_distinct_term_once(monkeypatch):
    # lowering and checking share the registry's parse of each literal
    calls: Counter[str] = Counter()
    real = terms.parse_term

    def counting(literal, vocab):
        calls[literal] += 1
        return real(literal, vocab)

    monkeypatch.setattr(terms, "parse_term", counting)
    result = compile_source(wide_source(75))
    assert result.diagnostics == [] and result.typed is not None
    assert calls == {"S^Token": 1, "S^{POS,Token}": 1, "S^{NER,Names}": 1}


# -- work done once per distinct input ------------------------------------------


def term_window_count(source: str) -> int:
    """Distinct windows (a term's tokens and the one after it) of the data
    terms in ``source``'s ``data`` and ``as`` declarations, each term's
    extent found by the reference term reader over the reference tokens."""
    tokens, _ = reference_tokenize(source)
    triples = [(_term_kind(t), _shown(t), i) for i, t in enumerate(tokens)]
    windows = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "keyword" or tok.text not in ("as", "data"):
            continue
        start = i + 1 if tok.text == "as" else i + 3  # past `data ident :`
        reader = ReferenceTermParser(triples, None, start)
        reader.parse()
        windows.add(tuple((t.kind, t.text) for t in tokens[start:reader.index + 1]))
    return len(windows)


def counting_term_parses(monkeypatch) -> Counter[str]:
    """Counts the data terms the DSL parser reads ("reads") and those that
    :class:`TermParser` parses ("parses"; a nested term is parsed at a depth
    above 0)."""
    calls: Counter[str] = Counter()
    real_read, real_parse = dial.parser.Parser._dataterm_literal, terms.TermParser.parse

    def reading(self):
        calls["reads"] += 1
        return real_read(self)

    def parsing(self):
        calls["parses"] += self.depth == 0
        return real_parse(self)

    monkeypatch.setattr(dial.parser.Parser, "_dataterm_literal", reading)
    monkeypatch.setattr(terms.TermParser, "parse", parsing)
    return calls


def test_parse_reads_each_distinct_term_window_once(monkeypatch):
    # 168 terms, 3 literals: `S^Token` before `node`, `S^{NER,Names}` before
    # `node`, and `S^{POS,Token}` before `data`, `detail` and the closing `}`
    source = wide_source(75)
    windows = term_window_count(source)
    tokens, _ = tokenize(source)
    calls = counting_term_parses(monkeypatch)
    ast, diags = parse(tokens)
    assert diags == [] and len(ast.items) == 5 * 75 + 18
    assert calls["reads"] == 168 and windows == 5 and calls["parses"] == windows


def test_terms_sharing_a_first_token_keep_a_bounded_memo():
    n = 2000
    tokens, _ = tokenize(wrap(*(f"data d{i}: S^L{i}" for i in range(n))))
    parser = dial.parser.Parser(tokens)
    ast = parser.parse_unit()
    assert parser.diagnostics == []
    assert [item.term_literal for item in ast.items] == [f"S^L{i}" for i in range(n)]
    assert len(parser.term_windows["S"]) == dial.parser._TERM_WINDOWS


def test_lower_resolves_each_distinct_code_once(monkeypatch):
    ast, _ = parse_source(wrap("data t0: S^Token", *(
        f"node t{i}: {('POS', 'NER', 'SRL')[i % 3]}" for i in range(1, 300)), *(
        f"edge t{i} -> t{i + 1}" for i in range(299))))
    calls: Counter[str] = Counter()
    real = Registry.resolve

    def counting(self, code, dialects):
        calls[code] += 1
        return real(self, code, dialects)

    monkeypatch.setattr(Registry, "resolve", counting)
    unit = lower(ast)
    assert unit.diagnostics == [] and len(unit.diagram.nodes) == 300
    assert calls == {"POS": 1, "NER": 1, "SRL": 1}


def test_records_built_from_a_tuple_check_nothing_and_get_every_field():
    # `_new(Cls, (...))` skips the namedtuple's constructor: no class on this
    # path may check its fields in `__new__`, and none may take a default
    for module, records in (
            (dial.parser, {"PortRef", "NodeDecl", "EdgeDecl", "DataDecl", "Node", "Port", "Edge"}),
            (dial.layout, {"Box"})):
        tree = python_ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        built = set()
        for call in python_ast.walk(tree):
            if not (isinstance(call, python_ast.Call) and isinstance(call.func, python_ast.Name)
                    and call.func.id == "_new"):
                continue
            assert len(call.args) == 2 and not call.keywords, python_ast.unparse(call)
            cls, fields = getattr(module, call.args[0].id), call.args[1]
            assert "__new__" not in vars(cls), cls
            assert isinstance(fields, python_ast.Tuple), python_ast.unparse(call)
            assert len(fields.elts) == len(cls._fields), python_ast.unparse(call)
            built.add(cls.__name__)
        assert built == records, module


MEMO_NEAR_MISSES = [  # a term, and one with the same first tokens but another extent or outcome
    ("S^Token", "S^Token[3]"),
    ("S^{A,B}", "S^{A,B}[2]"),
    ("P_x[0,1]", "P_x"),
    ("(S, T)", "(S, T"),  # the second a malformed term
    ("S^Token", "S^"),
    ("S^{A}", 'S^"{"A"}"'),  # the same texts, but two of them strings
    ("{" * 100 + "S" + "}" * 100, "{" * 101 + "S" + "}" * 101),  # nested past the limit
]


def recurring_term_source(term: str, near: str) -> str:
    """``term`` and ``near`` in turn, each before every token that can end a
    term inside the diagram: ``,``, ``;``, ``@``, ``node``, ``edge``,
    ``detail`` and ``}``."""
    lines = []
    for i, t in enumerate((term, near, term, near)):
        lines += [f"extend task X{i} {{ domain: {t}, {t}; range: {t}; }}",
                  f'data a{i}: {t} @gold("g")',
                  f"data b{i}: {t}",
                  f"node n{i}: POS",
                  f"edge b{i} -> n{i} as {t}",
                  f"edge n{i} -> b{i} as {t}",
                  f"detail g{i} for n{i} {{", f"  data c{i}: {t}", "}"]
    return wrap(*lines)


@pytest.mark.parametrize("term, near", MEMO_NEAR_MISSES,
                         ids=["dims", "label_set_dims", "range", "unclosed", "no_label",
                              "string_texts", "deep"])
def test_a_remembered_term_window_reads_as_the_reference_parser_reads(term, near, monkeypatch):
    source = recurring_term_source(term, near)
    with monkeypatch.context() as patch:
        calls = counting_term_parses(patch)
        parse(tokenize(source)[0])
    assert calls["parses"] < calls["reads"]  # some terms were remembered
    assert compare_front_end(source) is not None
    for t in (term, near):  # and once more at the end of input, with no `}`
        for last in (f"data z: {t}", f"edge b0 -> n0 as {t}"):
            compare_front_end(f"{source.rstrip().removesuffix('}')}  {last}")


INLINE_READ_FAULTS = {  # an item, cut short or wrong, -> what its first diagnostic expects
    "node": "expected node identifier",
    "node a": "expected ':'",
    "node a:": "expected symbol or task code",
    "node a POS": "expected ':'",
    "node 3: POS": "expected node identifier",
    "edge": "expected node reference",
    "edge a": "expected an arrow",
    "edge a ->": "expected node reference",
    "edge a b": "expected an arrow",
    "edge a -> b.": "expected port name",
    "edge a. -> b": "expected port name",
    'edge a "->" b': "expected an arrow",
    "data": "expected data identifier",
    "data a": "expected ':'",
    "data a S": "expected ':'",
    'node a: POS perf(acc 0.5@"c")': "expected '='",
    'node a: POS perf(acc=0.5 "c")': "expected '@'",
    'node a: POS perf(=0.5@"c")': "expected metric name",
    'node a: POS perf(acc=@"c")': "expected metric value",
    "node a: POS perf(acc=0.5@c)": "expected corpus name",
    "node a: POS perf(acc=2@": "acc must lie in [0,1]",
    "node a: POS perf(acc": "expected '='",
}


@pytest.mark.parametrize("item", INLINE_READ_FAULTS)
@pytest.mark.parametrize("end", ["\n}\n", ""], ids=["closed", "end_of_input"])
def test_an_inline_read_reports_what_expect_reports(item, end):
    source = f'dial 0.1\ndialect sys\ndiagram "T" {{\n  {item}{end}'
    tokens, _ = tokenize(source)
    ref_tokens, _ = reference_tokenize(source)
    ast, diags = parse(tokens)
    assert (ast, diags) == reference_parse(ref_tokens, source)
    assert diags[0].code == "E002" and diags[0].message.startswith(INLINE_READ_FAULTS[item])
