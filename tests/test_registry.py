"""Registry conformance: the builtin tables and the extension overlay."""

from __future__ import annotations

import pytest

from dial.cli import compile_source
from dial.diagnostics import CollidesWithBuiltin, UnknownDialect
from dial.parser import lower, parse, tokenize
from dial.registry import (
    META,
    SIGNATURES,
    SYMBOLS,
    Registry,
    Signature,
    Slot,
    SymbolDef,
    list_signatures,
    list_symbols,
    node_kind,
)
from dial.terms import DATA_CATEGORIES, DataTerm, TermError

SYS = frozenset({"sys"})
BOTH = frozenset({"sys", "nn"})


@pytest.fixture
def registry() -> Registry:
    return Registry()


def test_pos_signature(registry):
    [(domain, rng)] = registry.resolve("POS", SYS).variants
    assert [slot.term.base for slot in domain] == ["s_T"]
    assert rng[0].term.base == "s_T"
    assert rng[0].term.annotations == frozenset({"POS"})


def test_abductive_signature(registry):
    [(domain, rng)] = registry.resolve("ABD", SYS).variants
    assert domain[0].term.base == "PredArg"
    assert domain[0].term.annotations == frozenset({"F"})
    assert domain[1].is_resource
    assert rng[0].term.structure == "sequence"
    assert rng[0].term.element.base == "PredArg"


def test_optional_labels_sit_beside_the_pattern(registry):
    [(domain, _)] = registry.resolve("SEMSIM", SYS).variants
    assert domain[0].term == DataTerm(structure="set", element=DataTerm(base="t_T"))
    assert domain[0].optional == frozenset({"entity"})


def test_unknown_task(registry):
    assert registry.resolve("FOO", SYS) is None


def test_rank_symbol(registry):
    sym = registry.resolve("rank", SYS)
    assert sym.glyph_id == "op_rank"
    assert (sym.min_in, sym.max_in) == (1, 1)


def test_bilstm_needs_nn_dialect(registry):
    assert registry.resolve("bilstm", BOTH).dialect == "nn"
    assert registry.resolve("bilstm", SYS) is None


def test_symbol_counts():
    assert len(list_symbols("nn")) == 13
    assert len(list_symbols("sys")) == 30
    with pytest.raises(UnknownDialect):
        list_symbols("log")


def test_signature_count():
    assert len(SIGNATURES) == 26
    assert len({s.code for s in SIGNATURES}) == 26
    with pytest.raises(UnknownDialect, match="unknown dialect 'xx'"):
        list_signatures("xx")


def test_builtin_codes_are_unique_across_tables():
    # the registry indexes both tables by code in one map
    codes = [s.code for s in SIGNATURES] + [s.code for s in SYMBOLS]
    assert len(set(codes)) == len(codes) == 70


def _scan_resolve(registry, code, dialects):
    """``resolve`` as two lookups, each a scan of the builtin table in scope
    before the extension of its record type: signatures first, then symbols."""
    ext = registry._extensions.get(code)
    sig = next((s for s in SIGNATURES if s.code == code and s.dialect in dialects),
               ext if isinstance(ext, Signature) else None)
    if sig is not None:
        return sig
    sym = next((s for s in SYMBOLS if s.code == code and s.dialect in dialects),
               ext if isinstance(ext, SymbolDef) else None)
    if sym is None or sym.category == META:
        return None
    return sym


def test_resolve_agrees_with_the_lookups(registry):
    def ext_symbol(code, category="operator"):
        return SymbolDef(code=code, dialect="ext", name=code, glyph_id="op_func", min_in=1,
                         max_in=1, min_out=1, max_out=1, category=category)
    term = (Slot(DataTerm(base="s_T")),)
    registry.register_extension(ext_symbol("twice"))
    registry.register_extension(Signature(code="twice", dialect="ext", name="twice",
                                          variants=((term, term),)))
    registry.register_extension(ext_symbol("marker", category=META))
    registry.register_extension(ext_symbol("scale"))
    codes = [s.code for s in SIGNATURES] + [s.code for s in SYMBOLS]
    for dialects in (SYS, BOTH, frozenset({"nn"}), frozenset()):
        for code in codes + ["twice", "marker", "scale", "nope"]:
            assert registry.resolve(code, dialects) is _scan_resolve(registry, code, dialects)
    assert node_kind(registry.resolve("twice", SYS)) == "task"
    assert registry.resolve("bilstm", SYS) is None and registry.resolve("POS", frozenset()) is None


def test_category_counts():
    core = [c for c in DATA_CATEGORIES if c.core]
    assert len(core) == 16
    assert len({c.code for c in DATA_CATEGORIES}) == len(DATA_CATEGORIES)


def test_symbol_codes_unique_per_dialect():
    for dialect in ("sys", "nn"):
        codes = [s.code for s in list_symbols(dialect)]
        assert len(codes) == len(set(codes))


def test_kb_resolves_without_a_listing_row(registry):
    sym = registry.resolve("kb", SYS)
    assert sym.category == "resource" and node_kind(sym) == "resource"
    assert all(s.code != "kb" for s in list_symbols("sys"))


def test_register_extension_symbol(registry):
    registry.register_extension(SymbolDef(
        code="linscale", dialect="ext", name="linear scaling",
        glyph_id="op_func", min_in=1, max_in=1, min_out=1, max_out=1,
        category="operator"))
    found = registry.resolve("linscale", SYS)
    assert found is not None and found.dialect == "ext"
    assert node_kind(found) == "operator"


def test_extension_collision(registry):
    with pytest.raises(CollidesWithBuiltin):
        registry.register_extension(SymbolDef(
            code="POS", dialect="ext", name="x", glyph_id="op_func",
            min_in=1, max_in=1, min_out=1, max_out=1, category="operator"))


def test_extension_task_signature():
    # lowering parses an extension's terms against their own labels, then registers both
    source = ('dial 0.1\ndialect sys\ndiagram "x" {\n'
              "  extend task LangID { domain: S; range: S^Lang; }\n}\n")
    assert compile_source(source).diagnostics == []
    registry = lower(parse(tokenize(source)[0])[0]).registry
    [(domain, rng)] = registry.resolve("LangID", SYS).variants
    assert domain == (Slot(DataTerm(base="s_T")),)
    assert rng == (Slot(DataTerm(base="s_T", annotations=frozenset({"Lang"}))),)
    assert "Lang" in registry.labels


def test_extensions_are_compilation_local():
    first = Registry()
    first.register_extension(SymbolDef(
        code="only_here", dialect="ext", name="x", glyph_id="op_func",
        min_in=1, max_in=1, min_out=1, max_out=1, category="operator"))
    assert Registry().resolve("only_here", SYS) is None


def test_meta_symbols_are_not_node_codes(registry):
    for code in ("flow", "zoom", "acc"):
        assert registry.resolve(code, SYS) is None
        assert any(s.code == code and s.category == META for s in SYMBOLS)


def test_lookups_are_pure(registry):
    a = registry.resolve("WSD", SYS)
    b = registry.resolve("WSD", SYS)
    assert a == b and a is b


def test_term_memo_follows_the_vocabulary(registry):
    # a parse is kept per literal for the compile, since the vocabulary only
    # gains labels; a failure is never kept, so it raises again with the same message
    term = registry.parse_term("S^NER")
    assert registry.parse_term("S^NER") is term
    for _ in range(2):
        with pytest.raises(TermError, match="unknown classification label 'Lang'"):
            registry.parse_term("S^Lang")
    registry.register_labels(frozenset({"Lang"}))
    assert registry.parse_term("S^Lang").annotations == frozenset({"Lang"})
    again = registry.parse_term("S^NER")
    assert again == term and again is term
    # registering an extension leaves the vocabulary as it is, and the memo too
    slot = Slot(DataTerm(base="s_T"))
    registry.register_extension(Signature(
        code="LangID", dialect="ext", name="language id", variants=(((slot,), (slot,)),)))
    assert registry.parse_term("S^NER") is again
