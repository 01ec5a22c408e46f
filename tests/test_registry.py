"""Registry conformance: the builtin tables and the extension overlay."""

from __future__ import annotations

import pytest

from dial.diagnostics import CollidesWithBuiltin, UnknownDialect, UnknownSymbol
from dial.registry import (
    DATA_CATEGORIES,
    META,
    SIGNATURES,
    SYMBOLS,
    FormalTerm,
    Registry,
    Resolution,
    Signature,
    SymbolDef,
    kind_for_symbol,
)
from dial.terms import TermError

SYS = frozenset({"sys"})
BOTH = frozenset({"sys", "nn"})


@pytest.fixture
def registry() -> Registry:
    return Registry()


def test_pos_signature(registry):
    [(domain, rng)] = registry.resolve("POS", SYS).signature.variants
    assert [t.base for t in domain] == ["s_T"]
    assert rng[0].base == "s_T"
    assert rng[0].required == frozenset({"POS"})


def test_abductive_signature(registry):
    [(domain, rng)] = registry.resolve("ABD", SYS).signature.variants
    assert domain[0].base == "PredArg"
    assert domain[0].required == frozenset({"F"})
    assert domain[1].is_resource
    assert rng[0].structure == "sequence"
    assert rng[0].element.base == "PredArg"


def test_unknown_task(registry):
    assert registry.resolve("FOO", SYS) is None


def test_rank_symbol(registry):
    sym = registry.lookup_symbol("rank", SYS)
    assert sym.glyph_id == "op_rank"
    assert (sym.min_in, sym.max_in) == (1, 1)


def test_bilstm_needs_nn_dialect(registry):
    assert registry.lookup_symbol("bilstm", BOTH).dialect == "nn"
    with pytest.raises(UnknownSymbol):
        registry.lookup_symbol("bilstm", SYS)


def test_symbol_counts(registry):
    assert len(registry.list_symbols("nn")) == 13
    assert len(registry.list_symbols("sys")) == 30
    with pytest.raises(UnknownDialect):
        registry.list_symbols("log")


def test_signature_count():
    assert len(SIGNATURES) == 26
    assert len({s.task_code for s in SIGNATURES}) == 26


def test_builtin_codes_are_unique_across_tables():
    # the registry indexes both tables by code in one map
    codes = [s.task_code for s in SIGNATURES] + [s.code for s in SYMBOLS]
    assert len(set(codes)) == len(codes) == 70


def _scan_resolve(registry, code, dialects):
    """``resolve`` as two lookups, each a scan of the builtin table in scope
    before the extension table: signatures first, then symbols."""
    sig = next((s for s in SIGNATURES if s.task_code == code and s.dialect in dialects),
               registry._ext_signatures.get(code))
    if sig is not None:
        return Resolution("task", signature=sig, is_extension=sig.dialect == "ext")
    sym = next((s for s in SYMBOLS if s.code == code and s.dialect in dialects),
               registry._ext_symbols.get(code))
    if sym is None or sym.category == META:
        return None
    return Resolution(kind_for_symbol(sym), symbol=sym, is_extension=sym.dialect == "ext")


def test_resolve_agrees_with_the_lookups(registry):
    def ext_symbol(code, category="operator"):
        return SymbolDef(code=code, dialect="ext", name=code, glyph_id="op_func", min_in=1,
                         max_in=1, min_out=1, max_out=1, category=category)
    term = (FormalTerm(base="s_T"),)
    registry.register_extension(ext_symbol("twice"))
    registry.register_extension(Signature(task_code="twice", dialect="ext", name="twice",
                                          variants=((term, term),)))
    registry.register_extension(ext_symbol("marker", category=META))
    registry.register_extension(ext_symbol("scale"))
    codes = [s.task_code for s in SIGNATURES] + [s.code for s in SYMBOLS]
    for dialects in (SYS, BOTH, frozenset({"nn"}), frozenset()):
        for code in codes + ["twice", "marker", "scale", "nope"]:
            assert registry.resolve(code, dialects) == _scan_resolve(registry, code, dialects)
    assert registry.resolve("twice", SYS).kind == "task"
    assert registry.resolve("bilstm", SYS) is None and registry.resolve("POS", frozenset()) is None


def test_category_counts():
    core = [c for c in DATA_CATEGORIES if c.core]
    assert len(core) == 16
    assert len({c.code for c in DATA_CATEGORIES}) == len(DATA_CATEGORIES)


def test_symbol_codes_unique_per_dialect(registry):
    for dialect in ("sys", "nn"):
        codes = [s.code for s in registry.list_symbols(dialect)]
        assert len(codes) == len(set(codes))


def test_kb_resolves_without_a_listing_row(registry):
    sym = registry.lookup_symbol("kb", SYS)
    assert sym.category == "resource"
    assert all(s.code != "kb" for s in registry.list_symbols("sys"))


def test_register_extension_symbol(registry):
    registry.register_extension(SymbolDef(
        code="linscale", dialect="ext", name="linear scaling",
        glyph_id="op_func", min_in=1, max_in=1, min_out=1, max_out=1,
        category="operator"))
    resolution = registry.resolve("linscale", SYS)
    assert resolution is not None and resolution.is_extension


def test_extension_collision(registry):
    with pytest.raises(CollidesWithBuiltin):
        registry.register_extension(SymbolDef(
            code="POS", dialect="ext", name="x", glyph_id="op_func",
            min_in=1, max_in=1, min_out=1, max_out=1, category="operator"))


def test_extension_task_signature(registry):
    domain = (FormalTerm(base="s_T"),)
    rng = (FormalTerm(base="s_T", required=frozenset({"Lang"})),)
    registry.register_extension(Signature(
        task_code="LangID", dialect="ext", name="language id",
        variants=((domain, rng),)))
    [(_, rng)] = registry.resolve("LangID", SYS).signature.variants
    assert rng[0].required == frozenset({"Lang"})
    assert registry.vocabulary.knows_label("Lang")


def test_extensions_are_compilation_local():
    first = Registry()
    first.register_extension(SymbolDef(
        code="only_here", dialect="ext", name="x", glyph_id="op_func",
        min_in=1, max_in=1, min_out=1, max_out=1, category="operator"))
    assert Registry().resolve("only_here", SYS) is None


def test_meta_symbols_are_not_node_codes(registry):
    for code in ("flow", "zoom", "acc"):
        assert registry.resolve(code, SYS) is None
        assert registry.lookup_symbol(code, SYS) is not None


def test_lookups_are_pure(registry):
    a = registry.resolve("WSD", SYS).signature
    b = registry.resolve("WSD", SYS).signature
    assert a == b and a is b


def test_term_memo_follows_the_vocabulary(registry):
    # a parse is kept per literal until the vocabulary changes; a failure is
    # never kept, so it raises again with the same message
    term = registry.parse_term("S^NER")
    assert registry.parse_term("S^NER") is term
    for _ in range(2):
        with pytest.raises(TermError, match="unknown classification label 'Lang'"):
            registry.parse_term("S^Lang")
    registry.register_label("Lang")
    assert registry.parse_term("S^Lang").annotations == frozenset({"Lang"})
    again = registry.parse_term("S^NER")
    assert again == term and again is not term
    registry.register_extension(Signature(
        task_code="LangID", dialect="ext", name="language id",
        variants=(((FormalTerm(base="s_T"),), (FormalTerm(base="s_T"),)),)))
    assert registry.parse_term("S^NER") is not again
