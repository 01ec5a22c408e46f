"""Data-term literal parsing and printing."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from dial.model import validate_structure
from dial.reference import _pattern_text
from dial.registry import ANNOTATION_LABELS, SIGNATURES, Registry
from dial.render import _Svg, _Tikz
from dial.terms import (
    CANONICAL,
    DIST,
    MAX_DIGITS,
    MAX_NESTING,
    SEQUENCE,
    SET,
    TUPLE,
    DataTerm,
    TermError,
    TermNestingError,
    TermParser,
    _lex_literal,
    format_term,
    parse_term,
)
from dial.typecheck import check_diagram
from oracles import (
    mutate_term_literal,
    random_propagation_diagram,
    random_term_literal,
    reference_format_term,
    reference_parse_term,
    reference_pattern_text,
    reference_svg_term,
    reference_tikz_term,
)


def parse(text: str) -> DataTerm:
    return parse_term(text, ANNOTATION_LABELS)


def test_ner_classified_sentence():
    term = parse("S^NER")
    assert term.base == "s_T"
    assert term.annotations == frozenset({"NER"})


def test_pred_arg_labeled_with_facts():
    term = parse("Pred(Arg)^F")
    assert term.base == "PredArg"
    assert term.annotations == frozenset({"F"})


def test_vector_with_dims():
    term = parse("vec[300]")
    assert term.base == "clustered_word"
    assert term.dims == (300,)


@pytest.mark.parametrize("literal, base", [
    ("S^SRL", "s_T"),
    ("S^POS", "s_T"),
    ("C^ArgScheme", "P_c"),
    ("T^ArgStruct", "T"),
    ("Term^WSD", "t_T"),
])
def test_classification_table_terms(literal, base):
    term = parse(literal)
    assert term.base == base
    assert len(term.annotations) == 1


def test_multi_label_and_subscript():
    term = parse("S^{NER,POS}")
    assert term.annotations == frozenset({"NER", "POS"})
    sub = parse("Term_New")
    assert sub.base == "t_T" and sub.subscript == "New"


def test_distribution_form():
    term = parse("P_entail[0,1]")
    assert term.structure == DIST
    assert term.subscript == "entail"
    assert term.dist_range == (0.0, 1.0)


def test_structures():
    assert parse("{Term}").structure == SET
    tup = parse("(S, T)")
    assert tup.structure == TUPLE and len(tup.elements) == 2
    assert parse("terms").structure == SET  # plural spelling wraps set-of


@pytest.mark.parametrize("bad", [
    "", "Zebra", "S^Zebra", "S^", "vec[0]", "vec[1.5]", "{S", "(S,", "P_x[1,0]",
    "S^{NER", "S NER",
])
def test_malformed_terms(bad):
    with pytest.raises(TermError):
        parse(bad)


@pytest.mark.parametrize("literal, labels", [
    ("S^NER", {"NER"}),
    ("{S^{NER,POS}}", {"NER", "POS"}),
    ("(S^POS, T^NER)", {"POS", "NER"}),
    ("{(S^POS, T^NER)}", {"POS", "NER"}),
    ("{({S^POS}, (T, Term^WSD))}", {"POS", "WSD"}),
    ("C^ArgScheme", {"ArgScheme"}),
])
def test_all_labels_reaches_through_every_nesting(literal, labels):
    assert parse(literal).all_labels() == frozenset(labels)
    # labels added to a set of tuples land on the tuple and count too
    assert parse(literal).with_labels(frozenset({"Sem"})).all_labels() == {"Sem", *labels}


def test_parse_data_term_uses_builtin_registry():
    term = Registry().parse_term("S^NER")
    assert term.base == "s_T" and term == parse("S^NER")


def test_format_round_trip_examples():
    for literal in ["S^NER", "S^{NER,POS}", "vec[300]", "{Term}", "(S, T)",
                    "P_entail[0,1]", "Term_New", "Pred(Arg)^F", "KB^{F,R}",
                    "P_c[0,1]^ArgScheme", "{P_entail[0.5,1]^{NER,POS}}"]:
        term = parse(literal)
        printed = format_term(term)
        assert parse(printed) == term, f"{literal} -> {printed}"


def test_sequence_display_only():
    seq = DataTerm(structure=SEQUENCE, element=parse("Score"), max_len=3)
    assert format_term(seq) == "[Score]<=3"


def test_the_one_term_walk_spells_what_the_four_walks_did():
    # seeded random literals, the edge terms of checked random diagrams (their
    # rank nodes give bounded sequences) and hand-built terms neither makes
    rng = random.Random(20261020)
    terms: list[DataTerm] = []
    while len(terms) < 3000:
        try:
            terms.append(parse(random_term_literal(rng)))
        except TermError:
            pass
    registry = Registry()
    for _ in range(300):
        diagram = random_propagation_diagram(rng)
        graph = validate_structure(diagram, registry)[1]
        terms += [t for t in check_diagram(diagram, graph, registry).edge_terms.values() if t]
    assert any(t.structure == SEQUENCE and t.max_len is not None for t in terms)
    labelled = frozenset({"NER", "POS"})
    dist = DataTerm("P_c", labelled, "entail", (3, 4), DIST, dist_range=(0.0, 0.5))
    pair = DataTerm(structure=TUPLE, elements=(parse("S^NER"), parse("Term_New[300]")))
    made = [dist, DataTerm(structure=SET, element=pair),
            DataTerm(structure=SEQUENCE, element=parse("S^{NER,POS}"), max_len=5),
            DataTerm(structure=SEQUENCE, element=dist),
            DataTerm("Ch_T", labelled, "x", (2,)), DataTerm(None, labelled)]
    terms += made + [DataTerm(structure=TUPLE, elements=(t, parse("T"))) for t in made]
    for term in terms:
        assert format_term(term) == reference_format_term(term), term
        assert format_term(term, *_Svg.term_notation) == reference_svg_term(term), term
        assert format_term(term, *_Tikz.term_notation) == reference_tikz_term(term), term

    slots = [slot for sig in SIGNATURES for variant in sig.variants for side in variant
             for slot in side]
    assert any(slot.optional for slot in slots)
    for slot in slots:
        assert _pattern_text(slot.term, slot.optional) == \
            reference_pattern_text(slot.term, slot.optional), slot


_LABELS = sorted(ANNOTATION_LABELS)


@given(
    spelling=st.sampled_from(["S", "T", "Term", "vec", "q", "a", "F", "R"]),
    labels=st.sets(st.sampled_from(_LABELS), max_size=4),
    dims=st.one_of(st.none(), st.lists(st.integers(1, 999), min_size=1, max_size=3)),
)
def test_parse_format_inverse(spelling, labels, dims):
    literal = spelling
    if labels:
        body = ",".join(sorted(labels))
        literal += f"^{{{body}}}" if len(labels) > 1 else f"^{body}"
    if dims:
        literal += "[" + ",".join(map(str, dims)) + "]"
    term = parse(literal)
    assert parse(format_term(term)) == term


_LABEL_SETS = st.frozensets(st.sampled_from(_LABELS), max_size=3)
_BASE_TERMS = st.builds(
    lambda code, labels, sub, dims: DataTerm(
        base=code, annotations=labels, dims=None if dims is None else tuple(dims),
        # a subscript reads back only after a spelling without "_" or "(": not Ch_T_1
        subscript=sub if CANONICAL[code].isalnum() else None),
    st.sampled_from(sorted(CANONICAL)), _LABEL_SETS, st.sampled_from([None, "1", "New"]),
    st.one_of(st.none(), st.lists(st.integers(1, 999), min_size=1, max_size=3)))
_DIST_TERMS = st.builds(
    lambda labels, sub, bounds: DataTerm(base="P_c", annotations=labels, subscript=sub,
                                         structure=DIST, dist_range=tuple(sorted(bounds))),
    _LABEL_SETS, st.sampled_from([None, "entail"]),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), min_size=2, max_size=2))
_TERMS = st.recursive(
    _BASE_TERMS | _DIST_TERMS,
    lambda inner: inner.map(lambda t: DataTerm(structure=SET, element=t))
    | st.lists(inner, min_size=2, max_size=3).map(
        lambda ts: DataTerm(structure=TUPLE, elements=tuple(ts))),
    max_leaves=6)


@given(_TERMS)
def test_format_then_parse_is_identity(term):
    # every term the reader can give, labelled distributions included, prints
    # as a literal that reads back as the same term
    assert parse(format_term(term)) == term


@pytest.mark.parametrize("literal, printed", [
    ("P_c[0,1]", "P_c[0,1]"),
    ("P_c[0.5,1.0]", "P_c[0.5,1]"),
    ("P_c[0,0.00001]", "P_c[0,0.00001]"),
    ("P_c[0,10000000000000000]", "P_c[0,10000000000000000]"),
    ("P_c[0,999999999999999999]", "P_c[0,999999999999999999.0]"),
], ids=["unit", "half", "small", "1e16", "18_nines"])
def test_range_ends_print_positionally(literal, printed):
    # repr spells 0.00001 as 1e-05, and 18 nines read as the float 10.0 ** 18,
    # whose 19 integer digits would be E004
    assert format_term(parse(literal)) == printed


# a range end the lexer reads: at most MAX_DIGITS digits before any point
_RANGE_ENDS = st.from_regex(rf"[0-9]{{1,{MAX_DIGITS}}}(\.[0-9]{{1,30}})?", fullmatch=True)


@given(lo=_RANGE_ENDS, hi=_RANGE_ENDS)
@example(lo="0", hi="0.00001")
@example(lo="10000000000000000", hi="10000000000000000.0")
@example(lo="0.000000000000000000000123", hi="999999999999999999")
def test_distribution_literals_round_trip(lo, hi):
    lo, hi = sorted((lo, hi), key=float)
    term = parse(f"P_c[{lo},{hi}]")
    printed = format_term(term)
    assert parse(printed) == term and format_term(parse(printed)) == printed


@pytest.mark.parametrize("wrap", [lambda t: "{" + t + "}", lambda t: f"({t}, S)"])
def test_nesting_limit(wrap):
    text = "S"
    for _ in range(MAX_NESTING):
        text = wrap(text)
    assert format_term(parse(text)) == text
    with pytest.raises(TermNestingError):
        parse(wrap(text))


TERM_CASES = {  # outcome -> least number of literals (of 3,000 per label set) that show it
    "parsed": 400,
    "unknown data category": 300,
    "unknown classification label": 90,
    "term ended early": 30,
    "expected": 200,
    "nested deeper": 50,
    "trailing input": 50,
    "unexpected character": 100,
    "empty data term": 100,
    "dimension must be a positive integer": 120,
    "is inverted": 70,
}


def _outcome(parse_fn, literal, labels):
    try:
        return parse_fn(literal, labels)
    except TermError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("labels", [ANNOTATION_LABELS, None], ids=["builtin", "structure_only"])
def test_term_reader_matches_triple_reference(labels):
    # the reader over parallel kind and text lists gives the same term, or the
    # same error class and message, as the earlier reader over triples
    rng = random.Random(20261018)
    seen: Counter[str] = Counter()
    for i in range(3000):
        literal = random_term_literal(rng)
        if i % 2:
            literal = mutate_term_literal(rng, literal)
        got = _outcome(parse_term, literal, labels)
        assert got == _outcome(reference_parse_term, literal, labels), literal
        message = "parsed" if isinstance(got, DataTerm) else got[1]
        seen.update(case for case in TERM_CASES if case in message)
    for case, least in TERM_CASES.items():
        if labels is None and case.startswith("unknown "):
            continue  # names pass through unresolved
        assert seen[case] >= least, (case, seen)


@pytest.mark.parametrize("labels", [ANNOTATION_LABELS, None], ids=["builtin", "structure_only"])
def test_term_reader_in_place_stops_at_the_next_token(labels):
    # the DSL parser reads a term inside its own token lists and takes the
    # term's extent from where the reader stops
    rng = random.Random(20261021)
    read = 0
    for i in range(3000):
        literal = random_term_literal(rng)
        if i % 2:
            literal = mutate_term_literal(rng, literal)
        try:
            term = parse_term(literal, labels)
        except TermError:
            continue
        kinds, texts = _lex_literal(literal)
        reader = TermParser(["ident", *kinds, "punct"], ["x", *texts, ";"], labels, start=1)
        assert reader.parse() == term and reader.index == len(kinds) + 1, literal
        read += 1
    assert read >= 400
