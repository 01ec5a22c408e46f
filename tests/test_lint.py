"""Style rules: every fixture fires exactly its own rule."""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

import dial.layout
import dial.lint
from dial.cli import compile_file, compile_source, run
from dial.layout import Layering, break_cycles, layout, main_layering
from dial.lint import RULES
from dial.model import validate_structure
from dial.registry import Registry
from oracles import random_grouped_diagram, random_valid_source

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
ALL_CODES = [rule.code for rule in RULES]


def lint_file(path: Path, disabled: frozenset[str] = frozenset()):
    result = compile_file(str(path))
    assert result.typed is not None, result.diagnostics
    assert result.diagnostics == [], result.diagnostics
    return result.lint(disabled)


def test_rule_table_is_stable():
    assert ALL_CODES == [f"W20{i}" for i in range(1, 9)]


@pytest.mark.parametrize("code", ALL_CODES)
def test_each_fixture_fires_exactly_its_rule(code):
    diagnostics = lint_file(FIXTURES / f"{code.lower()}.dial")
    assert [d.code for d in diagnostics] == [code]


@pytest.mark.parametrize("code", ALL_CODES)
def test_rules_never_escalate(code):
    for diag in lint_file(FIXTURES / f"{code.lower()}.dial"):
        assert diag.severity == "warning"


@pytest.mark.parametrize("code", ALL_CODES)
def test_suppression_is_independent(code):
    remaining = lint_file(FIXTURES / f"{code.lower()}.dial", frozenset({code}))
    assert remaining == []


def test_suppressing_one_rule_keeps_others():
    # the W203 fixture fires only W203; suppressing W207 must not change that
    diagnostics = lint_file(FIXTURES / "w203.dial", frozenset({"W207"}))
    assert [d.code for d in diagnostics] == ["W203"]


def test_w206_respects_dialect_scope():
    # without the nn dialect, "softmax" is not a registered symbol name
    src = ('dial 0.1\ndialect sys\ndiagram "scope" {\n'
           "  data x: vec[10]\n  node f: func(label=softmax)\n  edge x -> f\n}\n")
    result = compile_source(src)
    assert result.typed is not None
    assert [d.code for d in result.lint()] == []


def test_lint_is_pure():
    path = FIXTURES / "w206.dial"
    assert [d.code for d in lint_file(path)] == [d.code for d in lint_file(path)]


@pytest.mark.parametrize("name", ["qa_system", "lexicon_attention", "entailment"])
def test_corpus_is_warning_free(name):
    diagnostics = lint_file(Path("corpus/pass") / f"{name}.dial")
    assert diagnostics == []


def test_diagnostics_sorted_by_code_then_declaration():
    result = compile_file(str(FIXTURES / "w203.dial"))
    codes = [d.code for d in result.lint()]
    assert codes == sorted(codes)


def test_id_shared_by_node_and_edge_sorts_by_the_edge():
    # edge ids are e0, e1, ...; a node named e1 does not move edge e1 ahead:
    # the two backward self-loops come in edge order
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "shared id" {\n'
        "  data x: T\n  node a: oplus\n  node e1: oplus\n"
        "  edge a -> a\n  edge e1 -> e1\n  edge x -> a\n  edge a -> e1\n}\n")
    assert result.diagnostics == []
    assert [(d.code, d.ir_path) for d in result.lint()] == [("W203", "e0"), ("W203", "e1")]


def test_id_shared_by_node_and_table_sorts_by_the_table():
    # nodes q and p are declared in the other order than tables p and q
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "shared id" {\n'
        "  data q: S\n  node p: POS\n  edge q -> p\n"
        '  table p at top_left {\n    "a": "1";\n  }\n'
        '  table q at top_right {\n    "b": "2";\n  }\n}\n')
    assert result.diagnostics == []
    assert [(d.code, d.ir_path) for d in result.lint()
            if d.code == "W202"] == [("W202", "p"), ("W202", "q")]


def test_lint_warnings_are_located_in_the_file():
    # by the file alone, with no line or column, in either output
    path = str(FIXTURES / "w203.dial")
    [warning] = compile_file(path).lint()
    human, as_json = io.StringIO(), io.StringIO()
    assert run(["lint", path], stdout=io.StringIO(), stderr=human) == 0
    assert run(["lint", "--json", path], stdout=as_json, stderr=io.StringIO()) == 0
    assert human.getvalue() == f"{path}: warning W203: {warning.message}\n"
    assert json.loads(as_json.getvalue()) == [{
        "code": "W203", "severity": "warning", "file": path, "line": None, "col": None,
        "message": warning.message}]


def test_compile_result_lint_returns_the_warnings_lint_built(monkeypatch):
    # no warning is built twice: the result hands on lint's own objects
    built = []

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    original = dial.lint.lint
    monkeypatch.setattr(dial.lint, "lint", recording)
    result = compile_source('dial 0.1\ndialect sys\ndiagram "chain" {\n  data a: S^Token\n'
                            "  node p: POS\n  node n: NER\n  edge a -> p\n  edge p -> n\n}\n")
    warnings = result.lint()
    assert len(built) == 1 and [d.code for d in warnings] == ["W207", "W207"]
    assert all(ours is theirs for ours, theirs in zip(warnings, built[0], strict=True))


def test_w208_comes_in_node_order():
    # layer 2 is flagged before layer 1 (at c2, declared before c1), yet the
    # warning naming f1 comes first because f1 is declared first
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "w208 order" {\n'
        "  node f1: func\n  node f2: func\n  node c2: POS\n  node c1: POS\n  data s: S\n"
        "  edge s -> f1\n  edge f1 -> f2\n  edge f1 -> c2\n  edge s -> c1\n}\n")
    assert result.diagnostics == []
    assert [d.ir_path for d in result.lint() if d.code == "W208"] == ["f1", "f2"]


def test_w208_judges_the_drawn_bands():
    # a -> c has both ends in the main area, so it joins c to the band of a
    # and f, although the detail group lists it: c is drawn at f's layer,
    # stacked under f, and the layer mixes a feature and a component node
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "bands" {\n'
        "  data a: S\n  node f: func\n  node c: POS\n  edge a -> f\n"
        "  detail g for f {\n    data d: S\n    node m: func\n    edge d -> m\n"
        "    edge a -> c\n  }\n}\n")
    assert result.diagnostics == []
    drawn = result.layout_result
    assert drawn.layers["c"] == drawn.layers["f"] == 1
    assert drawn.bands["c"] == drawn.bands["f"]
    # lint reads the same layers and bands without drawing
    linted = main_layering(result.typed.diagram, result.typed.oriented)
    assert [(linted.layers[n], linted.bands[n]) for n in "cf"] == \
        [(drawn.layers[n], drawn.bands[n]) for n in "cf"]
    assert drawn.node_boxes["c"].y == drawn.node_boxes["f"].bottom + 16
    warnings = result.lint()
    assert [d.code for d in warnings] == ["W207", "W208"]
    assert warnings[1].message.startswith(
        "layer 1 mixes feature node 'f' with component node 'c'")


def test_lint_path_sees_what_is_drawn():
    # lint reads main_layering; it must be the drawn layout's main area
    paths = sorted(Path("corpus/pass").glob("*.dial")) + sorted(FIXTURES.glob("*.dial"))
    rng = random.Random(7)
    inputs = ([(str(p), p.read_text(encoding="utf-8")) for p in paths]
              + [(f"<random {i}>", random_valid_source(rng)) for i in range(1500)])
    typed = w208 = 0
    for name, source in inputs:
        result = compile_source(source, name)
        if result.typed is None:
            continue
        diagram, drawn = result.typed.diagram, result.layout_result
        main = [n.id for n in diagram.nodes if n.id not in result.typed.graph.group_of]
        assert main_layering(diagram, result.typed.oriented) == Layering(
            {n: drawn.layers[n] for n in main}, {n: drawn.bands[n] for n in main}), name
        warnings = result.lint()
        typed += 1
        w208 += any(d.code == "W208" for d in warnings)
    assert typed > 500 and w208 > 50, (typed, w208)


def test_main_layering_is_the_drawn_main_area():
    rng = random.Random(11)
    validated = 0
    for i in range(1000):
        diagram = random_grouped_diagram(rng)
        if validate_structure(diagram, Registry())[1] is None:
            continue
        validated += 1
        oriented, reversed_ids = break_cycles(diagram)
        drawn = layout(diagram, oriented, reversed_ids)
        grouped = {m for group in diagram.groups for m in group.member_nodes}
        main = [n.id for n in diagram.nodes if n.id not in grouped]
        assert main_layering(diagram, oriented) == Layering(
            {n: drawn.layers[n] for n in main}, {n: drawn.bands[n] for n in main}), i
    assert validated > 150, validated


def _lint_json(paths: list[str]) -> list[tuple[int, str]]:
    outcomes = []
    for path in paths:
        out = io.StringIO()
        outcomes.append((run(["lint", "--json", path], stdout=out, stderr=io.StringIO()),
                         out.getvalue()))
    return outcomes


def test_dial_lint_builds_no_layout(monkeypatch):
    paths = [str(p) for p in sorted(Path("corpus").glob("*/*.dial"))
             + sorted(FIXTURES.glob("*.dial"))]
    expected = _lint_json(paths)

    def refuse(*args, **kwargs):
        raise AssertionError("dial lint drew a layout")

    monkeypatch.setattr(dial.layout, "layout", refuse)
    monkeypatch.setattr(dial.layout, "order_within_layers", refuse)
    assert _lint_json(paths) == expected
    assert {status for status, _ in expected} == {0, 1}
