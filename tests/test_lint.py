"""Style rules: every fixture fires exactly its own rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from dial.cli import compile_file, compile_source
from dial.lint import RULES

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


def test_id_shared_by_node_and_edge_sorts_by_the_node():
    # edge ids are e0, e1, ...; the node named e1 gives edge e1 its position,
    # so of the two backward self-loops e1 is reported before e0
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "shared id" {\n'
        "  data x: T\n  node a: oplus\n  node e1: oplus\n"
        "  edge a -> a\n  edge e1 -> e1\n  edge x -> a\n  edge a -> e1\n}\n")
    assert result.diagnostics == []
    assert [(d.code, d.ir_path) for d in result.lint()] == [("W203", "e1"), ("W203", "e0")]


def test_lint_warnings_are_located_in_the_file():
    result = compile_file(str(FIXTURES / "w203.dial"))
    assert [d.file for d in result.lint()] == [str(FIXTURES / "w203.dial")]
