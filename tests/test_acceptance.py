"""Acceptance gate: nine criteria, each with its stated scale and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every criterion asserts its own runtime bound.
"""

from __future__ import annotations

import io
import json
import random
import time
from pathlib import Path

import pytest

from dial.cli import compile_file, run
from dial.corpus import corpus_suite
from dial.layout import assign_layers, break_cycles, layout
from dial.lint import lint
from dial.model import validate_structure
from dial.parser import format_source, lower, parse, tokenize
from dial.registry import (ANNOTATION_LABELS, SIGNATURES, Registry, list_signatures,
                           list_symbols)
from dial.render import render_svg, render_tikz
from dial.terms import DATA_CATEGORIES, parse_term
from dial.typecheck import DimConflict, check_diagram, dim_combine
from oracles import (
    longest_path_oracle,
    propagate_in_order,
    random_layout_diagram,
    random_propagation_diagram,
    random_valid_source,
    topological_orders,
)

PASS_CASES = ("qa_system", "lexicon_attention", "entailment")

TABLE5_TERMS = ("S^NER", "S^SRL", "S^POS", "C^ArgScheme", "T^ArgStruct",
                "Term^WSD", "Pred(Arg)^F")


class budget:
    """Asserts the criterion finishes inside its stated wall-clock budget."""

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_c1_registry_conformance():
    with budget("1 registry conformance", 1.0):
        assert len(SIGNATURES) == 26
        sys_sigs = list_signatures("sys")
        assert len(sys_sigs) == 26
        assert len({s.code for s in sys_sigs}) == 26
        assert len([c for c in DATA_CATEGORIES if c.core]) == 16
        for literal in TABLE5_TERMS:
            parse_term(literal, ANNOTATION_LABELS)
        assert len(TABLE5_TERMS) == 7
        assert len(list_symbols("sys")) == 30
        assert len(list_symbols("nn")) == 13


def test_c2_corpus():
    with budget("2 corpus", 5.0):
        report = corpus_suite()
        failures = {r.case.name: r.failures for r in report.results if not r.ok}
        assert report.ok, failures
        mutation = next(r for r in report.results
                        if r.case.name == "qa_missing_ner")
        assert mutation.codes == ["E102"]
        expected = mutation.case.expect.read_bytes()
        assert expected == b"E102\n"  # bit-exact expectation file


def test_c3_typechecker_oracle_equivalence():
    with budget("3 type-checker oracle equivalence", 30.0):
        rng = random.Random(0xD1A1)
        registry = Registry()
        for i in range(1000):
            diagram = random_propagation_diagram(rng, max_nodes=8)
            _, graph = validate_structure(diagram, registry)
            typed = check_diagram(diagram, graph, registry)
            orders = topological_orders(diagram, cap=40)
            assert orders, "generated graphs are DAGs"
            reference = None
            for order in orders:
                outcome = propagate_in_order(diagram, order, registry)
                if reference is None:
                    reference = outcome
                else:
                    assert outcome == reference, f"case {i}: order dependence"
            oracle_terms, oracle_codes = reference
            got_terms = {e.id: typed.edge_terms.get(e.id) for e in diagram.edges}
            assert got_terms == oracle_terms, f"case {i}: edge terms diverge"
            assert sorted(d.code for d in typed.diagnostics) == oracle_codes, \
                f"case {i}: diagnostics diverge"


def test_c4_dimension_calculus():
    with budget("4 dimension calculus", 5.0):
        rng = random.Random(0xD1A2)
        for _ in range(10000):
            rank_a = rng.randint(1, 3)
            rank_b = rng.randint(1, 3)
            a = tuple(rng.randint(1, 512) for _ in range(rank_a))
            b = tuple(rng.randint(1, 512) for _ in range(rank_b))
            assert dim_combine("otimes", a, b) == a + b
            for op in ("oplus", "concat"):
                if rank_a == rank_b and a[:-1] == b[:-1]:
                    assert dim_combine(op, a, b) == a[:-1] + (a[-1] + b[-1],)
                elif rank_a != rank_b:
                    with pytest.raises(DimConflict):
                        dim_combine(op, a, b)


def test_c5_layout_determinism_and_layering():
    with budget("5 layout determinism and layering", 30.0):
        rng = random.Random(0xD1A3)
        for i in range(1000):
            diagram = random_layout_diagram(rng, max_nodes=8,
                                            cyclic=rng.random() < 0.4)
            result = layout(diagram, *break_cycles(diagram))
            for edge in diagram.edges:
                if edge.flow_kind == "recurrent" or edge.id in result.reversed_edges:
                    continue
                assert result.layers[edge.source.node] < result.layers[edge.target.node], \
                    f"case {i}: layer monotonicity"
            if len(diagram.nodes) <= 7:
                oriented, _ = break_cycles(diagram)
                ids = [n.id for n in diagram.nodes]
                assert assign_layers(ids, oriented) == longest_path_oracle(ids, oriented), \
                    f"case {i}: longest-path oracle"
        for name in PASS_CASES:
            compiled = compile_file(f"corpus/pass/{name}.dial")
            drawn = (compiled.diagram, compiled.typed.oriented, compiled.typed.reversed_edges)
            assert layout(*drawn) == layout(*drawn)


def test_c6_render_determinism_against_goldens():
    with budget("6 render determinism", 5.0):
        for name in PASS_CASES:
            compiled = compile_file(f"corpus/pass/{name}.dial")
            drawn = (compiled.diagram, compiled.typed.oriented, compiled.typed.reversed_edges)
            first_svg = render_svg(compiled.typed, layout(*drawn)).encode()
            second_svg = render_svg(compiled.typed, layout(*drawn)).encode()
            assert first_svg == second_svg
            golden_svg = Path(f"corpus/golden/{name}.svg").read_bytes()
            assert first_svg == golden_svg, f"{name}: svg differs from golden"
            first_tikz = render_tikz(compiled.typed, layout(*drawn)).encode()
            golden_tikz = Path(f"corpus/golden/{name}.tex").read_bytes()
            assert first_tikz == golden_tikz, f"{name}: tikz differs from golden"


def _ir_of(source: str):
    tokens, lex_diags = tokenize(source)
    ast, parse_diags = parse(tokens)
    assert ast is not None, (source, lex_diags + parse_diags)
    unit = lower(ast)
    return unit.diagram, [d.code for d in unit.diagnostics]


def test_c7_formatter_and_fuzz():
    with budget("7 formatter idempotence and fuzz safety", 60.0):
        sources = [Path(f"corpus/pass/{name}.dial").read_text()
                   for name in PASS_CASES]
        rng = random.Random(0xD1A4)
        sources += [random_valid_source(rng) for _ in range(500)]
        for source in sources:
            formatted, diags = format_source(source)
            assert formatted is not None, diags
            again, _ = format_source(formatted)
            assert again == formatted, "formatter not idempotent"
            assert _ir_of(source) == _ir_of(formatted), "formatter changed the IR"

        fuzz = random.Random(0xD1A5)
        for _ in range(100_000):
            raw = bytes(fuzz.randrange(256) for _ in range(fuzz.randrange(0, 64)))
            tokens, lex_diags = tokenize(raw.decode("latin-1"))
            _, parse_diags = parse(tokens)
            for diag in lex_diags + parse_diags:
                assert diag.code in ("E001", "E002")


def test_c8_lint_rules():
    with budget("8 lint triggers", 2.0):
        fixtures = Path("tests/fixtures/lint")
        for i in range(1, 9):
            code = f"W20{i}"
            compiled = compile_file(str(fixtures / f"{code.lower()}.dial"))
            assert compiled.diagnostics == [], f"{code} fixture must compile clean"
            fired = [d.code for d in lint(compiled.typed)]
            assert fired == [code], f"{code} fixture fired {fired}"
        for name in PASS_CASES:
            status, _, err = _run("lint", "--deny", "warnings",
                                  f"corpus/pass/{name}.dial")
            assert status == 0, err


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    status = run(list(argv), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def test_c9_cli_contract(tmp_path):
    with budget("9 CLI contract", 5.0):
        ok = "corpus/pass/qa_system.dial"
        bad = "corpus/fail/qa_missing_ner.dial"

        status, out, err = _run("check", ok)
        assert (status, out, err) == (0, "", "")
        status, out, err = _run("check", bad)
        assert status == 1 and out == "" and "E102" in err
        status, out, err = _run("check", "--json", bad)
        assert status == 1 and err == ""
        assert json.loads(out)[0]["code"] == "E102"
        status, out, err = _run("check", "missing.dial")
        assert status == 2

        status, _, _ = _run("lint", ok)
        assert status == 0
        status, _, _ = _run("lint", "--deny", "warnings",
                            "tests/fixtures/lint/w203.dial")
        assert status == 1

        target = tmp_path / "out.svg"
        status, out, _ = _run("render", ok, "-o", str(target))
        assert status == 0 and out == "" and target.exists()
        status, _, _ = _run("render", bad, "-o", str(tmp_path / "no.svg"))
        assert status == 1 and not (tmp_path / "no.svg").exists()
        status, _, _ = _run("render", ok)
        assert status == 2

        messy = tmp_path / "messy.dial"
        messy.write_text('dial 0.1\ndialect sys\ndiagram "D" {\n node  a :POS\n}\n')
        status, _, _ = _run("fmt", "--check", str(messy))
        assert status == 1
        status, _, _ = _run("fmt", "--write", str(messy))
        assert status == 0
        status, _, _ = _run("fmt", "--check", str(messy))
        assert status == 0

        status, out, err = _run("symbols", "--dialect", "nn")
        assert status == 0 and err == ""
        assert len(out.strip().splitlines()) == 13
