"""Semantic core: matching, inference, the dimension calculus, propagation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

import dial.typecheck
from dial.cli import compile_source
from dial.interchange import canonical_serialize, deserialize
from dial.layout import break_cycles
from dial.model import Node, validate_structure
from dial.registry import Registry
from dial.terms import SEQUENCE, SET, DataTerm, TermError, format_term
from dial.typecheck import (
    DimConflict,
    check_diagram,
    dim_combine,
    infer_output,
    match_term,
)
from oracles import (
    propagate_in_order,
    random_feedback_diagram,
    random_propagation_diagram,
    random_term_literal,
    rank_schedule,
    reference_tensor,
    round_robin_check,
    topological_orders,
)

SYS = frozenset({"sys"})


def term(text: str):
    return Registry().parse_term(text)


# -- match_term ---------------------------------------------------------------


def test_superset_of_required_labels_matches():
    assert match_term(term("S^{NER,POS}"), DataTerm("s_T", frozenset({"NER"}))) is None


def test_missing_label_reports_reason():
    reason = match_term(term("S"), DataTerm("s_T", frozenset({"NER"})))
    assert reason is not None and "NER" in reason


def test_no_subtyping_between_categories():
    reason = match_term(term("T"), DataTerm("s_T"))
    assert reason is not None and "category" in reason


def test_dims_pinned_by_formal():
    assert match_term(term("vec[8]"), DataTerm("clustered_word")) is None
    assert match_term(term("vec[8]"), DataTerm("clustered_word", dims=(8,))) is None
    assert match_term(term("vec[8]"), DataTerm("clustered_word", dims=(9,))) is not None


def test_structure_must_agree():
    formal_set = DataTerm(structure=SET, element=DataTerm("t_T"))
    assert match_term(term("{Term}"), formal_set) is None
    assert match_term(term("Term"), formal_set) is not None


def test_a_term_without_a_base_is_named_any():
    assert match_term(DataTerm(), DataTerm(base="s_T")) == "category <any> where S is required"


# -- infer_output on tasks -----------------------------------------------------


def infer(code: str, inputs, kind="task", params=(), resource=None, dialects=SYS):
    node = Node(id="x", kind=kind, code=code, params=tuple(params))
    terms = [term(t) if isinstance(t, str) else t for t in inputs]
    registry = Registry()
    return infer_output(node, registry.resolve(code, dialects), terms, registry, {},
                        resource or [False] * len(terms))


def test_pos_tagging():
    outs, diags = infer("POS", ["S"])
    assert not diags
    assert outs[0].base == "s_T" and outs[0].annotations == frozenset({"POS"})


def test_wsd_with_kb():
    outs, diags = infer("WSD", ["S^{POS,Chunk}", "KB"], resource=[False, True])
    assert not diags
    assert outs[0].base == "t_T"
    assert outs[0].annotations == frozenset({"WSD"})


def test_el_without_ner_is_e102():
    outs, diags = infer("EL", ["S"])
    assert [d.code for d in diags] == ["E102"]
    assert "S^NER" in diags[0].message


def test_annotation_accumulation():
    outs, diags = infer("POS", ["S^NER"])
    assert not diags
    assert outs[0].annotations == frozenset({"NER", "POS"})


def test_arity_violation():
    _, diags = infer("POS", [])
    assert [d.code for d in diags] == ["E101"]


def test_optional_resource_input_may_stay_unwired():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "t" {\n'
                            "  data d: T\n  node p: PREDC\n  edge d -> p\n}\n")
    assert result.diagnostics == []


def test_coref_variants():
    outs, diags = infer("COREF", ["S^NER"])
    assert not diags and outs[0].structure == SET
    outs, diags = infer("COREF", ["T"])
    assert not diags and outs[0].structure == SET


def test_resource_kind_required():
    _, diags = infer("WSD", ["S^{POS,Chunk}", "KB"], resource=[False, False])
    assert [d.code for d in diags] == ["E102"]
    assert "resource" in diags[0].message


# -- infer_output on operators ---------------------------------------------------


def test_rank_wraps_sets_into_bounded_sequences():
    source = term("{Score}")
    outs, diags = infer("rank", [source], kind="operator", params=(("n", 1),))
    assert not diags
    assert outs[0].structure == SEQUENCE
    assert outs[0].element.base == "Score"
    assert outs[0].max_len == 1


def test_sim_yields_score():
    outs, _ = infer("sim", ["Term_1", "Term_2"], kind="operator")
    assert outs[0].base == "Score"
    outs, _ = infer("sim", [term("{(vec[4], vec[4])}")], kind="operator")
    assert outs[0].structure == SET and outs[0].element.base == "Score"


def test_cond_has_two_outputs_typed_as_input():
    outs, _ = infer("cond", ["S^NER"], kind="operator")
    assert len(outs) == 2
    assert outs[0] == outs[1] == term("S^NER")


def test_verify_passthrough():
    outs, _ = infer("verify", ["Pred(Arg)^F"], kind="verify")
    assert outs[0] == term("Pred(Arg)^F")


def test_entail_gives_predarg():
    outs, _ = infer("entail", ["S", "S"], kind="operator")
    assert outs[0].base == "PredArg"


def test_oplus_merges_labels_without_dims():
    outs, _ = infer("oplus", ["S^{Token,POS}", "Structure_PN"], kind="operator")
    assert outs[0].base == "s_T"
    assert outs[0].annotations == frozenset({"Token", "POS"})


def test_oplus_dim_conflict_is_e103():
    _, diags = infer("oplus", ["vec[3]", "vec[2,2]"], kind="operator")
    assert [d.code for d in diags] == ["E103"]


def test_otimes_arity_and_dimensionless_operands():
    outs, diags = infer("otimes", [], kind="operator")
    assert outs == [None]
    assert [(d.code, d.message) for d in diags] == [
        ("E101", "node 'x': otimes takes 2..8 input(s), 0 wired")]
    outs, diags = infer("otimes", ["S", "S^POS"], kind="operator")
    assert diags == [] and outs[0].dims is None


@pytest.mark.parametrize("op", ["oplus", "concat"])
def test_mismatched_leading_dims_is_e103(op):
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "t" {\n  data a: vec[2,3]\n  data b: vec[4,5]\n'
        f"  node c: {op}\n  edge a -> c\n  edge b -> c\n}}\n")
    assert [(d.code, d.message, d.ir_path, str(d.span)) for d in result.diagnostics] == [
        ("E103", f"node 'c': {op} needs matching leading dimensions, got [2, 3] and [4, 5]",
         "c", "6:3")]


def test_declared_out_param_wins():
    outs, _ = infer("func", ["S"], kind="function", params=(("out", "a"),))
    assert outs[0].base == "a"


@pytest.mark.parametrize("code, inputs, params, expected", [
    ("set", ["S^POS"], (), "{S^POS}"),
    ("set", ["S", "T"], (), "{(S, T)}"),
    ("encoder", ["S^POS", "T^NER"], (("units", 8),), "vec^{NER,POS}[8]"),
    ("encoder", ["S"], (), "vec"),
    ("decoder", ["vec[8]"], (), "T"),
    ("regression", ["vec[8]", "S"], (), "Score"),
    ("dataset", [], (), "T"),
    ("gold", [], (), "T"),
    ("ground_truth", [], (), "C"),
    ("conv", ["vec[4]"], (("filters", 16),), "vec[16]"),
    ("conv", ["vec[4]"], (), "vec[4]"),
    ("otimes", ["vec[2]", "vec[3]"], (), "vec[2,3]"),
    ("otimes", ["{S}", "{T}"], (), "{(S, T)}"),
    ("otimes", ["{S}", "{T}", "{Term}"], (), "{((S, T), Term)}"),
    ("otimes", ["{S^POS}", "vec[2]"], (), "S^POS"),
    ("oplus", ["{vec[2]}", "vec[3]"], (), "{vec[5]}"),
    ("compose", ["vec^POS[2]", "vec[3]"], (), "vec^POS"),
    ("compose", ["{S}", "T^NER"], (), "{S^NER}"),
], ids=["set_one", "set_two", "encoder_units", "encoder_bare", "decoder", "regression",
        "dataset", "gold", "ground_truth", "conv_filters", "conv_input_dims",
        "otimes_vectors", "otimes_sets", "otimes_three_sets", "otimes_set_unwrapped",
        "oplus_set_wrapped", "compose_drops_dims", "compose_set_wrapped"])
def test_symbol_output_rules(code, inputs, params, expected):
    outs, diags = infer(code, inputs, kind="operator", params=params,
                        dialects=frozenset({"sys", "nn"}))
    assert [format_term(t) for t in outs] == [expected] and diags == []


def test_otimes_matches_reference_tensor():
    # otimes folds through the same _combine_two as oplus, concat and compose;
    # it must give what its own earlier fold gave
    rng = random.Random(5)
    registry = Registry()
    found = registry.resolve("otimes", SYS)
    node = Node(id="x", kind="operator", code="otimes")
    lists = two_sets = 0
    while lists < 10_000:
        operands = []
        for _ in range(rng.randint(1, 4)):
            try:
                operands.append(registry.parse_term(random_term_literal(rng)))
            except TermError:
                pass
        if not operands:
            continue
        lists += 1
        two_sets += sum(t.structure == SET for t in operands) >= 2
        outs, diags = infer_output(node, found, operands, registry, {},
                                   [False] * len(operands))
        assert outs == [reference_tensor(operands)], operands
        assert [d.code for d in diags] == ([] if len(operands) > 1 else ["E101"])
    assert two_sets >= 300


# -- dim_combine ------------------------------------------------------------------


def test_dim_combine_examples():
    assert dim_combine("oplus", (3,), (4,)) == (7,)
    assert dim_combine("otimes", (3,), (4,)) == (3, 4)
    assert dim_combine("concat", (100,), (50,)) == (150,)
    with pytest.raises(DimConflict):
        dim_combine("oplus", (3,), (2, 2))


@given(a=st.lists(st.integers(1, 64), min_size=1, max_size=3),
       b=st.lists(st.integers(1, 64), min_size=1, max_size=3))
def test_dim_combine_properties(a, b):
    a, b = tuple(a), tuple(b)
    assert dim_combine("otimes", a, b) == a + b
    if len(a) == len(b) and a[:-1] == b[:-1]:
        combined = dim_combine("oplus", a, b)
        assert combined[-1] == a[-1] + b[-1]
        assert combined[:-1] == a[:-1]
    elif len(a) != len(b):
        with pytest.raises(DimConflict):
            dim_combine("oplus", a, b)


# -- check_diagram -----------------------------------------------------------------


def checked(diagram, registry):
    """``check_diagram`` of a diagram that must pass validation."""
    diagnostics, graph = validate_structure(diagram, registry)
    assert graph is not None, diagnostics
    return check_diagram(diagram, graph, registry)


def compile_ok(path: str):
    from pathlib import Path

    source = Path(path).read_text()
    result = compile_source(source, path)
    assert result.typed is not None, result.diagnostics
    return result


def test_qa_corpus_checks_clean():
    result = compile_ok("corpus/pass/qa_system.dial")
    assert result.typed.diagnostics == []
    assert len(result.typed.edge_terms) == len(result.typed.diagram.edges)


def test_single_data_node():
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "one" {\n  data x: S\n}\n')
    assert result.typed is not None
    assert result.typed.edge_terms == {} and result.typed.diagnostics == []


def test_flow_cycle_through_structure_builders_converges():
    # a cycle through tuple-building operators must stay on a finite domain
    src = ('dial 0.1\ndialect sys\ndiagram "cycle" {\n'
           "  data x: T\n  node a: func\n  node b: func\n"
           "  edge x -> a\n  edge a -> b\n  edge b -> a\n}\n")
    first = compile_source(src)
    assert first.typed is not None
    second = compile_source(src)
    assert first.typed.edge_terms == second.typed.edge_terms
    assert not [d for d in first.typed.diagnostics if d.severity == "error"]


def test_recurrent_cycle_terminates_and_is_stable():
    src = ('dial 0.1\ndialect sys, nn\ndiagram "loop" {\n'
           "  data x: vec[8]\n  node l: lstm(units=8)\n"
           "  edge x -> l\n  edge l ~> l\n}\n")
    first = compile_source(src)
    second = compile_source(src)
    assert first.typed.edge_terms == second.typed.edge_terms
    assert not first.typed.diagnostics


def test_declared_edge_term_conflict():
    src = ('dial 0.1\ndialect sys\ndiagram "as" {\n'
           "  data x: S\n  node p: POS perf(acc=0.9@\"d\")\n"
           "  edge x -> p as T\n}\n")
    result = compile_source(src)
    assert [d.code for d in result.typed.diagnostics] == ["E104"]


def test_declared_edge_term_may_understate():
    src = ('dial 0.1\ndialect sys\ndiagram "as" {\n'
           "  data x: S^{NER,Token}\n  node p: POS perf(acc=0.9@\"d\")\n"
           "  edge x -> p as S^NER\n}\n")
    result = compile_source(src)
    assert result.typed.diagnostics == []


def _as_source(data: str, declared: str) -> str:
    return ('dial 0.1\ndialect sys\ndiagram "as" {\n'
            f"  data x: {data}\n  node v: verify\n  edge x -> v as {declared}\n}}\n")


@pytest.mark.parametrize("data, declared, reason", [
    ("S", "{S}", "structure scalar is not set"),
    ("{S}", "S", "structure set is not scalar"),
    ("S", "(S, T)", "tuple shapes differ"),
    ("{(S, T)}", "{(S, T, T)}", "tuple shapes differ"),
    ("C", "P_c[0,1]", "not a distribution"),
    ("P_c[0,1]", "P_c[0,2]", "distribution ranges differ"),
    ("S", "T", "category S is not T"),
    ("(S, T)", "(S, T^NER)", "labels NER were never applied"),
    ("vec[4]", "vec[8]", "dimensions differ ([4] inferred)"),
    ("Term_2", "Term_1", "subscripts differ"),
], ids=["set_vs_scalar", "scalar_vs_set", "tuple_vs_scalar", "tuple_width", "not_dist",
        "dist_range", "category", "labels", "dims", "subscript"])
def test_declared_edge_term_conflict_reasons(data, declared, reason):
    result = compile_source(_as_source(data, declared))
    carried = format_term(result.registry.parse_term(data))
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E104", f"edge e0 is declared as {declared} but carries {carried}: {reason}")]


def test_conflict_prints_a_range_end_the_grammar_reads():
    [diag] = compile_source(_as_source("P_c[0,0.00001]", "S")).diagnostics
    assert diag.code == "E104" and " carries P_c[0,0.00001]: " in diag.message


def test_declared_tuple_that_is_carried_is_clean():
    assert compile_source(_as_source("(S, T)", "(S, T)")).diagnostics == []


def test_declared_term_on_an_edge_that_carries_nothing_is_not_compared():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "t" {\n  node f: func\n'
                            "  node g: func\n  edge f -> g as S\n}\n")
    assert [(d.code, d.ir_path) for d in result.diagnostics] == [
        ("E101", "f"), ("E101", "g"), ("E102", "e0")]


def test_port_that_produces_nothing_is_e102():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "t" {\n  data d: T @dataset("d")\n'
                            "  node f: func\n  edge d.out1 -> f\n}\n")
    assert [(d.code, d.message, d.ir_path) for d in result.diagnostics] == [
        ("E101", "node 'f': func takes 1..8 input(s), 0 wired", "f"),
        ("E102", "edge e0 carries no resolvable term (source d.out1 produced nothing)", "e0")]


def test_malformed_terms_of_a_deserialized_diagram_are_e004():
    # the front end rejects these terms at lowering; the interchange format does not parse them
    doc = {"format_version": "0.1", "name": "t", "dialects": ["sys"], "groups": [],
           "tables": [], "embeddings": [],
           "nodes": [{"id": "a", "kind": "io", "code": "interface", "params": [["out", "S^"]],
                      "shape_class": "component", "perf": []},
                     {"id": "b", "kind": "function", "code": "func", "params": [],
                      "shape_class": "component", "perf": []}],
           "edges": [{"id": "e0", "source": {"node": "a", "slot": 0},
                      "target": {"node": "b", "slot": 0}, "flow_kind": "flow",
                      "declared_term": "S^"}]}
    typed = checked(deserialize(json.dumps(doc).encode()), Registry())
    assert [(d.code, d.message, d.ir_path) for d in typed.diagnostics] == [
        ("E004", "node 'a': declared output term: term ended early, expected ident", "a"),
        ("E101", "node 'b': func takes 1..8 input(s), 0 wired", "b"),
        ("E102", "edge e0 carries no resolvable term (source a.out0 produced nothing)", "e0"),
        ("E004", "edge e0: term ended early, expected ident", "e0")]


def _extension_source(domain: str, rng: str, *items: str) -> str:
    return ('dial 0.1\ndialect sys\ndiagram "ext" {\n'
            f"  extend task Z {{ domain: {domain}; range: {rng}; }}\n"
            + "".join(f"  {item}\n" for item in items) + "}\n")


def test_extension_tuple_domain():
    fed = ("node f: func", "node z: Z", "edge f -> z")
    scalar = compile_source(_extension_source("(S, T)", "T", "data a: S", "edge a -> f", *fed))
    assert [(d.code, d.message) for d in scalar.diagnostics] == [(
        "E102", "node 'z': input 0 does not fit Z's domain term (S, T): "
                "expected a 2-tuple, got S")]
    pair = ("data a: S", "data b: T", "edge a -> f", "edge b -> f.in1", *fed)
    assert compile_source(_extension_source("(S, T)", "T", *pair)).diagnostics == []
    swapped = compile_source(_extension_source("(T, S)", "T", *pair))
    assert [d.message for d in swapped.diagnostics] == [
        "node 'z': input 0 does not fit Z's domain term (T, S): category S where T is required"]


def test_extension_range_keeps_its_distribution():
    # the range slot is the parsed term as written, distribution range included
    result = compile_source(_extension_source(
        "S", "P_c[0,1]", "data s: S", "node z: Z", "node v: verify",
        "edge s -> z", "edge z -> v as P_c[0,1]"))
    assert result.diagnostics == []
    assert format_term(result.typed.edge_terms["e1"]) == "P_c[0,1]"


def test_extension_labels_inside_a_set_of_tuples_are_registered():
    result = compile_source(_extension_source(
        "{(S^Foo, T)}", "T", "data p: {(S^Foo, T)}", "node z: Z", "edge p -> z"))
    assert result.diagnostics == []
    assert "Foo" in result.registry.labels


def test_entity_linking_updated_kb_persists_back():
    # the optional second output of entity linking may write back to the KB
    src = ('dial 0.1\ndialect sys\ndiagram "writeback" {\n'
           "  data s: S^NER\n"
           '  node el: EL perf(acc=0.8@"d")\n'
           "  data kb1: KB @kb\n"
           "  edge s -> el\n"
           "  edge el.out1 |-> kb1\n}\n")
    result = compile_source(src)
    assert result.typed is not None, result.diagnostics
    assert result.typed.diagnostics == []
    writeback = result.typed.diagram.edges[1]
    assert result.typed.edge_terms[writeback.id].base == "KB"


def test_check_diagram_is_deterministic():
    rng = random.Random(7)
    for _ in range(25):
        diagram = random_propagation_diagram(rng)
        registry = Registry()
        first = checked(diagram, registry)
        second = checked(diagram, registry)
        assert first.edge_terms == second.edge_terms
        assert [d.code for d in first.diagnostics] == [d.code for d in second.diagnostics]


def test_annotation_monotonicity_along_same_carrier_flows():
    # wherever the carrier category is preserved across a node, labels only grow
    rng = random.Random(31)
    registry = Registry()
    for _ in range(60):
        diagram = random_propagation_diagram(rng)
        typed = checked(diagram, registry)
        for node in diagram.nodes:
            in_terms = [typed.edge_terms.get(e.id) for e in diagram.edges
                        if e.target.node == node.id]
            out_terms = [typed.edge_terms.get(e.id) for e in diagram.edges
                         if e.source.node == node.id]
            for source in in_terms:
                for out in out_terms:
                    if source is None or out is None:
                        continue
                    a, b = source.core(), out.core()
                    if a.base is not None and a.base == b.base:
                        assert a.annotations <= b.annotations, (node.code, a, b)


def test_propagation_matches_oracle_small():
    rng = random.Random(20250811)
    for _ in range(50):
        diagram = random_propagation_diagram(rng)
        registry = Registry()
        typed = checked(diagram, registry)
        orders = topological_orders(diagram, cap=24)
        assert orders, "generator always yields a DAG"
        reference = None
        for order in orders:
            edge_terms, codes = propagate_in_order(diagram, order, registry)
            if reference is None:
                reference = (edge_terms, codes)
            assert (edge_terms, codes) == reference, "order independence"
        oracle_terms, oracle_codes = reference
        got = {e.id: typed.edge_terms.get(e.id) for e in diagram.edges}
        assert got == oracle_terms
        assert sorted(d.code for d in typed.diagnostics) == oracle_codes


def _diagnostics(typed) -> list[tuple[str, str, str | None]]:
    return [(d.code, d.message, d.ir_path) for d in typed.diagnostics]


def test_worklist_matches_round_robin_reference():
    # The worklist is the earlier round-robin loop run in topological rank
    # order, minus the evaluations whose inputs had not changed: same terms,
    # same diagnostics in order, and E105 exactly when the rounds ran out.
    # Where the loop in declaration order reaches the same terms, the
    # worklist matches it too.
    rng = random.Random(20261017)
    registry = Registry()
    valid = reversed_some = stuck = declared_same = 0
    for _ in range(1000):
        diagram = random_feedback_diagram(rng)
        _, graph = validate_structure(diagram, registry)
        if graph is None:
            continue
        valid += 1
        reversed_some += bool(break_cycles(diagram)[1])
        typed = check_diagram(diagram, graph, registry)
        got = _diagnostics(typed)
        ranked, converged = round_robin_check(diagram, registry, rank_schedule(diagram))
        if not converged:
            stuck += 1
            assert got.pop()[0] == "E105"
        assert (typed.edge_terms, got) == (ranked.edge_terms, _diagnostics(ranked))
        declared, declared_converged = round_robin_check(diagram, registry)
        if declared_converged and declared.edge_terms == ranked.edge_terms:
            declared_same += 1
            assert got == _diagnostics(declared)
    assert valid > 500 and reversed_some > 100 and stuck > 0
    assert declared_same > 0.95 * valid


def test_non_convergence_reports_e105():
    # a flow cycle through oplus and concat grows the vector every round
    src = ('dial 0.1\ndialect sys\ndiagram "grow" {\n'
           "  data s: vec[4]\n  node a: oplus\n  node b: concat\n"
           "  edge s -> a\n  edge b -> a.in1\n  edge a -> b\n  edge s -> b.in1\n}\n")
    result = compile_source(src)
    e105 = [d for d in result.typed.diagnostics if d.code == "E105"]
    assert len(e105) == 1
    assert e105[0].ir_path == "b" and "did not reach a fixed point" in e105[0].message
    assert result.failed


def _count_infer_output(monkeypatch) -> list[str]:
    """Patch the checker's ``infer_output``; the list fills with the ids it is called on."""
    calls: list[str] = []
    real = dial.typecheck.infer_output

    def counting(node, *args, **kwargs):
        calls.append(node.id)
        return real(node, *args, **kwargs)

    monkeypatch.setattr(dial.typecheck, "infer_output", counting)
    return calls


def test_node_still_queued_at_e105_reports_on_final_inputs():
    # c reads the growing vector over a recurrent edge and ranks before its
    # source, so it is still queued when the sweeps run out: its E103 must
    # name the dims the edge finally carries, not those its last sweep saw.
    src = ('dial 0.1\ndialect sys\ndiagram "grow" {\n'
           "  data m: vec[4,4]\n  node c: oplus\n"
           "  data s: vec[4]\n  node a: oplus\n  node b: concat\n"
           "  edge s -> a\n  edge b -> a.in1\n  edge a -> b\n  edge s -> b.in1\n"
           "  edge m -> c\n  edge b ~> c.in1\n}\n")
    typed = compile_source(src).typed
    fed_back = next(e for e in typed.diagram.edges if e.flow_kind == "recurrent")
    assert [(d.code, d.ir_path) for d in typed.diagnostics] == [("E103", "c"), ("E105", "c")]
    assert typed.diagnostics[0].message.endswith(
        f"got [4, 4] and {list(typed.edge_terms[fed_back.id].dims)}")


def _chain_source(decls: list[str], edges: list[str], reverse: bool) -> str:
    if reverse:
        decls, edges = decls[::-1], edges[::-1]
    return "\n".join(['dial 0.1', 'dialect sys', 'diagram "chain" {', *decls, *edges, "}"]) + "\n"


@pytest.mark.parametrize("reverse", [True, False])
def test_check_evaluates_each_chain_node_once(monkeypatch, reverse):
    # one worklist evaluation per node, whatever the declaration order; its
    # diagnostics are kept, with no second pass to collect them. Each concat
    # adds t0's one dimension, so no two nodes see equal inputs and every
    # evaluation is a call of infer_output.
    n = 200
    decls = ["  data t0: vec[1]"] + [f"  node t{i}: concat" for i in range(1, n)]
    edges = [f"  edge t{i - 1} -> t{i}" for i in range(1, n)] + \
        [f"  edge t0 -> t{i}.in1" for i in range(1, n)]
    calls = _count_infer_output(monkeypatch)
    result = compile_source(_chain_source(decls, edges, reverse))
    assert result.diagnostics == []
    assert len(calls) == n
    last = next(e for e in result.typed.diagram.edges if e.target.node == f"t{n - 1}"
                and e.source.node != "t0")
    assert result.typed.edge_terms[last.id].dims == (n - 1,)


@pytest.mark.parametrize("reverse", [True, False])
def test_check_infers_each_distinct_evaluation_once(monkeypatch, reverse):
    # the labels stop growing at t3, so t4..t6 give each code its last new
    # input, and the other 193 evaluations repeat one of the first 7
    n = 200
    decls = ["  data t0: S^Token"] + [f"  node t{i}: {('POS', 'NER', 'SRL')[i % 3]}"
                                      for i in range(1, n)]
    edges = [f"  edge t{i} -> t{i + 1}" for i in range(n - 1)]
    calls = _count_infer_output(monkeypatch)
    result = compile_source(_chain_source(decls, edges, reverse))
    assert result.diagnostics == []
    assert calls == [f"t{i}" for i in range(7)]


def test_params_equal_across_types_are_inferred_apart():
    # 1 == 1.0, but class=1 and class=1.0 name different classes; each pair
    # of twins reads one source, so only the params' types tell them apart
    twins = {"c1": "classifier(class=1)", "c2": "classifier(class=1.0)",
             "r1": "rank(n=2)", "r2": "rank(n=2.0)"}
    body = ["  data v: vec[300]", "  data s: {S}"]
    for node_id, code in twins.items():
        body += [f"  node {node_id}: {code}", f"  node {node_id}_out: verify",
                 f"  edge {'v' if code.startswith('classifier') else 's'} -> {node_id}",
                 f"  edge {node_id} -> {node_id}_out"]
    result = compile_source('dial 0.1\ndialect sys\ndiagram "twins" {\n'
                            + "\n".join(body) + "\n}\n")
    assert result.diagnostics == []
    assert [format_term(result.typed.edge_terms[e.id]) for e in result.typed.diagram.edges] == \
        ["vec[300]", "C_1", "vec[300]", "C_1.0", "{S}", "[S]<=2", "{S}", "[S]<=2"]


def test_decoded_params_of_any_json_value_are_inferred_apart():
    # a decoded diagram may carry params the grammar cannot write: 0.0 and
    # -0.0 are equal floats that print apart, and a list is unhashable
    src = ('dial 0.1\ndialect sys\ndiagram "d" {\n  data v: vec[3]\n'
           "  node a: classifier(class=1)\n  node b: classifier(class=1)\n"
           "  node c: classifier(class=1)\n  node o: func\n  edge v -> a\n  edge v -> b\n"
           "  edge v -> c\n  edge a -> o\n  edge b -> o.in1\n  edge c -> o.in2\n}\n")
    doc = json.loads(canonical_serialize(compile_source(src).diagram))
    for node, value in zip(doc["nodes"][1:], (0.0, -0.0, [1, 2])):
        node["params"] = [["class", value]]
    diagram = deserialize(json.dumps(doc).encode())
    typed = checked(diagram, Registry())
    assert typed.diagnostics == []
    assert [format_term(typed.edge_terms[f"e{i}"]) for i in range(3, 6)] == \
        ["C_0.0", "C_-0.0", "C_[1, 2]"]


def test_interim_diagnostics_do_not_survive(monkeypatch):
    # x is evaluated before the recurrent feed from y has a term, so its first
    # evaluation sees one input wired and reports E101; the second sees both.
    # Only the latest evaluation's diagnostics may reach the result.
    src = ('dial 0.1\ndialect sys\ndiagram "feedback" {\n'
           "  data s: S\n  node x: oplus\n  node y: verify\n"
           "  edge s -> x.in0\n  edge y ~> x.in1\n  edge x -> y\n}\n")
    calls = _count_infer_output(monkeypatch)
    result = compile_source(src)
    assert result.typed is not None and result.diagnostics == []
    assert calls == ["s", "x", "y", "x"]
