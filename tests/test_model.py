"""Core IR: structural validation, canonical encoding."""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from dial.cli import compile_source
from dial.diagnostics import SerializationError
from dial.interchange import canonical_serialize, deserialize
from dial.model import (
    Diagram,
    DetailGroup,
    Edge,
    EmbeddingDecl,
    MetaTable,
    Node,
    PerfAnnotation,
    Port,
    _validate_groups,
    validate_structure,
)
from dial.record import replace
from dial.registry import Registry
from oracles import random_grouped_diagram, reference_validate_groups


def task(node_id: str, code: str, **kw) -> Node:
    return Node(id=node_id, kind="task", code=code, shape_class="component", **kw)


def add_edge(d: Diagram, source: str, target: str, kind: str = "flow",
             out_slot: int = 0, in_slot: int = 0) -> None:
    d.edges.append(Edge(f"e{len(d.edges)}", Port(source, out_slot, "out"),
                        Port(target, in_slot, "in"), kind))


def chain_diagram() -> Diagram:
    d = Diagram("chain", frozenset({"sys"}), nodes=[
        Node("src", "io", "interface", params=(("out", "S"),)), task("p", "POS"), task("n", "NER")])
    add_edge(d, "src", "p")
    add_edge(d, "p", "n")
    return d


def validate(d: Diagram) -> list[str]:
    return [x.code for x in validate_structure(d, Registry())[0]]


def test_new_diagram():
    for line, dialects in (("sys", {"sys"}), ("sys, nn", {"sys", "nn"})):
        result = compile_source(f'dial 0.1\ndialect {line}\ndiagram "QA" {{ }}\n')
        assert result.diagnostics == []
        assert result.diagram.dialects == frozenset(dialects)
        assert not result.diagram.nodes and not result.diagram.edges


def test_new_diagram_unknown_dialect():
    # E003 from lowering; the interchange decoder reports the same list as E021
    for line, names in (("sys, db", "db"), ("nn", "missing sys")):  # sys is mandatory
        result = compile_source(f'dial 0.1\ndialect {line}\ndiagram "X" {{ }}\n')
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E003", f"dialect list is invalid ({names}); v0.1 registers: sys, nn")]
        assert result.diagram is None


def test_add_node_and_duplicates():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "t" {\n'
                            '  node p: POS\n  node p: POS\n}\n')
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E003", "duplicate declaration id 'p'")]
    assert [n.id for n in result.diagram.nodes] == ["p"]


def test_unresolved_code_is_deferred():
    d = Diagram("t", frozenset({"sys"}), nodes=[Node("b", "nn_layer", "bilstm")])
    assert validate(d) == ["E010"]


def test_an_unresolved_code_is_reported_at_each_of_its_nodes(monkeypatch):
    # resolved once per call, yet E010 once per node, in declaration order
    d = Diagram("t", frozenset({"sys"}), nodes=[
        Node("b1", "nn_layer", "bilstm"), task("p", "POS"), Node("b2", "nn_layer", "bilstm"),
        task("q", "POS"), Node("b3", "nn_layer", "bilstm")])
    calls: list[str] = []
    real = Registry.resolve

    def counting(self, code, dialects):
        calls.append(code)
        return real(self, code, dialects)

    monkeypatch.setattr(Registry, "resolve", counting)
    diags, graph = validate_structure(d, Registry())
    assert [(x.code, x.ir_path) for x in diags] == [("E010", "b1"), ("E010", "b2"), ("E010", "b3")]
    assert graph is None and calls == ["bilstm", "POS"]


def test_add_edge_unknown_node():
    d = chain_diagram()
    add_edge(d, "src", "ghost")
    diags, _ = validate_structure(d, Registry())
    assert [(x.code, x.ir_path, x.message) for x in diags] == [
        ("E011", "e2", "edge references unknown node 'ghost'")]


def test_edges_stay_closed_under_nodes():
    d = chain_diagram()
    for edge in d.edges:
        assert d.node_by_id(edge.source.node) is not None
        assert d.node_by_id(edge.target.node) is not None


def test_validate_clean_chain():
    assert validate(chain_diagram()) == []


def test_accepted_diagram_gets_its_graph():
    d = chain_diagram()
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("n",)))
    registry = Registry()
    diags, graph = validate_structure(d, registry)
    assert diags == []
    assert graph.nodes == {n.id: n for n in d.nodes}
    assert graph.resolved == {n.id: registry.resolve(n.code, d.dialects) for n in d.nodes}
    assert graph.group_of == {"n": "g1"}
    d.nodes.append(Node("b", "nn_layer", "bilstm"))
    assert validate_structure(d, registry)[1] is None


def test_a_full_pipeline_resolves_each_node_code_at_most_twice(monkeypatch):
    # each distinct code once in lowering and once in validation; check, lint
    # and render read the Graph
    calls: list[str] = []
    real = Registry.resolve

    def counting(self, code, dialects):
        calls.append(code)
        return real(self, code, dialects)

    monkeypatch.setattr(Registry, "resolve", counting)
    chain = "\n".join(["dial 0.1", "dialect sys", 'diagram "chain" {', "  data t0: S^Token"]
                      + [f"  node t{i}: {('POS', 'NER', 'SRL')[i % 3]}" for i in range(1, 300)]
                      + [f"  edge t{i} -> t{i + 1}" for i in range(299)] + ["}", ""])
    sources = [p.read_text(encoding="utf-8") for p in sorted(Path("corpus/pass").glob("*.dial"))]
    for source in sources + [chain]:
        calls.clear()
        result = compile_source(source)
        result.lint()
        result.render("svg")
        result.render("tikz")
        assert result.diagnostics == []
        counts = Counter(calls)
        assert set(counts) <= {n.code for n in result.diagram.nodes}, counts
        assert max(counts.values(), default=0) <= 2, counts


def test_validate_is_pure():
    d = chain_diagram()
    d.nodes.append(Node("b", "nn_layer", "bilstm"))
    registry = Registry()
    assert validate_structure(d, registry) == validate_structure(d, registry)


def test_persist_into_task_is_flagged():
    d = chain_diagram()
    add_edge(d, "p", "n", "persist")
    codes = validate(d)
    # the slot is already taken by the flow edge, and the target is no resource
    assert "E013" in codes and "E011" in codes


def test_query_needs_a_resource_endpoint():
    d = chain_diagram()
    d.nodes.append(Node("f", "function", "func"))
    add_edge(d, "src", "f", "query")
    codes = validate(d)
    assert codes == ["E013"]


def test_slot_beyond_arity():
    d = chain_diagram()
    add_edge(d, "p", "n", out_slot=3, in_slot=2)
    codes = validate(d)
    assert codes.count("E011") == 2


def test_group_cycle_detection():
    d = chain_diagram()
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("n",)))
    d.groups.append(DetailGroup("g2", owner="n", member_nodes=("p",)))
    codes = validate(d)
    assert "E012" in codes


def test_owner_inside_its_own_group():
    d = chain_diagram()
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("p", "n")))
    codes = validate(d)
    assert "E012" in codes


def owner_cycle_mutants(rng: random.Random, diagram: Diagram) -> list[Diagram]:
    """``diagram`` with a ring of its groups closed (each one's owner joins the
    next one's members), and that with one group given another's id."""
    groups = diagram.groups
    if not groups:
        return []
    ring = rng.sample(range(len(groups)), rng.randint(1, len(groups)))
    closed = list(groups)
    for i, j in zip(ring, ring[1:] + ring[:1]):
        closed[j] = replace(closed[j], member_nodes=(*closed[j].member_nodes, groups[i].owner))
    mutants = [closed]
    if len(groups) > 1:
        i, j = rng.sample(range(len(groups)), 2)
        mutants.append([*closed[:i], replace(closed[i], id=groups[j].id), *closed[i + 1:]])
    return [Diagram(diagram.name, diagram.dialects, diagram.nodes, diagram.edges, mutant)
            for mutant in mutants]


def random_group_graph(rng: random.Random) -> Diagram:
    """Up to 12 groups over up to 8 nodes, each owner and member drawn at
    random (now and then a node that does not exist), about one group in five
    sharing the id of an earlier one."""
    nodes = [task(f"n{i}", "POS") for i in range(rng.randint(1, 8))]
    ids = [n.id for n in nodes] + ["ghost"]
    groups: list[DetailGroup] = []
    for k in range(rng.randint(1, 12)):
        group_id = rng.choice(groups).id if groups and rng.random() < 0.2 else f"g{k}"
        groups.append(DetailGroup(group_id, rng.choice(ids[:-1] if rng.random() < 0.9 else ids),
                                  tuple(rng.choices(ids, k=rng.randint(0, 3)))))
    return Diagram("groups", frozenset({"sys"}), nodes=nodes, groups=groups)


def test_group_validation_matches_the_reference_walk():
    # the one pass over the group graph against a walk from every group
    rng = random.Random(41)
    diagrams = []
    for _ in range(500):
        grouped = random_grouped_diagram(rng)
        diagrams += [grouped, *owner_cycle_mutants(rng, grouped), random_group_graph(rng)]
    seen = Counter()
    for diagram in diagrams:
        for d in (diagram, deserialize(canonical_serialize(diagram))):
            nodes = {n.id: n for n in d.nodes}
            ours, theirs = [], []
            assert _validate_groups(d, nodes, ours) == reference_validate_groups(d, nodes, theirs)
            assert ours == theirs, canonical_serialize(d)
            canonical = {g.id: g for g in d.groups}
            flagged = [x.ir_path for x in ours if x.message.endswith("transitively")]
            seen["cycle"] += bool(flagged)
            seen["shared id"] += any(canonical[g.id] is not g and g.id in flagged
                                     for g in d.groups)
    assert seen["cycle"] > 1500 and seen["shared id"] > 500, seen


@pytest.mark.parametrize("reverse", [False, True], ids=["declared_down", "declared_up"])
def test_a_long_chain_of_detail_groups_validates_in_linear_time(reverse):
    # group g<i> refines n<i> into n<i+1>: the walk from each group climbed
    # every group above it, about a second for a chain this long
    n = 4000
    d = Diagram("nested", frozenset({"sys"}),
                nodes=[Node(f"n{i}", "function", "func") for i in range(n + 1)],
                edges=[Edge(f"e{i}", Port(f"n{i}", 0, "out"), Port(f"n{i + 1}", 0, "in"))
                       for i in range(n)],
                groups=[DetailGroup(f"g{i}", f"n{i}", (f"n{i + 1}",)) for i in range(n)])
    if reverse:
        for items in (d.nodes, d.edges, d.groups):
            items.reverse()
    start = time.perf_counter()
    diagnostics, graph = validate_structure(d, Registry())
    elapsed = time.perf_counter() - start
    assert diagnostics == [] and len(graph.group_of) == n
    assert elapsed < 0.25, elapsed


def test_dangling_group_member():
    d = chain_diagram()
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("ghost",)))
    codes = validate(d)
    assert codes == ["E011"]


def test_projection_of_unknown_embedding():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "t" {\n  embedding w (dim=3)\n'
                            "  data a: S\n  node p: proj(embedding=glove)\n  edge a -> p\n}\n")
    assert [(d.code, d.message, d.ir_path, str(d.span)) for d in result.diagnostics] == [
        ("E011", "projection references unknown embedding 'glove'", "p", "6:3")]


def test_dangling_group_owner_and_member_edge():
    # lowering reports an unknown owner itself, so only a built diagram reaches these
    d = chain_diagram()
    d.groups.append(DetailGroup("g1", owner="ghost", member_nodes=("n",),
                                member_edges=("e1", "e7")))
    assert [(x.code, x.message, x.ir_path) for x in validate_structure(d, Registry())[0]] == [
        ("E011", "detail group owner 'ghost' does not exist", "g1"),
        ("E011", "detail group member edge 'e7' does not exist", "g1")]


def test_node_in_two_groups():
    # layout would draw the node in both boxes; the later group is named
    d = chain_diagram()
    d.nodes.append(Node("f", "function", "func"))
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("f", "f")))
    d.groups.append(DetailGroup("g2", owner="n", member_nodes=("f",)))
    diags, _ = validate_structure(d, Registry())
    assert [(x.code, x.ir_path) for x in diags] == [("E014", "g2")]
    assert "'g1'" in diags[0].message and "'f'" in diags[0].message


def test_node_in_two_groups_from_interchange_json():
    doc = json.loads(canonical_serialize(chain_diagram()))
    doc["groups"] = [
        {"id": "g1", "owner": "src", "member_nodes": ["p", "n"], "member_edges": ["e1"]},
        {"id": "g2", "owner": "src", "member_nodes": ["n"], "member_edges": []},
        {"id": "g3", "owner": "src", "member_nodes": ["n", "p"], "member_edges": []},
    ]
    diags, _ = validate_structure(deserialize(json.dumps(doc).encode()), Registry())
    assert [(x.code, x.ir_path) for x in diags] == [
        ("E014", "g2"), ("E014", "g3"), ("E014", "g3")]


def rich_diagram() -> Diagram:
    d = chain_diagram()
    d.nodes.append(Node("gold1", "resource", "gold", label="labels",
                        params=(("out", "S^NER"),),
                        perf=(PerfAnnotation("acc", 0.9, "dev"),)))
    d.groups.append(DetailGroup("g1", owner="p", member_nodes=("n",),
                                member_edges=("e1",)))
    d.tables.append(MetaTable("results", "results", rows=(("acc", "0.9"),)))
    d.embeddings.append(EmbeddingDecl("w", 300, "w2v"))
    return d


def test_serialize_deterministic():
    d = rich_diagram()
    assert canonical_serialize(d) == canonical_serialize(d)


def test_serialized_bytes_are_pinned():
    # every top-level key, a node with params and perf, both port directions,
    # a group, a table and an embedding, byte for byte
    pinned = Path(__file__).parent / "fixtures" / "interchange" / "rich_diagram.json"
    assert canonical_serialize(rich_diagram()) == pinned.read_bytes()


@pytest.mark.parametrize("detail, hint", [(None, None), ("g1", "top"), (5, ["x"])],
                         ids=["null", "strings", "ill_typed"])
def test_documents_with_the_retired_node_keys_still_decode(detail, hint):
    # documents written before Node lost ``detail`` and ``placement_hint``
    # carry both keys on every node; the decoder ignores them, as any key
    # it does not read
    pinned = (Path(__file__).parent / "fixtures" / "interchange" / "rich_diagram.json").read_bytes()
    doc = json.loads(pinned)
    for node in doc["nodes"]:
        node["detail"], node["placement_hint"] = detail, hint
    assert deserialize(json.dumps(doc).encode()) == deserialize(pinned) == rich_diagram()


def test_round_trip():
    d = rich_diagram()
    data = canonical_serialize(d)
    restored = deserialize(data)
    assert restored == d
    assert canonical_serialize(restored) == data


def test_declaration_order_is_significant():
    a = Diagram("t", frozenset({"sys"}), nodes=[task("p", "POS"), task("n", "NER")])
    b = Diagram("t", frozenset({"sys"}), nodes=[task("n", "NER"), task("p", "POS")])
    assert canonical_serialize(a) != canonical_serialize(b)


def test_round_trip_on_random_diagrams():
    import random

    from oracles import random_propagation_diagram

    rng = random.Random(2024)
    for _ in range(50):
        d = random_propagation_diagram(rng)
        data = canonical_serialize(d)
        assert deserialize(data) == d
        assert canonical_serialize(deserialize(data)) == data


def test_truncated_document():
    data = canonical_serialize(rich_diagram())
    with pytest.raises(SerializationError) as exc:
        deserialize(data[: len(data) // 2])
    assert exc.value.diagnostic.code == "E021"


def _set(path: tuple, value):
    def mutate(doc: dict) -> None:
        *parents, key = path
        for part in parents:
            doc = doc[part]
        doc[key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(("edges", 0, "source"), {}),
    _set(("nodes", 0, "params"), [[1, 2, 3]]),
    _set(("nodes", -1, "perf"), [{"metric": "acc", "value": 5, "corpus": "dev"}]),
    _set(("embeddings", 0, "dim"), 0),
    _set(("dialects",), [["sys"]]),
    _set(("nodes", -1, "perf"), [7]),
    _set(("dialects",), ["sys", 5]),
    _set(("title_placement",), None),
    _set(("nodes", 0, "label"), 7),
    _set(("nodes", 0, "params"), [[1, 2]]),
    _set(("edges", 0, "declared_term"), 5),
    _set(("groups", 0, "member_nodes"), [[1]]),
    _set(("groups", 0, "member_edges"), ["e1", None]),
    _set(("groups", 0, "entry_side"), 1),
    _set(("groups", 0, "exit_side"), None),
    _set(("tables", 0, "placement"), {}),
    _set(("embeddings", 0, "label"), 300),
    _set(("dialects",), ["db", "sys"]),
    _set(("dialects",), ["nn"]),
    _set(("edges", 0, "target", "slot"), -1),
    _set(("edges", 0, "source", "slot"), True),
    _set(("embeddings", 0, "dim"), True),
    _set(("nodes", -1, "perf"), [{"metric": "acc", "value": False, "corpus": "dev"}]),
], ids=["empty_source", "params_triple", "acc_out_of_range", "dim_zero",
        "unhashable_dialect", "perf_not_object", "dialect_not_string",
        "title_placement_null", "label_not_string", "param_name_not_string",
        "declared_term_not_string",
        "member_node_not_string", "member_edge_not_string", "entry_side_not_string",
        "exit_side_null", "table_placement_not_string", "embedding_label_not_string",
        "unknown_dialect", "missing_sys", "negative_slot",
        "bool_slot", "bool_dim", "bool_perf_value"])
def test_malformed_document_is_e021(mutate):
    doc = json.loads(canonical_serialize(rich_diagram()))
    mutate(doc)
    with pytest.raises(SerializationError) as exc:
        deserialize(json.dumps(doc).encode())
    assert exc.value.diagnostic.code == "E021"


def _append_first_edge(doc: dict) -> None:
    doc["edges"].append(doc["edges"][0])


@pytest.mark.parametrize("mutate, message", [
    (_set(("nodes", 0, "kind"), "blob"), "node 'src': unknown kind 'blob'"),
    (_set(("edges", 0, "flow_kind"), "zap"), "edge 'e0': unknown flow kind 'zap'"),
    (_append_first_edge, "duplicate edge id 'e0'"),
], ids=["unknown_node_kind", "unknown_flow_kind", "duplicate_edge_id"])
def test_decoder_names_the_bad_record(mutate, message):
    doc = json.loads(canonical_serialize(rich_diagram()))
    mutate(doc)
    with pytest.raises(SerializationError) as exc:
        deserialize(json.dumps(doc).encode())
    assert (exc.value.diagnostic.code, exc.value.diagnostic.message) == ("E021", message)


def test_deeply_nested_document_is_e021():
    with pytest.raises(SerializationError) as exc:
        deserialize(b"[" * 100_000 + b"]" * 100_000)
    assert exc.value.diagnostic.code == "E021"


def test_future_version_rejected():
    data = canonical_serialize(rich_diagram()).replace(b'"0.1"', b'"9.9"', 1)
    with pytest.raises(SerializationError) as exc:
        deserialize(data)
    assert exc.value.diagnostic.code == "E020"


def test_duplicate_node_id_rejected_by_decoder():
    d = chain_diagram()
    data = canonical_serialize(d)
    # splice the first node object in twice
    doc = data.decode()
    import json

    obj = json.loads(doc)
    obj["nodes"].append(obj["nodes"][0])
    with pytest.raises(SerializationError) as exc:
        deserialize(json.dumps(obj).encode())
    assert exc.value.diagnostic.code == "E021"


def test_perf_annotation_bounds():
    with pytest.raises(ValueError):
        PerfAnnotation("acc", 1.2, "dev")
    with pytest.raises(ValueError):
        PerfAnnotation("", 0.5, "dev")
    assert PerfAnnotation("f1", 1.2, "dev").value == 1.2  # only acc is bounded
