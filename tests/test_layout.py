"""Layered layout: cycle handling, layering, ordering, geometry invariants."""

from __future__ import annotations

import io
import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import dial.layout
from dial.cli import compile_file, compile_source, run
from dial.layout import (
    GRID,
    Box,
    _weak_components,
    assign_layers,
    break_cycles,
    debug_dump,
    layout,
    main_layering,
    order_within_layers,
)
from dial.model import Diagram, Edge, MetaTable, Node, Port
from oracles import (
    count_crossings,
    longest_path_oracle,
    min_crossings,
    random_feedback_diagram,
    random_grouped_diagram,
    random_layout_diagram,
    reference_assign_layers,
    reference_break_cycles,
    reference_layout,
    reference_order_within_layers,
    repeated_face_diagrams,
)


def diagram_from_edges(n: int, pairs: list[tuple[int, int]],
                       kinds: dict[int, str] | None = None) -> Diagram:
    d = Diagram(name="t", dialects=frozenset({"sys"}))
    for i in range(n):
        d.nodes.append(Node(id=f"v{i}", kind="operator", code="func",
                            shape_class="feature"))
    for idx, (a, b) in enumerate(pairs):
        kind = (kinds or {}).get(idx, "flow")
        d.edges.append(Edge(f"e{idx}", Port(f"v{a}", 0, "out"),
                            Port(f"v{b}", 0, "in"), kind))
    return d


# -- break_cycles -------------------------------------------------------------


def test_recurrent_back_edge_needs_no_reversal():
    d = diagram_from_edges(2, [(0, 1), (1, 0)], kinds={1: "recurrent"})
    _, reversed_ids = break_cycles(d)
    assert reversed_ids == frozenset()


def test_three_cycle_reverses_exactly_one():
    d = diagram_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    _, reversed_ids = break_cycles(d)
    assert reversed_ids == frozenset({"e2"})  # the declaration-latest closer


def test_dag_has_empty_reversed_set():
    d = diagram_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    oriented, reversed_ids = break_cycles(d)
    assert reversed_ids == frozenset()
    assert len(oriented) == 4


def test_orientation_is_acyclic_on_random_cyclic_graphs():
    rng = random.Random(5)
    for _ in range(100):
        d = random_layout_diagram(rng, cyclic=True)
        oriented, _ = break_cycles(d)
        layers = assign_layers([n.id for n in d.nodes], oriented)
        for _, u, v in oriented:
            assert layers[u] < layers[v]


# -- assign_layers -------------------------------------------------------------


def test_chain_layers():
    d = diagram_from_edges(3, [(0, 1), (1, 2)])
    oriented, _ = break_cycles(d)
    assert assign_layers([n.id for n in d.nodes], oriented) == {
        "v0": 0, "v1": 1, "v2": 2}


def test_diamond_layers():
    d = diagram_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    oriented, _ = break_cycles(d)
    assert assign_layers([n.id for n in d.nodes], oriented) == {
        "v0": 0, "v1": 1, "v2": 1, "v3": 2}


def test_layers_match_exhaustive_oracle():
    rng = random.Random(11)
    for _ in range(150):
        d = random_layout_diagram(rng, max_nodes=6)
        oriented, _ = break_cycles(d)
        ids = [n.id for n in d.nodes]
        assert assign_layers(ids, oriented) == longest_path_oracle(ids, oriented)


# -- order_within_layers ---------------------------------------------------------


def test_independent_chains_keep_declaration_order():
    # two chains declared interleaved: chain 1 = v0->v2, chain 2 = v1->v3
    d = diagram_from_edges(4, [(0, 2), (1, 3)])
    oriented, _ = break_cycles(d)
    ids = [n.id for n in d.nodes]
    layers = assign_layers(ids, oriented)
    order = order_within_layers(ids, layers, oriented, dict.fromkeys(ids, 0))
    assert order[0] == ["v0", "v1"]
    assert order[1] == ["v2", "v3"]


def test_single_layer_is_declaration_order():
    d = diagram_from_edges(3, [])
    ids = [n.id for n in d.nodes]
    order = order_within_layers(ids, dict.fromkeys(ids, 0), [], dict.fromkeys(ids, 0))
    assert order[0] == ["v0", "v1", "v2"]


def test_crossing_reduction_reaches_minimum_on_small_bipartite():
    # v0,v1 above; v2,v3 below; edges cross in declaration order
    d = diagram_from_edges(4, [(0, 3), (1, 2)])
    oriented, _ = break_cycles(d)
    ids = [n.id for n in d.nodes]
    layers = assign_layers(ids, oriented)
    order = order_within_layers(ids, layers, oriented, dict.fromkeys(ids, 0))
    pairs = [(u, v) for _, u, v in oriented]
    got = count_crossings(order[0], order[1], pairs)
    best = min_crossings(["v0", "v1"], ["v2", "v3"], pairs)
    assert got == best == 0


def test_complete_bipartite_crossings_not_worse_than_minimum():
    d = diagram_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    oriented, _ = break_cycles(d)
    ids = [n.id for n in d.nodes]
    layers = assign_layers(ids, oriented)
    order = order_within_layers(ids, layers, oriented, dict.fromkeys(ids, 0))
    pairs = [(u, v) for _, u, v in oriented]
    assert count_crossings(order[0], order[1], pairs) == \
        min_crossings(["v0", "v1"], ["v2", "v3"], pairs)


# -- layout ---------------------------------------------------------------------


def test_empty_diagram_is_title_only():
    # a table without rows gets no region and takes no room
    d = Diagram(name="empty", dialects=frozenset({"sys"}),
                tables=[MetaTable(id="none", placement="top_left")])
    result = layout(d, *break_cycles(d))
    assert result.node_boxes == {} and result.edge_routes == {}
    assert result.table_regions == {}
    assert result.title_region == Box(8, 0, 48, 16)
    assert (result.width, result.height) == (168, 40)


def test_layout_deterministic():
    result = compile_file("corpus/pass/qa_system.dial")
    first = result.layout_result
    second = layout(result.diagram, *break_cycles(result.diagram))
    assert first == second
    assert debug_dump(result.diagram, first) == debug_dump(result.diagram, second)


def test_qa_two_separate_components():
    result = compile_file("corpus/pass/qa_system.dial")
    lay = result.layout_result
    # doc (KB construction) and q (semantic parsing) start separate bands
    doc, q = lay.node_boxes["doc"], lay.node_boxes["q"]
    members = result.typed.graph.group_of
    top_boxes = [lay.node_boxes[n.id] for n in result.diagram.nodes
                 if n.id not in members]
    band_break = max(min(doc.y, q.y), 0)
    assert doc.y != q.y
    assert all(b.bottom <= max(doc.bottom, q.bottom) + 2000 for b in top_boxes)


def test_layer_monotonicity_in_main_area():
    for name in ("qa_system", "lexicon_attention", "entailment"):
        result = compile_file(f"corpus/pass/{name}.dial")
        lay = result.layout_result
        members = result.typed.graph.group_of
        for edge in result.diagram.edges:
            if edge.flow_kind == "recurrent" or edge.id in lay.reversed_edges:
                continue
            if edge.source.node in members or edge.target.node in members:
                same_group = any(
                    edge.source.node in g.member_nodes and edge.target.node in g.member_nodes
                    for g in result.diagram.groups)
                if not same_group:
                    continue
            assert lay.layers[edge.source.node] < lay.layers[edge.target.node], edge


def intersects(a: Box, b: Box) -> bool:
    return not (a.right <= b.x or b.right <= a.x or a.bottom <= b.y or b.bottom <= a.y)


def test_group_containment_and_owner_separation():
    result = compile_file("corpus/pass/qa_system.dial")
    lay = result.layout_result
    for group in result.diagram.groups:
        gbox = lay.group_boxes[group.id]
        for member in group.member_nodes:
            mbox = lay.node_boxes[member]
            assert gbox.x < mbox.x and mbox.right < gbox.right
            assert gbox.y < mbox.y and mbox.bottom < gbox.bottom
        owner_box = lay.node_boxes[group.owner]
        assert not intersects(owner_box, gbox)


def test_no_overlaps():
    for name in ("qa_system", "lexicon_attention", "entailment"):
        result = compile_file(f"corpus/pass/{name}.dial")
        lay = result.layout_result
        boxes = list(lay.node_boxes.items())
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert not intersects(boxes[i][1], boxes[j][1]), (boxes[i], boxes[j])
        regions = list(lay.table_regions.values()) + [lay.title_region]
        for _, nbox in boxes:
            for region in regions:
                assert not intersects(nbox, region)


def test_coordinates_are_grid_quantized_integers():
    # every box's x, y, w and h, group boxes under a short or a tall caption
    # included, is an integer on the grid: layout sums gaps, pads and sizes
    # without rounding them again
    diagrams = [compile_file(p).typed.diagram for p in sorted(Path("corpus/pass").glob("*.dial"))]
    rng = random.Random(40)
    diagrams += [random_grouped_diagram(rng) for _ in range(300)]
    captions: Counter[bool] = Counter()
    for diagram in diagrams:
        lay = layout(diagram, *break_cycles(diagram))
        boxes = [*lay.node_boxes.values(), *lay.group_boxes.values(),
                 *lay.table_regions.values(), lay.title_region]
        for box in boxes:
            assert all(type(v) is int and v % GRID == 0 for v in box), (diagram.name, box)
        assert lay.width % GRID == 0 and lay.height % GRID == 0
        loop_ends = {end for e in diagram.edges
                     if e.flow_kind == "recurrent" or e.source.node == e.target.node
                     for end in (e.source.node, e.target.node)}
        captions.update(bool(loop_ends & set(g.member_nodes)) for g in diagram.groups
                        if g.member_nodes)
    assert captions[True] > 50 and captions[False] > 50, captions


def test_tables_default_bottom_right():
    result = compile_file("corpus/pass/lexicon_attention.dial")
    lay = result.layout_result
    content_right = max(b.right for b in lay.node_boxes.values())
    for table_id, region in lay.table_regions.items():
        assert region.y > max(b.bottom for b in lay.node_boxes.values()) - 1
        assert region.right >= content_right - 200  # anchored toward the right edge
    assert lay.title_region.x == 8 and lay.title_region.y == 0


PLACED = (
    'dial 0.1\ndialect sys\ndiagram "placed" at bottom_right {\n'
    "  data a: S\n  node f: func\n  edge a -> f\n"
    "  detail g for f {\n    data d: S\n    node m: func\n    edge d -> m\n  }\n"
    '  table tl at top_left {\n    "k": "v";\n    "k2": "v2";\n    "k3": "v3";\n  }\n'
    '  table tr at top_right {\n    "key": "value";\n  }\n'
    '  table tr2 at top_right {\n    "x": "y";\n  }\n'
    '  table bl at bottom_left {\n    "b": "1";\n  }\n'
    '  table br at bottom_right {\n    "c": "2";\n    "d": "3";\n  }\n'
    '  table br2 {\n    "e": "4";\n  }\n'
    "}\n")


def test_table_strips_title_and_content_geometry():
    # the top-right strip (two tables, 88 high with gaps) is taller than the
    # top-left one (76), so the content starts 88 below the title strip; the
    # bottom tables and the title follow the content
    result = compile_source(PLACED)
    assert result.diagnostics == []
    lay = result.layout_result
    assert lay.node_boxes == {"a": Box(8, 120, 88, 32), "f": Box(128, 120, 48, 28),
                              "d": Box(20, 208, 88, 32), "m": Box(140, 208, 48, 28)}
    assert lay.group_boxes == {"g": Box(8, 184, 192, 68)}
    assert lay.table_regions == {
        "tl": Box(8, 32, 64, 60), "tr": Box(104, 32, 96, 28), "tr2": Box(152, 76, 48, 28),
        "bl": Box(8, 284, 48, 28), "br": Box(152, 284, 48, 44), "br2": Box(152, 344, 48, 28)}
    assert lay.title_region == Box(144, 388, 56, 16)
    assert (lay.width, lay.height) == (208, 412)


def test_self_edges_and_recurrent_edges_loop_above_their_nodes():
    d = diagram_from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)],
                           kinds={2: "recurrent", 3: "recurrent"})
    lay = layout(d, *break_cycles(d))
    v0, v1 = lay.node_boxes["v0"], lay.node_boxes["v1"]

    def cy(box: Box) -> int:
        return box.y + box.h // 2

    assert lay.edge_routes["e1"] == ((v0.right, cy(v0)), (v1.x, cy(v1)))
    for edge_id, src, tgt in (("e0", v0, v0), ("e2", v1, v0), ("e3", v1, v1)):
        top = min(src.y, tgt.y) - 12
        assert lay.edge_routes[edge_id] == (
            (src.right, cy(src)), (src.right + 8, cy(src)), (src.right + 8, top),
            (tgt.x - 8, top), (tgt.x - 8, cy(tgt)), (tgt.x, cy(tgt))), edge_id


@pytest.mark.parametrize("loop", ["m ~> d", "m ~> m", "m -> m"])
def test_loop_in_a_group_passes_between_caption_and_first_row(loop):
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "t" {\n'
        "  data s: S^Token\n  node f: func\n  edge s -> f\n"
        "  detail g for f {\n    data d: S^Token\n    node m: func\n"
        f"    edge d -> m\n    edge {loop}\n  }}\n}}\n")
    assert result.diagnostics == []
    lay = result.layout_result
    caption = re.search(r'<text x="\d+" y="(\d+)"[^>]*>zoom: func</text>', result.render("svg"))
    route = lay.edge_routes["e2"]
    assert route[2][1] == route[3][1]  # the top segment
    assert int(caption[1]) < route[2][1] < min(lay.node_boxes[n].y for n in ("d", "m"))
    group = lay.group_boxes["g"]
    assert max(lay.node_boxes[n].bottom for n in ("d", "m")) <= group.bottom


@pytest.mark.parametrize("loop", ["m2 ~> m", "m2 ~> d"])
def test_loop_between_two_groups_passes_between_caption_and_first_row(loop):
    # the loop is in neither group's area edges; g holds its upper end, so g makes room
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "t" {\n'
        "  data s: S\n  node f: func\n  node h: func\n  edge s -> f\n  edge f -> h\n"
        "  detail g for f {\n    data d: S\n    node m: func\n    edge d -> m\n  }\n"
        "  detail k for h {\n    data d2: S\n    node m2: func\n    edge d2 -> m2\n  }\n"
        f"  edge {loop}\n}}\n")
    assert result.diagnostics == []
    lay = result.layout_result
    g_caption = re.search(r'<text x="\d+" y="(\d+)"[^>]*>zoom: func</text>', result.render("svg"))
    route = lay.edge_routes["e4"]
    assert route[2][1] == route[3][1]  # the top segment
    assert int(g_caption[1]) < route[2][1] < min(lay.node_boxes[n].y for n in ("d", "m"))


def test_edge_between_group_members_joins_their_band():
    # d -> m is declared outside the detail block, so g does not list it;
    # both its ends are members of g, so it is g's edge and one band holds both
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "bands" {\n'
        "  data a: S\n  node f: func\n  edge a -> f\n"
        "  detail g for f {\n    data d: S\n    node m: func\n  }\n"
        "  edge d -> m\n}\n")
    assert result.diagnostics == []
    assert result.diagram.groups[0].member_edges == ()
    lay = result.layout_result
    assert lay.bands["d"] == lay.bands["m"]
    assert (lay.layers["d"], lay.layers["m"]) == (0, 1)
    assert lay.node_boxes["d"].y == lay.node_boxes["m"].y


def test_random_dags_layer_invariant():
    rng = random.Random(17)
    for _ in range(100):
        d = random_layout_diagram(rng, cyclic=rng.random() < 0.5)
        lay = layout(d, *break_cycles(d))
        for edge in d.edges:
            if edge.flow_kind == "recurrent" or edge.id in lay.reversed_edges:
                continue
            assert lay.layers[edge.source.node] < lay.layers[edge.target.node]


def task_chain(n: int, reverse: bool) -> Diagram:
    d = Diagram(name="chain", dialects=frozenset({"sys"}))
    d.nodes = [Node(id="t0", kind="io", code="interface")] + [
        Node(id=f"t{i}", kind="task", code=("POS", "NER", "SRL")[i % 3]) for i in range(1, n)]
    d.edges = [Edge(f"e{i}", Port(f"t{i}", 0, "out"), Port(f"t{i + 1}", 0, "in"))
               for i in range(n - 1)]
    if reverse:
        d.nodes.reverse()
        d.edges.reverse()
    return d


@pytest.mark.parametrize("reverse", [False, True])
def test_long_task_chain_lays_out_in_under_a_second(reverse):
    # each phase is near-linear on chains; the quadratic sweep and per-edge
    # search took seconds on a chain this long
    n = 2000
    d = task_chain(n, reverse)
    start = time.perf_counter()
    result = layout(d, *break_cycles(d))
    elapsed = time.perf_counter() - start
    assert result.layers[f"t{n - 1}"] == n - 1 and not result.reversed_edges
    assert elapsed < 1.0, elapsed


def test_cycle_search_stops_when_the_source_side_runs_dry():
    # A reverse-declared chain whose every task also takes a side input
    # declared before it: for each chain edge u -> v, v already reaches the
    # whole downstream chain and u has a predecessor, so a search forward
    # from v alone is quadratic overall. The backward side from u runs dry
    # after two steps, which keeps each test O(1).
    n = 2000
    d = task_chain(n, reverse=True)
    d.nodes[:0] = [Node(id=f"s{i}", kind="io", code="interface") for i in range(1, n)]
    d.edges[:0] = [Edge(f"x{i}", Port(f"s{i}", 0, "out"), Port(f"t{i}", 1, "in"))
                   for i in range(1, n)]
    start = time.perf_counter()
    _, reversed_ids = break_cycles(d)
    elapsed = time.perf_counter() - start
    assert not reversed_ids
    assert elapsed < 0.25, elapsed


# -- differential: the near-linear phases against the earlier ones ----------------


def test_layout_matches_quadratic_reference():
    rng = random.Random(29)
    makers = (random_feedback_diagram,
              lambda r: random_layout_diagram(r, cyclic=True),
              random_grouped_diagram)
    reversing = grouped = banded = repeated = 0
    for i in range(2100):
        d = makers[i % 3](rng)
        oriented, reversed_ids = break_cycles(d)
        assert (oriented, reversed_ids) == reference_break_cycles(d), i
        ids = [n.id for n in d.nodes]
        layers = assign_layers(ids, oriented)
        band_of = _weak_components(ids, d.edges)
        for bands in (dict.fromkeys(ids, 0), band_of):
            assert order_within_layers(ids, layers, oriented, bands) == \
                reference_order_within_layers(ids, layers, oriented, bands), i
        drawn = layout(d, oriented, reversed_ids)
        assert drawn == reference_layout(d), i
        # given the checker's layers: the same layout, its layers in the same
        # order, and that dict itself when no group has a member, unchanged
        reused = layout(d, oriented, reversed_ids, layers)
        assert reused == drawn and list(reused.layers.items()) == list(drawn.layers.items()), i
        assert (reused.layers is layers) != any(g.member_nodes for g in d.groups), i
        assert main_layering(d, oriented, layers) == main_layering(d, oriented), i
        assert list(layers.items()) == list(assign_layers(ids, oriented).items()), i
        reversing += bool(reversed_ids)
        grouped += bool(d.groups)
        banded += len(set(band_of.values())) > 1
        faces = [n[1:7] for n in d.nodes if not (n.params or n.perf)]
        repeated += len(set(faces)) < len(faces)
    # the mix exercises what the rewrites touch; the reference sizes every
    # node, the layout each distinct face of a parameter-free node once
    assert reversing > 500 and grouped > 300 and banded > 300, (reversing, grouped, banded)
    assert repeated > 1000, repeated
    # faces that differ in label, shape class or kind alone
    for name, d in repeated_face_diagrams():
        assert layout(d, *break_cycles(d)) == reference_layout(d), name
    # integer keys scaled per layer against the reference's Fractions: equal
    # means over different anchor counts (1/2 and 2/4, 1/3 and 2/6), means
    # less than 1/100 apart (33/100, 50/149 and 1/3; 51/101 and 1/2), a node
    # without anchors (b2, at position 2) beside one whose single anchor is at
    # position 2, and counts 1 to 40, whose lcm is above 2**52
    rng = random.Random(31)
    counts_1_to_40 = [rng.choices(range(40), k=k) for k in range(1, 41)]
    doubled = [anchors * 2 for anchors in counts_1_to_40[:20]]
    for width, anchor_lists in (
            (3, [[0] * 67 + [1] * 33, [0, 0, 1, 1], [], [0] * 4 + [1] * 2, [2], [0, 1],
                 [0] * 99 + [1] * 50, [0, 0, 1], [0] * 50 + [1] * 51]),
            (40, rng.sample(counts_1_to_40 + doubled, 60))):
        ids, layers, oriented = _two_layer_input(width, anchor_lists)
        for bands in (dict.fromkeys(ids, 0), {n: int(n[1:]) % 2 for n in ids}):
            assert order_within_layers(ids, layers, oriented, bands) == \
                reference_order_within_layers(ids, layers, oriented, bands), width


def _two_layer_input(width: int, anchor_lists: list[list[int]]):
    """Anchors ``a0``..``a{width-1}`` in layer 0 and, in layer 1, node ``b{i}``
    with an edge from each anchor that ``anchor_lists[i]`` names (a repeat
    is a parallel edge): the ids, layers and oriented edges."""
    tops = [f"a{j}" for j in range(width)]
    bottoms = [f"b{i}" for i in range(len(anchor_lists))]
    pairs = [(f"a{j}", b) for b, anchors in zip(bottoms, anchor_lists) for j in anchors]
    oriented = [(f"e{k}", u, v) for k, (u, v) in enumerate(pairs)]
    return tops + bottoms, {**dict.fromkeys(tops, 0), **dict.fromkeys(bottoms, 1)}, oriented


def test_layers_match_the_two_pass_reference_in_queue_order(monkeypatch):
    # the one-pass layering returns the earlier dict item for item, so its
    # order, Kahn's queue order, too; the checker's call, every area of a
    # layout and main_layering are checked on the mix above. Given the
    # checker's layers, a diagram without a group member is layered once
    calls = []

    def checked(ids, oriented):
        layers = assign_layers(ids, oriented)
        assert list(layers.items()) == list(reference_assign_layers(ids, oriented).items())
        calls.append(max(layers.values(), default=0))
        return layers

    monkeypatch.setattr(dial.layout, "assign_layers", checked)
    rng = random.Random(29)
    makers = (random_feedback_diagram,
              lambda r: random_layout_diagram(r, cyclic=True),
              random_grouped_diagram)
    grouped = areas = 0
    for i in range(2100):
        d = makers[i % 3](rng)
        oriented, reversed_ids = break_cycles(d)
        layers = checked([n.id for n in d.nodes], oriented)
        main_layering(d, oriented, layers)
        layout(d, oriented, reversed_ids, layers)
        members = any(g.member_nodes for g in d.groups)
        grouped += members
        areas += len(d.groups) + 2 * members  # each group box; main_layering and the main area
    # pinned: without the checker's layers, layout and main_layering made 7,325 calls
    assert grouped == 462 and len(calls) == 2100 + areas == 4049, (grouped, len(calls))
    assert sum(depth > 2 for depth in calls) == 900, sum(depth > 2 for depth in calls)


def test_a_compile_layers_a_group_free_diagram_once(monkeypatch, tmp_path):
    # the checker's layering is the main area's when no detail group has a
    # member, so one render and one lint each call assign_layers once; with
    # a member, the main area and each group box are layered by themselves
    calls: list[int] = []
    real = dial.layout.assign_layers

    def counting(ids, oriented):
        calls.append(len(ids))
        return real(ids, oriented)

    chain = tmp_path / "chain.dial"
    chain.write_text("\n".join(
        ["dial 0.1", "dialect sys", 'diagram "chain" {', "  data t0: S^Token"]
        + [f"  node t{i}: {('POS', 'NER', 'SRL')[i % 3]}" for i in range(1, 300)]
        + [f"  edge t{i} -> t{i + 1}" for i in range(299)] + ["}", ""]), encoding="utf-8")
    paths = sorted(Path("corpus/pass").glob("*.dial")) + [chain]
    monkeypatch.setattr(dial.layout, "assign_layers", counting)
    seen = Counter()
    for path in paths:
        compiled = compile_file(str(path))
        diagram = compiled.diagram
        members = any(group.member_nodes for group in diagram.groups)
        seen[members] += 1
        if members:  # the checker keeps no layers that no area is drawn from
            assert compiled.typed.layers is None, path
        else:
            assert compiled.layout_result.layers is compiled.typed.layers, path
        for argv, areas in ((["render", str(path), "-o", str(tmp_path / "out.svg")],
                             1 + len(diagram.groups)), (["lint", str(path)], 1)):
            calls.clear()
            assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
            assert calls[0] == len(diagram.nodes), argv  # the checker's, of every node
            assert len(calls) == (1 + areas if members else 1), (argv, calls)
    assert seen == {False: 2, True: 2}, seen
