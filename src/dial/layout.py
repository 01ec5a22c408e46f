"""Deterministic left-to-right layered layout.

Phases 2-5 are near-linear in nodes plus edges (N + E); phase 1 is too on
chains and fans, but not in the worst case. Phase 1 runs once per compile,
in the checker; ``layout`` draws the orientation the checker used:
  1. cycle handling   recurrent edges are excluded outright; remaining cycles
                      are broken by reversing the declaration-latest edge
                      that closes a cycle. Whether an edge closes one is a
                      two-ended search (forward from its target, backward
                      from its source, in turn) that stops when they meet
                      or either side runs dry. That is O(1) per edge on
                      chains declared in either direction (with or without
                      side inputs) and on fans, but O(N + E) per edge in
                      the worst case: after chains a1..aK and b1..bK, each
                      edge a_i -> b1 walks back through a_(i-1)..a1, so
                      the phase is O(E * (N + E))
  2. layering         longest path from the sources, in the one pass of
                      Kahn's topological sort over an area's oriented
                      edges; a layer is fixed when the queue reaches its
                      node: O(N + E). An area
                      (the main area or a group box) holds the edges with
                      both ends in it; its bands are the weak components of
                      those same edges, recurrent ones included.
                      ``main_layering`` is this phase for the main area
                      alone, all that lint reads of a drawing; a main area
                      that holds every node takes the checker's layering
  3. ordering         four fixed barycenter sweeps (down, up, down, up) with
                      declaration order breaking ties; the node -> position
                      map is built once and rewritten only for the layer
                      just sorted; a layer of one node, already at position
                      0, is never sorted, and without a layer of two nodes
                      nothing is set up for a sweep: O(E + N log N) per sweep
  4. coordinates      integer boxes on a 4-unit grid; title strip at the top
                      left, then any top tables, then the main area, zoom-in
                      groups in their own boxes below it and meta tables at
                      the bottom right. If a group has a member, nodes and
                      edges are bucketed by area in one pass each; one loop
                      over the layers sets column x, width and band height;
                      each box is built once, where it is drawn, and each
                      distinct ``node_face`` is sized once per area
  5. routing          polylines from one unpacking of each box; recurrent
                      edges and self-edges loop above the node row

Everything is integer arithmetic, so equal diagrams produce byte-identical
layouts on every platform. The barycenter keys are exact too: within one
layer, each anchor mean is scaled by the lcm of that layer's anchor counts,
so every key is an ``int`` and equal means give equal keys.
"""

from __future__ import annotations

from math import lcm

from .model import Diagram, Edge, Node
from .record import Record

# Every gap, pad and margin is a multiple of GRID, so sums of them and of
# sizes rounded up to the grid stay on it.
GRID = 4
H_GAP = 32
V_GAP = 16
BAND_GAP = 32
TITLE_H = 24
MARGIN = 8
GROUP_PAD = 12
CHAR_W = 8


class Box(Record):
    x: int
    y: int
    w: int
    h: int

    @property
    def right(self) -> int:
        return self.x + self.w

    @property
    def bottom(self) -> int:
        return self.y + self.h


class LayoutResult(Record):
    node_boxes: dict[str, Box]
    edge_routes: dict[str, tuple[tuple[int, int], ...]]
    group_boxes: dict[str, Box]
    reversed_edges: frozenset[str]
    layers: dict[str, int]
    bands: dict[str, int]
    table_regions: dict[str, Box]
    title_region: Box
    width: int
    height: int


class Layering(Record):
    """Each node's layer and band (weak component) within its area."""
    layers: dict[str, int]
    bands: dict[str, int]


def _quant(v: int) -> int:
    return ((v + GRID - 1) // GRID) * GRID


# Builds a record that has no ``__new__`` of its own from a tuple of every
# field, without the namedtuple's Python-level constructor.
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Phase 1: cycle handling
# ---------------------------------------------------------------------------


def break_cycles(diagram: Diagram) -> tuple[list[tuple[str, str, str]], frozenset[str]]:
    """Acyclic orientation over non-recurrent edges.

    Returns (oriented edge list as (edge id, source node, target node) after
    any reversals, reversed edge ids). Edges are considered in declaration
    order, so the edge reversed is always the one closing the cycle latest.
    Both ends of every edge are nodes of ``diagram``, as validation ensures.
    """
    # accepted adjacency; a parallel edge repeats an entry, which the
    # visited sets of ``reaches`` absorb
    succs: dict[str, list[str]] = {n.id: [] for n in diagram.nodes}
    preds: dict[str, list[str]] = {n.id: [] for n in diagram.nodes}
    oriented: list[tuple[str, str, str]] = []
    reversed_ids: set[str] = set()

    def reaches(start: str, goal: str) -> bool:
        # Only the answer leaves this search, so set order cannot reach the output.
        if not succs[start] or not preds[goal]:
            return False
        ahead, behind = {start}, {goal}
        ahead_stack, behind_stack = [start], [goal]
        while ahead_stack and behind_stack:
            for nxt in succs[ahead_stack.pop()]:
                if nxt in behind:
                    return True
                if nxt not in ahead:
                    ahead.add(nxt)
                    ahead_stack.append(nxt)
            for prev in preds[behind_stack.pop()]:
                if prev in ahead:
                    return True
                if prev not in behind:
                    behind.add(prev)
                    behind_stack.append(prev)
        return False

    for edge in diagram.edges:
        if edge.flow_kind == "recurrent":
            continue
        u, v = edge.source.node, edge.target.node
        if u == v or reaches(v, u):
            reversed_ids.add(edge.id)
            if u != v:
                succs[v].append(u)
                preds[u].append(v)
                oriented.append((edge.id, v, u))
        else:
            succs[u].append(v)
            preds[v].append(u)
            oriented.append((edge.id, u, v))
    return oriented, frozenset(reversed_ids)


# ---------------------------------------------------------------------------
# Phase 2: layering
# ---------------------------------------------------------------------------


def assign_layers(node_ids: list[str],
                  oriented: list[tuple[str, str, str]]) -> dict[str, int]:
    """Longest path from any source; sources sit at layer 0. ``oriented`` is
    acyclic and both ends of each of its edges are in ``node_ids``. Kahn's
    queue reaches a node after all its predecessors, so its layer is final
    then; the result lists the nodes in queue order."""
    succs: dict[str, list[str]] = {n: [] for n in node_ids}
    in_deg = dict.fromkeys(node_ids, 0)
    for _, u, v in oriented:
        succs[u].append(v)
        in_deg[v] += 1
    reach = dict.fromkeys(node_ids, 0)  # longest path to each node from the queued ones
    order = [n for n in node_ids if not in_deg[n]]
    for current in order:  # grows while it is read: a FIFO queue
        below = reach[current] + 1
        for nxt in succs[current]:
            if reach[nxt] < below:
                reach[nxt] = below
            in_deg[nxt] -= 1
            if not in_deg[nxt]:
                order.append(nxt)
    return {n: reach[n] for n in order}


# ---------------------------------------------------------------------------
# Phase 3: ordering
# ---------------------------------------------------------------------------


def order_within_layers(node_ids: list[str], layers: dict[str, int],
                        oriented: list[tuple[str, str, str]],
                        band_of: dict[str, int]) -> dict[int, list[str]]:
    """Barycenter sweeps, four fixed passes; declaration order breaks ties.

    ``band_of`` keeps weakly-connected components apart: the band index
    always dominates the barycenter.
    """
    by_layer: dict[int, list[str]] = {}
    for node in node_ids:
        by_layer.setdefault(layers[node], []).append(node)
    if len(by_layer) == len(node_ids):  # every node is alone in its layer, at position 0
        return by_layer
    decl_index = {n: i for i, n in enumerate(node_ids)}
    layer_keys = sorted(key for key, layer in by_layer.items() if len(layer) > 1)
    for key in layer_keys:
        by_layer[key].sort(key=lambda n: (band_of[n], decl_index[n]))

    preds: dict[str, list[str]] = {n: [] for n in node_ids}
    succs: dict[str, list[str]] = {n: [] for n in node_ids}
    for _, u, v in oriented:
        preds[v].append(u)
        succs[u].append(v)

    positions = {n: i for layer in by_layer.values() for i, n in enumerate(layer)}

    def bary(node: str, neighbor: dict[str, list[str]], scale: int) -> int:
        anchors = neighbor[node]
        if not anchors:
            return positions[node] * scale
        if len(anchors) == 1:
            return positions[anchors[0]] * scale
        return sum(positions[p] for p in anchors) * (scale // len(anchors))

    def sweep(keys, neighbor: dict[str, list[str]]) -> list[tuple[list[str], dict, int]]:
        # a layer's key scale: the lcm of its anchor counts (none counts as 1; lcm(0, ...) is 0)
        return [(by_layer[key], neighbor, lcm(*{len(neighbor[n]) or 1 for n in by_layer[key]}))
                for key in keys]

    down, up = sweep(layer_keys, preds), sweep(reversed(layer_keys), succs)
    for layer, neighbor, scale in down + up + down + up:
        layer.sort(key=lambda n: (band_of[n], bary(n, neighbor, scale), decl_index[n]))
        for i, node in enumerate(layer):
            positions[node] = i
    return by_layer


# ---------------------------------------------------------------------------
# Phase 4/5: geometry
# ---------------------------------------------------------------------------


def node_display_lines(node: Node) -> list[str]:
    lines = [node.label or node.code]
    params = [(k, v) for k, v in node.params if k != "out"]
    if params:
        lines.append(", ".join(f"{k}={v}" for k, v in params))
    for perf in node.perf:
        lines.append(f"{perf.metric}={perf.value:g} @ {perf.corpus}")
    return lines


def node_face(node: Node) -> tuple | None:
    """What sizes and spells a node with no params and no perf: ``node[1:]``,
    its kind, code, label, empty params, shape class and empty perf, which
    hold only strings, ``None`` and empty tuples. Within one compile a code
    resolves to one record, so equal faces draw equal bytes. Any other node
    has no face: its values may compare equal yet print apart (``1``, ``1.0``)."""
    return None if node.params or node.perf else node[1:]


def node_size(node: Node) -> tuple[int, int]:
    lines = node_display_lines(node)
    widest = max(map(len, lines))
    w = _quant(max(CHAR_W * widest + 16, 32))
    base_h = 32 if node.shape_class == "component" else 28
    if node.kind == "resource":
        base_h += 8
    h = _quant(base_h + 12 * (len(lines) - 1))
    return w, h


def _weak_components(node_ids: list[str], edges: list[Edge]) -> dict[str, int]:
    """Band of each node: ``edges`` join nodes of ``node_ids`` only."""
    parent = {n: n for n in node_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # A node's parent is read in place; find() runs only past a parent that is no root.
    for edge in edges:
        ra, rb = parent[edge.source.node], parent[edge.target.node]
        if parent[ra] != ra:
            ra = find(ra)
        if parent[rb] != rb:
            rb = find(rb)
        if ra != rb:
            parent[rb] = ra
    roots: dict[str, int] = {}
    band_of: dict[str, int] = {}
    for node in node_ids:  # bands numbered by first declaration
        root = parent[node]
        if parent[root] != root:
            root = find(root)
        if root not in roots:
            roots[root] = len(roots)
        band_of[node] = roots[root]
    return band_of


def _main_area(diagram: Diagram, oriented: list[tuple[str, str, str]],
               layers: dict[str, int] | None
               ) -> tuple[dict[str, set[int]], list[Node], list[Edge],
                          list[tuple[str, str, str]], dict[str, int] | None]:
    """The groups of each group member, then the main area's nodes, its edges,
    their orientation in ``oriented`` and its layers, if ``layers`` gives them.

    A node belongs to every group that lists it, or else to the main area,
    and an edge to each area that holds both its ends. Without a group
    member the main area is the whole diagram, in ``oriented`` itself and
    with ``layers``, every node's; else it is layered by itself.
    """
    node_groups: dict[str, set[int]] = {}
    for index, group in enumerate(diagram.groups):
        for member in group.member_nodes:
            node_groups.setdefault(member, set()).add(index)
    if not node_groups:
        return node_groups, diagram.nodes, diagram.edges, oriented, layers
    return (node_groups, [n for n in diagram.nodes if n.id not in node_groups],
            [e for e in diagram.edges
             if e.source.node not in node_groups and e.target.node not in node_groups],
            [item for item in oriented
             if item[1] not in node_groups and item[2] not in node_groups], None)


def _layering(ids: list[str], edges: list[Edge], oriented: list[tuple[str, str, str]],
              layers: dict[str, int] | None) -> Layering:
    """Layering of one area. ``edges`` holds the edges with both ends in it,
    recurrent ones included: the bands are their weak components, and the
    layers, unless ``layers`` gives them, follow ``oriented``, their orientation."""
    return Layering(assign_layers(ids, oriented) if layers is None else layers,
                    _weak_components(ids, edges))


def main_layering(diagram: Diagram, oriented: list[tuple[str, str, str]],
                  layers: dict[str, int] | None = None) -> Layering:
    """The main area's layers and bands as ``layout`` draws them, in the
    orientation ``oriented`` and from ``layers`` as ``layout`` takes them,
    without ordering, boxes or routes."""
    _, nodes, edges, area_oriented, layers = _main_area(diagram, oriented, layers)
    return _layering([n.id for n in nodes], edges, area_oriented, layers)


def _layout_area(nodes: list[Node], edges: list[Edge], oriented: list[tuple[str, str, str]],
                 layers: dict[str, int] | None, ox: int, oy: int
                 ) -> tuple[dict[str, Box], Layering, int, int]:
    """Lay out one area from its ``_layering``, its top left corner at (``ox``,
    ``oy``): each node's box, the layering, and the area's width and height."""
    ids = [n.id for n in nodes]
    layering = _layering(ids, edges, oriented, layers)
    band_of = layering.bands
    by_layer = order_within_layers(ids, layering.layers, oriented, band_of)

    sizes: dict[str, tuple[int, int]] = {}
    faces: dict[tuple, tuple[int, int]] = {}  # each distinct face sized once
    for n in nodes:
        face = node_face(n)
        if face is None:
            sizes[n.id] = node_size(n)
        elif (size := faces.get(face)) is not None:
            sizes[n.id] = size
        else:
            sizes[n.id] = faces[face] = node_size(n)

    # One pass over the layers in order: each column's x and width, and each
    # band's stacked height.
    columns: dict[int, tuple[int, int]] = {}  # layer -> (x, width)
    band_height: dict[int, int] = {}
    cursor = 0
    for layer in sorted(by_layer):
        layer_nodes = by_layer[layer]
        if len(layer_nodes) == 1:
            node = layer_nodes[0]
            col_w, h = sizes[node]
            band = band_of[node]
            if band_height.get(band, 0) < h:
                band_height[band] = h
        else:
            col_w = max(sizes[n][0] for n in layer_nodes)
            stacked: dict[int, int] = {}
            for n in layer_nodes:
                band = band_of[n]
                stacked[band] = stacked.get(band, -V_GAP) + sizes[n][1] + V_GAP
            for band, h in stacked.items():
                if band_height.get(band, 0) < h:
                    band_height[band] = h
        columns[layer] = cursor, col_w
        cursor += col_w + H_GAP
    total_w = max(cursor - H_GAP, 0)
    band_y: dict[int, int] = {}
    y_cursor = 0
    for band in sorted(band_height):
        band_y[band] = y_cursor
        y_cursor += band_height[band] + BAND_GAP
    total_h = max(y_cursor - BAND_GAP, 0)

    boxes: dict[str, Box] = {}
    for layer, layer_nodes in by_layer.items():
        col_x, col_w = columns[layer]
        col_x += ox
        cursors: dict[int, int] = {}
        for node_id in layer_nodes:
            w, h = sizes[node_id]
            band = band_of[node_id]
            dx = (col_w - w) // 2
            y = cursors.get(band, band_y[band])
            boxes[node_id] = _new(Box, (col_x + dx + -dx % GRID, y + oy, w, h))
            cursors[band] = y + h + V_GAP
    return boxes, layering, total_w, total_h


def table_size(rows: tuple[tuple[str, str], ...]) -> tuple[int, int]:
    widest = max(len(k) + len(v) + 2 for k, v in rows)
    return _quant(CHAR_W * widest + 16), _quant(16 * len(rows) + 12)


def layout(diagram: Diagram, oriented: list[tuple[str, str, str]],
           reversed_ids: frozenset[str], layers: dict[str, int] | None = None) -> LayoutResult:
    """Pure function of the diagram and its orientation, the pair that
    ``break_cycles(diagram)`` returns; integer coordinates only. ``layers``,
    if given, is ``assign_layers`` of every node in that orientation, as in
    ``TypedDiagram.layers``; a main area that holds every node takes it as is."""
    node_groups, top_nodes, top_edges, top_oriented, layers = _main_area(
        diagram, oriented, layers)
    members: list[list[Node]] = [[] for _ in diagram.groups]
    medges: list[list[Edge]] = [[] for _ in diagram.groups]
    loop_ends: set[str] = set()
    orientation: dict[str, tuple[str, str, str]] = {}
    if node_groups:  # else every group is empty
        for node in diagram.nodes:
            for index in node_groups.get(node.id, ()):
                members[index].append(node)
        # A loop (recurrent edge or self-edge) is drawn above its ends, so a
        # group holding an end makes room for it under the caption.
        for edge in diagram.edges:
            u, v = edge.source.node, edge.target.node
            if edge.flow_kind == "recurrent" or u == v:
                loop_ends.update((u, v))
            in_u, in_v = node_groups.get(u), node_groups.get(v)
            if in_u and in_v:
                for index in in_u & in_v:
                    medges[index].append(edge)
        orientation = {item[0]: item for item in oriented}

    # Tables placed at the top stack between the title strip and the content.
    top_strips: dict[str, int] = {}
    for table in diagram.tables:
        if table.rows and table.placement.startswith("top"):
            top_strips[table.placement] = (top_strips.get(table.placement, 0)
                                           + table_size(table.rows)[1] + V_GAP)
    content_y = TITLE_H + MARGIN + max(top_strips.values(), default=0)

    node_boxes, (layers, bands), _, main_h = _layout_area(
        top_nodes, top_edges, top_oriented, layers, MARGIN, content_y)

    # Group boxes stack below the main area, one per declaration.
    group_boxes: dict[str, Box] = {}
    y_cursor = content_y + main_h + (BAND_GAP if top_nodes else 0)
    for index, group in enumerate(diagram.groups):
        caption_h = 24 if any(n.id in loop_ends for n in members[index]) else 12
        group_oriented = [orientation[e.id] for e in medges[index] if e.id in orientation]
        boxes, (sub_layers, sub_bands), sub_w, sub_h = _layout_area(
            members[index], medges[index], group_oriented, None,
            MARGIN + GROUP_PAD, y_cursor + GROUP_PAD + caption_h)
        node_boxes.update(boxes)
        layers.update(sub_layers)
        bands.update(sub_bands)
        group_boxes[group.id] = box = Box(MARGIN, y_cursor, sub_w + 2 * GROUP_PAD,
                                          sub_h + 2 * GROUP_PAD + caption_h)
        y_cursor = box.bottom + V_GAP

    content_w, content_bottom = 160, content_y
    for boxes in (node_boxes, group_boxes):
        for x, y, w, h in boxes.values():
            if x + w > content_w:
                content_w = x + w
            if y + h > content_bottom:
                content_bottom = y + h

    # Meta tables anchor bottom-right unless a placement hint overrides.
    table_regions: dict[str, Box] = {}
    strip_cursors: dict[str, int] = {}
    for table in diagram.tables:
        if not table.rows:
            continue
        w, h = table_size(table.rows)
        region = table.placement
        top = TITLE_H + MARGIN if region.startswith("top") else content_bottom + BAND_GAP
        x = MARGIN if region.endswith("left") else max(content_w - w, MARGIN)
        table_regions[table.id] = Box(_quant(x), _quant(top + strip_cursors.get(region, 0)), w, h)
        strip_cursors[region] = strip_cursors.get(region, 0) + h + V_GAP

    title_w = _quant(CHAR_W * max(len(diagram.name), 1) + 8)
    if diagram.title_placement.endswith("right"):
        title_x = max(content_w - title_w, MARGIN)
    else:
        title_x = MARGIN
    if diagram.title_placement.startswith("bottom"):
        title_y = max([b.bottom for b in table_regions.values()] + [content_bottom]) + V_GAP
    else:
        title_y = 0
    title_region = Box(title_x, title_y, title_w, TITLE_H - MARGIN)

    edge_routes = _route_edges(diagram, node_boxes)

    width = max([content_w] + [b.right for b in table_regions.values()]
                + [title_region.right]) + MARGIN
    height = max([content_bottom, title_region.bottom]
                 + [b.bottom for b in table_regions.values()]) + MARGIN
    return LayoutResult(
        node_boxes=node_boxes,
        edge_routes=edge_routes,
        group_boxes=group_boxes,
        reversed_edges=reversed_ids,
        layers=layers,
        bands=bands,
        table_regions=table_regions,
        title_region=title_region,
        width=_quant(width),
        height=_quant(height),
    )


def _route_edges(diagram: Diagram,
                 boxes: dict[str, Box]) -> dict[str, tuple[tuple[int, int], ...]]:
    # the midpoints of each box's left and right sides, from one unpacking of it
    lefts: dict[str, tuple[int, int]] = {}
    rights: dict[str, tuple[int, int]] = {}
    for node_id, (x, y, w, h) in boxes.items():
        cy = y + h // 2
        lefts[node_id] = x, cy
        rights[node_id] = x + w, cy
    routes: dict[str, tuple[tuple[int, int], ...]] = {}
    for edge in diagram.edges:
        u, v = edge.source.node, edge.target.node
        if edge.flow_kind == "recurrent" or u == v:  # out of the right, over both, into the left
            start, end = rights[u], lefts[v]
            (sx, sy), (tx, ty), top = start, end, min(boxes[u].y, boxes[v].y) - 12
            routes[edge.id] = (start, (sx + 8, sy), (sx + 8, top), (tx - 8, top), (tx - 8, ty), end)
        elif lefts[u][0] > lefts[v][0]:  # the source box starts right of the target's
            routes[edge.id] = lefts[u], rights[v]
        else:
            routes[edge.id] = rights[u], lefts[v]
    return routes


def debug_dump(diagram: Diagram, result: LayoutResult) -> str:
    """Layers and per-layer order as text (the --debug-layout CLI flag)."""
    lines = [f"diagram {diagram.name!r}: {len(diagram.nodes)} nodes, "
             f"{len(diagram.edges)} edges"]
    by_layer: dict[int, list[str]] = {}
    for node_id, layer in result.layers.items():
        by_layer.setdefault(layer, []).append(node_id)
    for layer in sorted(by_layer):
        ordered = sorted(by_layer[layer], key=lambda n: result.node_boxes[n].y)
        lines.append(f"  layer {layer}: " + " ".join(ordered))
    if result.reversed_edges:
        lines.append("  reversed: " + " ".join(sorted(result.reversed_edges)))
    return "\n".join(lines) + "\n"
