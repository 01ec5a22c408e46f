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
                      alone, all that lint reads of a drawing
  3. ordering         four fixed barycenter sweeps (down, up, down, up) with
                      declaration order breaking ties; the node -> position
                      map is built once and rewritten only for the layer
                      just sorted; a layer of one node, already at position
                      0, is never sorted, and without a layer of two nodes
                      nothing is set up for a sweep: O(E + N log N) per sweep
  4. coordinates      integer boxes on a 4-unit grid; title strip at the top
                      left, then any top tables, then the main area, zoom-in
                      groups in their own boxes below it and meta tables at
                      the bottom right. Nodes and edges are bucketed by
                      area, and stack heights by (band, layer), in one pass
                      each; every box is built once, where it is drawn
  5. routing          polylines; recurrent edges and self-edges loop above
                      the node row

Everything is integer arithmetic, so equal diagrams produce byte-identical
layouts on every platform. The barycenter keys are exact too: within one
layer, each anchor mean is scaled by the lcm of that layer's anchor counts,
so every key is an ``int`` and equal means give equal keys.
"""

from __future__ import annotations

from math import lcm

from .model import Diagram, Edge, Node
from .record import Record

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

    @property
    def cy(self) -> int:
        return self.y + self.h // 2


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
    decl_index = {n: i for i, n in enumerate(node_ids)}
    by_layer: dict[int, list[str]] = {}
    for node in node_ids:
        by_layer.setdefault(layers[node], []).append(node)
    layer_keys = sorted(key for key, layer in by_layer.items() if len(layer) > 1)
    if not layer_keys:  # every node is alone in its layer, at position 0
        return by_layer
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


def node_size(node: Node) -> tuple[int, int]:
    lines = node_display_lines(node)
    widest = max(map(len, lines))
    w = _quant(max(CHAR_W * widest + 16, 32))
    base_h = 32 if node.shape_class == "component" else 28
    if node.kind == "resource":
        base_h += 8
    h = _quant(base_h + 12 * (len(lines) - 1))
    return w, h


class _Area:
    """One independently laid out region (the main area or a group box)."""

    def __init__(self, nodes: list[Node]) -> None:
        self.nodes = nodes
        self.boxes: dict[str, Box] = {}
        self.layers: dict[str, int] = {}
        self.bands: dict[str, int] = {}  # weakly-connected component within the area
        self.width = self.height = 0


def _weak_components(node_ids: list[str], edges: list[Edge]) -> dict[str, int]:
    """Band of each node: ``edges`` join nodes of ``node_ids`` only."""
    parent = {n: n for n in node_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        ra, rb = find(edge.source.node), find(edge.target.node)
        if ra != rb:
            parent[rb] = ra
    roots: dict[str, int] = {}
    band_of: dict[str, int] = {}
    for node in node_ids:  # bands numbered by first declaration
        root = find(node)
        if root not in roots:
            roots[root] = len(roots)
        band_of[node] = roots[root]
    return band_of


def _main_area(diagram: Diagram) -> tuple[dict[str, set[int]], list[Node], list[Edge]]:
    """The groups of each group member, then the main area's nodes and edges.

    A node belongs to every group that lists it, or else to the main area,
    and an edge to each area that holds both its ends.
    """
    node_groups: dict[str, set[int]] = {}
    for index, group in enumerate(diagram.groups):
        for member in group.member_nodes:
            node_groups.setdefault(member, set()).add(index)
    return (node_groups, [n for n in diagram.nodes if n.id not in node_groups],
            [e for e in diagram.edges
             if e.source.node not in node_groups and e.target.node not in node_groups])


def _layering(ids: list[str], edges: list[Edge],
              orientation: dict[str, tuple[str, str, str]]
              ) -> tuple[Layering, list[tuple[str, str, str]]]:
    """Layering of one area, and the checker's ``orientation`` of its edges.
    ``edges`` holds the edges with both ends in the area, recurrent ones
    included: the bands are their weak components, and the layers follow
    the orientation of them."""
    oriented = [orientation[e.id] for e in edges if e.id in orientation]
    return Layering(assign_layers(ids, oriented), _weak_components(ids, edges)), oriented


def main_layering(diagram: Diagram, oriented: list[tuple[str, str, str]]) -> Layering:
    """The main area's layers and bands as ``layout`` draws them, in the
    orientation ``oriented``, without ordering, boxes or routes."""
    _, nodes, edges = _main_area(diagram)
    return _layering([n.id for n in nodes], edges, {item[0]: item for item in oriented})[0]


def _layout_area(nodes: list[Node], edges: list[Edge],
                 orientation: dict[str, tuple[str, str, str]], ox: int, oy: int) -> _Area:
    """Lay out one area from its ``_layering``, its top left corner at (``ox``, ``oy``)."""
    area = _Area(nodes)
    ids = [n.id for n in nodes]
    (area.layers, area.bands), oriented = _layering(ids, edges, orientation)
    band_of = area.bands
    by_layer = order_within_layers(ids, area.layers, oriented, band_of)

    sizes = {n.id: node_size(n) for n in nodes}
    col_w: dict[int, int] = {
        layer: max(sizes[n][0] for n in layer_nodes)
        for layer, layer_nodes in by_layer.items()
    }
    col_x: dict[int, int] = {}
    cursor = 0
    for layer in sorted(by_layer):
        col_x[layer] = cursor
        cursor += col_w[layer] + H_GAP
    total_w = max(cursor - H_GAP, 0)

    stack_h: dict[tuple[int, int], int] = {}  # (band, layer) -> stacked height
    for layer, layer_nodes in by_layer.items():
        for n in layer_nodes:
            key = (band_of[n], layer)
            stack_h[key] = stack_h.get(key, -V_GAP) + sizes[n][1] + V_GAP
    band_height: dict[int, int] = {}
    for (band, _), h in stack_h.items():
        band_height[band] = max(band_height.get(band, 0), h)
    band_y: dict[int, int] = {}
    y_cursor = 0
    for band in sorted(band_height):
        band_y[band] = y_cursor
        y_cursor += band_height[band] + BAND_GAP
    total_h = max(y_cursor - BAND_GAP, 0)

    for layer, layer_nodes in by_layer.items():
        cursors: dict[int, int] = {}
        for node_id in layer_nodes:
            w, h = sizes[node_id]
            band = band_of[node_id]
            x = _quant(col_x[layer] + (col_w[layer] - w) // 2)
            y = _quant(cursors.get(band, band_y[band]))
            area.boxes[node_id] = Box(x + ox, y + oy, w, h)
            cursors[band] = y + h + V_GAP
    area.width = _quant(total_w)
    area.height = _quant(total_h)
    return area


def table_size(rows: tuple[tuple[str, str], ...]) -> tuple[int, int]:
    widest = max(len(k) + len(v) + 2 for k, v in rows)
    return _quant(CHAR_W * widest + 16), _quant(16 * len(rows) + 12)


def layout(diagram: Diagram, oriented: list[tuple[str, str, str]],
           reversed_ids: frozenset[str]) -> LayoutResult:
    """Pure function of the diagram and its orientation, the pair that
    ``break_cycles(diagram)`` returns; integer coordinates only."""
    # A loop (recurrent edge or self-edge) is drawn above its ends, so a
    # group holding an end makes room for it under the caption.
    node_groups, top_nodes, top_edges = _main_area(diagram)
    members: list[list[Node]] = [[] for _ in diagram.groups]
    for node in diagram.nodes:
        for index in node_groups.get(node.id, ()):
            members[index].append(node)
    medges: list[list[Edge]] = [[] for _ in diagram.groups]
    loop_ends: set[str] = set()
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

    main = _layout_area(top_nodes, top_edges, orientation, MARGIN, content_y)
    node_boxes, layers, bands = main.boxes, main.layers, main.bands

    # Group boxes stack below the main area, one per declaration.
    group_boxes: dict[str, Box] = {}
    y_cursor = content_y + main.height + (BAND_GAP if main.nodes else 0)
    for index, group in enumerate(diagram.groups):
        caption_h = 24 if any(n.id in loop_ends for n in members[index]) else 12
        sub = _layout_area(members[index], medges[index], orientation,
                           MARGIN + GROUP_PAD, y_cursor + GROUP_PAD + caption_h)
        node_boxes.update(sub.boxes)
        layers.update(sub.layers)
        bands.update(sub.bands)
        group_boxes[group.id] = Box(
            MARGIN, y_cursor,
            _quant(sub.width + 2 * GROUP_PAD),
            _quant(sub.height + 2 * GROUP_PAD + caption_h),
        )
        y_cursor = group_boxes[group.id].bottom + V_GAP

    content_w = max(
        [box.right for box in node_boxes.values()]
        + [box.right for box in group_boxes.values()] + [160],
    )
    content_bottom = max(
        [box.bottom for box in node_boxes.values()]
        + [box.bottom for box in group_boxes.values()] + [content_y],
    )

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
    routes: dict[str, tuple[tuple[int, int], ...]] = {}
    for edge in diagram.edges:
        src, tgt = boxes[edge.source.node], boxes[edge.target.node]
        (sx, sy, sw, sh), (tx, ty, tw, th) = src, tgt
        if edge.flow_kind == "recurrent" or edge.source.node == edge.target.node:
            routes[edge.id] = _loop_route(src, tgt)
        elif sx > tx:
            routes[edge.id] = ((sx, sy + sh // 2), (tx + tw, ty + th // 2))
        else:
            routes[edge.id] = ((sx + sw, sy + sh // 2), (tx, ty + th // 2))
    return routes


def _loop_route(src: Box, tgt: Box) -> tuple[tuple[int, int], ...]:
    top = min(src.y, tgt.y) - 12
    return (
        (src.right, src.cy),
        (src.right + 8, src.cy),
        (src.right + 8, top),
        (tgt.x - 8, top),
        (tgt.x - 8, tgt.cy),
        (tgt.x, tgt.cy),
    )


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
