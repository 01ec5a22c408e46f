"""The diagram intermediate representation.

A diagram is an ordered, typed graph: nodes carry registry codes, edges carry
flow kinds and optional asserted data terms, detail groups hold zoom-in
subgraphs, and meta tables carry display rows. Declaration order is
significant everywhere; it seeds the deterministic layout tie-breaking.

Diagrams are treated as immutable once construction is complete; all
analyses over them are pure functions.

:func:`validate_structure` is the last stage that sees a rejected diagram,
lowered from source or decoded by :mod:`dial.interchange`; only a decoded one
can fail E014 or E011 for an unknown group member, member edge or edge end.
When it finds nothing wrong it returns the diagram's :class:`Graph`: each node
by id, the record its code resolved to, and the group of each group member.
The checker, lint and render read those facts from the ``Graph`` instead.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .record import Record
from .registry import Registry, Signature, SymbolDef, node_kind

REGIONS = ("top_left", "top_right", "bottom_left", "bottom_right")
SIDES = ("left", "right", "top", "bottom")

# Kind-based shape defaults; authors may override via the shape param.
COMPONENT_KINDS = frozenset({"task", "classifier", "nn_layer", "io", "resource"})


def default_shape_class(kind: str) -> str:
    return "component" if kind in COMPONENT_KINDS else "feature"


class Port(Record):
    node: str
    slot: int = 0
    direction: str = "out"  # "in" | "out"

    def __str__(self) -> str:
        return f"{self.node}.{self.direction}{self.slot}"


class PerfAnnotation(Record):
    metric: str
    value: float
    corpus: str

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.metric:
            raise ValueError("perf metric must be non-empty")
        if self.metric == "acc" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"acc must lie in [0,1], got {self.value}")
        return self


class Node(Record):
    id: str
    kind: str
    code: str
    label: str | None = None
    params: tuple[tuple[str, object], ...] = ()
    shape_class: str = "component"
    perf: tuple[PerfAnnotation, ...] = ()
    detail: str | None = None  # id of the group refining this node
    placement_hint: str | None = None

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        return None


class Edge(Record):
    id: str
    source: Port
    target: Port
    flow_kind: str = "flow"
    declared_term: str | None = None  # literal text of the author's `as` term


class DetailGroup(Record):
    id: str
    owner: str
    member_nodes: tuple[str, ...] = ()
    member_edges: tuple[str, ...] = ()
    entry_side: str = "left"
    exit_side: str = "right"


class MetaTable(Record):
    id: str
    kind: str = "freeform"  # hyperparams | results | freeform
    rows: tuple[tuple[str, str], ...] = ()
    placement: str = "bottom_right"


class EmbeddingDecl(Record):
    id: str
    dim: int
    label: str | None = None

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {self.dim}")
        return self


class Diagram:
    def __init__(self, name: str, dialects: frozenset[str], nodes: list[Node] | None = None,
                 edges: list[Edge] | None = None, groups: list[DetailGroup] | None = None,
                 tables: list[MetaTable] | None = None, embeddings: list[EmbeddingDecl] | None = None,
                 title_placement: str = "top_left") -> None:
        self.name = name
        self.dialects = dialects
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.groups = [] if groups is None else groups
        self.tables = [] if tables is None else tables
        self.embeddings = [] if embeddings is None else embeddings
        self.title_placement = title_placement

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def node_by_id(self, node_id: str) -> Node | None:
        for node in self.nodes:
            if node.id == node_id:
                return node
        return None


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


class Graph(Record):
    """What validation settled about a diagram it accepted, read by the later
    stages instead of being worked out again: each node by id, the record its
    code resolved to, and the detail group of each group member."""
    nodes: dict[str, Node]
    resolved: dict[str, Signature | SymbolDef]
    group_of: dict[str, str]  # member node id -> group id


def validate_structure(diagram: Diagram,
                       registry: Registry) -> tuple[list[Diagnostic], Graph | None]:
    """All structural violations, and the diagram's :class:`Graph` when there
    are none (None otherwise).

    E010 unresolved code, E011 dangling reference or bad port, E012 group
    containment cycle, E013 persist/query endpoint kind violation, E014 node
    listed by more than one detail group.

    A code names one record within a call, so each resolved code's arity
    bounds (``max_out``, ``max_in``) are read once and every port is checked
    against that reading.
    """
    out: list[Diagnostic] = []
    resolutions: dict[str, Signature | SymbolDef | None] = {}
    bounds: dict[str, tuple[int, int]] = {}  # resolved code -> (max_out, max_in)
    nodes = {n.id: n for n in diagram.nodes}
    embedding_ids = {e.id for e in diagram.embeddings}

    for node in diagram.nodes:
        res = registry.resolve(node.code, diagram.dialects)
        resolutions[node.id] = res
        if res is None:
            out.append(Diagnostic(
                "E010",
                f"code {node.code!r} does not resolve in dialects "
                f"{{{', '.join(sorted(diagram.dialects))}}}",
                ir_path=node.id, ir_kind="node",
            ))
        elif node.code not in bounds:
            bounds[node.code] = (res.max_out, res.max_in)
        if node.code == "proj":
            emb = node.param("embedding")
            if emb is not None and emb not in embedding_ids:
                out.append(Diagnostic(
                    "E011", f"projection references unknown embedding {emb!r}",
                    ir_path=node.id, ir_kind="node",
                ))

    def _kind(node_id: str) -> str | None:
        res = resolutions.get(node_id)
        return node_kind(res) if res else None

    occupied: dict[tuple[str, int], str] = {}
    for edge in diagram.edges:
        for port, side in ((edge.source, 0), (edge.target, 1)):
            if port.node not in nodes:
                out.append(Diagnostic(
                    "E011", f"edge references unknown node {port.node!r}",
                    ir_path=edge.id, ir_kind="edge"))
                continue
            bound = bounds.get(nodes[port.node].code)
            if bound is not None and port.slot >= bound[side]:
                out.append(Diagnostic(
                    "E011",
                    f"port {port} exceeds the arity of code "
                    f"{diagram.node_by_id(port.node).code!r} (max {bound[side]})",
                    ir_path=edge.id, ir_kind="edge",
                ))
        if edge.flow_kind != "recurrent" and edge.target.node in nodes:
            key = (edge.target.node, edge.target.slot)
            if key in occupied:
                out.append(Diagnostic(
                    "E011",
                    f"input slot {edge.target} already fed by edge {occupied[key]}",
                    ir_path=edge.id, ir_kind="edge",
                ))
            else:
                occupied[key] = edge.id

        if edge.flow_kind == "persist" and edge.target.node in nodes:
            if _kind(edge.target.node) not in (None, "resource"):
                out.append(Diagnostic(
                    "E013", "persistence must flow into a stored resource",
                    ir_path=edge.id, ir_kind="edge"))
        if edge.flow_kind == "query" and edge.source.node in nodes and edge.target.node in nodes:
            if _kind(edge.source.node) != "resource" and _kind(edge.target.node) != "resource":
                out.append(Diagnostic(
                    "E013", "a query edge must touch a stored resource",
                    ir_path=edge.id, ir_kind="edge"))

    group_of = _validate_groups(diagram, nodes, out)
    return out, None if out else Graph(nodes, resolutions, group_of)


def _validate_groups(diagram: Diagram, nodes: dict[str, Node],
                     out: list[Diagnostic]) -> dict[str, str]:
    """Appends the group violations to ``out``; returns each member's group."""
    edge_ids = {e.id for e in diagram.edges}
    owner_of: dict[str, str] = {}  # member node -> group id
    for group in diagram.groups:
        if group.owner not in nodes:
            out.append(Diagnostic(
                "E011", f"detail group owner {group.owner!r} does not exist",
                ir_path=group.id, ir_kind="group"))
        for member in group.member_nodes:
            if member not in nodes:
                out.append(Diagnostic(
                    "E011", f"detail group member {member!r} does not exist",
                    ir_path=group.id, ir_kind="group"))
            elif owner_of.get(member, group.id) != group.id:
                out.append(Diagnostic(
                    "E014", f"node {member!r} is listed by detail groups "
                            f"{owner_of[member]!r} and {group.id!r}",
                    ir_path=group.id, ir_kind="group"))
            owner_of[member] = group.id
        for member in group.member_edges:
            if member not in edge_ids:
                out.append(Diagnostic(
                    "E011", f"detail group member edge {member!r} does not exist",
                    ir_path=group.id, ir_kind="group"))

    # The zoomed node must not sit inside its own refinement, transitively:
    # follow owner -> containing group -> that group's owner -> ...
    group_by_id = {g.id: g for g in diagram.groups}
    for group in diagram.groups:
        seen = {group.id}
        current = group
        while current.owner in owner_of:
            next_id = owner_of[current.owner]
            if next_id in seen:
                out.append(Diagnostic(
                    "E012", f"detail group {group.id!r} contains itself transitively",
                    ir_path=group.id, ir_kind="group",
                ))
                break
            seen.add(next_id)
            current = group_by_id[next_id]
        if group.owner in group.member_nodes:
            out.append(Diagnostic(
                "E012", f"node {group.owner!r} is a member of its own detail group",
                ir_path=group.id, ir_kind="group",
            ))
    return owner_of

