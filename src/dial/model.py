"""The diagram intermediate representation.

A diagram is an ordered, typed graph: nodes carry registry codes, edges carry
flow kinds and optional asserted data terms, detail groups hold zoom-in
subgraphs, and meta tables carry display rows. Declaration order is
significant everywhere; it seeds the deterministic layout tie-breaking.

Diagrams are treated as immutable once construction is complete; all
analyses over them are pure functions.

:func:`validate_structure` is the last stage that sees a rejected diagram.
When it finds nothing wrong it returns the diagram's :class:`Graph`: each
node by id, the record its code resolved to, and the group of each group
member. The checker, lint and render read those facts from the ``Graph``
instead of resolving codes or mapping ids again.
"""

from __future__ import annotations

import json

from .diagnostics import Diagnostic, SerializationError
from .record import Record
from .registry import Registry, Signature, SymbolDef, dialect_list_error, node_kind

IR_VERSION = "0.1"

NODE_KINDS = ("task", "operator", "resource", "function", "classifier", "nn_layer", "io", "verify")
FLOW_KINDS = ("flow", "biflow", "persist", "query", "interface", "recurrent")
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

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


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
                 format_version: str = IR_VERSION, title_placement: str = "top_left") -> None:
        self.name = name
        self.dialects = dialects
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.groups = [] if groups is None else groups
        self.tables = [] if tables is None else tables
        self.embeddings = [] if embeddings is None else embeddings
        self.format_version = format_version
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
    """
    out: list[Diagnostic] = []
    resolutions: dict[str, Signature | SymbolDef | None] = {}
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
        if node.code == "proj":
            emb = node.param("embedding")
            if emb is not None and emb not in embedding_ids:
                out.append(Diagnostic(
                    "E011", f"projection references unknown embedding {emb!r}",
                    ir_path=node.id, ir_kind="node",
                ))

    occupied: dict[tuple[str, int], str] = {}
    for edge in diagram.edges:
        for port, bound_attr in ((edge.source, "max_out"), (edge.target, "max_in")):
            if port.node not in nodes:
                out.append(Diagnostic(
                    "E011", f"edge references unknown node {port.node!r}",
                    ir_path=edge.id, ir_kind="edge"))
                continue
            res = resolutions.get(port.node)
            if res is not None and port.slot >= getattr(res, bound_attr):
                out.append(Diagnostic(
                    "E011",
                    f"port {port} exceeds the arity of code "
                    f"{diagram.node_by_id(port.node).code!r} "
                    f"(max {getattr(res, bound_attr)})",
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

        def _kind(node_id: str) -> str | None:
            res = resolutions.get(node_id)
            return node_kind(res) if res else None

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


# ---------------------------------------------------------------------------
# Canonical interchange encoding
# ---------------------------------------------------------------------------


def _node_obj(node: Node) -> dict:
    return {
        "id": node.id,
        "kind": node.kind,
        "code": node.code,
        "label": node.label,
        "params": [[k, v] for k, v in node.params],
        "shape_class": node.shape_class,
        "perf": [{"metric": p.metric, "value": p.value, "corpus": p.corpus} for p in node.perf],
        "detail": node.detail,
        "placement_hint": node.placement_hint,
    }


def _edge_obj(edge: Edge) -> dict:
    return {
        "id": edge.id,
        "source": {"node": edge.source.node, "slot": edge.source.slot, "direction": "out"},
        "target": {"node": edge.target.node, "slot": edge.target.slot, "direction": "in"},
        "flow_kind": edge.flow_kind,
        "declared_term": edge.declared_term,
    }


def canonical_serialize(diagram: Diagram) -> bytes:
    """Deterministic encoding: equal diagram values give identical bytes."""
    doc = {
        "format_version": diagram.format_version,
        "name": diagram.name,
        "title_placement": diagram.title_placement,
        "dialects": sorted(diagram.dialects),
        "nodes": [_node_obj(n) for n in diagram.nodes],
        "edges": [_edge_obj(e) for e in diagram.edges],
        # a group, table or embedding is written as its fields, in order
        "groups": [g._asdict() for g in diagram.groups],
        "tables": [t._asdict() for t in diagram.tables],
        "embeddings": [e._asdict() for e in diagram.embeddings],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def _bad(message: str) -> SerializationError:
    return SerializationError(Diagnostic("E021", message))


def _expect(obj, key: str, types, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise _bad(f"{where}: missing key {key!r}")
    value = obj[key]
    # JSON true/false decode as bool, an int subclass; no key here takes one
    if types is not None and (not isinstance(value, types) or isinstance(value, bool)):
        raise _bad(f"{where}: key {key!r} has the wrong type")
    return value


def _strings(obj, key: str, where: str) -> tuple[str, ...]:
    values = _expect(obj, key, list, where)
    if not all(isinstance(v, str) for v in values):
        raise _bad(f"{where}: key {key!r} lists something other than a string")
    return tuple(values)


def _optional(obj: dict, key: str, default: str | None, where: str) -> str | None:
    """A string field that may be absent; null only where the default is None."""
    value = obj.get(key, default)
    if not isinstance(value, str) and (value is not None or default is not None):
        raise _bad(f"{where}: key {key!r} has the wrong type")
    return value


def deserialize(data: bytes) -> Diagram:
    """Inverse of canonical_serialize; E020 on version skew, E021 otherwise."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _bad(f"not a well-formed interchange document: {exc}") from exc
    version = _expect(doc, "format_version", str, "document")
    if version != IR_VERSION:
        raise SerializationError(Diagnostic(
            "E020", f"document version {version!r} is not supported (expected {IR_VERSION!r})"))
    try:
        return _decode(doc, version)
    except (TypeError, ValueError) as exc:  # pairs that do not unpack, values out of range
        raise _bad(f"malformed interchange document: {exc}") from exc


def _decode(doc: dict, version: str) -> Diagram:
    diagram = Diagram(
        name=_expect(doc, "name", str, "document"),
        dialects=frozenset(_strings(doc, "dialects", "document")),
        format_version=version,
        title_placement=_optional(doc, "title_placement", "top_left", "document"),
    )
    problem = dialect_list_error(diagram.dialects)
    if problem:
        raise _bad(f"document: {problem}")
    seen_nodes: set[str] = set()
    for obj in _expect(doc, "nodes", list, "document"):
        node = Node(
            id=_expect(obj, "id", str, "node"),
            kind=_expect(obj, "kind", str, "node"),
            code=_expect(obj, "code", str, "node"),
            label=_optional(obj, "label", None, "node"),
            params=tuple((k, v) for k, v in _expect(obj, "params", list, "node")),
            shape_class=_expect(obj, "shape_class", str, "node"),
            perf=tuple(
                PerfAnnotation(_expect(p, "metric", str, "perf"),
                               _expect(p, "value", (int, float), "perf"),
                               _expect(p, "corpus", str, "perf"))
                for p in _expect(obj, "perf", list, "node")
            ),
            detail=_optional(obj, "detail", None, "node"),
            placement_hint=_optional(obj, "placement_hint", None, "node"),
        )
        if node.kind not in NODE_KINDS:
            raise _bad(f"node {node.id!r}: unknown kind {node.kind!r}")
        if not all(isinstance(key, str) for key, _ in node.params):
            raise _bad(f"node {node.id!r}: a parameter name is not a string")
        if node.id in seen_nodes:
            raise _bad(f"duplicate node id {node.id!r}")
        seen_nodes.add(node.id)
        diagram.nodes.append(node)

    seen_edges: set[str] = set()
    for obj in _expect(doc, "edges", list, "document"):
        src = _expect(obj, "source", dict, "edge")
        tgt = _expect(obj, "target", dict, "edge")
        edge = Edge(
            id=_expect(obj, "id", str, "edge"),
            source=Port(_expect(src, "node", str, "edge"), _expect(src, "slot", int, "edge"), "out"),
            target=Port(_expect(tgt, "node", str, "edge"), _expect(tgt, "slot", int, "edge"), "in"),
            flow_kind=_expect(obj, "flow_kind", str, "edge"),
            declared_term=_optional(obj, "declared_term", None, "edge"),
        )
        if edge.flow_kind not in FLOW_KINDS:
            raise _bad(f"edge {edge.id!r}: unknown flow kind {edge.flow_kind!r}")
        if edge.source.slot < 0 or edge.target.slot < 0:
            raise _bad(f"edge {edge.id!r}: a port slot is negative")
        if edge.id in seen_edges:
            raise _bad(f"duplicate edge id {edge.id!r}")
        seen_edges.add(edge.id)
        diagram.edges.append(edge)

    for obj in _expect(doc, "groups", list, "document"):
        diagram.groups.append(DetailGroup(
            id=_expect(obj, "id", str, "group"),
            owner=_expect(obj, "owner", str, "group"),
            member_nodes=_strings(obj, "member_nodes", "group"),
            member_edges=_strings(obj, "member_edges", "group"),
            entry_side=_optional(obj, "entry_side", "left", "group"),
            exit_side=_optional(obj, "exit_side", "right", "group"),
        ))
    for obj in _expect(doc, "tables", list, "document"):
        diagram.tables.append(MetaTable(
            id=_expect(obj, "id", str, "table"),
            kind=_expect(obj, "kind", str, "table"),
            rows=tuple((k, v) for k, v in _expect(obj, "rows", list, "table")),
            placement=_optional(obj, "placement", "bottom_right", "table"),
        ))
    for obj in _expect(doc, "embeddings", list, "document"):
        diagram.embeddings.append(EmbeddingDecl(
            id=_expect(obj, "id", str, "embedding"),
            dim=_expect(obj, "dim", int, "embedding"),
            label=_optional(obj, "label", None, "embedding"),
        ))
    return diagram
