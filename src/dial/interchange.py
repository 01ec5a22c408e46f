"""The JSON interchange document, which no compile stage imports. Every
record is encoded by one rule: a record is the object of its fields in field
order, a tuple is a list. A decoded diagram goes through
:func:`dial.model.validate_structure` like a lowered one."""

from __future__ import annotations

import json

from .diagnostics import Diagnostic, SerializationError
from .model import (Diagram, DetailGroup, Edge, EmbeddingDecl, MetaTable, Node, PerfAnnotation,
                    Port)
from .record import Record
from .registry import dialect_list_error

IR_VERSION = "0.1"

NODE_KINDS = ("task", "operator", "resource", "function", "classifier", "nn_layer", "io", "verify")
FLOW_KINDS = ("flow", "biflow", "persist", "query", "interface", "recurrent")


def _plain(value):
    """A record as the object of its fields in field order, a tuple as a list."""
    if isinstance(value, Record):
        return {field: _plain(v) for field, v in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def canonical_serialize(diagram: Diagram) -> bytes:
    """Deterministic encoding: equal diagram values give identical bytes."""
    doc = {
        "format_version": IR_VERSION,
        "name": diagram.name,
        "title_placement": diagram.title_placement,
        "dialects": sorted(diagram.dialects),
        **{key: [_plain(record) for record in getattr(diagram, key)]
           for key in ("nodes", "edges", "groups", "tables", "embeddings")},
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
        return _decode(doc)
    except (TypeError, ValueError) as exc:  # pairs that do not unpack, values out of range
        raise _bad(f"malformed interchange document: {exc}") from exc


def _decode(doc: dict) -> Diagram:
    diagram = Diagram(
        name=_expect(doc, "name", str, "document"),
        dialects=frozenset(_strings(doc, "dialects", "document")),
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
