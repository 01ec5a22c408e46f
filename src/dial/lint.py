"""Style rules over the typed diagram and the main area's layering
(``layout.main_layering``), which ``layout`` draws.

Every rule is a warning; escalation happens only in the CLI (--deny
warnings). Output order is stable: rule code first, then the declaration
order of the node, edge, group or table the rule names.

  W201  title placed away from the top left
  W202  meta table placed away from the bottom right
  W203  non-recurrent edge flows backward
  W204  zoom-in entry side differs from the owner's input side
  W205  extension symbol in use
  W206  verbal label duplicates a registered symbol
  W207  classifier or task node without a performance annotation
  W208  feature- and component-level nodes in one layer of one drawn band
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .layout import Layering, LayoutResult
from .record import Record
from .registry import list_symbols
from .typecheck import TypedDiagram

OWNER_INPUT_SIDE = "left"  # inputs enter on the left in left-to-right layout


class LintRule(Record):
    code: str
    description: str


RULES: tuple[LintRule, ...] = (
    LintRule("W201", "keep the title at the top left"),
    LintRule("W202", "keep data and hyperparameter tables at the bottom right"),
    LintRule("W203", "flows should run left to right; use ~> for recurrence"),
    LintRule("W204", "a zoom-in keeps its input on the same side as its owner"),
    LintRule("W205", "extension symbols are discouraged; prefer the builtin vocabulary"),
    LintRule("W206", "a verbal label duplicates an existing symbol"),
    LintRule("W207", "classifiers and tasks should carry a performance annotation"),
    LintRule("W208", "feature- and component-level nodes mix in one layer; group the detail"),
)


def lint(typed: TypedDiagram, drawn: Layering | LayoutResult,
         disabled: frozenset[str] = frozenset()) -> list[Diagnostic]:
    """W2xx warnings; of ``drawn`` only the main area's ``layers`` and
    ``bands`` are read, and W203 reads ``typed``'s orientation."""
    diagram = typed.diagram
    out: list[Diagnostic] = []

    def emit(code: str, message: str, ir_path: str | None) -> None:
        if code not in disabled:
            out.append(Diagnostic(code, message, ir_path=ir_path))

    if diagram.title_placement != "top_left":
        emit("W201", f"title is placed {diagram.title_placement}; "
                     "the house style keeps titles top left", None)

    for table in diagram.tables:
        if table.placement != "bottom_right":
            emit("W202", f"table {table.id!r} is placed {table.placement}; "
                         "data belongs at the bottom right", table.id)

    for edge in diagram.edges:
        if edge.id in typed.reversed_edges:
            emit("W203", f"edge {edge.id} flows backward; left-to-right is the "
                         "default (recurrent edges use ~>)", edge.id)

    for group in diagram.groups:
        if group.entry_side != OWNER_INPUT_SIDE:
            emit("W204", f"detail group {group.id!r} declares entry "
                         f"{group.entry_side}; its owner takes input on the "
                         f"{OWNER_INPUT_SIDE}", group.id)

    symbol_names = _symbol_names(diagram.dialects)
    for node in diagram.nodes:
        if typed.graph.resolved[node.id].dialect == "ext":
            emit("W205", f"node {node.id!r} uses extension code {node.code!r}; "
                         "introduce new symbols sparingly", node.id)
        if node.label is not None:
            duplicated = symbol_names.get(node.label.lower())
            if duplicated is not None and duplicated != node.code:
                emit("W206", f"label {node.label!r} duplicates the symbol "
                             f"{duplicated!r}; use the symbol itself", node.id)
        if node.kind in ("task", "classifier") and not node.perf:
            emit("W207", f"{node.kind} node {node.id!r} carries no perf "
                         "annotation; report quality per component", node.id)

    # W201..W207 each name one kind and are emitted in its declaration order;
    # W208 is emitted per layer, so it is put in node order here
    position = {node.id: i for i, node in enumerate(diagram.nodes)}
    out.extend(sorted(_mixed_layers(typed, drawn, disabled),
                      key=lambda d: position.get(d.ir_path, -1)))
    out.sort(key=lambda d: d.code)  # stable, so each code keeps that order
    return out


def _symbol_names(dialects: frozenset[str]) -> dict[str, str]:
    names: dict[str, str] = {}
    for dialect in sorted(dialects):
        for symbol in list_symbols(dialect):
            names[symbol.code.lower()] = symbol.code
    return names


def _mixed_layers(typed: TypedDiagram, drawn: Layering | LayoutResult,
                  disabled: frozenset[str]) -> list[Diagnostic]:
    if "W208" in disabled:
        return []
    group_of = typed.graph.group_of
    top = [n for n in typed.diagram.nodes if n.id not in group_of]
    seen: dict[tuple[int, int], dict[str, str]] = {}
    out: list[Diagnostic] = []
    flagged: set[tuple[int, int]] = set()
    for node in top:
        layer = drawn.layers[node.id]
        key = (drawn.bands[node.id], layer)
        classes = seen.setdefault(key, {})
        classes.setdefault(node.shape_class, node.id)
        if len(classes) > 1 and key not in flagged:
            flagged.add(key)
            feature = classes.get("feature")
            component = classes.get("component")
            out.append(Diagnostic(
                "W208",
                f"layer {layer} mixes feature node {feature!r} with component "
                f"node {component!r}; box the detail or align the abstraction",
                ir_path=feature or component,
            ))
    return out
