"""Independent oracles and generators shared by the unit and acceptance tests.

These deliberately avoid the library's propagation and layering code paths:
the propagation oracle schedules nodes itself over explicit topological
orders, the round-robin reference is the checker's earlier fixed-point loop,
the reference tensor is the checker's earlier ``otimes`` fold, the
reference drawing is render's earlier edge walk and TeX escape, the
reference term spellings are the four earlier walks over a term's
structure (ASCII, SVG, TikZ and the language reference's slot patterns), the
layering oracle enumerates every path, the reference layering is the
layout's earlier two-pass longest path, the reference layout phases
are the layout's earlier quadratic cycle search, barycenter sweep and area
placement, the reference diagnostics writer is the earlier chunked
``json.dump``, and the reference front end is the earlier character-loop
tokenizer, the parser over its token list with the earlier term reader, and
lowering's earlier id lookups. The artifact validity oracle checks a drawing
with the standard library alone: the SVG as XML, the TikZ token by token.
"""

from __future__ import annotations

import json
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from itertools import permutations
from unittest import mock

import dial.cli
import dial.layout
import dial.parser
from dial.diagnostics import Diagnostic, Span
from dial.layout import (
    BAND_GAP,
    H_GAP,
    V_GAP,
    Box,
    Layering,
    LayoutResult,
    _quant,
    _weak_components,
    assign_layers,
    break_cycles,
    node_display_lines,
    node_size,
)
from dial.interchange import canonical_serialize, deserialize
from dial.model import (DetailGroup, Diagram, Edge, Node, PerfAnnotation, Port,
                        default_shape_class)
from dial.parser import (
    ARROWS,
    DSL_VERSION,
    ITEM_KEYWORDS,
    KEYWORDS,
    REGIONS,
    SIDES,
    DataDecl,
    DetailDecl,
    EdgeDecl,
    EmbedDecl,
    ExtendDecl,
    LoweredUnit,
    NodeDecl,
    PortRef,
    SourceAst,
    TableDecl,
    Tokens,
    _SLOT_RE,
    _Lowerer,
    _number,
    _ParseAbort,
)
from dial.record import Record, replace
from dial.registry import Registry, node_kind
from dial.render import _Drawing, _esc_xml, _Svg, _Tikz, glyph_for
from dial.terms import (
    CANONICAL,
    DIST,
    MAX_NESTING,
    SEQUENCE,
    SET,
    SET_SPELLINGS,
    SPELLINGS,
    TUPLE,
    DataTerm,
    TermError,
    TermNestingError,
    _fmt_sup,
    _range_end,
)
from dial.typecheck import (
    TypedDiagram,
    _check_declared,
    _collapse,
    dim_combine,
    infer_output,
)

# ---------------------------------------------------------------------------
# The earlier term reader, over (kind, text, pos) triples: verbatim apart from
# its names (parse_term also took ``labels=None`` there, as TermParser did), the
# labels it reads after a distribution range, as the grammar now allows, and
# the label set it takes where it took a vocabulary record
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[\^\{\}\(\)\[\],]))"
)


def reference_lex_literal(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise TermError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        kind = m.lastgroup or "punct"
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class ReferenceTermParser:
    """Recursive descent over simple (kind, text, pos) triples.

    Shared between :func:`parse_term` (standalone literals) and the DSL
    parser, which passes its own token list and the term's first index as
    ``start`` and reads :attr:`index` afterwards to know where it ended. With
    ``labels=None`` the parser checks structure only; base and label names
    pass through unresolved (the DSL front end uses this to find a term's
    extent before extensions are registered).
    """

    def __init__(self, tokens: list[tuple[str, str, int]],
                 labels: frozenset[str] | None, start: int = 0) -> None:
        self.tokens = tokens
        self.labels = labels
        self.index = start
        self.depth = 0  # brackets open around the term being parsed

    def _peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _take(self, text: str | None = None, kind: str | None = None) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise TermError(f"term ended early, expected {text or kind}", self._end_pos())
        if text is not None and tok[1] != text:
            raise TermError(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok[2])
        if kind is not None and tok[0] != kind:
            raise TermError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.index += 1
        return tok

    def _end_pos(self) -> int:
        return self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 0

    def parse(self) -> DataTerm:
        tok = self._peek()
        if tok is None:
            raise TermError("empty data term", 0)
        kind, text, pos = tok
        if text not in ("(", "{"):
            if kind != "ident":
                raise TermError(f"expected a data term, found {text or 'end of input'!r}", pos)
            return self._parse_base()
        if self.depth == MAX_NESTING:
            raise TermNestingError(f"data term nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        if text == "(":
            term = self._parse_tuple()
        else:
            self._take("{")
            term = DataTerm(structure=SET, element=self.parse())
            self._take("}")
        self.depth -= 1
        return term

    def _parse_tuple(self) -> DataTerm:
        self._take("(")
        elements = [self.parse()]
        while self._peek() and self._peek()[1] == ",":
            self._take(",")
            elements.append(self.parse())
        self._take(")")
        if len(elements) == 1:
            return elements[0]
        return DataTerm(structure=TUPLE, elements=tuple(elements))

    def _parse_base(self) -> DataTerm:
        _, text, pos = self._take(kind="ident")

        # Classification outcome with an explicit range: P_<class>[a,b].
        if text.startswith("P_") and self._peek() and self._peek()[1] == "[":
            sub = text[2:]
            self._take("[")
            lo = float(self._take(kind="num")[1])
            self._take(",")
            hi = float(self._take(kind="num")[1])
            self._take("]")
            if lo > hi:
                raise TermError(f"distribution range [{lo:g},{hi:g}] is inverted", pos)
            sub = None if sub in ("", "c") else sub
            return DataTerm(base="P_c", annotations=self._parse_sup(), subscript=sub,
                            structure=DIST, dist_range=(lo, hi))

        # Predicate-argument structure keeps its traditional Pred(Arg) spelling.
        if text == "Pred" and self._peek() and self._peek()[1] == "(":
            self._take("(")
            self._take("Arg")
            self._take(")")
            base, subscript, as_set = "PredArg", None, False
        else:
            base, subscript, as_set = self._resolve_base(text, pos)

        labels = self._parse_sup()
        dims = self._parse_dims()
        term = DataTerm(base=base, annotations=labels, subscript=subscript, dims=dims)
        if as_set:
            term = DataTerm(structure=SET, element=term)
        return term

    def _resolve_base(self, text: str, pos: int) -> tuple[str, str | None, bool]:
        if self.labels is None:
            return text, None, False
        if text in SPELLINGS:
            return SPELLINGS[text], None, text in SET_SPELLINGS
        if "_" in text:
            head, _, sub = text.partition("_")
            if head in SPELLINGS and sub:
                return SPELLINGS[head], sub, head in SET_SPELLINGS
        raise TermError(f"unknown data category {text!r}", pos)

    def _parse_sup(self) -> frozenset[str]:
        if not self._peek() or self._peek()[1] != "^":
            return frozenset()
        self._take("^")
        labels: list[str] = []
        if self._peek() and self._peek()[1] == "{":
            self._take("{")
            labels.append(self._take_label())
            while self._peek() and self._peek()[1] == ",":
                self._take(",")
                labels.append(self._take_label())
            self._take("}")
        else:
            labels.append(self._take_label())
        return frozenset(labels)

    def _take_label(self) -> str:
        _, text, pos = self._take(kind="ident")
        if text == "Pred" and self._peek() and self._peek()[1] == "(":
            self._take("(")
            self._take("Arg")
            self._take(")")
            text = "PredArg"
        if self.labels is not None and text not in self.labels:
            raise TermError(f"unknown classification label {text!r}", pos)
        return text

    def _parse_dims(self) -> tuple[int, ...] | None:
        if not self._peek() or self._peek()[1] != "[":
            return None
        self._take("[")
        dims = [self._take_dim()]
        while self._peek() and self._peek()[1] == ",":
            self._take(",")
            dims.append(self._take_dim())
        self._take("]")
        return tuple(dims)

    def _take_dim(self) -> int:
        _, text, pos = self._take(kind="num")
        if "." in text or int(text) < 1:
            raise TermError(f"dimension must be a positive integer, got {text}", pos)
        return int(text)


def reference_parse_term(literal: str, labels: frozenset[str] | None) -> DataTerm:
    """Parse a standalone data-term literal; raises TermError on any defect."""
    parser = ReferenceTermParser(reference_lex_literal(literal), labels)
    term = parser.parse()
    leftover = parser._peek()
    if leftover is not None:
        raise TermError(f"trailing input {leftover[1]!r} after data term", leftover[2])
    return term


_TERM_BASES = ("S", "T", "Term", "vec", "terms", "KB", "Score", "C", "Term_New", "S_",
               "Pred(Arg)", "Zebra", "for")
_TERM_LABELS = ("NER", "POS", "Token", "F", "R", "WSD", "Pred(Arg)", "Nope")
_TERM_MUTANT_CHARS = '{}()[],^_ .09aZ@-!;"\t\u00e9'


def random_term_literal(rng: random.Random, depth: int = 0) -> str:
    """A data-term literal: sets, tuples, distributions, and bases with labels
    and dimensions. Some names are unknown (``Zebra``, ``Nope``), and some
    dimensions and ranges are out of bounds."""
    r = rng.random()
    if depth < 3 and r < 0.15:
        return "{" + random_term_literal(rng, depth + 1) + "}"
    if depth < 3 and r < 0.3:
        parts = [random_term_literal(rng, depth + 1) for _ in range(rng.randint(1, 3))]
        return "(" + ", ".join(parts) + ")"
    if r < 0.4:
        lo, hi = rng.choice(("0", "0.5", "1")), rng.choice(("0", "1", "0.25"))
        return f"P_{rng.choice(('', 'c', 'entail'))}[{lo},{hi}]"
    literal = rng.choice(_TERM_BASES)
    if rng.random() < 0.4:
        labels = rng.sample(_TERM_LABELS, rng.randint(1, 3))
        literal += "^" + (labels[0] if len(labels) == 1 and rng.random() < 0.5
                          else "{" + ",".join(labels) + "}")
    if rng.random() < 0.3:
        dims = [rng.choice(("1", "300", "0", "2.5")) for _ in range(rng.randint(1, 3))]
        literal += "[" + ",".join(dims) + "]"
    return literal


def mutate_term_literal(rng: random.Random, literal: str) -> str:
    """A literal nested to ``MAX_NESTING`` or one past it, given trailing
    input, emptied, cut short, or with a character deleted, inserted or
    replaced (brackets, separators and characters no term may hold)."""
    op = rng.randrange(8)
    k = rng.randrange(len(literal) + 1)
    if op == 0:
        depth = rng.choice((MAX_NESTING, MAX_NESTING + 1))
        return "{" * depth + literal + "}" * depth
    if op == 1:
        return literal + rng.choice((" S", ")", "}", ",", "^NER", "[3]"))
    if op == 2:
        return rng.choice(("", "  ", "\t"))
    if op == 3:
        return literal[:k]
    if op == 4:
        return literal[:k] + literal[k + 1:]
    if op == 5:
        return literal[:k] + rng.choice(_TERM_MUTANT_CHARS) + literal[k:]
    return literal[:k] + rng.choice(_TERM_MUTANT_CHARS) + literal[k + 1:]


# ---------------------------------------------------------------------------
# Random diagrams over a small operator pool
# ---------------------------------------------------------------------------

SOURCE_TERMS = ("S", "S^Token", "S^POS", "S^{Token,POS}", "T", "vec[8]", "vec[4]")
OP_POOL = ("POS", "NER", "SRL", "oplus", "concat", "rank", "classifier")
_ARITY = {"POS": 1, "NER": 1, "SRL": 1, "oplus": 2, "concat": 2, "rank": 1, "classifier": 1}
_NUMBER_PARAM = {"rank": "n", "classifier": "class"}


def random_propagation_diagram(rng: random.Random, max_nodes: int = 8) -> Diagram:
    """A random DAG whose declaration order is one topological order.

    A node with a number parameter is often followed by its twin: the same
    code and sources, the number as the other type (2 and 2.0), so that
    equal params of different types meet equal inputs.
    """
    diagram = Diagram(name="random", dialects=frozenset({"sys"}))
    n_sources = rng.randint(1, 2)
    total = rng.randint(n_sources + 1, max_nodes)
    for i in range(n_sources):
        term = rng.choice(SOURCE_TERMS)
        diagram.nodes.append(Node(
            id=f"s{i}", kind="io", code="interface",
            params=(("out", term),), shape_class="component"))
    last: tuple[Node, list[str]] | None = None
    for i in range(total - n_sources):
        if last is not None and last[0].params and rng.random() < 0.5:
            (key, value), = last[0].params
            code, sources = last[0].code, last[1]
            params = ((key, float(value) if isinstance(value, int) else int(value)),)
        else:
            code = rng.choice(OP_POOL)
            params = ((_NUMBER_PARAM[code], rng.randint(1, 3)),) if code in _NUMBER_PARAM else ()
            providers = [n.id for n in diagram.nodes]
            sources = [rng.choice(providers) for _ in range(_ARITY[code])]
        kind = "task" if code in ("POS", "NER", "SRL") else "operator"
        node = Node(id=f"n{i}", kind=kind, code=code, params=params,
                    shape_class="component" if kind == "task" else "feature")
        diagram.nodes.append(node)
        last = (node, sources)
        for slot, source in enumerate(sources):
            diagram.edges.append(Edge(
                f"e{len(diagram.edges)}",
                Port(source, 0, "out"), Port(node.id, slot, "in"), "flow"))
    return diagram


def topological_orders(diagram: Diagram, cap: int = 200) -> list[list[str]]:
    """Up to ``cap`` distinct topological orders, deterministically."""
    succs: dict[str, set[str]] = {n.id: set() for n in diagram.nodes}
    in_deg: dict[str, int] = {n.id: 0 for n in diagram.nodes}
    seen_pairs: set[tuple[str, str]] = set()
    for edge in diagram.edges:
        pair = (edge.source.node, edge.target.node)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        succs[pair[0]].add(pair[1])
        in_deg[pair[1]] += 1

    orders: list[list[str]] = []
    prefix: list[str] = []

    def backtrack() -> None:
        if len(orders) >= cap:
            return
        ready = sorted(n for n, d in in_deg.items() if d == 0 and n not in prefix)
        if not ready:
            if len(prefix) == len(in_deg):
                orders.append(list(prefix))
            return
        for node in ready:
            prefix.append(node)
            for nxt in succs[node]:
                in_deg[nxt] -= 1
            backtrack()
            for nxt in succs[node]:
                in_deg[nxt] += 1
            prefix.pop()
            if len(orders) >= cap:
                return

    backtrack()
    return orders


def propagate_in_order(diagram: Diagram, order: list[str],
                       registry: Registry) -> tuple[dict[str, DataTerm | None], list[str]]:
    """Edge-by-edge propagation along one explicit topological order."""
    outputs: dict[str, list[DataTerm | None]] = {}
    codes: list[str] = []
    node_by_id = {n.id: n for n in diagram.nodes}
    for node_id in order:
        node = node_by_id[node_id]
        slots: dict[int, DataTerm | None] = {}
        flags: dict[int, bool] = {}
        for edge in diagram.edges:
            if edge.target.node != node_id:
                continue
            outs = outputs.get(edge.source.node, [])
            slots[edge.target.slot] = outs[edge.source.slot] if edge.source.slot < len(outs) else None
            flags[edge.target.slot] = node_by_id[edge.source.node].kind == "resource"
        width = max(slots, default=-1) + 1
        inputs = [slots.get(i) for i in range(width)]
        res_flags = [flags.get(i, False) for i in range(width)]
        found = registry.resolve(node.code, diagram.dialects)
        outs, diags = infer_output(node, found, inputs, registry, {}, res_flags)
        outputs[node_id] = outs
        codes.extend(d.code for d in diags)
    edge_terms: dict[str, DataTerm | None] = {}
    for edge in diagram.edges:
        outs = outputs.get(edge.source.node, [])
        edge_terms[edge.id] = outs[edge.source.slot] if edge.source.slot < len(outs) else None
    return edge_terms, sorted(codes)


def random_feedback_diagram(rng: random.Random, max_nodes: int = 8) -> Diagram:
    """A random propagation diagram with cycles, declared in shuffled order.

    Up to three edges run from a node to itself or to a node generated
    before it: recurrent edges, and flow edges that close a cycle, into the
    target's next free input slot. Nodes and edges are shuffled, so the
    declaration order is rarely topological and the cycle-breaker may
    reverse a forward edge rather than the closing one. The result may
    violate arities; callers filter with ``validate_structure``.
    """
    diagram = random_propagation_diagram(rng, max_nodes)
    ids = [n.id for n in diagram.nodes]
    for _ in range(rng.randint(1, 3)):
        later = rng.randrange(1, len(ids))
        source, target = ids[later], ids[rng.randrange(0, later + 1)]
        if rng.random() < 0.5:
            kind, slot = "recurrent", rng.randint(0, 1)
        else:
            kind = "flow"
            slot = sum(1 for e in diagram.edges
                       if e.target.node == target and e.flow_kind != "recurrent")
        diagram.edges.append(Edge(f"e{len(diagram.edges)}", Port(source, 0, "out"),
                                  Port(target, slot, "in"), kind))
    rng.shuffle(diagram.nodes)
    rng.shuffle(diagram.edges)
    return diagram


def rank_schedule(diagram: Diagram) -> list[Node]:
    """Nodes by layer of the cycle-broken orientation, then declaration order."""
    oriented, _ = break_cycles(diagram)
    layers = assign_layers([n.id for n in diagram.nodes], oriented)
    indexed = sorted((layers[n.id], i) for i, n in enumerate(diagram.nodes))
    return [diagram.nodes[i] for _, i in indexed]


def round_robin_check(diagram: Diagram, registry: Registry | None = None,
                      schedule: list[Node] | None = None) -> tuple[TypedDiagram, bool]:
    """The checker's earlier fixed point, kept as a reference.

    Every round re-runs every node, in declaration order or in the order of
    ``schedule``, until a round changes nothing or ``max_rounds`` rounds
    have run. Diagnostics come from a final pass in declaration order.
    Returns the typed diagram and whether a round changed nothing.
    """
    registry = registry or Registry()
    embeddings = {e.id: e.dim for e in diagram.embeddings}
    resolutions = {n.id: registry.resolve(n.code, diagram.dialects) for n in diagram.nodes}
    outputs: dict[str, list[DataTerm | None]] = {n.id: [None] for n in diagram.nodes}
    oriented, backward = break_cycles(diagram)
    label_count = len(registry.labels)
    max_rounds = len(diagram.edges) * label_count + 2

    def delivered_term(edge: Edge) -> DataTerm | None:
        source = diagram.node_by_id(edge.source.node)
        if source is None:
            return None
        if edge.flow_kind == "query" and source.kind == "resource":
            return DataTerm(base="Tuples")
        outs = outputs.get(edge.source.node, [])
        if edge.source.slot < len(outs):
            return outs[edge.source.slot]
        return None

    def gather(node: Node) -> tuple[list[DataTerm | None], list[bool]]:
        slots: dict[int, DataTerm | None] = {}
        resource_flags: dict[int, bool] = {}
        feedback: list[tuple[int, DataTerm | None]] = []
        for edge in diagram.edges:
            if edge.target.node != node.id:
                continue
            delivered = delivered_term(edge)
            if edge.flow_kind == "recurrent" or edge.id in backward:
                feedback.append((edge.target.slot, delivered))
                continue
            slots[edge.target.slot] = delivered
            src = diagram.node_by_id(edge.source.node)
            resource_flags[edge.target.slot] = bool(src and src.kind == "resource")
        for slot, delivered in feedback:
            if delivered is None:
                continue
            if slots.get(slot) is not None:
                slots[slot] = slots[slot].with_labels(delivered.all_labels())
            else:
                slots[slot] = _collapse(delivered)
        width = max(slots, default=-1) + 1
        return ([slots.get(i) for i in range(width)],
                [resource_flags.get(i, False) for i in range(width)])

    converged = False
    for _ in range(max_rounds):
        changed = False
        for node in schedule or diagram.nodes:
            if resolutions[node.id] is None:
                continue
            inputs, res_flags = gather(node)
            outs, _ = infer_output(node, resolutions[node.id], inputs, registry,
                                   embeddings, res_flags)
            if outs != outputs[node.id]:
                outputs[node.id] = outs
                changed = True
        if not changed:
            converged = True
            break

    diagnostics: list[Diagnostic] = []
    for node in diagram.nodes:
        if resolutions[node.id] is None:
            continue
        inputs, res_flags = gather(node)
        _, diags = infer_output(node, resolutions[node.id], inputs, registry,
                                embeddings, res_flags)
        diagnostics.extend(diags)

    edge_terms: dict[str, DataTerm] = {}
    for edge in diagram.edges:
        delivered = delivered_term(edge)
        if delivered is not None:
            edge_terms[edge.id] = delivered
        elif resolutions.get(edge.source.node) is not None:
            diagnostics.append(Diagnostic(
                "E102", f"edge {edge.id} carries no resolvable term "
                        f"(source {edge.source} produced nothing)",
                ir_path=edge.id))
        if edge.declared_term is not None:
            _check_declared(edge, delivered, registry, diagnostics)
    # resolves codes itself, so it has no validation Graph to carry, and
    # leaves the layering to layout
    return TypedDiagram(diagram, None, edge_terms, diagnostics, oriented, backward,
                        None), converged


def reference_tensor(present: list[DataTerm]) -> DataTerm | None:
    """The checker's earlier ``otimes`` fold, kept verbatim as a reference."""
    if not present:
        return None
    out = present[0]
    for term in present[1:]:
        if out.structure == SET and term.structure == SET:
            pair = DataTerm(structure=TUPLE, elements=(out.element, term.element))
            out = DataTerm(structure=SET, element=pair)
            continue
        core_a, core_b = out.core(), term.core()
        if core_a.dims is not None and core_b.dims is not None:
            dims = dim_combine("otimes", core_a.dims, core_b.dims)
        else:
            dims = None
        out = replace(core_a, annotations=core_a.annotations | core_b.annotations,
                      dims=dims)
    return out


# ---------------------------------------------------------------------------
# The earlier group validation, which walked owner -> containing group -> ...
# from every group with a fresh ``seen`` set: verbatim
# ---------------------------------------------------------------------------


def reference_validate_groups(diagram: Diagram, nodes: dict[str, Node],
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
# The earlier diagnostics writer, one write per chunk of the encoder, with the
# earlier ``Diagnostic.to_json_obj`` inlined: verbatim but for taking each
# diagnostic's file from its ``(file, diagnostics)`` group
# ---------------------------------------------------------------------------


def reference_dump_json(groups: list[tuple[str, list[Diagnostic]]], stream) -> None:
    json.dump([{
        "code": d.code,
        "severity": d.severity,
        "file": file,
        "line": d.span.line if d.span else None,
        "col": d.span.col if d.span else None,
        "message": d.message,
    } for file, diagnostics in groups for d in diagnostics], stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# The earlier term spellings, one walk over a term's tuple, set and sequence
# structure each: ASCII (``terms.format_term``), SVG and TikZ (``render``) and
# the language reference's slot patterns. Verbatim, but for their names and
# their calls of the ASCII walk
# ---------------------------------------------------------------------------


def reference_format_term(term: DataTerm) -> str:
    """Canonical ASCII rendering; the inverse of parse_term on its image."""
    if term.structure == TUPLE:
        return "(" + ", ".join(reference_format_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return "{" + reference_format_term(term.element) + "}"
    if term.structure == SEQUENCE:
        bound = f"<={term.max_len}" if term.max_len is not None else ""
        return f"[{reference_format_term(term.element)}]{bound}"
    if term.structure == DIST:
        lo, hi = term.dist_range
        out = f"P_{term.subscript or 'c'}[{_range_end(lo)},{_range_end(hi)}]"
        return out + _fmt_sup(term.annotations)
    spelling = CANONICAL.get(term.base, term.base or "?")
    if term.subscript:
        spelling = f"{spelling}_{term.subscript}"
    out = spelling + _fmt_sup(term.annotations)
    if term.dims is not None:
        out += "[" + ",".join(str(d) for d in term.dims) + "]"
    return out


def reference_svg_term(term: DataTerm) -> str:
    """Term markup with superscript tspans."""
    if term.structure == TUPLE:
        return "(" + ", ".join(reference_svg_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return "{" + reference_svg_term(term.element) + "}"
    if term.structure == SEQUENCE:
        bound = f"&#8804;{term.max_len}" if term.max_len is not None else ""
        return f"[{reference_svg_term(term.element)}]{bound}"
    out = _esc_xml(reference_format_term(DataTerm(base=term.base, subscript=term.subscript,
                                                  dims=term.dims, structure=term.structure,
                                                  dist_range=term.dist_range)))
    labels = sorted(term.annotations)
    if labels:
        out += ('<tspan baseline-shift="super" font-size="8">'
                + _esc_xml(",".join(labels)) + "</tspan>")
    return out


def reference_tikz_term(term: DataTerm) -> str:
    if term.structure == TUPLE:
        return "(" + ", ".join(reference_tikz_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return r"\{" + reference_tikz_term(term.element) + r"\}"
    if term.structure == SEQUENCE:
        bound = f"\\leq {term.max_len}" if term.max_len is not None else ""
        return f"[{reference_tikz_term(term.element)}]{bound}"
    out = reference_format_term(DataTerm(base=term.base, structure=term.structure,
                                         dist_range=term.dist_range)).replace("_", r"\_")
    if term.subscript and term.structure != DIST:
        out += f"_{{{term.subscript}}}"
    labels = sorted(term.annotations)
    if labels:
        out += "^{" + ",".join(labels) + "}"
    if term.dims is not None:
        out += "[" + ",".join(str(d) for d in term.dims) + "]"
    return out


def reference_pattern_text(term: DataTerm, optional: frozenset[str]) -> str:
    """A slot's pattern with its optional labels on the innermost term."""
    if term.structure == SET:
        return "{" + reference_pattern_text(term.element, optional) + "}"
    if term.structure == SEQUENCE:
        return "[" + reference_pattern_text(term.element, optional) + "]"
    text = reference_format_term(term)
    if optional:
        text += "^(" + ",".join(sorted(optional)) + ")"
    return text


# ---------------------------------------------------------------------------
# The drawing's earlier edge walk, which spelled the term of every edge with
# the writer's earlier term walk, its earlier node walk, which spelled every
# node, and its earlier TeX escape, one dict lookup per character: verbatim
# ---------------------------------------------------------------------------


def reference_edges(self) -> Iterator[str]:
    for edge in self.typed.diagram.edges:
        route = self.layout.edge_routes[edge.id]
        (x0, y0), (x1, y1) = route[0], route[-1]
        term = self.typed.edge_terms.get(edge.id)
        yield self.edge(edge.flow_kind, route, ((x0 + x1) // 2, (y0 + y1) // 2 - 4),
                        None if term is None else self.term(term))


def reference_nodes(self) -> Iterator[str]:
    resolved = self.typed.graph.resolved
    for node in self.typed.diagram.nodes:
        glyph = glyph_for(resolved[node.id])
        plain = node_display_lines(node)
        lines = [self.esc(line) for line in plain]
        mark = self.mark_text(node, glyph)
        if mark is not None:
            lines[0] = mark if plain[0] == node.code else f"{mark} {lines[0]}"
        badge = glyph.badge and self.esc_mark(self.marks.get(glyph.badge, glyph.badge))
        yield self.node(glyph, self.layout.node_boxes[node.id], lines, badge)


def reference_esc_tex(text: str) -> str:
    specials = {"\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$",
                "#": r"\#", "_": r"\_", "{": r"\{", "}": r"\}",
                "~": r"\textasciitilde{}", "^": r"\textasciicircum{}"}
    return "".join(specials.get(ch, ch) for ch in text)


@contextmanager
def reference_drawing() -> Iterator[None]:
    """Both writers draw with the reference edge and node walks, term
    spellings and TeX escape. The writers' ``order`` tuples and ``_Tikz.esc``
    hold the functions bound when their classes were created, so those are
    patched, not only ``_Drawing``."""
    walks = {_Drawing.edges: reference_edges, _Drawing.nodes: reference_nodes}
    with ExitStack() as patches:
        for cls, term in ((_Svg, reference_svg_term), (_Tikz, reference_tikz_term)):
            patches.enter_context(mock.patch.object(
                cls, "order", tuple(walks.get(f, f) for f in cls.order)))
            patches.enter_context(mock.patch.object(cls, "term", staticmethod(term), create=True))
        patches.enter_context(mock.patch.object(_Drawing, "edges", reference_edges))
        patches.enter_context(mock.patch.object(_Drawing, "nodes", reference_nodes))
        patches.enter_context(mock.patch.object(_Tikz, "esc", staticmethod(reference_esc_tex)))
        yield


_FACES_SOURCE = """dial 0.1
dialect sys
diagram "faces" {
  data x: S^Token
  node a: POS
  node b: POS(label="tagger")
  node c: POS(shape=feature)
  node d: POS(label="tagger", shape=feature)
  node e: POS
  node f: POS(label="a<b & {c}_d")
  node g: POS(label="a<b & {c}_d")
  node s: oplus
  node t: oplus(label="sum")
  node u: oplus(label="oplus")
  node v: rank
  node w: rank(label="top")
  node z: rank
  edge x -> a
  edge x -> b
  edge x -> c
  edge x -> d
  edge x -> e
  edge x -> f
  edge x -> g
  edge a -> s
  edge b -> s.in1
  edge c -> t
  edge d -> t.in1
  edge e -> u
  edge f -> u.in1
  edge s -> v
  edge t -> w
  edge u -> z
  detail zoom for g {
    data y: S^Token
    node p: POS
    node q: POS(label="tagger")
    node r: POS
    edge y -> p
    edge y -> q
    edge y -> r
  }
}
"""


def repeated_face_diagrams() -> list[tuple[str, Diagram]]:
    """Diagrams whose parameter-free nodes repeat a face, beside nodes of the
    same code that differ from them in one field of the face: a compiled
    one, whose POS, oplus and rank nodes differ in label or shape, also
    inside a detail group, and one decoded from an interchange document,
    whose eight ``func`` nodes differ only in kind or shape class, two to
    each of four faces."""
    faces = dial.cli.compile_source(_FACES_SOURCE)
    assert not faces.diagnostics, faces.diagnostics
    fan = "\n".join(["dial 0.1", "dialect sys", 'diagram "kinds" {', "  data x: S"]
                     + [f"  node f{i}: func\n  edge x -> f{i}" for i in range(8)] + ["}"])
    doc = json.loads(canonical_serialize(dial.cli.compile_source(fan).diagram))
    for i, node in enumerate(doc["nodes"][1:]):
        node["kind"] = ("operator", "resource")[i % 2]
        node["shape_class"] = ("feature", "component")[i // 2 % 2]
    return [("<faces>", faces.diagram), ("<decoded kinds>", deserialize(json.dumps(doc).encode()))]


# ---------------------------------------------------------------------------
# Artifact validity: what an SVG viewer or TeX would refuse or misdraw
# ---------------------------------------------------------------------------

_SVG_TOKEN = re.compile(r"[A-Za-z]|-?\d+(?:\.\d+)?")
_TEX_TOKEN = re.compile(r"\\[A-Za-z]+|\\.|.")


def _svg_points(element: ET.Element) -> list[tuple[float, float]]:
    """The coordinates an element is drawn at: the corners of a rect, circle
    or ellipse, the vertices of a line, polyline, polygon or path, and a
    text's anchor."""
    def get(name: str) -> float:
        return float(element.get(name, 0))

    tag = element.tag.rsplit("}", 1)[-1]
    if tag == "circle":
        r = get("r")
        return [(get("cx") - r, get("cy") - r), (get("cx") + r, get("cy") + r)]
    if tag == "ellipse":
        return [(get("cx") - get("rx"), get("cy") - get("ry")),
                (get("cx") + get("rx"), get("cy") + get("ry"))]
    if tag == "line":
        return [(get("x1"), get("y1")), (get("x2"), get("y2"))]
    if tag in ("polyline", "polygon"):
        numbers = [float(v) for v in _SVG_TOKEN.findall(element.get("points"))]
        return list(zip(numbers[::2], numbers[1::2]))
    if tag == "path":  # M, L and Z, and A, whose end point is its last pair
        points, command, args = [], "", []
        for token in _SVG_TOKEN.findall(element.get("d")) + ["Z"]:
            if token.isalpha():
                command, args = token, []
                continue
            args.append(float(token))
            if len(args) == {"M": 2, "L": 2, "A": 7}[command]:
                points.append((args[-2], args[-1]))
                args = []
        return points
    if "x" in element.attrib:
        return [(get("x"), get("y")), (get("x") + get("width"), get("y") + get("height"))]
    return []


def svg_problems(svg: str) -> list[str]:
    """Why ``svg`` is not a valid drawing, [] when it is: it does not parse as
    XML, an id repeats, or a coordinate drawn outside ``<defs>`` lies outside
    the ``viewBox``."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"not XML: {exc}"]
    problems = [f"id {i!r} is used {n} times"
                for i, n in Counter(e.get("id") for e in root.iter() if "id" in e.attrib).items()
                if n > 1]
    x0, y0, width, height = map(float, root.get("viewBox").split())
    defined = {e for defs in root.iter("{http://www.w3.org/2000/svg}defs") for e in defs.iter()}
    for element in root.iter():
        if element is root or element in defined:
            continue
        for x, y in _svg_points(element):
            if not (x0 <= x <= x0 + width and y0 <= y <= y0 + height):
                problems.append(f"{element.tag.rsplit('}', 1)[-1]} at ({x:g}, {y:g}) "
                                f"lies outside the viewBox {x0:g} {y0:g} {width:g} {height:g}")
    return problems


def tikz_problems(tex: str) -> list[str]:
    """Why ``tex`` would not typeset as drawn, line by line, [] when it would:
    a brace or an unescaped ``$`` that does not balance, or a ``_`` or ``^``
    outside math mode. The group after ``\\mbox`` is text, even in math mode."""
    problems = []
    for number, line in enumerate(tex.splitlines(), 1):
        groups: list[tuple[bool, bool]] = []  # each open brace: (mode outside, mode inside)
        math = mbox = False
        for token in _TEX_TOKEN.findall(line):
            if token == "%":  # a comment runs to the end of the line
                break
            if token == "{":
                groups.append((math, math and not mbox))
                math = math and not mbox
            elif token == "}":
                if not groups:
                    problems.append(f"line {number}: a '}}' closes nothing")
                    break
                outside, inside = groups.pop()
                if math != inside:
                    problems.append(f"line {number}: a '$' is not closed inside its braces")
                math = outside
            elif token == "$":
                math = not math
            elif token in ("_", "^") and not math:
                problems.append(f"line {number}: {token!r} outside math mode")
            mbox = math and token == "\\mbox"
        if groups:
            problems.append(f"line {number}: {len(groups)} '{{' left open")
        if math:
            problems.append(f"line {number}: a '$' is left open")
    return problems


# ---------------------------------------------------------------------------
# Random DAGs for layout
# ---------------------------------------------------------------------------


def random_layout_diagram(rng: random.Random, max_nodes: int = 8,
                          cyclic: bool = False) -> Diagram:
    diagram = Diagram(name="layout", dialects=frozenset({"sys"}))
    count = rng.randint(2, max_nodes)
    for i in range(count):
        diagram.nodes.append(Node(id=f"v{i}", kind="operator", code="func",
                                  shape_class="feature"))
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.35:
                diagram.edges.append(Edge(
                    f"e{len(diagram.edges)}",
                    Port(f"v{i}", 0, "out"), Port(f"v{j}", 0, "in"), "flow"))
    if cyclic and count >= 2:
        hi = rng.randint(1, count - 1)
        lo = rng.randint(0, hi - 1)
        diagram.edges.append(Edge(
            f"e{len(diagram.edges)}",
            Port(f"v{hi}", 0, "out"), Port(f"v{lo}", 0, "in"), "flow"))
    return diagram


def longest_path_oracle(node_ids: list[str],
                        oriented: list[tuple[str, str, str]]) -> dict[str, int]:
    """Longest path by exhaustive enumeration of every simple path."""
    preds: dict[str, list[str]] = {n: [] for n in node_ids}
    for _, u, v in oriented:
        preds[v].append(u)

    def longest_to(node: str) -> int:
        best = 0
        for p in preds[node]:
            best = max(best, 1 + longest_to(p))
        return best

    return {n: longest_to(n) for n in node_ids}


def reference_assign_layers(node_ids: list[str],
                            oriented: list[tuple[str, str, str]]) -> dict[str, int]:
    """The earlier ``assign_layers``, a topological order and then a max over
    each node's predecessors: verbatim."""
    preds: dict[str, list[str]] = {n: [] for n in node_ids}
    succs: dict[str, list[str]] = {n: [] for n in node_ids}
    for _, u, v in oriented:
        preds[v].append(u)
        succs[u].append(v)
    layers: dict[str, int] = {}
    in_deg = {n: len(preds[n]) for n in node_ids}
    order = [n for n in node_ids if in_deg[n] == 0]
    for current in order:  # grows while it is read: a FIFO queue
        for nxt in succs[current]:
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                order.append(nxt)
    for node in order:
        layers[node] = max((layers[p] + 1 for p in preds[node]), default=0)
    return layers


def count_crossings(upper: list[str], lower: list[str],
                    edges: list[tuple[str, str]]) -> int:
    pos_u = {n: i for i, n in enumerate(upper)}
    pos_l = {n: i for i, n in enumerate(lower)}
    spans = [(pos_u[u], pos_l[v]) for u, v in edges if u in pos_u and v in pos_l]
    crossings = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (a1, b1), (a2, b2) = spans[i], spans[j]
            if (a1 - a2) * (b1 - b2) < 0:
                crossings += 1
    return crossings


def min_crossings(upper: list[str], lower: list[str],
                  edges: list[tuple[str, str]]) -> int:
    best = None
    for pu in permutations(upper):
        for pl in permutations(lower):
            c = count_crossings(list(pu), list(pl), edges)
            if best is None or c < best:
                best = c
    return best or 0


def random_grouped_diagram(rng: random.Random, max_components: int = 4) -> Diagram:
    """Several components, each a random layout diagram, and detail groups.

    Components are declared interleaved. Some edges are recurrent or
    self-loops and some close cycles. Each group takes a random subset of
    nodes (a node may land in two groups) and of the edges among them, plus
    now and then an edge that leaves the group.
    """
    diagram = Diagram(name="grouped", dialects=frozenset({"sys"}))
    parts = [random_layout_diagram(rng, max_nodes=7, cyclic=rng.random() < 0.6)
             for _ in range(rng.randint(1, max_components))]
    nodes: list[Node] = []
    edges: list[Edge] = []
    for k, part in enumerate(parts):
        nodes += [Node(id=f"c{k}{n.id}", kind=n.kind, code=n.code,
                       shape_class=n.shape_class) for n in part.nodes]
        for e in part.edges:
            kind = "recurrent" if rng.random() < 0.1 else "flow"
            edges.append(Edge(f"c{k}{e.id}", Port(f"c{k}{e.source.node}", 0, "out"),
                              Port(f"c{k}{e.target.node}", 0, "in"), kind))
        if rng.random() < 0.3:
            loop = f"c{k}{rng.choice(part.nodes).id}"
            edges.append(Edge(f"c{k}loop", Port(loop, 0, "out"), Port(loop, 0, "in")))
    rng.shuffle(nodes)
    rng.shuffle(edges)
    diagram.nodes, diagram.edges = nodes, edges
    for g in range(rng.randint(0, 3)):
        members = {n.id for n in nodes if rng.random() < 0.25}
        member_edges = [e.id for e in edges
                        if (e.source.node in members and e.target.node in members
                            and rng.random() < 0.8)
                        or rng.random() < 0.03]
        owner = rng.choice(nodes).id
        diagram.groups.append(DetailGroup(
            id=f"g{g}", owner=owner, member_nodes=tuple(sorted(members - {owner})),
            member_edges=tuple(member_edges)))
    return diagram


def fed_diagram(diagram: Diagram) -> Diagram:
    """``diagram`` (from ``random_layout_diagram`` or ``random_grouped_diagram``)
    wired so that it can check clean.

    A forward in-edge is a non-recurrent edge that ``reference_break_cycles``
    does not reverse. Every node with none reads one added ``interface`` node
    whose ``out`` is ``S``, and each target numbers its non-recurrent in-edges
    0, 1, 2, ..., forward ones first, so no two share a slot.
    """
    reversed_ids = reference_break_cycles(diagram)[1]
    fed = {e.target.node for e in diagram.edges
           if e.flow_kind != "recurrent" and e.id not in reversed_ids}
    feeds = [Edge(f"feed{n.id}", Port("feed"), Port(n.id, 0, "in"))
             for n in diagram.nodes if n.id not in fed]
    slots = Counter(e.target.node for e in feeds)
    wired: dict[str, Edge] = {}
    for e in sorted(diagram.edges, key=lambda e: e.id in reversed_ids):
        target = e.target
        if e.flow_kind != "recurrent":
            target = Port(target.node, slots[target.node], "in")
            slots[target.node] += 1
        wired[e.id] = Edge(e.id, e.source, target, e.flow_kind)
    feed = Node(id="feed", kind="io", code="interface", params=(("out", "S"),))
    return Diagram(name=diagram.name, dialects=diagram.dialects,
                   nodes=[feed, *diagram.nodes],
                   edges=[*feeds, *(wired[e.id] for e in diagram.edges)],
                   groups=diagram.groups)


# ---------------------------------------------------------------------------
# Reference layout phases: the earlier quadratic versions, kept verbatim
# ---------------------------------------------------------------------------


def reference_break_cycles(diagram: Diagram) -> tuple[list[tuple[str, str, str]], frozenset[str]]:
    """Acyclic orientation over non-recurrent edges.

    Returns (oriented edge list as (edge id, source node, target node) after
    any reversals, reversed edge ids). Edges are considered in declaration
    order, so the edge reversed is always the one closing the cycle latest.
    """
    adjacency: dict[str, set[str]] = {n.id: set() for n in diagram.nodes}
    oriented: list[tuple[str, str, str]] = []
    reversed_ids: set[str] = set()

    def reachable(start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            for nxt in sorted(adjacency[current]):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for edge in diagram.edges:
        if edge.flow_kind == "recurrent":
            continue
        u, v = edge.source.node, edge.target.node
        if u not in adjacency or v not in adjacency:
            continue
        if u == v or reachable(v, u):
            reversed_ids.add(edge.id)
            if u != v:
                adjacency[v].add(u)
                oriented.append((edge.id, v, u))
        else:
            adjacency[u].add(v)
            oriented.append((edge.id, u, v))
    return oriented, frozenset(reversed_ids)


def reference_order_within_layers(node_ids: list[str], layers: dict[str, int],
                                  oriented: list[tuple[str, str, str]],
                                  band_of: dict[str, int] | None = None) -> dict[int, list[str]]:
    """Barycenter sweeps, four fixed passes; declaration order breaks ties.

    ``band_of`` keeps weakly-connected components apart: the band index
    always dominates the barycenter.
    """
    decl_index = {n: i for i, n in enumerate(node_ids)}
    band_of = band_of or {n: 0 for n in node_ids}
    by_layer: dict[int, list[str]] = {}
    for node in node_ids:
        by_layer.setdefault(layers[node], []).append(node)
    for layer_nodes in by_layer.values():
        layer_nodes.sort(key=lambda n: (band_of[n], decl_index[n]))

    preds: dict[str, list[str]] = {n: [] for n in node_ids}
    succs: dict[str, list[str]] = {n: [] for n in node_ids}
    for _, u, v in oriented:
        preds[v].append(u)
        succs[u].append(v)

    layer_keys = sorted(by_layer)

    def sweep(direction: str) -> None:
        keys = layer_keys if direction == "down" else list(reversed(layer_keys))
        neighbor = preds if direction == "down" else succs
        for key in keys:
            positions = {n: i for layer in by_layer.values() for i, n in enumerate(layer)}
            def bary(node: str) -> Fraction:
                anchors = [positions[p] for p in neighbor[node] if p in positions]
                if not anchors:
                    return Fraction(positions[node])
                return Fraction(sum(anchors), len(anchors))
            by_layer[key].sort(key=lambda n: (band_of[n], bary(n), decl_index[n]))

    for direction in ("down", "up", "down", "up"):
        sweep(direction)
    return by_layer


def _reference_layout_area(nodes: list[Node], edges: list[Edge],
                           oriented_all: list[tuple[str, str, str]], ox: int, oy: int
                           ) -> tuple[dict[str, Box], Layering, int, int]:
    ids = [n.id for n in nodes]
    id_set = set(ids)
    oriented = [(e, u, v) for e, u, v in oriented_all if u in id_set and v in id_set]
    layers = assign_layers(ids, oriented)
    band_of = _weak_components(
        ids, [e for e in edges if e.source.node in id_set and e.target.node in id_set])
    by_layer = reference_order_within_layers(ids, layers, oriented, band_of)

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

    bands = sorted(set(band_of.values()))
    band_y: dict[int, int] = {}
    y_cursor = 0
    for band in bands:
        band_height = 0
        for layer, layer_nodes in by_layer.items():
            stacked = [n for n in layer_nodes if band_of[n] == band]
            if not stacked:
                continue
            h = sum(sizes[n][1] for n in stacked) + V_GAP * (len(stacked) - 1)
            band_height = max(band_height, h)
        band_y[band] = y_cursor
        y_cursor += band_height + BAND_GAP
    total_h = max(y_cursor - BAND_GAP, 0)

    boxes: dict[str, Box] = {}
    for layer, layer_nodes in by_layer.items():
        cursors = dict(band_y)
        for node_id in layer_nodes:
            w, h = sizes[node_id]
            band = band_of[node_id]
            x = _quant(col_x[layer] + (col_w[layer] - w) // 2)
            y = _quant(cursors[band])
            boxes[node_id] = Box(x + ox, y + oy, w, h)
            cursors[band] = y + h + V_GAP
    return boxes, Layering(layers, band_of), _quant(total_w), _quant(total_h)


def reference_areas(diagram: Diagram) -> list[tuple[list[Node], list[Edge]]]:
    """The nodes and edges of the main area, then of one area per group, as
    the earlier layout chose them.

    An area holds the edges with both ends in it: for the main area, both
    ends outside every group; for a group, both ends among its members.
    """
    member_ids = {m for group in diagram.groups for m in group.member_nodes}
    top_nodes = [n for n in diagram.nodes if n.id not in member_ids]
    top_edges = [e for e in diagram.edges
                 if e.source.node not in member_ids and e.target.node not in member_ids]

    areas = [(top_nodes, top_edges)]
    for group in diagram.groups:
        members = [n for n in diagram.nodes if n.id in group.member_nodes]
        medges = [e for e in diagram.edges
                  if e.source.node in group.member_nodes and e.target.node in group.member_nodes]
        areas.append((members, medges))
    return areas


def reference_layout(diagram: Diagram) -> LayoutResult:
    """``layout`` of the reference orientation, with its areas taken from the
    references and each placed at the origin ``layout`` gives it.

    Only the assembly of areas into boxes, bands, tables, title and routes,
    which the references leave alone, runs the library's code.
    """
    oriented, reversed_ids = reference_break_cycles(diagram)
    areas = iter(reference_areas(diagram))

    # the library's area, its orientation and any layers it reuses are ignored:
    # the reference layers every area itself
    def area_at(_nodes, _edges, _oriented, _layers, ox: int, oy: int
                ) -> tuple[dict[str, Box], Layering, int, int]:
        return _reference_layout_area(*next(areas), oriented, ox, oy)

    with mock.patch.object(dial.layout, "_layout_area", area_at):
        return dial.layout.layout(diagram, oriented, reversed_ids)


# ---------------------------------------------------------------------------
# Random valid sources for the formatter round-trip
# ---------------------------------------------------------------------------

_CODES = ("POS", "NER", "SRL", "WSD", "oplus", "concat", "rank", "sim", "func",
          "verify", "classifier", "join", "proj", "encoder", "decoder")
_TERMS = ("S", "T", "S^NER", "S^{POS,Token}", "Term_1", "{Term}", "vec[16]",
          "(S, T)", "P_c[0,1]", "Pred(Arg)^F", "KB")


def random_valid_source(rng: random.Random) -> str:
    lines = ["dial 0.1"]
    dialects = "sys" if rng.random() < 0.5 else "sys, nn"
    lines.append(f"dialect {dialects}")
    lines.append(f'diagram "gen {rng.randint(0, 999)}" {{')
    ids: list[str] = []
    for i in range(rng.randint(1, 8)):
        kind = rng.random()
        ident = f"d{i}"
        if kind < 0.4:
            term = rng.choice(_TERMS)
            tag = rng.choice(("", " @gold", " @kb", ' @dataset("corpus")'))
            lines.append(f"  data {ident}: {term}{tag}")
        else:
            code = rng.choice(_CODES)
            params = ""
            if rng.random() < 0.4:
                params = f"(n={rng.randint(1, 5)}, label=\"x {i}\")"
            perf = ""
            if rng.random() < 0.3:
                perf = f' perf(acc=0.{rng.randint(10, 99)}@"test set")'
            lines.append(f"  node {ident}: {code}{params}{perf}")
        ids.append(ident)
    arrows = ("->", "<->", "|->", "?>", "-o", "~>")
    for i in range(rng.randint(0, 10)):
        a, b = rng.choice(ids), rng.choice(ids)
        arrow = rng.choice(arrows)
        as_term = f" as {rng.choice(_TERMS)}" if rng.random() < 0.3 else ""
        lines.append(f"  edge {a} {arrow} {b}{as_term}")
    if rng.random() < 0.3:
        lines.append(f"  embedding w{rng.randint(0, 9)} (dim={rng.randint(1, 512)})")
    if rng.random() < 0.3:
        lines.append('  table t0 { "k a": "v 1"; "k b": "v 2"; }')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference front end, verbatim: the character-loop tokenizer that built a
# Token and a Span per token (its eof now after a closing comment too, and
# each token now carrying the source offset its own loop counted), the parser
# over that token list, its earlier term reader and lowering's earlier id
# lookups; the AST records and lowered units hold those offsets
# ---------------------------------------------------------------------------


class Token(Record):
    kind: str  # keyword | ident | string | number | punct | arrow | eof
    text: str
    span: Span
    at: int  # source offset of its first character


def token_list(tokens: Tokens) -> list[Token]:
    """The library's parallel token lists as one :class:`Token` per token."""
    return [Token(kind, text, tokens.span(i), tokens.starts[i])
            for i, (kind, text) in enumerate(zip(tokens.kinds, tokens.texts))]


_ARROW_RE = re.compile(r"->|<->|\|->|\?>|-o|~>")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?")
_PUNCT = set(":{}()[],=@^.;")


def reference_tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def emit(kind: str, text: str) -> None:
        tokens.append(Token(kind, text, Span(line, col, len(text)), i))

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
            continue
        m = _ARROW_RE.match(source, i)
        if m:
            emit("arrow", m.group())
            col += len(m.group())
            i = m.end()
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            terminated = False
            while j < n:
                if source[j] == "\\" and j + 1 < n:
                    buf.append(source[j + 1])
                    j += 2
                    continue
                if source[j] == '"':
                    terminated = True
                    break
                if source[j] == "\n":
                    break
                buf.append(source[j])
                j += 1
            if not terminated:
                diagnostics.append(Diagnostic(
                    "E001", "unterminated string literal", span=Span(line, col)))
                # resume after the broken literal
                width = j - i
                col += width
                i = j
                continue
            emit("string", "".join(buf))
            col += j + 1 - i
            i = j + 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            emit("number", m.group())
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            word = m.group()
            emit("keyword" if word in KEYWORDS else "ident", word)
            col += len(word)
            i = m.end()
            continue
        if ch in _PUNCT:
            emit("punct", ch)
            i += 1
            col += 1
            continue
        diagnostics.append(Diagnostic(
            "E001", f"illegal character {ch!r}", span=Span(line, col)))
        i += 1
        col += 1
    tokens.append(Token("eof", "", Span(line, col, 0), i))
    return tokens, diagnostics


class TokenListParser:
    """The parser before the flat token stream, reading a list of
    :class:`Token` values; verbatim apart from its name, its term reader,
    which :class:`ReferenceParser` supplies, the quotes its ``expect``
    and ``_item`` messages put around a string token, the token offsets
    and ``source`` it records in the AST, and the recovery the parser gained
    since: a faulty block entry resumes at its ``;`` or the block's ``}``,
    and a block whose header failed before its ``{`` is stepped over whole;
    a perf entry whose ``acc`` lies outside [0,1] is reported and left out
    of the node. An item starts at, and recovery stops at, a token of kind
    ``keyword`` only: a quoted ``"node"`` is a string. Nor does a string
    match a text in ``at`` and ``expect``: a quoted ``":"`` is no colon."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.depth = 0  # detail blocks open around the current item

    # -- cursor helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str | None = None, kind: str | None = None) -> bool:
        """The current token is ``text``, which a string never is, and of ``kind``."""
        tok = self.peek()
        return ((text is None or tok.text == text and tok.kind != "string")
                and (kind is None or tok.kind == kind))

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str | None = None, kind: str | None = None, what: str = "") -> Token:
        if self.at(text, kind):
            return self.advance()
        expected = what or (repr(text) if text else kind or "token")
        tok = self.peek()
        found = _shown(tok) or "end of input"
        self.error(f"expected {expected}, found {found!r}", tok.span)
        raise _ParseAbort()

    def error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic("E002", message, span=span))

    def skip_to_close(self) -> None:
        """Step past the bracket that closes the one just consumed."""
        depth = 1
        while depth and not self.at(kind="eof"):
            tok = self.advance()
            if tok.kind == "punct":
                depth += (tok.text in "({[") - (tok.text in ")}]")

    def _block_body(self, what: str, entry) -> list:
        entries, failed = [], False
        while not self.at("}", kind="punct"):
            if self.at(kind="eof"):
                self.error(f"unexpected end of input inside {what}", self.peek().span)
                raise _ParseAbort()
            try:
                entries.append(entry())
                self.expect(";", kind="punct", what="';'")
            except _ParseAbort:
                failed = True
                while not (self.at(";", "punct") or self.at("}", "punct") or self.at(kind="eof")):
                    self.advance()
                if self.at(kind="eof"):
                    raise
                if self.at(";", "punct"):
                    self.advance()
        self.advance()
        if failed:
            raise _ParseAbort()
        return entries

    def recover_to_item(self, block: bool = False) -> None:
        while not self.at(kind="eof"):
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in ITEM_KEYWORDS \
                    or tok.kind == "punct" and tok.text == "}":
                return
            if block and tok.kind == "punct" and tok.text == "{":
                self.advance()
                self.skip_to_close()
                return self.recover_to_item()
            self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_unit(self) -> SourceAst | None:
        try:
            start = self.peek()
            self.expect("dial", what="'dial' header")
            version = self.expect(kind="number", what="language version").text
            if version != DSL_VERSION:
                self.error(f"unsupported language version {version!r} "
                           f"(this toolchain speaks {DSL_VERSION})", start.span)
            self.expect("dialect", what="'dialect'")
            dialects = [self.expect(kind="ident", what="dialect name").text]
            while self.at(","):
                self.advance()
                dialects.append(self.expect(kind="ident", what="dialect name").text)
            self.expect("diagram", what="'diagram'")
            name = self.expect(kind="string", what="diagram name").text
            title_placement = None
            if self.at("at"):
                self.advance()
                title_placement = self._region()
            self.expect("{", what="'{'")
            items = self._items_until_close()
            return SourceAst(version, tuple(dialects), name, title_placement,
                             tuple(items), start.at, self.source)
        except _ParseAbort:
            return None

    def _items_until_close(self) -> list:
        items: list = []
        while True:
            if self.at("}"):
                self.advance()
                return items
            if self.at(kind="eof"):
                self.error("unexpected end of input, expected '}'", self.peek().span)
                return items
            first = self.pos
            try:
                items.append(self._item())
            except _ParseAbort:
                # a block whose header failed is stepped over whole
                self.recover_to_item(
                    self.tokens[first].kind == "keyword"
                    and self.tokens[first].text in ("detail", "table", "extend")
                    and not any(tok.kind == "punct" and tok.text == "{"
                                for tok in self.tokens[first:self.pos]))
                if self.at("}"):
                    self.advance()
                    return items

    def _item(self):
        tok = self.peek()
        handler = {
            "node": self._node, "data": self._data, "edge": self._edge,
            "detail": self._detail, "table": self._table,
            "embedding": self._embedding, "extend": self._extend,
        }.get(tok.text) if tok.kind == "keyword" else None
        if handler is None:
            self.error(
                "expected a declaration (node, data, edge, detail, table, "
                f"embedding or extend), found {_shown(tok) or 'end of input'!r}",
                tok.span)
            raise _ParseAbort()
        return handler()

    def _node(self) -> NodeDecl:
        keyword = self.advance()
        ident = self.expect(kind="ident", what="node identifier").text
        self.expect(":", what="':'")
        code = self.expect(kind="ident", what="symbol or task code").text
        params = self._params() if self.at("(") else ()
        perf = self._perf() if self.at("perf") else ()
        return NodeDecl(ident, code, params, perf, keyword.at)

    def _params(self) -> tuple[tuple[str, object], ...]:
        self.expect("(")
        out: list[tuple[str, object]] = []
        while True:
            key_tok = self.peek()
            if key_tok.kind not in ("ident", "keyword"):
                found = _shown(key_tok) or "end of input"
                self.error(f"expected a parameter name, found {found!r}", key_tok.span)
                raise _ParseAbort()
            key = self.advance().text
            self.expect("=", what="'='")
            tok = self.peek()
            if tok.kind == "number":
                self.advance()
                value: object = _number(tok.text)
            elif tok.kind in ("string", "ident", "keyword"):
                self.advance()
                value = tok.text
            else:
                self.error(f"expected a parameter value, found {tok.text or 'end of input'!r}",
                           tok.span)
                raise _ParseAbort()
            out.append((key, value))
            if self.at(","):
                self.advance()
                continue
            self.expect(")", what="')' or ','")
            return tuple(out)

    def _perf(self) -> tuple[PerfAnnotation, ...]:
        self.advance()  # perf
        self.expect("(")
        out: list[PerfAnnotation] = []
        while True:
            mtok = self.expect(kind="ident", what="metric name")
            self.expect("=", what="'='")
            vtok = self.expect(kind="number", what="metric value")
            value = float(vtok.text)
            out_of_range = mtok.text == "acc" and not 0.0 <= value <= 1.0
            if out_of_range:
                self.error("acc must lie in [0,1]", vtok.span)
            self.expect("@", what="'@'")
            corpus = self.expect(kind="string", what="corpus name").text
            if not out_of_range:
                out.append(PerfAnnotation(mtok.text, value, corpus))
            if self.at(","):
                self.advance()
                continue
            self.expect(")", what="')' or ','")
            return tuple(out)

    def _data(self) -> DataDecl:
        keyword = self.advance()
        ident = self.expect(kind="ident", what="data identifier").text
        self.expect(":", what="':'")
        literal = self._dataterm_literal()
        tag = tag_label = None
        if self.at("@"):
            self.advance()
            tag_tok = self.expect(kind="ident", what="resource tag")
            if tag_tok.text not in ("dataset", "gold", "kb", "kbfn"):
                self.error(f"unknown resource tag @{tag_tok.text}", tag_tok.span)
                raise _ParseAbort()
            tag = tag_tok.text
            if tag == "dataset":
                self.expect("(", what="'('")
                tag_label = self.expect(kind="string", what="dataset label").text
                self.expect(")", what="')'")
        return DataDecl(ident, literal, tag, tag_label, keyword.at)

    def _portref(self) -> PortRef:
        tok = self.expect(kind="ident", what="node reference")
        slot = None
        if self.at("."):
            self.advance()
            slot = self.expect(kind="ident", what="port name").text
        return PortRef(tok.text, slot, tok.at)

    def _edge(self) -> EdgeDecl:
        keyword = self.advance()
        source = self._portref()
        arrow = self.expect(kind="arrow", what="an arrow (->, <->, |->, ?>, -o, ~>)").text
        target = self._portref()
        as_literal = None
        if self.at("as"):
            self.advance()
            as_literal = self._dataterm_literal()
        return EdgeDecl(source, arrow, target, as_literal, keyword.at)

    def _detail(self) -> DetailDecl:
        keyword = self.advance()
        ident = self.expect(kind="ident", what="detail group identifier").text
        self.expect("for", what="'for'")
        owner = self.expect(kind="ident", what="owner node identifier").text
        entry_side, exit_side = "left", "right"
        if self.at("entry"):
            self.advance()
            entry_side = self._side()
        if self.at("exit"):
            self.advance()
            exit_side = self._side()
        self.expect("{", what="'{'")
        if self.depth == MAX_NESTING:
            self.error(f"detail blocks nested deeper than {MAX_NESTING} levels", keyword.span)
            self.skip_to_close()
            raise _ParseAbort()
        self.depth += 1
        items = self._items_until_close()
        self.depth -= 1
        return DetailDecl(ident, owner, entry_side, exit_side, tuple(items), keyword.at)

    def _side(self) -> str:
        tok = self.expect(kind="ident", what="a side (left, right, top, bottom)")
        if tok.text not in SIDES:
            self.error(f"unknown side {tok.text!r}", tok.span)
            raise _ParseAbort()
        return tok.text

    def _region(self) -> str:
        tok = self.expect(kind="ident", what="a region (top_left, top_right, "
                                             "bottom_left, bottom_right)")
        if tok.text not in REGIONS:
            self.error(f"unknown region {tok.text!r}", tok.span)
            raise _ParseAbort()
        return tok.text

    def _table(self) -> TableDecl:
        keyword = self.advance()
        ident = self.expect(kind="ident", what="table identifier").text
        placement = None
        if self.at("at"):
            self.advance()
            placement = self._region()
        self.expect("{", what="'{'")
        rows = self._block_body("table", self._row)
        if not rows:
            self.error("a table needs at least one row", self.tokens[self.pos - 1].span)
        return TableDecl(ident, placement, tuple(rows), keyword.at)

    def _row(self) -> tuple[str, str]:
        key = self.expect(kind="string", what="row key string").text
        self.expect(":", what="':'")
        return key, self.expect(kind="string", what="row value string").text

    def _embedding(self) -> EmbedDecl:
        keyword = self.advance()
        ident = self.expect(kind="ident", what="embedding identifier").text
        self.expect("(", what="'('")
        key = self.expect(kind="ident", what="'dim'")
        if key.text != "dim":
            self.error("embedding takes a single dim parameter", key.span)
            raise _ParseAbort()
        self.expect("=", what="'='")
        dim_tok = self.expect(kind="number", what="dimension")
        if "." in dim_tok.text or int(dim_tok.text) < 1:
            self.error("embedding dim must be a positive integer", dim_tok.span)
            raise _ParseAbort()
        self.expect(")", what="')'")
        label = None
        if self.at(kind="string"):
            label = self.advance().text
        return EmbedDecl(ident, int(dim_tok.text), label, keyword.at)

    def _extend(self) -> ExtendDecl:
        keyword = self.advance()
        what_tok = self.expect(kind="ident", what="'symbol' or 'task'")
        if what_tok.text not in ("symbol", "task"):
            self.error("extend introduces either a symbol or a task", what_tok.span)
            raise _ParseAbort()
        name = self.expect(kind="ident", what="extension code").text
        self.expect("{", what="'{'")
        return ExtendDecl(what_tok.text, name, tuple(self._block_body("extend", self._field)),
                          keyword.at)

    def _field(self) -> tuple[str, object]:
        key = self.expect(kind="ident", what="field name").text
        self.expect(":", what="':'")
        if key in ("domain", "range"):
            literals = [self._dataterm_literal()]
            while self.at(","):
                self.advance()
                literals.append(self._dataterm_literal())
            return key, tuple(literals)
        if key == "arity":
            return key, self._arity()
        tok = self.peek()
        if tok.kind not in ("ident", "string", "number"):
            self.error(f"expected a field value, found {tok.text or 'end of input'!r}", tok.span)
            raise _ParseAbort()
        self.advance()
        return key, tok.text

    def _arity(self) -> tuple[int, int, int, int]:
        lo_in = int(self.expect(kind="number", what="minimum input arity").text)
        self.expect(".", what="'..'")
        self.expect(".", what="'..'")
        hi_in = int(self.expect(kind="number", what="maximum input arity").text)
        self.expect(kind="arrow", what="'->'")
        lo_out = int(self.expect(kind="number", what="minimum output arity").text)
        self.expect(".", what="'..'")
        self.expect(".", what="'..'")
        hi_out = int(self.expect(kind="number", what="maximum output arity").text)
        return (lo_in, hi_in, lo_out, hi_out)


def _shown(token: Token) -> str:
    """A token as a message shows it: a string with its quotes."""
    return f'"{token.text}"' if token.kind == "string" else token.text


def _term_kind(token: Token) -> str:
    if token.kind == "number":
        return "num"
    if token.kind in ("ident", "keyword"):
        return "ident"
    return "punct"


def _term_text(token: Token) -> str:
    return token.text


def _node_index(diagram: Diagram, node_id: str) -> int:
    """The former ``Diagram.node_index`` method."""
    for i, node in enumerate(diagram.nodes):
        if node.id == node_id:
            return i
    return -1


class ReferenceParser(TokenListParser):
    """The parser with its earlier term reader, which copied every token left
    in the file into a fresh triple list at each data term; a string keeps
    its quotes there, as messages show it."""

    def _dataterm_literal(self) -> str:
        """Consume the tokens of one data term; names are checked at lowering."""
        start = self.pos
        triples = [(_term_kind(t), _shown(t), idx)
                   for idx, t in enumerate(self.tokens[start:], start)]
        term_parser = ReferenceTermParser(triples, labels=None)
        try:
            term_parser.parse()
        except TermError as exc:
            span = self.tokens[min(exc.pos, len(self.tokens) - 1)].span \
                if isinstance(exc.pos, int) and exc.pos < len(self.tokens) else self.peek().span
            if isinstance(exc, TermNestingError):
                # skip the whole term, so recovery resumes after it
                self.diagnostics.append(Diagnostic("E004", str(exc), span=span))
                self.pos = start + 1
                self.skip_to_close()
            else:
                self.error(f"malformed data term: {exc}", span)
            raise _ParseAbort()
        end = start + term_parser.index
        self.pos = end
        return "".join(_term_text(t) for t in self.tokens[start:end])


class ReferenceLowerer(_Lowerer):
    """Lowering with its earlier lookups: a scan of ``diagram.nodes`` per node,
    owner and edge endpoint, a scan of ``diagram.groups`` per member, and a
    member tuple regrown for every member, one slot resolver for named
    and unnamed ports alike, and a registry lookup and a constructor call
    for every node. Only ``node_index``, no longer a ``Diagram`` method, is
    called as a function."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.group_ids: set[str] = set()

    def _add_node(self, node: Node, at: int, group: str | None) -> bool:
        if self.diagram.node_by_id(node.id) is not None:
            self.err("E003", f"duplicate declaration id {node.id!r}", at)
            return False
        self.diagram.nodes.append(node)
        self.spans["node"][node.id] = at
        if group is not None:
            idx = next(i for i, g in enumerate(self.diagram.groups) if g.id == group)
            g = self.diagram.groups[idx]
            self.diagram.groups[idx] = replace(g, member_nodes=g.member_nodes + (node.id,))
        return True

    def _node(self, decl: NodeDecl, group: str | None) -> None:
        params: tuple | list = ()
        label = shape = None
        if decl.params:
            params = []
            for key, value in decl.params:
                if key == "label":
                    label = str(value)
                elif key == "shape":
                    if value not in ("feature", "component"):
                        self.err("E003", f"shape must be feature or component, got {value!r}",
                                 decl.at)
                    else:
                        shape = str(value)
                else:
                    if key == "out":
                        self._check_term(str(value), decl.at)
                    params.append((key, value))
        found = self.registry.resolve(decl.code, self.diagram.dialects)
        kind = node_kind(found) if found else "operator"
        node = Node(decl.id, kind, decl.code, label, tuple(params),
                    shape or default_shape_class(kind), decl.perf)
        self._add_node(node, decl.at, group)

    def _data(self, decl: DataDecl, group: str | None) -> None:
        self._check_term(decl.term_literal, decl.at)
        code = decl.tag or "interface"
        kind = "resource" if decl.tag else "io"
        node = Node(
            id=decl.id, kind=kind, code=code, label=decl.tag_label,
            params=(("out", decl.term_literal),),
            shape_class="component",
        )
        self._add_node(node, decl.at, group)

    def _detail(self, decl: DetailDecl, parent_group: str | None) -> None:
        if decl.id in self.group_ids:
            self.err("E003", f"duplicate declaration id {decl.id!r}", decl.at)
            return
        self.group_ids.add(decl.id)
        group = DetailGroup(decl.id, decl.owner, entry_side=decl.entry_side,
                            exit_side=decl.exit_side)
        self.diagram.groups.append(group)
        self.spans["group"][decl.id] = decl.at
        self.lower_items(decl.items, group=decl.id)
        if _node_index(self.diagram, decl.owner) < 0:
            self.err("E011", f"detail group {decl.id!r} refines unknown node "
                             f"{decl.owner!r}", decl.at)

    def lower_edges(self) -> None:
        for decl, group in self.pending_edges:
            self._edge(decl, group)

    def _resolve_slot(self, ref: PortRef, direction: str, flow_kind: str) -> int | None:
        if ref.slot is None:
            if direction == "out":
                return 0
            if flow_kind == "recurrent":
                return 0
            slot = self.next_in_slot.get(ref.node, 0)
            self.next_in_slot[ref.node] = slot + 1
            return slot
        if ref.slot == "true":
            return 0 if direction == "out" else None
        if ref.slot == "false":
            return 1 if direction == "out" else None
        m = _SLOT_RE.match(ref.slot)
        if m is None or m.group(1) != direction:
            return None
        slot = int(m.group(2))
        if direction == "in" and flow_kind != "recurrent":
            self.next_in_slot[ref.node] = max(self.next_in_slot.get(ref.node, 0), slot + 1)
        return slot

    def _edge(self, decl: EdgeDecl, group: str | None) -> None:
        kind = ARROWS[decl.arrow]
        ok = True
        for ref in (decl.source, decl.target):
            if self.diagram.node_by_id(ref.node) is None:
                self.err("E011", f"edge references unknown node {ref.node!r}", ref.at)
                ok = False
        if not ok:
            return
        src_slot = self._resolve_slot(decl.source, "out", kind)
        tgt_slot = self._resolve_slot(decl.target, "in", kind)
        if src_slot is None or tgt_slot is None:
            bad = decl.source if src_slot is None else decl.target
            self.err("E011", f"bad port name {bad.slot!r} on {bad.node!r}", bad.at)
            return
        if decl.as_literal is not None:
            self._check_term(decl.as_literal, decl.at)
        edge_id = f"e{len(self.diagram.edges)}"
        self.diagram.edges.append(Edge(
            edge_id,
            Port(decl.source.node, src_slot, "out"),
            Port(decl.target.node, tgt_slot, "in"),
            kind, decl.as_literal,
        ))
        self.spans["edge"][edge_id] = decl.at
        if group is not None:
            idx = next(i for i, g in enumerate(self.diagram.groups) if g.id == group)
            g = self.diagram.groups[idx]
            self.diagram.groups[idx] = replace(g, member_edges=g.member_edges + (edge_id,))


def reference_parse(tokens: list[Token],
                    source: str) -> tuple[SourceAst | None, list[Diagnostic]]:
    """The earlier ``parse`` run with :class:`ReferenceParser`, over the
    tokens :func:`reference_tokenize` made of ``source``."""
    parser = ReferenceParser(tokens, source)
    ast = parser.parse_unit()
    if ast is not None and not parser.at(kind="eof"):
        parser.error(f"trailing input after the diagram: {parser.peek().text!r}",
                     parser.peek().span)
    return ast, parser.diagnostics


def reference_lower(ast: SourceAst) -> LoweredUnit:
    """``lower`` run with :class:`ReferenceLowerer`."""
    with mock.patch.object(dial.parser, "_Lowerer", ReferenceLowerer):
        return dial.parser.lower(ast)


# ---------------------------------------------------------------------------
# Random front-end sources: valid, faulty, and mutated
# ---------------------------------------------------------------------------

_DEEP = 101  # one past terms.MAX_NESTING
_BAD_TERMS = (
    "S^", "(S,", "{S", "S^{NER,}", "vec[0]", "P_c[1,0]", "Bogus^NER", "S^Nope",
    "Pred(", "vec[3", "{" * 100 + "S" + "}" * 100, "{" * _DEEP + "S" + "}" * _DEEP,
    "(" * _DEEP + "S, T" + ")" * _DEEP)
_NODE_IDS = tuple(f"n{i}" for i in range(8))
_GHOSTS = ("ghost", "n9")
# Node suffixes, detail sides and placements, a few of them faulty: a wrong or
# missing word, an entry without its name or value, a missing separator, an
# acc outside [0,1].
_PARAMS = ("", "(n=2)", '(label="x")', "(out=S^NER)", "(out=Bogus)") * 8 + (
    "(n=)", "(=2)", "(n=2,)", "(n=2 k=3)", '(n=2, "k"=1)')
_PERF = ("",) * 40 + (' perf(acc=0.9@"c")', ' perf(acc=0.5@"c", f1=0.5@"d")', ' perf(acc=@"c")',
                     ' perf(acc=0.9@"c" f1=1@"d")', ' perf(f1=0.5 "c")', ' perf(acc=2@"c")',
                     ' perf(f1=0.5@"d", acc=1.5@"c")')
_SIDES = ("",) * 40 + (" entry top", " exit bottom", " entry left exit top",
                       " entry middle", " exit up", " entry", " exit 3")
_PLACEMENTS = ("",) * 3 + (" at top_left", " at bottom_right", " at middle", " at")
# The punctuation and keywords a generated line holds outside its strings,
# whose only characters are letters.
MARK_RE = re.compile(r"[:;,.=@(){}\[\]^]|\b(?:as|perf|for|at|entry|exit|dim)\b")


def random_front_end_source(rng: random.Random, quoter: random.Random) -> str:
    """A source whose ids come from small pools, so that duplicate nodes and
    groups, unknown owners and edges to unknown nodes are common. Detail
    blocks nest up to three deep and hold edges. Terms are sometimes
    malformed or nested past the limit; a node's parameters or perf entries,
    a detail block's sides and a placement are sometimes wrong or missing,
    and a perf ``acc`` sometimes lies outside [0,1];
    and a declaration sometimes starts with its keyword quoted, which is a
    string and no keyword. Drawn from ``quoter``, apart from ``rng``, an item
    line sometimes has one punctuation mark or keyword quoted where the
    grammar expects it, inside a term too."""
    title = rng.choice(("",) * 80 + _PLACEMENTS[3:])
    lines = ["dial 0.1", "dialect sys", f'diagram "front"{title} {{']
    declared: list[str] = []

    def term() -> str:
        return rng.choice(_BAD_TERMS if rng.random() < 0.2 else _TERMS)

    def node_id() -> str:
        declared.append(rng.choice(_NODE_IDS) if rng.random() < 0.5 else f"u{len(declared)}")
        return declared[-1]

    def ref() -> str:
        r = rng.random()
        node = rng.choice(declared[-4:]) if declared and r < 0.8 else \
            rng.choice(_NODE_IDS) if r < 0.95 else rng.choice(_GHOSTS)
        return node + rng.choice(("",) * 12 + (".in1", ".out0", ".out1", ".bad"))

    def items(depth: int) -> None:
        pad = "  " * (depth + 1)
        for _ in range(rng.randint(1, 7)):
            r = rng.random()
            if r < 0.25:
                tag = rng.choice(("",) * 4 + (" @gold", " @kb", ' @dataset("c")'))
                lines.append(f"{pad}data {node_id()}: {term()}{tag}")
            elif r < 0.5:
                suffix = rng.choice(_PARAMS) + rng.choice(_PERF)
                lines.append(f"{pad}node {node_id()}: {rng.choice(_CODES)}{suffix}")
            elif r < 0.8:
                as_term = f" as {term()}" if rng.random() < 0.4 else ""
                lines.append(f"{pad}edge {ref()} {rng.choice(tuple(ARROWS))} {ref()}{as_term}")
            elif r < 0.92 and depth < 3:
                owner = rng.choice(_NODE_IDS + _GHOSTS)
                sides = rng.choice(_SIDES)
                lines.append(f"{pad}detail g{rng.randrange(4)} for {owner}{sides} {{")
                items(depth + 1)
                lines.append(pad + "}")
            elif r < 0.96:
                lines.append(f"{pad}embedding w{rng.randrange(2)} (dim=8)")
            elif r < 0.98:
                placement = rng.choice(_PLACEMENTS)
                lines.append(f'{pad}table t{rng.randrange(2)}{placement} {{ "k": "v"; }}')
            else:
                keyword = rng.choice(sorted(ITEM_KEYWORDS))
                lines.append(f'{pad}"{keyword}" {node_id()}: {rng.choice(_CODES)} {{ edge {ref()} -> {ref()} }}')

    items(0)
    lines.append("}")
    for i, line in enumerate(lines[3:-1], 3):  # the items, not the header
        if quoter.random() < 0.03:
            marks = list(MARK_RE.finditer(line))
            if marks:
                mark = quoter.choice(marks)
                lines[i] = f'{line[:mark.start()]}"{mark[0]}"{line[mark.end():]}'
    return "\n".join(lines) + "\n"


_WORD_RE = re.compile(r"\s+|[^\s]+")
_MUTANT_CHARS = '{}()[],^:;@.-~>"_0aZ \n'


def mutate_source(rng: random.Random, source: str) -> str:
    """One byte or token edit: a cut (often just inside a data term), a
    deleted, inserted or replaced character, or a dropped, doubled or swapped
    word."""
    op = rng.randrange(7)
    k = rng.randrange(len(source) + 1)
    if op == 0:
        starts = [m.end() for m in re.finditer(r"(?:: | as )", source)]
        if starts and rng.random() < 0.7:
            k = rng.choice(starts) + rng.randint(0, 5)
        return source[:k]
    if op == 1:
        return source[:k] + source[k + 1:]
    if op == 2:
        return source[:k] + rng.choice(_MUTANT_CHARS) + source[k:]
    if op == 3:
        return source[:k] + rng.choice(_MUTANT_CHARS) + source[k + 1:]
    words = _WORD_RE.findall(source)
    if not words:  # an earlier cut emptied the source
        return source
    i = rng.randrange(len(words))
    if op == 4:
        del words[i]
    elif op == 5:
        words.insert(i, words[i])
    elif i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    return "".join(words)
