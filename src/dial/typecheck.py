"""Semantic analysis: term matching, per-node output inference, the
dimension calculus, and whole-diagram propagation.

Only a diagram that ``validate_structure`` accepted is checked: the checker
takes each node's signature or symbol from the validation's ``Graph`` and
resolves no code itself.

Propagation is a worklist over the nodes in topological rank, so an acyclic
diagram costs one evaluation per node whatever its declaration order; a
node is evaluated again only after one of its sources changed. Sweeps are
capped at a budget; running out of it is reported as E105, since labels
only grow but the dimension calculus can grow a vector around a flow cycle
forever. Each node reports the diagnostics of its latest evaluation, in
declaration order, which keeps their order deterministic.

Each distinct evaluation, that is code, params with their types, input
terms and resource flags, is inferred once per check. That is sound
because inference reads of a node only its code, its params and, for
diagnostics alone, its id, and within a check the code fixes what it
resolves to. So an evaluation without diagnostics gives the same outputs
wherever its key recurs, and a repeated pipeline stage costs a lookup.

A task's input is matched against its signature slot's pattern, a
``DataTerm`` like the input itself (:func:`match_term`), and each output
is the range slot's pattern as stored, plus the labels it inherits.

Inference rules in brief. A symbol whose rule is data is a row of one of
three tables: ``_FIXED_OUTPUT``, ``_PASS_THROUGH`` or ``_WIDTH_LAYERS``.
The rules that compute:

  task codes     range terms from the signature; outputs inherit the labels
                 of same-category inputs and add the signature's own labels
  oplus, concat, one combining rule, folded left to right: labels unite, the
  compose,       left operand's carrier wins and its set or sequence wrapper
  otimes         stays, and dims combine by ``dim_combine`` (E103 on a
                 conflict). compose drops dims; otimes keeps no wrapper and
                 pairs two sets into a set of tuples; concat of two
                 sequences adds their length bounds (E103 at
                 ``MAX_DIGITS`` digits, as for a dimension)
  set            wraps into set-of
  rank(n)        set/sequence input becomes sequence-of, length at most n
  sim            two inputs give Score; a set of pairs gives a set of Scores
  proj           carrier becomes a vector sized by the referenced embedding
  classifier     classification outcome; softmax a distribution over [0,1]
  encoder, w2v   a vector, sized by ``units`` or ``dim``
  query edges    deliver Tuples regardless of the knowledge base's contents
"""

from __future__ import annotations

import heapq

from .diagnostics import Diagnostic
from .model import Diagram, Edge, Graph, Node
from .record import Record, replace
from .registry import Registry, Signature, Slot, SymbolDef, required_inputs
from .terms import (
    CANONICAL,
    DIST,
    MAX_DIGITS,
    SCALAR,
    SEQUENCE,
    SET,
    TUPLE,
    DataTerm,
    TermError,
    format_term,
)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def match_term(actual: DataTerm, pattern: DataTerm) -> str | None:
    """None on match, otherwise a human-readable mismatch reason.

    ``pattern`` is a signature slot's term. Bases must be equal (no subtyping)
    unless the pattern's is None, its labels must be present, structures
    must agree, and dims the pattern pins down must be identical.
    """
    if pattern.structure in (SET, SEQUENCE):
        if actual.structure != pattern.structure:
            return f"expected a {pattern.structure} term, got {format_term(actual)}"
        return match_term(actual.element, pattern.element)
    if pattern.structure == TUPLE:
        if actual.structure != TUPLE or len(actual.elements) != len(pattern.elements):
            return f"expected a {len(pattern.elements)}-tuple, got {format_term(actual)}"
        for a, f in zip(actual.elements, pattern.elements):
            reason = match_term(a, f)
            if reason:
                return reason
        return None
    if actual.structure in (SET, SEQUENCE, TUPLE):
        return f"expected a plain term, got {format_term(actual)}"
    if pattern.base is not None and actual.base != pattern.base:
        return (f"category {_cat(actual.base)} where {_cat(pattern.base)} is required")
    missing = pattern.annotations - actual.annotations
    if missing:
        return "missing classification " + ", ".join(sorted(missing))
    if pattern.dims is not None and actual.dims != pattern.dims:
        return f"dimensions {list(actual.dims or [])} do not equal {list(pattern.dims)}"
    return None


def _cat(code: str | None) -> str:
    if code is None:
        return "<any>"
    return CANONICAL.get(code, code)


# ---------------------------------------------------------------------------
# Dimension calculus
# ---------------------------------------------------------------------------


class DimConflict(ValueError):
    """Operand ranks are incompatible for the operator (E103)."""


def dim_combine(op: str, dims_a: tuple[int, ...], dims_b: tuple[int, ...]) -> tuple[int, ...]:
    """oplus/concat are additive in the trailing dimension, up to
    ``MAX_DIGITS`` digits; otimes concatenates the dimension lists."""
    if op == "otimes":
        return tuple(dims_a) + tuple(dims_b)
    if len(dims_a) != len(dims_b):
        raise DimConflict(
            f"{op} needs operands of equal rank, got {list(dims_a)} and {list(dims_b)}")
    if dims_a[:-1] != dims_b[:-1]:
        raise DimConflict(
            f"{op} needs matching leading dimensions, got {list(dims_a)} and {list(dims_b)}")
    total = dims_a[-1] + dims_b[-1]
    if total >= 10 ** MAX_DIGITS:
        raise DimConflict(f"{op} gives dimension {total}, more than {MAX_DIGITS} digits")
    return tuple(dims_a[:-1]) + (total,)


# ---------------------------------------------------------------------------
# Per-node inference
# ---------------------------------------------------------------------------


class _Ctx(Record):
    node: Node
    registry: Registry
    embeddings: dict[str, int]
    input_is_resource: list[bool]
    diagnostics: list[Diagnostic]

    def err(self, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(code, f"node {self.node.id!r}: {message}",
                                           ir_path=self.node.id, ir_kind="node"))


def infer_output(node: Node, found: Signature | SymbolDef, inputs: list[DataTerm | None],
                 registry: Registry, embeddings: dict[str, int],
                 input_is_resource: list[bool]) -> tuple[list[DataTerm | None], list[Diagnostic]]:
    """Output terms for one node, whose code resolved to ``found``, given its
    input terms, plus diagnostics.

    For a task, ``inputs`` and ``input_is_resource`` are indexed by input
    slot; unwired slots are None and not a resource. A symbol reads only
    which inputs are present and their order, so for one they may hold just
    the wired slots' terms in slot order: then a slot number, which only the
    symbol's arity bounds, costs nothing.
    """
    diagnostics: list[Diagnostic] = []
    ctx = _Ctx(node, registry, embeddings, input_is_resource, diagnostics)
    if isinstance(found, Signature):
        outs = _infer_task(ctx, found, inputs)
    else:
        outs = _infer_symbol(ctx, found, inputs)
    return outs, diagnostics


def _infer_task(ctx: _Ctx, sig: Signature, inputs: list[DataTerm | None]) -> list[DataTerm | None]:
    wired = sum(1 for t in inputs if t is not None)
    candidates = [v for v in sig.variants if required_inputs(v[0]) <= wired <= len(v[0])]
    arity_ok = bool(candidates)
    if not arity_ok:
        ctx.err("E101", f"{sig.code} takes {_arity_text(sig)} input(s), {wired} wired")
        candidates = [sig.variants[0]]
    chosen = None
    first_failure: tuple[int, Slot, str] | None = None
    for domain, rng in candidates:
        failure = _match_domain(ctx, domain, inputs)
        if failure is None:
            chosen = (domain, rng)
            break
        if first_failure is None:
            first_failure = failure
    if chosen is None:
        if arity_ok:
            index, slot, reason = first_failure
            ctx.err("E102", f"input {index} does not fit {sig.code}'s domain term "
                            f"{format_term(slot.term)}: {reason}")
        chosen = candidates[0]
    domain, rng = chosen
    inherited: dict[str | None, frozenset[str]] = {}
    for term in inputs:
        if term is None or term.structure == TUPLE:
            continue
        core = term.core()
        inherited[core.base] = inherited.get(core.base, frozenset()) | core.annotations
    return [slot.term.with_labels(inherited.get(slot.term.core().base, frozenset()))
            for slot in rng]


def _arity_text(sig: Signature) -> str:
    return str(sig.min_in) if sig.min_in == sig.max_in else f"{sig.min_in}..{sig.max_in}"


def _match_domain(ctx: _Ctx, domain: tuple[Slot, ...],
                  inputs: list[DataTerm | None]) -> tuple[int, Slot, str] | None:
    for index, slot in enumerate(domain):
        term = inputs[index] if index < len(inputs) else None
        if term is None:
            if slot.optional_term:
                continue
            return (index, slot, "nothing is wired to this input")
        if slot.is_resource and index < len(ctx.input_is_resource) \
                and not ctx.input_is_resource[index]:
            return (index, slot, "expects a stored resource")
        reason = match_term(term, slot.term)
        if reason:
            return (index, slot, reason)
    return None


# Symbols whose output is a plain term of one category, whatever their inputs.
_FIXED_OUTPUT = {
    "entail": "PredArg", "join": "Tuples", "regression": "Score", "loss": "Score",
    "decoder": "T", "dataset": "T", "gold": "T", "kb": "KB", "kbfn": "KB", "ground_truth": "P_c",
}
# Symbols that pass their first input through, by number of outputs.
_PASS_THROUGH = {"verify": 1, "activation": 1, "attention": 1, "cond": 2}
# Layers giving vectors of width parameter * factor; without the parameter
# they keep the dims of their first input.
_WIDTH_LAYERS = {"lstm": ("units", 1), "gru": ("units", 1), "recnn": ("units", 1),
                 "hidden_fwd": ("units", 1), "hidden_bwd": ("units", 1),
                 "bilstm": ("units", 2), "conv": ("filters", 1)}


def _infer_symbol(ctx: _Ctx, sym: SymbolDef, inputs: list[DataTerm | None]) -> list[DataTerm | None]:
    node = ctx.node
    wired = sum(1 for t in inputs if t is not None)
    if wired < sym.min_in or wired > sym.max_in:
        ctx.err("E101", f"{sym.code} takes {sym.min_in}..{sym.max_in} input(s), {wired} wired")
    present = [t for t in inputs if t is not None]
    first = present[0] if present else None
    declared = node.param("out")
    if declared is not None:
        try:
            return [ctx.registry.parse_term(str(declared))]
        except TermError as exc:
            ctx.err("E004", f"declared output term: {exc}")
            return [None]

    code = sym.code
    if code in _FIXED_OUTPUT:
        return [DataTerm(base=_FIXED_OUTPUT[code])]
    if code in _PASS_THROUGH:
        return [first] * _PASS_THROUGH[code]
    if code in _WIDTH_LAYERS:
        key, factor = _WIDTH_LAYERS[code]
        width = _int_param(node, key)
        dims = (factor * width,) if width else (first.core().dims if first is not None else None)
        return [DataTerm(base="clustered_word", dims=dims)]
    if code in ("oplus", "concat", "compose", "otimes"):
        return [_fold_combine(ctx, code, present)]
    if code == "set":
        gathered = _gather(present)
        return [DataTerm(structure=SET, element=gathered) if gathered is not None else None]
    if code == "rank":
        if first is None:
            return [None]
        top_n = node.param("n")
        top_n = int(top_n) if isinstance(top_n, (int, float)) else None
        element = first.element if first.structure in (SET, SEQUENCE) else first
        return [DataTerm(structure=SEQUENCE, element=element, max_len=top_n)]
    if code == "sim":
        if len(present) == 1 and first.structure == SET and first.element is not None \
                and first.element.structure == TUPLE:
            return [DataTerm(structure=SET, element=DataTerm(base="Score"))]
        return [DataTerm(base="Score")]
    if code == "proj":
        return [_project(ctx, first) if first is not None else None]
    if code in ("classifier", "classification", "svm"):
        sub = node.param("class")
        return [DataTerm(base="P_c", subscript=str(sub) if sub is not None else None)]
    if code == "softmax":
        sub = node.param("class")
        return [DataTerm(base="P_c", subscript=str(sub) if sub is not None else None,
                         structure=DIST, dist_range=(0.0, 1.0),
                         dims=first.core().dims if first is not None else None)]
    if code == "encoder":
        units = _int_param(node, "units")
        return [DataTerm(base="clustered_word", dims=(units,) if units else None,
                         annotations=frozenset().union(*(t.all_labels() for t in present)))]
    if code == "w2v":
        dim = _int_param(node, "dim")
        return [DataTerm(base="clustered_word", dims=(dim,) if dim else None)]
    # func, func_contract, interface and undeclared extensions act as generic functions.
    return [_gather(present)]


def _gather(present: list[DataTerm]) -> DataTerm | None:
    """The one present input, a tuple of several, or None for none."""
    if len(present) > 1:
        return DataTerm(structure=TUPLE, elements=tuple(present))
    return present[0] if present else None


def _int_param(node: Node, key: str) -> int | None:
    value = node.param(key)
    if isinstance(value, (int, float)) and int(value) > 0:
        return int(value)
    return None


def _fold_combine(ctx: _Ctx, op: str, present: list[DataTerm]) -> DataTerm | None:
    if not present:
        return None
    out = present[0]
    for term in present[1:]:
        out = _combine_two(ctx, op, out, term)
    return out


def _combine_two(ctx: _Ctx, op: str, a: DataTerm, b: DataTerm) -> DataTerm:
    # otimes pairs two sets; concat of two sequences adds their length bounds.
    if op == "otimes" and a.structure == SET and b.structure == SET:
        return DataTerm(structure=SET, element=DataTerm(structure=TUPLE,
                                                        elements=(a.element, b.element)))
    if op == "concat" and a.structure == SEQUENCE and b.structure == SEQUENCE:
        bound = None
        if a.max_len is not None and b.max_len is not None:
            bound = a.max_len + b.max_len
            if bound >= 10 ** MAX_DIGITS:
                ctx.err("E103", f"{op} gives length bound {bound}, more than {MAX_DIGITS} digits")
                bound = None
        element = a.element.with_labels(b.element.all_labels()) if a.element else a.element
        return DataTerm(structure=SEQUENCE, element=element, max_len=bound)
    core_a, core_b = a.core(), b.core()
    dims = None
    if op != "compose" and core_a.dims is not None and core_b.dims is not None:
        try:
            dims = dim_combine(op, core_a.dims, core_b.dims)
        except DimConflict as exc:
            ctx.err("E103", str(exc))
    # The left operand's carrier wins; annotations accumulate from both.
    merged = replace(core_a, annotations=core_a.annotations | core_b.annotations, dims=dims)
    if op != "otimes" and a.structure in (SET, SEQUENCE):
        return replace(a, element=merged)
    return merged


def _project(ctx: _Ctx, term: DataTerm) -> DataTerm:
    emb = ctx.node.param("embedding")
    dim = ctx.embeddings.get(str(emb)) if emb is not None else _int_param(ctx.node, "dim")
    dims = (dim,) if dim else None
    core = term.core()
    projected = DataTerm(base="clustered_word", annotations=core.annotations, dims=dims)
    if term.structure in (SET, SEQUENCE):
        return replace(term, element=projected)
    return projected


# ---------------------------------------------------------------------------
# Whole-diagram propagation
# ---------------------------------------------------------------------------


class TypedDiagram(Record):
    """``graph`` is what validation settled about ``diagram``. ``oriented``
    and ``reversed_edges`` are what ``break_cycles`` returned: the compile's
    one orientation, which the checker used and layout draws."""
    diagram: Diagram
    graph: Graph
    edge_terms: dict[str, DataTerm]
    diagnostics: list[Diagnostic]
    oriented: list[tuple[str, str, str]]
    reversed_edges: frozenset[str]


def check_diagram(diagram: Diagram, graph: Graph, registry: Registry) -> TypedDiagram:
    """Propagate terms across the dataflow graph to a fixed point.

    ``graph`` is what ``validate_structure`` returned for ``diagram``, so
    every node's code resolves and every edge joins two of its nodes.

    Terms travel only along the acyclic forward orientation, which the
    result carries for ``layout`` to draw. Recurrent edges, and any flow
    edge the cycle-breaker has to reverse, feed back into a slot: labels
    only where the slot has a forward feed, else a collapsed term.

    Nodes are ranked by layer of the forward orientation, then declaration
    index. A sweep visits queued nodes in rank order; a node whose output
    changed queues its successors over every edge, those ranked later for
    this sweep and the others for the next. The result is the round-robin
    over the nodes in rank order, minus the evaluations whose inputs had not
    changed. An empty queue proves the fixed point, and each node's last
    evaluation saw its final inputs, so its diagnostics are the ones kept.
    After ``max_rounds`` sweeps the queue may still hold nodes; they are
    evaluated once more on the final inputs, and E105 names the first of
    them in declaration order.

    An evaluation whose key, the node's code, its params tagged with their
    types, its input terms and resource flags, matches an earlier clean one
    reuses that output list and reports no diagnostics: ``infer_output`` is a
    pure function of the key, and of the node's id only through diagnostics.
    Evaluations with diagnostics are not shared, so each diagnostic still
    comes from its own node's evaluation. The memo lives for one call.
    """
    # looked up in .layout per call, so a tracer that replaces them there sees the call
    from .layout import assign_layers, break_cycles

    embeddings = {e.id: e.dim for e in diagram.embeddings}
    nodes = graph.nodes
    outputs: dict[str, list[DataTerm | None]] = {n.id: [None] for n in diagram.nodes}
    oriented, backward = break_cycles(diagram)
    label_count = len(registry.labels)
    max_rounds = len(diagram.edges) * label_count + 2

    # In-edges keep declaration order: the last feed of a slot wins.
    in_edges: dict[str, list[Edge]] = {n.id: [] for n in diagram.nodes}
    for edge in diagram.edges:
        in_edges[edge.target.node].append(edge)

    node_diags: dict[str, list[Diagnostic]] = {}  # from each node's latest evaluation
    clean: dict[tuple, list[DataTerm | None]] = {}  # evaluation key -> outputs, no diagnostics
    # params by type and repr: 1 == 1.0, yet class=1 gives C_1 and class=1.0 C_1.0;
    # a decoded diagram's params may also be -0.0 (== 0.0) or unhashable lists
    param_keys = {n.id: tuple((k, type(v), repr(v)) for k, v in n.params)
                  for n in diagram.nodes if n.params}

    def evaluate(node: Node) -> list[DataTerm | None]:
        slots: dict[int, DataTerm | None] = {}
        resource_flags: dict[int, bool] = {}
        feedback: list[tuple[int, DataTerm | None]] = []
        for edge in in_edges[node.id]:
            delivered = _delivered_term(edge, nodes, outputs)
            if edge.flow_kind == "recurrent" or edge.id in backward:
                feedback.append((edge.target.slot, delivered))
                continue
            slots[edge.target.slot] = delivered
            resource_flags[edge.target.slot] = nodes[edge.source.node].kind == "resource"
        for slot, delivered in feedback:
            if delivered is None:
                continue
            if slots.get(slot) is not None:
                slots[slot] = slots[slot].with_labels(delivered.all_labels())
            else:
                slots[slot] = _collapse(delivered)
        found = graph.resolved[node.id]
        # a task reads its inputs by slot, a symbol only the wired ones in slot order
        at = range(max(slots, default=-1) + 1) if isinstance(found, Signature) else sorted(slots)
        inputs = [slots.get(i) for i in at]
        flags = [resource_flags.get(i, False) for i in at]
        key = (node.code, param_keys.get(node.id, ()), tuple(inputs), tuple(flags))
        outs = clean.get(key)
        if outs is not None:
            node_diags[node.id] = []
            return outs
        outs, node_diags[node.id] = infer_output(node, found, inputs, registry, embeddings, flags)
        if not node_diags[node.id]:
            clean[key] = outs
        return outs

    layers = assign_layers([n.id for n in diagram.nodes], oriented)
    order = sorted((layers[n.id], i, n) for i, n in enumerate(diagram.nodes))
    rank = {n.id: r for r, (_, _, n) in enumerate(order)}
    # Successors over every edge: a feedback target depends on its source too.
    successors: dict[str, list[int]] = {n.id: [] for n in diagram.nodes}
    for edge in diagram.edges:
        successors[edge.source.node].append(rank[edge.target.node])

    heap = [(0, r) for r in range(len(order))]  # (sweep, rank) pairs; sorted, hence a heap
    queued = [True] * len(order)
    while heap and heap[0][0] < max_rounds:
        sweep, r = heapq.heappop(heap)
        queued[r] = False
        node = order[r][2]
        outs = evaluate(node)
        if outs != outputs[node.id]:
            outputs[node.id] = outs
            for succ in successors[node.id]:
                if not queued[succ]:
                    queued[succ] = True
                    heapq.heappush(heap, (sweep if succ > r else sweep + 1, succ))

    stuck = [r for _, r in heap]  # out of budget: these have not seen their final inputs
    for r in stuck:
        evaluate(order[r][2])
    diagnostics = [d for node in diagram.nodes for d in node_diags.get(node.id, ())]

    edge_terms: dict[str, DataTerm] = {}
    for edge in diagram.edges:
        delivered = _delivered_term(edge, nodes, outputs)
        if delivered is not None:
            edge_terms[edge.id] = delivered
        else:
            diagnostics.append(Diagnostic(
                "E102", f"edge {edge.id} carries no resolvable term "
                        f"(source {edge.source} produced nothing)",
                ir_path=edge.id, ir_kind="edge"))
        if edge.declared_term is not None:
            _check_declared(edge, delivered, registry, diagnostics)

    if stuck:
        node_id = order[min(stuck, key=lambda r: order[r][1])][2].id
        diagnostics.append(Diagnostic(
            "E105", f"node {node_id!r}: term propagation did not reach a fixed point",
            ir_path=node_id, ir_kind="node"))
    return TypedDiagram(diagram, graph, edge_terms, diagnostics, oriented, backward)


def _collapse(term: DataTerm) -> DataTerm:
    """Summary of a feedback delivery. A scalar or distribution term passes
    whole, dims included. Any other term keeps only every label it holds and
    the carrier of its innermost term, when that term is not a tuple.

    This bounds the structure a cycle through structure-building operators
    can build, but not dims: a cycle through ``oplus`` or ``concat`` can grow
    a vector until the sweep budget runs out (E105).
    """
    if term.structure in (SCALAR, DIST):
        return term
    core = term.core()
    base = core.base if core.structure in (SCALAR, DIST) else None
    return DataTerm(base=base, annotations=term.all_labels())


def _delivered_term(edge: Edge, nodes: dict[str, Node],
                    outputs: dict[str, list[DataTerm | None]]) -> DataTerm | None:
    if edge.flow_kind == "query" and nodes[edge.source.node].kind == "resource":
        return DataTerm(base="Tuples")
    outs = outputs[edge.source.node]
    if edge.source.slot < len(outs):
        return outs[edge.source.slot]
    return None


def _check_declared(edge: Edge, inferred: DataTerm | None, registry: Registry,
                    diagnostics: list[Diagnostic]) -> None:
    try:
        declared = registry.parse_term(edge.declared_term)
    except TermError as exc:
        diagnostics.append(Diagnostic("E004", f"edge {edge.id}: {exc}",
                                      ir_path=edge.id, ir_kind="edge"))
        return
    if inferred is None:
        return
    reason = _declared_conflict(declared, inferred)
    if reason:
        diagnostics.append(Diagnostic(
            "E104", f"edge {edge.id} is declared as {format_term(declared)} but carries "
                    f"{format_term(inferred)}: {reason}",
            ir_path=edge.id, ir_kind="edge"))


def _declared_conflict(declared: DataTerm, inferred: DataTerm) -> str | None:
    """A declaration may understate labels but must not contradict."""
    if declared.structure in (SET, SEQUENCE):
        if inferred.structure != declared.structure:
            return f"structure {inferred.structure} is not {declared.structure}"
        return _declared_conflict(declared.element, inferred.element)
    if declared.structure == TUPLE:
        if inferred.structure != TUPLE or len(inferred.elements) != len(declared.elements):
            return "tuple shapes differ"
        for d, i in zip(declared.elements, inferred.elements):
            reason = _declared_conflict(d, i)
            if reason:
                return reason
        return None
    if declared.structure == DIST:
        if inferred.structure != DIST:
            return "not a distribution"
        if declared.dist_range != inferred.dist_range:
            return "distribution ranges differ"
    elif inferred.structure not in (SCALAR, DIST):
        return f"structure {inferred.structure} is not scalar"
    if declared.base is not None and declared.base != inferred.base:
        return f"category {_cat(inferred.base)} is not {_cat(declared.base)}"
    extra = declared.annotations - inferred.all_labels()
    if extra:
        return "labels " + ", ".join(sorted(extra)) + " were never applied"
    if declared.dims is not None and declared.dims != inferred.dims:
        return f"dimensions differ ({list(inferred.dims or [])} inferred)"
    if declared.subscript is not None and inferred.subscript is not None \
            and declared.subscript != inferred.subscript:
        return "subscripts differ"
    return None
