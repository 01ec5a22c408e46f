"""SVG and TikZ emission.

The glyph table below is the normative geometry for every registered symbol
(the golden files pin it down). Each node contributes exactly one element
carrying class ``node-shape``; groups, tables and the title carry their own
classes, so structural tests can count elements.

Both emitters are pure functions of (typed diagram, layout, registry) and
stamp their output with the toolchain version.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .diagnostics import RenderMismatch, UnknownSymbol
from .layout import Box, LayoutResult, node_display_lines
from .model import Diagram, Node
from .registry import Registry
from .terms import DIST, SEQUENCE, SET, TUPLE, DataTerm
from .typecheck import TypedDiagram, term_text

STAMP = f"dialc v{__version__}"

RECT, ROUND_RECT, CIRCLE, ELLIPSE, DIAMOND = "rectangle", "rounded-rectangle", "circle", "ellipse", "diamond"
TRAP_L, TRAP_R, CYLINDER, TEXT_GLYPH = "trapezoid-left", "trapezoid-right", "cylinder", "annotated-text-glyph"


@dataclass(frozen=True)
class GlyphSpec:
    glyph_id: str
    primitive: str
    mark: str | None = None  # centered symbol, realized per backend
    badge: str | None = None  # small corner mark
    dashed: bool = False
    label_slots: tuple[str, ...] = ("code", "label", "params", "perf")
    anchors: tuple[str, ...] = ("in:left", "out:right")


def _g(glyph_id: str, primitive: str, mark: str | None = None, *,
       badge: str | None = None, dashed: bool = False) -> GlyphSpec:
    return GlyphSpec(glyph_id, primitive, mark, badge=badge, dashed=dashed)


GLYPH_TABLE: dict[str, GlyphSpec] = {g.glyph_id: g for g in (
    _g("task_box", RECT),
    _g("box_classifier", RECT, badge="C"),
    _g("box_extension", RECT, badge="+"),
    _g("op_oplus", CIRCLE, "oplus"),
    _g("op_concat", CIRCLE, "concat"),
    _g("op_otimes", CIRCLE, "otimes"),
    _g("op_set", CIRCLE, "set"),
    _g("op_cond", DIAMOND, "cond"),
    _g("op_interface", TEXT_GLYPH, "interface"),
    _g("op_compose", CIRCLE, "compose"),
    _g("op_join", CIRCLE, "join"),
    _g("op_sim", CIRCLE, "sim"),
    _g("op_proj", CIRCLE, "proj"),
    _g("op_regression", CIRCLE, "regression"),
    _g("op_classification", CIRCLE, "classification"),
    _g("op_rank", CIRCLE, "rank"),
    _g("op_encoder", TRAP_R),
    _g("op_decoder", TRAP_L),
    _g("op_entail", CIRCLE, "entail"),
    _g("op_verify", TEXT_GLYPH, "verify"),
    _g("op_func", CIRCLE, "func"),
    _g("op_func_contract", CIRCLE, "func_contract"),
    _g("res_dataset", CYLINDER),
    _g("res_gold", CYLINDER, badge="star"),
    _g("res_kbfn", CYLINDER, badge="f"),
    _g("res_kb", CYLINDER, badge="KB"),
    _g("res_w2v", ELLIPSE, "w2v"),
    _g("grp_zoom", RECT, dashed=True),
    _g("meta_acc", TEXT_GLYPH, "acc"),
    _g("edge_flow", TEXT_GLYPH, "flow"),
    _g("edge_biflow", TEXT_GLYPH, "biflow"),
    _g("edge_query", TEXT_GLYPH, "query"),
    _g("edge_persist", TEXT_GLYPH, "persist"),
    _g("nn_loss", CIRCLE, "loss"),
    _g("nn_activation", CIRCLE, "activation"),
    _g("nn_softmax", ROUND_RECT, "softmax"),
    _g("nn_attention", ROUND_RECT, "attention"),
    _g("nn_lstm", ROUND_RECT, "lstm"),
    _g("nn_bilstm", ROUND_RECT, "bilstm"),
    _g("nn_gru", ROUND_RECT, "lstm", badge="GRU"),
    _g("nn_conv", RECT, "conv"),
    _g("nn_recnn", ROUND_RECT, "recnn"),
    _g("nn_svm", RECT, "svm"),
    _g("nn_ground_truth", TEXT_GLYPH, "ground_truth"),
    _g("nn_hidden_fwd", TEXT_GLYPH, "hidden_fwd"),
    _g("nn_hidden_bwd", TEXT_GLYPH, "hidden_bwd"),
)}

# Mark realizations per backend.
SVG_MARKS = {
    "oplus": "⊕", "concat": "++", "otimes": "⊗", "set": "{ }",
    "cond": "?", "interface": "⊸", "compose": "∘", "join": "⋈",
    "sim": "∡θ", "proj": "Π⃗", "regression": "≈",
    "classification": "C", "rank": "R↑", "entail": "E⊨",
    "verify": "☑", "func": "f", "func_contract": "f'", "w2v": "w2v",
    "acc": "acc", "flow": "→", "biflow": "↔", "query": "?›",
    "persist": "↦", "loss": "Δ", "activation": "σ",
    "softmax": "softmax", "attention": "attn", "lstm": "LSTM",
    "bilstm": "BiLSTM", "conv": "conv", "recnn": "RecNN", "svm": "SVM",
    "ground_truth": "g_c", "hidden_fwd": "h→", "hidden_bwd": "h←",
    "star": "★",
}
TIKZ_MARKS = {
    "oplus": r"$\oplus$", "concat": r"$+\!\!+$", "otimes": r"$\otimes$",
    "set": r"$\{\,\}$", "cond": "?", "interface": r"$\multimap$",
    "compose": r"$\circ$", "join": r"$\bowtie$",
    "sim": r"$\measuredangle\theta$", "proj": r"$\vec{\Pi}$",
    "regression": r"$\approx$", "classification": "C",
    "rank": r"$R\uparrow$", "entail": r"$E \vDash$", "verify": r"$\checkmark$",
    "func": "$f$", "func_contract": "$f'$", "w2v": "w2v", "acc": "acc",
    "flow": r"$\rightarrow$", "biflow": r"$\leftrightarrow$",
    "query": r"$?\!>$", "persist": r"$\longmapsto$", "loss": r"$\Delta$",
    "activation": r"$\sigma$", "softmax": "softmax", "attention": "attn",
    "lstm": "LSTM", "bilstm": "BiLSTM", "conv": "conv", "recnn": "RecNN",
    "svm": "SVM", "ground_truth": "$g_c$", "hidden_fwd": r"$\vec{h}$",
    "hidden_bwd": r"$\overleftarrow{h}$", "star": r"$\star$",
}


def glyph_for(code: str, dialects: frozenset[str],
              registry: Registry | None = None) -> GlyphSpec:
    """Stable code-to-glyph mapping over signatures, symbols and extensions."""
    registry = registry or Registry()
    resolution = registry.resolve(code, dialects)
    if resolution is None:
        try:  # notational symbols (flow arrows, zoom, acc) still own a glyph
            symbol = registry.lookup_symbol(code, dialects)
        except UnknownSymbol:
            raise UnknownSymbol(f"no glyph for unknown code {code!r}")
        return GLYPH_TABLE[symbol.glyph_id]
    if resolution.signature is not None:
        return GLYPH_TABLE["task_box"]
    return GLYPH_TABLE.get(resolution.symbol.glyph_id, GLYPH_TABLE["box_extension"])


def _mark_text(node: Node, glyph: GlyphSpec, marks: dict[str, str]) -> str | None:
    if glyph.mark is None:
        return None
    text = marks[glyph.mark]
    if glyph.mark == "rank":
        top_n = node.param("n")
        if top_n is not None:
            text += f"{top_n}" if marks is SVG_MARKS else f"${top_n}$"
    if glyph.mark == "proj":
        emb = node.param("embedding")
        if emb is not None:
            text += f"_{emb}"
    return text


def _check_pairing(diagram: Diagram, layout: LayoutResult) -> None:
    missing = [n.id for n in diagram.nodes if n.id not in layout.node_boxes]
    node_ids = {n.id for n in diagram.nodes}
    extra = [nid for nid in layout.node_boxes if nid not in node_ids]
    if missing or extra:
        raise RenderMismatch(
            "E301: layout does not belong to this diagram "
            f"(missing {missing}, foreign {extra})")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _esc_xml(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _svg_term(term: DataTerm) -> str:
    """Term markup with superscript tspans."""
    if term.structure == TUPLE:
        inner = ", ".join(_svg_term(t) for t in term.elements)
        return f"({inner})"
    if term.structure == SET:
        return "{" + _svg_term(term.element) + "}"
    if term.structure == SEQUENCE:
        bound = f"&#8804;{term.max_len}" if term.max_len is not None else ""
        return f"[{_svg_term(term.element)}]{bound}"
    text = term_text(DataTerm(base=term.base, subscript=term.subscript,
                              dims=term.dims, structure=term.structure,
                              dist_range=term.dist_range))
    out = _esc_xml(text)
    labels = sorted(term.annotations)
    if labels:
        out += ('<tspan baseline-shift="super" font-size="8">'
                + _esc_xml(",".join(labels)) + "</tspan>")
    return out


def _shape_svg(glyph: GlyphSpec, box: Box, cls: str) -> str:
    dash = ' stroke-dasharray="4 3"' if glyph.dashed else ""
    common = f'class="{cls}" fill="none" stroke="black"{dash}'
    x, y, w, h = box.x, box.y, box.w, box.h
    if glyph.primitive == CIRCLE:
        r = min(w, h) // 2
        return f'<circle {common} cx="{x + w // 2}" cy="{y + h // 2}" r="{r}"/>'
    if glyph.primitive == ELLIPSE:
        return (f'<ellipse {common} cx="{x + w // 2}" cy="{y + h // 2}" '
                f'rx="{w // 2}" ry="{h // 2}"/>')
    if glyph.primitive == DIAMOND:
        pts = f"{x + w // 2},{y} {x + w},{y + h // 2} {x + w // 2},{y + h} {x},{y + h // 2}"
        return f'<polygon {common} points="{pts}"/>'
    if glyph.primitive == TRAP_R:
        pts = f"{x},{y} {x + w},{y + h // 4} {x + w},{y + 3 * h // 4} {x},{y + h}"
        return f'<polygon {common} points="{pts}"/>'
    if glyph.primitive == TRAP_L:
        pts = f"{x},{y + h // 4} {x + w},{y} {x + w},{y + h} {x},{y + 3 * h // 4}"
        return f'<polygon {common} points="{pts}"/>'
    if glyph.primitive == CYLINDER:
        ry = 6
        d = (f"M {x} {y + ry} A {w // 2} {ry} 0 0 1 {x + w} {y + ry} "
             f"L {x + w} {y + h - ry} A {w // 2} {ry} 0 0 1 {x} {y + h - ry} Z "
             f"M {x} {y + ry} A {w // 2} {ry} 0 0 0 {x + w} {y + ry}")
        return f'<path {common} d="{d}"/>'
    if glyph.primitive == TEXT_GLYPH:
        return (f'<rect {common} stroke-dasharray="2 2" x="{x}" y="{y}" '
                f'width="{w}" height="{h}"/>')
    rx = ' rx="6"' if glyph.primitive == ROUND_RECT else ""
    return f'<rect {common} x="{x}" y="{y}" width="{w}" height="{h}"{rx}/>'


def render_svg(typed: TypedDiagram, layout: LayoutResult,
               registry: Registry | None = None) -> str:
    """Deterministic SVG 1.1 document for a typed, laid-out diagram."""
    registry = registry or Registry()
    diagram = typed.diagram
    _check_pairing(diagram, layout)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f"<!-- {STAMP} -->")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{layout.width}" height="{layout.height}" '
               f'viewBox="0 0 {layout.width} {layout.height}" '
               f'font-family="monospace" font-size="12">')
    out.append(
        "<defs>"
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="black"/></marker>'
        "</defs>"
    )

    title = diagram.name
    tr = layout.title_region
    out.append(f'<text class="title" x="{tr.x}" y="{tr.y + 12}" '
               f'font-size="14" font-weight="bold">{_esc_xml(title)}</text>')

    for group in diagram.groups:
        box = layout.group_boxes[group.id]
        out.append(f'<rect class="group-box" fill="none" stroke="black" '
                   f'stroke-dasharray="6 4" x="{box.x}" y="{box.y}" '
                   f'width="{box.w}" height="{box.h}"/>')
        owner = diagram.node_by_id(group.owner)
        caption = f"zoom: {owner.label or owner.code if owner else group.owner}"
        out.append(f'<text x="{box.x + 4}" y="{box.y + 12}" font-size="9">'
                   f"{_esc_xml(caption)}</text>")

    for edge in diagram.edges:
        route = layout.edge_routes.get(edge.id)
        if route is None:
            continue
        pts = " ".join(f"{x},{y}" for x, y in route)
        dash = ' stroke-dasharray="5 3"' if edge.flow_kind == "query" else ""
        markers = ' marker-end="url(#arrow)"'
        if edge.flow_kind == "biflow":
            markers += ' marker-start="url(#arrow)"'
        out.append(f'<polyline class="edge edge-{edge.flow_kind}" fill="none" '
                   f'stroke="black"{dash} points="{pts}"{markers}/>')
        if edge.flow_kind == "persist":
            x0, y0 = route[0]
            out.append(f'<line stroke="black" x1="{x0}" y1="{y0 - 5}" '
                       f'x2="{x0}" y2="{y0 + 5}"/>')
        label_parts: list[str] = []
        term = typed.edge_terms.get(edge.id)
        if term is not None:
            label_parts.append(_svg_term(term))
        if edge.flow_kind == "query":
            label_parts.append("?")
        if label_parts:
            mx = (route[0][0] + route[-1][0]) // 2
            my = (route[0][1] + route[-1][1]) // 2 - 4
            out.append(f'<text class="edge-term" x="{mx}" y="{my}" '
                       f'font-size="10" text-anchor="middle">'
                       + " ".join(label_parts) + "</text>")

    for node in diagram.nodes:
        box = layout.node_boxes[node.id]
        glyph = _node_glyph(node, diagram, registry)
        out.append(_shape_svg(glyph, box, "node-shape"))
        cx = box.x + box.w // 2
        lines = node_display_lines(node)
        mark = _mark_text(node, glyph, SVG_MARKS)
        if mark is not None:
            lines = [mark if lines[0] == node.code else f"{mark} {lines[0]}"] + lines[1:]
        ty = box.y + box.h // 2 - 6 * (len(lines) - 1) + 4
        for i, line in enumerate(lines):
            size = 12 if i == 0 else 9
            out.append(f'<text x="{cx}" y="{ty + 12 * i}" text-anchor="middle" '
                       f'font-size="{size}">{_esc_xml(line)}</text>')
        if glyph.badge is not None:
            badge = SVG_MARKS.get(glyph.badge, glyph.badge)
            out.append(f'<text x="{box.right - 4}" y="{box.y + 10}" '
                       f'text-anchor="end" font-size="9">{_esc_xml(badge)}</text>')

    for table in diagram.tables:
        box = layout.table_regions.get(table.id)
        if box is None:
            continue
        out.append(f'<rect class="table-box" fill="none" stroke="black" '
                   f'x="{box.x}" y="{box.y}" width="{box.w}" height="{box.h}"/>')
        for i, (key, value) in enumerate(table.rows):
            out.append(f'<text x="{box.x + 6}" y="{box.y + 16 + 16 * i}" '
                       f'font-size="10">{_esc_xml(f"{key}: {value}")}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _node_glyph(node: Node, diagram: Diagram, registry: Registry) -> GlyphSpec:
    try:
        return glyph_for(node.code, diagram.dialects, registry)
    except UnknownSymbol:
        return GLYPH_TABLE["box_extension"]


# ---------------------------------------------------------------------------
# TikZ
# ---------------------------------------------------------------------------


def _esc_tex(text: str) -> str:
    specials = {"\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$",
                "#": r"\#", "_": r"\_", "{": r"\{", "}": r"\}",
                "~": r"\textasciitilde{}", "^": r"\textasciicircum{}"}
    return "".join(specials.get(ch, ch) for ch in text)


def _tikz_term(term: DataTerm) -> str:
    if term.structure == TUPLE:
        return "(" + ", ".join(_tikz_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return r"\{" + _tikz_term(term.element) + r"\}"
    if term.structure == SEQUENCE:
        bound = f"\\leq {term.max_len}" if term.max_len is not None else ""
        return f"[{_tikz_term(term.element)}]{bound}"
    base = term_text(DataTerm(base=term.base, structure=term.structure,
                              dist_range=term.dist_range)).replace("_", r"\_")
    out = base
    if term.subscript and term.structure != DIST:
        out += f"_{{{term.subscript}}}"
    labels = sorted(term.annotations)
    if labels:
        out += "^{" + ",".join(labels) + "}"
    if term.dims is not None:
        out += "[" + ",".join(str(d) for d in term.dims) + "]"
    return out


_TIKZ_STYLES = {
    RECT: "draw, rectangle",
    ROUND_RECT: "draw, rectangle, rounded corners=3pt",
    CIRCLE: "draw, circle, inner sep=1pt",
    ELLIPSE: "draw, ellipse",
    DIAMOND: "draw, diamond, aspect=2",
    TRAP_R: "draw, trapezium, trapezium angle=70, shape border rotate=270",
    TRAP_L: "draw, trapezium, trapezium angle=70, shape border rotate=90",
    CYLINDER: "draw, cylinder, shape border rotate=90, aspect=0.3",
    TEXT_GLYPH: "draw, rectangle, densely dotted",
}


def render_tikz(typed: TypedDiagram, layout: LayoutResult,
                registry: Registry | None = None) -> str:
    """Standalone-compilable TikZ with the same visual semantics as the SVG."""
    registry = registry or Registry()
    diagram = typed.diagram
    _check_pairing(diagram, layout)

    out: list[str] = []
    out.append(f"% {STAMP}")
    out.append(r"\documentclass[border=4pt]{standalone}")
    out.append(r"\usepackage{tikz}")
    out.append(r"\usetikzlibrary{shapes.geometric,arrows.meta}")
    out.append(r"\begin{document}")
    out.append(r"\begin{tikzpicture}[x=1pt, y=-1pt, font=\ttfamily\small, "
               r">={Stealth[length=5pt]}]")

    tr = layout.title_region
    out.append(rf"\node[anchor=north west, font=\ttfamily\bfseries] "
               rf"at ({tr.x},{tr.y}) {{{_esc_tex(diagram.name)}}};")

    for group in diagram.groups:
        box = layout.group_boxes[group.id]
        out.append(rf"\draw[dashed] ({box.x},{box.y}) rectangle ({box.right},{box.bottom});")
        owner = diagram.node_by_id(group.owner)
        caption = f"zoom: {owner.label or owner.code if owner else group.owner}"
        out.append(rf"\node[anchor=north west, font=\ttfamily\tiny] "
                   rf"at ({box.x + 2},{box.y + 1}) {{{_esc_tex(caption)}}};")

    for node in diagram.nodes:
        box = layout.node_boxes[node.id]
        glyph = _node_glyph(node, diagram, registry)
        style = _TIKZ_STYLES[glyph.primitive]
        if glyph.dashed:
            style += ", dashed"
        lines = node_display_lines(node)
        mark = _mark_text(node, glyph, TIKZ_MARKS)
        first = _esc_tex(lines[0])
        if mark is not None:
            first = mark if lines[0] == node.code else f"{mark} {first}"
        body = [first] + [rf"{{\tiny {_esc_tex(line)}}}" for line in lines[1:]]
        text = r"\\ ".join(body)
        out.append(
            rf"\node[{style}, align=center, minimum width={box.w}pt, "
            rf"minimum height={box.h}pt] "
            rf"at ({box.x + box.w // 2},{box.y + box.h // 2}) {{{text}}};")
        if glyph.badge is not None:
            badge = TIKZ_MARKS.get(glyph.badge, glyph.badge)
            out.append(rf"\node[anchor=north east, font=\tiny] "
                       rf"at ({box.right},{box.y}) {{{badge}}};")

    for edge in diagram.edges:
        route = layout.edge_routes.get(edge.id)
        if route is None:
            continue
        style = "->"
        if edge.flow_kind == "biflow":
            style = "<->"
        if edge.flow_kind == "query":
            style = "->, densely dashed"
        if edge.flow_kind == "persist":
            style = "|->"
        path = " -- ".join(f"({x},{y})" for x, y in route)
        out.append(rf"\draw[{style}] {path};")
        term = typed.edge_terms.get(edge.id)
        if term is not None:
            mx = (route[0][0] + route[-1][0]) // 2
            my = (route[0][1] + route[-1][1]) // 2 - 4
            out.append(rf"\node[font=\tiny, anchor=south] at ({mx},{my}) "
                       rf"{{${_tikz_term(term)}$}};")

    for table in diagram.tables:
        box = layout.table_regions.get(table.id)
        if box is None:
            continue
        out.append(rf"\draw ({box.x},{box.y}) rectangle ({box.right},{box.bottom});")
        for i, (key, value) in enumerate(table.rows):
            out.append(rf"\node[anchor=west, font=\ttfamily\scriptsize] "
                       rf"at ({box.x + 4},{box.y + 10 + 16 * i}) "
                       rf"{{{_esc_tex(f'{key}: {value}')}}};")

    out.append(r"\end{tikzpicture}")
    out.append(r"\end{document}")
    return "\n".join(out) + "\n"
