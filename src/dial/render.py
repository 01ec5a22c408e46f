"""SVG and TikZ emission: one drawing walk, two writers.

The glyph table below is the normative geometry for every registered symbol
(the golden files pin it down). ``_Drawing`` walks the typed diagram and its
layout once and decides what is drawn; its subclasses ``_Svg`` and ``_Tikz``
only spell each element, as markup or as commands. Each node contributes
exactly one element carrying class ``node-shape``; groups, tables and the
title carry their own classes, so structural tests can count elements.

Both emitters depend only on (typed diagram, layout), stamp their output
with the toolchain version and write it into a text stream as it is drawn,
one string per element. Equal data terms print alike, so the walk spells each
distinct edge term once per drawing and reuses that markup for every other
edge carrying it. A node's glyph comes from the record its code resolved
to in validation, which the typed diagram's ``graph`` keeps: the task box for
a signature, and the symbol's own glyph for a symbol, or the extension box
when that glyph id is not in the table.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

from . import __version__
from .diagnostics import RenderMismatch
from .layout import Box, LayoutResult, node_display_lines
from .model import Node
from .record import Record
from .registry import Signature, SymbolDef
from .terms import DIST, SEQUENCE, SET, TUPLE, DataTerm, format_term
from .typecheck import TypedDiagram

STAMP = f"dialc v{__version__}"

RECT, ROUND_RECT, CIRCLE, ELLIPSE, DIAMOND = "rectangle", "rounded-rectangle", "circle", "ellipse", "diamond"
TRAP_L, TRAP_R, CYLINDER, TEXT_GLYPH = "trapezoid-left", "trapezoid-right", "cylinder", "annotated-text-glyph"


class GlyphSpec(Record):
    glyph_id: str
    primitive: str
    mark: str | None = None  # centered symbol, realized per backend
    badge: str | None = None  # small corner mark
    dashed: bool = False


GLYPH_TABLE: dict[str, GlyphSpec] = {g.glyph_id: g for g in (
    GlyphSpec("task_box", RECT),
    GlyphSpec("box_classifier", RECT, badge="C"),
    GlyphSpec("box_extension", RECT, badge="+"),
    GlyphSpec("op_oplus", CIRCLE, "oplus"),
    GlyphSpec("op_concat", CIRCLE, "concat"),
    GlyphSpec("op_otimes", CIRCLE, "otimes"),
    GlyphSpec("op_set", CIRCLE, "set"),
    GlyphSpec("op_cond", DIAMOND, "cond"),
    GlyphSpec("op_interface", TEXT_GLYPH, "interface"),
    GlyphSpec("op_compose", CIRCLE, "compose"),
    GlyphSpec("op_join", CIRCLE, "join"),
    GlyphSpec("op_sim", CIRCLE, "sim"),
    GlyphSpec("op_proj", CIRCLE, "proj"),
    GlyphSpec("op_regression", CIRCLE, "regression"),
    GlyphSpec("op_classification", CIRCLE, "classification"),
    GlyphSpec("op_rank", CIRCLE, "rank"),
    GlyphSpec("op_encoder", TRAP_R),
    GlyphSpec("op_decoder", TRAP_L),
    GlyphSpec("op_entail", CIRCLE, "entail"),
    GlyphSpec("op_verify", TEXT_GLYPH, "verify"),
    GlyphSpec("op_func", CIRCLE, "func"),
    GlyphSpec("op_func_contract", CIRCLE, "func_contract"),
    GlyphSpec("res_dataset", CYLINDER),
    GlyphSpec("res_gold", CYLINDER, badge="star"),
    GlyphSpec("res_kbfn", CYLINDER, badge="f"),
    GlyphSpec("res_kb", CYLINDER, badge="KB"),
    GlyphSpec("res_w2v", ELLIPSE, "w2v"),
    GlyphSpec("grp_zoom", RECT, dashed=True),
    GlyphSpec("meta_acc", TEXT_GLYPH, "acc"),
    GlyphSpec("edge_flow", TEXT_GLYPH, "flow"),
    GlyphSpec("edge_biflow", TEXT_GLYPH, "biflow"),
    GlyphSpec("edge_query", TEXT_GLYPH, "query"),
    GlyphSpec("edge_persist", TEXT_GLYPH, "persist"),
    GlyphSpec("nn_loss", CIRCLE, "loss"),
    GlyphSpec("nn_activation", CIRCLE, "activation"),
    GlyphSpec("nn_softmax", ROUND_RECT, "softmax"),
    GlyphSpec("nn_attention", ROUND_RECT, "attention"),
    GlyphSpec("nn_lstm", ROUND_RECT, "lstm"),
    GlyphSpec("nn_bilstm", ROUND_RECT, "bilstm"),
    GlyphSpec("nn_gru", ROUND_RECT, "lstm", badge="GRU"),
    GlyphSpec("nn_conv", RECT, "conv"),
    GlyphSpec("nn_recnn", ROUND_RECT, "recnn"),
    GlyphSpec("nn_svm", RECT, "svm"),
    GlyphSpec("nn_ground_truth", TEXT_GLYPH, "ground_truth"),
    GlyphSpec("nn_hidden_fwd", TEXT_GLYPH, "hidden_fwd"),
    GlyphSpec("nn_hidden_bwd", TEXT_GLYPH, "hidden_bwd"),
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


def glyph_for(found: Signature | SymbolDef) -> GlyphSpec:
    """Stable mapping from what a node code resolved to, a signature, a symbol
    or an extension, to its glyph; an unknown glyph id gets the extension box."""
    if isinstance(found, Signature):
        return GLYPH_TABLE["task_box"]
    return GLYPH_TABLE.get(found.glyph_id, GLYPH_TABLE["box_extension"])


def _check_pairing(typed: TypedDiagram, layout: LayoutResult) -> None:
    """E301 unless the layout boxes exactly the typed diagram's nodes and routes its edges."""
    nodes = typed.graph.nodes
    missing = [nid for nid in nodes if nid not in layout.node_boxes]
    missing += [e.id for e in typed.diagram.edges if e.id not in layout.edge_routes]
    extra = [nid for nid in layout.node_boxes if nid not in nodes]
    if missing or extra:
        raise RenderMismatch(
            "E301: layout does not belong to this diagram "
            f"(missing {missing}, foreign {extra})")


class _Drawing:
    """The walk, which decides once what is drawn. A writer subclass sets the notation
    (``marks``, ``esc``, ``term``, ...), spells each element and fixes ``order``."""

    def __init__(self, typed: TypedDiagram, layout: LayoutResult):
        self.typed, self.layout = typed, layout

    def write(self, out: io.TextIOBase | None) -> str | None:
        """E301 before any output; then the drawn elements, into ``out`` or returned."""
        _check_pairing(self.typed, self.layout)
        if out is None:
            return "".join(self.elements())
        out.writelines(self.elements())

    def elements(self) -> Iterator[str]:
        """Each drawn element, in drawing order, as one string of whole lines."""
        diagram, layout, by_id = self.typed.diagram, self.layout, self.typed.graph.nodes
        yield self.head(self.esc(diagram.name))
        for group in diagram.groups:
            owner = by_id[group.owner]
            caption = f"zoom: {owner.label or owner.code}"
            yield self.group(layout.group_boxes[group.id], self.esc(caption))
        for draw in self.order:
            yield from draw(self)
        for table in diagram.tables:
            box = layout.table_regions.get(table.id)
            if box is not None:
                yield self.table(box, [self.esc(f"{k}: {v}") for k, v in table.rows])
        yield self.tail

    def edges(self) -> Iterator[str]:
        spelled: dict[DataTerm | None, str | None] = {None: None}
        for edge in self.typed.diagram.edges:
            route = self.layout.edge_routes[edge.id]
            (x0, y0), (x1, y1) = route[0], route[-1]
            term = self.typed.edge_terms.get(edge.id)
            try:
                markup = spelled[term]
            except KeyError:
                markup = spelled[term] = self.term(term)
            yield self.edge(edge.flow_kind, route, ((x0 + x1) // 2, (y0 + y1) // 2 - 4), markup)

    def nodes(self) -> Iterator[str]:
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

    def mark_text(self, node: Node, glyph: GlyphSpec) -> str | None:
        if glyph.mark is None:
            return None
        text = self.marks[glyph.mark]
        if glyph.mark == "rank" and (top_n := node.param("n")) is not None:
            text += self.rank_count.format(top_n)
        if glyph.mark == "proj" and (emb := node.param("embedding")) is not None:
            text += f"_{emb}"
        return self.esc_mark(text)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _esc_xml(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _svg_term(term: DataTerm) -> str:
    """Term markup with superscript tspans."""
    if term.structure == TUPLE:
        return "(" + ", ".join(_svg_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return "{" + _svg_term(term.element) + "}"
    if term.structure == SEQUENCE:
        bound = f"&#8804;{term.max_len}" if term.max_len is not None else ""
        return f"[{_svg_term(term.element)}]{bound}"
    out = _esc_xml(format_term(DataTerm(base=term.base, subscript=term.subscript,
                                        dims=term.dims, structure=term.structure,
                                        dist_range=term.dist_range)))
    labels = sorted(term.annotations)
    if labels:
        out += ('<tspan baseline-shift="super" font-size="8">'
                + _esc_xml(",".join(labels)) + "</tspan>")
    return out


def _shape_svg(glyph: GlyphSpec, box: Box) -> str:
    dash = ' stroke-dasharray="4 3"' if glyph.dashed else ""
    common = f'class="node-shape" fill="none" stroke="black"{dash}'
    x, y, w, h = box
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


class _Svg(_Drawing):
    """SVG markup. Edges come before nodes, so nodes paint over them."""

    order = (_Drawing.edges, _Drawing.nodes)
    marks, rank_count = SVG_MARKS, "{}"
    esc = esc_mark = staticmethod(_esc_xml)
    term = staticmethod(_svg_term)
    tail = "</svg>\n"

    def head(self, title: str) -> str:
        width, height, tr = self.layout.width, self.layout.height, self.layout.title_region
        return "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            f"<!-- {STAMP} -->",
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="monospace" font-size="12">',
            "<defs>"
            '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
            'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
            '<path d="M 0 0 L 10 5 L 0 10 z" fill="black"/></marker>'
            "</defs>",
            f'<text class="title" x="{tr.x}" y="{tr.y + 12}" '
            f'font-size="14" font-weight="bold">{title}</text>',
        ]) + "\n"

    def group(self, box: Box, caption: str) -> str:
        return (f'<rect class="group-box" fill="none" stroke="black" stroke-dasharray="6 4" '
                f'x="{box.x}" y="{box.y}" width="{box.w}" height="{box.h}"/>\n'
                f'<text x="{box.x + 4}" y="{box.y + 12}" font-size="9">{caption}</text>\n')

    def edge(self, kind: str, route, at: tuple[int, int], term: str | None) -> str:
        pts = " ".join([f"{x},{y}" for x, y in route])
        dash = ' stroke-dasharray="5 3"' if kind == "query" else ""
        markers = ' marker-end="url(#arrow)"'
        if kind == "biflow":
            markers += ' marker-start="url(#arrow)"'
        out = (f'<polyline class="edge edge-{kind}" fill="none" '
               f'stroke="black"{dash} points="{pts}"{markers}/>\n')
        if kind == "persist":
            x0, y0 = route[0]
            out += f'<line stroke="black" x1="{x0}" y1="{y0 - 5}" x2="{x0}" y2="{y0 + 5}"/>\n'
        label = term if kind != "query" else "?" if term is None else f"{term} ?"
        if label:
            out += (f'<text class="edge-term" x="{at[0]}" y="{at[1]}" font-size="10" '
                    f'text-anchor="middle">{label}</text>\n')
        return out

    def node(self, glyph: GlyphSpec, box: Box, lines: list[str], badge: str | None) -> str:
        x, y, w, h = box
        cx, ty = x + w // 2, y + h // 2 - 6 * (len(lines) - 1) + 4
        out = (f'{_shape_svg(glyph, box)}\n'
               f'<text x="{cx}" y="{ty}" text-anchor="middle" font-size="12">{lines[0]}</text>\n')
        for i in range(1, len(lines)):
            out += (f'<text x="{cx}" y="{ty + 12 * i}" text-anchor="middle" '
                    f'font-size="9">{lines[i]}</text>\n')
        if badge is not None:
            out += (f'<text x="{x + w - 4}" y="{y + 10}" '
                    f'text-anchor="end" font-size="9">{badge}</text>\n')
        return out

    def table(self, box: Box, rows: list[str]) -> str:
        out = (f'<rect class="table-box" fill="none" stroke="black" '
               f'x="{box.x}" y="{box.y}" width="{box.w}" height="{box.h}"/>\n')
        for i, row in enumerate(rows):
            out += f'<text x="{box.x + 6}" y="{box.y + 16 + 16 * i}" font-size="10">{row}</text>\n'
        return out


def render_svg(typed: TypedDiagram, layout: LayoutResult, out: io.TextIOBase | None = None) -> str | None:
    """Deterministic SVG 1.1 document for a typed, laid-out diagram, written
    into ``out`` as it is drawn; without ``out``, returned as a ``str``."""
    return _Svg(typed, layout).write(out)


# ---------------------------------------------------------------------------
# TikZ
# ---------------------------------------------------------------------------


_TEX_SPECIALS = str.maketrans({
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#", "_": r"\_",
    "{": r"\{", "}": r"\}", "~": r"\textasciitilde{}", "^": r"\textasciicircum{}"})


def _esc_tex(text: str) -> str:
    return text.translate(_TEX_SPECIALS)


def _tikz_term(term: DataTerm) -> str:
    if term.structure == TUPLE:
        return "(" + ", ".join(_tikz_term(t) for t in term.elements) + ")"
    if term.structure == SET:
        return r"\{" + _tikz_term(term.element) + r"\}"
    if term.structure == SEQUENCE:
        bound = f"\\leq {term.max_len}" if term.max_len is not None else ""
        return f"[{_tikz_term(term.element)}]{bound}"
    out = format_term(DataTerm(base=term.base, structure=term.structure,
                               dist_range=term.dist_range)).replace("_", r"\_")
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
_TIKZ_ARROWS = {"biflow": "<->", "query": "->, densely dashed", "persist": "|->"}


class _Tikz(_Drawing):
    """TikZ commands. Nodes come before edges."""

    order = (_Drawing.nodes, _Drawing.edges)
    marks, rank_count = TIKZ_MARKS, "${}$"
    esc = staticmethod(_esc_tex)
    esc_mark = staticmethod(str)  # TikZ marks are TeX source already
    term = staticmethod(_tikz_term)
    tail = "\\end{tikzpicture}\n\\end{document}\n"

    def head(self, title: str) -> str:
        tr = self.layout.title_region
        return "\n".join([
            f"% {STAMP}",
            r"\documentclass[border=4pt]{standalone}",
            r"\usepackage{tikz}",
            r"\usetikzlibrary{shapes.geometric,arrows.meta}",
            r"\begin{document}",
            r"\begin{tikzpicture}[x=1pt, y=-1pt, font=\ttfamily\small, >={Stealth[length=5pt]}]",
            rf"\node[anchor=north west, font=\ttfamily\bfseries] at ({tr.x},{tr.y}) {{{title}}};",
        ]) + "\n"

    def group(self, box: Box, caption: str) -> str:
        return (rf"\draw[dashed] ({box.x},{box.y}) rectangle ({box.right},{box.bottom});" "\n"
                rf"\node[anchor=north west, font=\ttfamily\tiny] "
                rf"at ({box.x + 2},{box.y + 1}) {{{caption}}};" "\n")

    def edge(self, kind: str, route, at: tuple[int, int], term: str | None) -> str:
        path = " -- ".join([f"({x},{y})" for x, y in route])
        out = rf"\draw[{_TIKZ_ARROWS.get(kind, '->')}] {path};" "\n"
        if term is not None:
            out += rf"\node[font=\tiny, anchor=south] at ({at[0]},{at[1]}) {{${term}$}};" "\n"
        return out

    def node(self, glyph: GlyphSpec, box: Box, lines: list[str], badge: str | None) -> str:
        x, y, w, h = box
        style = _TIKZ_STYLES[glyph.primitive] + (", dashed" if glyph.dashed else "")
        text = r"\\ ".join([lines[0]] + [rf"{{\tiny {line}}}" for line in lines[1:]])
        out = (rf"\node[{style}, align=center, minimum width={w}pt, "
               rf"minimum height={h}pt] "
               rf"at ({x + w // 2},{y + h // 2}) {{{text}}};" "\n")
        if badge is not None:
            out += rf"\node[anchor=north east, font=\tiny] at ({x + w},{y}) {{{badge}}};" "\n"
        return out

    def table(self, box: Box, rows: list[str]) -> str:
        out = rf"\draw ({box.x},{box.y}) rectangle ({box.right},{box.bottom});" "\n"
        for i, row in enumerate(rows):
            out += (rf"\node[anchor=west, font=\ttfamily\scriptsize] "
                    rf"at ({box.x + 4},{box.y + 10 + 16 * i}) {{{row}}};" "\n")
        return out


def render_tikz(typed: TypedDiagram, layout: LayoutResult, out: io.TextIOBase | None = None) -> str | None:
    """Standalone-compilable TikZ with the same visual semantics as the SVG,
    written into ``out`` or returned as :func:`render_svg` does."""
    return _Tikz(typed, layout).write(out)
