"""Emitters: glyph table totality, determinism, structural fidelity."""

from __future__ import annotations

import gc
import io
import json
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dial.layout
from dial import __version__
from dial.cli import compile_file, compile_source, run
from dial.diagnostics import RenderMismatch
from dial.interchange import canonical_serialize, deserialize
from dial.layout import layout
from dial.model import Diagram, validate_structure
from dial.registry import SIGNATURES, Registry, Signature, list_symbols
from dial.render import (
    GLYPH_TABLE,
    SVG_MARKS,
    TIKZ_MARKS,
    GlyphSpec,
    _esc_tex,
    _Svg,
    _Tikz,
    glyph_for,
    render_svg,
    render_tikz,
)
from dial.typecheck import check_diagram
from oracles import (
    random_grouped_diagram,
    random_valid_source,
    reference_drawing,
    reference_esc_tex,
)

SYS = frozenset({"sys"})
BOTH = frozenset({"sys", "nn"})

# No corpus file reverses an edge, so this source adds a 3-cycle
# (m -> a -> b -> m), a self-loop, a recurrent edge and a second component.
CYCLIC = "\n".join([
    "dial 0.1", "dialect sys", 'diagram "cycles" {',
    "  data s: S^Token", "  node m: concat", "  node a: POS", "  node b: NER",
    "  node j: oplus", "  data t: S^Token", "  node p: POS",
    "  edge s -> m", "  edge m -> a", "  edge a -> b", "  edge b -> m",
    "  edge b -> j", "  edge j -> j", "  edge b ~> a", "  edge t -> p", "}", ""])


def compile_corpus(name: str):
    result = compile_file(f"corpus/pass/{name}.dial")
    assert result.typed is not None
    return result


# -- glyphs --------------------------------------------------------------------


def glyph(code: str, dialects: frozenset[str]) -> GlyphSpec:
    return glyph_for(Registry().resolve(code, dialects))


def test_fixed_glyph_assignments():
    assert glyph("dataset", SYS).primitive == "cylinder"
    assert glyph("cond", SYS).primitive == "diamond"
    assert glyph("encoder", SYS).primitive == "trapezoid-right"
    assert glyph("decoder", SYS).primitive == "trapezoid-left"
    assert glyph("gold", SYS).badge == "star"
    assert glyph("kbfn", SYS).badge == "f"
    assert glyph("classifier", SYS).badge == "C"
    assert glyph("gru", BOTH).badge == "GRU"
    assert glyph("gru", BOTH).mark == "lstm"  # shares the LSTM geometry


def test_glyph_totality():
    for dialect in ("sys", "nn"):
        for symbol in list_symbols(dialect):
            assert isinstance(glyph_for(symbol), GlyphSpec), symbol.code
    for sig in SIGNATURES:
        assert glyph_for(sig).primitive == "rectangle"
    assert glyph("kb", SYS).badge == "KB"


def test_every_registry_glyph_id_exists():
    for dialect in ("sys", "nn"):
        for symbol in list_symbols(dialect):
            assert symbol.glyph_id in GLYPH_TABLE, symbol.glyph_id


def test_marks_cover_both_backends():
    for glyph in GLYPH_TABLE.values():
        if glyph.mark is not None:
            assert glyph.mark in SVG_MARKS and glyph.mark in TIKZ_MARKS
        if glyph.badge is not None and glyph.badge not in ("C", "KB", "f", "+", "GRU"):
            assert glyph.badge in SVG_MARKS and glyph.badge in TIKZ_MARKS


# -- SVG ------------------------------------------------------------------------


def test_single_node_svg_structure():
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "one" {\n  data x: S\n}\n')
    svg = result.render("svg")
    assert svg.count('class="node-shape"') == 1
    assert svg.count('class="title"') == 1
    assert f"<!-- dialc v{__version__} -->" in svg


@pytest.mark.parametrize("name", ["qa_system", "lexicon_attention", "entailment"])
def test_svg_is_wellformed_xml(name):
    result = compile_corpus(name)
    svg = result.render("svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("name", ["qa_system", "lexicon_attention", "entailment"])
def test_shape_count_matches_model(name):
    result = compile_corpus(name)
    diagram = result.typed.diagram
    svg = result.render("svg")
    shapes = svg.count('class="node-shape"')
    groups = svg.count('class="group-box"')
    tables = svg.count('class="table-box"')
    titles = svg.count('class="title"')
    assert shapes == len(diagram.nodes)
    assert groups == len(diagram.groups)
    assert tables == len(diagram.tables)
    assert titles == 1


def test_lexicon_attention_has_two_table_regions():
    result = compile_corpus("lexicon_attention")
    svg = result.render("svg")
    assert svg.count('class="table-box"') == 2


GLYPHS = ('dial 0.1\ndialect sys\ndiagram "glyphs" {\n'
          "  data s: S\n  node c: cond\n  node e: encoder\n  node d: decoder\n"
          "  node r: rank(n=3)\n  node q: func\n  node z: func\n"
          "  edge s -> c\n  edge c -> e\n  edge c -> r\n  edge e -> d\n"
          "  edge d <-> z\n  edge r -> q\n}\n")
SVG_NS = "{http://www.w3.org/2000/svg}"


def test_polygon_glyphs_follow_their_boxes():
    result = compile_source(GLYPHS)
    assert result.diagnostics == []
    boxes = result.layout_result.node_boxes

    def corners(node_id, fractions):
        b = boxes[node_id]
        return " ".join(f"{b.x + b.w * fx // 4},{b.y + b.h * fy // 4}" for fx, fy in fractions)

    root = ET.fromstring(result.render("svg"))
    polygons = [p.get("points") for p in root.iter(f"{SVG_NS}polygon")]
    assert polygons == [
        corners("c", ((2, 0), (4, 2), (2, 4), (0, 2))),  # cond: a diamond
        corners("e", ((0, 0), (4, 1), (4, 3), (0, 4))),  # encoder: narrows to the right
        corners("d", ((0, 1), (4, 0), (4, 4), (0, 3))),  # decoder: widens to the right
    ]


def test_biflow_has_arrows_at_both_ends():
    root = ET.fromstring(compile_source(GLYPHS).render("svg"))
    lines = {line.get("class"): line for line in root.iter(f"{SVG_NS}polyline")}
    assert lines["edge edge-biflow"].get("marker-start") == "url(#arrow)"
    assert lines["edge edge-biflow"].get("marker-end") == "url(#arrow)"
    assert lines["edge edge-flow"].get("marker-start") is None


def test_sequence_term_shows_its_bound():
    # rank(n=3) emits a sequence of at most three elements
    result = compile_source(GLYPHS)
    svg = result.render("svg")
    assert ">[S]&#8804;3</text>" in svg
    labels = [t.text for t in ET.fromstring(svg).iter(f"{SVG_NS}text")
              if t.get("class") == "edge-term"]
    assert "[S]\u22643" in labels
    assert "{$[S]\\leq 3$}" in result.render("tikz")


def fresh_layout(result):
    """A layout of ``result`` built anew, apart from its cached one."""
    return layout(result.typed.diagram, result.typed.oriented, result.typed.reversed_edges)


def test_svg_deterministic():
    result = compile_corpus("entailment")
    a = render_svg(result.typed, result.layout_result)
    b = render_svg(result.typed, fresh_layout(result))
    assert a == b


def test_superscripts_in_svg():
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "sup" {\n'
        '  data x: S^NER\n  node c: COREF perf(acc=0.8@"d")\n  edge x -> c\n}\n')
    svg = result.render("svg")
    assert 'baseline-shift="super"' in svg and ">NER</tspan>" in svg


def test_integer_coordinates_only():
    result = compile_corpus("qa_system")
    svg = result.render("svg")
    for attr in re.findall(r'(?<![A-Za-z])(?:x|y|cx|cy|width|height|r)="([^"]+)"', svg):
        assert re.fullmatch(r"-?\d+", attr), attr


def test_mismatched_layout_is_e301():
    first = compile_corpus("entailment")
    other = compile_corpus("qa_system")
    with pytest.raises(RenderMismatch):
        render_svg(first.typed, other.layout_result)
    # the mismatch is found before anything is written into the stream
    for emit in (render_svg, render_tikz):
        out = io.StringIO()
        with pytest.raises(RenderMismatch):
            emit(first.typed, other.layout_result, out)
        assert out.getvalue() == ""
    # same nodes, one edge fewer: the layout routes no edge e1
    source = 'dial 0.1\ndialect sys\ndiagram "t" {\n  data x: S\n  node f: func\n%s}\n'
    both = compile_source(source % "  edge x -> f\n  edge x -> f.in1\n")
    one = compile_source(source % "  edge x -> f\n")
    with pytest.raises(RenderMismatch, match=r"missing \['e1'\]"):
        render_tikz(both.typed, one.layout_result)


# -- TikZ -----------------------------------------------------------------------


def test_empty_diagram_tikz_compilable_shell():
    result = compile_source('dial 0.1\ndialect sys\ndiagram "empty" { }\n')
    tikz = result.render("tikz")
    assert tikz.startswith(f"% dialc v{__version__}\n")
    assert r"\documentclass[border=4pt]{standalone}" in tikz
    assert tikz.count(r"\begin{tikzpicture}") == 1
    assert tikz.count(r"\end{tikzpicture}") == 1
    assert "empty" in tikz


def test_superscript_terms_in_tikz_math_mode():
    result = compile_source(
        'dial 0.1\ndialect sys\ndiagram "sup" {\n'
        '  data x: S^NER\n  node c: COREF perf(acc=0.8@"d")\n  edge x -> c\n}\n')
    tikz = result.render("tikz")
    assert "$S^{NER}$" in tikz


def test_tikz_deterministic():
    result = compile_corpus("lexicon_attention")
    a = render_tikz(result.typed, result.layout_result)
    b = render_tikz(result.typed, fresh_layout(result))
    assert a == b


def test_output_stable_under_hash_randomization():
    # set-iteration order must never leak into artifacts
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dial

    # the children must import the same dial as this process, and open the
    # corpus relative to the repository root wherever pytest was started
    package_root = str(Path(dial.__file__).resolve().parents[1])
    repo_root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    cyclic = CYCLIC
    assert compile_source(cyclic).layout_result.reversed_edges == {"e3", "e5"}
    script = (
        "from dial.cli import compile_file, compile_source\n"
        "import hashlib\n"
        "h = hashlib.sha256()\n"
        f"for r in (compile_file('corpus/pass/qa_system.dial'), compile_source({cyclic!r})):\n"
        "    assert not r.diagnostics, r.diagnostics\n"
        "    h.update((r.render('svg') + r.render('tikz')).encode())\n"
        "    h.update(repr(sorted(r.layout_result.reversed_edges)).encode())\n"
        "print(h.hexdigest())\n"
    )
    digests = set()
    for seed in ("0", "1", "424242"):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              cwd=repo_root,
                              env={**os.environ, "PYTHONHASHSEED": seed,
                                   "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


@pytest.mark.parametrize("name", ["qa_system", "lexicon_attention", "entailment", "cycles"])
def test_both_backends_draw_the_same_elements(name):
    result = compile_source(CYCLIC) if name == "cycles" else compile_corpus(name)
    diagram, lay = result.typed.diagram, result.layout_result
    svg, tikz = result.render("svg"), result.render("tikz")
    tikz_lines = tikz.splitlines()
    svg_counts = [svg.count('class="node-shape"'), svg.count('<polyline class="edge '),
                  svg.count('class="group-box"'), svg.count('class="table-box"')]
    tikz_counts = [sum(line.startswith(r"\node[draw, ") for line in tikz_lines),
                   sum(line.startswith((r"\draw[->", r"\draw[<->", r"\draw[|->"))
                       for line in tikz_lines),
                   sum(line.startswith(r"\draw[dashed] ") for line in tikz_lines),
                   sum(line.startswith(r"\draw (") for line in tikz_lines)]
    routed = sum(edge.id in lay.edge_routes for edge in diagram.edges)
    assert svg_counts == tikz_counts == [len(diagram.nodes), routed, len(diagram.groups),
                                         len(lay.table_regions)]
    assert routed  # lexicon_attention also has a group and two tables


def test_tikz_balanced_braces():
    for name in ("qa_system", "lexicon_attention", "entailment"):
        result = compile_corpus(name)
        tikz = result.render("tikz")
        assert tikz.count("{") == tikz.count("}"), name
        for line in tikz.splitlines():
            if line.startswith(("\\node", "\\draw")):
                assert line.rstrip().endswith(";"), line


# -- CompileResult back half ----------------------------------------------------


def test_one_layout_serves_lint_and_both_backends(monkeypatch):
    # the layout draws the checker's orientation, so the cycle test runs once too
    calls: Counter[str] = Counter()
    for name in ("layout", "break_cycles"):
        def counting(*args, name=name, real=getattr(dial.layout, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(dial.layout, name, counting)
    result = compile_corpus("lexicon_attention")
    assert result.lint() == []
    result.render("svg")
    result.render("tikz")
    assert calls == {"layout": 1, "break_cycles": 1}


def test_render_scans_no_node_list(monkeypatch):
    # pairing a 200-node layout with its diagram and finding the owners of
    # its 20 detail groups is one dict, not a scan per node or group
    n = 200
    decls = ["  data t0: S^Token"] + [f"  node t{i}: {('POS', 'NER', 'SRL')[i % 3]}"
                                      for i in range(1, n)]
    edges = [f"  edge t{i} -> t{i + 1}" for i in range(n - 1)]
    groups = [f"  detail g{i} for t{i} {{\n    data d{i}: S\n  }}" for i in range(1, n, 10)]
    result = compile_source("\n".join(
        ['dial 0.1', 'dialect sys', 'diagram "chain" {', *decls, *edges, *groups, "}"]) + "\n")
    assert result.diagnostics == []
    assert len(result.typed.diagram.groups) == 20
    assert len(result.layout_result.node_boxes) == n + 20
    calls = 0
    real = Diagram.node_by_id

    def counting(self, node_id):
        nonlocal calls
        calls += 1
        return real(self, node_id)

    monkeypatch.setattr(Diagram, "node_by_id", counting)
    result.render("svg")
    result.render("tikz")
    assert calls == 0


def chain_source(n: int) -> str:
    decls = ["  data t0: S^Token"] + [f"  node t{i}: {('POS', 'NER', 'SRL')[i % 3]}"
                                      for i in range(1, n)]
    edges = [f"  edge t{i} -> t{i + 1}" for i in range(n - 1)]
    return "\n".join(['dial 0.1', 'dialect sys', 'diagram "chain" {', *decls, *edges, "}"]) + "\n"


def peak_bytes(call) -> int:
    """tracemalloc peak of ``call()``, after one untraced warm-up call and a
    full collection, so that the peak does not depend on what earlier tests
    left in the free lists."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [300, 1000])
def test_render_streams_into_the_file(tmp_path, n):
    # `dial render` writes the document as it is drawn, so neither the
    # document nor an encoded copy is held whole: the command peaks within
    # 1.2x of the compile and layout it needs anyway
    text = chain_source(n)
    source = tmp_path / "chain.dial"
    source.write_text(text)
    compiled = peak_bytes(lambda: compile_source(text).layout_result)
    for fmt in ("svg", "tikz"):
        argv = ["render", str(source), "-o", str(tmp_path / f"chain.{fmt}"), "--format", fmt]
        rendered = peak_bytes(lambda: run(argv, stdout=io.StringIO(), stderr=io.StringIO()))
        assert rendered <= 1.2 * compiled, (fmt, rendered, compiled)


class _CountedWrites(io.StringIO):
    """A text stream that counts the calls to its ``write``."""

    calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        return super().write(text)


def test_render_writes_one_string_per_drawn_element():
    # the head, each of the 299 edges and 300 nodes, and the tail: one write
    # each, whatever number of lines the element takes
    result = compile_source(chain_source(300))
    for fmt in ("svg", "tikz"):
        sink = _CountedWrites()
        result.render(fmt, sink)
        assert sink.calls == 1 + 299 + 300 + 1, fmt
        assert sink.getvalue() == result.render(fmt), fmt


# -- work once per distinct value -------------------------------------------------


def test_each_distinct_edge_term_is_spelled_once(monkeypatch):
    result = compile_source(chain_source(300))
    distinct = set(result.typed.edge_terms.values())
    assert len(result.typed.edge_terms) == 299 and len(distinct) < 10
    for fmt, writer in (("svg", _Svg), ("tikz", _Tikz)):
        spelled = []

        def counting(term, real=writer.term):
            spelled.append(term)
            return real(term)

        monkeypatch.setattr(writer, "term", staticmethod(counting))
        result.render(fmt)
        assert len(spelled) == len(distinct), fmt


def test_validation_reads_each_code_arity_once(monkeypatch):
    diagram = compile_source(chain_source(300)).diagram
    reads: Counter[tuple[str, str]] = Counter()
    for name in ("max_in", "max_out"):
        def counting(sig, name=name, real=getattr(Signature, name).fget):
            reads[name, sig.code] += 1
            return real(sig)

        monkeypatch.setattr(Signature, name, property(counting))
    diagnostics, graph = validate_structure(diagram, Registry())
    assert diagnostics == [] and graph is not None
    assert reads == {(name, code): 1 for name in ("max_in", "max_out")
                     for code in ("POS", "NER", "SRL")}


def _decoded_params_diagram() -> Diagram:
    # three classifier edges carry C_0.0, C_-0.0 and C_[1, 2]: 0.0 and -0.0
    # are equal floats that print apart, and a list is unhashable
    src = ('dial 0.1\ndialect sys\ndiagram "d" {\n  data v: vec[3]\n'
           "  node a: classifier(class=1)\n  node b: classifier(class=1)\n"
           "  node c: classifier(class=1)\n  node o: func\n  edge v -> a\n  edge v -> b\n"
           "  edge v -> c\n  edge a -> o\n  edge b -> o.in1\n  edge c -> o.in2\n}\n")
    doc = json.loads(canonical_serialize(compile_source(src).diagram))
    for node, value in zip(doc["nodes"][1:], (0.0, -0.0, [1, 2])):
        node["params"] = [["class", value]]
    return deserialize(json.dumps(doc).encode())


def _checked_drawings():
    """(name, typed diagram, layout) of every diagram the differential test draws."""
    for path in sorted(Path("corpus/pass").glob("*.dial")):
        result = compile_file(str(path))
        yield str(path), result.typed, result.layout_result
    rng = random.Random(5)
    for i in range(1500):
        result = compile_source(random_valid_source(rng))
        if result.typed is not None:
            yield f"<random {i}>", result.typed, result.layout_result
    rng = random.Random(11)
    diagrams = [(f"<grouped {i}>", random_grouped_diagram(rng)) for i in range(1000)]
    for name, diagram in diagrams + [("<decoded params>", _decoded_params_diagram())]:
        graph = validate_structure(diagram, Registry())[1]
        if graph is not None:
            typed = check_diagram(diagram, graph, Registry())
            yield name, typed, layout(diagram, typed.oriented, typed.reversed_edges)


def test_drawing_matches_the_reference_walk():
    # the walk spells each distinct edge term once; the bytes stay those of
    # the walk that spelled every edge's term
    drawn: Counter[str] = Counter()
    for name, typed, lay in _checked_drawings():
        ours = render_svg(typed, lay), render_tikz(typed, lay)
        with reference_drawing():
            assert (render_svg(typed, lay), render_tikz(typed, lay)) == ours, name
        terms = [typed.edge_terms.get(e.id) for e in typed.diagram.edges]
        drawn[name.split()[0]] += 1
        drawn["repeated"] += len(set(terms) - {None}) < sum(t is not None for t in terms)
    assert drawn["corpus/pass/qa_system.dial"] == drawn["<decoded"] == 1
    assert drawn["<random"] > 500 and drawn["<grouped"] > 150 and drawn["repeated"] > 100, drawn


@given(st.text(st.one_of(st.sampled_from("\\&%$#_{}~^"), st.characters())))
@example("\\&%$#_{}~^ plain text")
def test_tex_escape_matches_the_per_character_reference(text):
    assert _esc_tex(text) == reference_esc_tex(text)
