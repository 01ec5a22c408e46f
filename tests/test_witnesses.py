"""Every diagnostic code has a witness: an input that makes the toolchain
report it. A code added to ``diagnostics.ERROR_CODES`` or ``lint.RULES``
without a row in :data:`WITNESSES` fails the test."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dial.cli import compile_file, compile_source
from dial.diagnostics import ERROR_CODES, RenderMismatch, SerializationError
from dial.interchange import canonical_serialize, deserialize
from dial.lint import RULES
from dial.model import validate_structure
from dial.registry import Registry
from dial.render import render_svg

LINT_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
BASE = "  data s: S\n  node p: POS\n  node n: NER\n  edge s -> p\n  edge p -> n\n"


def source(body: str) -> str:
    return 'dial 0.1\ndialect sys\ndiagram "witness" {\n' + body + "}\n"


def group(group_id: str, owner: str, *members: str) -> dict:
    return {"id": group_id, "owner": owner, "member_nodes": list(members),
            "member_edges": [], "entry_side": "left", "exit_side": "right"}


def _set(key: str, value):
    return lambda doc: doc.update({key: value})


# code -> ("source", DSL text) | ("document", edit of BASE's interchange
# document) | ("lint", fixture file) | ("layout", the source whose layout
# is handed to BASE's typed diagram)
WITNESSES: dict[str, tuple[str, object]] = {
    "E001": ("source", source("  node p: POS $\n")),
    "E002": ("source", source('  "node" p: POS\n')),
    "E003": ("source", source("  node p: POS\n  node p: NER\n")),
    "E004": ("source", source("  data x: S^Zebra\n")),
    "E010": ("source", source("  data s: S^Token\n  node b: bilstm\n  edge s -> b\n")),
    "E011": ("source", source("  embedding w (dim=3)\n  data a: S\n"
                              "  node p: proj(embedding=glove)\n  edge a -> p\n")),
    "E012": ("document", _set("groups", [group("g1", "p", "n"), group("g2", "n", "p")])),
    "E013": ("source", source("  data s: S\n  node p: POS\n  edge s |-> p\n")),
    "E014": ("document", _set("groups", [group("g1", "s", "p"), group("g2", "s", "p")])),
    "E020": ("document", _set("format_version", "9.9")),
    "E021": ("document", _set("edges", [{"id": "e0"}])),
    "E101": ("source", source("  node p: POS\n")),
    "E102": ("source", source("  data s: S\n  node e: EL\n  edge s -> e\n")),
    "E103": ("source", source("  data a: vec[3]\n  data b: vec[2,2]\n  node s: oplus\n"
                              "  edge a -> s\n  edge b -> s\n")),
    "E104": ("source", source("  data s: S\n  node p: POS\n  edge s -> p as Tuples\n")),
    "E105": ("source", source("  data s: vec[4]\n  node a: oplus\n  node b: concat\n"
                              "  edge s -> a\n  edge b -> a.in1\n  edge a -> b\n"
                              "  edge s -> b.in1\n")),
    "E301": ("layout", source("  data s: S\n  node p: POS\n  edge s -> p\n")),
    **{rule.code: ("lint", LINT_FIXTURES / f"{rule.code.lower()}.dial") for rule in RULES},
}


def reported(kind: str, witness) -> list[str]:
    """The codes ``witness`` makes the toolchain report."""
    if kind == "source":
        return [d.code for d in compile_source(witness).diagnostics]
    if kind == "lint":
        return [d.code for d in compile_file(str(witness)).lint()]
    base = compile_source(source(BASE))
    if kind == "layout":
        with pytest.raises(RenderMismatch) as exc:
            render_svg(base.typed, compile_source(witness).layout_result)
        return [str(exc.value)[:4]]
    doc = json.loads(canonical_serialize(base.diagram))
    witness(doc)
    try:
        diagram = deserialize(json.dumps(doc).encode())
    except SerializationError as exc:
        return [exc.diagnostic.code]
    return [d.code for d in validate_structure(diagram, Registry())[0]]


def test_every_code_has_a_witness():
    assert sorted(WITNESSES) == sorted([*ERROR_CODES, *(rule.code for rule in RULES)])
    missed = {}
    for code, (kind, witness) in WITNESSES.items():
        codes = reported(kind, witness)
        if code not in codes:
            missed[code] = codes
    assert missed == {}
