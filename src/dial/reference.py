"""Generates the language reference: every task signature, every symbol with
its glyph, the data categories, the diagnostic codes, and the lint rules.

``python -m dial.reference [OUT.md]`` writes the document; the test suite
regenerates it and compares, so the committed copy never drifts.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import __version__
from .diagnostics import ERROR_CODES
from .lint import RULES
from .registry import ANNOTATION_LABELS, DIALECTS, Slot, list_signatures, list_symbols
from .render import GLYPH_TABLE, SVG_MARKS
from .terms import DATA_CATEGORIES, MAX_NESTING, DataTerm, format_term


def _pattern_text(term: DataTerm, optional: frozenset[str]) -> str:
    """A slot's pattern, its optional labels after each plain term in it."""
    suffix = "^(" + ",".join(sorted(optional)) + ")" if optional else ""
    return format_term(term, lambda plain: format_term(plain) + suffix)


def _slot_list(slots: tuple[Slot, ...]) -> str:
    parts = []
    for slot in slots:
        text = _pattern_text(slot.term, slot.optional)
        if slot.is_resource:
            text += " (resource)"
        if slot.optional_term:
            text = f"({text})"
        parts.append(text)
    return ", ".join(parts)


def generate_reference() -> str:
    out: list[str] = []
    add = out.append
    add(f"# The dial language reference (toolchain v{__version__})")
    add("")
    add("Generated by `python -m dial.reference`; do not edit by hand.")
    add("")

    add("## Task signatures (dialect sys)")
    add("")
    add("| code | task | domain | range |")
    add("|---|---|---|---|")
    for sig in list_signatures("sys"):
        for i, (domain, rng) in enumerate(sig.variants):
            code = sig.code if i == 0 else ""
            name = sig.name if i == 0 else "(alternative)"
            add(f"| {code} | {name} | {_slot_list(domain)} | {_slot_list(rng)} |")
    add("")
    add("Superscripts in parentheses are optional annotations; a term in")
    add("parentheses is an optional input or output. Resource inputs must be")
    add("wired from stored-resource nodes (datasets, gold standards,")
    add("knowledge bases).")
    add("")

    for dialect in DIALECTS:
        add(f"## Symbols (dialect {dialect})")
        add("")
        add("| code | glyph | geometry | arity in/out | meaning |")
        add("|---|---|---|---|---|")
        for sym in list_symbols(dialect):
            glyph = GLYPH_TABLE[sym.glyph_id]
            mark = SVG_MARKS.get(glyph.mark, "") if glyph.mark else ""
            geometry = glyph.primitive
            if glyph.badge:
                geometry += f" + {SVG_MARKS.get(glyph.badge, glyph.badge)} badge"
            if glyph.dashed:
                geometry += ", dashed"
            arity = (f"{sym.min_in}..{sym.max_in} / {sym.min_out}..{sym.max_out}"
                     if sym.max_in or sym.max_out else "(notation)")
            add(f"| {sym.code} | {mark} | {geometry} | {arity} | {sym.name} |")
        add("")
    add("The auxiliary resource code `kb` (cylinder with a KB badge) resolves")
    add("in every diagram for knowledge-base nodes and the `@kb` source tag.")
    add("")

    add("## Data categories")
    add("")
    add("| code | spelled | description |")
    add("|---|---|---|")
    for cat in DATA_CATEGORIES:
        extended = "" if cat.core else " (extended)"
        add(f"| {cat.code} | {cat.spelled or cat.code} | {cat.description}{extended} |")
    add("")
    add("Registered annotation labels: " + ", ".join(sorted(ANNOTATION_LABELS)) + ".")
    add("")
    add("Annotation accumulation: a stage's output keeps every label carried")
    add("by same-category inputs and adds the labels its signature")
    add("introduces, so stacked taggers produce terms such as S^{POS,Chunk}.")
    add("")

    add("## Diagnostics")
    add("")
    add("| code | meaning |")
    add("|---|---|")
    for code, meaning in ERROR_CODES.items():
        add(f"| {code} | {meaning} |")
    for rule in RULES:
        add(f"| {rule.code} | {rule.description} |")
    add("")
    add(f"Nesting limit: data-term brackets and detail blocks nest at most {MAX_NESTING}")
    add("deep. A deeper data term is E004 and a deeper detail block E002; the")
    add("parser skips the offending term or block and goes on.")
    add("")
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    target = Path(argv[0]) if argv else Path("docs/reference.md")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(generate_reference(), encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
