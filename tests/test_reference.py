"""The committed language reference must match regeneration."""

from __future__ import annotations

import re
from pathlib import Path

from dial.diagnostics import ERROR_CODES
from dial.reference import generate_reference, main


def test_reference_document_is_current():
    committed = Path("docs/reference.md").read_text(encoding="utf-8")
    assert committed == generate_reference(), \
        "docs/reference.md is stale; run python -m dial.reference docs/reference.md"


def test_reference_lists_everything():
    text = generate_reference()
    assert text.count("| W20") == 8
    assert text.count("| E0") + text.count("| E1") + text.count("| E3") == 17
    # 26 signature rows plus alternatives, 30 + 13 symbol rows
    assert "| ABD |" in text and "| POS |" in text
    assert "| hidden_bwd |" in text and "| zoom |" in text


def test_every_error_code_in_the_source_is_in_the_table():
    used = {code for path in Path("src/dial").glob("*.py") if path.name != "diagnostics.py"
            for code in re.findall(r'"(E\d{3})\b', path.read_text(encoding="utf-8"))}
    assert used == set(ERROR_CODES)


def test_main_writes_the_reference(tmp_path, capsys):
    target = tmp_path / "docs" / "reference.md"
    assert main([str(target)]) == 0
    assert target.read_text(encoding="utf-8") == generate_reference()
    assert capsys.readouterr().out == f"wrote {target}\n"
