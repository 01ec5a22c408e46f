"""Corpus integration: expectations, goldens, vocabulary coverage."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from dial import corpus
from dial.corpus import DEFAULT_ROOT, corpus_suite, discover, run_case, write_goldens

CASES = discover()


def test_layout_on_disk():
    names = {c.name for c in CASES}
    assert {"qa_system", "lexicon_attention", "entailment"} <= names
    for case in CASES:
        assert case.expect.exists(), f"missing {case.expect}"


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_case(case):
    outcome = run_case(case)
    assert outcome.ok, outcome.failures


def test_pass_cases_have_goldens():
    for case in CASES:
        if case.should_pass:
            assert case.golden_svg.exists() and case.golden_tikz.exists()


def test_coverage_thresholds():
    report = corpus_suite()
    assert report.ok
    assert len(report.sys_codes) >= 20, sorted(report.sys_codes)
    assert len(report.nn_codes) >= 8, sorted(report.nn_codes)


def test_goldens_carry_version_stamp():
    for case in CASES:
        if not case.should_pass:
            continue
        assert b"dialc v" in case.golden_svg.read_bytes()[:120]
        assert case.golden_tikz.read_bytes().startswith(b"% dialc v")


def test_write_goldens_reproduces_the_committed_goldens(tmp_path):
    # the regenerator for version bumps, run on a copy with its goldens removed
    root = tmp_path / "corpus"
    shutil.copytree(DEFAULT_ROOT, root)
    shutil.rmtree(root / "golden")
    written = write_goldens(root)
    committed = sorted((DEFAULT_ROOT / "golden").iterdir())
    assert sorted(p.name for p in written) == [p.name for p in committed]
    assert sorted((root / "golden").iterdir()) == sorted(written)
    for path in committed:
        assert (root / "golden" / path.name).read_bytes() == path.read_bytes(), path.name


UNKNOWN_CODE = 'dial 0.1\ndialect sys\ndiagram "D" {\n  node a: Bogus\n}\n'


@pytest.fixture
def corpus_copy(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(DEFAULT_ROOT, root)
    return root


def test_run_case_reports_each_failure(corpus_copy):
    root = corpus_copy
    (root / "fail" / "bad_term.expect").write_text("E999\n")
    (root / "pass" / "qa_system.dial").write_text(UNKNOWN_CODE)
    # compiles clean, but lints and draws something else than the goldens
    shutil.copy(Path("tests/fixtures/lint/w207.dial"), root / "pass" / "entailment.dial")
    (root / "golden" / "lexicon_attention.svg").unlink()
    tex = root / "golden" / "lexicon_attention.tex"
    tex.write_bytes(tex.read_bytes() + b"%\n")
    failures = {case.name: run_case(case).failures for case in discover(root)}
    assert failures == {
        "bad_term": ["diagnostic codes ['E004'] do not match bad_term.expect"],
        "dim_conflict": [],
        "qa_missing_ner": [],
        "syntax_recovery": [],
        "unknown_code": [],
        "qa_system": ["diagnostic codes ['E010'] do not match qa_system.expect",
                      "expected a clean compile"],
        "entailment": ["lint warnings on a pass case: W207",
                       "svg output differs from entailment.svg",
                       "tikz output differs from entailment.tex"],
        "lexicon_attention": ["missing golden svg file lexicon_attention.svg",
                              "tikz output differs from lexicon_attention.tex"],
    }


def test_write_goldens_refuses_a_pass_case_that_fails(corpus_copy):
    (corpus_copy / "pass" / "qa_system.dial").write_text(UNKNOWN_CODE)
    with pytest.raises(RuntimeError, match="qa_system no longer compiles"):
        write_goldens(corpus_copy)


def test_main_reports_every_case(capsys):
    assert corpus.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"ok   {case.name}" for case in CASES]
    assert lines[-1].startswith("coverage: ")


def test_main_fails_on_a_failing_case(corpus_copy, monkeypatch, capsys):
    (corpus_copy / "pass" / "qa_system.dial").write_text(UNKNOWN_CODE)
    # corpus_suite's root default was bound when it was defined, so route the call
    real_suite = corpus.corpus_suite
    monkeypatch.setattr(corpus, "corpus_suite", lambda: real_suite(corpus_copy))
    assert corpus.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL qa_system  [\"diagnostic codes ['E010'] do not match qa_system.expect\", "
        "'expected a clean compile']"]
