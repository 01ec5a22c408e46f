"""Corpus integration: expectations, goldens, vocabulary coverage."""

from __future__ import annotations

import shutil

import pytest

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
