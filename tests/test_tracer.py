"""The benchmark's tracer (``perfbench/tracer.py``) wraps the compiler's
stages where their callers look them up and reads some of their arguments
and results. A stage signature change that breaks one of those patch points
or observers fails here, not only in a traced benchmark run."""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

import dial.cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import SPANS, Tracer  # noqa: E402

QA = "corpus/pass/qa_system.dial"
NEVER_REACHED = {"parser.format_source", "render.render_tikz"}  # fmt, render --format tikz
# lint reads the main area's layering, so it reaches no full layout
NO_LAYOUT = {"layout.layout", "layout.order_within_layers"}


@pytest.mark.parametrize("argv, not_reached", [
    (["render", QA, "-o", "{out}"], {"lint.lint"}),
    (["lint", QA], {"render.render_svg"} | NO_LAYOUT),
    (["check", QA], {"lint.lint", "render.render_svg"} | NO_LAYOUT),
], ids=["render", "lint", "check"])
def test_tracer_records_every_stage_a_command_reaches(tmp_path, argv, not_reached):
    argv = [arg.format(out=tmp_path / "qa.svg") for arg in argv]
    tracer = Tracer()
    status = tracer.run(lambda: dial.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()))
    assert status == 0
    reached = set(SPANS) - NEVER_REACHED - not_reached
    assert sorted(name for name in reached if tracer.calls[name] == 0) == []
    assert sorted(name for name in not_reached if tracer.calls[name]) == []
    assert tracer.calls["typecheck.infer_output"] > 0
    assert ("layout.crossings" in tracer.stats) == ("layout.layout" in reached)
