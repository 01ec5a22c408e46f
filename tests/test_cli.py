"""End-to-end CLI contract: exit codes, stream discipline, JSON shape."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dial.cli import _build_parser, compile_file, run
from dial.diagnostics import ERROR_CODES, Diagnostic, Span, dump_json
from dial.terms import MAX_NESTING
from oracles import (mutate_source, random_front_end_source, random_valid_source,
                     reference_dump_json)

QA = "corpus/pass/qa_system.dial"
BROKEN = "corpus/fail/qa_missing_ner.dial"
LINT_FIXTURES = Path("tests/fixtures/lint")


def dial(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# -- check ---------------------------------------------------------------------


def test_check_clean_corpus():
    code, out, err = dial("check", QA)
    assert code == 0
    assert out == "" and err == ""


def test_check_broken_reports_e102_on_stderr():
    code, out, err = dial("check", BROKEN)
    assert code == 1
    assert out == ""
    assert "E102" in err


def test_check_json_goes_to_stdout_only():
    code, out, err = dial("check", "--json", BROKEN)
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert isinstance(payload, list) and payload
    assert set(payload[0]) == {"code", "severity", "file", "line", "col", "message"}
    assert payload[0]["code"] == "E102"
    assert payload[0]["severity"] == "error"
    assert payload[0]["file"] == BROKEN


def test_check_json_clean_is_empty_array():
    code, out, err = dial("check", "--json", QA)
    assert code == 0
    assert json.loads(out) == [] and err == ""


HEADER = 'dial 0.1\ndialect sys\ndiagram "ids" {\n'


@pytest.mark.parametrize("body, where", [
    # a detail group named like a node
    ("  node a: POS\n  node b: func\n  detail a for b {\n    data x: S\n  }\n",
     [("E101", 4, 3), ("E101", 5, 3)]),
    # a table named like a node
    ('  node n: POS\n  table n at bottom_right {\n    "k": "v";\n  }\n', [("E101", 4, 3)]),
    # a node named like e0, the id of the first edge
    ("  data s: S\n  node p: POS\n  edge s -> p\n  node e0: POS\n", [("E101", 7, 3)]),
    # an edge diagnostic and a group diagnostic, each with a node of the same id
    ("  data e0: S\n  node p: POS\n  edge e0 -> p as Tuples\n", [("E104", 6, 3)]),
    ("  data s: S\n  node g1: POS\n  edge s -> g1\n  detail g1 for x {\n    data x: S\n  }\n",
     [("E012", 7, 3), ("E012", 7, 3)]),
], ids=["group", "table", "edge", "edge_diagnostic", "group_diagnostic"])
def test_diagnostics_located_at_their_own_declaration(tmp_path, body, where):
    # nodes, edges, groups and tables are separate namespaces of ids
    src = tmp_path / "ids.dial"
    src.write_text(HEADER + body + "}\n")
    code, out, _ = dial("check", "--json", str(src))
    assert code == 1
    assert [(d["code"], d["line"], d["col"]) for d in json.loads(out)] == where


@pytest.mark.parametrize("rest, where", [
    ("{\n  node p: POS\n}\n", [("E101", 5, 3)]),
    ("{ $\n  node p: POS\n}\n", [("E001", 4, 6)]),
], ids=["node", "lexical"])
def test_positions_after_an_escaped_newline(tmp_path, rest, where):
    # the diagram name holds an escaped newline: line and column stay physical
    src = tmp_path / "escaped.dial"
    src.write_text('dial 0.1\ndialect sys\ndiagram "a\\\nb" ' + rest)
    code, out, _ = dial("check", "--json", str(src))
    assert code == 1
    assert [(d["code"], d["line"], d["col"]) for d in json.loads(out)] == where


def test_end_of_input_after_a_closing_comment(tmp_path):
    # the input ends in a comment with no newline: end of input is after it
    src = tmp_path / "comment.dial"
    src.write_text(HEADER + "  node a: POS // note")
    code, out, _ = dial("check", "--json", str(src))
    assert code == 1
    assert [(d["code"], d["line"], d["col"], d["message"]) for d in json.loads(out)] == [
        ("E002", 4, 22, "unexpected end of input, expected '}'")]


def test_labelled_distribution_reads_back(tmp_path):
    # a task whose range is a distribution passes its input's labels on; the
    # term the E104 message shows can be declared on the edge as written
    src = tmp_path / "dist.dial"
    body = ("  extend task Z { domain: C^ArgScheme; range: P_c[0,1]; }\n"
            "  data c: C^ArgScheme\n  node z: Z\n  node v: verify\n"
            "  edge c -> z\n  edge z -> v as ")
    src.write_text(HEADER + body + "S\n}\n")
    code, out, _ = dial("check", "--json", str(src))
    assert code == 1
    [diagnostic] = json.loads(out)
    assert diagnostic["code"] == "E104"
    carried = diagnostic["message"].split(" carries ")[1].split(":")[0]
    assert carried == "P_c[0,1]^ArgScheme"
    src.write_text(HEADER + body + carried + "\n}\n")
    assert dial("check", str(src)) == (0, "", "")


def test_check_multiple_files_aggregate():
    code, out, err = dial("check", QA, BROKEN)
    assert code == 1 and "E102" in err


def test_check_missing_file_is_usage_failure():
    code, out, err = dial("check", "no_such_file.dial")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["check", "lint"])
@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_unreadable_file_keeps_other_diagnostics(command, as_json):
    # the readable file's E010 is still reported, before or after the missing one
    flags = ["--json"] if as_json else []
    code, out, err = dial(command, "corpus/fail/unknown_code.dial", "no_such_file.dial",
                          *flags)
    assert code == 2
    assert err.count("cannot read") == 1 and "no_such_file.dial" in err
    if as_json:
        assert [d["code"] for d in json.loads(out)] == ["E010"]
    else:
        assert out == "" and "E010" in err


class _Writes(list):
    write = list.append


@given(st.lists(st.builds(
    Diagnostic, st.sampled_from([*ERROR_CODES, "W201", "W207"]), st.text(),
    st.none() | st.text(), st.none() | st.builds(Span, st.integers(1, 10**6),
                                                 st.integers(1, 10**6)))))
@example([])
@example([Diagnostic("E002", 'a "quote", a \\ and \x00\x1f\x7f\n\t, é ✓ \U0001f600',
                     'dir\\"x".dial', Span(3, 7))])
def test_json_diagnostics_are_one_write_of_the_chunked_bytes(diagnostics):
    # one string per call, byte for byte what json.dump wrote chunk by chunk
    writes, chunks = _Writes(), io.StringIO()
    dump_json(diagnostics, writes)
    reference_dump_json(diagnostics, chunks)
    assert len(writes) == 1 and writes[0] == chunks.getvalue()


# -- lint ----------------------------------------------------------------------


def test_lint_clean_pass():
    code, out, err = dial("lint", QA)
    assert code == 0 and err == ""


def test_lint_deny_warnings_escalates():
    fixture = str(LINT_FIXTURES / "w207.dial")
    code, _, err = dial("lint", fixture)
    assert code == 0 and "W207" in err
    code, _, err = dial("lint", "--deny", "warnings", fixture)
    assert code == 1


def test_lint_allow_disables_one_rule():
    fixture = str(LINT_FIXTURES / "w207.dial")
    code, _, err = dial("lint", "--deny", "warnings", "--allow", "W207", fixture)
    assert code == 0 and "W207" not in err


def test_lint_corpus_passes_deny_warnings():
    for name in ("qa_system", "lexicon_attention", "entailment"):
        code, _, err = dial("lint", "--deny", "warnings", f"corpus/pass/{name}.dial")
        assert code == 0, err


def test_lint_list():
    code, out, _ = dial("lint", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("W201")


# -- render --------------------------------------------------------------------


def test_render_svg(tmp_path):
    target = tmp_path / "qa.svg"
    code, out, err = dial("render", QA, "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("<?xml")


def test_render_tikz(tmp_path):
    target = tmp_path / "qa.tex"
    code, _, _ = dial("render", QA, "-o", str(target), "--format", "tikz")
    assert code == 0
    assert "\\begin{tikzpicture}" in target.read_text()


GOLDEN_SUFFIX = {"svg": "svg", "tikz": "tex"}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SUFFIX))
@pytest.mark.parametrize("name", sorted(p.stem for p in Path("corpus/pass").glob("*.dial")))
def test_rendered_file_is_the_golden(tmp_path, name, fmt):
    # the file `dial render` writes as it draws holds the same bytes as the
    # golden and as the document CompileResult.render returns
    source = f"corpus/pass/{name}.dial"
    target = tmp_path / f"{name}.{GOLDEN_SUFFIX[fmt]}"
    assert dial("render", source, "-o", str(target), "--format", fmt) == (0, "", "")
    written = target.read_bytes()
    assert written == Path(f"corpus/golden/{target.name}").read_bytes()
    assert written == compile_file(source).render(fmt).encode()


def test_render_refuses_on_errors(tmp_path):
    target = tmp_path / "broken.svg"
    code, out, err = dial("render", BROKEN, "-o", str(target))
    assert code == 1
    assert not target.exists()
    assert "refusing" in err


def test_render_debug_layout_goes_to_stderr(tmp_path):
    target = tmp_path / "qa.svg"
    code, out, err = dial("render", QA, "-o", str(target), "--debug-layout")
    assert code == 0
    assert out == ""
    assert "layer 0:" in err and "reversed:" not in err
    # a flow cycle: the edge that closes it, e2, is drawn backward
    cyclic = tmp_path / "cycle.dial"
    cyclic.write_text('dial 0.1\ndialect sys\ndiagram "cycle" {\n'
                      "  data x: T\n  node a: func\n  node b: func\n"
                      "  edge x -> a\n  edge a -> b\n  edge b -> a\n}\n")
    code, out, err = dial("render", str(cyclic), "-o", str(target), "--debug-layout")
    assert code == 0
    assert out == ""
    assert err.splitlines()[-1] == "  reversed: e2"


# -- fmt -----------------------------------------------------------------------


def test_fmt_stdout_and_idempotence(tmp_path):
    messy = tmp_path / "m.dial"
    messy.write_text('dial 0.1\ndialect sys\ndiagram "D" {\n node   a :POS\n}\n')
    code, out, err = dial("fmt", str(messy))
    assert code == 0 and "node a: POS" in out

    code, _, _ = dial("fmt", "--write", str(messy))
    assert code == 0
    first = messy.read_text()
    code, _, _ = dial("fmt", "--write", str(messy))
    assert messy.read_text() == first

    code, _, _ = dial("fmt", "--check", str(messy))
    assert code == 0


def test_fmt_check_flags_non_canonical(tmp_path):
    messy = tmp_path / "m.dial"
    messy.write_text('dial 0.1\ndialect sys\ndiagram "D" {\n node   a :POS\n}\n')
    code, _, _ = dial("fmt", "--check", str(messy))
    assert code == 1


SIDES_AND_PLACEMENTS = (
    'dial 0.1\ndialect sys\n\ndiagram "D" at bottom_right {\n  node f: POS\n'
    "  detail g for f entry top exit bottom {\n    node m: func\n  }\n"
    "  detail h for m exit left {\n  }\n"
    '  table t at top_left {\n    "k": "v";\n  }\n}\n')


def test_fmt_keeps_sides_and_placements(tmp_path):
    canonical = tmp_path / "c.dial"
    canonical.write_text(SIDES_AND_PLACEMENTS)
    assert dial("fmt", str(canonical)) == (0, SIDES_AND_PLACEMENTS, "")
    assert dial("fmt", "--check", str(canonical)) == (0, "", "")
    messy = tmp_path / "m.dial"
    messy.write_text(SIDES_AND_PLACEMENTS.replace(" at ", "  at ").replace(" exit ", "\nexit "))
    assert dial("fmt", "--check", str(messy)) == (1, "", "")
    assert dial("fmt", str(messy)) == (0, SIDES_AND_PLACEMENTS, "")


def test_fmt_syntax_error_exits_one(tmp_path):
    bad = tmp_path / "bad.dial"
    bad.write_text("dial 0.1 what\n")
    code, out, err = dial("fmt", str(bad))
    assert code == 1 and "E002" in err


# -- symbols -------------------------------------------------------------------


def test_symbols_nn_has_13_lines():
    code, out, err = dial("symbols", "--dialect", "nn")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 13


def test_symbols_sys_has_30_lines():
    code, out, _ = dial("symbols", "--dialect", "sys")
    assert len(out.strip().splitlines()) == 30


class _ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError


def test_closed_output_pipe_exits_two():
    assert run(["symbols"], stdout=_ClosedPipe(), stderr=io.StringIO()) == 2


def test_symbols_json():
    code, out, _ = dial("symbols", "--dialect", "nn", "--json")
    payload = json.loads(out)
    assert len(payload) == 13
    assert payload[0]["code"] == "loss"


# -- usage ----------------------------------------------------------------------


def test_no_command_is_usage_error():
    code, out, err = dial()
    assert code == 2


def test_unknown_command_is_usage_error():
    code, out, err = dial("frobnicate")
    assert code == 2


def test_render_requires_output():
    code, out, err = dial("render", QA)
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["lint"], "dial lint: at least one FILE is required"),
    (["render", "{tmp}/missing.dial", "-o", "{tmp}/out.svg"],
     "dial: cannot read {tmp}/missing.dial: "),
    (["render", QA, "-o", "{tmp}/no_dir/out.svg"], "dial: cannot write {tmp}/no_dir/out.svg: "),
    (["fmt", "{tmp}/missing.dial"], "dial: cannot read {tmp}/missing.dial: "),
], ids=["lint_without_file", "render_unreadable", "render_into_missing_dir",
        "fmt_unreadable"])
def test_exit_two_paths_write_nothing(tmp_path, argv, message):
    code, out, err = dial(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(message.format(tmp=tmp_path)) and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# -- the argument parser is built once per process ------------------------------


def test_parser_is_built_once(monkeypatch):
    dial("check", QA)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = dial("check", QA, "--json")
    assert code == 0 and json.loads(out) == []
    assert built == []


def test_lint_allow_does_not_leak_into_the_next_call():
    fixture = str(LINT_FIXTURES / "w207.dial")
    code, _, err = dial("lint", "--allow", "W207", fixture)
    assert code == 0 and "W207" not in err
    code, _, err = dial("lint", fixture)
    assert code == 0 and "W207" in err


def fresh_parser_output(argv: list[str]) -> tuple[str, str]:
    """What a newly built parser prints for ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit):
            _build_parser.__wrapped__().parse_args(argv)
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, status", [
    (["render", QA], 2),
    (["--help"], 0),
    (["lint", "--help"], 0),
], ids=["usage_error", "help", "subcommand_help"])
def test_parser_output_goes_to_each_calls_streams(argv, status):
    dial("check", QA)
    dial("lint", QA)
    expected_out, expected_err = fresh_parser_output(argv)
    assert dial(*argv) == (status, expected_out, expected_err)
    assert (expected_out if status == 0 else expected_err).startswith("usage: dial")


def test_installed_entry_point_runs():
    exe = shutil.which("dial")
    cmd = [exe] if exe else [sys.executable, "-m", "dial"]
    proc = subprocess.run([*cmd, "check", QA], capture_output=True, text=True,
                          cwd=Path.cwd())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SUFFIX))
def test_child_interpreter_renders_the_golden(tmp_path, fmt):
    # a real process through cli.main, writing a real file
    target = tmp_path / f"qa_system.{GOLDEN_SUFFIX[fmt]}"
    proc = subprocess.run([sys.executable, "-m", "dial", "render", QA, "-o", str(target),
                           "--format", fmt], capture_output=True, text=True, cwd=Path.cwd())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_bytes() == Path(f"corpus/golden/{target.name}").read_bytes()


@pytest.mark.parametrize("argv", [["check", "--json", "corpus/fail/syntax_recovery.dial"],
                                  ["lint", "--json", "corpus/fail/syntax_recovery.dial"],
                                  ["symbols", "--json"]], ids=["check", "lint", "symbols"])
def test_child_interpreter_writes_json_without_preloaded_modules(argv):
    # json is imported where --json output is written; this process has
    # loaded it already, so only a fresh interpreter (-S: no site start-up
    # imports) shows a missing import
    package_root = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-m", "dial", *argv], capture_output=True,
                          text=True, cwd=Path.cwd(), env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.stderr == ""
    rows = json.loads(proc.stdout)
    if argv[0] == "symbols":
        assert proc.returncode == 0 and rows
    else:
        expected = Path("corpus/fail/syntax_recovery.expect").read_text().split()
        assert (proc.returncode, [row["code"] for row in rows]) == (1, expected)


def test_no_color_env_is_respected(monkeypatch, tmp_path):
    # diagnostics carry no ANSI escapes when NO_COLOR is set, even on a tty
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setenv("NO_COLOR", "1")
    out, err = io.StringIO(), Tty()
    run(["check", BROKEN], stdout=out, stderr=err)
    assert "\x1b[" not in err.getvalue()
    monkeypatch.delenv("NO_COLOR")
    out, err = io.StringIO(), Tty()
    run(["check", BROKEN], stdout=out, stderr=err)
    assert "\x1b[" in err.getvalue()


# -- nesting limit -----------------------------------------------------------------


def nested_term_source(depth: int) -> str:
    term = "{" * depth + "S" + "}" * depth
    return "\n".join(["dial 0.1", "dialect sys", 'diagram "deep" {',
                      f"  data s: {term}", "  node f: func", f"  edge s -> f as {term}",
                      "}", ""])


def nested_detail_source(depth: int) -> str:
    lines = ["dial 0.1", "dialect sys", 'diagram "deep" {',
             "  data s0: S", "  node n0: func", "  edge s0 -> n0"]
    for i in range(depth):
        lines += [f"detail z{i} for n{i} {{", f"  data s{i + 1}: S",
                  f"  node n{i + 1}: func", f"  edge s{i + 1} -> n{i + 1}"]
    return "\n".join(lines + ["}"] * (depth + 1) + [""])


@pytest.mark.parametrize("make, depth, codes", [
    (nested_term_source, MAX_NESTING, []),
    (nested_term_source, MAX_NESTING + 1, ["E004", "E004"]),
    (nested_term_source, 3000, ["E004", "E004"]),
    (nested_detail_source, MAX_NESTING, []),
    (nested_detail_source, MAX_NESTING + 1, ["E002"]),
    (nested_detail_source, 1500, ["E002"]),
])
def test_nesting_limit_is_a_diagnostic(tmp_path, make, depth, codes):
    # past the limit: one diagnostic per offending term or block, never a
    # RecursionError, whatever the command
    src = tmp_path / "deep.dial"
    src.write_text(make(depth))
    svg = tmp_path / "deep.svg"
    code, out, _ = dial("check", "--json", str(src))
    assert [d["code"] for d in json.loads(out)] == codes
    for argv in (["check"], ["lint"], ["render", "-o", str(svg)], ["fmt"]):
        code, _, err = dial(*argv, str(src))
        assert code == (1 if codes else 0), (argv, err)
    assert svg.exists() == (not codes)


@pytest.mark.parametrize("arity, col", [
    ("1.5..2 -> 1..1", 28), ("1..2.0 -> 1..1", 31), ("1..2 -> 0.5..1", 36), ("1..2 -> 1..1.5", 39),
])
def test_fractional_arity_is_a_diagnostic(tmp_path, arity, col):
    # a bound with a decimal point is E002 at the number, whatever the command
    src = tmp_path / "arity.dial"
    src.write_text(f'dial 0.1\ndialect sys\ndiagram "D" {{\n  extend symbol z {{ arity: {arity}; }}\n}}\n')
    _, out, _ = dial("check", "--json", str(src))
    first = json.loads(out)[0]
    assert (first["code"], first["line"], first["col"]) == ("E002", 4, col)
    assert first["message"].endswith("arity must be a whole number")
    for argv in (["check"], ["lint"], ["render", "-o", str(tmp_path / "arity.svg")], ["fmt"]):
        code, _, err = dial(*argv, str(src))
        assert code == 1 and "arity must be a whole number" in err, (argv, err)


PASS_SOURCES = [p.read_text() for p in
                sorted(Path(__file__).resolve().parent.parent.glob("corpus/pass/*.dial"))]


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       make=st.sampled_from((random_front_end_source, random_valid_source,
                             lambda rng: rng.choice(PASS_SOURCES))),
       mutations=st.integers(0, 2))
def test_every_command_survives_generated_sources(rng, make, mutations):
    # generated and corpus sources, and byte or token mutations of them: each
    # command ends in a documented exit code without an exception, and fmt
    # output formats to itself
    source = make(rng)
    for _ in range(mutations):
        source = mutate_source(rng, source)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "gen.dial")
        path.write_text(source, encoding="utf-8")
        for argv in (["check"], ["lint"], ["render", "-o", str(Path(tmp, "gen.svg"))], ["fmt"]):
            code, out, err = dial(*argv, str(path))
            assert code in (0, 1, 2), (argv, err)
        if code == 0:
            path.write_text(out, encoding="utf-8")
            assert dial("fmt", str(path)) == (0, out, "")


def test_a_diagnostic_without_a_file_is_shown_at_its_ir_path():
    assert Diagnostic("E102", "m", ir_path="e0").render_human() == "e0: error E102: m"
