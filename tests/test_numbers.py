"""Every number the grammar admits ends in diagnostics.

A number may have at most ``MAX_DIGITS`` digits before its decimal point.
The bound is checked where a number is first read, before any ``int()``,
``float()`` or ``str()`` meets it: a longer number is E001 where the DSL
lexes it, E004 inside a quoted term, E011 in a port name. An ``oplus`` or
``concat`` sum that reaches ``10 ** MAX_DIGITS``, of dimensions or of
sequence length bounds, is E103. The file also runs
under ``python -X int_max_str_digits=640``, where a conversion before the
bound would fail on the 4,300-digit cases too.
"""

from __future__ import annotations

import io
import json
import re
import time

import pytest

from dial.cli import compile_source, run
from dial.interchange import SerializationError, canonical_serialize, deserialize
from dial.terms import MAX_DIGITS

HEADER = 'dial 0.1\ndialect sys, nn\ndiagram "n" {\n'

# Each site is a diagram body with ``{N}`` where the number goes, and the
# diagnostic code that a number with too many digits gives there.
SITES = {
    "param": ("  data a: vec[3]\n  node f: encoder(units={N})\n  edge a -> f\n", "E001"),
    "term_dim": ("  data a: vec[{N}]\n  node f: encoder\n  edge a -> f\n", "E001"),
    "dist_range_end": ("  data a: P_c[0,{N}]\n", "E001"),
    "perf_value": ("  data a: S\n  node f: POS perf(f1={N}@\"d\")\n  edge a -> f\n", "E001"),
    "embedding_dim": ("  embedding e(dim={N})\n  data a: vec[3]\n"
                      "  node p: proj(embedding=e)\n  edge a -> p\n", "E001"),
    "extend_arity": ("  extend symbol z { glyph: op_func; arity: 1..{N} -> 1..1; }\n"
                     "  data a: S\n  node f: z\n  edge a -> f\n", "E001"),
    "port_slot": ("  data a: S\n  data b: S\n  node f: otimes\n  edge a -> f\n"
                  "  edge b -> f.in{N}\n", "E011"),
    "quoted_out_term": ("  data a: S\n  node f: func(out=\"vec[{N}]\")\n  edge a -> f\n", "E004"),
}

# numbers by digit count: the bound, one past it, and both sides of CPython's
# default int_max_str_digits (4300)
DIGITS = [1, 18, 19, 4300, 4301, 10_000]
FLOAT = "9" * 400 + ".0"  # float("9" * 400) is infinite
VALUES = {f"{n}_digits": "9" * n for n in DIGITS} | {"float_400_digits": FLOAT}

COMMANDS = {"check": ["check"], "lint": ["lint"], "fmt": ["fmt"],
            "svg": ["render", "--format", "svg", "-o"],
            "tikz": ["render", "--format", "tikz", "-o"]}

_DIAGNOSTIC_RE = re.compile(r":(\d+):(\d+): error (E\d{3}): (.*)")


def _run(argv: list[str]) -> tuple[int, list[tuple[int, int, str, str]]]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    found = [(int(line), int(col), c, message)
             for line, col, c, message in _DIAGNOSTIC_RE.findall(err.getvalue())]
    return code, found


def _position(source: str, offset: int) -> tuple[int, int]:
    line = source.count("\n", 0, offset) + 1
    return line, offset - (source.rfind("\n", 0, offset) + 1) + 1


def _too_long(value: str) -> bool:
    return len(value.partition(".")[0]) > MAX_DIGITS


# a port name is an identifier, so it holds no decimal point
CASES = {f"{site}-{name}": (site, value) for site in SITES for name, value in VALUES.items()
         if not (site == "port_slot" and "." in value)}


@pytest.mark.parametrize("site, value", CASES.values(), ids=CASES)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_number_ends_in_diagnostics(tmp_path, command, site, value):
    body, code_when_long = SITES[site]
    source = HEADER + body.replace("{N}", value) + "}\n"
    path = tmp_path / "n.dial"
    path.write_text(source)
    output = [str(tmp_path / "out")] if command in ("svg", "tikz") else []
    exit_code, found = _run([*COMMANDS[command], *output, str(path)])
    assert exit_code in (0, 1, 2)
    number = [d for d in found
              if f"more than {MAX_DIGITS} digits" in d[3] or "bad port name" in d[3]]
    if not _too_long(value) or command == "fmt" and code_when_long != "E001":
        # fmt neither lowers nor checks, so it reads no port name or quoted term
        assert number == []
        return
    assert found and found[0][2] == code_when_long, found[:3]
    assert found[0] == number[0]
    if code_when_long == "E001":  # at the number itself
        assert found[0][:2] == _position(source, source.index(value))
    assert exit_code == 1


def test_a_sum_past_the_bound_is_e103(tmp_path):
    nines = "9" * MAX_DIGITS
    source = (HEADER + f"  data a: vec[{nines}]\n  data b: vec[{nines}]\n"
              "  node c: concat\n  edge a -> c\n  edge b -> c\n}\n")
    result = compile_source(source)
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E103", f"node 'c': concat gives dimension {2 * int(nines)}, "
                 f"more than {MAX_DIGITS} digits")]
    path = tmp_path / "sum.dial"
    path.write_text(source)
    assert _run(["check", str(path)]) == (1, [(6, 3, "E103", result.diagnostics[0].message)])
    out, err = io.StringIO(), io.StringIO()
    assert run(["render", "-o", str(tmp_path / "sum.svg"), str(path)],
               stdout=out, stderr=err) == 1
    assert "E103" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("last", ["9", "8"], ids=["reaches_the_bound", "stays_below"])
def test_a_dimension_sum_of_exactly_the_bound_is_e103(last):
    # 1 + (10 ** MAX_DIGITS - 1) has MAX_DIGITS + 1 digits; one less has not
    big = "9" * (MAX_DIGITS - 1) + last
    result = compile_source(HEADER + f"  data a: vec[1]\n  data b: vec[{big}]\n"
                            "  node c: concat\n  node v: verify\n"
                            "  edge a -> c\n  edge b -> c\n  edge c -> v\n}\n")
    total = 1 + int(big)
    if total < 10 ** MAX_DIGITS:
        assert result.diagnostics == []
        assert result.typed.edge_terms["e2"].dims == (total,)
    else:
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E103", f"node 'c': concat gives dimension {total}, more than {MAX_DIGITS} digits")]


@pytest.mark.parametrize("last", ["9", "8"], ids=["reaches_the_bound", "stays_below"])
def test_a_length_bound_sum_of_exactly_the_bound_is_e103(last):
    big = "9" * (MAX_DIGITS - 1) + last
    result = compile_source(HEADER + "  data a: {S}\n  node r1: rank(n=1)\n"
                            f"  node r2: rank(n={big})\n  node c: concat\n  node v: verify\n"
                            "  edge a -> r1\n  edge a -> r2\n  edge r1 -> c\n  edge r2 -> c\n"
                            "  edge c -> v\n}\n")
    total = 1 + int(big)
    if total < 10 ** MAX_DIGITS:
        assert result.diagnostics == []
        assert result.typed.edge_terms["e4"].max_len == total
    else:
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E103", f"node 'c': concat gives length bound {total}, "
                     f"more than {MAX_DIGITS} digits")]


def test_a_length_bound_past_the_bound_is_e103(tmp_path):
    # each concat joins eight copies of the sequence before it, so unbounded
    # length bounds would pass 640 digits by the last node and make render
    # raise under -X int_max_str_digits=640
    nines = "9" * MAX_DIGITS
    body = [f"  data a: {{S}}\n  node c0: rank(n={nines})\n  edge a -> c0\n"]
    for i in range(1, 721):
        body.append(f"  node c{i}: concat\n" + "".join(
            f"  edge c{i - 1} -> c{i}.in{slot}\n" for slot in range(8)))
    source = HEADER + "".join(body) + "}\n"
    result = compile_source(source)
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E103", f"node 'c1': concat gives length bound {2 * int(nines)}, "
                 f"more than {MAX_DIGITS} digits")]
    path = tmp_path / "length.dial"
    path.write_text(source)
    for command in ("check", "lint", "svg", "tikz"):
        output = [str(tmp_path / "out")] if command in ("svg", "tikz") else []
        assert _run([*COMMANDS[command], *output, str(path)]) == \
            (1, [(7, 3, "E103", result.diagnostics[0].message)])


def test_a_high_input_slot_costs_what_slot_0_costs(tmp_path):
    # an extension symbol's arity bounds its slot numbers, not the checker's
    # input list: that holds only the wired slots
    outcomes = {}
    for slot in ("0", "9" * (MAX_DIGITS - 1) + "8"):
        path = tmp_path / slot / "slot.dial"
        path.parent.mkdir()
        path.write_text(HEADER + "  extend symbol z { glyph: op_func; "
                        f"arity: 1..{'9' * MAX_DIGITS} -> 1..1; }}\n"
                        f"  data a: S\n  node f: z\n  edge a -> f.in{slot}\n}}\n")
        start = time.perf_counter()
        for command in ("check", "lint", "svg", "tikz"):
            output = [str(path.parent / "out")] if command in ("svg", "tikz") else []
            out, err = io.StringIO(), io.StringIO()
            code = run([*COMMANDS[command], *output, str(path)], stdout=out, stderr=err)
            outcomes.setdefault(command, []).append(
                (code, err.getvalue().replace(str(path), "slot.dial")))
        assert time.perf_counter() - start < 1.0
    for command, (at_0, at_high) in outcomes.items():
        assert at_0 == at_high, command
    assert outcomes["lint"][0][1].count("W205") == 1


def test_deserialize_reports_an_integer_too_long_to_decode():
    # json.loads raises a bare ValueError on an integer of more digits than
    # int_max_str_digits; deserialize promises E020 or E021
    result = compile_source(HEADER + "  embedding e(dim=3)\n}\n")
    doc = canonical_serialize(result.diagram).decode("utf-8")
    huge = json.dumps(json.loads(doc)).replace('"dim": 3', '"dim": 1' + "0" * 5000)
    assert "0" * 5000 in huge
    with pytest.raises(SerializationError) as caught:
        deserialize(huge.encode("utf-8"))
    assert caught.value.diagnostic.code == "E021"
