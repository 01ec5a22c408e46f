"""Records: the immutable value type of every IR, AST and result record, and
the cold start it keeps cheap."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dial
from dial.cli import CompileResult
from dial.model import Diagram, EmbeddingDecl, Node, PerfAnnotation
from dial.record import Record, replace

for _module in pkgutil.iter_modules(dial.__path__):
    if _module.name != "__main__":
        importlib.import_module(f"dial.{_module.name}")
RECORDS = sorted((cls for cls in Record.__subclasses__() if cls.__module__.startswith("dial.")),
                 key=lambda cls: (cls.__module__, cls.__name__))
# field values the class checks; every other field gets a string naming it
VALID = {EmbeddingDecl: {"dim": 3}}


def sample(cls: type) -> dict:
    return {**{f: f"{cls.__name__}.{f}" for f in cls._fields}, **VALID.get(cls, {})}


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Span", "Diagnostic", "DataTerm", "Node", "SourceAst", "Box", "TypedDiagram",
            "LoweredUnit", "LayoutResult", "CaseResult"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = sample(cls)
    record = cls(**fields)
    # equal only to a record of the same type with equal fields
    twin_type = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields),
                                                "__module__": __name__})
    for other in (tuple(record), twin_type(*record)):
        assert record != other and other != record
        assert not (record == other or other == record)
    same = cls(*fields.values())
    assert record == same and not record != same and hash(record) == hash(same)
    assert replace(record) == record and type(replace(record)) is cls
    # immutable, and no room for new attributes
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "changed")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


@pytest.mark.parametrize("build", [
    lambda: PerfAnnotation("", 0.5, "test set"),
    lambda: PerfAnnotation("acc", 1.5, "test set"),
    lambda: EmbeddingDecl("w", 0),
    lambda: replace(EmbeddingDecl("w", 3), dim=0),
], ids=["metric", "acc", "dim", "replace_dim"])
def test_checked_fields_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_replace_changes_named_fields_only():
    node = Node("a", "task", "POS")
    assert replace(node, shape_class="feature", label="x") == \
        Node("a", "task", "POS", label="x", shape_class="feature")
    with pytest.raises(TypeError, match="no field 'colour'"):
        replace(node, colour="red")


@pytest.mark.parametrize("body", [
    {"__annotations__": {"a": "int", "b": "int"}, "a": 1},
    {"__annotations__": {"a": "list"}, "a": []},
], ids=["default_before_required", "mutable_default"])
def test_record_definitions_a_dataclass_would_refuse(body):
    with pytest.raises(TypeError):
        type("Bad", (Record,), {**body, "__module__": __name__})


def test_mutable_holders_get_fresh_containers():
    first, second = Diagram("a", frozenset({"sys"})), Diagram("b", frozenset({"sys"}))
    for name in ("nodes", "edges", "groups", "tables", "embeddings"):
        getattr(first, name).append(name)
        assert getattr(second, name) == [], name
    assert CompileResult("a").diagnostics is not CompileResult("b").diagnostics


def test_diagram_equality_compares_every_field():
    def build(**changes):
        return Diagram("d", frozenset({"sys"}), **{"nodes": [Node("a", "task", "POS")], **changes})
    assert build() == build()
    for changes in ({"nodes": []}, {"title_placement": "top_right"}):
        assert build() != build(**changes), changes


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # the CLI's import path defines its records without dataclasses, which
    # would pull in inspect, ast, dis and tokenize; nor does it load the
    # interchange codec, which no command uses. Layout orders by integer keys
    # (no fractions, and with it decimal and numbers), diagnostics imports
    # json only to write --json output, annotations need no typing, and the
    # CLI opens its files without pathlib
    unused = {"dataclasses", "inspect", "dial.interchange", "fractions", "decimal", "numbers",
              "json", "typing", "pathlib"}
    package_root = str(Path(dial.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    script = ("import sys\nimport dial.cli\nfrom dial.registry import Registry\nRegistry()\n"
              f"print(sorted({unused!r} & set(sys.modules)))\n")
    # -S: no site start-up, whose imports depend on the interpreter's install
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
