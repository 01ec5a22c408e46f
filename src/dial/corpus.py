"""Corpus runner: compiles every authored example, compares diagnostics to
the sidecar expectations, and compares rendered bytes to the golden files.

Layout on disk:

  corpus/pass/NAME.dial     compiles with zero errors and zero warnings
  corpus/fail/NAME.dial     exercises one diagnostic
  corpus/NAME.expect        sidecar: expected codes, one per line
  corpus/golden/NAME.svg    frozen renderer output (pass cases only)
  corpus/golden/NAME.tex

Golden files change only with an explicit toolchain version bump.
"""

from __future__ import annotations

from pathlib import Path

from .cli import CompileResult, compile_file
from .record import Record
from .registry import list_signatures, list_symbols

DEFAULT_ROOT = Path(__file__).resolve().parents[2] / "corpus"


class CorpusCase(Record):
    name: str
    source: Path
    expect: Path
    should_pass: bool
    golden_svg: Path | None = None
    golden_tikz: Path | None = None


class CaseResult(Record):
    case: CorpusCase
    failures: list[str]  # empty when the case passes
    codes: list[str]
    result: CompileResult

    @property
    def ok(self) -> bool:
        return not self.failures


class CorpusReport(Record):
    results: list[CaseResult]
    sys_codes: frozenset[str]
    nn_codes: frozenset[str]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def discover(root: Path = DEFAULT_ROOT) -> list[CorpusCase]:
    cases: list[CorpusCase] = []
    for bucket, should_pass in (("pass", True), ("fail", False)):
        for source in sorted((root / bucket).glob("*.dial")):
            name = source.stem
            golden_svg = root / "golden" / f"{name}.svg"
            golden_tikz = root / "golden" / f"{name}.tex"
            cases.append(CorpusCase(
                name=name,
                source=source,
                expect=source.with_suffix(".expect"),
                should_pass=should_pass,
                golden_svg=golden_svg if should_pass else None,
                golden_tikz=golden_tikz if should_pass else None,
            ))
    return cases


def run_case(case: CorpusCase) -> CaseResult:
    result = compile_file(str(case.source))
    codes = [d.code for d in result.diagnostics]

    out = CaseResult(case, [], codes, result)

    expected = case.expect.read_text(encoding="utf-8") if case.expect.exists() else ""
    actual = "".join(f"{code}\n" for code in codes)
    if actual != expected:
        out.failures.append(
            f"diagnostic codes {codes} do not match {case.expect.name}")

    if case.should_pass:
        if result.typed is None:
            out.failures.append("expected a clean compile")
            return out
        warnings = result.lint()
        if warnings:
            out.failures.append(
                "lint warnings on a pass case: " + " ".join(d.code for d in warnings))
        for golden, kind in ((case.golden_svg, "svg"), (case.golden_tikz, "tikz")):
            if not golden.exists():
                out.failures.append(f"missing golden {kind} file {golden.name}")
            elif golden.read_bytes() != result.render(kind).encode("utf-8"):
                out.failures.append(f"{kind} output differs from {golden.name}")
    return out


def write_goldens(root: Path = DEFAULT_ROOT) -> list[Path]:
    """Regenerate the golden files (explicit version bumps only)."""
    written: list[Path] = []
    (root / "golden").mkdir(exist_ok=True)
    for case in discover(root):
        if not case.should_pass:
            continue
        result = compile_file(str(case.source))
        if result.typed is None:
            raise RuntimeError(f"{case.name} no longer compiles")
        case.golden_svg.write_bytes(result.render("svg").encode("utf-8"))
        case.golden_tikz.write_bytes(result.render("tikz").encode("utf-8"))
        written.extend([case.golden_svg, case.golden_tikz])
    return written


def used_codes(results: list[CaseResult]) -> tuple[frozenset[str], frozenset[str]]:
    """Registry codes exercised by the pass cases, split by dialect."""
    sys_codes: set[str] = set()
    nn_codes: set[str] = set()
    sys_entries = {s.code for s in list_symbols("sys") + list_signatures("sys")}
    nn_symbols = {s.code for s in list_symbols("nn")}
    for item in results:
        if not item.case.should_pass or item.result.diagram is None:
            continue
        diagram = item.result.diagram
        for node in diagram.nodes:
            if node.code in sys_entries:
                sys_codes.add(node.code)
            if node.code in nn_symbols:
                nn_codes.add(node.code)
        for edge in diagram.edges:
            if edge.flow_kind != "recurrent":  # every other flow kind is a symbol code
                sys_codes.add(edge.flow_kind)
        if diagram.groups:
            sys_codes.add("zoom")
        if any(node.perf for node in diagram.nodes):
            sys_codes.add("acc")
    return frozenset(sys_codes), frozenset(nn_codes)


def corpus_suite(root: Path = DEFAULT_ROOT) -> CorpusReport:
    results = [run_case(case) for case in discover(root)]
    sys_codes, nn_codes = used_codes(results)
    return CorpusReport(results, sys_codes, nn_codes)


def main() -> int:
    report = corpus_suite()
    for item in report.results:
        status = "ok" if item.ok else "FAIL"
        print(f"{status:4} {item.case.name}" + ("" if item.ok else f"  {item.failures}"))
    print(f"coverage: {len(report.sys_codes)} sys codes, {len(report.nn_codes)} nn codes")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
