"""Workload inputs for the benchmark, and the expected result of every job.

A job is one CLI invocation: an input text, a command from ``COMMANDS`` and a
``verify`` function. Expected results come from the corpus sidecars and
goldens, or from the generator that wrote the input, never from the compiler
under test.

Synthetic inputs are drawn from ``random.Random(seed)``: the seed changes
identifiers, node codes, asserted terms and perf numbers, never the size, so
every seed costs the compiler about the same.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Argument lists for dial.cli.run; {src} is the input file, {out} the artifact.
COMMANDS: dict[str, list[str]] = {
    "check": ["check", "{src}", "--json"],
    "lint": ["lint", "{src}", "--json"],
    "svg": ["render", "{src}", "-o", "{out}"],
    "tikz": ["render", "{src}", "-o", "{out}", "--format", "tikz"],
    "fmt": ["fmt", "{src}"],
}

DEFAULT_SEED = 1
CHAIN_REV_NODES = 80
CHAIN_FWD_NODES = 300
WIDE_PIPELINES = 75
INPUTS_PER_SEED = 2


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str
    artifact: bytes | None  # the render output file, None when none was written


@dataclass(frozen=True)
class Job:
    case: str  # input name; the input is written to <case>.dial
    text: str
    elems: int  # nodes plus edges declared in the input
    command: str
    verify: Callable[[Outcome], str | None]  # a reason on mismatch, else None


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]  # the timed mix, run in this order
    coverage: list[Job]  # commands the mix lacks, run once per traced pass
    peak: Job  # the job whose allocation peak is reported


def _json_codes(outcome: Outcome) -> list[str] | None:
    try:
        return [d["code"] for d in json.loads(outcome.stdout)]
    except (ValueError, KeyError, TypeError):
        return None


def _expect_codes(rc: int, codes: list[str]) -> Callable[[Outcome], str | None]:
    def verify(outcome: Outcome) -> str | None:
        got = _json_codes(outcome)
        if outcome.rc != rc or got != codes:
            return f"exit {outcome.rc} codes {got}; expected exit {rc} codes {codes}"
        return None
    return verify


def _expect_artifact(check: Callable[[bytes], str | None]) -> Callable[[Outcome], str | None]:
    def verify(outcome: Outcome) -> str | None:
        if outcome.rc != 0 or outcome.artifact is None:
            return f"exit {outcome.rc}, artifact written: {outcome.artifact is not None}"
        return check(outcome.artifact)
    return verify


def _refuse_render(outcome: Outcome) -> str | None:
    if outcome.rc != 1 or outcome.artifact is not None:
        return f"exit {outcome.rc}, artifact written: {outcome.artifact is not None}"
    return None


def _equal_bytes(expected: bytes, what: str) -> Callable[[bytes], str | None]:
    return lambda data: None if data == expected else f"bytes differ from {what}"


# ---------------------------------------------------------------------------
# corpus_cli
# ---------------------------------------------------------------------------

_DECL_RE = re.compile(r"^\s*(node|data|edge)\s", re.MULTILINE)


def corpus_workload(root: Path) -> Workload:
    """Every corpus file through check, lint, render (svg, tikz) and fmt."""
    from dial.parser import format_source

    def fmt_idempotent(outcome: Outcome) -> str | None:
        if outcome.rc != 0:
            return f"fmt exit {outcome.rc}"
        again, _ = format_source(outcome.stdout)
        return None if again == outcome.stdout else "fmt output is not a fixed point"

    def fmt_refused(outcome: Outcome) -> str | None:
        return None if outcome.rc == 1 and not outcome.stdout else f"fmt exit {outcome.rc}"

    jobs: list[Job] = []
    for bucket in ("pass", "fail"):
        sources = sorted((root / "corpus" / bucket).glob("*.dial"))
        if not sources:
            raise FileNotFoundError(f"no corpus files under corpus/{bucket}")
        for source in sources:
            text = source.read_text(encoding="utf-8")
            codes = source.with_suffix(".expect").read_text(encoding="utf-8").split()
            elems = len(_DECL_RE.findall(text))
            rc = 1 if any(c.startswith("E") for c in codes) else 0
            if bucket == "pass":
                golden = root / "corpus" / "golden" / source.stem
                svg = _expect_artifact(_equal_bytes(golden.with_suffix(".svg").read_bytes(),
                                                    f"{source.stem}.svg"))
                tikz = _expect_artifact(_equal_bytes(golden.with_suffix(".tex").read_bytes(),
                                                     f"{source.stem}.tex"))
            else:
                svg = tikz = _refuse_render
            # fmt only parses, so only lexical and syntax errors stop it
            syntax_error = any(c in ("E001", "E002") for c in codes)
            verifiers = {
                "check": _expect_codes(rc, codes),
                "lint": _expect_codes(rc, codes),
                "svg": svg,
                "tikz": tikz,
                "fmt": fmt_refused if syntax_error else fmt_idempotent,
            }
            jobs.extend(Job(source.stem, text, elems, command, verify)
                        for command, verify in verifiers.items())
    largest = max(jobs, key=lambda j: j.elems).case
    peak = next(j for j in jobs if j.case == largest and j.command == "svg")
    return Workload(jobs, [], peak)


# ---------------------------------------------------------------------------
# Synthetic inputs
# ---------------------------------------------------------------------------

# Task codes a sentence stream passes through, with the labels each adds.
_CHAIN_LABELS = {"POS": ("POS",), "NER": ("Names", "NER"), "SRL": ("Sem", "SRL")}


@dataclass(frozen=True)
class Synthetic:
    """A generated input and the counts its outputs must show."""

    name: str
    text: str
    nodes: int
    edges: int
    groups: int
    w207: int  # task nodes without a perf annotation

    def jobs(self, digests: dict[str, str] | None) -> dict[str, Job]:
        def render_check(kind: str, counts: dict[str, int]) -> Callable[[bytes], str | None]:
            def check(data: bytes) -> str | None:
                if digests is not None:
                    got = hashlib.sha256(data).hexdigest()
                    return None if got == digests[kind] else f"{kind} digest {got[:12]} is not pinned"
                text = data.decode("utf-8")
                for marker, want in counts.items():
                    if text.count(marker) != want:
                        return f"{text.count(marker)} x {marker!r}, expected {want}"
                return None
            return check

        svg = {'<polyline class="edge ': self.edges, 'class="edge-term"': self.edges,
               'class="node-shape"': self.nodes, 'class="group-box"': self.groups}
        tikz = {"\\draw[->]": self.edges, "\\node[draw": self.nodes,
                "\\draw[dashed]": self.groups}

        def fmt_identity(outcome: Outcome) -> str | None:
            # the generator writes canonical text, so fmt must return it unchanged
            if outcome.rc != 0 or outcome.stdout != self.text:
                return f"fmt exit {outcome.rc}, output differs from the canonical input"
            return None

        verifiers = {
            "check": _expect_codes(0, []),
            "lint": _expect_codes(0, ["W207"] * self.w207),
            "svg": _expect_artifact(render_check("svg", svg)),
            "tikz": _expect_artifact(render_check("tikz", tikz)),
            "fmt": fmt_identity,
        }
        return {command: Job(self.name, self.text, self.nodes + self.edges, command, verify)
                for command, verify in verifiers.items()}


def _ident(rng: random.Random, prefix: str, index: int) -> str:
    return f"{prefix}{index}_{rng.randrange(16 ** 4):04x}"


def _source(title: str, body: list[str]) -> str:
    return "\n".join(["dial 0.1", "dialect sys", "", f'diagram "{title}" {{', *body, "}"]) + "\n"


def _term(labels) -> str:
    return "S^{" + ",".join(sorted(labels)) + "}"


def chain(rng: random.Random, name: str, n: int, reverse: bool) -> Synthetic:
    """A linear chain of sentence-level tasks fed by one S^Token source.

    Three edges carry an ``as`` assertion: the last one states every label
    accumulated along the chain, two random ones a random subset of theirs.
    ``reverse`` declares nodes and edges back to front.
    """
    ids = ["src_" + _ident(rng, "d", 0)] + [_ident(rng, "t", i) for i in range(1, n)]
    codes = [rng.choice(sorted(_CHAIN_LABELS)) for _ in range(1, n)]
    carried = [{"Token"}]  # labels on the output of each node
    for code in codes:
        carried.append(carried[-1] | set(_CHAIN_LABELS[code]))
    asserted = {n - 2: carried[n - 2]}
    for edge in rng.sample(range(n - 2), 2):
        pool = sorted(carried[edge])
        asserted[edge] = set(rng.sample(pool, rng.randint(1, len(pool))))
    decls = [f"  data {ids[0]}: S^Token"] + [f"  node {i}: {c}" for i, c in zip(ids[1:], codes)]
    edges = []
    for k in range(n - 1):  # edge k runs from node k to node k + 1
        line = f"  edge {ids[k]} -> {ids[k + 1]}"
        if k in asserted:
            line += " as " + _term(asserted[k])
        edges.append(line)
    if reverse:
        decls.reverse()
        edges.reverse()
    return Synthetic(name, _source(f"{name} chain", decls + edges), n, n - 1, 0, n - 1)


def wide(rng: random.Random, name: str, pipelines: int) -> Synthetic:
    """Independent data -> POS -> NER pipelines; every 4th NER has a detail block.

    NER carries a perf annotation and POS does not, so W207 fires once per
    pipeline.
    """
    body: list[str] = []
    nodes = edges = groups = 0
    for i in range(pipelines):
        d, p, e = (_ident(rng, prefix, i) for prefix in ("d", "p", "e"))
        acc = rng.randint(50, 99) / 100
        body += [f"  data {d}: S^Token",
                 f"  node {p}: POS",
                 f'  node {e}: NER perf(acc={acc!r}@"corpus {rng.randrange(100)}")',
                 f"  edge {d} -> {p}",
                 f"  edge {p} -> {e} as S^{{POS,Token}}"]
        nodes, edges = nodes + 3, edges + 2
        if i % 4 == 3:
            z = _ident(rng, "z", i)
            body += [f"  detail {z} for {e} {{",
                     f"    data {z}_in: S^{{NER,Names}}",
                     f"    node {z}_fn: func",
                     f"    edge {z}_in -> {z}_fn",
                     "  }"]
            nodes, edges, groups = nodes + 2, edges + 1, groups + 1
    return Synthetic(name, _source(f"{name} pipelines", body), nodes, edges, groups, pipelines)


@dataclass(frozen=True)
class Shape:
    generate: Callable[[random.Random, str, int], Synthetic]
    size: int  # nodes of a chain, pipelines of a wide input
    mix: tuple[str, ...]  # commands in the timed mix, per input
    peak: str  # command whose allocation peak is reported


SHAPES: dict[str, Shape] = {
    "chain_rev": Shape(lambda rng, name, n: chain(rng, name, n, reverse=True),
                       CHAIN_REV_NODES, ("svg", "tikz"), "svg"),
    "chain_fwd": Shape(lambda rng, name, n: chain(rng, name, n, reverse=False),
                       CHAIN_FWD_NODES, ("svg", "tikz"), "svg"),
    # check makes compiles two thirds of the mix, so the median invocation is
    # a compile and not the boundary between compiles and fmt runs
    "wide_terms": Shape(wide, WIDE_PIPELINES, ("check", "lint", "fmt"), "lint"),
}

WORKLOADS = ("corpus_cli", *SHAPES)


def synthetic_inputs(workload: str, seed: int, size: int | None = None) -> list[Synthetic]:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [shape.generate(rng, f"{workload}_{k}", size or shape.size)
            for k in range(INPUTS_PER_SEED)]


def synthetic_workload(workload: str, seed: int, pinned: dict) -> Workload:
    shape = SHAPES[workload]
    pins = pinned.get(workload, {}) if seed == DEFAULT_SEED else {}
    per_input = [item.jobs(pins.get(item.name)) for item in synthetic_inputs(workload, seed)]
    jobs = [by_command[c] for by_command in per_input for c in shape.mix]
    coverage = [job for c, job in per_input[0].items() if c not in shape.mix]
    return Workload(jobs, coverage, per_input[0][shape.peak])


def build(workload: str, seed: int, root: Path, pinned: dict) -> Workload:
    if workload == "corpus_cli":
        return corpus_workload(root)
    return synthetic_workload(workload, seed, pinned)
