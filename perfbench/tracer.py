"""Spans and counts recorded from outside the compiler.

``Tracer.install`` replaces each public function named in ``SPANS`` and
``COUNTS`` at the name its caller looks it up by; ``uninstall`` puts the
originals back. A span records name, start, end, parent span and invocation
id in memory; ``dump`` writes them out at the end of the run. A layer's self
time is its span's duration minus the time of its child spans. Counted
functions add to a call count and open no span, because they run thousands
of times per compile.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import dial.cli
import dial.layout
import dial.lint
import dial.model
import dial.parser
import dial.registry
import dial.render
import dial.typecheck

# span name -> the (owner, attribute) pairs its callers look it up by
SPANS: dict[str, tuple[tuple[object, str], ...]] = {
    "parser.tokenize": ((dial.cli, "tokenize"), (dial.parser, "tokenize")),
    "parser.parse": ((dial.cli, "parse"), (dial.parser, "parse")),
    "parser.lower": ((dial.cli, "lower"),),
    "parser.format_source": ((dial.cli, "format_source"),),
    "model.validate_structure": ((dial.cli, "validate_structure"),),
    "registry.init": ((dial.registry.Registry, "__init__"),),
    "typecheck.check_diagram": ((dial.cli, "check_diagram"),),
    "layout.layout": ((dial.layout, "layout"),),
    "layout.break_cycles": ((dial.layout, "break_cycles"),),
    "layout.assign_layers": ((dial.layout, "assign_layers"),),
    "layout.order_within_layers": ((dial.layout, "order_within_layers"),),
    "lint.lint": ((dial.lint, "lint"),),
    "render.render_svg": ((dial.render, "render_svg"),),
    "render.render_tikz": ((dial.render, "render_tikz"),),
}
COUNTS: dict[str, tuple[object, str]] = {
    "typecheck.infer_output": (dial.typecheck, "infer_output"),
    "model.node_by_id": (dial.model.Diagram, "node_by_id"),
}
ROOT = "cli.run"
MODULES = ("parser", "model", "registry", "typecheck", "layout", "lint", "render", "cli")


def count_crossings(diagram, result) -> int:
    """Edge crossings between adjacent layers, nodes ordered by box y.

    Layers are numbered per area (the main area and each detail group), so
    only edges inside one area count; recurrent edges and self-loops are not
    part of the layering.
    """
    area = {n: group.id for group in diagram.groups for n in group.member_nodes}
    spans: dict[tuple[str, int], list[tuple[str, str]]] = defaultdict(list)
    for edge in diagram.edges:
        u, v = edge.source.node, edge.target.node
        if edge.flow_kind == "recurrent" or u == v or area.get(u) != area.get(v):
            continue
        if edge.id in result.reversed_edges:
            u, v = v, u
        if u in result.layers and v in result.layers \
                and result.layers[v] == result.layers[u] + 1:
            spans[(area.get(u, ""), result.layers[u])].append((u, v))
    crossings = 0
    for pairs in spans.values():
        def rank(n: str) -> tuple[int, int]:
            box = result.node_boxes[n]
            return box.y, box.x
        # two edges cross when their ends are ordered oppositely: count the
        # inversions of the lower ends after sorting by the upper ends
        ends = sorted((rank(u), rank(v)) for u, v in pairs)
        seen: list[tuple[int, int]] = []
        group_start = 0
        for i, (upper, lower) in enumerate(ends):
            if upper != ends[group_start][0]:
                for _, done in ends[group_start:i]:
                    bisect.insort(seen, done)
                group_start = i
            crossings += len(seen) - bisect.bisect_right(seen, lower)
    return crossings


def by_module(self_s: dict[str, float]) -> dict[str, float]:
    out = dict.fromkeys(MODULES, 0.0)
    for name, seconds in self_s.items():
        out[name.split(".")[0]] += seconds
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: Counter[str] = Counter()  # of the latest invocation only
        self.calls: Counter[str] = Counter()
        self.stats: Counter[str] = Counter()  # counts derived from results
        self.invocation = -1
        self._stack: list[list] = []  # open spans: [index, name, start, child seconds]
        self._resolved: set[tuple[int, str]] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._observers = {  # span name -> reads the call's result into stats
            "parser.tokenize": self._observe_tokenize,
            "layout.layout": self._observe_layout,
            "lint.lint": self._observe_lint,
            "render.render_svg": self._observe_render_svg,
            "render.render_tikz": self._observe_render_tikz,
        }

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [len(self.spans), name, perf_counter(), 0.0]
        self.spans.append((name, 0.0, 0.0, self._stack[-1][0] if self._stack else -1,
                           self.invocation))
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, observe=None) -> None:
        end = perf_counter()
        self._stack.pop()
        index, name, start, child = frame
        self.spans[index] = (name, start, end, self.spans[index][3], self.invocation)
        self.self_s[name] += end - start - child
        self.calls[name] += 1
        if observe is not None:
            observe()
        if self._stack:  # bookkeeping time is charged to no layer
            self._stack[-1][3] += perf_counter() - start

    def run(self, call):
        """One traced cli.run call: the root span of a new invocation."""
        self.install()
        self.invocation += 1
        self.self_s = Counter()
        frame = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(frame)
            self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(frame, observe and (lambda: observe(args, result)))
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        if name == "typecheck.infer_output":
            def wrapper(node, *args, **kwargs):
                calls[name] += 1
                # checks completed so far tell this check apart from earlier ones
                self._resolved.add((self.calls["typecheck.check_diagram"], node.id))
                return fn(node, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        targets = [(owner, attr, self._span(name, getattr(owner, attr)))
                   for name, sites in SPANS.items() for owner, attr in sites]
        targets += [(owner, attr, self._count(name, getattr(owner, attr)))
                    for name, (owner, attr) in COUNTS.items()]
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- observations on results --------------------------------------------

    def _observe_tokenize(self, args, result) -> None:
        if result is not None:
            self.stats["parser.tokens"] += len(result[0])

    def _observe_layout(self, args, result) -> None:
        if result is not None:
            self.stats["layout.layer_count"] += max(result.layers.values(), default=-1) + 1
            self.stats["layout.reversed_edges"] += len(result.reversed_edges)
            self.stats["layout.crossings"] += count_crossings(args[0], result)

    def _observe_lint(self, args, result) -> None:
        if result is not None:
            self.stats["lint.warnings"] += len(result)

    def _observe_render_svg(self, args, result) -> None:
        if result is not None:
            self.stats["render.svg_bytes"] += len(result.encode("utf-8"))

    def _observe_render_tikz(self, args, result) -> None:
        if result is not None:
            self.stats["render.tikz_bytes"] += len(result.encode("utf-8"))

    # -- reporting ----------------------------------------------------------

    @property
    def resolved_nodes(self) -> int:
        return len(self._resolved)

    def dump(self, path: Path, summary: dict) -> None:
        """Write spans (times in microseconds from the first span) and a summary."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                 parent, inv] for name, start, end, parent, inv in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent", "invocation"],
                       "summary": summary, "spans": rows}, fh)
