"""Benchmark for the dial compiler, driven through its CLI entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds 20] [--trace 0|1]

Load is a closed loop with one client, one process and one thread: each
invocation writes its input to a file, calls ``dial.cli.run`` in-process and
waits for it before the next one starts. Every output is checked (see
``workloads.py``); a mismatch makes the run exit 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` times the workload's jobs round-robin for ``--seconds`` (at
least one full round) and reports the end-to-end metrics:

  elems_per_s      nodes plus edges of the inputs run, over the loop's time
  latency_p50_ms   median wall time of one cli.run invocation
  latency_tail_ms  the highest whole percentile with at least 10 invocations
                   beyond it (the percentile and the count are printed)
  peak_alloc_mb    tracemalloc peak of one untimed invocation on the largest input
  setup_s          median, over fresh interpreters, of importing dial.cli and
                   building a first Registry()

``--trace 1`` runs whole passes instead: every job of the workload once, plus
one invocation of each CLI command the workload's mix lacks, so that every
layer is seen on every input shape. Each job runs once untraced and once
traced, alternating which goes first, and passes repeat while another fits in
``--seconds``. Span times are self times in milliseconds per traced
invocation; counts are per pass. Spans go to ``perfbench/out/``.

Every time except the raw ones printed for reference is scaled to a
reference machine speed by a calibration loop timed before and after the
work (see ``speed.py``); the loop's own time is left out.

``--workload all`` runs every workload in turn. ``--pin-digests`` rewrites
``digests.json``, the SVG and TikZ digests of the synthetic inputs for the
default seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, Gauge
from workloads import (COMMANDS, DEFAULT_SEED, SHAPES, WORKLOADS, Outcome, build,
                       synthetic_inputs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_RUNS = 11
SETUP_CODE = ("import statistics, time\n"
              "start = time.perf_counter()\n"
              "import dial.cli\n"
              "from dial.registry import Registry\n"
              "Registry()\n"
              "took = time.perf_counter() - start\n"
              "import speed\n"
              "print(took, statistics.median(speed.sample() for _ in range(3)))\n")
TAIL_BEYOND = 10
MAX_REASONS = 5


class Runner:
    """Runs jobs through dial.cli.run with inputs and outputs in ``work``."""

    def __init__(self, work: Path) -> None:
        from dial.cli import run

        self.work = work
        self.cli_run = run

    def run(self, job, wrap=None):
        """Returns (Outcome, seconds spent in cli.run)."""
        src = self.work / f"{job.case}.dial"
        out = self.work / f"{job.case}.out"
        src.write_text(job.text, encoding="utf-8")
        out.unlink(missing_ok=True)
        argv = [arg.format(src=src, out=out) for arg in COMMANDS[job.command]]
        stdout, stderr = io.StringIO(), io.StringIO()
        call = lambda: self.cli_run(argv, stdout=stdout, stderr=stderr)  # noqa: E731
        start = perf_counter()
        try:
            rc = wrap(call) if wrap else call()
        except Exception:  # a traceback is a failed invocation, not a stopped run
            rc = -1
            stdout.write(traceback.format_exc())
        seconds = perf_counter() - start
        artifact = out.read_bytes() if out.exists() else None
        return Outcome(rc, stdout.getvalue(), artifact), seconds


class Checker:
    """Verifies the first outcome of each job; later ones must equal it."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def __call__(self, job, outcome) -> None:
        self.attempted += 1
        key = (job.case, job.command, job.text)  # str hashes are cached, so this is cheap
        if key not in self.first:
            self.first[key] = (outcome, job.verify(outcome))
        reference, reason = self.first[key]
        if reason is None and outcome != reference:
            reason = "output differs from the first run of this job"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{job.case} {job.command}: {reason}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_latency(latencies: list[float]) -> tuple[int, float]:
    """(percentile, seconds): the highest whole percentile with at least
    TAIL_BEYOND samples above its nearest-rank value; the maximum if too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)  # ceil without float rounding
    return pct, ordered[rank - 1]


def setup_seconds() -> list[tuple[float, float]]:
    """(raw, scaled) seconds of SETUP_RUNS fresh interpreters, each scaled by
    its own calibration after the import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH),
                                                      env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        took, calibration = map(float, proc.stdout.split())
        samples.append((took, took * REFERENCE_S / calibration))
    return samples


def peak_alloc_bytes(runner: Runner, job, checker: Checker) -> int:
    peak = []

    def traced_alloc(call):
        tracemalloc.start()
        try:
            return call()
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    outcome, _ = runner.run(job, traced_alloc)
    checker(job, outcome)
    return peak[0]


def freeze_heap() -> None:
    """Keep the loaded modules and the harness's own objects out of later
    collections, as they would be in a short-lived ``dial`` process, where a
    full collection rarely runs; in a long loop it would run every few
    invocations and scan them all."""
    gc.collect()
    gc.freeze()


def end_to_end(runner: Runner, workload, seconds: float, checker: Checker,
               notes: list[str]) -> dict:
    setup = setup_seconds()
    peak = peak_alloc_bytes(runner, workload.peak, checker)
    jobs = workload.jobs
    gauge = Gauge()
    raw: list[float] = []
    latencies: list[float] = []  # scaled to the reference speed
    busy: list[float] = []  # scaled loop time per invocation, calibration excluded

    def settle(took: float, spent: float) -> None:
        gauge.defer(lambda factor: (latencies.append(took * factor),
                                    busy.append(spent * factor)))

    elems = 0
    freeze_heap()
    start = perf_counter()
    while len(raw) < len(jobs) or perf_counter() - start < seconds:
        gauge.tick()
        job = jobs[len(raw) % len(jobs)]
        began = perf_counter()
        outcome, took = runner.run(job)
        checker(job, outcome)
        settle(took, perf_counter() - began)
        raw.append(took)
        elems += job.elems
    wall = perf_counter() - start
    gauge.tick(force=True)
    pct, tail = tail_latency(latencies)
    notes.append(f"{len(latencies)} invocations in {wall:.2f} s; "
                 f"latency_tail_ms is p{pct} of {len(latencies)}; "
                 f"setup_s is the median of {len(setup)} interpreters; "
                 f"failed_ratio {checker.failed / checker.attempted:g} "
                 f"({checker.failed} of {checker.attempted})")
    notes.append(f"unscaled: elems_per_s {elems / wall:.6g}, latency_p50_ms "
                 f"{statistics.median(raw) * 1e3:.6g}, latency_tail_ms "
                 f"{tail_latency(raw)[1] * 1e3:.6g}, setup_s "
                 f"{statistics.median(t for t, _ in setup):.6g}; speed factor median "
                 f"{statistics.median(gauge.factors):.4g} of {len(gauge.factors)} calibrations")
    return {
        "elems_per_s": _metric(elems / sum(busy), "elems/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": _metric(tail * 1e3, "ms"),
        "peak_alloc_mb": _metric(peak / 2 ** 20, "MiB"),
        "setup_s": _metric(statistics.median(scaled for _, scaled in setup), "s"),
    }


def traced(runner: Runner, workload, seconds: float, checker: Checker,
           notes: list[str], spans_path: Path) -> dict:
    from tracer import MODULES, ROOT as ROOT_SPAN, SPANS, Tracer, by_module

    tracer = Tracer()
    gauge = Gauge()
    self_s: Counter[str] = Counter()  # scaled self seconds over all traced invocations
    on: list[float] = []  # scaled seconds of traced invocations
    off: list[float] = []  # and of untraced ones

    def settle(took: float, spans: Counter | None) -> None:
        def apply(factor: float) -> None:
            (on if spans is not None else off).append(took * factor)
            if spans is not None:
                self_s.update({name: t * factor for name, t in spans.items()})
        gauge.defer(apply)

    jobs = workload.jobs + workload.coverage
    passes = 0
    elems = 0
    freeze_heap()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for k, job in enumerate(jobs):
            first_traced = (k + passes) % 2 == 1
            for with_trace in (first_traced, not first_traced):
                gauge.tick()
                outcome, took = runner.run(job, tracer.run if with_trace else None)
                checker(job, outcome)
                settle(took, tracer.self_s if with_trace else None)
            elems += job.elems
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    gauge.tick(force=True)

    invocations = passes * len(jobs)
    per_pass = lambda count: count / passes  # noqa: E731
    metrics: dict[str, dict] = {}
    for name in SPANS:
        metrics[f"{name}_ms"] = _metric(self_s[name] * 1e3 / invocations, "ms")
    metrics["cli.overhead_ms"] = _metric(self_s[ROOT_SPAN] * 1e3 / invocations, "ms")
    infer_calls = tracer.calls["typecheck.infer_output"]
    metrics.update({
        "typecheck.infer_output_calls": _metric(per_pass(infer_calls), "count"),
        "typecheck.rounds": _metric(infer_calls / max(tracer.resolved_nodes, 1) - 1, "count"),
        "layout.break_cycles_calls": _metric(per_pass(tracer.calls["layout.break_cycles"]), "count"),
        "model.node_by_id_calls": _metric(per_pass(tracer.calls["model.node_by_id"]), "count"),
        "registry.init_calls": _metric(per_pass(tracer.calls["registry.init"]), "count"),
        "parser.tokens_per_s": _metric(
            tracer.stats["parser.tokens"] / max(self_s["parser.tokenize"], 1e-9), "1/s"),
    })
    for name in ("layout.layer_count", "layout.reversed_edges", "layout.crossings",
                 "parser.tokens", "lint.warnings"):
        metrics[name] = _metric(per_pass(tracer.stats[name]), "count")
    for name in ("render.svg_bytes", "render.tikz_bytes"):
        metrics[name] = _metric(per_pass(tracer.stats[name]), "bytes")
    modules = by_module(self_s)
    total = sum(modules.values())
    for module in MODULES:
        metrics[f"{module}.self_share"] = _metric(modules[module] / total, "ratio")
    metrics["trace.elems_per_s"] = _metric(elems / sum(on), "elems/s")
    metrics["trace.untraced_elems_per_s"] = _metric(elems / sum(off), "elems/s")
    metrics["trace.overhead_ratio"] = _metric(sum(on) / sum(off) - 1, "ratio")

    split = sorted(self_s.items(), key=lambda kv: -kv[1])
    notes.append(f"{passes} passes of {len(jobs)} jobs ({len(workload.coverage)} for coverage); "
                 f"self time by span:")
    notes.extend(f"  {name:<28} {seconds * 1e3 / invocations:10.3f} ms/inv "
                 f"{seconds / total:6.1%}" for name, seconds in split)
    tracer.dump(spans_path, {"passes": passes, "jobs": [[j.case, j.command] for j in jobs],
                             "metrics": metrics})
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    checker = Checker()
    notes: list[str] = []
    try:
        workload = build(name, seed, ROOT, pinned)
        runner = Runner(work)
        if trace:
            metrics = traced(runner, workload, seconds, checker, notes,
                             OUT / f"trace-{name}-seed{seed}.json")
        else:
            metrics = end_to_end(runner, workload, seconds, checker, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {name} (seed {seed}, {'traced' if trace else 'end to end'})")
    for note in notes:
        print(note)
    for metric, entry in metrics.items():
        print(f"  {metric:<32} {entry['value']:14.6g} {entry['unit']}")
    for reason in checker.reasons:
        print(f"MISMATCH {reason}", file=sys.stderr)
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


def pin_digests() -> int:
    """Record SVG and TikZ digests of every synthetic input for the default seed."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT))
    checker = Checker()
    pins: dict = {}
    try:
        runner = Runner(work)
        for workload in SHAPES:
            for item in synthetic_inputs(workload, DEFAULT_SEED):
                jobs = item.jobs(None)
                for kind in ("svg", "tikz"):
                    outcome, _ = runner.run(jobs[kind])
                    checker(jobs[kind], outcome)
                    pins.setdefault(workload, {}).setdefault(item.name, {})[kind] = \
                        hashlib.sha256(outcome.artifact or b"").hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checker.failed:
        print("\n".join(checker.reasons), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def import_dial() -> bool:
    """Import dial from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import dial.cli
    except ImportError as exc:
        print(f"perfbench: cannot import dial from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(dial.cli.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: dial was imported from {dial.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)

    if not import_dial():
        return 2
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for name in names:
        worst = max(worst, run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return worst


if __name__ == "__main__":
    sys.exit(main())
