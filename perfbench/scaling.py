"""Ungated scaling report: per-layer self time of each synthetic shape at
three sizes, and the log-log slope ``<layer>.growth_exp`` across them.

    python3 perfbench/scaling.py [--seed N]

Each size runs the shape's timed mix once per input, traced, with times
scaled to the reference speed (see speed.py). A slope near 1 is the
near-linear cost per stage the project aims for; 2 is quadratic, 3 cubic.
Layers under 0.1 ms at any size get no slope. The report is printed as JSON
and written to ``perfbench/out/scaling.json``; nothing is checked against it.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

# Each size finishes in seconds on the current code: reverse chains stay at
# 200 nodes or fewer because their check is cubic.
SIZES = {"chain_rev": (50, 100, 200), "chain_fwd": (250, 500, 1000), "wide_terms": (75, 150, 300)}
MIN_MS = 0.1


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def shape_report(runner, checker, workload: str, seed: int) -> dict:
    from speed import Gauge
    from tracer import ROOT as ROOT_SPAN, Tracer
    from workloads import SHAPES, synthetic_inputs

    elems, self_ms = [], {}
    for size in SIZES[workload]:
        tracer = Tracer()
        gauge = Gauge()
        self_s: Counter[str] = Counter()  # scaled as in run.py
        total = 0
        for item in synthetic_inputs(workload, seed, size):
            jobs = item.jobs(None)
            for command in SHAPES[workload].mix:
                gauge.tick()
                outcome, _ = runner.run(jobs[command], tracer.run)
                checker(jobs[command], outcome)
                gauge.defer(lambda factor, spans=tracer.self_s: self_s.update(
                    {name: t * factor for name, t in spans.items()}))
            total += item.nodes + item.edges
        gauge.tick(force=True)
        elems.append(total)
        for name, seconds in self_s.items():
            label = "cli.overhead" if name == ROOT_SPAN else name
            self_ms.setdefault(label, []).append(seconds * 1e3)
    growth = {f"{name}.growth_exp": round(slope(elems, times), 3)
              for name, times in sorted(self_ms.items())
              if len(times) == len(elems) and min(times) >= MIN_MS}
    return {"sizes": list(SIZES[workload]), "elems": elems,
            "self_ms": {name: [round(t, 3) for t in times] for name, times in self_ms.items()},
            "growth_exp": growth}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    from run import Checker, Runner, import_dial
    from workloads import DEFAULT_SEED, SHAPES

    if not import_dial():
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="scaling-", dir=OUT))
    checker = Checker()
    try:
        runner = Runner(work)
        report = {workload: shape_report(runner, checker, workload, seed) for workload in SHAPES}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in checker.reasons:
        print(f"MISMATCH {reason}", file=sys.stderr)
    text = json.dumps({"seed": seed, "shapes": report}, indent=2)
    (OUT / "scaling.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
