"""One workload in one fresh process: warm up, time passes, verify each.

Run by ``run.py`` as ``worker.py <workload> <seed> <seconds> <trace>
<workdir>`` with ``src`` on ``PYTHONPATH`` and numeric libraries limited to
one thread.  Prints one JSON object as its last line of output.

A pass is one call of ``runner.run`` per operation of the workload, timed
as a whole; verification, output measurement and clean-up of the output
directory happen between passes, outside the timed region.  Passes repeat
while the next one is expected to end within the time budget, with at
least ``MIN_PASSES`` of them.  A traced run alternates untraced and traced
passes.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import condrsa.runner
import spans
import workloads

#: a run reports the median of at least this many passes
MIN_PASSES = 2


def _directory_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs passes of a workload's operations and counts failed ones."""

    def __init__(self, ops: list[workloads.Op], out: Path) -> None:
        self.ops = ops
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, ops: list[workloads.Op] | None = None) -> tuple[float, float, int]:
        """Run, time and verify one pass; returns its wall time, the factor
        that corrects times of the pass for machine speed
        (`calibrate.speed_factor`), and the bytes it wrote."""
        ops = self.ops if ops is None else ops
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()  # every pass starts from the same heap
        results = []
        run = condrsa.runner.run
        before = calibrate.reference()
        start = time.perf_counter()
        for op in ops:
            try:
                results.append(run(op.config))
            except Exception as exc:  # a failed operation, reported below
                results.append(exc)
        wall = time.perf_counter() - start
        after = calibrate.reference()

        for op, result in zip(ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                problems = op.check(result)
            if problems:
                self.failed += 1
                self.problems += [f"{op.label}: {p}" for p in problems[:5]]
        return wall, calibrate.speed_factor(before, after), _directory_bytes(self.out)


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least ``MIN_PASSES`` times, then again while the
    next call is expected to end within ``seconds`` of the first."""
    start = time.perf_counter()
    done = 0
    while done < MIN_PASSES or (time.perf_counter() - start) * (1 + 1 / done) <= seconds:
        step()
        done += 1


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    warm_up, timed = workloads.build(name, seed, workdir)
    runner = Runner(timed, workdir / "out")
    runner.one_pass(warm_up)

    report: dict = {"workload": name, "warm_up": [op.label for op in warm_up]}
    walls: list[float] = []  # corrected for machine speed
    if not trace:
        raw_walls: list[float] = []
        written: list[int] = []

        def step() -> None:
            wall, factor, nbytes = runner.one_pass()
            raw_walls.append(wall)
            walls.append(wall * factor)
            written.append(nbytes)

        repeat(seconds, step)
        report["walls"] = walls
        report["raw_walls"] = raw_walls
        report["output_bytes"] = written
    else:
        # untraced and traced passes alternate, so that drift during the
        # run does not show up as tracing overhead; all times are corrected
        # for machine speed
        tracer = spans.Tracer()
        traced_walls, recorded, per_pass, layer_self = [], [], [], []

        def step() -> None:
            wall, factor, _ = runner.one_pass()
            walls.append(wall * factor)
            tracer.install()
            try:
                wall, factor, _ = runner.one_pass()
            finally:
                tracer.uninstall()
            traced_walls.append(wall * factor)
            pass_spans, counts = tracer.take()
            recorded.append(pass_spans)
            measured = spans.layer_metrics(pass_spans, counts)
            per_pass.append({
                k: v * factor if k.endswith("_s") else v for k, v in measured.items()
            })
            layer_self.append({
                k: v * factor for k, v in spans.layer_self_times(pass_spans).items()
            })

        repeat(seconds, step)
        spans.dump(recorded, workdir.parent / f"{name}.spans.jsonl")

        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1
        )
        own = {
            layer: statistics.median(p.get(layer, 0.0) for p in layer_self)
            for layer in {k for p in layer_self for k in p}
        }
        report["walls"] = walls
        report["traced_walls"] = traced_walls
        report["layers"] = metrics
        report["layer_self_s"] = own
        report["predictions"] = [
            {"claim": claim, "held": held, "detail": detail}
            for claim, held, detail in workloads.predictions(name, metrics, own)
        ]

    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    report["problems"] = runner.problems[:20]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    shutil.rmtree(workdir / "out", ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
