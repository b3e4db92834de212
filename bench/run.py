"""The condrsa benchmark: one workload per invocation, or all of them.

    python3 bench/run.py --workload exact_scenarios --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout.  Each workload runs in a fresh
single-threaded Python process (``worker.py``) that imports ``condrsa``
from ``src``, so peak memory belongs to that workload.  Set-up time is
measured separately, in fresh interpreters that only import ``condrsa``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run (see ``README.md``).  Lines before it are a readable summary.
Work files go under ``.bench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: fresh interpreters timed for ``setup_s``, after one untimed import that
#: compiles the bytecode cache
SETUP_SAMPLES = 7
#: a workload's worker process is killed after this many seconds
WORKER_TIMEOUT_S = 165

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import condrsa; "
    "print(time.perf_counter() - t)"
)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median time from a fresh interpreter to ``import condrsa`` done, as
    measured and corrected for machine speed."""
    samples, corrected = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = calibrate.reference()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = calibrate.reference()
        if i:
            seconds = float(done.stdout.strip())
            samples.append(seconds)
            corrected.append(seconds * calibrate.speed_factor(before, after))
    return statistics.median(samples), statistics.median(corrected)


def run_worker(workload: str, seed: int, seconds: int, trace: bool, env) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
             str(seconds), "1" if trace else "0", str(workdir)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_line(report: dict, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(workload: str, seed: int, seconds: int, env) -> dict:
    setup_raw, setup = setup_seconds(env)
    report = run_worker(workload, seed, seconds, False, env)
    walls = report["walls"]
    output_mb = statistics.median(report["output_bytes"]) / 1e6
    print(
        f"{workload}: wall_s {statistics.median(walls):.4f} s "
        f"(median of {len(walls)} passes, warm-up {', '.join(report['warm_up'])}); "
        f"setup_s {setup:.4f} s; peak_rss_mb {report['peak_rss_mb']:.1f} MB; "
        f"output_mb {output_mb:.3f} MB; "
        f"ops_failed {report['failed']}/{report['attempted']} ops"
    )
    print(
        f"  as measured, before the machine-speed correction: wall_s "
        f"{statistics.median(report['raw_walls']):.4f} s, setup_s {setup_raw:.4f} s"
    )
    print(f"  corrected pass walls: {', '.join(f'{w:.4f}' for w in walls)} s")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    return result_line(report, {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    })


def traced(workload: str, seed: int, seconds: int, env) -> dict:
    # the per-layer metrics and their units, as declared in BENCHMARK.json
    units = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    report = run_worker(workload, seed, seconds, True, env)
    layers = report["layers"]
    wall = statistics.median(report["traced_walls"])
    print(
        f"{workload} (traced): wall_s {wall:.4f} s traced, "
        f"{statistics.median(report['walls']):.4f} s untraced; "
        f"ops_failed {report['failed']}/{report['attempted']} ops"
    )
    for layer, own in sorted(report["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<16} {own:9.4f} s  {own / wall:6.1%}")
    for name, unit in units.items():
        print(f"  {name:<30} {layers[name]:.6g} {unit}")
    for p in report["predictions"]:
        print(f"  prediction {'held' if p['held'] else 'MISSED'}: {p['claim']} ({p['detail']})")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    return result_line(report, {name: (layers[name], unit) for name, unit in units.items()})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "condrsa" / "__init__.py").is_file():
        print(f"error: no condrsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment()
    measure = traced if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, env)
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"benchmark finished in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
