"""The three workloads, each a list of ``runner.run`` calls with a verifier.

``exact_scenarios``
    ``run-scenario`` in rational mode with csv+json output on the four
    built-ins and on the seeded exact ladder (`ladder.LADDER_SIZES`).  The
    only workload on the Fraction backend; the exact engine path grows
    faster than linearly with the number of states.
``sampled_100k``
    ``run-default-context`` at 100,000 states with no output directory:
    sampling, context build, analyses and bundle assembly, no writing.
``sweep_2500``
    ``sweep`` at 2,500 states on the default 4x3 alpha/theta grid with
    csv+json output: one sample, then 12 bundles built and written, so
    output dominates.  Every cost of a sweep grows linearly with the number
    of states; at 10,000 states a pass took 15 s, so a run held only two
    passes and its median was too noisy to gate on.

The benchmark seed is the only source of inputs: it generates the ladder
files and is the sampling seed of the sampled workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ladder
import verify

WORKLOADS = ("exact_scenarios", "sampled_100k", "sweep_2500")

BUILTINS = ("toy", "skiing", "garden_party", "sundowners")

#: states of the warm-up sample in the sampled workloads; large enough that
#: every check of the suite has data (at 300 states the certain-both cell is
#: often empty at theta 0.975, and a check without data is left out)
WARMUP_STATES = 2000
#: the warm-up sweep covers one combination, the default alpha and theta
WARMUP_GRID = ((3.0,), (0.9,))


@dataclass(frozen=True)
class Op:
    """One ``runner.run`` call and the check of its result."""

    label: str
    config: object  # condrsa.runner.RunConfig
    check: Callable[[object], list[str]]


def _exact_op(label: str, scenario: str, out: Path) -> Op:
    from condrsa.runner import RunConfig

    outdir = out / label
    return Op(
        label,
        RunConfig(
            command="run-scenario", scenario=scenario, numeric="rational",
            output_dir=outdir, formats=("csv", "json"),
        ),
        lambda bundle: verify.exact_bundle(bundle, outdir),
    )


def _sampled_op(seed: int, n_states: int) -> Op:
    from condrsa.runner import RunConfig

    return Op(
        f"run-default-context n={n_states}",
        RunConfig(command="run-default-context", seed=seed, n_states=n_states),
        verify.sampled_bundle,
    )


def _sweep_op(seed: int, n_states: int, out: Path, grid=None) -> Op:
    from condrsa.runner import RunConfig
    from condrsa.tolerances import TOLERANCES

    outdir = out / f"sweep-{n_states}"
    alphas, thetas = grid or (TOLERANCES.grid_alphas, TOLERANCES.grid_thetas)
    return Op(
        f"sweep n={n_states}",
        RunConfig(
            command="sweep", seed=seed, n_states=n_states, grid=grid,
            output_dir=outdir, formats=("csv", "json"),
        ),
        lambda bundle: verify.sweep_result(bundle, outdir, alphas, thetas),
    )


def build(name: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """``(warm_up, timed)`` operations of a workload.  Ladder files go to
    ``workdir/ladder``; every output directory is under ``workdir/out``."""
    out = workdir / "out"
    if name == "exact_scenarios":
        paths = ladder.write_ladder(seed, workdir / "ladder")
        timed = [_exact_op(b, b, out) for b in BUILTINS]
        timed += [_exact_op(p.stem, str(p), out) for p in paths]
        return [timed[0], timed[len(BUILTINS)]], timed
    if name == "sampled_100k":
        return [_sampled_op(seed, WARMUP_STATES)], [_sampled_op(seed, 100_000)]
    if name == "sweep_2500":
        return [_sweep_op(seed, WARMUP_STATES, out, WARMUP_GRID)], [_sweep_op(seed, 2_500, out)]
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


# --------------------------------------------------------------------------
# predictions of the layer table, checked against a traced run
# --------------------------------------------------------------------------


def _exceeds_other_layers(value: float, layer_self: dict[str, float], layer: str) -> tuple[bool, str]:
    """Whether ``value`` (a time of ``layer``) is at least the self time of
    every other layer."""
    others = {k: v for k, v in layer_self.items() if k != layer}
    top = max(others, key=others.get, default=None)
    if top is None:
        return True, f"{value:.3f} s, no other layer"
    return value >= others[top], f"{value:.3f} s vs next {top} {others[top]:.3f} s"


def predictions(name: str, metrics: dict, layer_self: dict[str, float]) -> list[tuple[str, bool, str]]:
    """``(claim, held, detail)`` for each prediction about ``name``."""
    out = []
    if name == "exact_scenarios":
        held, detail = _exceeds_other_layers(metrics["engine.self_s"], layer_self, "engine")
        out.append(("engine has the largest self time", held, detail))
        sample = metrics["default_context.sample_s"]
        out.append(("no prior sampling", sample == 0, f"{sample:.3f} s"))
    elif name == "sampled_100k":
        held, detail = _exceeds_other_layers(
            metrics["default_context.sample_s"], layer_self, "default_context"
        )
        out.append(("default_context.sample_s is the largest layer", held, detail))
        write = metrics["results.write_s"]
        out.append(("results.write_s is zero", write == 0, f"{write:.3f} s"))
    elif name == "sweep_2500":
        held, detail = _exceeds_other_layers(metrics["results.write_s"], layer_self, "results")
        out.append(("results.write_s exceeds every other layer's self time", held, detail))
        builds = metrics["context.builds"]
        out.append(("12 context builds, one per grid combination", builds == 12, f"{builds:g} builds"))
    return out
