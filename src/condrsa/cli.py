"""Command-line front end.

Every flag can also be set through an environment variable with the
``CONDRSA_`` prefix (e.g. ``CONDRSA_SEED=7``).  Errors print a
machine-readable JSON record on stderr and exit nonzero; so does a write
that fails, such as an ``--out`` that is a file or lies under one
(``cannot write <path>: <OS error>``).  Seeds are never
defaulted from the clock: sampling commands require ``--seed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

import click

from . import __version__
from .core import ModelError
from .results import FLOAT, RATIONAL
from .runner import RunConfig, parse_grid, parse_parameter, run
from .scenario_io import BUILTIN_NAMES
from .tolerances import TOLERANCES


def _run(config: Callable[[], RunConfig]) -> None:
    """Build and run a configuration and print its metadata; if building or
    running it raises, print a JSON error record and exit 1."""
    try:
        bundle = run(config())
    except (ModelError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        click.echo(json.dumps(record, sort_keys=True), err=True)
        sys.exit(1)
    click.echo(json.dumps(bundle.metadata, sort_keys=True))


def _formats(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


out_option = click.option(
    "--out", "out", type=click.Path(path_type=Path), default=None,
    envvar="CONDRSA_OUT", show_envvar=True,
    help="Directory to write result files into.",
)
format_option = click.option(
    "--format", "formats", default="csv,json",
    envvar="CONDRSA_FORMAT", show_envvar=True, show_default=True,
    help="Comma-separated subset of csv,json,plotdata.",
)
figure_option = click.option(
    "--figure", default=None, envvar="CONDRSA_FIGURE", show_envvar=True,
    help="Emit plot data for one figure id (implies plotdata output).",
)


@click.group()
@click.version_option(__version__, prog_name="condrsa")
def main() -> None:
    """Pragmatic reasoning about conditionals over causal world models."""


@main.command("run-scenario")
@click.option(
    "--scenario", required=True, envvar="CONDRSA_SCENARIO", show_envvar=True,
    help=f"Built-in name ({', '.join(BUILTIN_NAMES)}) or scenario file path.",
)
@click.option(
    "--alpha", default=None, envvar="CONDRSA_ALPHA", show_envvar=True,
    help="Override the scenario's rationality (exact syntax allowed, e.g. 3 or 9/10).",
)
@click.option(
    "--theta", default=None, envvar="CONDRSA_THETA", show_envvar=True,
    help="Override the scenario's assertability threshold.",
)
@click.option(
    "--numeric", type=click.Choice([RATIONAL, FLOAT]), default=None,
    envvar="CONDRSA_NUMERIC", show_envvar=True,
    help="Force exact-fraction or float rendering (default: automatic).",
)
@out_option
@format_option
@figure_option
def run_scenario(scenario, alpha, theta, numeric, out, formats, figure) -> None:
    """Evaluate one scenario: listeners, speaker, surprise, belief updates."""
    _run(lambda: RunConfig(
        command="run-scenario",
        scenario=scenario,
        alpha=parse_parameter(alpha, "--alpha"),
        theta=parse_parameter(theta, "--theta"),
        numeric=numeric,
        output_dir=out,
        formats=_formats(formats),
        figure=figure,
    ))


@main.command("run-default-context")
@click.option("--seed", type=int, required=True, envvar="CONDRSA_SEED",
              show_envvar=True, help="RNG seed (mandatory; no clock default).")
@click.option("--n-states", type=int, default=TOLERANCES.default_n_states,
              envvar="CONDRSA_N_STATES", show_envvar=True, show_default=True)
@click.option("--alpha", type=float, default=TOLERANCES.default_alpha,
              envvar="CONDRSA_ALPHA", show_envvar=True, show_default=True)
@click.option("--theta", type=float, default=TOLERANCES.default_theta,
              envvar="CONDRSA_THETA", show_envvar=True, show_default=True)
@out_option
@format_option
@figure_option
def run_default_context(seed, n_states, alpha, theta, out, formats, figure) -> None:
    """Sample the default prior and run all aggregate analyses and checks."""
    _run(lambda: RunConfig(
        command="run-default-context",
        seed=seed,
        n_states=n_states,
        alpha=alpha,
        theta=theta,
        output_dir=out,
        formats=_formats(formats),
        figure=figure,
    ))


@main.command("sweep")
@click.option("--seed", type=int, required=True, envvar="CONDRSA_SEED",
              show_envvar=True, help="RNG seed (mandatory; no clock default).")
@click.option("--n-states", type=int, default=TOLERANCES.default_n_states,
              envvar="CONDRSA_N_STATES", show_envvar=True, show_default=True)
@click.option(
    "--sweep-grid", "grid", default=None, envvar="CONDRSA_SWEEP_GRID",
    show_envvar=True,
    help="Grid like 'alpha=1,3,5,10;theta=0.9,0.95,0.975' (default: that grid).",
)
@out_option
@format_option
def sweep(seed, n_states, grid, out, formats) -> None:
    """Qualitative robustness checks over a rationality/threshold grid."""
    _run(lambda: RunConfig(
        command="sweep",
        seed=seed,
        n_states=n_states,
        grid=None if grid is None else parse_grid(grid),
        output_dir=out,
        formats=_formats(formats),
    ))


if __name__ == "__main__":
    main()
