"""Orchestration: turn a run configuration into a result bundle on disk.

Three commands exist.  ``run-scenario`` evaluates one built-in or file
``scenario`` in its context's arithmetic, at its own or the given ``alpha``
and ``theta``, and emits listener, speaker, surprise and belief tables
(``numeric`` picks only their rendering); ``run-default-context`` samples
``n_states`` states of the default prior under a mandatory ``seed`` and
emits the aggregate analyses at ``alpha`` and ``theta`` plus the
tolerance-manifest check summary; ``sweep`` repeats the latter over each
``alpha`` and ``theta`` of its ``grid``, reusing one state sample, and
emits per-combination bundles plus a qualitative check summary.  A
`RunConfig` refuses any other parameter, and a bundle's metadata holds the
values its run used, with None under each key its command does not fill.

A bundle only lays values out, one column per field: scenario tables
flatten the engine's matrices (`_cross_columns`), and default-context
tables read the context's arrays and its memoised
`analysis.context_analyses` record, which its checks read too.  The large
sampled tables, ``world_probabilities`` and ``delta_p_cohorts``, hold no
per-row Python object: their numbers are numpy arrays (a probability
column is a view of the context's cells) and their repeated names are
`Labels` codes, so a bundle's tables become Python values only as they are
rendered, chunk by chunk, or read through ``rows``.  A sweep's
sub-bundles hold one shared ``world_probabilities`` table and one shared
prior-cohort part of ``delta_p_cohorts``, neither of which depends on
alpha or theta.  One `write_bundles` call writes a run's bundles, their
files and plot data, rendering each shared part once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, analysis, engine
from .context import ScenarioContext
from .core import (
    A,
    C,
    RELATION_NAMES,
    RELATION_ORDER,
    WORLD_NAMES,
    CausalStructure,
    ModelError,
    Scalar,
)
from .default_context import build_default_context
from .results import (
    FLOAT,
    RATIONAL,
    Labels,
    ResultBundle,
    ResultTable,
    _figure_spec,
    applicable_figures,
    make_bundle,
    write_bundles,
)
from .scenario_io import BUILTIN_NAMES, builtin, parse_scenario_file
from .scenarios import (
    ScenarioDefinition,
    antecedent_belief,
    joint_event_belief,
    observation_update,
)
from .tolerances import TOLERANCES
from .utterances import Conditional, UtteranceType

COMMANDS = ("run-scenario", "run-default-context", "sweep")
FORMATS = ("csv", "json", "plotdata")


def parse_parameter(text: str | None, option: str) -> Scalar | None:
    """Parse an alpha/theta override as an exact rational: ``0.95`` is 19/20.
    A text that is not a number raises a `ModelError` naming ``option``."""
    if text is None:
        return None
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ModelError(f"parameter {text!r} divides by zero") from None
    except ValueError:
        raise ModelError(f"{option} {text!r} is not a number") from None
    return int(value) if value.denominator == 1 else value


def parse_grid(spec: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Parse a sweep grid like ``alpha=1,3,5,10;theta=0.9,0.95,0.975``."""
    values: dict[str, tuple[float, ...]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, rest = part.partition("=")
        key = key.strip()
        if not sep or key not in ("alpha", "theta"):
            raise ModelError(
                f"cannot parse grid component {part!r}; expected "
                "'alpha=...;theta=...'"
            )
        if key in values:
            raise ModelError(f"grid {spec!r} gives the {key} axis twice")
        try:
            values[key] = tuple(float(x) for x in rest.split(",") if x.strip())
        except ValueError:
            raise ModelError(f"cannot parse grid values in {part!r}") from None
    alphas = values.get("alpha", TOLERANCES.grid_alphas)
    thetas = values.get("theta", TOLERANCES.grid_thetas)
    if not alphas or not thetas:
        raise ModelError(f"grid {spec!r} has an empty axis")
    return alphas, thetas


def _nothing_to_write(output_dir: Path) -> ModelError:
    return ModelError(
        f"nothing to write to {str(Path(output_dir))!r}: no csv or json format is requested, "
        "and no figure applies to this bundle"
    )


class GridCollisionError(ModelError):
    """Two values of one sweep grid axis would write the same sub-bundle."""


#: the run parameters that each command reads, besides its output
#: directory, formats and figure, each with the default that `RunConfig`
#: fills in (None: no default); every other parameter is refused
_PARAMETERS = {
    "run-scenario": dict.fromkeys(("scenario", "alpha", "theta", "numeric")),
    "run-default-context": {
        "seed": None, "n_states": TOLERANCES.default_n_states,
        "alpha": TOLERANCES.default_alpha, "theta": TOLERANCES.default_theta,
    },
    "sweep": {
        "seed": None, "n_states": TOLERANCES.default_n_states,
        "grid": (TOLERANCES.grid_alphas, TOLERANCES.grid_thetas),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """One run of ``command``: a parameter that the command does not read
    is refused, and each one it reads and is not given gets its default."""

    command: str
    scenario: str | None = None
    alpha: Scalar | None = None
    theta: Scalar | None = None
    n_states: int | None = None
    seed: int | None = None
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    output_dir: Path | None = None
    formats: tuple[str, ...] = ("csv", "json")
    numeric: str | None = None
    figure: str | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ModelError(f"unknown command {self.command!r} (known: {', '.join(COMMANDS)})")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ModelError(f"unknown format {fmt!r} (known: {', '.join(FORMATS)})")
        if self.output_dir is not None and not self.formats and self.figure is None:
            raise _nothing_to_write(self.output_dir)
        if self.numeric not in (None, RATIONAL, FLOAT):
            raise ModelError(f"numeric mode must be 'rational' or 'float', got {self.numeric!r}")
        if self.command != "run-scenario" and self.numeric == RATIONAL:
            raise ModelError("sampled contexts only support float numerics")
        if self.command == "sweep" and (self.figure is not None or "plotdata" in self.formats):
            raise ModelError(
                "sweep does not emit plot data; run run-default-context "
                "with --figure or --format plotdata for a single combination"
            )
        reads = _PARAMETERS[self.command]
        for name in ("scenario", "alpha", "theta", "n_states", "seed", "grid", "numeric"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, reads.get(name))
            elif name not in reads:
                raise ModelError(
                    f"{self.command} does not read {name} (it reads {', '.join(reads)})"
                )
        if self.command == "run-scenario":
            if self.scenario is None:
                raise ModelError("run-scenario requires --scenario <name or file>")
            return
        if self.seed is None:
            raise ModelError(f"{self.command} samples states and requires an explicit --seed")
        for name in ("seed", "n_states"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            # stored as an int: a numpy integer would reach the metadata
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise ModelError(f"seed must be non-negative, got {self.seed}")
        if self.n_states < 1:
            raise ModelError("n_states must be positive")
        for axis, values in zip(("alpha", "theta"), self.grid or ()):
            if not values:
                raise ModelError(f"the sweep grid's {axis} axis is empty")
            # each combination writes to `_combo_dirname`, which names values with :g
            names = [f"{value:g}" for value in values]
            clash = next((name for name in names if names.count(name) > 1), None)
            if clash is not None:
                raise GridCollisionError(
                    f"grid {axis} values {[v for v, n in zip(values, names) if n == clash]} "
                    f"share the name {axis}-{clash} of their output directories"
                )


def _echo(value) -> object:
    if isinstance(value, Fraction):
        return str(value)
    return value


def _new_bundle(command: str, numeric: str, **used) -> ResultBundle:
    """An empty bundle whose fingerprinted configuration is the values
    ``used`` by the run, None under every other key.  Formats, figures and
    the output directory never change a value, so they are left out."""
    config = dict.fromkeys(("scenario", "alpha", "theta", "n_states", "seed", "grid"))
    config.update(command=command, numeric=numeric, version=__version__, **used)
    return make_bundle(config)


# --------------------------------------------------------------------------
# scenario bundles
# --------------------------------------------------------------------------


def _load_scenario(name_or_path: str) -> ScenarioDefinition:
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return parse_scenario_file(path)
    raise ModelError(
        f"{name_or_path!r} is neither a built-in scenario "
        f"({', '.join(BUILTIN_NAMES)}) nor an existing file"
    )


def _cross_columns(outer: list, inner: list, matrix: np.ndarray) -> tuple:
    """Columns ``outer[a]``, ``inner[b]`` and ``matrix[a, b]`` for every
    pair, outer-major: the names as `Labels`, the values as a list."""
    return (
        Labels(np.repeat(np.arange(len(outer)), len(inner)), outer),
        Labels(np.tile(np.arange(len(inner)), len(outer)), inner),
        matrix.ravel().tolist(),
    )


def _labelled_table(
    name: str, columns: tuple[str, ...], values: dict[tuple, Scalar]
) -> ResultTable:
    """One row per entry of ``values``: the fields of its label, then the
    value itself in the last column, which gets numeric rendering."""
    fields = [[label[k] for label in values] for k in range(len(columns) - 1)]
    return ResultTable(name, columns, (*fields, list(values.values())), value_columns=columns[-1:])


def _beliefs_table(beliefs: dict[str, dict[CausalStructure, Scalar]]) -> ResultTable:
    """Relation masses per interpretation stage."""
    return _labelled_table("relation_beliefs", ("interpretation", "relation", "mass"), {
        (stage, rel.value): masses[rel]
        for stage, masses in beliefs.items()
        for rel in RELATION_ORDER
    })


def scenario_bundle(config: RunConfig) -> ResultBundle:
    defn = _load_scenario(config.scenario)

    ctx = defn.to_context()
    if config.alpha is not None or config.theta is not None:
        ctx = ctx.with_params(alpha=config.alpha, theta=config.theta)
    mode = config.numeric
    if mode is None:
        mode = RATIONAL if ctx.exact else FLOAT
    if mode == RATIONAL and not ctx.exact:
        raise ModelError(
            "rational output requires exact scenario numbers (strings or "
            "integers in the file) and an integer alpha"
        )
    echo = _echo if mode == RATIONAL else float

    names = defn.variable_names
    bundle = _new_bundle(
        "run-scenario", mode, scenario=defn.name, alpha=echo(ctx.alpha), theta=echo(ctx.theta)
    )

    labels = [label or f"state{i}" for i, label in enumerate(ctx.labels)]
    utt_names = [u.format(names) for u in ctx.utterances]
    # a listener column exists only where its normaliser is nonzero
    surprise = engine.surprise_vector(ctx)
    supported = engine.utterance_masses(ctx) != 0
    produced = supported & (surprise != 0)
    bundle.metadata["unsupported_utterances"] = [
        name for name, ok in zip(utt_names, supported) if not ok
    ]

    bundle.add(ResultTable(
        "assertability", ("state", "utterance", "assertable"),
        _cross_columns(labels, utt_names, ctx.assertability),
    ))
    for name, matrix, mask in (
        ("literal_listener", engine.literal_listener_matrix(ctx), supported),
        ("pragmatic_listener", engine.pragmatic_listener_matrix(ctx), produced),
    ):
        bundle.add(ResultTable(
            name, ("utterance", "state", "probability"),
            _cross_columns([n for n, ok in zip(utt_names, mask) if ok], labels, matrix.T[mask]),
            value_columns=("probability",),
        ))
    bundle.add(ResultTable(
        "speaker", ("state", "utterance", "probability"),
        _cross_columns(labels, utt_names, engine.speaker_matrix(ctx)),
        value_columns=("probability",),
    ))
    bundle.add(ResultTable(
        "surprise", ("utterance", "value"),
        (utt_names, surprise.tolist()), value_columns=("value",),
    ))

    # belief analyses for the scenario's conditional, unless no state supports it
    j = next((j for j, u in enumerate(ctx.utterances) if isinstance(u, Conditional)), None)
    if j is not None and supported[j]:
        posts = engine.interpretations(ctx, ctx.utterances[j])
        beliefs = {stage: engine.relation_posterior(post) for stage, post in posts.items()}
        bundle.add(_beliefs_table(beliefs))

        summary = {("antecedent", stage): antecedent_belief(post) for stage, post in posts.items()}
        if defn.observation is not None:
            summary["antecedent", "pragmatic_observed"] = observation_update(
                posts["pragmatic"], defn.observation
            )
        for stage in ("prior", "pragmatic"):
            summary["joint_antecedent_consequent", stage] = joint_event_belief(posts[stage], A & C)
        for stage, masses in beliefs.items():
            summary["relation_dependent", stage] = sum(
                masses[r] for r in RELATION_ORDER if r is not CausalStructure.INDEPENDENT
            )
        bundle.add(_labelled_table("belief_summary", ("quantity", "stage", "value"), summary))

    return bundle


# --------------------------------------------------------------------------
# default-context bundles
# --------------------------------------------------------------------------


def world_probabilities_table(ctx: ScenarioContext) -> ResultTable:
    """Each state's relation and world probabilities: the sampled cells,
    the same at every alpha and theta."""
    n, worlds = ctx.n_states, len(WORLD_NAMES)
    # one int object per state, shared by its rows, as `rows` would give
    states = np.arange(n).astype(object)
    return ResultTable(
        "world_probabilities", ("state", "relation", "world", "probability"),
        (
            np.repeat(states, worlds),
            Labels(np.repeat(ctx.relations, worlds), RELATION_NAMES),
            Labels(np.tile(np.arange(worlds, dtype=np.int8), n), WORLD_NAMES),
            ctx.cells.ravel(),
        ),
        value_columns=("probability",),
    )


_COHORT_NAMES = ("prior", "assertable", "best_choice")


def delta_p_table(ctx: ScenarioContext, cohorts: Sequence[analysis.DeltaPCohort]) -> ResultTable:
    """The ``delta_p_cohorts`` rows of ``cohorts``, in order; each cohort
    name is a code into all three, so that any of these tables can be the
    part of another."""
    indices = np.concatenate([cohort.indices for cohort in cohorts])
    codes = np.array([_COHORT_NAMES.index(cohort.name) for cohort in cohorts], dtype=np.int8)
    return ResultTable(
        "delta_p_cohorts", ("cohort", "state", "relation", "value"),
        (
            Labels(np.repeat(codes, [len(cohort.indices) for cohort in cohorts]), _COHORT_NAMES),
            indices,
            Labels(ctx.relations[indices], RELATION_NAMES),
            np.concatenate([cohort.values for cohort in cohorts]),
        ),
        value_columns=("value",),
    )


def default_context_bundle(
    ctx: ScenarioContext,
    seed: int,
    check_level: str = "strict",
    world: ResultTable | None = None,
    prior: ResultTable | None = None,
) -> ResultBundle:
    """The default-context bundle of ``ctx``, sampled under ``seed``.
    ``world`` is its `world_probabilities_table` and ``prior`` the
    `delta_p_table` of its prior cohort, when the caller already holds them;
    given ``prior``, ``delta_p_cohorts`` is written in two parts, that one
    and the rest."""
    # computed before any table is laid out, so that the tables reuse the
    # heap that the analyses' short-lived arrays freed
    analyses = analysis.context_analyses(ctx)
    bundle = _new_bundle(
        "run-default-context", FLOAT,
        alpha=float(ctx.alpha), theta=float(ctx.theta), n_states=ctx.n_states, seed=seed,
    )

    bundle.add(world if world is not None else world_probabilities_table(ctx))
    bundle.add(_beliefs_table(analyses.beliefs))

    bundle.add(_labelled_table(
        "best_utterance_frequencies",
        ("certainty", "relation_group", "utterance_type", "count", "frequency"),
        {
            (cell.value, group, kind.value, freq.count): freq.frequencies[kind]
            for by_cell in analyses.frequencies.values()
            for (cell, group), freq in sorted(
                by_cell.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            )
            for kind in UtteranceType
        },
    ))
    bundle.add(_labelled_table("cp_metrics", ("interpretation", "metric", "value"), {
        (stage, metric): float(getattr(cp, metric))
        for stage, cp in analyses.cp.items()
        for metric in ("not_c_given_not_a", "a_given_c", "excluded_mass_not_a", "excluded_mass_c")
    }))

    cohorts = analyses.cohorts
    if prior is None:
        bundle.add(delta_p_table(ctx, (cohorts.prior, cohorts.assertable, cohorts.best_choice)))
    else:
        bundle.add(ResultTable.of_parts(
            (prior, delta_p_table(ctx, (cohorts.assertable, cohorts.best_choice)))
        ))

    bundle.add(_labelled_table(
        "expected_choice", ("speaker_rule", "relation", "utterance_type", "mass"),
        {
            (rule_name, rel.value, kind.value): table[rel.value][kind]
            for rule_name, table in analyses.choice.items()
            for rel in RELATION_ORDER
            if rel.value in table
            for kind in UtteranceType
        },
    ))

    checks = analysis.default_context_checks(ctx, check_level)
    bundle.add(ResultTable(
        "checks", ("check", "level", "passed", "observed", "requirement", "margin"),
        (
            [c.name for c in checks],
            [check_level] * len(checks),
            [c.passed for c in checks],
            [c.observed for c in checks],
            [c.requirement for c in checks],
            [c.margin for c in checks],
        ),
    ))
    bundle.metadata["checks_passed"] = analysis.all_passed(checks)
    return bundle


#: the columns of a combination's ``checks`` that ``sweep_checks`` repeats,
#: after its ``alpha`` and ``theta``
_SWEPT_CHECK_COLUMNS = ("check", "passed", "observed", "requirement", "margin")


def sweep_bundles(config: RunConfig) -> tuple[ResultBundle, dict[tuple[float, float], ResultBundle]]:
    alphas, thetas = config.grid
    ctx = build_default_context(config.seed, config.n_states, alpha=alphas[0], theta=thetas[0])
    grid = {"alpha": list(alphas), "theta": list(thetas)}
    master = _new_bundle("sweep", FLOAT, n_states=config.n_states, seed=config.seed, grid=grid)
    # the prior cohort reads only the cells, which every combination shares
    prior = delta_p_table(ctx, (analysis.context_analyses(ctx).cohorts.prior,))
    world = world_probabilities_table(ctx)
    combos: dict[tuple[float, float], ResultBundle] = {}
    summary: dict[str, list] = {name: [] for name in ("alpha", "theta", *_SWEPT_CHECK_COLUMNS)}
    for theta in thetas:
        for alpha in alphas:
            if (alpha, theta) != (ctx.alpha, ctx.theta):  # one build per combination
                ctx = ctx.with_params(alpha=alpha, theta=theta)
            sub = default_context_bundle(ctx, config.seed, "qualitative", world, prior)
            combos[(alpha, theta)] = sub
            checks = sub.tables["checks"]
            summary["alpha"] += [alpha] * checks.n_rows
            summary["theta"] += [theta] * checks.n_rows
            for name in _SWEPT_CHECK_COLUMNS:
                summary[name] += checks.data[checks.columns.index(name)]
    master.add(ResultTable(
        "sweep_checks", tuple(summary), tuple(summary.values()), value_columns=("alpha", "theta"),
    ))
    master.metadata["checks_passed"] = all(s.metadata["checks_passed"] for s in combos.values())
    return master, combos


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _combo_dirname(alpha: float, theta: float) -> str:
    return f"alpha-{alpha:g}_theta-{theta:g}"


def run(config: RunConfig) -> ResultBundle:
    """Execute a configuration; writes files when ``output_dir`` is set."""
    subs: dict[tuple[float, float], ResultBundle] = {}
    if config.command == "run-scenario":
        bundle = scenario_bundle(config)
    elif config.command == "run-default-context":
        ctx = build_default_context(
            config.seed, config.n_states, alpha=config.alpha, theta=config.theta
        )
        bundle = default_context_bundle(ctx, config.seed)
    else:
        bundle, subs = sweep_bundles(config)

    if config.figure is not None:  # checked with or without an output directory
        _figure_spec(bundle, config.figure)
    if config.output_dir is not None:
        out = Path(config.output_dir)
        figures: tuple[str, ...] = ()
        if config.figure is not None:
            figures = (config.figure,)
        elif "plotdata" in config.formats:
            figures = applicable_figures(bundle)
        if not figures and not {"csv", "json"} & set(config.formats):
            raise _nothing_to_write(out)
        write_bundles(
            [(bundle, out)] + [
                (sub, out / _combo_dirname(alpha, theta)) for (alpha, theta), sub in subs.items()
            ],
            config.formats,
            figures,
        )
    return bundle
