"""The runner computes, lays out and renders each result once.

Scenario tables are the engine's matrices laid out as columns, and their
rows must equal, in value and in type, the rows that the per-utterance and
per-state operations give; sampled tables equal the row-by-row layout they
replace; no run reads a table's row view; a default-context bundle runs
each analysis once; one write renders each table once, plot data
included; and a file scenario is lowered to one context.
"""

from __future__ import annotations

import dataclasses
import json
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import condrsa as cr
from condrsa import analysis, engine, results, runner
from condrsa.context import ScenarioContext
from condrsa.core import RELATION_ORDER, WORLD_NAMES, ModelError, ZeroSupportError
from condrsa.results import FIGURES, applicable_figures
from condrsa.runner import (
    GridCollisionError,
    RunConfig,
    _combo_dirname,
    default_context_bundle,
    delta_p_table,
    parse_grid,
    parse_parameter,
    run,
    scenario_bundle,
    sweep_bundles,
)
from condrsa.scenario_io import parse_scenario_file

FIXTURE = Path(__file__).with_name("orchard_scenario.json")

#: a float scenario where "likely B" is assertable in both states but, at
#: alpha 2000, every speaker's probability for it underflows to zero
UNPRODUCED = {
    "name": "unproduced",
    "variables": {"antecedent": "W", "consequent": "B"},
    "alpha": 2000.0,
    "theta": 0.9,
    "utterances": ["B", "W", "likely B"],
    "states": [
        {"label": "s1", "weight": 0.5, "table": {
            "both": 0.48, "antecedent_only": 0.02, "consequent_only": 0.45, "neither": 0.05}},
        {"label": "s2", "weight": 0.5, "table": {
            "both": 0.874, "antecedent_only": 0.076, "consequent_only": 0.0, "neither": 0.05}},
    ],
}


#: a state exactly on theta: P(A) = 3/10 + 3/5 = 9/10 in s1, which a float
#: rebuild of the cells puts at 0.8999999999999999
ON_THRESHOLD = {
    "name": "on_threshold",
    "variables": {"antecedent": "A", "consequent": "C"},
    "alpha": 1,
    "theta": "9/10",
    "utterances": ["A", "likely A", "C"],
    "states": [
        {"label": "s1", "weight": "1/2", "table": {
            "both": "3/10", "antecedent_only": "3/5", "consequent_only": "1/10", "neither": "0"}},
        {"label": "s2", "weight": "1/2", "table": {
            "both": "1/20", "antecedent_only": "0", "consequent_only": "19/20", "neither": "0"}},
    ],
}

WORLD_KEYS = ("both", "antecedent_only", "consequent_only", "neither")


@st.composite
def rational_scenarios(draw) -> dict:
    """Scenario dicts with string rationals: cell denominators up to 20 and
    a threshold that hand-built scenarios use."""
    states = []
    for i in range(draw(st.integers(1, 4))):
        parts = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(sum))
        states.append({
            "label": f"s{i}",
            "weight": str(draw(st.integers(1, 3))),
            "table": {k: str(Fraction(p, sum(parts))) for k, p in zip(WORLD_KEYS, parts)},
        })
    total = sum(int(state["weight"]) for state in states)
    for state in states:
        state["weight"] = str(Fraction(int(state["weight"]), total))
    # the four "likely" utterances, which most states can assert, and a
    # random subset of the others
    utterances = [str(u) for u in cr.default_utterances()]
    likely = [u for u in utterances if u.startswith("likely")]
    others = st.lists(st.sampled_from([u for u in utterances if u not in likely]), unique=True)
    return {
        "name": "random",
        "variables": {"antecedent": "A", "consequent": "C"},
        "alpha": draw(st.integers(0, 3)),
        "theta": draw(st.sampled_from(["3/5", "3/4", "9/10", "1"])),
        "utterances": likely + draw(others),
        "states": states,
    }


def _loop_tables(defn: cr.ScenarioDefinition, ctx: ScenarioContext):
    """The five scenario tables and the unsupported utterances, built one
    utterance and one state at a time through the engine's operations."""
    labels = [label or f"state{i}" for i, label in enumerate(ctx.labels)]
    names = [u.format(defn.variable_names) for u in ctx.utterances]
    literal, pragmatic, unsupported = [], [], []
    for name, u in zip(names, ctx.utterances):
        try:
            post = cr.literal_listener(ctx, u)
        except ZeroSupportError:
            unsupported.append(name)
            continue
        literal += [(name, label, w) for label, w in zip(labels, post.weights)]
        try:
            post = cr.pragmatic_listener(ctx, u)
        except ZeroSupportError:
            continue
        pragmatic += [(name, label, w) for label, w in zip(labels, post.weights)]
    speaker = []
    for i, label in enumerate(labels):
        row = cr.speaker(ctx, i)
        speaker += [(label, name, row[u]) for name, u in zip(names, ctx.utterances)]
    tables = {
        "assertability": [
            (label, name, bool(ctx.assertability[i, j]))
            for i, label in enumerate(labels)
            for j, name in enumerate(names)
        ],
        "literal_listener": literal,
        "pragmatic_listener": pragmatic,
        "speaker": speaker,
        "surprise": [
            (name, cr.utterance_surprise(ctx, u)) for name, u in zip(names, ctx.utterances)
        ],
    }
    return tables, unsupported


def _typed(rows) -> list:
    return [[(value, type(value)) for value in row] for row in rows]


def _unproduced_file(tmp_path: Path, utterances: list[str]) -> Path:
    path = tmp_path / "unproduced.json"
    path.write_text(json.dumps({**UNPRODUCED, "utterances": utterances}))
    return path


class TestScenarioTables:
    @pytest.mark.parametrize("numeric", ["rational", "float"])
    @pytest.mark.parametrize("scenario", [*cr.BUILTIN_NAMES, str(FIXTURE)])
    def test_tables_equal_the_per_utterance_rows(self, scenario, numeric):
        bundle = scenario_bundle(
            RunConfig(command="run-scenario", scenario=scenario, numeric=numeric)
        )
        defn = (
            parse_scenario_file(scenario) if scenario == str(FIXTURE) else cr.builtin(scenario)
        )
        # the numeric mode picks only the rendering: both modes lay out the
        # values of the one context the scenario lowers to
        expected, unsupported = _loop_tables(defn, defn.to_context())
        for name, rows in expected.items():
            assert _typed(bundle.tables[name].rows) == _typed(rows), name
        assert bundle.metadata["unsupported_utterances"] == unsupported

    def test_fixture_has_an_unsupported_utterance(self):
        bundle = scenario_bundle(RunConfig(command="run-scenario", scenario=str(FIXTURE)))
        assert bundle.metadata["unsupported_utterances"] == ["W & ~B"]
        assert "belief_summary" in bundle.tables

    def test_an_unproduced_utterance_has_literal_rows_only(self, tmp_path):
        path = _unproduced_file(tmp_path, ["B", "W", "likely B"])
        bundle = scenario_bundle(RunConfig(command="run-scenario", scenario=str(path)))
        defn = parse_scenario_file(path)
        expected, unsupported = _loop_tables(defn, defn.to_context())
        assert dict(bundle.tables["surprise"].rows)["likely B"] == 0
        assert {row[0] for row in bundle.tables["literal_listener"].rows} == {"B", "W", "likely B"}
        assert {row[0] for row in bundle.tables["pragmatic_listener"].rows} == {"B", "W"}
        for name, rows in expected.items():
            assert _typed(bundle.tables[name].rows) == _typed(rows), name
        assert unsupported == bundle.metadata["unsupported_utterances"] == []

    def test_an_unproduced_conditional_is_a_named_error(self, tmp_path):
        path = _unproduced_file(tmp_path, ["B", "W", "W -> B"])
        with pytest.raises(ZeroSupportError, match="no speaker ever produces"):
            scenario_bundle(RunConfig(command="run-scenario", scenario=str(path)))


class TestOneArithmetic:
    """A context's numbers decide its arithmetic; ``--numeric`` only picks
    how its values are rendered."""

    @settings(max_examples=100, deadline=None)
    @given(scenario=rational_scenarios())
    @example(scenario=ON_THRESHOLD)
    def test_float_rendering_of_a_rational_scenario(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(scenario))
            try:
                parse_scenario_file(path)
            except ModelError:  # some state can assert nothing
                assume(False)
            exact, rendered = (
                scenario_bundle(RunConfig(command="run-scenario", scenario=str(path), numeric=mode))
                for mode in ("rational", "float")
            )
        assert rendered.metadata["numeric"] == "float"
        assert exact.tables["assertability"].data == rendered.tables["assertability"].data
        assert list(exact.tables) == list(rendered.tables)
        for name, table in rendered.tables.items():
            header, strings = table.rendered("float")
            assert header == list(table.columns)
            for column, values, rendered_column in zip(
                table.columns, exact.tables[name].data, strings
            ):
                if column in table.value_columns:
                    assert list(rendered_column) == [f"{float(v):.12g}" for v in values], name

    def test_overrides_parse_exactly(self):
        assert parse_parameter("0.95", "--theta") == Fraction(19, 20)
        assert type(parse_parameter("3", "--alpha")) is int
        assert parse_parameter(None, "--alpha") is None

    def test_non_integer_alpha_runs_in_floats(self):
        bundle = scenario_bundle(
            RunConfig(command="run-scenario", scenario="toy", alpha=Fraction(5, 2))
        )
        assert (bundle.metadata["numeric"], bundle.metadata["alpha"]) == ("float", 2.5)
        assert bundle.metadata["theta"] == 0.9
        assert all(type(p) is float for p in bundle.tables["speaker"].data[2])

    def test_rational_output_needs_an_integer_alpha(self):
        config = RunConfig(
            command="run-scenario", scenario="toy", alpha=Fraction(5, 2), numeric="rational"
        )
        with pytest.raises(ModelError, match="integer alpha"):
            scenario_bundle(config)


class TestComputedOnce:
    def test_default_context_bundle_runs_each_analysis_once(self, monkeypatch):
        calls: Counter[str] = Counter()
        for module, name in (
            (analysis, "best_utterance_frequencies"), (analysis, "cp_metrics"),
            (analysis, "delta_p_cohorts"), (analysis, "_delta_p_array"),
            (analysis, "expected_choice_probabilities"),
            (engine, "interpretations"), (engine, "pragmatic_listener"),
        ):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        ctx = cr.build_default_context(1, 300)
        config = RunConfig(command="run-default-context", seed=1, n_states=300)
        bundle = default_context_bundle(ctx, config)
        assert calls == {
            "best_utterance_frequencies": 2,  # once per grouping
            "expected_choice_probabilities": 2,  # once per speaker rule
            "interpretations": 1,  # read by both relation beliefs and CP metrics
            "pragmatic_listener": 1,
            "cp_metrics": 3,  # prior, literal, pragmatic
            "delta_p_cohorts": 1,
            "_delta_p_array": 1,
        }
        assert len(bundle.tables["checks"].rows) > 0
        assert analysis.context_analyses(ctx) is analysis.context_analyses(ctx)
        assert analysis.context_analyses(ctx.with_params(alpha=3.0)) is not (
            analysis.context_analyses(ctx)
        )

    def test_write_bundle_renders_each_table_once(self, monkeypatch, tmp_path):
        bundle = scenario_bundle(RunConfig(command="run-scenario", scenario="garden_party"))
        rendered: list[str] = []
        original = results.ResultTable.rendered

        def counted(self, *args):
            rendered.append(self.name)
            return original(self, *args)

        monkeypatch.setattr(results.ResultTable, "rendered", counted)
        both = results.write_bundle(bundle, tmp_path / "both", ("csv", "json"))
        assert sorted(rendered) == sorted(bundle.tables)
        assert [p.name for p in both] == ["bundle.json"] + [
            f"{name}.csv" for name in sorted(bundle.tables)
        ]

        rendered.clear()
        assert results.write_bundle(bundle, tmp_path / "none", ()) == []
        assert rendered == []

        # the shared rendering writes the bytes of a single-format write
        alone = results.write_bundle(bundle, tmp_path / "json", ("json",))
        alone += results.write_bundle(bundle, tmp_path / "csv", ("csv",))
        assert [p.read_bytes() for p in alone] == [p.read_bytes() for p in both]

    def test_exact_file_run_builds_one_context(self, monkeypatch):
        builds: list[ScenarioContext] = []
        original = ScenarioContext.__post_init__

        def counted(self):
            builds.append(self)
            original(self)

        monkeypatch.setattr(ScenarioContext, "__post_init__", counted)
        run(RunConfig(command="run-scenario", scenario=str(FIXTURE), numeric="rational"))
        assert len(builds) == 1

    def test_float_mode_run_builds_one_context(self, monkeypatch):
        builds: list[ScenarioContext] = []
        original = ScenarioContext.__post_init__

        def counted(self):
            builds.append(self)
            original(self)

        monkeypatch.setattr(ScenarioContext, "__post_init__", counted)
        bundle = run(RunConfig(command="run-scenario", scenario=str(FIXTURE), numeric="float"))
        assert len(builds) == 1 and builds[0].exact
        assert bundle.metadata["numeric"] == "float"

    def test_a_definition_keeps_its_context(self):
        defn = parse_scenario_file(FIXTURE)
        assert defn.to_context() is defn.to_context()
        changed = dataclasses.replace(defn, alpha=3)
        assert changed.to_context() is not defn.to_context()
        assert (changed.to_context().alpha, defn.to_context().alpha) == (3, 2)


class TestColumnarTables:
    """Tables are held as columns; `rows` is a view that no run needs."""

    def test_sampled_tables_equal_the_row_generators(self):
        ctx = cr.build_default_context(1, 500)
        bundle = default_context_bundle(
            ctx, RunConfig(command="run-default-context", seed=1, n_states=500)
        )
        # the row-by-row layouts that the columns replace
        relation_names = [r.value for r in RELATION_ORDER]
        world_rows = tuple(
            (i, relation_names[code], world, p)
            for i, (code, cells) in enumerate(zip(ctx.relations.tolist(), ctx.cells.tolist()))
            for world, p in zip(WORLD_NAMES, cells)
        )
        cohorts = analysis.context_analyses(ctx).cohorts
        relations = analysis.relation_array(ctx)
        cohort_rows = tuple(
            (cohort.name, int(i), RELATION_ORDER[relations[i]].value, float(v))
            for cohort in (cohorts.prior, cohorts.assertable, cohorts.best_choice)
            for i, v in zip(cohort.indices, cohort.values)
        )
        world = bundle.tables["world_probabilities"]
        assert _typed(world.rows) == _typed(world_rows)
        assert _typed(bundle.tables["delta_p_cohorts"].rows) == _typed(cohort_rows)
        # repeated names are label codes, the probabilities a view of the
        # cells, and rows give Python values
        delta_p = bundle.tables["delta_p_cohorts"]
        _, relation, names, probability = world.data
        cohort, _, cohort_relation, _ = delta_p.data
        assert all(isinstance(c, results.Labels) for c in (relation, names, cohort, cohort_relation))
        assert np.shares_memory(probability, ctx.cells)
        assert {tuple(map(type, row)) for row in world.rows} == {(int, str, str, float)}
        assert {tuple(map(type, row)) for row in delta_p.rows} == {(str, int, str, float)}

    @pytest.mark.parametrize("config", [
        RunConfig(command="run-default-context", seed=1, n_states=500,
                  formats=("csv", "json", "plotdata")),
        RunConfig(command="sweep", seed=1, n_states=500),
        RunConfig(command="run-scenario", scenario="garden_party",
                  formats=("csv", "json", "plotdata")),
    ], ids=lambda config: config.command)
    def test_runs_never_read_the_row_view(self, config, monkeypatch, tmp_path):
        def refuse(table):
            raise AssertionError(f"{table.name}.rows was read")

        monkeypatch.setattr(results.ResultTable, "rows", property(refuse))
        run(dataclasses.replace(config, output_dir=tmp_path))
        assert (tmp_path / "bundle.json").exists()

    def test_a_table_given_rows_stores_their_columns(self):
        table = results.ResultTable("t", ("a", "b"), ([1, 3], [2, 4]), value_columns=("b",))
        assert table.rows == ((1, 2), (3, 4))
        changed = dataclasses.replace(table, rows=[(5, 6)])
        assert (changed.data, changed.value_columns) == (([5], [6]), ("b",))
        empty = dataclasses.replace(table, rows=())
        assert empty.data == ([], [])
        assert empty.rendered("float") == (["a", "b"], [[], []])

    def test_sweep_refuses_plot_data(self, tmp_path):
        with pytest.raises(ModelError, match="sweep does not emit plot data"):
            run(RunConfig(command="sweep", seed=1, n_states=300, grid=((1.0, 3.0), (0.9,)),
                          output_dir=tmp_path, formats=("csv", "json", "plotdata")))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid, values", [
        (((1.0, 1.0000001), (0.9,)), "alpha values [1.0, 1.0000001]"),
        (((1.0, 1.0), (0.9,)), "alpha values [1.0, 1.0]"),
        (((1.0,), (0.9, 0.95, 0.9)), "theta values [0.9, 0.9]"),
    ])
    def test_sweep_refuses_grid_values_sharing_a_directory(self, tmp_path, grid, values):
        # each combination writes to its _combo_dirname: two values with one
        # name would overwrite a sub-bundle and repeat its sweep_checks rows
        with pytest.raises(GridCollisionError, match=re.escape(values)):
            run(RunConfig(command="sweep", seed=1, n_states=300, grid=grid, output_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, axis", [
    ("alpha=1;alpha=3", "alpha"), ("theta=0.9;alpha=1;theta=0.95", "theta"),
])
def test_parse_grid_rejects_an_axis_given_twice(spec, axis):
    assert parse_grid("theta=0.9;alpha=1,3") == ((1.0, 3.0), (0.9,))
    with pytest.raises(ModelError, match=f"gives the {axis} axis twice"):
        parse_grid(spec)


@pytest.mark.parametrize("grid, axis", [(((), (0.9,)), "alpha"), (((1.0,), ()), "theta")])
def test_an_empty_grid_axis_is_refused_before_any_sampling(monkeypatch, grid, axis):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep over an empty axis sampled the default context")

    monkeypatch.setattr(runner, "build_default_context", refuse)
    with pytest.raises(ModelError, match=f"grid's {axis} axis is empty"):
        run(RunConfig(command="sweep", seed=1, n_states=50, grid=grid))


class TestCheckMargins:
    """The ``checks`` and ``sweep_checks`` tables end in each check's signed
    margin, the number its verdict comes from."""

    @pytest.mark.parametrize("level", ["strict", "qualitative"])
    def test_the_margin_column_is_each_checks_margin(self, level):
        config = RunConfig(command="run-default-context", seed=1, n_states=2000)
        ctx = cr.build_default_context(config.seed, config.n_states)
        table = default_context_bundle(ctx, config, level).tables["checks"]
        checks = analysis.default_context_checks(ctx, level)
        assert table.columns[-1] == "margin"
        columns = dict(zip(table.columns, table.data))
        assert columns["margin"] == [c.margin for c in checks]
        for c, passed, margin in zip(checks, columns["passed"], columns["margin"]):
            if passed:
                assert margin > 0 or (margin == 0 and c.inclusive)
            else:
                assert margin < 0 or (margin == 0 and not c.inclusive)
        header, rendered = table.rendered("float")
        assert list(rendered[-1]) == [f"{m:.12g}" for m in columns["margin"]]

    def test_sweep_checks_repeat_each_combinations_checks(self):
        master, subs = sweep_bundles(
            RunConfig(command="sweep", seed=1, n_states=300, grid=((1.0, 3.0), (0.9, 0.95)))
        )
        table = master.tables["sweep_checks"]
        assert table.columns == (
            "alpha", "theta", "check", "passed", "observed", "requirement", "margin",
        )
        expected = [
            (alpha, theta, name, passed, observed, requirement, margin)
            for (alpha, theta), sub in subs.items()
            for name, _, passed, observed, requirement, margin in sub.tables["checks"].rows
        ]
        assert table.rows == tuple(expected)


def test_a_write_of_nothing_is_refused_before_any_work(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a write of nothing sampled the default context")

    monkeypatch.setattr(runner, "build_default_context", refuse)
    for command in ("run-default-context", "sweep"):
        with pytest.raises(ModelError, match=re.escape(f"nothing to write to {str(tmp_path)!r}")):
            run(RunConfig(command=command, seed=1, output_dir=tmp_path, formats=()))
    # plot data alone needs the bundle to learn which figures apply, and a
    # write without a directory writes nothing by design
    RunConfig(command="run-default-context", seed=1, output_dir=tmp_path, formats=("plotdata",))
    RunConfig(command="run-default-context", seed=1, output_dir=tmp_path, formats=(), figure="fig9")
    RunConfig(command="run-default-context", seed=1, formats=())
    assert list(tmp_path.iterdir()) == []


def _counted_renders(monkeypatch) -> Counter[str]:
    rendered: Counter[str] = Counter()
    original = results.ResultTable.rendered

    def counted(self, *args):
        rendered[self.name] += 1
        return original(self, *args)

    monkeypatch.setattr(results.ResultTable, "rendered", counted)
    return rendered


class TestOneRenderingPerWrite:
    @pytest.mark.parametrize("config", [
        RunConfig(command="run-scenario", scenario="garden_party"),
        RunConfig(command="run-default-context", seed=1, n_states=500),
    ], ids=lambda config: config.command)
    def test_a_full_write_renders_each_table_once(self, config, monkeypatch, tmp_path):
        rendered = _counted_renders(monkeypatch)
        bundle = run(dataclasses.replace(
            config, output_dir=tmp_path, formats=("csv", "json", "plotdata"),
        ))
        assert rendered == Counter(list(bundle.tables))
        figures = applicable_figures(bundle)
        assert figures
        assert sorted(p.stem for p in (tmp_path / "plotdata").iterdir()) == sorted(figures)

    @pytest.mark.parametrize("config", [
        RunConfig(command="run-scenario", scenario="garden_party"),
        RunConfig(command="run-default-context", seed=1, n_states=500),
    ], ids=lambda config: config.command)
    def test_plot_data_alone_renders_only_source_tables(self, config, monkeypatch, tmp_path):
        rendered = _counted_renders(monkeypatch)
        bundle = run(dataclasses.replace(config, output_dir=tmp_path, formats=("plotdata",)))
        sources = {FIGURES[figure_id].table for figure_id in applicable_figures(bundle)}
        assert rendered == Counter(sources)
        assert set(bundle.tables) - sources
        assert [p.name for p in tmp_path.iterdir()] == ["plotdata"]

    def test_a_sweep_renders_its_shared_world_table_once(self, monkeypatch, tmp_path):
        config = RunConfig(command="sweep", seed=1, n_states=300, grid=((1.0, 3.0), (0.9, 0.95)))
        master, subs = sweep_bundles(config)
        worlds = [sub.tables["world_probabilities"] for sub in subs.values()]
        assert len(worlds) == 4
        assert all(world is worlds[0] for world in worlds)
        # the prior cohort is one part that every sub-bundle's delta_p_cohorts
        # holds; each table equals the one-part table of its own combination
        priors = [sub.tables["delta_p_cohorts"].parts[0] for sub in subs.values()]
        assert all(prior is priors[0] for prior in priors)
        assert {len(sub.tables["delta_p_cohorts"].parts) for sub in subs.values()} == {2}
        for (alpha, theta), sub in subs.items():
            ctx = cr.build_default_context(config.seed, config.n_states, alpha=alpha, theta=theta)
            cohorts = analysis.context_analyses(ctx).cohorts
            own = delta_p_table(ctx, (cohorts.prior, cohorts.assertable, cohorts.best_choice))
            assert own.parts == (own,)
            assert sub.tables["delta_p_cohorts"] == own
            assert sub.tables["delta_p_cohorts"].rows == own.rows

        rendered = _counted_renders(monkeypatch)
        run(dataclasses.replace(config, output_dir=tmp_path / "shared"))
        assert rendered["world_probabilities"] == 1
        assert rendered["delta_p_cohorts"] == 1 + len(subs)  # the prior once, the rest per bundle
        assert rendered["checks"] == len(subs)

        # sharing changes no byte: each bundle written alone gives the same files
        alone = [results.write_bundle(master, tmp_path / "alone", config.formats)]
        alone += [
            results.write_bundle(sub, tmp_path / "alone" / _combo_dirname(*combo), config.formats)
            for combo, sub in subs.items()
        ]
        files = sorted(p for paths in alone for p in paths)
        assert len(files) == sum(1 + len(b.tables) for b in (master, *subs.values()))
        for path in files:
            shared = tmp_path / "shared" / path.relative_to(tmp_path / "alone")
            assert shared.read_bytes() == path.read_bytes()
