"""Tests of the benchmark's own code: run with ``python3 -m pytest bench/tests``."""

import dataclasses
from fractions import Fraction

import pytest

import ladder
import spans
import verify
import worker
import workloads
from condrsa.runner import RunConfig, run
from condrsa.scenario_io import parse_scenario_file


# -- ladder generator ----------------------------------------------------------


def test_ladder_is_byte_identical_for_a_seed(tmp_path):
    first = ladder.write_ladder(7, tmp_path / "a", sizes=(10, 40))
    second = ladder.write_ladder(7, tmp_path / "b", sizes=(10, 40))
    other = ladder.write_ladder(8, tmp_path / "c", sizes=(10, 40))
    for a, b, c in zip(first, second, other):
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_every_ladder_file_parses_as_an_exact_scenario(tmp_path, seed):
    for path, n in zip(ladder.write_ladder(seed, tmp_path), ladder.LADDER_SIZES):
        definition = parse_scenario_file(path)
        assert len(definition.states) == n
        assert definition.to_context().exact


# -- span arithmetic -----------------------------------------------------------


def _span(layer, name, start, end, parent=None):
    return spans.Span(layer, name, start, end, parent, request=1)


def test_self_time_subtracts_children_once():
    recorded = [
        _span("runner", "run", 0.0, 10.0),
        _span("engine", "speaker", 1.0, 4.0, parent=0),
        _span("engine", "utterance_masses", 2.0, 3.0, parent=1),
        _span("results", "write_bundle", 5.0, 9.0, parent=0),
        # overlaps its sibling; the union is subtracted, not the sum
        _span("results", "rendered", 5.0, 7.0, parent=3),
        _span("results", "rendered", 6.0, 8.0, parent=3),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    assert spans.layer_self_times(recorded) == pytest.approx(
        {"runner": 3.0, "engine": 3.0, "results": 5.0}
    )
    assert spans.inclusive_time(recorded, "write_bundle") == pytest.approx(4.0)


def test_inclusive_time_counts_a_recursive_span_once():
    recorded = [
        _span("engine", "speaker", 0.0, 5.0),
        _span("engine", "speaker", 1.0, 2.0, parent=0),
        _span("engine", "speaker", 6.0, 7.0),
    ]
    assert spans.inclusive_time(recorded, "speaker") == pytest.approx(6.0)


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    import condrsa.runner as runner_module

    original = runner_module.run
    tracer = spans.Tracer()
    tracer.install()
    try:
        # bound before install: no span of its own, but its callees are traced
        run(RunConfig(command="run-scenario", scenario="toy"))
        runner_module.run(RunConfig(command="run-scenario", scenario="toy",
                                    output_dir=tmp_path, formats=("csv",)))
    finally:
        tracer.uninstall()
    assert runner_module.run is original
    recorded, counts = tracer.take()
    metrics = spans.layer_metrics(recorded, counts)
    assert metrics["context.builds"] >= 1
    assert metrics["engine.utterance_masses_calls"] >= 3
    assert metrics["results.bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    requests = {s.request for s in recorded if s.layer == "runner"}
    assert len(requests) == 2


# -- verification --------------------------------------------------------------


def _replace_table(bundle, name, rows):
    bundle.tables[name] = dataclasses.replace(bundle.tables[name], rows=tuple(rows))


def test_builtin_bundles_verify_and_a_corrupted_golden_value_is_flagged():
    for name in workloads.BUILTINS:
        bundle = run(RunConfig(command="run-scenario", scenario=name, numeric="rational"))
        assert verify.exact_bundle(bundle, None) == []
    bundle = run(RunConfig(command="run-scenario", scenario="skiing", numeric="rational"))
    rows = [
        row[:-1] + (Fraction(4, 5),) if row[:2] == ("E -> S", "dep") else row
        for row in bundle.tables["pragmatic_listener"].rows
    ]
    _replace_table(bundle, "pragmatic_listener", rows)
    problems = verify.exact_bundle(bundle, None)
    assert any("golden" in p for p in problems)
    assert any("sums to" in p for p in problems)


def test_float_speaker_row_is_not_exact(tmp_path):
    path = ladder.write_ladder(3, tmp_path, sizes=(10,))[0]
    bundle = run(RunConfig(command="run-scenario", scenario=str(path), numeric="rational"))
    assert verify.exact_bundle(bundle, None) == []
    rows = list(bundle.tables["speaker"].rows)
    rows[0] = rows[0][:-1] + (float(rows[0][-1]),)
    _replace_table(bundle, "speaker", rows)
    assert any("not an exact probability" in p for p in verify.exact_bundle(bundle, None))


def test_corrupted_sampled_bundle_is_flagged():
    bundle = run(RunConfig(command="run-default-context", seed=2, n_states=300))
    assert verify.sampled_bundle(bundle) == []
    rows = list(bundle.tables["relation_beliefs"].rows)
    rows[0] = rows[0][:-1] + (rows[0][-1] + 1e-9,)
    _replace_table(bundle, "relation_beliefs", rows)
    checks = [r for r in bundle.tables["checks"].rows if r[0] != "mixed_literal"]
    _replace_table(bundle, "checks", checks)
    problems = verify.sampled_bundle(bundle)
    assert any(p.startswith("relation_beliefs") for p in problems)
    assert any("missing ['mixed_literal']" in p for p in problems)


def test_sweep_files_are_verified(tmp_path):
    grid = ((1.0, 3.0), (0.9,))
    bundle = run(RunConfig(command="sweep", seed=2, n_states=300, grid=grid,
                           output_dir=tmp_path, formats=("csv", "json")))
    assert verify.sweep_result(bundle, tmp_path, *grid) == []
    path = tmp_path / "alpha-3_theta-0.9" / "expected_choice.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")  # config comment, header, first row
    cells[3] = str(float(cells[3]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    problems = verify.sweep_result(bundle, tmp_path, *grid)
    assert problems and all("expected_choice" in p for p in problems)


def test_a_failed_operation_is_counted(tmp_path):
    good, = workloads.build("sampled_100k", 1, tmp_path)[0]
    bad = workloads.Op("missing scenario",
                       RunConfig(command="run-scenario", scenario=str(tmp_path / "none.json")),
                       verify.sampled_bundle)
    runner = worker.Runner([good, bad], tmp_path / "out")
    wall, factor, written = runner.one_pass()
    assert wall > 0 and factor > 0 and written == 0
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "raised ModelError" in runner.problems[0]
