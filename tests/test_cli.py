import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from condrsa.cli import main
from condrsa.scenario_io import write_scenario_file
import condrsa as cr


@pytest.fixture()
def runner():
    return CliRunner()


class TestRunScenario:
    def test_toy_emits_exact_fractions(self, runner, tmp_path):
        result = runner.invoke(
            main, ["run-scenario", "--scenario", "toy", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        metadata = json.loads(result.output)
        assert metadata["numeric"] == "rational"
        listener = (tmp_path / "pragmatic_listener.csv").read_text()
        assert "5/16" in listener and "11/16" in listener

    def test_scenario_file_path(self, runner, tmp_path):
        path = tmp_path / "custom.json"
        write_scenario_file(cr.builtin("skiing"), path)
        result = runner.invoke(
            main, ["run-scenario", "--scenario", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["scenario"] == "skiing"

    def test_exact_value_too_long_to_render_suggests_float(self, runner, tmp_path):
        # at alpha 20000 a rational speaker value has more digits than Python
        # converts to text; the float rendering of the same run works
        args = ["run-scenario", "--scenario", "sundowners", "--alpha", "20000"]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "rational")])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ModelError"
        assert "more than 4300 digits" in record["message"]
        assert "--numeric float" in record["message"]
        assert not any(path.is_file() for path in tmp_path.rglob("*"))
        result = runner.invoke(main, [*args, "--numeric", "float", "--out", str(tmp_path / "float")])
        assert result.exit_code == 0, result.output

    def test_a_failed_run_removes_the_directories_it_made(self, runner, tmp_path):
        """Only the missing directories of ``--out`` are made, and only
        those are removed when the write fails; one that existed is kept."""
        args = ["run-scenario", "--scenario", "sundowners", "--alpha", "20000", "--out"]
        result = runner.invoke(main, [*args, str(tmp_path / "D" / "a" / "b")])
        assert result.exit_code == 1
        assert "more than 4300 digits" in json.loads(result.stderr)["message"]
        assert not (tmp_path / "D").exists()
        (tmp_path / "kept").mkdir()
        result = runner.invoke(main, [*args, str(tmp_path / "kept" / "a")])
        assert result.exit_code == 1
        assert list(tmp_path.rglob("*")) == [tmp_path / "kept"]

    def test_unknown_scenario_is_machine_readable_error(self, runner):
        result = runner.invoke(main, ["run-scenario", "--scenario", "nope"])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ModelError"
        assert "built-in" in record["message"]

    def test_exact_parameter_overrides(self, runner):
        result = runner.invoke(
            main, ["run-scenario", "--scenario", "toy", "--theta", "19/20"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["theta"] == "19/20"

    def test_decimal_override_is_exact_in_every_mode(self, runner):
        for numeric, theta in (("rational", "19/20"), ("float", 0.95)):
            result = runner.invoke(main, [
                "run-scenario", "--scenario", "toy", "--theta", "0.95", "--numeric", numeric,
            ])
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["theta"] == theta

    @pytest.mark.parametrize("figure, message", [
        ("fig99", "unknown figure 'fig99' (known: fig10c, fig11c, fig12b, fig13d, "
                  "fig14, fig5, fig6, fig7, fig8, fig9)"),
        ("fig7", "this bundle cannot provide fig7; produce it with "
                 "`condrsa run-default-context`"),
    ])
    def test_bad_figure_writes_no_file(self, runner, tmp_path, figure, message):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run-scenario", "--scenario", "toy", "--figure", figure, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "FigureError", "message": message}
        assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize("option", ["--alpha", "--theta"])
    def test_zero_denominator_parameter_is_a_record(self, runner, tmp_path, option):
        result = runner.invoke(main, [
            "run-scenario", "--scenario", "toy", option, "1/0", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ModelError", "message": "parameter '1/0' divides by zero",
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--alpha", "--theta"])
    def test_non_number_parameter_names_its_option(self, runner, tmp_path, option):
        result = runner.invoke(main, [
            "run-scenario", "--scenario", "toy", option, "abc", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ModelError", "message": f"{option} 'abc' is not a number",
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["run-scenario", "--scenario", "toy"],
        ["run-default-context", "--seed", "1", "--n-states", "100"],
    ])
    def test_unknown_figure_fails_without_out(self, runner, command):
        result = runner.invoke(main, [*command, "--figure", "nope"])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "FigureError"
        assert record["message"].startswith("unknown figure 'nope'")

    def test_plotdata_without_a_figure_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run-scenario", "--scenario", "toy", "--format", "plotdata", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ModelError",
            "message": f"nothing to write to {str(out)!r}: no csv or json format is "
                       "requested, and no figure applies to this bundle",
        }
        assert list(tmp_path.iterdir()) == []

    def test_figure_flag(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run-scenario", "--scenario", "sundowners", "--out", str(tmp_path),
             "--figure", "fig13d", "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "plotdata" / "fig13d.csv").exists()

    def test_bad_figure_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run-scenario", "--scenario", "toy", "--out", str(tmp_path),
             "--figure", "fig6"],
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "FigureError"


class TestRunDefaultContext:
    def test_seed_is_mandatory(self, runner):
        result = runner.invoke(main, ["run-default-context"])
        assert result.exit_code != 0
        assert "--seed" in result.output or "--seed" in result.stderr

    def test_small_run_writes_checks(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run-default-context", "--seed", "3", "--n-states", "250",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        checks = (tmp_path / "checks.csv").read_text()
        assert "certain_both_conjunction_or_literal" in checks
        metadata = json.loads(result.output)
        assert metadata["seed"] == 3
        assert "checks_passed" in metadata

    def test_env_var_seed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run-default-context", "--n-states", "100", "--out", str(tmp_path)],
            env={"CONDRSA_SEED": "11"},
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["seed"] == 11

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, runner, tmp_path, alpha):
        result = runner.invoke(main, [
            "run-default-context", "--seed", "1", "--n-states", "300",
            "--alpha", alpha, "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ContextError"
        assert "finite and nonnegative" in record["message"]
        assert list(tmp_path.iterdir()) == []

    def test_no_format_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run-default-context", "--seed", "1", "--n-states", "100", "--format", ",",
            "--out", str(out),
        ])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ModelError"
        assert record["message"].startswith(f"nothing to write to {str(out)!r}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["run-default-context", "--alpha", "1e308"],
        ["sweep", "--sweep-grid", "alpha=1e308"],
    ])
    def test_an_alpha_that_overflows_the_softmax_is_a_record(self, runner, tmp_path, command):
        result = runner.invoke(main, [
            *command, "--seed", "1", "--n-states", "2000", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ContextError",
            "message": "alpha 1e+308 overflows the float soft-max; use Argmax",
        }
        assert list(tmp_path.iterdir()) == []

    def test_zero_states_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run-default-context", "--seed", "1", "--n-states", "0", "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ModelError", "message": "n_states must be positive",
        }
        assert list(tmp_path.iterdir()) == []


    def test_negative_seed_is_named(self, runner, tmp_path):
        for command in ("run-default-context", "sweep"):
            result = runner.invoke(main, [
                command, "--seed", "-1", "--n-states", "100", "--out", str(tmp_path),
            ])
            assert result.exit_code == 1
            assert json.loads(result.stderr) == {
                "error": "ModelError", "message": "seed must be non-negative, got -1",
            }
            assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_small_sweep(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--seed", "3", "--n-states", "200",
             "--sweep-grid", "alpha=1,3;theta=0.9,0.95", "--out", str(tmp_path),
             "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        combos = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert combos == {
            "alpha-1_theta-0.9", "alpha-1_theta-0.95",
            "alpha-3_theta-0.9", "alpha-3_theta-0.95",
        }
        master = json.loads((tmp_path / "bundle.json").read_text())
        assert "sweep_checks" in master["tables"]

    def test_plot_data_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--seed", "3", "--n-states", "200", "--out", str(tmp_path),
             "--format", "csv,json,plotdata"],
        )
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ModelError"
        assert "sweep does not emit plot data" in record["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid, message", [
        ("alpha=x", "cannot parse grid values in 'alpha=x'"),
        ("alpha=", "grid 'alpha=' has an empty axis"),
        ("alpha=1;alpha=3", "grid 'alpha=1;alpha=3' gives the alpha axis twice"),
        ("theta=0.9;alpha=1;theta=0.95",
         "grid 'theta=0.9;alpha=1;theta=0.95' gives the theta axis twice"),
    ])
    def test_bad_grid_values_rejected(self, runner, tmp_path, grid, message):
        result = runner.invoke(main, [
            "sweep", "--seed", "3", "--n-states", "200", "--sweep-grid", grid,
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "ModelError", "message": message}
        assert list(tmp_path.iterdir()) == []

    def test_grid_values_sharing_a_directory_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--seed", "1", "--n-states", "300",
            "--sweep-grid", "alpha=1,1.0000001;theta=0.9", "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "GridCollisionError",
            "message": "grid alpha values [1.0, 1.0000001] share the name alpha-1 "
                       "of their output directories",
        }
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_rejected(self, runner):
        result = runner.invoke(
            main, ["sweep", "--seed", "3", "--sweep-grid", "gamma=1,2"]
        )
        assert result.exit_code == 1
        assert "grid" in json.loads(result.stderr)["message"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "condrsa", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert "condrsa" in proc.stdout
