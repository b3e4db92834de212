import csv
import io
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condrsa as cr
from condrsa import results
from condrsa.results import (
    FigureError,
    Labels,
    ResultBundle,
    ResultTable,
    _render_cell,
    applicable_figures,
    bundle_json_text,
    emit_plot_data,
    render_scalar,
    write_bundle,
    write_bundles,
)
from condrsa.runner import RunConfig, run
from condrsa.scenario_io import (
    ScenarioFormatError,
    parse_scenario_dict,
    parse_scenario_file,
    scenario_to_dict,
    write_scenario_file,
)


@pytest.fixture()
def skiing_dict(skiing):
    return scenario_to_dict(skiing)


class TestScenarioFiles:
    @pytest.mark.parametrize("name", cr.BUILTIN_NAMES)
    def test_round_trip_equals_embedded_constant(self, name, tmp_path):
        original = cr.builtin(name)
        path = tmp_path / f"{name}.json"
        write_scenario_file(original, path)
        assert parse_scenario_file(path) == original

    def test_variant_round_trip(self, tmp_path):
        path = tmp_path / "variant.json"
        write_scenario_file(cr.SKIING_UNCERTAIN_TRIP_VARIANT, path)
        assert parse_scenario_file(path) == cr.SKIING_UNCERTAIN_TRIP_VARIANT

    def test_noisy_or_state_reproduces_dependent_table(self, skiing_dict, skiing):
        skiing_dict["states"][0] = {
            "label": "dep",
            "relation": "AC_pos",
            "weight": "1/2",
            "noisy_or": {"upsilon_p": "1/5", "tau": 1, "beta": 0},
        }
        parsed = parse_scenario_dict(skiing_dict)
        assert parsed.states[0].table == skiing.states[0].table

    def test_marginals_state(self, skiing_dict):
        skiing_dict["states"][1] = {
            "label": "ind",
            "relation": "independent",
            "weight": "1/2",
            "marginals": {"antecedent": "1/5", "consequent": 1},
        }
        parsed = parse_scenario_dict(skiing_dict)
        assert parsed.states[1].table.cells == (F(1, 5), 0, F(4, 5), 0)

    def test_float_numbers_switch_backend(self, skiing_dict):
        skiing_dict["theta"] = 0.9
        parsed = parse_scenario_dict(skiing_dict)
        assert not parsed.to_context().exact

    def test_weights_must_sum_to_one(self, skiing_dict):
        skiing_dict["states"][0]["weight"] = "2/5"
        with pytest.raises(ScenarioFormatError, match="sum to 1"):
            parse_scenario_dict(skiing_dict)

    def test_bad_table_sum_names_field(self, skiing_dict):
        skiing_dict["states"][0]["table"]["both"] = "3/5"
        with pytest.raises(ScenarioFormatError, match=r"states\[0\].table"):
            parse_scenario_dict(skiing_dict)

    def test_missing_field_names_path(self, skiing_dict):
        del skiing_dict["states"][1]["weight"]
        with pytest.raises(ScenarioFormatError, match=r"states\[1\]"):
            parse_scenario_dict(skiing_dict)

    def test_unknown_relation(self, skiing_dict):
        skiing_dict["states"][0]["relation"] = "sideways"
        with pytest.raises(ScenarioFormatError, match="unknown relation"):
            parse_scenario_dict(skiing_dict)

    def test_bad_utterance_names_index(self, skiing_dict):
        skiing_dict["utterances"][2] = "E -> Q"
        with pytest.raises(ScenarioFormatError, match=r"utterances\[2\]"):
            parse_scenario_dict(skiing_dict)

    def test_unknown_mediator(self, skiing_dict):
        skiing_dict["observation"]["mediator"] = "X"
        with pytest.raises(ScenarioFormatError, match="observation.mediator"):
            parse_scenario_dict(skiing_dict)

    def test_theta_range_checked(self, skiing_dict):
        skiing_dict["theta"] = "1/2"
        with pytest.raises(ScenarioFormatError, match="theta"):
            parse_scenario_dict(skiing_dict)

    @pytest.mark.parametrize("alpha", [-1, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_nonnegative(self, skiing_dict, alpha, tmp_path):
        # Python's json reads the NaN and Infinity tokens as floats
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({**skiing_dict, "alpha": alpha}))
        with pytest.raises(ScenarioFormatError, match="^alpha: must be finite and nonnegative"):
            parse_scenario_file(path)

    def test_marginals_with_dependent_relation_rejected(self, skiing_dict):
        skiing_dict["states"][1] = {
            "label": "ind",
            "relation": "AC_pos",
            "weight": "1/2",
            "marginals": {"antecedent": "1/5", "consequent": 1},
        }
        with pytest.raises(ScenarioFormatError, match="independent relation"):
            parse_scenario_dict(skiing_dict)

    def test_exactly_one_table_source(self, skiing_dict):
        skiing_dict["states"][0]["marginals"] = {"antecedent": "1/5", "consequent": 1}
        with pytest.raises(ScenarioFormatError, match="exactly one"):
            parse_scenario_dict(skiing_dict)

    def test_state_without_assertable_utterance_reports_label(self, skiing_dict):
        skiing_dict["states"].append(
            {
                "label": "nothing_to_say",
                "weight": "1/3",
                "marginals": {"antecedent": "1/2", "consequent": "1/2"},
            }
        )
        for state in skiing_dict["states"][:2]:
            state["weight"] = "1/3"
        with pytest.raises(ScenarioFormatError, match="nothing_to_say"):
            parse_scenario_dict(skiing_dict)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ScenarioFormatError, match="line 3"):
            parse_scenario_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            parse_scenario_file(tmp_path / "absent.json")


class TestRendering:
    def test_rational_mode(self):
        assert render_scalar(F(5, 6), "rational") == "5/6"
        assert render_scalar(3, "rational") == "3"

    def test_float_mode_twelve_significant_digits(self):
        assert render_scalar(F(5, 6), "float") == "0.833333333333"
        assert render_scalar(0.1234567890123456, "float") == "0.123456789012"

    def test_rational_mode_rejects_floats(self):
        with pytest.raises(cr.ModelError):
            render_scalar(0.5, "rational")

    @pytest.mark.parametrize("value", [
        0, 7, -7, 10**12 - 1, -(10**12 - 1), 10**12, -(10**12), 2**53, -(2**53), 2**53 + 1,
    ])
    def test_int_column_renders_as_twelve_digit_floats(self, value):
        """An all-int column takes the ``str`` pass below 10**12 and the
        float formatter from there on: both give ``{:.12g}`` of the float."""
        for column in ([value], [0, value], [value, -3]):
            assert results._render_column(column) == [f"{float(v):.12g}" for v in column]
        assert results._render_column([10**12]) == ["1e+12"]

    def test_bool_column_is_not_an_int_column(self):
        assert results._render_column([True, False]) == ["true", "false"]
        assert results._render_column([True, 2]) == ["true", "2"]


def _outcome(render):
    """What a rendering call gives: its columns as lists, or its error type."""
    try:
        header, columns = render()
    except (cr.ModelError, ValueError, OverflowError) as error:
        return type(error)
    return header, [list(column) for column in columns]


def _cell_rendering(table, mode):
    """`ResultTable.rendered` cell by cell: the oracle of its typed passes."""
    header, columns = [], []
    for col, values in zip(table.columns, table.data):
        numeric = col in table.value_columns
        header.append(col)
        columns.append([_render_cell(v, mode if numeric else "float") for v in values])
        if numeric and mode == "rational":
            header.append(f"{col}_decimal")
            columns.append([f"{float(v):.12g}" for v in values])
    return header, columns


#: text that JSON must escape or that looks like the skeleton
NASTY = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "\U0001f600", "%", "é"]),
    ),
    max_size=8,
) | st.sampled_from(["], [", '"]\n    ],', "%s", "%%", '{"rows": []}', ""])

#: table names, some of which sort unusually (upper case, digits, non-ASCII)
TABLE_NAMES = NASTY | st.sampled_from(["Z", "_", "a", "a ", "aa", "é", "\U0001f600", "10", "9"])


@st.composite
def rendered_tables(draw):
    n_rows = draw(st.integers(0, 4))
    header = draw(st.lists(NASTY, min_size=1, max_size=3))
    columns = [draw(st.lists(NASTY, min_size=n_rows, max_size=n_rows)) for _ in header]
    return header, columns


#: text that CSV must quote, or that a ``%``-template could misread; a new
#: strategy, so that `NASTY` keeps its examples
CSV_HOSTILE = st.text(
    st.sampled_from([",", '"', "\r", "\n", "%", "s", "\x00", "é", "\U0001f600", " ", "a"]),
    max_size=6,
) | st.sampled_from(['""', "%s", "%%", "%(x)s", "", "\r\n"])


@st.composite
def csv_tables(draw):
    """A header and string columns: empty tables and one-column tables
    included."""
    n_rows = draw(st.integers(0, 4))
    header = draw(st.lists(CSV_HOSTILE, min_size=1, max_size=3))
    columns = [draw(st.lists(CSV_HOSTILE, min_size=n_rows, max_size=n_rows)) for _ in header]
    return header, columns


class TestColumnwiseWriting:
    """The typed column passes and the column-wise JSON emitter give exactly
    what a cell-by-cell rendering and ``json.dumps(indent=2)`` give."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats()),
            st.lists(st.integers(-(10**15), 10**15)),
            st.lists(st.fractions()),
            st.lists(st.fractions() | st.integers()),
            st.lists(st.text(max_size=3)),
            st.lists(st.booleans()),
            st.lists(st.floats() | st.integers() | st.fractions() | st.booleans() | st.text()),
        ),
        mode=st.sampled_from(["float", "rational"]),
        numeric=st.booleans(),
    )
    def test_typed_columns_render_as_their_cells(self, values, mode, numeric):
        table = ResultTable("t", ("x", "label"), (values, ["s"] * len(values)),
                            value_columns=("x",) if numeric else ())
        assert _outcome(lambda: table.rendered(mode)) == _outcome(
            lambda: _cell_rendering(table, mode)
        )

    def test_exact_column_renders_each_value_as_its_cell(self):
        """An exact column's texts and decimals, converted once per distinct
        value, are each cell's ``str`` and ``{:.12g}``."""
        big = F(3**700, 7**500)
        values = [F(0), F(0), F(1, 3), F(1, 3), 1, 1, F(2), 2, big,
                  F(big.numerator, big.denominator), -F(5, 6), 0, F(0), 10**20]
        values = values + values[::-1]
        table = ResultTable("t", ("x",), (values,), value_columns=("x",))
        header, (texts, decimals) = table.rendered("rational")
        assert header == ["x", "x_decimal"]
        assert texts == [str(v) for v in values]
        assert decimals == [f"{float(v):.12g}" for v in values]

    @settings(max_examples=300, deadline=None)
    @given(
        metadata=st.dictionaries(
            NASTY, NASTY | st.integers() | st.floats(allow_nan=False) | st.none()
            | st.booleans() | st.lists(NASTY, max_size=3),
            max_size=4,
        ),
        fingerprint=NASTY,
        tables=st.dictionaries(TABLE_NAMES, rendered_tables(), max_size=4),
    )
    def test_json_text_is_json_dumps(self, metadata, fingerprint, tables):
        bundle = ResultBundle(metadata={**metadata, "fingerprint": fingerprint})
        payload = {
            "metadata": bundle.metadata,
            "tables": {
                name: {
                    "columns": [*header, "config"],
                    "rows": [[*row, fingerprint] for row in zip(*columns)],
                }
                for name, (header, columns) in tables.items()
            },
        }
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert bundle_json_text(bundle, tables) == expected

    @settings(max_examples=300, deadline=None)
    @given(table=csv_tables(), fingerprints=st.lists(CSV_HOSTILE, min_size=2, max_size=2))
    @example(table=(["a\rb"], [["\r", "x\ry"]]), fingerprints=["\r", "f"])
    def test_csv_is_csv_writer_output(self, table, fingerprints, tmp_path_factory):
        """The template CSV, streamed for one bundle and joined from stored
        row texts for a table two bundles share, is byte for byte what
        ``csv.writer(fh, lineterminator="\\n")`` writes."""
        header, columns = table
        shared = ResultTable("t", tuple(header), tuple(columns))
        out = tmp_path_factory.mktemp("csv")
        bundles = [ResultBundle(metadata={"fingerprint": f}) for f in fingerprints]
        for bundle in bundles:
            bundle.add(shared)
        alone = ResultBundle(metadata={"fingerprint": fingerprints[0]})
        alone.add(ResultTable("t", tuple(header), tuple(columns)))
        write_bundles([(b, out / str(i)) for i, b in enumerate(bundles)], ("csv",))
        write_bundle(alone, out / "alone", ("csv",))
        for bundle, where in [*zip(bundles, ("0", "1")), (alone, "alone")]:
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow([*header, "config"])
            writer.writerows([*row, bundle.fingerprint] for row in zip(*columns))
            text = (out / where / "t.csv").read_bytes().decode("utf-8")
            preamble, _, body = text.partition("\n")
            assert preamble.startswith("# config: ")
            assert body == expected.getvalue()

    def test_an_empty_table_is_written_with_its_header(self, tmp_path):
        bundle = ResultBundle(metadata={"fingerprint": "f"})
        bundle.add(ResultTable("empty", ("a", "b"), ([], [])))
        write_bundle(bundle, tmp_path, ("csv", "json"))
        payload = json.loads((tmp_path / "bundle.json").read_text())
        assert payload["tables"]["empty"] == {"columns": ["a", "b", "config"], "rows": []}
        assert (tmp_path / "empty.csv").read_text().splitlines()[1:] == ["a,b,config"]

    def test_a_failed_write_leaves_no_file(self, tmp_path):
        """The second table cannot be rendered rationally after the first
        table's CSV, plot data and JSON entry are written: none of them is
        left behind, and the error still reaches the caller.  Nor does
        `emit_plot_data` leave its file or the directories it made."""
        bundle = ResultBundle(metadata={
            "fingerprint": "f", "numeric": "rational", "command": "run-default-context",
        })
        bundle.add(ResultTable("best_utterance_frequencies", ("v",), ([F(1, 2)],), ("v",)))
        bundle.add(ResultTable("world_probabilities", ("v",), ([0.5],), ("v",)))
        with pytest.raises(cr.ModelError, match="non-rational value 0.5"):
            write_bundle(bundle, tmp_path, ("csv", "json"), ("fig7",))
        assert list(tmp_path.rglob("*")) == []  # nor the plotdata directory
        with pytest.raises(cr.ModelError, match="non-rational value 0.5"):
            write_bundle(bundle, tmp_path / "new" / "out", ("csv", "json"), ("fig7",))
        assert list(tmp_path.rglob("*")) == []
        for outdir in (tmp_path, tmp_path / "a" / "b"):
            with pytest.raises(cr.ModelError, match="non-rational value 0.5"):
                emit_plot_data(bundle, "fig5", outdir)
            assert list(tmp_path.rglob("*")) == []


@st.composite
def labels(draw, n_rows):
    """`Labels` of ``n_rows`` rows over one to three hostile names."""
    names = draw(st.lists(CSV_HOSTILE, min_size=1, max_size=3))
    codes = draw(st.lists(st.integers(0, len(names) - 1), min_size=n_rows, max_size=n_rows))
    return Labels(np.array(codes, dtype=np.int8), names)


@st.composite
def array_tables(draw, name="t", columns=("label", "x", "n")):
    """A table of a `Labels` column, a float array and an int array."""
    n_rows = draw(st.integers(0, 12))
    return ResultTable(name, columns, (
        draw(labels(n_rows)),
        np.array(draw(st.lists(st.floats(), min_size=n_rows, max_size=n_rows)), dtype=float),
        np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=n_rows, max_size=n_rows)),
                 dtype=np.int64),
    ), value_columns=draw(st.sampled_from([(), (columns[1],), (columns[2],)])))


def _as_lists(table):
    """The same table with every column a list of its Python values."""
    return ResultTable(table.name, table.columns, tuple(map(list, zip(*table.rows)))
                       or tuple([] for _ in table.columns), table.value_columns)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestColumnKinds:
    """Array and `Labels` columns, and writes in chunks of rows, give the
    bytes of whole list-backed tables."""

    @settings(max_examples=200, deadline=None)
    @given(table=array_tables(), mode=st.sampled_from(["float", "rational"]),
           fingerprint=CSV_HOSTILE)
    def test_arrays_and_labels_write_as_lists(self, table, mode, fingerprint, tmp_path_factory):
        listed = _as_lists(table)
        assert [type(c) for c in table.data] == [Labels, np.ndarray, np.ndarray]
        assert repr(table.rows) == repr(listed.rows)  # NaN cells included
        assert {tuple(map(type, row)) for row in table.rows} <= {(str, float, int)}
        assert _outcome(lambda: table.rendered(mode)) == _outcome(lambda: listed.rendered(mode))
        if isinstance(_outcome(lambda: table.rendered(mode)), type):
            return  # rational rendering of a float column fails alike
        out = tmp_path_factory.mktemp("kinds")
        for where, t in (("arrays", table), ("lists", listed)):
            bundle = ResultBundle(metadata={"fingerprint": fingerprint, "numeric": mode})
            bundle.add(t)
            write_bundle(bundle, out / where, ("csv", "json"))
        assert _tree(out / "arrays") == _tree(out / "lists")

    @settings(max_examples=100, deadline=None)
    @given(
        world=array_tables("world_probabilities", ("relation", "probability", "state")),
        metrics=st.lists(
            st.sampled_from(["not_c_given_not_a", "a_given_c"]) | CSV_HOSTILE, max_size=12,
        ),
        fingerprint=CSV_HOSTILE,
    )
    def test_chunked_writes_equal_a_whole_write(self, world, metrics, fingerprint, tmp_path_factory):
        """JSON, CSV and the fig5 and fig8 plot data (fig8 filters rows), of
        one bundle and of two bundles sharing a table, at chunks of 1, 2 and
        7 rows."""
        cp = ResultTable("cp_metrics", ("interpretation", "metric", "value"), (
            ["prior"] * len(metrics), metrics, [0.5] * len(metrics),
        ), value_columns=("value",))
        bundles = []
        for f in (fingerprint, fingerprint + "2"):
            bundles.append(ResultBundle(metadata={"fingerprint": f, "command": "run-default-context"}))
            bundles[-1].add(world)
            bundles[-1].add(cp)
        out = tmp_path_factory.mktemp("chunks")

        def write(where):
            write_bundle(bundles[0], out / where / "alone", ("csv", "json"), ("fig5", "fig8"))
            write_bundles([(b, out / where / str(i)) for i, b in enumerate(bundles)],
                          ("csv", "json"), ("fig5", "fig8"))
            emit_plot_data(bundles[0], "fig8", out / where / "emitted")
            return _tree(out / where)

        whole = write("whole")
        for rows in (1, 2, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(results, "_CHUNK_ROWS", rows)
                assert write(f"chunks-{rows}") == whole


class TestBundles:
    def test_byte_reproducibility_scenario(self, tmp_path):
        def run_once(where: Path) -> dict[str, bytes]:
            run(RunConfig(command="run-scenario", scenario="sundowners",
                          output_dir=where, formats=("csv", "json")))
            return {p.name: p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()}

        first = run_once(tmp_path / "a")
        second = run_once(tmp_path / "b")
        assert first == second

    def test_byte_reproducibility_sampled(self, tmp_path):
        def run_once(where: Path) -> dict[str, bytes]:
            run(RunConfig(command="run-default-context", seed=13, n_states=300,
                          output_dir=where, formats=("csv", "json", "plotdata")))
            return {p.name: p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()}

        first = run_once(tmp_path / "a")
        second = run_once(tmp_path / "b")
        assert first == second

    def test_csv_and_json_value_equivalence(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="toy",
                               output_dir=tmp_path, formats=("csv", "json")))
        payload = json.loads((tmp_path / "bundle.json").read_text())
        for name, table in payload["tables"].items():
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            data = [l for l in lines if not l.startswith("#")]
            assert data[0].split(",") == table["columns"]
            assert [line.split(",") for line in data[1:]] == table["rows"]

    def test_fingerprint_in_every_row(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="toy",
                               output_dir=tmp_path, formats=("csv",)))
        fp = bundle.fingerprint
        for path in tmp_path.glob("*.csv"):
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config: {")  # full metadata echo
            assert lines[1].split(",")[-1] == "config"
            assert all(line.split(",")[-1] == fp for line in lines[2:])

    def test_integer_cells_with_observation_render_exactly(self, tmp_path):
        # JSON integer cells: every conditional of the first state is int / int
        scenario = {
            "name": "int_cells",
            "variables": {"antecedent": "A", "consequent": "C"},
            "alpha": 1,
            "theta": "9/10",
            "utterances": ["A", "C", "likely A", "likely ~A", "A -> C"],
            "states": [
                {"label": "sure", "relation": "AC_pos", "weight": "1/2",
                 "table": {"both": 1, "antecedent_only": 0,
                           "consequent_only": 0, "neither": 0}},
                {"label": "open", "weight": "1/2",
                 "marginals": {"antecedent": "1/5", "consequent": "1/2"}},
            ],
            "observation": {"mediator": "C", "prob_given_true": "3/4",
                            "prob_given_false": 0, "observed": True},
        }
        path = tmp_path / "int_cells.json"
        path.write_text(json.dumps(scenario))
        bundle = run(RunConfig(command="run-scenario", scenario=str(path),
                               numeric="rational", output_dir=tmp_path / "out"))
        rows = {row[:2]: row[2] for row in bundle.tables["belief_summary"].rows}
        observed = rows[("antecedent", "pragmatic_observed")]
        assert observed == 1 and type(observed) is F
        summary = (tmp_path / "out" / "belief_summary.csv").read_text()
        assert "\nantecedent,pragmatic_observed,1," in summary

    def test_table_four_fractions_render_exactly(self, tmp_path):
        run(RunConfig(command="run-scenario", scenario="toy",
                      output_dir=tmp_path, formats=("csv",)))
        pragmatic = (tmp_path / "pragmatic_listener.csv").read_text()
        for fraction in ("5/16", "11/16", "10/87", "22/87", "55/87"):
            assert fraction in pragmatic
        speaker = (tmp_path / "speaker.csv").read_text()
        for fraction in ("2/11", "3/11", "6/11", "2/5", "3/5"):
            assert fraction in speaker


class TestFigures:
    def test_unknown_figure_lists_known_ids(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="toy"))
        with pytest.raises(FigureError, match="fig10c"):
            emit_plot_data(bundle, "fig99", tmp_path)

    def test_missing_table_names_command(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="toy"))
        with pytest.raises(FigureError, match="run-default-context"):
            emit_plot_data(bundle, "fig7", tmp_path)

    def test_wrong_scenario_rejected(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="skiing"))
        with pytest.raises(FigureError, match="sundowners"):
            emit_plot_data(bundle, "fig13d", tmp_path)

    def test_fig7_schema(self, tmp_path):
        bundle = run(RunConfig(command="run-default-context", seed=3, n_states=200))
        path = emit_plot_data(bundle, "fig7", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# figure: fig7"
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == [
            "certainty", "relation_group", "utterance_type", "count",
            "frequency", "config",
        ]

    def test_fig9_has_three_cohorts(self, tmp_path):
        bundle = run(RunConfig(command="run-default-context", seed=3, n_states=200))
        path = emit_plot_data(bundle, "fig9", tmp_path)
        rows = [l.split(",") for l in path.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        cohorts = {r[0] for r in rows}
        assert cohorts == {"prior", "assertable", "best_choice"}

    def test_scenario_figures(self, tmp_path):
        for scenario, figures in (
            ("skiing", {"fig10c"}),
            ("garden_party", {"fig11c", "fig12b"}),
            ("sundowners", {"fig13d"}),
            ("toy", set()),
        ):
            bundle = run(RunConfig(command="run-scenario", scenario=scenario))
            assert set(applicable_figures(bundle)) == figures

    def test_fig11c_excludes_observation_stage(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="garden_party"))
        path_pre = emit_plot_data(bundle, "fig11c", tmp_path / "pre")
        path_post = emit_plot_data(bundle, "fig12b", tmp_path / "post")
        assert "pragmatic_observed" not in path_pre.read_text()
        assert "pragmatic_observed" in path_post.read_text()

    def test_fig13d_covers_three_quantities(self, tmp_path):
        bundle = run(RunConfig(command="run-scenario", scenario="sundowners"))
        path = emit_plot_data(bundle, "fig13d", tmp_path)
        rows = [l.split(",") for l in path.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert {r[0] for r in rows} == {
            "antecedent", "joint_antecedent_consequent", "relation_dependent",
        }


class TestRunConfigValidation:
    def test_seed_required_for_sampling(self):
        with pytest.raises(cr.ModelError, match="--seed"):
            RunConfig(command="run-default-context")

    def test_rational_sampling_rejected(self):
        with pytest.raises(cr.ModelError, match="float"):
            RunConfig(command="run-default-context", seed=1, numeric="rational")

    def test_unknown_command(self):
        with pytest.raises(cr.ModelError, match="unknown command"):
            RunConfig(command="transcend")

    def test_unknown_format(self):
        with pytest.raises(cr.ModelError, match="unknown format"):
            RunConfig(command="run-scenario", scenario="toy", formats=("yaml",))

    def test_float_override_on_exact_scenario_switches_backend(self):
        bundle = run(RunConfig(command="run-scenario", scenario="toy",
                               numeric="float"))
        assert bundle.metadata["numeric"] == "float"
        assert bundle.metadata["theta"] == 0.9

    def test_rational_override_with_float_parameter_rejected(self):
        with pytest.raises(cr.ModelError, match="rational"):
            run(RunConfig(command="run-scenario", scenario="toy",
                          numeric="rational", theta=0.925))

    def test_figure_with_sweep_rejected(self):
        with pytest.raises(cr.ModelError, match="sweep"):
            RunConfig(command="sweep", seed=1, figure="fig7")

    def test_duplicate_state_labels_rejected(self, skiing_dict):
        skiing_dict["states"][1]["label"] = "dep"
        with pytest.raises(ScenarioFormatError, match="duplicate state label"):
            parse_scenario_dict(skiing_dict)
