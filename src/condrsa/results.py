"""Result bundles: named tables plus the configuration that produced them.

Output is byte-reproducible: the same configuration (including the seed)
writes identical files.  To that end every numeric cell is rendered
through one formatter (exact fractions like ``5/6`` in rational mode, 12
significant digits in float mode), and every row carries a fingerprint of
the configuration.  Tables are held as columns.  `write_bundle` renders
each table it needs once, one typed pass per column (a column of one type
goes through one C-level formatter), and JSON, CSV and plot data share
that rendering.  The JSON text is emitted column by column: each column's
strings are escaped by the C-level JSON string encoder and each table's
rows are joined from one template, giving the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` without its per-value
Python walk.  Each figure's scenario and row filters live in one
`FigureSpec`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Iterable, Sequence

from .core import ModelError, Scalar

RATIONAL = "rational"
FLOAT = "float"

#: a table rendered for writing: its header and one column of strings per
#: header entry; writers append the ``config`` column of fingerprints
Rendered = tuple[list[str], list[Sequence[str]]]

_G12 = "{:.12g}".format


class FigureError(ModelError):
    """A plot-data request that the bundle cannot satisfy."""


def render_scalar(value: Scalar, mode: str) -> str:
    """One cell: ``5/6`` in rational mode, 12 significant digits otherwise."""
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
        raise ModelError(
            f"rational rendering asked for a non-rational value {value!r}"
        )
    return f"{float(value):.12g}"


def _render_cell(value: Any, mode: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, Fraction)):
        return render_scalar(value, mode)
    return str(value)


def _render_column(values: Sequence, mode: str) -> Sequence[str]:
    """``[_render_cell(v, mode) for v in values]``, in one C-level pass when
    every value has the same type."""
    types = set(map(type, values))
    if types <= {str}:
        return values
    if types <= {float} and mode == FLOAT:
        return list(map(_G12, values))
    if types <= {int, Fraction}:
        return list(map(str, values) if mode == RATIONAL else map(_G12, map(float, values)))
    return [_render_cell(v, mode) for v in values]


@dataclass(frozen=True, init=False)
class ResultTable:
    """A named record set held as one list of values per column;
    ``value_columns`` get numeric rendering.  Given ``rows``, the columns
    are built from those row tuples instead of ``data``, so that
    ``dataclasses.replace(table, rows=...)`` swaps a table's rows."""

    name: str
    columns: tuple[str, ...]
    data: tuple[Sequence, ...]
    value_columns: tuple[str, ...] = ()

    def __init__(self, name, columns, data=(), value_columns=(), rows=None) -> None:
        if rows is not None:
            data = tuple(map(list, zip(*rows))) or tuple([] for _ in columns)
        self.__dict__.update(name=name, columns=columns, data=data, value_columns=value_columns)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table as row tuples, built from the columns on each call."""
        return tuple(zip(*self.data))

    def rendered(self, mode: str) -> Rendered:
        """Header and string columns, rendered one column at a time, with
        decimal companions for fractions in rational mode."""
        header: list[str] = []
        columns: list[Sequence[str]] = []
        for col, values in zip(self.columns, self.data):
            numeric = col in self.value_columns
            header.append(col)
            columns.append(_render_column(values, mode if numeric else FLOAT))
            if numeric and mode == RATIONAL:
                header.append(f"{col}_decimal")
                columns.append(list(map(_G12, map(float, values))))
        return header, columns


@dataclass
class ResultBundle:
    metadata: dict[str, Any]
    tables: dict[str, ResultTable] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return self.metadata["fingerprint"]

    @property
    def numeric_mode(self) -> str:
        return self.metadata.get("numeric", FLOAT)

    def add(self, table: ResultTable) -> None:
        self.tables[table.name] = table


def config_fingerprint(config: dict[str, Any]) -> str:
    """Short stable digest of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def make_bundle(config: dict[str, Any]) -> ResultBundle:
    metadata = dict(config)
    metadata["fingerprint"] = config_fingerprint(config)
    return ResultBundle(metadata=metadata)


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------


def _rows(columns: Sequence[Sequence[str]], fingerprint: str) -> Iterable[tuple[str, ...]]:
    """The rendered rows, each ending in the config fingerprint."""
    return zip(*columns, repeat(fingerprint, len(columns[0])))


def _write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[str]], preamble: str
) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*header, "config"])
        writer.writerows(rows)
    return path


def _metadata_comment(bundle: "ResultBundle") -> str:
    # full config echo on a comment line, so each file can be re-run alone
    return f"# config: {json.dumps(bundle.metadata, sort_keys=True)}\n"


def bundle_json_text(bundle: ResultBundle, rendered: dict[str, Rendered]) -> str:
    """The JSON rendering of a bundle whose tables are already rendered:
    the text of ``json.dumps({"metadata": ..., "tables": {name: {"columns":
    ..., "rows": ...}}}, indent=2, sort_keys=True)`` and a newline.

    The skeleton's key order is fixed (``metadata`` < ``tables``, sorted
    table names, ``columns`` < ``rows``).  The metadata is dumped alone and
    indented one level deeper, which is safe because JSON escapes every
    newline inside a string.  Each column is escaped in one pass, and each
    table's rows are filled into one template holding the escaped
    fingerprint, so no cell can forge the skeleton."""
    metadata = json.dumps(bundle.metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
    config = _json_string(bundle.fingerprint).replace("%", "%%")
    parts = ['{\n  "metadata": ', metadata, ',\n  "tables": {']
    separator = "\n"
    for name in sorted(rendered):
        header, columns = rendered[name]
        names = ",\n".join(f"        {_json_string(c)}" for c in [*header, "config"])
        row = "        [\n" + "          %s,\n" * len(columns) + f"          {config}\n        ]"
        rows = ",\n".join(map(row.__mod__, zip(*(map(_json_string, c) for c in columns))))
        parts += [
            separator,
            f'    {_json_string(name)}: {{\n      "columns": [\n{names}\n      ],\n      "rows": ',
            *(("[\n", rows, "\n      ]") if rows else ("[]",)),
            "\n    }",
        ]
        separator = ",\n"
    parts.append("\n  }\n}\n" if rendered else "}\n}\n")
    return "".join(parts)


def write_bundle(
    bundle: ResultBundle, outdir: str | Path, formats: Sequence[str], figures: Sequence[str] = ()
) -> list[Path]:
    """Write the requested renderings and the plot data of ``figures``;
    returns the created paths.  Every figure is checked before anything is
    written.  Each table that a format or figure needs is rendered once,
    and JSON, CSV and plot data share that rendering."""
    specs = [_figure_spec(bundle, figure_id) for figure_id in figures]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tabular = "json" in formats or "csv" in formats
    names = bundle.tables if tabular else {spec.table for spec in specs}
    rendered = {name: bundle.tables[name].rendered(bundle.numeric_mode) for name in sorted(names)}
    written: list[Path] = []
    if "json" in formats:
        path = outdir / "bundle.json"
        path.write_text(bundle_json_text(bundle, rendered), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        preamble = _metadata_comment(bundle)
        for name, (header, columns) in rendered.items():
            rows = _rows(columns, bundle.fingerprint)
            written.append(_write_csv(outdir / f"{name}.csv", header, rows, preamble))
    for spec in specs:
        written.append(_write_plot_data(bundle, spec, rendered[spec.table], outdir / "plotdata"))
    return written


# --------------------------------------------------------------------------
# figure data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureSpec:
    figure_id: str
    table: str
    description: str
    axes: str
    #: the built-in scenario of a run-scenario figure; None for a
    #: run-default-context figure
    scenario: str | None = None
    #: (column, allowed values) pairs; a plotted row passes every one
    row_filters: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def command(self) -> str:
        return "run-default-context" if self.scenario is None else "run-scenario"


FIGURES: dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec(
            "fig5", "world_probabilities",
            "sampled probability of each world, for histograms by relation",
            "x: probability (binned); panel: relation; series: world",
        ),
        FigureSpec(
            "fig6", "relation_beliefs",
            "belief in each causal relation before/after the conditional",
            "x: relation; series: interpretation; y: mass",
        ),
        FigureSpec(
            "fig7", "best_utterance_frequencies",
            "how often each utterance type is the best choice",
            "panel: certainty; x: relation_group; series: utterance_type; y: frequency",
        ),
        FigureSpec(
            "fig8", "cp_metrics",
            "expected biconditional-reading probabilities by interpretation",
            "x: metric; series: interpretation; y: value",
            row_filters=(("metric", ("not_c_given_not_a", "a_given_c")),),
        ),
        FigureSpec(
            "fig9", "delta_p_cohorts",
            "normalized-contingency samples for the three nested cohorts",
            "x: value (binned); panel: cohort; series: relation",
        ),
        FigureSpec(
            "fig14", "expected_choice",
            "expected speaker mass per utterance type and relation",
            "x: relation; series: utterance_type; y: mass",
        ),
        FigureSpec(
            "fig10c", "belief_summary",
            "expected antecedent belief across interpretation stages",
            "x: stage; y: value",
            scenario="skiing",
            row_filters=(("quantity", ("antecedent",)),),
        ),
        FigureSpec(
            "fig11c", "belief_summary",
            "expected antecedent belief before the observation",
            "x: stage; y: value",
            scenario="garden_party",
            row_filters=(
                ("quantity", ("antecedent",)),
                ("stage", ("prior", "literal", "pragmatic")),
            ),
        ),
        FigureSpec(
            "fig12b", "belief_summary",
            "expected antecedent belief including the observation",
            "x: stage; y: value",
            scenario="garden_party",
            row_filters=(("quantity", ("antecedent",)),),
        ),
        FigureSpec(
            "fig13d", "belief_summary",
            "relation, antecedent and joint-event beliefs by stage",
            "panel: quantity; x: stage; y: value",
            scenario="sundowners",
            row_filters=(
                ("quantity", ("relation_dependent", "antecedent", "joint_antecedent_consequent")),
            ),
        ),
    )
}


def _provides(bundle: ResultBundle, figure_id: str) -> bool:
    """Whether ``bundle`` comes from the figure's command (and scenario, for
    a scenario-bound figure) and holds its source table."""
    spec = FIGURES[figure_id]
    return (
        spec.command == bundle.metadata.get("command")
        and spec.table in bundle.tables
        and spec.scenario in (None, bundle.metadata.get("scenario"))
    )


def applicable_figures(bundle: ResultBundle) -> tuple[str, ...]:
    return tuple(figure_id for figure_id in FIGURES if _provides(bundle, figure_id))


def _figure_spec(bundle: ResultBundle, figure_id: str) -> FigureSpec:
    """The spec of a figure that ``bundle`` provides; `FigureError` otherwise."""
    if figure_id not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise FigureError(f"unknown figure {figure_id!r} (known: {known})")
    spec = FIGURES[figure_id]
    if not _provides(bundle, figure_id):
        hint = spec.command if spec.scenario is None else (
            f"{spec.command} --scenario {spec.scenario}"
        )
        raise FigureError(
            f"this bundle cannot provide {figure_id}; produce it with `condrsa {hint}`"
        )
    return spec


def _write_plot_data(
    bundle: ResultBundle, spec: FigureSpec, rendered: Rendered, outdir: Path
) -> Path:
    """Write a figure's file from its source table's rendering."""
    header, columns = rendered
    keep = [(header.index(column), allowed) for column, allowed in spec.row_filters]
    rows = _rows(columns, bundle.fingerprint)
    if keep:
        rows = (r for r in rows if all(r[i] in allowed for i, allowed in keep))
    outdir.mkdir(parents=True, exist_ok=True)
    preamble = (
        f"# figure: {spec.figure_id}\n"
        f"# description: {spec.description}\n"
        f"# axes: {spec.axes}\n"
        f"# source_table: {spec.table}\n"
        + _metadata_comment(bundle)
    )
    return _write_csv(outdir / f"{spec.figure_id}.csv", header, rows, preamble)


def emit_plot_data(
    bundle: ResultBundle, figure_id: str, outdir: str | Path
) -> Path:
    """Write one self-describing columnar file for a figure."""
    spec = _figure_spec(bundle, figure_id)
    table = bundle.tables[spec.table]
    rendered = table.rendered(bundle.numeric_mode)
    return _write_plot_data(bundle, spec, rendered, Path(outdir))
