"""Result bundles: named tables plus the configuration that produced them.

Output is byte-reproducible: the same configuration (including the seed)
writes identical files.  To that end every numeric cell is rendered
through one formatter (exact fractions like ``5/6`` in rational mode, 12
significant digits in float mode), and every row carries a fingerprint of
the configuration.  Tables are held as columns, each of one of three kinds:
a list of Python values, a read-only 1-D numpy array of numbers, or
`Labels`, integer codes into a tuple of repeated strings.  Columns become
Python values only at the edge: in `ResultTable.rows` and in rendering.
A write renders each table it needs once, one typed pass per column (a
column of one type, bools included, goes through one C-level formatter; a
`Labels` column renders its names once and gathers them by code), and
JSON, CSV and plot data share that rendering.  An exact value column
converts each distinct object to its text and decimal once, and each
distinct integer, numerator or denominator, to digits once: most of its
cells are the engine's one shared ``Fraction(0)``, and its large values
share a few denominators.  A table of more than ``_CHUNK_ROWS`` rows is
rendered, turned into row texts, written and dropped one chunk of rows at
a time, with the bytes of a whole-table write: with ``indent=2`` each JSON
row's text stands alone, and CSV quoting is decided field by field.  A
row's text without its ``config`` cell is the same in every bundle, so
each table's row texts are built once from one template and the
fingerprint is joined in between them at write time.  In JSON each
column's strings are escaped by the C-level JSON string encoder, giving
the bytes of ``json.dumps(payload, indent=2, sort_keys=True)`` without its
per-value Python walk.  CSV is filled into one ``%``-template per table,
with the quoting of ``csv.writer(fh, lineterminator="\\n")``: a field is
quoted only when it holds ``,``, ``"`` or ``\\n`` (a ``\\r`` alone is not),
and only a column holding such a field is quoted field by field.

`write_bundles` writes several bundles in one call: a table object held
by more than one of them (a sweep's ``world_probabilities``) is rendered
once, whole, and its texts live until the call returns, while every
other table is rendered, written and dropped one chunk at a time.  Each
figure's scenario and row filters live in one `FigureSpec`.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .core import ModelError, Scalar

RATIONAL = "rational"
FLOAT = "float"

#: a table rendered for writing: its header and one column of strings per
#: header entry; writers append the ``config`` column of fingerprints
Rendered = tuple[list[str], list[Sequence[str]]]

_G12 = "{:.12g}".format

#: a table of more rows than this is rendered and written in chunks of
#: this many rows
_CHUNK_ROWS = 65536


class FigureError(ModelError):
    """A plot-data request that the bundle cannot satisfy."""


def _exact_strings(values: Iterable[int | Fraction]) -> list[str]:
    """``str`` of each int or Fraction; an integer part too long for Python
    to convert to text raises a `ModelError`."""
    try:
        return list(map(str, values))
    except ValueError:
        raise ModelError(
            "an exact value has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for converting "
            "an integer to text; render it with --numeric float"
        ) from None


def render_scalar(value: Scalar, mode: str) -> str:
    """One cell: ``5/6`` in rational mode, 12 significant digits otherwise."""
    if mode == RATIONAL:
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return _exact_strings((value,))[0]
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


_BOOL_TEXT = {True: "true", False: "false"}

#: an int of fewer than 13 digits is exact as a float and its ``str`` is its
#: ``{:.12g}`` text; 10**12 renders as ``1e+12``
_INT_TEXT_BOUND = 10**12


def _decimals(values: Sequence) -> list[str]:
    return list(map(_G12, map(float, values)))


def _render_column(values: Sequence) -> Sequence[str]:
    """``[_render_cell(v, FLOAT) for v in values]``, in one C-level pass when
    every value has the same type.  Rational-mode value columns go through
    `_rational_columns` instead."""
    types = set(map(type, values))
    if types <= {str}:
        return values
    if types <= {bool}:
        return list(map(_BOOL_TEXT.__getitem__, values))
    if types <= {float}:
        return list(map(_G12, values))
    if types <= {int} and -_INT_TEXT_BOUND < min(values) and max(values) < _INT_TEXT_BOUND:
        return list(map(str, values))
    if types <= {int, Fraction}:
        return _decimals(values)
    return [_render_cell(v, FLOAT) for v in values]


def _exact_texts(values: Sequence[int | Fraction]) -> tuple[list[str], list[str]]:
    """``str`` and ``{:.12g}`` of each int or Fraction, with each distinct
    object converted once and each distinct integer, numerator or
    denominator, turned into text once.  An exact column mostly repeats a
    few objects (the engine's one ``Fraction(0)`` above all), and its large
    values share their denominators."""
    objects = dict(zip(map(id, values), values))
    ratios = [(v.numerator, v.denominator) for v in objects.values()]
    integers = list(dict.fromkeys(chain.from_iterable(ratios)))
    digits = dict(zip(integers, _exact_strings(integers)))
    texts = [digits[n] if d == 1 else f"{digits[n]}/{digits[d]}" for n, d in ratios]
    decimals = _decimals(objects.values())
    codes = list(map(id, values))
    return (
        list(map(dict(zip(objects, texts)).__getitem__, codes)),
        list(map(dict(zip(objects, decimals)).__getitem__, codes)),
    )


def _rational_columns(values: Sequence) -> tuple[Sequence[str], list[str]]:
    """A value column's texts and their decimal companions in rational
    mode."""
    if set(map(type, values)) <= {int, Fraction}:
        return _exact_texts(values)
    return [_render_cell(v, RATIONAL) for v in values], _decimals(values)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _gather(names: Sequence, codes: np.ndarray) -> list:
    """``[names[c] for c in codes]``, in one C-level gather."""
    return np.array(names, dtype=object)[codes].tolist()


class Labels:
    """A column of repeated labels held as integer codes: row ``i`` is
    ``names[codes[i]]``.  A slice is a `Labels` of the same names."""

    __slots__ = ("codes", "names")

    def __init__(self, codes: np.ndarray, names: Sequence[str]) -> None:
        self.codes, self.names = _read_only(np.asarray(codes)), tuple(names)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "Labels":
        return Labels(self.codes[rows], self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Labels) and _values(self) == _values(other)

    def __repr__(self) -> str:
        return f"Labels({self.codes!r}, {self.names!r})"


def _values(column) -> list:
    """A column's Python values: a list as it is, an array's ``tolist()``,
    and each label's name."""
    if isinstance(column, Labels):
        return _gather(column.names, column.codes)
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column


def _map_values(column, render, *args) -> Sequence[str]:
    """``render(values, *args)`` of a column's values; a `Labels` column
    renders its names once and gathers them by code."""
    if isinstance(column, Labels):
        return _gather(render(column.names, *args), column.codes)
    return render(_values(column), *args)


@dataclass(frozen=True, init=False)
class ResultTable:
    """A named record set held as one column per entry of ``columns``,
    each a list, a read-only 1-D numpy array or `Labels` (an array is held
    as a read-only view); ``value_columns`` get numeric rendering.  Given
    ``rows``, the columns are lists built from those row tuples instead of
    ``data``, so that ``dataclasses.replace(table, rows=...)`` swaps a
    table's rows."""

    name: str
    columns: tuple[str, ...]
    data: tuple[Sequence, ...]
    value_columns: tuple[str, ...] = ()

    def __init__(self, name, columns, data=(), value_columns=(), rows=None) -> None:
        if rows is not None:
            data = tuple(map(list, zip(*rows))) or tuple([] for _ in columns)
        data = tuple(_read_only(c) if isinstance(c, np.ndarray) else c for c in data)
        self.__dict__.update(name=name, columns=columns, data=data, value_columns=value_columns)

    @property
    def n_rows(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table as row tuples of Python values, built from the columns
        on each call."""
        return tuple(zip(*map(_values, self.data)))

    def rendered(self, mode: str, rows: slice = slice(None)) -> Rendered:
        """Header and string columns of the table's ``rows``, rendered one
        column at a time, with decimal companions for fractions in rational
        mode."""
        header: list[str] = []
        columns: list[Sequence[str]] = []
        for col, column in zip(self.columns, self.data):
            numeric = col in self.value_columns
            column = column[rows]
            header.append(col)
            if numeric and mode == RATIONAL:
                header.append(f"{col}_decimal")
                columns.extend(_rational_columns(_values(column)))
            else:
                columns.append(_map_values(column, _render_column))
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


def _csv_field(text: str) -> str:
    """One field as ``csv.writer(fh, lineterminator="\\n")`` writes it:
    quoted, its quotes doubled, only when it holds ``,``, ``"`` or ``\\n``.
    A ``\\r`` alone is not quoted."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(values: Sequence[str]) -> Sequence[str]:
    """A rendered column as CSV fields; only a column holding a field that
    needs quoting is passed over field by field."""
    joined = "".join(values)
    if "," in joined or '"' in joined or "\n" in joined:
        return list(map(_csv_field, values))
    return values


@contextmanager
def _undone_on_failure(directory: Path, written: list[Path]) -> Iterator[None]:
    """If the body raises, remove the files in ``written``, which the body may
    extend, then each directory up to ``directory`` that it made, while empty."""
    made = [d for d in (directory, *directory.parents) if not d.exists()]  # innermost first
    try:
        yield
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for d in made:  # rmdir keeps one that is missing or not empty
            with suppress(OSError):
                d.rmdir()
        raise


def _new_file(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8")


def _csv_head(header: Sequence[str]) -> str:
    return ",".join(map(_csv_field, [*header, "config"])) + "\n"


class _TableText:
    """A rendered table, or a chunk of its rows, and the texts of its rows
    up to the ``config`` cell, which are the same in every bundle; each is
    built on first use.  A table that ``keep``s its texts serves several
    bundles whole: its JSON row texts outlive a bundle's write, and its CSV
    rows are joined from stored row texts instead of being streamed."""

    def __init__(self, header: list[str], columns: list[Sequence[str]], keep: bool = False) -> None:
        self.header, self.columns, self.keep = header, columns, keep

    @cached_property
    def json_prefixes(self) -> list[str]:
        template = "        [\n" + "          %s,\n" * len(self.columns) + "          "
        return list(map(template.__mod__, zip(*(map(_json_string, c) for c in self.columns))))

    @cached_property
    def csv_fields(self) -> list[Sequence[str]]:
        return [_csv_column(c) for c in self.columns]

    @cached_property
    def csv_prefixes(self) -> list[str]:
        return list(map(("%s," * len(self.columns)).__mod__, zip(*self.csv_fields)))

    def csv_lines(self, sep: str) -> Iterable[str]:
        """The CSV rows of a bundle whose ``sep`` is its quoted fingerprint
        and the line end: streamed from one template, or joined from the
        kept row texts."""
        if self.keep:
            return (sep.join(self.csv_prefixes), sep) if self.csv_prefixes else ()
        template = "%s," * len(self.columns) + sep.replace("%", "%%")
        return map(template.__mod__, zip(*self.csv_fields))

    def plotted(self, spec: FigureSpec | None) -> _TableText:
        """The rows that pass the figure's row filters, read from the
        rendered columns; all of them without a spec or a filter."""
        if spec is None or not spec.row_filters:
            return self
        tested = [self.columns[self.header.index(column)] for column, _ in spec.row_filters]
        keep = [
            all(cell in allowed for cell, (_, allowed) in zip(cells, spec.row_filters))
            for cells in zip(*tested)
        ]
        return _TableText(self.header, [list(compress(c, keep)) for c in self.columns])


def _metadata_comment(bundle: "ResultBundle") -> str:
    # full config echo on a comment line, so each file can be re-run alone
    return f"# config: {json.dumps(bundle.metadata, sort_keys=True)}\n"


def _json_head(bundle: ResultBundle) -> str:
    # the metadata is dumped alone and indented one level deeper, which is
    # safe because JSON escapes every newline inside a string
    metadata = json.dumps(bundle.metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
    return '{\n  "metadata": ' + metadata + ',\n  "tables": {'


def _json_table_head(name: str, header: Sequence[str], first: bool) -> str:
    """A table's entry in ``bundle.json`` up to its rows."""
    names = ",\n".join(f"        {_json_string(c)}" for c in [*header, "config"])
    return ("\n" if first else ",\n") + (
        f'    {_json_string(name)}: {{\n      "columns": [\n{names}\n      ],\n      "rows": '
    )


def _write_json_rows(fh: TextIO, text: _TableText, config: str, opened: bool) -> bool:
    """Write a chunk's rows into its table's entry, with the escaped
    fingerprint ``config`` joined in after each row's prefix; ``opened``
    when an earlier chunk of the table wrote rows.  Returns whether the
    table has rows so far."""
    if not text.json_prefixes:
        return opened
    sep = config + "\n        ],\n"
    rows = sep.join(text.json_prefixes)
    if not text.keep:
        del text.json_prefixes  # a chunk written once drops its row texts before the write
    fh.writelines((sep if opened else "[\n", rows))
    return True


def _json_table_tail(config: str, opened: bool) -> str:
    return (config + "\n        ]\n      ]" if opened else "[]") + "\n    }"


def _json_tail(n_tables: int) -> str:
    return "\n  }\n}\n" if n_tables else "}\n}\n"


def bundle_json_text(bundle: ResultBundle, rendered: dict[str, Rendered]) -> str:
    """The JSON rendering of a bundle whose tables are already rendered:
    the text of ``json.dumps({"metadata": ..., "tables": {name: {"columns":
    ..., "rows": ...}}}, indent=2, sort_keys=True)`` and a newline.

    The skeleton's key order is fixed (``metadata`` < ``tables``, sorted
    table names, ``columns`` < ``rows``).  Each column is escaped in one
    pass, each row's text up to its ``config`` cell is filled into one
    template, and the escaped fingerprint is joined in between the rows, so
    no cell can forge the skeleton.  `write_bundle` writes the same pieces
    table by table, and chunk by chunk."""
    config = _json_string(bundle.fingerprint)
    out = io.StringIO()
    out.write(_json_head(bundle))
    for i, name in enumerate(sorted(rendered)):
        text = _TableText(*rendered[name])
        out.write(_json_table_head(name, text.header, i == 0))
        out.write(_json_table_tail(config, _write_json_rows(out, text, config, opened=False)))
    out.write(_json_tail(len(rendered)))
    return out.getvalue()


def _table_names(bundle: ResultBundle, formats: Sequence[str], figures: Sequence[str]) -> list[str]:
    """The tables that a write of ``formats`` and ``figures`` renders."""
    if "json" in formats or "csv" in formats:
        return sorted(bundle.tables)
    return sorted({FIGURES[figure_id].table for figure_id in figures})


def _table_texts(table: ResultTable, mode: str, shared: dict | None) -> Iterator[_TableText]:
    """The table's text in chunks of ``_CHUNK_ROWS`` rows, at least one; for
    a key of ``shared``, one whole text built once per `write_bundles`
    call."""
    key = (id(table), mode)
    if shared is not None and key in shared:
        if shared[key] is None:
            shared[key] = _TableText(*table.rendered(mode), keep=True)
        yield shared[key]
        return
    for start in range(0, max(table.n_rows, 1), _CHUNK_ROWS):
        yield _TableText(*table.rendered(mode, slice(start, start + _CHUNK_ROWS)))


def write_bundle(
    bundle: ResultBundle,
    outdir: str | Path,
    formats: Sequence[str],
    figures: Sequence[str] = (),
    *,
    shared: dict[tuple[int, str], _TableText | None] | None = None,
) -> list[Path]:
    """Write the requested renderings and the plot data of ``figures``;
    returns the created paths: ``bundle.json``, the CSV files, then the
    plot data in the order of ``figures``.  Every figure is checked before
    anything is written, and a write that fails removes every file it
    wrote and every directory it made, while empty.  The tables are written
    one after another, each chunk of ``_CHUNK_ROWS`` rows rendered once for
    JSON, CSV and plot data and dropped after it is written, unless
    ``shared`` keeps a whole table for the other bundles of a
    `write_bundles` call that hold it: its keys are ``(id(table), numeric
    mode)``, and a key's text is built on first use."""
    specs = [_figure_spec(bundle, figure_id) for figure_id in figures]
    outdir = Path(outdir)
    mode = bundle.numeric_mode
    config = _json_string(bundle.fingerprint)
    sep = _csv_field(bundle.fingerprint) + "\n"
    json_path = outdir / "bundle.json"
    csv_paths: list[Path] = []
    plot_paths: list = [None] * len(specs)  # in the order of figures
    written = [json_path] if "json" in formats else []  # removed if the write fails
    with _undone_on_failure(outdir / "plotdata", written):
        outdir.mkdir(parents=True, exist_ok=True)
        json_file = json_path.open("w", encoding="utf-8") if written else nullcontext()
        with json_file as json_fh:
            if json_fh is not None:
                json_fh.write(_json_head(bundle))
            names = _table_names(bundle, formats, figures)
            for i, name in enumerate(names):
                # the table's CSV files: (path, preamble, figure or None)
                outputs: list[tuple[Path, str, FigureSpec | None]] = []
                if "csv" in formats:
                    csv_paths.append(outdir / f"{name}.csv")
                    outputs.append((csv_paths[-1], _metadata_comment(bundle), None))
                for k, spec in enumerate(specs):
                    if spec.table == name:
                        plot_paths[k] = outdir / "plotdata" / f"{spec.figure_id}.csv"
                        outputs.append((plot_paths[k], _plot_preamble(bundle, spec), spec))
                written.extend(path for path, _, _ in outputs)
                with ExitStack() as files:
                    handles = [files.enter_context(_new_file(path)) for path, _, _ in outputs]
                    opened = False
                    for n, text in enumerate(_table_texts(bundle.tables[name], mode, shared)):
                        for fh, (_, preamble, spec) in zip(handles, outputs):
                            if n == 0:
                                fh.write(preamble + _csv_head(text.header))
                            fh.writelines(text.plotted(spec).csv_lines(sep))
                        if json_fh is not None:
                            if n == 0:
                                json_fh.write(_json_table_head(name, text.header, first=i == 0))
                            opened = _write_json_rows(json_fh, text, config, opened)
                if json_fh is not None:
                    json_fh.write(_json_table_tail(config, opened))
            if json_fh is not None:
                json_fh.write(_json_tail(len(names)))
    return ([json_path] if "json" in formats else []) + csv_paths + plot_paths


def write_bundles(
    items: Sequence[tuple[ResultBundle, str | Path]],
    formats: Sequence[str],
    figures: Sequence[str] = (),
) -> list[Path]:
    """Write each ``(bundle, outdir)`` with `write_bundle`, in order, and
    return every created path; ``figures`` are checked against every
    bundle before anything is written.  A table object that more than one
    of the bundles renders, such as a sweep's ``world_probabilities``, is
    rendered once, whole, and its rendering and row texts are kept until
    this call returns; every other table is dropped chunk by chunk as it is
    written."""
    for bundle, _ in items:
        for figure_id in figures:
            _figure_spec(bundle, figure_id)
    held = Counter(
        (id(bundle.tables[name]), bundle.numeric_mode)
        for bundle, _ in items
        for name in _table_names(bundle, formats, figures)
    )
    shared = {key: None for key, count in held.items() if count > 1}
    return [
        path
        for bundle, outdir in items
        for path in write_bundle(bundle, outdir, formats, figures, shared=shared)
    ]


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


def _plot_preamble(bundle: ResultBundle, spec: FigureSpec) -> str:
    return (
        f"# figure: {spec.figure_id}\n"
        f"# description: {spec.description}\n"
        f"# axes: {spec.axes}\n"
        f"# source_table: {spec.table}\n"
        + _metadata_comment(bundle)
    )


def emit_plot_data(
    bundle: ResultBundle, figure_id: str, outdir: str | Path
) -> Path:
    """Write one self-describing columnar file for a figure, chunk by
    chunk; a write that fails removes the file and every directory it
    made, while empty."""
    spec = _figure_spec(bundle, figure_id)
    path = Path(outdir) / f"{spec.figure_id}.csv"
    sep = _csv_field(bundle.fingerprint) + "\n"
    texts = _table_texts(bundle.tables[spec.table], bundle.numeric_mode, None)
    with _undone_on_failure(path.parent, [path]), _new_file(path) as fh:
        for n, text in enumerate(texts):
            if n == 0:
                fh.write(_plot_preamble(bundle, spec) + _csv_head(text.header))
            fh.writelines(text.plotted(spec).csv_lines(sep))
    return path
