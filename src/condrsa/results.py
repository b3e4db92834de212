"""Result bundles: named tables plus the configuration that produced them.

Output is byte-reproducible: the same configuration (including the seed)
writes identical files.  To that end every numeric cell is rendered
through one formatter (exact fractions like ``5/6`` in rational mode, 12
significant digits in float mode), and every CSV row ends in a
fingerprint of the configuration, which ``bundle.json`` (v2,
`bundle_json_text`) states once, in its metadata.  Tables are held as
columns, each of one of three kinds: a list of Python values, a read-only
1-D numpy array of numbers, or `Labels`, integer codes into a tuple of
repeated strings.  Columns become Python values only at the edge: in
`ResultTable.rows` and in rendering.  A write renders each table it needs
once, one typed pass per column (a column of one type, bools included,
goes through one C-level formatter; a `Labels` column renders its names
once and gathers them by code), and JSON, CSV and plot data share that
rendering.  An exact value column converts each distinct object to its
text and decimal once, and each distinct integer, numerator or
denominator, to digits once: most of its cells are the engine's one
shared ``Fraction(0)``, and its large values share a few denominators.  A
table of more than ``_CHUNK_ROWS`` rows is rendered, turned into text,
written and dropped one chunk of rows at a time, with the bytes of a
whole-table write: each JSON row is one line, and CSV quoting is decided
field by field.

Each rendered column is one of three kinds of text.  Plain text (`_Plain`:
the texts of numbers and bools, and exact ``n/d`` texts) never needs JSON
escaping or CSV quoting, so it goes in as it is, with its JSON quotes in
the text around it.  A `Labels` column (`_Coded`) escapes and quotes each
name once and gathers the results by code.  Any other string, one in a
rational value column included, is escaped cell by cell by the C-level
JSON string encoder, as ``json.dumps`` escapes it; a column of them is
quoted as ``csv.writer(fh, lineterminator="\\n")`` quotes: a field only
when it holds ``,``, ``"`` or ``\\n`` (a ``\\r`` alone is not), and only a
column holding such a field field by field.  A chunk's JSON rows and its
CSV rows are each one ``"".join`` over a flat list, a row of separators
repeated (for CSV, the fingerprint in its last slot) and filled one column
at a time by strided slice assignment.

A table may be built `of_parts`: tables of its name and columns, laid end
to end, each written in turn.  `write_bundles` writes several bundles in
one call: a part held by more than one of them (a sweep's
``world_probabilities``, and the prior cohort of its ``delta_p_cohorts``)
is rendered once, whole, and its texts live until the call returns, while
every other part is rendered, written and dropped one chunk at a time.
A kept part's JSON rows are one text, the same in every bundle; each of
its CSV rows is held up to its ``config`` field and joined with each
bundle's fingerprint, two pieces a row where a flat join per bundle would
walk every cell again.  Each figure's scenario and row filters live in
one `FigureSpec`.
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
#: header entry; CSV writers append the ``config`` column of fingerprints
Rendered = tuple[list[str], list[Sequence[str]]]

_G12 = "{:.12g}".format

#: a table of more rows than this is rendered and written in chunks of
#: this many rows
_CHUNK_ROWS = 65536

#: a part kept for several bundles joins its row texts with each bundle's
#: fingerprint this many rows at a time, so that no text of the whole part
#: and its encoded copy are held at once
_BLOCK_ROWS = 2048


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


class _Plain(list):
    """Rendered texts that JSON never escapes and CSV never quotes: the
    ``{:.12g}``, ``str`` and ``true``/``false`` texts of numbers and bools,
    and exact ``n/d`` texts."""

    __slots__ = ()


def _decimals(values: Sequence) -> _Plain:
    return _Plain(map(_G12, map(float, values)))


def _render_column(values: Sequence) -> Sequence[str]:
    """``[_render_cell(v, FLOAT) for v in values]``, in one C-level pass when
    every value has the same type; a column of numbers or bools is `_Plain`.
    Rational-mode value columns go through `_rational_columns` instead."""
    types = set(map(type, values))
    if types <= {str}:
        return values
    if types <= {bool}:
        return _Plain(map(_BOOL_TEXT.__getitem__, values))
    if types <= {float}:
        return _Plain(map(_G12, values))
    if types <= {int} and -_INT_TEXT_BOUND < min(values) and max(values) < _INT_TEXT_BOUND:
        return _Plain(map(str, values))
    if types <= {int, Fraction}:
        return _decimals(values)
    return [_render_cell(v, FLOAT) for v in values]


def _exact_texts(values: Sequence[int | Fraction]) -> tuple[_Plain, _Plain]:
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
    decimals = [_G12(n / d) for n, d in ratios]
    codes = list(map(id, values))
    return (
        _Plain(map(dict(zip(objects, texts)).__getitem__, codes)),
        _Plain(map(dict(zip(objects, decimals)).__getitem__, codes)),
    )


def _rational_columns(values: Sequence) -> tuple[Sequence[str], _Plain]:
    """A value column's texts and their decimal companions in rational
    mode; texts that are not all exact (a ``str`` among them) are escaped
    cell by cell when written."""
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


def _joined(columns: Sequence) -> Sequence:
    """One column of parts' columns laid end to end: `Labels` of one set of
    names stay codes, arrays of one dtype stay an array, and any other mix
    becomes a list of Python values."""
    if all(isinstance(c, Labels) for c in columns) and len({c.names for c in columns}) == 1:
        return Labels(np.concatenate([c.codes for c in columns]), columns[0].names)
    if all(isinstance(c, np.ndarray) for c in columns) and len({c.dtype for c in columns}) == 1:
        return np.concatenate(columns)
    return list(chain.from_iterable(map(_values, columns)))


class _Coded(list):
    """A rendered `Labels` column: each row's text, and the rendered names
    and codes it was gathered from, so that each name is escaped for JSON
    and quoted for CSV once."""

    __slots__ = ("names", "codes")

    def __init__(self, names: Sequence[str], codes: np.ndarray) -> None:
        super().__init__(_gather(names, codes))
        self.names, self.codes = names, codes


@dataclass(frozen=True, init=False)
class ResultTable:
    """A named record set held as one column per entry of ``columns``,
    each a list, a read-only 1-D numpy array or `Labels` (an array is held
    as a read-only view); ``value_columns`` get numeric rendering.  Given
    ``rows``, the columns are lists built from those row tuples instead of
    ``data``, so that ``dataclasses.replace(table, rows=...)`` swaps a
    table's rows.  A table built `of_parts` holds its parts' columns laid
    end to end and is written part by part; any other table is its own one
    part.  Two tables are equal when their names, columns, value columns
    and column values are, whatever kind holds the values."""

    name: str
    columns: tuple[str, ...]
    data: tuple[Sequence, ...]
    value_columns: tuple[str, ...] = ()

    def __init__(self, name, columns, data=(), value_columns=(), rows=None) -> None:
        if rows is not None:
            data = tuple(map(list, zip(*rows))) or tuple([] for _ in columns)
        data = tuple(_read_only(c) if isinstance(c, np.ndarray) else c for c in data)
        self.__dict__.update(
            name=name, columns=columns, data=data, value_columns=value_columns, _parts=None,
        )

    @classmethod
    def of_parts(cls, parts: Sequence[ResultTable]) -> ResultTable:
        """The table of ``parts`` laid end to end, which share its name,
        columns and value columns."""
        first = parts[0]
        if any(
            (part.name, part.columns, part.value_columns)
            != (first.name, first.columns, first.value_columns)
            for part in parts
        ):
            raise ValueError("the parts of a table share its name, columns and value columns")
        table = cls(
            first.name, first.columns,
            tuple(map(_joined, zip(*(part.data for part in parts)))), first.value_columns,
        )
        table.__dict__["_parts"] = tuple(chain.from_iterable(part.parts for part in parts))
        return table

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ResultTable)
            and (self.name, self.columns, self.value_columns)
            == (other.name, other.columns, other.value_columns)
            and list(map(_values, self.data)) == list(map(_values, other.data))
        )

    @property
    def parts(self) -> tuple[ResultTable, ...]:
        """The tables whose rows this one writes, in order."""
        return self._parts or (self,)

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
        mode; each column is `_Plain`, `_Coded` (from `Labels`) or any other
        strings."""
        header: list[str] = []
        columns: list[Sequence[str]] = []
        for col, column in zip(self.columns, self.data):
            numeric = col in self.value_columns
            column = column[rows]
            header.append(col)
            if numeric and mode == RATIONAL:
                header.append(f"{col}_decimal")
                columns.extend(_rational_columns(_values(column)))
            elif isinstance(column, Labels):
                columns.append(_Coded(_render_column(column.names), column.codes))
            else:
                columns.append(_render_column(_values(column)))
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


def _quotable(text: str) -> bool:
    """Whether CSV quotes a field that holds ``text``."""
    return "," in text or '"' in text or "\n" in text


def _csv_field(text: str) -> str:
    """One field as ``csv.writer(fh, lineterminator="\\n")`` writes it:
    quoted, its quotes doubled, only when it holds ``,``, ``"`` or ``\\n``.
    A ``\\r`` alone is not quoted."""
    return '"' + text.replace('"', '""') + '"' if _quotable(text) else text


def _escaped(column: Sequence[str], escape) -> list[str]:
    """``escape`` of each text of a rendered column; `Labels` names once
    each, gathered by code."""
    if isinstance(column, _Coded):
        return _gather(list(map(escape, column.names)), column.codes)
    return list(map(escape, column))


def _csv_cells(columns: Sequence[Sequence[str]]) -> tuple[list[Sequence[str]], list[str]]:
    """Each rendered column's CSV fields, and the texts of a row around them
    up to its ``config`` field.  Only a column that is not plain and whose
    joined texts hold a character that needs quoting is quoted."""
    fields = [
        _escaped(c, _csv_field) if not isinstance(c, _Plain) and _quotable("".join(c)) else c
        for c in columns
    ]
    return fields, ["", *[","] * len(fields)]


def _row_prefixes(cells: Sequence[Sequence[str]], bounds: Sequence[str]) -> list[str]:
    """Each row's ``bounds[0] + cells[0][k] + bounds[1] + ... + cells[-1][k]
    + bounds[-1]``, from one template."""
    return list(map("%s".join(bounds).__mod__, zip(*cells)))


def _kept_rows(prefixes: list[str], sep: str, last: str) -> Iterator[str]:
    """The texts of the rows ``prefixes``, each followed by ``sep`` and the
    last by ``last``, one text per `_BLOCK_ROWS` rows."""
    for start in range(0, len(prefixes), _BLOCK_ROWS):
        yield sep.join(prefixes[start:start + _BLOCK_ROWS])
        yield sep if start + _BLOCK_ROWS < len(prefixes) else last


def _joined_rows(cells: Sequence[Sequence[str]], bounds: Sequence[str], end: str, last: str) -> str:
    """The rows of `_row_prefixes`, each followed by ``end`` and the last by
    ``last``, in one ``"".join``.  The pieces sit in one flat list: a row of
    bounds repeated, its cells' slots filled one column at a time by
    strided slice assignment."""
    if not cells or not cells[0]:
        return ""
    row = [bounds[0]]
    for bound in bounds[1:]:
        row += [None, bound]
    row[-1] += end
    flat = row * len(cells[0])
    for j, column in enumerate(cells):
        flat[2 * j + 1::len(row)] = column
    flat[-1] = bounds[-1] + last
    return "".join(flat)


def _json_rows(columns: Sequence[Sequence[str]]) -> str:
    """The rows' JSON texts, ``json.dumps`` of each row's cells, joined by
    ``,\\n``.  Plain texts go in as they are, their quotes in the texts
    around them; any other text is escaped, quotes included."""
    cells, bounds = [], ["["]
    for column in columns:
        quote = '"' if isinstance(column, _Plain) else ""
        cells.append(column if quote else _escaped(column, _json_string))
        bounds[-1] += quote
        bounds.append(quote + ", ")
    bounds[-1] = bounds[-1].removesuffix(", ") + "]"
    return _joined_rows(cells, bounds, ",\n", "")


@contextmanager
def _undone_on_failure(target: Path, directory: Path, written: list[Path]) -> Iterator[None]:
    """If the body raises, remove the files in ``written``, which the body may
    extend, then each directory up to ``directory`` that it made, while empty;
    a cleanup that fails never replaces the body's error.  An `OSError` of
    the body is raised as a `ModelError` that names ``target``."""
    made = [d for d in (directory, *directory.parents) if not d.exists()]  # innermost first
    try:
        yield
    except BaseException as exc:
        for path in written:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for d in made:  # rmdir keeps one that is missing or not empty
            with suppress(OSError):
                d.rmdir()
        if isinstance(exc, OSError):
            raise ModelError(f"cannot write {target}: {exc}") from None
        raise


def _new_file(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8")


def _csv_head(header: Sequence[str]) -> str:
    return ",".join(map(_csv_field, [*header, "config"])) + "\n"


class _TableText:
    """A rendered table, or a chunk of its rows, and its JSON and CSV rows,
    joined once from column slices and dropped at once.  A table that
    ``keep``s its texts serves several bundles whole: its JSON rows are one
    text, and each CSV row is held up to its ``config`` field, joined with
    each bundle's fingerprint."""

    def __init__(self, header: list[str], columns: list[Sequence[str]], keep: bool = False) -> None:
        self.header, self.columns, self.keep = header, columns, keep

    @cached_property
    def kept_json(self) -> str:
        return _json_rows(self.columns)

    @cached_property
    def csv_prefixes(self) -> list[str]:
        return _row_prefixes(*_csv_cells(self.columns))

    def json_rows(self) -> str:
        """The rows' JSON texts joined by ``,\\n``, or the kept text."""
        return self.kept_json if self.keep else _json_rows(self.columns)

    def csv_lines(self, sep: str) -> Iterable[str]:
        """The CSV rows of a bundle whose ``sep`` is its quoted fingerprint
        and the line end: joined from column slices, or from the kept row
        texts."""
        if self.keep:
            return _kept_rows(self.csv_prefixes, sep, sep)
        return (_joined_rows(*_csv_cells(self.columns), sep, sep),)

    def plotted(self, spec: FigureSpec | None) -> _TableText:
        """The rows that pass the figure's row filters, read from the
        rendered columns, each column of its kind; all of them without a
        spec or a filter."""
        if spec is None or not spec.row_filters:
            return self
        tested = [self.columns[self.header.index(column)] for column, _ in spec.row_filters]
        keep = [
            all(cell in allowed for cell, (_, allowed) in zip(cells, spec.row_filters))
            for cells in zip(*tested)
        ]
        return _TableText(self.header, [
            _Coded(c.names, c.codes[np.array(keep, dtype=bool)]) if isinstance(c, _Coded)
            else (_Plain if isinstance(c, _Plain) else list)(compress(c, keep))
            for c in self.columns
        ])


def _metadata_comment(bundle: ResultBundle) -> str:
    # full config echo on a comment line, so each file can be re-run alone
    return f"# config: {json.dumps(bundle.metadata, sort_keys=True)}\n"


def _json_head(bundle: ResultBundle) -> str:
    return f'{{"metadata": {json.dumps(bundle.metadata, sort_keys=True)}, "tables": {{'


def _json_table_head(name: str, header: Sequence[str], first: bool) -> str:
    """A table's entry in ``bundle.json`` up to its rows."""
    return ("\n" if first else ",\n") + (
        f'{_json_string(name)}: {{"columns": {json.dumps(header)}, "rows": ['
    )


def _write_json_rows(fh: TextIO, text: _TableText, opened: bool) -> bool:
    """Write a chunk's rows into its table's entry; ``opened`` when an
    earlier chunk of the table wrote rows.  Returns whether the table has
    rows so far."""
    if not text.columns or not text.columns[0]:
        return opened
    fh.write(",\n" if opened else "\n")
    fh.write(text.json_rows())
    return True


def _json_table_tail(opened: bool) -> str:
    return ("\n]" if opened else "]") + "}"


def _json_tail(n_tables: int) -> str:
    return "\n}}\n" if n_tables else "}}\n"


def bundle_json_text(bundle: ResultBundle, rendered: dict[str, Rendered]) -> str:
    """The JSON rendering of a bundle whose tables are already rendered,
    ``bundle.json`` v2 (``docs/bundle-format.md``): ``json.dumps`` of the
    metadata, keys sorted, then of each table's header and, one per line,
    of each of its rows' rendered texts, with no ``config`` column, so the
    fingerprint is in the metadata only.  Each column is escaped in one
    pass and the rows are filled into one template, so no cell can forge
    the skeleton.  `write_bundle` writes the same pieces table by table,
    and chunk by chunk."""
    out = io.StringIO()
    out.write(_json_head(bundle))
    for i, name in enumerate(sorted(rendered)):
        text = _TableText(*rendered[name])
        out.write(_json_table_head(name, text.header, i == 0))
        out.write(_json_table_tail(_write_json_rows(out, text, opened=False)))
    out.write(_json_tail(len(rendered)))
    return out.getvalue()


def _table_names(bundle: ResultBundle, formats: Sequence[str], figures: Sequence[str]) -> list[str]:
    """The tables that a write of ``formats`` and ``figures`` renders."""
    if "json" in formats or "csv" in formats:
        return sorted(bundle.tables)
    return sorted({FIGURES[figure_id].table for figure_id in figures})


def _table_texts(table: ResultTable, mode: str, shared: dict | None) -> Iterator[_TableText]:
    """The text of each of the table's parts in turn: in chunks of
    ``_CHUNK_ROWS`` rows, at least one; for a part whose key is in
    ``shared``, one whole text built once per `write_bundles` call."""
    for part in table.parts:
        key = (id(part), mode)
        if shared is not None and key in shared:
            if shared[key] is None:
                shared[key] = _TableText(*part.rendered(mode), keep=True)
            yield shared[key]
            continue
        for start in range(0, max(part.n_rows, 1), _CHUNK_ROWS):
            yield _TableText(*part.rendered(mode, slice(start, start + _CHUNK_ROWS)))


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
    wrote and every directory it made, while empty; an OS error is raised
    as a `ModelError`, "cannot write <outdir>: ...".  The tables are written
    one after another and each table part by part, each chunk of
    ``_CHUNK_ROWS`` rows rendered once for JSON, CSV and plot data and
    dropped after it is written, unless ``shared`` keeps a whole part for
    the other bundles of a `write_bundles` call that hold it: its keys are
    ``(id(part), numeric mode)``, and a key's text is built on first use."""
    specs = [_figure_spec(bundle, figure_id) for figure_id in figures]
    outdir = Path(outdir)
    mode = bundle.numeric_mode
    sep = _csv_field(bundle.fingerprint) + "\n"
    json_path = outdir / "bundle.json"
    csv_paths: list[Path] = []
    plot_paths: list = [None] * len(specs)  # in the order of figures
    written = [json_path] if "json" in formats else []  # removed if the write fails
    with _undone_on_failure(outdir, outdir / "plotdata", written):
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
                            opened = _write_json_rows(json_fh, text, opened)
                if json_fh is not None:
                    json_fh.write(_json_table_tail(opened))
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
    bundle before anything is written.  A table part that more than one of
    the bundles renders, such as a sweep's ``world_probabilities`` or the
    prior cohort of its ``delta_p_cohorts``, is rendered once, whole, and
    its rendering and row texts are kept until this call returns; every
    other part is dropped chunk by chunk as it is written."""
    for bundle, _ in items:
        for figure_id in figures:
            _figure_spec(bundle, figure_id)
    held = Counter(
        (id(part), bundle.numeric_mode)
        for bundle, _ in items
        for name in _table_names(bundle, formats, figures)
        for part in bundle.tables[name].parts
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
    made, while empty, and an OS error is raised as a `ModelError`."""
    spec = _figure_spec(bundle, figure_id)
    path = Path(outdir) / f"{spec.figure_id}.csv"
    sep = _csv_field(bundle.fingerprint) + "\n"
    texts = _table_texts(bundle.tables[spec.table], bundle.numeric_mode, None)
    with _undone_on_failure(path, path.parent, [path]), _new_file(path) as fh:
        for n, text in enumerate(texts):
            if n == 0:
                fh.write(_plot_preamble(bundle, spec) + _csv_head(text.header))
            fh.writelines(text.plotted(spec).csv_lines(sep))
    return path
