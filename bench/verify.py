"""Correctness checks on the results the benchmark times.

Each check returns a list of problems; an empty list means the result is
correct.  A ``runner.run`` call whose result has any problem counts as a
failed operation.  Model outcomes are never problems: a check of the
program's own check suite that fails (criterion 8's median ordering does,
by design) is a result, so only the presence of every check is verified.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

#: golden values of the built-in scenarios: (table, key columns, value);
#: the key is a row without its last (value) column
GOLDEN: dict[str, tuple[tuple[str, tuple[str, ...], Fraction], ...]] = {
    "toy": tuple(
        [("literal_listener", (u, s), v) for u, vals in (
            ("likely C", (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
            ("A -> C", (Fraction(1, 2), Fraction(1, 2), Fraction(0))),
            ("C", (Fraction(1), Fraction(0), Fraction(0))),
        ) for s, v in zip(("s1", "s2", "s3"), vals)]
        + [("speaker", (s, u), v) for s, vals in (
            ("s1", (Fraction(2, 11), Fraction(3, 11), Fraction(6, 11), Fraction(0))),
            ("s2", (Fraction(2, 5), Fraction(3, 5), Fraction(0), Fraction(0))),
            ("s3", (Fraction(1), Fraction(0), Fraction(0), Fraction(0))),
        ) for u, v in zip(("likely C", "A -> C", "C", "A & C"), vals)]
        + [("pragmatic_listener", (u, s), v) for u, vals in (
            ("likely C", (Fraction(10, 87), Fraction(22, 87), Fraction(55, 87))),
            ("A -> C", (Fraction(5, 16), Fraction(11, 16), Fraction(0))),
            ("C", (Fraction(1), Fraction(0), Fraction(0))),
        ) for s, v in zip(("s1", "s2", "s3"), vals)]
    ),
    "skiing": (
        ("pragmatic_listener", ("E -> S", "dep"), Fraction(5, 6)),
        ("belief_summary", ("antecedent", "pragmatic_observed"), Fraction(13, 15)),
    ),
    "garden_party": (
        ("pragmatic_listener", ("D -> G", "dep"), Fraction(5, 6)),
        ("belief_summary", ("antecedent", "pragmatic_observed"), Fraction(1, 12)),
    ),
    "sundowners": (
        ("speaker", ("ind_low", "R -> ~S"), Fraction(1, 17)),
        ("surprise", ("R -> ~S",), Fraction(27, 340)),
        ("belief_summary", ("antecedent", "pragmatic"), Fraction(1, 2)),
    ),
}

#: checks a default-context bundle carries at each check level
STRICT_CHECKS = frozenset({
    "certain_both_conjunction_or_literal", "mixed_literal",
    "uncertain_independent_likely", "uncertain_dependent_conditional",
    "literal_positive_relation_mass", "pragmatic_positive_relation_mass",
    "pragmatic_negative_relation_mass", "cp_not_c_given_not_a_ordering",
    "cp_a_given_c_ordering", "delta_p_median_ordering",
    "best_choice_low_delta_p", "large_delta_p_not_best_nonempty",
    "extreme_negative_delta_p_exists", "independent_conditional_mass",
    "independent_conditional_mass_argmax",
})
QUALITATIVE_CHECKS = frozenset({
    "certain_both_conjunction_or_literal", "mixed_literal_modal",
    "uncertain_independent_likely", "uncertain_dependent_conditional_modal",
    "positive_relation_mass_ordering", "pragmatic_negative_relation_mass",
    "cp_not_c_given_not_a_ordering", "cp_a_given_c_ordering",
    "delta_p_median_ordering", "best_choice_low_delta_p",
    "large_delta_p_not_best_nonempty", "extreme_negative_delta_p_exists",
    "independent_conditional_mass_least", "independent_conditional_mass_argmax",
})

#: sums of in-memory float probabilities must be 1 within this
SUM_TOL = 1e-12
#: files render floats with 12 significant digits, so a sum of rendered
#: cells may also be off by half a unit in the last digit of each cell
RENDERED_SUM_TOL = 1e-11

#: tables of a default-context bundle, with their columns in [0, 1]
SAMPLED_PROBABILITY_COLUMNS = {
    "world_probabilities": "probability",
    "relation_beliefs": "mass",
    "best_utterance_frequencies": "frequency",
    "cp_metrics": "value",
    "expected_choice": "mass",
}
SAMPLED_TABLES = (*SAMPLED_PROBABILITY_COLUMNS, "delta_p_cohorts", "checks")


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _files_present(outdir: Path, tables) -> list[str]:
    expected = ["bundle.json", *(f"{name}.csv" for name in tables)]
    return [
        f"{outdir / name}: missing or empty"
        for name in expected
        if not (outdir / name).is_file() or (outdir / name).stat().st_size == 0
    ]


# --------------------------------------------------------------------------
# exact scenarios
# --------------------------------------------------------------------------


def _exact_sums(table, group_column: str) -> list[str]:
    """Every value exact and in [0, 1]; each group sums exactly to 1."""
    problems = []
    group = table.columns.index(group_column)
    sums: dict[str, Fraction] = defaultdict(Fraction)
    for row in table.rows:
        value = row[-1]
        if not _is_exact(value) or not 0 <= value <= 1:
            problems.append(f"{table.name}: {row!r} is not an exact probability")
            continue
        sums[row[group]] += value
    problems += [
        f"{table.name}: {group_column} {key!r} sums to {total}"
        for key, total in sums.items()
        if total != 1
    ]
    if not sums:
        problems.append(f"{table.name}: no rows")
    return problems


def exact_bundle(bundle, outdir: Path | None) -> list[str]:
    """Speaker rows and listener columns of a rational bundle sum exactly
    to 1; golden values hold for a built-in scenario."""
    if bundle.metadata.get("numeric") != "rational":
        return [f"numeric mode is {bundle.metadata.get('numeric')!r}, not rational"]
    tables = bundle.tables
    problems = []
    for name, group in (
        ("speaker", "state"),
        ("literal_listener", "utterance"),
        ("pragmatic_listener", "utterance"),
    ):
        if name not in tables:
            problems.append(f"table {name} missing")
        else:
            problems += _exact_sums(tables[name], group)
    for table_name, key, expected in GOLDEN.get(bundle.metadata.get("scenario"), ()):
        rows = {row[:-1]: row[-1] for row in tables[table_name].rows} if table_name in tables else {}
        got = rows.get(key)
        if got is None or not _is_exact(got) or got != expected:
            problems.append(f"golden {table_name}{key}: expected {expected}, got {got!r}")
    if outdir is not None:
        problems += _files_present(outdir, tables)
    return problems


# --------------------------------------------------------------------------
# sampled default contexts
# --------------------------------------------------------------------------


def _sampled_rules(tables: dict, expected_checks: frozenset, tol: float) -> list[str]:
    """Shared rules for in-memory and on-disk default-context bundles.

    ``tables`` maps a table name to ``(columns, rows)``; cells may be
    numbers or rendered strings.
    """
    problems = [f"table {name} missing" for name in SAMPLED_TABLES if name not in tables]
    if problems:
        return problems

    for name, column in SAMPLED_PROBABILITY_COLUMNS.items():
        columns, rows = tables[name]
        j = columns.index(column)
        bad = sum(1 for row in rows if not 0 <= float(row[j]) <= 1)
        if bad:
            problems.append(f"{name}: {bad} {column} value(s) outside [0, 1]")

    for name, keys, column in (
        ("relation_beliefs", ("interpretation",), "mass"),
        ("expected_choice", ("speaker_rule", "relation"), "mass"),
    ):
        columns, rows = tables[name]
        key_idx = [columns.index(k) for k in keys]
        j = columns.index(column)
        sums: dict[tuple, float] = defaultdict(float)
        for row in rows:
            sums[tuple(row[k] for k in key_idx)] += float(row[j])
        problems += [
            f"{name}: {key} sums to {total!r}"
            for key, total in sums.items()
            if abs(total - 1) > tol
        ]
        if not sums:
            problems.append(f"{name}: no rows")

    columns, rows = tables["checks"]
    names = [row[columns.index("check")] for row in rows]
    if len(names) != len(set(names)) or set(names) != expected_checks:
        missing = sorted(expected_checks - set(names))
        extra = sorted(set(names) - expected_checks)
        problems.append(f"checks: incomplete (missing {missing}, unexpected {extra})")
    return problems


def sampled_bundle(bundle) -> list[str]:
    """An in-memory ``run-default-context`` bundle at the strict level."""
    if bundle.metadata.get("numeric") != "float":
        return [f"numeric mode is {bundle.metadata.get('numeric')!r}, not float"]
    tables = {name: (t.columns, t.rows) for name, t in bundle.tables.items()}
    return _sampled_rules(tables, STRICT_CHECKS, SUM_TOL)


def _read_csv(path: Path) -> tuple[tuple[str, ...], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        header = tuple(next(reader))
        return header, list(reader)


def sweep_result(bundle, outdir: Path, alphas, thetas) -> list[str]:
    """The master bundle of a sweep, plus every combination written to
    disk: complete qualitative check tables and probability rules on the
    rendered files."""
    problems = []
    if "sweep_checks" not in bundle.tables:
        return ["table sweep_checks missing"]
    seen: dict[tuple[float, float], list[str]] = defaultdict(list)
    for alpha, theta, name, *_ in bundle.tables["sweep_checks"].rows:
        seen[(alpha, theta)].append(name)
    problems += _files_present(outdir, bundle.tables)
    for theta in thetas:
        for alpha in alphas:
            names = seen.get((alpha, theta), [])
            if len(names) != len(set(names)) or set(names) != QUALITATIVE_CHECKS:
                problems.append(f"sweep_checks: incomplete for alpha={alpha}, theta={theta}")
            combo = outdir / f"alpha-{alpha:g}_theta-{theta:g}"
            missing = _files_present(combo, SAMPLED_TABLES)
            if missing:
                problems += missing
                continue
            tables = {name: _read_csv(combo / f"{name}.csv") for name in SAMPLED_TABLES}
            problems += [
                f"{combo.name}: {p}"
                for p in _sampled_rules(tables, QUALITATIVE_CHECKS, RENDERED_SUM_TOL)
            ]
    if len(seen) != len(alphas) * len(thetas):
        problems.append(f"sweep_checks: {len(seen)} combinations, expected {len(alphas) * len(thetas)}")
    return problems
