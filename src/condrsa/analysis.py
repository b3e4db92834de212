"""Aggregate analyses over a context: who says what when, and what a
listener concludes.

Everything here is computed from the engine's arrays and the context's
cells and is pure; an event probability that adds cells, such as a
marginal, comes from `core.event_column`.  The A and C marginals and the
certainty cells are memoised in the context as read-only 1-D arrays.  The
speaker analyses read the engine's memoised pattern rows (one per
distinct assertability row), sum or test them once per pattern, and
gather the sums per state; no (states x utterances) speaker matrix is
built.  A group mean is one ordered pass over the states: the group's
running sum in state order by `np.bincount` (`engine._group_sums`) over
its count, with the bits of a mean over the group's gathered rows.
`context_analyses` computes, once per context, the record of analyses that
a default-context bundle lays out.  Its relation beliefs and CP metrics
read the same three interpretations of "A -> C" (prior, literal and
pragmatic listener), built once; a posterior is a read-only column of
weights, which both read as it is.  The check suite at the bottom reads that
record and evaluates the reference claims against the bounds in
`condrsa.tolerances` (strict form for the default configuration,
qualitative ordinal/zero-one form for the robustness grid).  Each check is
made by the helper of its kind of claim: a bound (``>=``, ``>``, ``<=``,
``<`` or an interval), an ordering (a chain whose steps exceed a gap),
modal, only or nonempty.  Its verdict, texts and signed ``margin`` come from
one number: a positive margin passes, a negative one fails, and zero passes
only where the claim is ``inclusive`` (``>=``, ``<=``, an interval, only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from . import engine
from .context import ScenarioContext
from .core import (
    A,
    C,
    RELATION_NAMES,
    RELATION_ORDER,
    CausalStructure,
    Event,
    JointTable,
    ModelError,
    Scalar,
    State,
    Var,
    ZeroProbabilityEventError,
    event_column,
    query,
)
from .engine import Argmax, Posterior, Softmax, SpeakerRule
from .tolerances import TOLERANCES
from .utterances import Conditional, Lit, Utterance, UtteranceType


class ContingencyUndefinedError(ModelError):
    """The normalized contingency is undefined for this table."""


class CertaintyClass(Enum):
    CERTAIN = "certain"
    UNCERTAIN = "uncertain"


class CertaintyCell(Enum):
    """Partition of states by the speaker's certainty about A and about C."""

    CERTAIN_BOTH = "certain_both"
    UNCERTAIN_BOTH = "uncertain_both"
    MIXED = "mixed"


#: the conditional utterance the dependency analyses condition on
A_IMPLIES_C = Conditional(Lit(Var.A), Lit(Var.C))


def classify_certainty(
    state: State, theta: Scalar, event: Event, given: Event | None = None
) -> CertaintyClass:
    """Uncertain iff ``1 - theta <= P(event) <= theta``, else certain."""
    p = query(state.table, event, given)
    if 1 - theta <= p <= theta:
        return CertaintyClass.UNCERTAIN
    return CertaintyClass.CERTAIN


def marginal_arrays(ctx: ScenarioContext) -> tuple[np.ndarray, np.ndarray]:
    """Marginals (P(a), P(c)) across all states, in the context's arithmetic.
    Read-only, memoised per context."""
    return engine._memoised(
        ctx, "marginals", lambda: (event_column(ctx.cells, A), event_column(ctx.cells, C))
    )


def certainty_cell_array(ctx: ScenarioContext) -> np.ndarray:
    """Certainty cell of every state, as indices into list(CertaintyCell).
    Read-only, memoised per context."""

    def compute():
        p_a, p_c = marginal_arrays(ctx)
        unc_a = (p_a >= 1 - ctx.theta) & (p_a <= ctx.theta)
        unc_c = (p_c >= 1 - ctx.theta) & (p_c <= ctx.theta)
        cells = np.full(ctx.n_states, list(CertaintyCell).index(CertaintyCell.MIXED))
        cells[~unc_a & ~unc_c] = list(CertaintyCell).index(CertaintyCell.CERTAIN_BOTH)
        cells[unc_a & unc_c] = list(CertaintyCell).index(CertaintyCell.UNCERTAIN_BOTH)
        return cells

    return engine._memoised(ctx, "certainty_cells", compute)


def relation_array(ctx: ScenarioContext) -> np.ndarray:
    """Causal structure of every state, as int8 indices into RELATION_ORDER."""
    return ctx.relations


def _groups(
    ctx: ScenarioContext, group_by: str
) -> tuple[np.ndarray, list[int], list[tuple[int, str]]]:
    """Each state's relation-group code, the number of states of each code,
    and each group's code and label in order of first appearance; grouped
    on the relation codes."""
    relations = relation_array(ctx)
    if group_by == "relation":
        codes, labels = relations, RELATION_NAMES
    elif group_by == "independence":
        codes, labels = (relations != 0).view(np.int8), ("independent", "dependent")
    elif group_by == "none":
        codes, labels = np.zeros(ctx.n_states, np.int8), ("all",)
    else:
        raise ValueError(f"unknown grouping {group_by!r}")
    counts = np.bincount(codes, minlength=len(labels)).tolist()
    firsts = sorted((int(np.argmax(codes == code)), code) for code, n in enumerate(counts) if n)
    return codes, counts, [(code, labels[code]) for _, code in firsts]


def _type_columns(ctx: ScenarioContext) -> dict[UtteranceType, list[int]]:
    return {t: [j for j, u in enumerate(ctx.utterances) if u.kind is t] for t in UtteranceType}


def _type_mass_matrix(ctx: ScenarioContext, rule: SpeakerRule | None) -> np.ndarray:
    """Each state's speaker mass per utterance type under ``rule``.

    Returns (n_states, len(UtteranceType)) in UtteranceType order.  Each
    speaker pattern row is summed once, and those sums are read-only and
    memoised per context and rule, like the speaker rows; each call gathers
    them per state afresh.
    """
    rule = engine._resolve_rule(ctx, rule)

    def compute() -> np.ndarray:
        rows = engine._speaker_rows(ctx, rule)
        cols = _type_columns(ctx)
        return np.stack(
            [rows[:, cols[t]].sum(axis=1) if cols[t] else np.zeros(len(rows))
             for t in UtteranceType],
            axis=1,
        )

    return engine._per_state(ctx, engine._memoised(ctx, ("type_mass", rule), compute))


@dataclass(frozen=True)
class FrequencyCell:
    """How often each utterance type is the speaker's best choice in a cell,
    and in how many of the cell's states it gets positive argmax mass."""

    count: int
    frequencies: dict[UtteranceType, float]
    positive: dict[UtteranceType, int]


def best_utterance_frequencies(
    ctx: ScenarioContext, group_by: str = "independence"
) -> dict[tuple[CertaintyCell, str], FrequencyCell]:
    """Relative frequency of each utterance type being the hyperrational
    speaker's best choice, per certainty cell and relation group.

    Argmax ties contribute fractionally.  Cells containing no state are
    absent from the result rather than reported as zeros.
    """
    type_mass = _type_mass_matrix(ctx, Argmax())
    codes, code_counts, groups = _groups(ctx, group_by)
    n_codes = len(code_counts)
    key = certainty_cell_array(ctx) * n_codes + codes
    n_keys = len(CertaintyCell) * n_codes
    counts = np.bincount(key, minlength=n_keys).tolist()
    sums = engine._group_sums(type_mass, key, n_keys)
    positive = engine._group_sums(type_mass > 0, key, n_keys).astype(int)

    out: dict[tuple[CertaintyCell, str], FrequencyCell] = {}
    for ci, cell in enumerate(CertaintyCell):
        for code, group in groups:
            k = ci * n_codes + code
            if counts[k] == 0:
                continue
            out[(cell, group)] = FrequencyCell(
                count=counts[k],
                frequencies={t: float(m) for t, m in zip(UtteranceType, sums[k] / counts[k])},
                positive=dict(zip(UtteranceType, positive[k].tolist())),
            )
    return out


@dataclass(frozen=True)
class CPMetrics:
    """Expected strength of the two biconditional-reading probabilities.

    ``not_c_given_not_a`` is E[P(~c | ~a)] and ``a_given_c`` is E[P(a | c)]
    under a posterior over states.  States in which the conditioning event
    has probability zero are excluded and their posterior mass reported.
    """

    not_c_given_not_a: Scalar
    a_given_c: Scalar
    excluded_mass_not_a: Scalar
    excluded_mass_c: Scalar

    @property
    def values(self) -> tuple[Scalar, Scalar]:
        return (self.not_c_given_not_a, self.a_given_c)


def cp_metrics(post: Posterior) -> CPMetrics:
    """`CPMetrics` of a posterior, in its context's arithmetic: Fractions
    (or ints) on exact contexts, Python floats otherwise."""
    tables = post.context.cells
    weights = post.column
    p_a, p_c = marginal_arrays(post.context)

    def conditional_expectation(num, den):
        # one-element sums, read out as Python scalars by `tolist`
        ok = den > 0
        included = weights[ok].sum(keepdims=True)
        if included[0] == 0:
            raise ZeroProbabilityEventError(
                "conditioning event has probability zero in every supported state"
            )
        value = (weights[ok] * (num[ok] / den[ok])).sum(keepdims=True) / included
        return value.tolist()[0], weights[~ok].sum(keepdims=True).tolist()[0]

    ncna, excl_a = conditional_expectation(tables[:, 3], 1 - p_a)
    ac, excl_c = conditional_expectation(tables[:, 0], p_c)
    return CPMetrics(ncna, ac, excl_a, excl_c)


def delta_p_star(table: JointTable) -> Scalar:
    """Normalized contingency ``(P(c|a) - P(c|~a)) / (1 - P(c|~a))``.

    Undefined (raises) when either conditional is undefined or when
    ``P(c|~a) = 1``.
    """
    p_c_a = query(table, C, given=A)          # raises if P(a) = 0
    p_c_na = query(table, C, given=~A)        # raises if P(a) = 1
    if p_c_na == 1:
        raise ContingencyUndefinedError(
            "P(c|~a) = 1 makes the normalized contingency undefined"
        )
    return (p_c_a - p_c_na) / (1 - p_c_na)


@dataclass(frozen=True)
class DeltaPCohort:
    name: str
    indices: np.ndarray
    values: np.ndarray

    def median(self) -> float:
        return float(np.median(self.values))


@dataclass(frozen=True)
class DeltaPCohorts:
    """Contingency values for three nested samples of states.

    ``prior``: all states where the contingency is defined; ``assertable``:
    those where "A -> C" is assertable; ``best_choice``: those where it is
    (one of) the hyperrational speaker's best choices.
    """

    prior: DeltaPCohort
    assertable: DeltaPCohort
    best_choice: DeltaPCohort
    undefined_count: int


def _delta_p_array(ctx: ScenarioContext) -> tuple[np.ndarray, np.ndarray]:
    cells = ctx.cells
    p_a, _ = marginal_arrays(ctx)
    defined = (p_a > 0) & (p_a < 1)
    p_c_a = np.zeros(ctx.n_states, dtype=cells.dtype)
    p_c_na = np.zeros(ctx.n_states, dtype=cells.dtype)
    p_c_a[defined] = cells[defined, 0] / p_a[defined]
    p_c_na[defined] = cells[defined, 2] / (1 - p_a[defined])
    defined &= p_c_na < 1
    values = np.zeros(ctx.n_states, dtype=cells.dtype)
    values[defined] = (p_c_a[defined] - p_c_na[defined]) / (1 - p_c_na[defined])
    return values, defined


def delta_p_cohorts(ctx: ScenarioContext) -> DeltaPCohorts:
    values, defined = _delta_p_array(ctx)
    j = ctx.index_of_utterance(A_IMPLIES_C)
    assertable = ctx.assertability[:, j] & defined
    best = engine._per_state(ctx, engine._speaker_rows(ctx, Argmax())[:, j] > 0) & assertable

    def cohort(name: str, mask: np.ndarray) -> DeltaPCohort:
        idx = np.flatnonzero(mask)
        return DeltaPCohort(name=name, indices=idx, values=values[idx])

    return DeltaPCohorts(
        prior=cohort("prior", defined),
        assertable=cohort("assertable", assertable),
        best_choice=cohort("best_choice", best),
        undefined_count=int((~defined).sum()),
    )


def expected_choice_probabilities(
    ctx: ScenarioContext,
    rule: SpeakerRule | None = None,
    group_by: str = "relation",
) -> dict[str, dict[UtteranceType, float]]:
    """Mean speaker probability mass per utterance type, by relation group.

    Every row sums to one (each state's speaker distribution does).
    """
    codes, counts, groups = _groups(ctx, group_by)
    sums = engine._group_sums(_type_mass_matrix(ctx, rule), codes, len(counts))
    return {
        group: {t: float(m) for t, m in zip(UtteranceType, sums[code] / counts[code])}
        for code, group in groups
    }


def relation_beliefs(
    ctx: ScenarioContext,
    utterance: Utterance | str = A_IMPLIES_C,
    rule: SpeakerRule | None = None,
) -> dict[str, dict[CausalStructure, Scalar]]:
    """Relation marginals prior to the utterance and under both listeners."""
    return {
        stage: engine.relation_posterior(post)
        for stage, post in engine.interpretations(ctx, utterance, rule).items()
    }


def cp_comparison(
    ctx: ScenarioContext,
    utterance: Utterance | str = A_IMPLIES_C,
    rule: SpeakerRule | None = None,
) -> dict[str, CPMetrics]:
    """CP metrics prior to the utterance and under both listeners."""
    return {
        stage: cp_metrics(post)
        for stage, post in engine.interpretations(ctx, utterance, rule).items()
    }


@dataclass(frozen=True)
class ContextAnalyses:
    """The analyses of a default context that its bundle lays out and its
    checks read.  ``frequencies`` is keyed by grouping and ``choice`` by
    speaker rule name."""

    frequencies: dict[str, dict[tuple[CertaintyCell, str], FrequencyCell]]
    beliefs: dict[str, dict[CausalStructure, Scalar]]
    cp: dict[str, CPMetrics]
    cohorts: DeltaPCohorts
    choice: dict[str, dict[str, dict[UtteranceType, float]]]


def context_analyses(ctx: ScenarioContext) -> ContextAnalyses:
    """The `ContextAnalyses` of a context, computed once and memoised in it."""
    if "analyses" not in ctx._memo:
        stages = engine.interpretations(ctx, A_IMPLIES_C)
        beliefs = {stage: engine.relation_posterior(post) for stage, post in stages.items()}
        cp = {stage: cp_metrics(post) for stage, post in stages.items()}
        # dropped before the speaker-matrix analyses: held through them, the
        # three columns raised the 100k-state benchmark's peak RSS by 1 MB
        del stages
        ctx._memo["analyses"] = ContextAnalyses(
            frequencies={
                group_by: best_utterance_frequencies(ctx, group_by)
                for group_by in ("independence", "none")
            },
            beliefs=beliefs,
            cp=cp,
            cohorts=delta_p_cohorts(ctx),
            choice={
                name: expected_choice_probabilities(ctx, rule)
                for name, rule in (("softmax", Softmax(ctx.alpha)), ("argmax", Argmax()))
            },
        )
    return ctx._memo["analyses"]


# --------------------------------------------------------------------------
# check suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """A check's verdict and texts, and the signed margin they come from;
    equality reads only the four texts of the checks table."""

    name: str
    passed: bool
    observed: str
    requirement: str
    margin: float = field(default=math.nan, compare=False)
    inclusive: bool = field(default=False, compare=False)


def _check(name: str, margin: float, inclusive: bool, observed: str,
           requirement: str) -> CheckResult:
    """The one verdict: a positive margin passes, and zero where ``inclusive``."""
    margin = float(margin)
    passed = margin > 0 or (inclusive and margin == 0)
    return CheckResult(name, passed, observed, requirement, margin, inclusive)


def _bound(name: str, value: float, op: str, limit: float | tuple[float, float],
           fmt: str = ".6f", requirement: str | None = None) -> CheckResult:
    """``value op limit``, or ``low <= value <= high`` for ``op="in"``."""
    if op == "in":
        low, high = limit
        margin, requirement = min(value - low, high - value), f"in [{low}, {high}]"
    else:
        margin = value - limit if op[0] == ">" else limit - value
    return _check(name, margin, op in (">=", "<=", "in"), f"{value:{fmt}}",
                  requirement or f"{op} {limit}")


def _ordering(name: str, chain: dict[str, float], requirement: str, gap: float = 0.0,
              fmt: str = ".4f") -> CheckResult:
    """Each value of ``chain`` exceeds the one before it by more than ``gap``."""
    values = list(chain.values())
    step = min(high - low for low, high in zip(values, values[1:]))
    observed = " ".join(f"{label}={value:{fmt}}" for label, value in chain.items())
    return _check(name, step - gap, False, observed, requirement)


def _modal(name: str, cell: FrequencyCell, kind: UtteranceType) -> CheckResult:
    """``kind`` is more frequent in ``cell`` than each other type."""
    target = cell.frequencies[kind]
    runner_up = max(f for t, f in cell.frequencies.items() if t is not kind)
    return _check(name, target - runner_up, False, f"{target:.6f}", "strictly modal")


def _only(name: str, cell: FrequencyCell, *kinds: UtteranceType) -> CheckResult:
    """No state of ``cell`` gives argmax mass to another type; the margin is
    minus the count of such states, added over the other types.  States are
    counted: a float sum of mean frequencies can miss 1.0, as rows (0, 1)
    and (1/3, 2/3) average to 0.1666... + 0.8333... = 0.9999999999999999."""
    value = sum(cell.frequencies[kind] for kind in kinds)
    others = sum(n for t, n in cell.positive.items() if t not in kinds)
    return _check(name, -others, True, f"{value:.6f}", "== 1.0")


def _nonempty(name: str, mask: np.ndarray, requirement: str = "nonempty") -> CheckResult:
    count = int(mask.sum())
    return _check(name, count, False, f"count={count}", requirement)


def default_context_checks(
    ctx: ScenarioContext, level: str = "strict"
) -> list[CheckResult]:
    """Evaluate the reference claims on a (sampled) context.

    ``level="strict"`` applies the numeric bounds of the tolerance
    manifest and is meant for the default configuration; ``"qualitative"``
    keeps only the ordinal relations and exact zero/one cells, which must
    hold across the whole robustness grid.  A check whose certainty cell or
    relation group holds no state is left out.
    """
    if level not in ("strict", "qualitative"):
        raise ValueError(f"unknown check level {level!r}")
    strict = level == "strict"
    tol = TOLERANCES
    checks: list[CheckResult] = []
    analyses = context_analyses(ctx)

    # -- best-utterance frequencies (hyperrational speaker) ----------------
    overall = analyses.frequencies["none"]
    by_dependence = analyses.frequencies["independence"]
    if cell := overall.get((CertaintyCell.CERTAIN_BOTH, "all")):
        checks.append(_only("certain_both_conjunction_or_literal", cell,
                            UtteranceType.CONJUNCTION, UtteranceType.LITERAL))
    if cell := overall.get((CertaintyCell.MIXED, "all")):
        checks.append(_bound("mixed_literal", cell.frequencies[UtteranceType.LITERAL], ">=",
                             tol.mixed_literal_min) if strict
                      else _modal("mixed_literal_modal", cell, UtteranceType.LITERAL))
    if cell := by_dependence.get((CertaintyCell.UNCERTAIN_BOTH, "independent")):
        checks.append(_only("uncertain_independent_likely", cell, UtteranceType.LIKELY))
    if cell := by_dependence.get((CertaintyCell.UNCERTAIN_BOTH, "dependent")):
        value = cell.frequencies[UtteranceType.CONDITIONAL]
        checks.append(_bound("uncertain_dependent_conditional", value, ">=",
                             tol.uncertain_dep_conditional_min) if strict
                      else _modal("uncertain_dependent_conditional_modal", cell,
                                  UtteranceType.CONDITIONAL))

    # -- relation beliefs after "A -> C" ------------------------------------
    positive = {stage: float(beliefs[CausalStructure.AC_POS] + beliefs[CausalStructure.CA_POS])
                for stage, beliefs in analyses.beliefs.items()}
    if strict:
        mid, width = tol.literal_positive_mass, tol.literal_positive_mass_tol
        checks += [
            _bound("literal_positive_relation_mass", positive["literal"], "in",
                   (mid - width, mid + width), ".4f"),
            _bound("pragmatic_positive_relation_mass", positive["pragmatic"], ">=",
                   tol.pragmatic_positive_mass_min, ".4f"),
        ]
    else:
        checks.append(_ordering("positive_relation_mass_ordering", positive,
                                "prior < literal < pragmatic"))
    pragmatic = analyses.beliefs["pragmatic"]
    negative = float(pragmatic[CausalStructure.AC_NEG] + pragmatic[CausalStructure.CA_NEG])
    checks.append(_bound("pragmatic_negative_relation_mass", negative, "<=",
                         tol.pragmatic_negative_mass_max))

    # -- biconditional-strength metrics --------------------------------------
    gap = tol.cp_gap_min if strict else 0.0
    checks += [_ordering(f"cp_{metric}_ordering",
                         {stage: float(getattr(cp, metric)) for stage, cp in analyses.cp.items()},
                         f"pragmatic > literal > prior by more than {gap}", gap)
               for metric in ("not_c_given_not_a", "a_given_c")]

    # -- contingency cohorts --------------------------------------------------
    cohorts = analyses.cohorts
    requirement = "median(best) > median(assertable) > median(prior)"
    if len(cohorts.best_choice.values) == 0:
        checks.append(_check("delta_p_median_ordering", -math.inf, False,
                             "best-choice cohort is empty", requirement))
        low_fraction = 0.0
    else:
        checks.append(_ordering("delta_p_median_ordering", {
            "prior": cohorts.prior.median(), "assertable": cohorts.assertable.median(),
            "best": cohorts.best_choice.median()}, requirement))
        low_fraction = float((cohorts.best_choice.values < tol.delta_p_high).mean())
    max_fraction = tol.best_choice_low_delta_p_max_fraction
    checks.append(_bound("best_choice_low_delta_p", low_fraction, "<", max_fraction,
                         requirement=f"fraction below {tol.delta_p_high} under {max_fraction}"))

    # an argmax choice is assertable, so the best-choice cohort is the set of
    # prior-cohort states whose argmax speaker may say "A -> C"
    prior = cohorts.prior
    large = ~np.isin(prior.indices, cohorts.best_choice.indices)
    large &= prior.values >= tol.delta_p_large
    checks.append(_nonempty("large_delta_p_not_best_nonempty", large))

    # exact in floats: at most two literals, one per variable, are ever
    # assertable, so a state's literal argmax mass is 1, 1/2 + 1/2 or below 1
    argmax = engine._speaker_rows(ctx, Argmax())[:, _type_columns(ctx)[UtteranceType.LITERAL]]
    literal_argmax = engine._per_state(ctx, argmax.sum(axis=1) == 1.0)
    ca_dir = np.isin(ctx.relations, [RELATION_ORDER.index(CausalStructure.CA_POS),
                                     RELATION_ORDER.index(CausalStructure.CA_NEG)])
    extreme = (ca_dir & literal_argmax)[prior.indices]
    extreme &= prior.values < tol.delta_p_extreme_negative
    checks.append(_nonempty(
        "extreme_negative_delta_p_exists", extreme,
        f"a literal-argmax C-to-A state with value below {tol.delta_p_extreme_negative}",
    ))

    # -- conditionals about independent variables (missing links) ------------
    conditional = {group: table[UtteranceType.CONDITIONAL]
                   for group, table in analyses.choice["softmax"].items()}
    indep = CausalStructure.INDEPENDENT.value
    if indep not in conditional:  # no independent state
        return checks
    others = [mass for group, mass in conditional.items() if group != indep]
    if strict:
        checks.append(_bound("independent_conditional_mass", conditional[indep], "<",
                             tol.missing_link_conditional_mass_max))
    elif others:
        checks.append(_ordering(
            "independent_conditional_mass_least",
            {"independent": conditional[indep], "min(dependent)": min(others)},
            "smallest conditional mass of all relation groups", fmt=".6f",
        ))
    # exact in floats: a mean of nonnegative masses is 0 only when all are 0
    checks.append(_bound("independent_conditional_mass_argmax",
                         analyses.choice["argmax"][indep][UtteranceType.CONDITIONAL],
                         "<=", 0.0, ".8f", "== 0"))
    return checks


def all_passed(checks: Iterable[CheckResult]) -> bool:
    return all(c.passed for c in checks)
