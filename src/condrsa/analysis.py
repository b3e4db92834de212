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
qualitative ordinal/zero-one form for the robustness grid).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    cols: dict[UtteranceType, list[int]] = {t: [] for t in UtteranceType}
    for j, u in enumerate(ctx.utterances):
        cols[u.kind].append(j)
    return cols


def _type_mass_matrix(ctx: ScenarioContext, rule: SpeakerRule | None) -> np.ndarray:
    """Each state's speaker mass per utterance type under ``rule``.

    Returns (n_states, len(UtteranceType)) in UtteranceType order.  Each
    speaker pattern row is summed once and the sums are gathered per state.
    """
    rows = engine._speaker_rows(ctx, rule)
    cols = _type_columns(ctx)
    return np.stack(
        [rows[:, cols[t]].sum(axis=1) if cols[t] else np.zeros(len(rows))
         for t in UtteranceType],
        axis=1,
    )[engine._patterns(ctx)[2]]


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
    positive = np.stack(
        [np.bincount(key[column > 0], minlength=n_keys) for column in type_mass.T], axis=1
    )

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
    produced = engine._speaker_rows(ctx, Argmax())[:, j] > 0
    best = produced[engine._patterns(ctx)[2]] & assertable

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
    name: str
    passed: bool
    observed: str
    requirement: str


def _positive_mass(beliefs: dict[CausalStructure, Scalar]) -> float:
    return float(beliefs[CausalStructure.AC_POS] + beliefs[CausalStructure.CA_POS])


def _negative_mass(beliefs: dict[CausalStructure, Scalar]) -> float:
    return float(beliefs[CausalStructure.AC_NEG] + beliefs[CausalStructure.CA_NEG])


def default_context_checks(
    ctx: ScenarioContext, level: str = "strict"
) -> list[CheckResult]:
    """Evaluate the reference claims on a (sampled) context.

    ``level="strict"`` applies the numeric bounds of the tolerance
    manifest and is meant for the default configuration; ``"qualitative"``
    keeps only the ordinal relations and exact zero/one cells, which must
    hold across the whole robustness grid.
    """
    if level not in ("strict", "qualitative"):
        raise ValueError(f"unknown check level {level!r}")
    strict = level == "strict"
    tol = TOLERANCES
    checks: list[CheckResult] = []
    analyses = context_analyses(ctx)

    def add(name: str, passed: bool, observed: str, requirement: str) -> None:
        checks.append(CheckResult(name, bool(passed), observed, requirement))

    def modal(cell: FrequencyCell, kind: UtteranceType) -> bool:
        target = cell.frequencies[kind]
        return all(target > f for t, f in cell.frequencies.items() if t is not kind)

    def only(cell: FrequencyCell, *kinds: UtteranceType) -> bool:
        """Whether no state of ``cell`` gives argmax mass to another type: a
        float sum of mean frequencies can miss 1.0, as rows (0, 1) and (1/3,
        2/3) average to 0.1666... + 0.8333... = 0.9999999999999999."""
        return not any(n for t, n in cell.positive.items() if t not in kinds)

    # -- best-utterance frequencies (hyperrational speaker) ----------------
    overall = analyses.frequencies["none"]
    by_dependence = analyses.frequencies["independence"]

    cell = overall.get((CertaintyCell.CERTAIN_BOTH, "all"))
    if cell is not None:
        value = (cell.frequencies[UtteranceType.CONJUNCTION]
                 + cell.frequencies[UtteranceType.LITERAL])
        add(
            "certain_both_conjunction_or_literal",
            only(cell, UtteranceType.CONJUNCTION, UtteranceType.LITERAL),
            f"{value:.6f}",
            "== 1.0",
        )

    cell = overall.get((CertaintyCell.MIXED, "all"))
    if cell is not None:
        value = cell.frequencies[UtteranceType.LITERAL]
        if strict:
            add("mixed_literal", value >= tol.mixed_literal_min, f"{value:.6f}",
                f">= {tol.mixed_literal_min}")
        else:
            add("mixed_literal_modal", modal(cell, UtteranceType.LITERAL),
                f"{value:.6f}", "strictly modal")

    cell = by_dependence.get((CertaintyCell.UNCERTAIN_BOTH, "independent"))
    if cell is not None:
        value = cell.frequencies[UtteranceType.LIKELY]
        add("uncertain_independent_likely", only(cell, UtteranceType.LIKELY),
            f"{value:.6f}", "== 1.0")

    cell = by_dependence.get((CertaintyCell.UNCERTAIN_BOTH, "dependent"))
    if cell is not None:
        value = cell.frequencies[UtteranceType.CONDITIONAL]
        if strict:
            add("uncertain_dependent_conditional",
                value >= tol.uncertain_dep_conditional_min, f"{value:.6f}",
                f">= {tol.uncertain_dep_conditional_min}")
        else:
            add("uncertain_dependent_conditional_modal",
                modal(cell, UtteranceType.CONDITIONAL), f"{value:.6f}",
                "strictly modal")

    # -- relation beliefs after "A -> C" ------------------------------------
    beliefs = analyses.beliefs
    lit_pos = _positive_mass(beliefs["literal"])
    prag_pos = _positive_mass(beliefs["pragmatic"])
    prag_neg = _negative_mass(beliefs["pragmatic"])
    prior_pos = _positive_mass(beliefs["prior"])
    if strict:
        low = tol.literal_positive_mass - tol.literal_positive_mass_tol
        high = tol.literal_positive_mass + tol.literal_positive_mass_tol
        add("literal_positive_relation_mass", low <= lit_pos <= high,
            f"{lit_pos:.4f}", f"in [{low}, {high}]")
        add("pragmatic_positive_relation_mass",
            prag_pos >= tol.pragmatic_positive_mass_min, f"{prag_pos:.4f}",
            f">= {tol.pragmatic_positive_mass_min}")
    else:
        add("positive_relation_mass_ordering", prior_pos < lit_pos < prag_pos,
            f"prior={prior_pos:.4f} literal={lit_pos:.4f} pragmatic={prag_pos:.4f}",
            "prior < literal < pragmatic")
    add("pragmatic_negative_relation_mass",
        prag_neg <= tol.pragmatic_negative_mass_max, f"{prag_neg:.6f}",
        f"<= {tol.pragmatic_negative_mass_max}")

    # -- biconditional-strength metrics --------------------------------------
    cp = analyses.cp
    gap = tol.cp_gap_min if strict else 0.0
    for metric in ("not_c_given_not_a", "a_given_c"):
        prior_v = float(getattr(cp["prior"], metric))
        lit_v = float(getattr(cp["literal"], metric))
        prag_v = float(getattr(cp["pragmatic"], metric))
        add(f"cp_{metric}_ordering",
            lit_v - prior_v > gap and prag_v - lit_v > gap,
            f"prior={prior_v:.4f} literal={lit_v:.4f} pragmatic={prag_v:.4f}",
            f"pragmatic > literal > prior by more than {gap}")

    # -- contingency cohorts --------------------------------------------------
    cohorts = analyses.cohorts
    if len(cohorts.best_choice.values) == 0:
        add("delta_p_median_ordering", False, "best-choice cohort is empty",
            "median(best) > median(assertable) > median(prior)")
        low_fraction = 0.0
    else:
        m_prior = cohorts.prior.median()
        m_assert = cohorts.assertable.median()
        m_best = cohorts.best_choice.median()
        add("delta_p_median_ordering", m_best > m_assert > m_prior,
            f"prior={m_prior:.4f} assertable={m_assert:.4f} best={m_best:.4f}",
            "median(best) > median(assertable) > median(prior)")
        low_fraction = float((cohorts.best_choice.values < tol.delta_p_high).mean())
    add("best_choice_low_delta_p",
        low_fraction < tol.best_choice_low_delta_p_max_fraction,
        f"{low_fraction:.6f}",
        f"fraction below {tol.delta_p_high} under {tol.best_choice_low_delta_p_max_fraction}")

    # an argmax choice is assertable, so the best-choice cohort is the set of
    # prior-cohort states whose argmax speaker may say "A -> C"
    prior = cohorts.prior
    large = ~np.isin(prior.indices, cohorts.best_choice.indices) & (
        prior.values >= tol.delta_p_large
    )
    add("large_delta_p_not_best_nonempty", bool(large.any()),
        f"count={int(large.sum())}", "nonempty")

    # exact in floats: at most two literals, one per variable, are ever
    # assertable, so a state's literal argmax mass is 1, 1/2 + 1/2 or below 1
    argmax = engine._speaker_rows(ctx, Argmax())[:, _type_columns(ctx)[UtteranceType.LITERAL]]
    literal_argmax = (argmax.sum(axis=1) == 1.0)[engine._patterns(ctx)[2]]
    ca_dir = np.isin(ctx.relations, [
        RELATION_ORDER.index(CausalStructure.CA_POS),
        RELATION_ORDER.index(CausalStructure.CA_NEG),
    ])
    extreme = (ca_dir & literal_argmax)[prior.indices] & (
        prior.values < tol.delta_p_extreme_negative
    )
    add("extreme_negative_delta_p_exists", bool(extreme.any()),
        f"count={int(extreme.sum())}",
        f"a literal-argmax C-to-A state with value below {tol.delta_p_extreme_negative}")

    # -- conditionals about independent variables (missing links) ------------
    softmax_table = analyses.choice["softmax"]
    argmax_table = analyses.choice["argmax"]
    indep = CausalStructure.INDEPENDENT.value
    cond_soft = softmax_table[indep][UtteranceType.CONDITIONAL]
    cond_arg = argmax_table[indep][UtteranceType.CONDITIONAL]
    if strict:
        add("independent_conditional_mass",
            cond_soft < tol.missing_link_conditional_mass_max,
            f"{cond_soft:.6f}", f"< {tol.missing_link_conditional_mass_max}")
    else:
        others = [
            softmax_table[r.value][UtteranceType.CONDITIONAL]
            for r in RELATION_ORDER
            if r is not CausalStructure.INDEPENDENT and r.value in softmax_table
        ]
        add("independent_conditional_mass_least",
            all(cond_soft < other for other in others),
            f"independent={cond_soft:.6f} min(dependent)={min(others):.6f}",
            "smallest conditional mass of all relation groups")
    # exact in floats: a mean of nonnegative masses is 0 only when all are 0
    add("independent_conditional_mass_argmax", cond_arg == 0.0,
        f"{cond_arg:.8f}", "== 0")

    return checks


def all_passed(checks: Iterable[CheckResult]) -> bool:
    return all(c.passed for c in checks)
