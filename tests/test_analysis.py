from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import condrsa as cr
from condrsa import (
    CausalStructure,
    CertaintyCell,
    CertaintyClass,
    ContingencyUndefinedError,
    JointTable,
    ScenarioContext,
    State,
    ZeroProbabilityEventError,
    classify_certainty,
    default_utterances,
    delta_p_star,
    joint_from_marginals,
    parse_utterance,
    query,
)
from condrsa import analysis, engine
from condrsa.analysis import certainty_cell_array
from condrsa.core import RELATION_NAMES, RELATION_ORDER
from condrsa.engine import Argmax, Softmax
from condrsa.runner import RunConfig, default_context_bundle, run, sweep_bundles
from condrsa.scenario_io import parse_scenario_file


def istate(pa, pc, label=None):
    return State(joint_from_marginals(pa, pc), CausalStructure.INDEPENDENT, label)


def cp_metrics_oracle(post):
    """State-by-state `cp_metrics` in the posterior's own arithmetic."""

    def conditional_expectation(event, given):
        total = value = excluded = 0
        for w, s in zip(post.weights, post.context.states):
            if query(s.table, given) == 0:
                excluded = excluded + w
                continue
            total = total + w
            value = value + w * query(s.table, event, given)
        if total == 0:
            raise ZeroProbabilityEventError("no supported state")
        return value / total, excluded

    ncna, excl_a = conditional_expectation(~cr.C, ~cr.A)
    ac, excl_c = conditional_expectation(cr.A, cr.C)
    return (ncna, ac, excl_a, excl_c)


@st.composite
def exact_tables(draw):
    """Rational tables, often with P(a) or P(c) equal to 0 or 1, so that a
    conditioning event has probability zero; zero cells are sometimes the
    integer 0, as a scenario file may write them."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(sum))
        cells = [F(x, sum(parts)) for x in parts]
    else:
        # the two cells of a literal's complement (~A, A, ~C, C) are zero
        zero = draw(st.sampled_from([(0, 1), (2, 3), (0, 2), (1, 3)]))
        p = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        rest = iter((p, 1 - p))
        cells = [F(0) if i in zero else next(rest) for i in range(4)]
    if draw(st.booleans()):
        cells = [0 if c == 0 else c for c in cells]
    return tuple(cells)


class TestCertainty:
    def test_above_threshold_is_certain(self):
        s = istate(0.95, 0.5)
        assert classify_certainty(s, 0.9, cr.A) is CertaintyClass.CERTAIN

    def test_interior_is_uncertain(self):
        s = istate(0.5, 0.5)
        assert classify_certainty(s, 0.9, cr.A) is CertaintyClass.UNCERTAIN

    def test_certainly_false_is_certain(self):
        s = istate(0.04, 0.5)
        assert classify_certainty(s, 0.9, cr.A) is CertaintyClass.CERTAIN

    def test_boundary_is_uncertain(self):
        s = istate(F(9, 10), F(1, 2))
        assert classify_certainty(s, F(9, 10), cr.A) is CertaintyClass.UNCERTAIN

    def test_conditional_event(self):
        s = State(JointTable((F(3, 5), F(1, 10), F(1, 5), F(1, 10))))
        assert classify_certainty(s, F(4, 5), cr.C, given=cr.A) is CertaintyClass.CERTAIN

    def test_cells_partition_context(self, default_ctx):
        cells = certainty_cell_array(default_ctx)
        assert cells.shape == (default_ctx.n_states,)
        assert set(np.unique(cells)) <= {0, 1, 2}


class TestBestUtteranceFrequencies:
    def test_frequencies_sum_to_one(self, default_ctx):
        table = cr.best_utterance_frequencies(default_ctx)
        assert table
        for cell in table.values():
            assert sum(cell.frequencies.values()) == pytest.approx(1.0)
            assert cell.count > 0

    def test_empty_cells_absent(self):
        # a single certain-both state: no uncertain or mixed rows at all
        ctx = ScenarioContext.from_states(
            states=(istate(F(99, 100), F(99, 100), "sure"),),
            weights=(1,),
            utterances=default_utterances(),
            alpha=1,
            theta=F(9, 10),
        )
        table = cr.best_utterance_frequencies(ctx, group_by="none")
        assert list(table) == [(CertaintyCell.CERTAIN_BOTH, "all")]

    def test_fractional_ties(self):
        # P(a)=P(c)=0.95 independent: the two literals tie (equal mass), the
        # conjunction has mass 0.9025 < theta... make conjunction assertable
        ctx = ScenarioContext.from_states(
            states=(istate(F(99, 100), F(99, 100), "sure"),),
            weights=(1,),
            utterances=(parse_utterance("A"), parse_utterance("C")),
            alpha=1,
            theta=F(9, 10),
        )
        cell = cr.best_utterance_frequencies(ctx, group_by="none")[
            (CertaintyCell.CERTAIN_BOTH, "all")
        ]
        assert cell.frequencies[cr.UtteranceType.LITERAL] == 1.0

    def test_group_by_relation(self, default_ctx):
        table = cr.best_utterance_frequencies(default_ctx, group_by="relation")
        groups = {g for _, g in table}
        assert "independent" in groups and "AC_pos" in groups

    def test_unknown_grouping(self, default_ctx):
        with pytest.raises(ValueError):
            cr.best_utterance_frequencies(default_ctx, group_by="colour")


class TestDeltaPStar:
    def test_perfect_dependence(self, skiing):
        dep = skiing.states[0]
        assert delta_p_star(dep.table) == 1

    def test_independent_table_is_zero(self):
        assert delta_p_star(joint_from_marginals(F(1, 3), F(2, 3))) == 0

    def test_undefined_antecedent(self):
        with pytest.raises(ZeroProbabilityEventError):
            delta_p_star(joint_from_marginals(0, F(1, 2)))
        with pytest.raises(ZeroProbabilityEventError):
            delta_p_star(joint_from_marginals(1, F(1, 2)))

    def test_saturated_baseline(self):
        table = JointTable((F(1, 4), F(1, 4), F(1, 2), 0))  # P(c|~a) = 1
        with pytest.raises(ContingencyUndefinedError):
            delta_p_star(table)

    def test_matches_noisy_or_causal_power(self):
        tau, beta = F(7, 10), F(1, 5)
        table = cr.joint_from_noisy_or(CausalStructure.AC_POS, F(2, 5), tau, beta)
        assert delta_p_star(table) == tau


class TestDeltaPCohorts:
    def test_nesting(self, default_ctx):
        cohorts = cr.delta_p_cohorts(default_ctx)
        prior = set(cohorts.prior.indices.tolist())
        assertable = set(cohorts.assertable.indices.tolist())
        best = set(cohorts.best_choice.indices.tolist())
        assert best <= assertable <= prior
        assert cohorts.undefined_count == default_ctx.n_states - len(prior)
        assert len(best) > 0

    def test_values_match_scalar_function(self, default_ctx):
        cohorts = cr.delta_p_cohorts(default_ctx)
        for idx, value in list(zip(cohorts.assertable.indices, cohorts.assertable.values))[:25]:
            table = default_ctx.states[int(idx)].table
            assert delta_p_star(table) == pytest.approx(value)


class TestCPMetrics:
    def test_point_mass_on_deterministic_table(self, skiing):
        ctx = skiing.to_context()
        post = cr.Posterior(ctx, (1, 0))
        metrics = cr.cp_metrics(post)
        assert metrics.values == (1, 1)
        assert metrics.excluded_mass_not_a == 0

    def test_excluded_mass_reported(self):
        ctx = ScenarioContext.from_states(
            states=(istate(1, F(95, 100), "all_a"), istate(F(1, 2), F(95, 100), "half")),
            weights=(F(1, 4), F(3, 4)),
            utterances=default_utterances(),
            alpha=1,
            theta=F(9, 10),
        )
        metrics = cr.cp_metrics(cr.prior_posterior(ctx))
        assert metrics.excluded_mass_not_a == F(1, 4)  # P(~a) = 0 in "all_a"
        assert metrics.excluded_mass_c == 0
        assert metrics.not_c_given_not_a == F(5, 100)

    def test_whole_support_excluded_raises(self):
        ctx = ScenarioContext.from_states(
            states=(istate(1, F(95, 100)),),  # P(~a) = 0
            weights=(1,),
            utterances=default_utterances(),
            alpha=1,
            theta=F(9, 10),
        )
        with pytest.raises(ZeroProbabilityEventError):
            cr.cp_metrics(cr.prior_posterior(ctx))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_matches_scalar_oracle(self, data):
        tables = data.draw(st.lists(exact_tables(), min_size=1, max_size=5))
        weights = data.draw(st.lists(
            st.integers(0, 4), min_size=len(tables), max_size=len(tables)
        ).filter(sum))
        utterances = default_utterances()
        try:
            ctx = ScenarioContext.from_states(
                states=tuple(State(JointTable(cells)) for cells in tables),
                weights=tuple(F(w, sum(weights)) for w in weights),
                utterances=utterances,
                alpha=data.draw(st.integers(1, 3)),
                theta=F(9, 10),
            )
        except cr.ContextError:  # some state can assert nothing
            assume(False)
        u = data.draw(st.sampled_from(utterances))
        listeners = (
            lambda: cr.prior_posterior(ctx),
            lambda: cr.literal_listener(ctx, u),
            lambda: cr.pragmatic_listener(ctx, u),
        )
        for listener in listeners:
            try:
                post = listener()
            except (cr.ZeroSupportError, cr.ContextError):  # speaker undefined
                continue
            try:
                expected = cp_metrics_oracle(post)
            except ZeroProbabilityEventError:
                with pytest.raises(ZeroProbabilityEventError):
                    cr.cp_metrics(post)
                continue
            m = cr.cp_metrics(post)
            got = (m.not_c_given_not_a, m.a_given_c,
                   m.excluded_mass_not_a, m.excluded_mass_c)
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]
            assert all(isinstance(v, (int, F)) for v in got)

    def test_float_and_exact_paths_agree(self, skiing):
        exact_ctx = skiing.to_context()
        float_ctx = exact_ctx.with_params(
            alpha=float(skiing.alpha), theta=float(skiing.theta)
        )
        u = skiing.parse("E -> S")
        exact = cr.cp_metrics(cr.pragmatic_listener(exact_ctx, u))
        approx = cr.cp_metrics(cr.pragmatic_listener(float_ctx, u))
        assert float(exact.not_c_given_not_a) == pytest.approx(approx.not_c_given_not_a)
        assert float(exact.a_given_c) == pytest.approx(approx.a_given_c)


class TestExpectedChoice:
    def test_rows_sum_to_one(self, default_ctx):
        for rule in (None, Argmax(), Softmax(1.0)):
            table = cr.expected_choice_probabilities(default_ctx, rule)
            for group, masses in table.items():
                assert sum(masses.values()) == pytest.approx(1.0)

    def test_relation_grouping_covers_sample(self, default_ctx):
        table = cr.expected_choice_probabilities(default_ctx)
        assert set(table) == {r.value for r in CausalStructure}


class TestRelationBeliefs:
    def test_exact_skiing_values(self, skiing):
        ctx = skiing.to_context()
        beliefs = cr.relation_beliefs(ctx, skiing.parse("E -> S"))
        assert beliefs["prior"][CausalStructure.AC_POS] == F(1, 2)
        assert beliefs["literal"][CausalStructure.AC_POS] == F(1, 2)
        assert beliefs["pragmatic"][CausalStructure.AC_POS] == F(5, 6)


def _masked_groups(ctx, group_by):
    """Each relation group's label and state mask in order of first
    appearance, as the group-by-group analyses built them."""
    relations = ctx.relations
    codes, labels = {
        "relation": (relations, RELATION_NAMES),
        "independence": ((relations != 0).view(np.int8), ("independent", "dependent")),
        "none": (np.zeros(ctx.n_states, np.int8), ("all",)),
    }[group_by]
    _, firsts = np.unique(codes, return_index=True)
    return [(labels[codes[i]], codes == codes[i]) for i in sorted(firsts)]


def masked_analyses(ctx):
    """The grouped fields of `context_analyses` by the masked formulas that
    the grouped running sums replaced: a mean over each group's gathered
    rows, and a running sum over each relation's masked weights."""
    zero = F(0) if ctx.exact else 0.0
    beliefs = {
        stage: {
            relation: sum(np.cumsum(post.column[ctx.relations == code])[-1:].tolist(), zero)
            for code, relation in enumerate(RELATION_ORDER)
        }
        for stage, post in engine.interpretations(ctx, analysis.A_IMPLIES_C).items()
    }
    argmax_mass = analysis._type_mass_matrix(ctx, Argmax())
    cells = certainty_cell_array(ctx)
    frequencies = {}
    for group_by in ("independence", "none"):
        table = frequencies[group_by] = {}
        for ci, cell in enumerate(CertaintyCell):
            for group, in_group in _masked_groups(ctx, group_by):
                mask = (cells == ci) & in_group
                if not mask.any():
                    continue
                masses = argmax_mass[mask]
                table[(cell, group)] = analysis.FrequencyCell(
                    count=int(mask.sum()),
                    frequencies={t: float(m) for t, m in zip(cr.UtteranceType, masses.mean(axis=0))},
                    positive=dict(zip(cr.UtteranceType, (masses > 0).sum(axis=0).tolist())),
                )
    choice = {}
    for name, rule in (("softmax", Softmax(ctx.alpha)), ("argmax", Argmax())):
        type_mass = analysis._type_mass_matrix(ctx, rule)
        choice[name] = {
            group: {t: float(m) for t, m in zip(cr.UtteranceType, type_mass[in_group].mean(axis=0))}
            for group, in_group in _masked_groups(ctx, "relation")
        }
    return frequencies, beliefs, choice


class TestContextAnalysesReference:
    """`context_analyses` sums each group in one ordered pass; its fields
    equal those of the masked group-by-group formulas, float bits and key
    order included."""

    @staticmethod
    def assert_matches_masked(ctx):
        got = analysis.context_analyses(ctx)
        frequencies, beliefs, choice = masked_analyses(ctx)
        assert got.frequencies == frequencies
        assert [list(table) for table in got.frequencies.values()] == [
            list(table) for table in frequencies.values()
        ]
        assert got.beliefs == beliefs
        assert got.choice == choice
        assert [list(table) for table in got.choice.values()] == [
            list(table) for table in choice.values()
        ]
        for table in (got.beliefs, beliefs):
            kinds = {type(v) for masses in table.values() for v in masses.values()}
            assert kinds == ({F} if ctx.exact else {float})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampled(self, seed):
        self.assert_matches_masked(cr.build_default_context(seed=seed, n_states=2000))

    def test_exact(self):
        path = Path(__file__).with_name("riverbank_scenario.json")
        ctx = parse_scenario_file(path).to_context()
        assert ctx.exact
        self.assert_matches_masked(ctx)

    def test_relation_grouping(self, small_ctx):
        ctx = small_ctx.with_params()
        argmax_mass = analysis._type_mass_matrix(ctx, Argmax())
        cells = certainty_cell_array(ctx)
        expected = {}
        for ci, cell in enumerate(CertaintyCell):
            for group, in_group in _masked_groups(ctx, "relation"):
                mask = (cells == ci) & in_group
                if mask.any():
                    expected[(cell, group)] = dict(
                        zip(cr.UtteranceType, argmax_mass[mask].mean(axis=0).tolist())
                    )
        got = cr.best_utterance_frequencies(ctx, group_by="relation")
        assert {key: freq.frequencies for key, freq in got.items()} == expected
        assert list(got) == list(expected)

    def test_bundle_computes_marginals_once(self, small_ctx, monkeypatch):
        """A default-context bundle reads the A and C marginals of its
        context from one memoised pair of columns."""
        calls = []
        original = analysis.event_column

        def counted(cells, event):
            calls.append(event)
            return original(cells, event)

        monkeypatch.setattr(analysis, "event_column", counted)
        ctx = small_ctx.with_params()
        config = RunConfig("run-default-context", seed=7, n_states=ctx.n_states)
        default_context_bundle(ctx, config)
        default_context_bundle(ctx, config, check_level="qualitative")
        assert calls == [cr.A, cr.C]
        marginals = analysis.marginal_arrays(ctx)
        assert all(m.ndim == 1 and not m.flags.writeable for m in marginals)
        cells = certainty_cell_array(ctx)
        assert cells.ndim == 1 and not cells.flags.writeable


class TestCheckSuite:
    def test_unique_names_and_levels(self, default_ctx):
        for level in ("strict", "qualitative"):
            checks = cr.default_context_checks(default_ctx, level)
            names = [c.name for c in checks]
            assert len(names) == len(set(names))
            assert all(isinstance(c.passed, bool) for c in checks)
            # each verdict is the sign of the check's margin
            for c in checks:
                assert isinstance(c.margin, float)
                assert c.passed == (c.margin > 0 or (c.inclusive and c.margin == 0))
        margins = {c.name: c.margin for c in cr.default_context_checks(default_ctx)}
        for name, margin in (
            ("uncertain_dependent_conditional", 0.0177),  # 0.9677 against >= 0.95
            ("independent_conditional_mass", 0.0119),     # 0.0381 against < 0.05
            ("mixed_literal", 0.0100),                    # 1.0 against >= 0.99
            ("delta_p_median_ordering", -0.0185),         # best 0.9283 < assertable 0.9468
        ):
            assert margins[name] == pytest.approx(margin, abs=5e-5)

    # (command, seed, states, grid) of runs whose sample lacks a relation group
    @pytest.mark.parametrize("command, seed, n_states, grid", [
        ("run-default-context", 3, 1, None),  # one dependent state
        ("sweep", 11, 2, None),               # two dependent states
        ("sweep", 3, 1, None),
        ("sweep", 20, 1, ((3.0,), (0.9,))),   # one independent state
    ])
    def test_checks_without_data_are_left_out(self, default_ctx, command, seed, n_states, grid):
        """A check whose certainty cell or relation group holds no state is
        left out of the checks table; every other check is there."""
        cells = {
            "certain_both_conjunction_or_literal": ("none", (CertaintyCell.CERTAIN_BOTH, "all")),
            "mixed_literal": ("none", (CertaintyCell.MIXED, "all")),
            "uncertain_independent_likely":
                ("independence", (CertaintyCell.UNCERTAIN_BOTH, "independent")),
            "uncertain_dependent_conditional":
                ("independence", (CertaintyCell.UNCERTAIN_BOTH, "dependent")),
        }

        def has_data(name: str, analyses: analysis.ContextAnalyses) -> bool:
            groups = analyses.choice["softmax"]
            if name.startswith("independent_conditional_mass"):
                return "independent" in groups and (not name.endswith("_least") or len(groups) > 1)
            grouping, key = cells.get(name.removesuffix("_modal"), ("none", None))
            return key is None or key in analyses.frequencies[grouping]

        config = RunConfig(command, seed=seed, n_states=n_states, grid=grid)
        if command == "sweep":
            level, bundles = "qualitative", sweep_bundles(config)[1]
        else:
            level, bundles = "strict", {(config.alpha, config.theta): run(config)}
        every = [c.name for c in cr.default_context_checks(default_ctx, level)]
        left_out = set()
        for (alpha, theta), bundle in bundles.items():
            ctx = cr.build_default_context(seed, n_states).with_params(alpha, theta)
            kept = [name for name in every if has_data(name, analysis.context_analyses(ctx))]
            assert list(bundle.tables["checks"].data[0]) == kept
            left_out |= set(every) - set(kept)
        assert any(name.startswith("independent_conditional_mass") for name in left_out)

    def test_unknown_level_rejected(self, default_ctx):
        with pytest.raises(ValueError):
            cr.default_context_checks(default_ctx, "vibes")

    def test_checks_gather_no_speaker_matrix(self, small_ctx, monkeypatch):
        """The analyses and checks read the speaker's pattern rows: a
        per-state speaker matrix would hold (states x utterances) floats."""

        def refuse(*args):
            raise AssertionError("engine.speaker_matrix was called")

        monkeypatch.setattr(cr.engine, "speaker_matrix", refuse)
        for level in ("strict", "qualitative"):
            cr.default_context_checks(small_ctx.with_params(), level)

    def test_one_claims_count_states_not_float_sums(self, small_ctx, monkeypatch):
        """The "== 1.0" checks pass when no state of their cell gives argmax
        mass to another utterance type, whatever the float means add up to."""
        # two certain-both states whose argmax rows give the conjunction and
        # the literals (0, 1) and (1/3, 2/3): each row sums to 1, but the
        # two means add up to 0.9999999999999999
        certainty = certainty_cell_array(small_ctx)
        certain = np.flatnonzero(certainty == list(CertaintyCell).index(CertaintyCell.CERTAIN_BOTH))
        keep = np.flatnonzero(certainty != certainty[certain[0]])
        keep = np.sort(np.concatenate([certain[:2], keep]))
        ctx = ScenarioContext(
            cells=small_ctx.cells[keep], prior=np.full(len(keep), 1 / len(keep)),
            relations=small_ctx.relations[keep], utterances=small_ctx.utterances,
            alpha=small_ctx.alpha, theta=small_ctx.theta,
        )
        a, c, a_and_c, a_to_c = (
            ctx.index_of_utterance(u) for u in ("A", "C", "A & C", "A -> C")
        )
        inverse = cr.engine._patterns(ctx)[2]
        first, second = inverse[np.searchsorted(keep, certain[:2])]
        rows = cr.engine._speaker_rows(ctx, Argmax()).copy()
        rows[[first, second]] = 0.0
        rows[first, a] = 1.0
        rows[second, [a, c, a_and_c]] = 1 / 3
        original = cr.engine._speaker_rows

        def patched(context, rule=None):
            return rows if isinstance(rule, Argmax) else original(context, rule)

        monkeypatch.setattr(cr.engine, "_speaker_rows", patched)
        frequencies = cr.best_utterance_frequencies(ctx, group_by="none")
        cell = frequencies[(CertaintyCell.CERTAIN_BOTH, "all")]
        value = sum(cell.frequencies[t] for t in (cr.UtteranceType.CONJUNCTION, cr.UtteranceType.LITERAL))
        assert cell.count == 2 and value == 0.9999999999999999
        checks = {check.name: check for check in cr.default_context_checks(ctx)}
        assert checks["certain_both_conjunction_or_literal"] == cr.CheckResult(
            "certain_both_conjunction_or_literal", True, "1.000000", "== 1.0"
        )

        # a state whose argmax gives mass to another type still fails it
        rows[second, a_to_c] = 1 / 3
        rows[second, a_and_c] = 0.0
        # an uncertain-both independent state with argmax mass off "likely"
        uncertain = (certainty_cell_array(ctx) == list(CertaintyCell).index(
            CertaintyCell.UNCERTAIN_BOTH)) & (ctx.relations == 0)
        rows[inverse[np.flatnonzero(uncertain)[0]], a_to_c] = 1.0
        fresh = ctx.with_params()  # a new context computes its analyses again
        checks = {check.name: check.passed for check in cr.default_context_checks(fresh)}
        assert not checks["certain_both_conjunction_or_literal"]
        assert not checks["uncertain_independent_likely"]
