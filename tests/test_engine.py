from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import condrsa as cr
from condrsa import engine
from condrsa import (
    Argmax,
    CausalStructure,
    ContextError,
    JointTable,
    ScenarioContext,
    Softmax,
    State,
    ZeroSupportError,
    default_utterances,
    parse_utterance,
    query,
)
from condrsa.runner import RunConfig, run
from condrsa.scenario_io import parse_scenario_file
from condrsa.utterances import Conditional, Conjunction, Likely, Literal


# --------------------------------------------------------------------------
# golden values for the three-state party example (alpha=1, theta=9/10)
# --------------------------------------------------------------------------


class TestToyGoldens:
    def test_literal_listener(self, toy_ctx):
        assert cr.literal_listener(toy_ctx, "likely C").weights == (F(1, 3), F(1, 3), F(1, 3))
        assert cr.literal_listener(toy_ctx, "A -> C").weights == (F(1, 2), F(1, 2), 0)
        assert cr.literal_listener(toy_ctx, "C").weights == (1, 0, 0)

    def test_speaker(self, toy_ctx):
        by_name = lambda d: {str(u): p for u, p in d.items()}
        s1 = by_name(cr.speaker(toy_ctx, "s1"))
        assert s1 == {"likely C": F(2, 11), "A -> C": F(3, 11), "C": F(6, 11), "A & C": 0}
        s2 = by_name(cr.speaker(toy_ctx, "s2"))
        assert s2 == {"likely C": F(2, 5), "A -> C": F(3, 5), "C": 0, "A & C": 0}
        s3 = by_name(cr.speaker(toy_ctx, "s3"))
        assert s3 == {"likely C": 1, "A -> C": 0, "C": 0, "A & C": 0}

    def test_pragmatic_listener(self, toy_ctx):
        assert cr.pragmatic_listener(toy_ctx, "A -> C").weights == (F(5, 16), F(11, 16), 0)
        assert cr.pragmatic_listener(toy_ctx, "likely C").weights == (
            F(10, 87), F(22, 87), F(55, 87),
        )
        assert cr.pragmatic_listener(toy_ctx, "C").weights == (1, 0, 0)

    def test_argmax_matches_most_informative(self, toy_ctx):
        assert [str(u) for u in cr.argmax_utterances(toy_ctx, "s1")] == ["C"]
        assert [str(u) for u in cr.argmax_utterances(toy_ctx, "s2")] == ["A -> C"]
        assert [str(u) for u in cr.argmax_utterances(toy_ctx, "s3")] == ["likely C"]
        spk = cr.speaker(toy_ctx, "s2", Argmax())
        assert spk[parse_utterance("A -> C")] == 1

    def test_surprise(self, toy_ctx):
        assert cr.utterance_surprise(toy_ctx, "C") == F(2, 11)
        assert cr.utterance_surprise(toy_ctx, "A & C") == 0
        total = sum(cr.utterance_surprise(toy_ctx, u) for u in toy_ctx.utterances)
        assert total == 1

    def test_zero_support_listener_errors(self, toy_ctx):
        with pytest.raises(ZeroSupportError):
            cr.literal_listener(toy_ctx, "A & C")
        with pytest.raises(ZeroSupportError):
            cr.pragmatic_listener(toy_ctx, "A & C")


class TestSkiingGoldens:
    def test_speaker_table(self, skiing):
        ctx = skiing.to_context()
        dep = cr.speaker(ctx, "dep")
        assert dep[skiing.parse("E -> S")] == 1
        ind = cr.speaker(ctx, "ind")
        assert ind[skiing.parse("E -> S")] == F(1, 5)
        assert ind[skiing.parse("S")] == F(2, 5)
        assert ind[skiing.parse("likely S")] == F(2, 5)

    def test_listeners(self, skiing):
        ctx = skiing.to_context()
        u = skiing.parse("E -> S")
        assert cr.literal_listener(ctx, u).weights == (F(1, 2), F(1, 2))
        assert cr.pragmatic_listener(ctx, u).weights == (F(5, 6), F(1, 6))
        assert cr.literal_listener(ctx, skiing.parse("S")).weights == (0, 1)

    def test_expectation_of_antecedent(self, skiing):
        ctx = skiing.to_context()
        post = cr.pragmatic_listener(ctx, skiing.parse("E -> S"))
        value = cr.expectation(post, ctx.cells[:, 0] + ctx.cells[:, 1])
        assert value == F(1, 5)

    def test_relation_posterior(self, skiing):
        ctx = skiing.to_context()
        post = cr.pragmatic_listener(ctx, skiing.parse("E -> S"))
        marginal = cr.relation_posterior(post)
        assert marginal[CausalStructure.AC_POS] == F(5, 6)
        assert marginal[CausalStructure.INDEPENDENT] == F(1, 6)
        assert marginal[CausalStructure.CA_NEG] == 0


class TestSundownersGoldens:
    def test_low_state_speaker(self, sundowners):
        ctx = sundowners.to_context()
        spk = cr.speaker(ctx, "ind_low", Softmax(3))
        assert spk[sundowners.parse("R -> ~S")] == F(1, 17)
        assert spk[sundowners.parse("~S")] == F(8, 17)

    def test_surprise_value(self, sundowners):
        ctx = sundowners.to_context()
        assert cr.utterance_surprise(ctx, sundowners.parse("R -> ~S")) == F(27, 340)


# --------------------------------------------------------------------------
# rule behaviour
# --------------------------------------------------------------------------


class TestSpeakerRules:
    def test_softmax_zero_is_uniform_over_assertable(self, toy_ctx):
        spk = cr.speaker(toy_ctx, "s1", Softmax(0))
        positive = [p for p in spk.values() if p > 0]
        assert positive == [F(1, 3)] * 3

    def test_softmax_one_proportional_to_listener_mass(self, toy_ctx):
        masses = cr.utterance_masses(toy_ctx)
        spk = cr.speaker(toy_ctx, "s1", Softmax(1))
        ratio = None
        for u, mass in zip(toy_ctx.utterances, masses):
            if spk[u] == 0:
                continue
            value = spk[u] * mass
            ratio = value if ratio is None else ratio
            assert value == ratio

    @pytest.mark.parametrize("scenario", ["toy", "skiing", "garden_party", "sundowners"])
    def test_softmax_converges_to_argmax(self, scenario):
        ctx = cr.builtin(scenario).to_context()
        for i, state in enumerate(ctx.states):
            best = set(cr.argmax_utterances(ctx, i))
            previous = None
            for alpha in (0, 1, 3, 5, 10, 100):
                mass = sum(cr.speaker(ctx, i, Softmax(alpha))[u] for u in best)
                if previous is not None:
                    assert mass >= previous
                previous = mass
            assert previous > F(98, 100) or len(best) == len(
                [u for u in ctx.utterances if cr.speaker(ctx, i, Softmax(0))[u] > 0]
            )

    def test_softmax_converges_on_sampled_context(self, small_ctx):
        # convergence is asymptotic: near-tied masses may hold some share
        # even at alpha=100, but the argmax share never decreases
        first = matrix_prev = None
        support = cr.speaker_matrix(small_ctx, Argmax()) > 0
        for alpha in (1.0, 3.0, 5.0, 10.0, 100.0):
            soft = cr.speaker_matrix(small_ctx, Softmax(alpha))
            mass = (soft * support).sum(axis=1)
            if matrix_prev is not None:
                assert (mass >= matrix_prev - 1e-12).all()
            else:
                first = mass
            matrix_prev = mass
        assert matrix_prev.mean() > first.mean()
        assert np.median(matrix_prev) > 0.99

    def test_non_integer_alpha_rejected_in_exact_mode(self, toy_ctx):
        with pytest.raises(ContextError, match="integer alpha"):
            cr.speaker(toy_ctx, "s1", Softmax(F(1, 2)))


# --------------------------------------------------------------------------
# structural properties
# --------------------------------------------------------------------------


def exact_context_strategy(max_states=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_states))
        states = []
        for i in range(n):
            cells = draw(
                st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(sum)
            )
            total = sum(cells)
            relation = draw(st.sampled_from(list(CausalStructure)))
            states.append(
                State(JointTable(tuple(F(c, total) for c in cells)), relation, f"s{i}")
            )
        weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        wt = sum(weights)
        alpha = draw(st.integers(0, 3))
        theta = draw(st.fractions(min_value="3/5", max_value=1, max_denominator=10))
        try:
            return ScenarioContext.from_states(
                states=tuple(states),
                weights=tuple(F(w, wt) for w in weights),
                utterances=default_utterances(),
                alpha=alpha,
                theta=theta,
            )
        except ContextError:
            assume(False)

    return build()


def oracle_assertable(u, state, theta):
    table = state.table
    if isinstance(u, Literal):
        return query(table, u.lit.event()) >= theta
    if isinstance(u, Likely):
        return query(table, u.lit.event()) > F(1, 2)
    if isinstance(u, Conjunction):
        return query(table, u.first.event() & u.second.event()) >= theta
    assert isinstance(u, Conditional)
    p_ant = query(table, u.antecedent.event())
    if p_ant == 0:
        return False
    return query(table, u.antecedent.event() & u.consequent.event()) / p_ant >= theta


def oracle_pragmatic(ctx, utt_index):
    """Pragmatic listener by direct enumeration of the defining equations,
    independent of the engine's matrix and cancellation shortcuts."""
    states, weights, utts = ctx.states, ctx.weights, ctx.utterances
    alpha = int(ctx.alpha)

    def literal(i, j):
        if not oracle_assertable(utts[j], states[i], ctx.theta):
            return F(0)
        mass = sum(
            weights[k]
            for k in range(len(states))
            if oracle_assertable(utts[j], states[k], ctx.theta)
        )
        return F(weights[i]) / mass

    def speaker_row(i):
        scores = [literal(i, j) ** alpha if literal(i, j) > 0 else F(0)
                  for j in range(len(utts))]
        total = sum(scores)
        return [s / total for s in scores]

    production = [weights[i] * speaker_row(i)[utt_index] for i in range(len(states))]
    total = sum(production)
    if total == 0:
        return None
    return tuple(p / total for p in production)


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(ctx=exact_context_strategy())
    def test_bayes_consistency_against_enumeration_oracle(self, ctx):
        for j, u in enumerate(ctx.utterances):
            expected = oracle_pragmatic(ctx, j)
            if expected is None:
                with pytest.raises(ZeroSupportError):
                    cr.pragmatic_listener(ctx, u)
                continue
            assert cr.pragmatic_listener(ctx, u).weights == expected

    @settings(max_examples=40, deadline=None)
    @given(ctx=exact_context_strategy())
    def test_distributions_normalize(self, ctx):
        for i in range(ctx.n_states):
            for rule in (Softmax(ctx.alpha), Argmax()):
                assert sum(cr.speaker(ctx, i, rule).values()) == 1
        for u in ctx.utterances:
            try:
                assert sum(cr.literal_listener(ctx, u).weights) == 1
                assert sum(cr.pragmatic_listener(ctx, u).weights) == 1
            except ZeroSupportError:
                pass

    @settings(max_examples=25, deadline=None)
    @given(ctx=exact_context_strategy(max_states=4), scale=st.integers(1, 7))
    def test_prior_scaling_invariance(self, ctx, scale):
        scaled = ScenarioContext.from_unnormalized(
            states=ctx.states,
            weights=tuple(w * scale for w in ctx.weights),
            utterances=ctx.utterances,
            alpha=ctx.alpha,
            theta=ctx.theta,
        )
        for u in ctx.utterances:
            try:
                expected = cr.pragmatic_listener(ctx, u).weights
            except ZeroSupportError:
                continue
            assert cr.pragmatic_listener(scaled, u).weights == expected

    @settings(max_examples=30, deadline=None)
    @given(ctx=exact_context_strategy(max_states=4))
    def test_float_backend_agrees_with_exact(self, ctx):
        float_ctx = ScenarioContext.from_states(
            states=tuple(
                State(JointTable(tuple(float(c) for c in s.table.cells)), s.relation, s.label)
                for s in ctx.states
            ),
            weights=tuple(float(w) for w in ctx.weights),
            utterances=ctx.utterances,
            alpha=float(ctx.alpha),
            theta=float(ctx.theta),
        )
        # float rounding may legitimately flip boundary assertability;
        # only identical supports are comparable
        assume((float_ctx.assertability == ctx.assertability).all())
        for i in range(ctx.n_states):
            exact_row = [float(p) for p in cr.speaker(ctx, i).values()]
            float_row = list(cr.speaker(float_ctx, i).values())
            assert np.allclose(exact_row, float_row, atol=1e-12)
        for u in ctx.utterances:
            try:
                exact_post = [float(w) for w in cr.pragmatic_listener(ctx, u).weights]
            except ZeroSupportError:
                continue
            float_post = list(cr.pragmatic_listener(float_ctx, u).weights)
            assert np.allclose(exact_post, float_post, atol=1e-12)


def zero_weight_state_strategy():
    cells = st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(sum)
    return st.builds(
        lambda c, relation: State(
            JointTable(tuple(F(x, sum(c)) for x in c)), relation, None
        ),
        cells,
        st.sampled_from(list(CausalStructure)),
    )


class TestZeroWeightStates:
    @staticmethod
    def pair_context(weights, theta=F(9, 10)):
        """A state that can assert only what no other state can, next to
        a state that asserts "likely ~A"."""
        return ScenarioContext.from_states(
            states=(
                State(JointTable((1, 0, 0, 0)), label="z"),
                State(JointTable((F(1, 10), F(1, 10), F(1, 10), F(7, 10))), label="p"),
            ),
            weights=weights,
            utterances=default_utterances(),
            alpha=1,
            theta=theta,
        )

    def test_zero_weight_state_leaves_the_pragmatic_listener_defined(self):
        exact = self.pair_context((0, 1))
        as_float = exact.with_params(alpha=1.0, theta=0.9)
        for ctx in (exact, as_float):
            for rule in (Softmax(1), Argmax()):
                with np.errstate(all="raise"):
                    speaker = cr.speaker_matrix(ctx, rule)
                    post = cr.pragmatic_listener(ctx, "likely ~A", rule)
                assert post.weights == (0, 1)
                assert speaker[0].tolist() == [0] * len(ctx.utterances)
                assert sum(speaker[1].tolist()) == 1
                assert cr.surprise_vector(ctx, rule).tolist() == speaker[1].tolist()

    def test_positive_weight_state_without_an_utterance_still_raises(self):
        flat = State(JointTable((F(1, 4),) * 4), label="flat")
        sure = State(JointTable((1, 0, 0, 0)), label="sure")
        with pytest.raises(ContextError, match="flat has no assertable utterance"):
            ScenarioContext.from_states(
                states=(sure, flat), weights=(0, 1),
                utterances=(parse_utterance("C"),), alpha=1, theta=F(9, 10),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        ctx=exact_context_strategy(max_states=4),
        extra=st.lists(zero_weight_state_strategy(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_adding_zero_weight_states_only_adds_zeros(self, ctx, extra, data):
        states, weights = list(ctx.states), list(ctx.weights)
        inserted = []
        for state in extra:
            at = data.draw(st.integers(0, len(states)))
            states.insert(at, state)
            weights.insert(at, 0)
            inserted = [i + (i >= at) for i in inserted] + [at]
        try:
            wider = ScenarioContext.from_states(
                states, weights, ctx.utterances, ctx.alpha, ctx.theta
            )
        except ContextError:  # an added state can assert nothing
            assume(False)
        kept = [i for i in range(len(states)) if i not in inserted]
        for u in ctx.utterances:
            try:
                expected = cr.pragmatic_listener(ctx, u).weights
            except ZeroSupportError:
                with pytest.raises(ZeroSupportError):
                    cr.pragmatic_listener(wider, u)
                continue
            got = cr.pragmatic_listener(wider, u).weights
            assert [got[i] for i in kept] == list(expected)
            assert [got[i] for i in inserted] == [0] * len(inserted)


def dense_oracle(ctx, rule):
    """The whole-context arrays by the dense ``object``-array formulas, every
    cell multiplied, added and divided: the exact engine computes them on the
    support and once per assertability row."""
    prior, assertable = ctx.prior, ctx.assertability
    zero, one = F(0), F(1)

    def bayes(production, totals):
        return production / np.where(totals > 0, totals, 1)

    mass = prior @ assertable
    valid = assertable & (mass > 0)
    if isinstance(rule, Argmax):
        mass_rows = np.where(valid, mass, np.inf)
        best = valid & (mass_rows == mass_rows.min(axis=1, keepdims=True))
        scores = np.where(best, one, zero)
    else:
        power = np.array(
            [(1 / m) ** int(rule.alpha) if m > 0 else zero for m in mass], dtype=object
        )
        scores = np.where(valid, power, zero)
    speaker = bayes(scores, scores.sum(axis=1, keepdims=True))
    surprise = prior @ speaker
    return {
        "utterance_masses": mass,
        "literal_listener_matrix": bayes(prior[:, None] * assertable, mass),
        "speaker_matrix": speaker,
        "surprise_vector": surprise,
        "pragmatic_listener_matrix": bayes(prior[:, None] * speaker, surprise),
    }


class TestSupportOracle:
    RULES = (Softmax(0), Softmax(1), Softmax(3), Argmax())

    @staticmethod
    def same(got, expected):
        """Equal in value, and every cell of ``got`` a Fraction."""
        got, expected = np.asarray(got, dtype=object), np.asarray(expected, dtype=object)
        assert got.shape == expected.shape
        assert got.tolist() == expected.tolist()
        assert all(type(x) is F for x in got.flat)

    @settings(max_examples=60, deadline=None)
    @given(
        ctx=exact_context_strategy(max_states=5),
        extra=st.lists(zero_weight_state_strategy(), min_size=1, max_size=2),
        data=st.data(),
    )
    def test_arrays_equal_the_dense_formulas_in_value_and_type(self, ctx, extra, data):
        states, weights = list(ctx.states), list(ctx.weights)
        for state in extra:
            at = data.draw(st.integers(0, len(states)))
            states.insert(at, state)
            weights.insert(at, 0)
        try:
            ctx = ScenarioContext.from_states(
                states, weights, ctx.utterances, ctx.alpha, ctx.theta
            )
        except ContextError:  # an added state can assert nothing
            assume(False)
        # an utterance that no state asserts
        assume(not ctx.assertability.any(axis=0).all())
        self.check(ctx)

    @pytest.mark.parametrize("weights", [(0, 1), (1, 0), (F(1, 3), F(2, 3))])
    def test_zero_weight_pair_equals_the_dense_formulas(self, weights):
        self.check(TestZeroWeightStates.pair_context(weights))

    def test_file_fixture_equals_the_dense_formulas(self):
        path = Path(__file__).with_name("riverbank_scenario.json")
        self.check(parse_scenario_file(path).to_context())

    def check(self, ctx):
        for rule in self.RULES:
            expected = dense_oracle(ctx, rule)
            got = {
                "utterance_masses": cr.utterance_masses(ctx),
                "literal_listener_matrix": cr.literal_listener_matrix(ctx),
                "speaker_matrix": cr.speaker_matrix(ctx, rule),
                "surprise_vector": cr.surprise_vector(ctx, rule),
                "pragmatic_listener_matrix": cr.pragmatic_listener_matrix(ctx, rule),
            }
            for name, oracle in expected.items():
                self.same(got[name], oracle)
            for j, u in enumerate(ctx.utterances):
                if expected["utterance_masses"][j] > 0:
                    column = expected["literal_listener_matrix"][:, j]
                    self.same(cr.literal_listener(ctx, u).weights, column)
                if expected["surprise_vector"][j] > 0:
                    column = expected["pragmatic_listener_matrix"][:, j]
                    self.same(cr.pragmatic_listener(ctx, u, rule).weights, column)


def dense_float_oracle(ctx, rule):
    """The whole-context arrays by the dense float64 kernels, every state's
    speaker row scored and normalised on its own: the engine scores the
    speaker once per assertability row."""
    prior, assertable = ctx.prior, ctx.assertability

    def bayes(production, totals):
        return production / np.where(totals > 0, totals, 1)

    mass = prior @ assertable
    valid = assertable & (mass > 0)
    if isinstance(rule, Argmax):
        mass_rows = np.where(valid, mass, np.inf)
        best = valid & (mass_rows == mass_rows.min(axis=1, keepdims=True))
        scores = np.where(best, 1.0, 0.0)
    else:
        utility = np.zeros_like(mass)
        np.log(mass, where=mass > 0, out=utility)
        logits = np.where(valid, -float(rule.alpha) * utility[None, :], -np.inf)
        logits -= np.nan_to_num(logits.max(axis=1, keepdims=True), neginf=0.0)
        scores = np.exp(logits, where=np.isfinite(logits), out=np.zeros_like(logits))
    speaker = bayes(scores, scores.sum(axis=1, keepdims=True))
    surprise = prior @ speaker
    return {
        "utterance_masses": mass,
        "literal_listener_matrix": bayes(prior[:, None] * assertable, mass),
        "speaker_matrix": speaker,
        "surprise_vector": surprise,
        "pragmatic_listener_matrix": bayes(prior[:, None] * speaker, surprise),
    }


def as_float(state):
    return State(JointTable(tuple(map(float, state.table.cells))), state.relation, state.label)


class TestFloatOracle:
    RULES = (Softmax(0), Softmax(1), Softmax(2.5), Softmax(3), Argmax())

    @staticmethod
    def same(got, expected):
        """Equal bit for bit, in float64."""
        got = np.asarray(got)
        assert got.dtype == expected.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        ctx=exact_context_strategy(max_states=5),
        extra=st.lists(zero_weight_state_strategy(), min_size=1, max_size=2),
        on_theta_weight=st.integers(0, 3),
        data=st.data(),
    )
    def test_arrays_equal_the_dense_kernels_bit_for_bit(
        self, ctx, extra, on_theta_weight, data
    ):
        theta = float(ctx.theta)
        # P(C) and P(C | A) are exactly theta
        on_theta = State(JointTable((theta, 1 - theta, 0.0, 0.0)), label="on theta")
        states = [as_float(s) for s in ctx.states] + [on_theta]
        weights = [*ctx.weights, F(on_theta_weight, 4)]
        total = sum(weights)
        weights = [float(w / total) for w in weights]
        for state in extra:
            at = data.draw(st.integers(0, len(states)))
            states.insert(at, as_float(state))
            weights.insert(at, 0.0)
        try:
            ctx = ScenarioContext.from_states(
                states, weights, ctx.utterances, float(ctx.alpha), theta
            )
        except ContextError:  # an added state can assert nothing
            assume(False)
        assert not ctx.exact
        self.check(ctx)

    def test_sampled_context_equals_the_dense_kernels(self, small_ctx):
        self.check(small_ctx)

    def check(self, ctx):
        for rule in self.RULES:
            expected = dense_float_oracle(ctx, rule)
            got = {
                "utterance_masses": cr.utterance_masses(ctx),
                "literal_listener_matrix": cr.literal_listener_matrix(ctx),
                "speaker_matrix": cr.speaker_matrix(ctx, rule),
                "surprise_vector": cr.surprise_vector(ctx, rule),
                "pragmatic_listener_matrix": cr.pragmatic_listener_matrix(ctx, rule),
            }
            for name, oracle in expected.items():
                self.same(got[name], oracle)
            # a column read is prior * production / total
            for j, u in enumerate(ctx.utterances):
                if (mass := expected["utterance_masses"][j]) > 0:
                    column = ctx.prior * ctx.assertability[:, j] / mass
                    self.same(cr.literal_listener(ctx, u).weights, column)
                if (total := expected["surprise_vector"][j]) > 0:
                    column = ctx.prior * expected["speaker_matrix"][:, j] / total
                    self.same(cr.pragmatic_listener(ctx, u, rule).weights, column)


class TestPatterns:
    """One grouping of the states by assertability row per context."""

    @staticmethod
    def check(ctx):
        patterns, first, inverse = engine._patterns(ctx)
        assert (patterns[inverse] == ctx.assertability).all()
        # first is each group's first state
        assert (inverse[first] == np.arange(len(first))).all()
        assert (first[inverse] <= np.arange(ctx.n_states)).all()
        expected = np.unique(ctx.assertability, axis=0, return_index=True, return_inverse=True)
        for got, want in zip((patterns, first, inverse), expected):
            assert np.array_equal(got, want.reshape(got.shape))

    @pytest.mark.parametrize("reverse", [True, False])
    def test_sampled_groups_are_those_of_unique_rows(self, reverse):
        utterances = default_utterances(include_reverse_conditionals=reverse)
        ctx = cr.build_default_context(seed=3, n_states=2000, utterances=utterances)
        assert len(ctx.utterances) == (20 if reverse else 16)
        self.check(ctx)

    @settings(max_examples=40, deadline=None)
    @given(ctx=exact_context_strategy(max_states=8))
    def test_exact_groups_are_those_of_unique_rows(self, ctx):
        self.check(ctx)

    @settings(max_examples=200, deadline=None)
    @given(assertability=arrays(bool, st.tuples(st.integers(1, 50), st.integers(1, 40))))
    def test_random_rows_group_as_unique_rows(self, assertability):
        """Up to 40 columns, the grammar's largest distinct utterance set
        over two variables, fit the one-word keys."""
        self.check(SimpleNamespace(
            assertability=assertability, n_states=len(assertability), _memo={},
        ))


class TestTableGrouping:
    def test_duplicate_tables_share_speaker_and_split_listener_mass(self):
        table = JointTable((F(3, 5), F(1, 10), F(1, 5), F(1, 10)))
        ctx = ScenarioContext.from_states(
            states=(
                State(table, CausalStructure.AC_POS, "cause"),
                State(table, CausalStructure.CA_POS, "diagnosis"),
                State(JointTable((F(1, 10), F(2, 5), F(2, 5), F(1, 10))),
                      CausalStructure.INDEPENDENT, "other"),
            ),
            weights=(F(1, 2), F(1, 4), F(1, 4)),
            utterances=default_utterances(),
            alpha=2,
            theta=F(3, 4),
        )
        assert cr.speaker(ctx, "cause") == cr.speaker(ctx, "diagnosis")
        u = parse_utterance("A -> C")
        post = cr.pragmatic_listener(ctx, u)
        w_cause = post.weight("cause")
        w_diag = post.weight("diagnosis")
        assert w_cause == 2 * w_diag  # prior ratio survives identical tables


class TestMemo:
    def test_exact_run_computes_masses_once_and_speaker_once_per_rule(
        self, monkeypatch, tmp_path
    ):
        masses, speakers = [], []

        def spy(calls, compute):
            def wrapper(ctx, *rule):
                calls.append((ctx, *rule))  # holds ctx, so its id stays unique
                return compute(ctx, *rule)
            return wrapper

        def once_each(calls):
            keys = [(id(ctx), *rule) for ctx, *rule in calls]
            return bool(keys) and len(set(keys)) == len(keys)

        monkeypatch.setattr(engine, "_compute_masses", spy(masses, engine._compute_masses))
        monkeypatch.setattr(engine, "_compute_speaker", spy(speakers, engine._compute_speaker))
        run(RunConfig(command="run-scenario", scenario="garden_party", output_dir=tmp_path))
        assert once_each(masses)
        assert once_each(speakers)

    def test_exact_run_groups_once_per_context(self, monkeypatch, tmp_path):
        patterns, calls = engine._patterns, []

        def spy(ctx):
            calls.append((ctx, patterns(ctx)))  # holds ctx, so its id stays unique
            return calls[-1][1]

        monkeypatch.setattr(engine, "_patterns", spy)
        run(RunConfig(command="run-scenario", scenario="garden_party", output_dir=tmp_path))
        grouping = {}
        for ctx, got in calls:
            assert grouping.setdefault(id(ctx), got) is got
            assert len(got) == 3 and not any(array.flags.writeable for array in got)
        assert len(calls) > len(grouping)

    @pytest.mark.parametrize(
        "read",
        [cr.utterance_masses, engine._speaker_rows, cr.surprise_vector,
         lambda ctx: engine._speaker_rows(ctx, Argmax())],
    )
    def test_memoised_arrays_are_read_only(self, toy_ctx, small_ctx, read):
        for ctx in (toy_ctx, small_ctx):
            array = read(ctx)
            assert read(ctx) is array
            with pytest.raises(ValueError):
                array[0] = 0

    def test_with_params_gets_a_fresh_memo(self, toy_ctx):
        before = engine._speaker_rows(toy_ctx)
        changed = toy_ctx.with_params(alpha=3)
        after = engine._speaker_rows(changed)
        assert after is not before
        assert cr.speaker(changed, "s1") != cr.speaker(toy_ctx, "s1")
        assert cr.speaker(changed, "s1") == cr.speaker(toy_ctx, "s1", Softmax(3))
        assert engine._speaker_rows(toy_ctx) is before

    @pytest.mark.parametrize("rule", [None, Argmax(), Softmax(0)])
    def test_speaker_matrix_is_a_new_gather_of_the_pattern_rows(self, toy_ctx, small_ctx, rule):
        for ctx in (toy_ctx, small_ctx):
            inverse = engine._patterns(ctx)[2]
            matrix = cr.speaker_matrix(ctx, rule)
            expected = engine._speaker_rows(ctx, rule)[inverse]
            # on an exact context the bytes are references to the same Fractions
            assert (matrix.dtype, matrix.shape) == (expected.dtype, expected.shape)
            assert matrix.tobytes() == expected.tobytes()
            again = cr.speaker_matrix(ctx, rule)
            assert again is not matrix and not np.shares_memory(again, matrix)

    def test_memo_holds_no_per_state_matrix(self, small_ctx):
        riverbank = parse_scenario_file(Path(__file__).with_name("riverbank_scenario.json"))
        for ctx in (riverbank.to_context(), small_ctx.with_params()):
            cr.analysis.context_analyses(ctx)
            n_patterns = len(engine._patterns(ctx)[1])
            assert n_patterns < ctx.n_states
            arrays = [
                array
                for value in ctx._memo.values()
                for array in (value if isinstance(value, tuple) else (value,))
                if isinstance(array, np.ndarray)
            ]
            assert sum(("speaker", Argmax()) == key for key in ctx._memo) == 1
            assert all(len(array) == n_patterns for array in arrays if array.ndim == 2)


class TestPosterior:
    def test_point_mass_expectation(self, skiing):
        ctx = skiing.to_context()
        post = cr.Posterior(ctx, (1, 0))
        assert cr.expectation(post, ctx.cells[:, 0] + ctx.cells[:, 1]) == F(1, 5)
        assert cr.relation_posterior(post)[CausalStructure.AC_POS] == 1

    def test_surprise_vector_sums_to_one(self, small_ctx):
        total = cr.surprise_vector(small_ctx).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(params=["exact", "float", "sampled"])
def any_ctx(request, toy_ctx, small_ctx):
    return {
        "exact": toy_ctx,
        "float": toy_ctx.with_params(alpha=1.0, theta=0.9),
        "sampled": small_ctx,
    }[request.param]


class TestPosteriorColumn:
    """A posterior is one read-only column in its context's dtype."""

    def test_stages_are_read_only_columns_of_the_engine_arrays(self, any_ctx):
        ctx = any_ctx
        j = ctx.index_of_utterance("A -> C")
        stages = cr.interpretations(ctx, "A -> C")
        expected = {
            "prior": ctx.prior,
            "literal": cr.literal_listener_matrix(ctx)[:, j],
            "pragmatic": cr.pragmatic_listener_matrix(ctx)[:, j],
        }
        for stage, post in stages.items():
            assert post.column.dtype == ctx.prior.dtype
            assert not post.column.flags.writeable
            with pytest.raises(ValueError):
                post.column[0] = 0
            if ctx.exact:
                assert post.column.tolist() == expected[stage].tolist()
                assert list(map(type, post.column)) == list(map(type, expected[stage]))
            else:
                assert post.column.tobytes() == expected[stage].tobytes()
            assert post.weights == tuple(post.column.tolist())

    def test_weight_is_a_python_scalar(self, any_ctx):
        post = cr.literal_listener(any_ctx, "A -> C")
        for i in range(any_ctx.n_states):
            weight = post.weight(i)
            assert weight == post.weights[i]
            assert type(weight) in ((F, int) if any_ctx.exact else (float,))

    @pytest.mark.parametrize("column", [(1,), np.zeros((3, 1)), np.zeros(4)])
    def test_wrong_shape_rejected(self, toy_ctx, column):
        with pytest.raises(ValueError, match="one weight per context state"):
            cr.Posterior(toy_ctx, column)

    def test_callers_array_stays_writable(self, small_ctx):
        weights = np.full(small_ctx.n_states, 1.0 / small_ctx.n_states)
        post = cr.Posterior(small_ctx, weights)
        assert weights.flags.writeable
        weights[0] = 0.0
        assert post.weight(0) == 1.0 / small_ctx.n_states


class TestStateIndex:
    """A state is a `State`, a label, or an int or numpy integer index."""

    def test_int_and_numpy_integer_indices(self, toy_ctx):
        post = cr.prior_posterior(toy_ctx)
        for i, label in enumerate(toy_ctx.labels):
            for index in (i, np.int64(i), np.uint8(i)):
                assert toy_ctx.index_of_state(index) == i
                assert cr.speaker(toy_ctx, index) == cr.speaker(toy_ctx, label)
                assert post.weight(index) == post.weight(label)

    @pytest.mark.parametrize("state", [True, False, np.True_])
    def test_bool_is_not_an_index(self, toy_ctx, state):
        for read in (cr.speaker, lambda ctx, s: cr.prior_posterior(ctx).weight(s)):
            with pytest.raises(TypeError, match="not a bool"):
                read(toy_ctx, state)

    @pytest.mark.parametrize("state", [3, -1, np.int64(3), np.int64(-3)])
    def test_index_outside_the_states_raises(self, toy_ctx, state):
        for read in (cr.speaker, lambda ctx, s: cr.prior_posterior(ctx).weight(s)):
            with pytest.raises(IndexError, match=r"outside range\(3\)"):
                read(toy_ctx, state)


def relation_posterior_oracle(post):
    """The state-by-state loop `relation_posterior` replaces."""
    zero = F(0) if post.context.exact else 0.0
    out = {r: zero for r in CausalStructure}
    for w, s in zip(post.weights, post.context.states):
        out[s.relation] = out[s.relation] + w
    return out


def listener_posteriors(ctx, utterance):
    yield cr.prior_posterior(ctx)
    for listener in (cr.literal_listener, cr.pragmatic_listener):
        try:
            yield listener(ctx, utterance)
        except (ZeroSupportError, ContextError):  # listener undefined
            pass


class TestRelationPosterior:
    @pytest.fixture(scope="class")
    def sampled_2000(self):
        return cr.build_default_context(seed=3, n_states=2000)

    def test_sampled_matches_state_loop_bit_for_bit(self, sampled_2000):
        posts = list(listener_posteriors(sampled_2000, "A -> C"))
        assert len(posts) == 3
        for post in posts:
            got = cr.relation_posterior(post)
            expected = relation_posterior_oracle(post)
            assert list(got) == list(expected)
            assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]
            assert all(type(v) is float for v in got.values())

    @settings(max_examples=40, deadline=None)
    @given(ctx=exact_context_strategy(), j=st.integers(0, 19))
    def test_exact_matches_state_loop_in_value_and_type(self, ctx, j):
        posts = [*listener_posteriors(ctx, ctx.utterances[j]),
                 cr.Posterior(ctx, (1,) + (0,) * (ctx.n_states - 1))]
        for post in posts:
            got = cr.relation_posterior(post)
            expected = relation_posterior_oracle(post)
            assert list(got.items()) == list(expected.items())
            assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]


#: float64 values for grouped sums: zeros, subnormals, and magnitudes from
#: 1e-300 to 1e300 side by side; no -0.0: no weight or mass is negative
#: zero, and a sum that starts at +0.0 turns a lone -0.0 into +0.0
SUMMANDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300]),
    st.floats(-1e300, 1e300, allow_subnormal=True),
).map(lambda x: x + 0.0)


@st.composite
def grouped_values(draw, exact=False):
    """Values with one row per state of a context (1-D, or 2-D with up to
    four columns), a key per state and a number of groups, some of them
    empty; as in the support of a posterior, there may be no rows."""
    n_states = draw(st.integers(0, 40))
    n_groups = draw(st.integers(1, 6))
    key = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=n_states,
                                 max_size=n_states)), dtype=draw(st.sampled_from([np.int8, np.int64])))
    shape = (n_states,) if draw(st.booleans()) else (n_states, draw(st.integers(1, 4)))
    if exact:
        elements = st.fractions(-3, 3, max_denominator=50) | st.integers(-2, 2)
        cells = draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        values = np.empty(int(np.prod(shape)), dtype=object)
        values[:] = cells
        return values.reshape(shape), key, n_groups
    return draw(arrays(np.float64, shape, elements=SUMMANDS)), key, n_groups


class TestGroupSums:
    """`engine._group_sums` adds each group's rows in state order: its float
    sums are those of a state-by-state loop, bit for bit, and its exact sums
    are exact Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(case=grouped_values())
    def test_float_sums_add_in_state_order(self, case):
        values, key, n = case
        got = engine._group_sums(values, key, n)
        assert got.shape == (n, *values.shape[1:]) and got.dtype == np.float64
        loop = [np.zeros(values.shape[1:]) for _ in range(n)]
        for k, row in zip(key.tolist(), values):
            loop[k] = loop[k] + row
        assert got.tobytes() == np.array(loop).reshape(got.shape).tobytes()
        if values.ndim == 2 and values.shape[1] > 1:
            # the masked mean's sum: an axis-0 reduction over two or more
            # columns adds rows in order (a 1-D sum is pairwise)
            masked = np.array([values[key == k].sum(axis=0) for k in range(n)])
            assert got.tobytes() == masked.reshape(got.shape).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=grouped_values(exact=True))
    def test_exact_sums(self, case):
        values, key, n = case
        got = engine._group_sums(values, key, n)
        assert got.shape == (n, *values.shape[1:]) and got.dtype == object
        for k in range(n):
            assert np.all(got[k] == values[key == k].sum(axis=0))
        assert {type(v) for v in got.flat} <= {F}


def certain_float_context(n_states):
    """A float context of ``n_states`` identical states, each certain of A."""
    return ScenarioContext(
        cells=np.tile([1.0, 0.0, 0.0, 0.0], (n_states, 1)),
        prior=np.full(n_states, 1 / n_states), relations=[0] * n_states,
        utterances=default_utterances(), alpha=1.0, theta=0.9,
    )


class TestExpectation:
    """`expectation` adds weight times value over the posterior's support in
    state order, in the context's arithmetic; a state of zero weight adds
    nothing."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_float_expectation_is_a_state_order_loop(self, data):
        n = data.draw(st.integers(1, 40))
        weights = data.draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0, 1, allow_subnormal=True),
            min_size=n, max_size=n,
        ))
        values = data.draw(st.lists(SUMMANDS, min_size=n, max_size=n))
        # values may be a list, one per state
        got = cr.expectation(engine.Posterior(certain_float_context(n), weights), values)
        loop = 0.0
        for w, v in zip(weights, values):
            if w != 0:
                loop = loop + w * v
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(loop).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_zero_weight_state_adds_nothing(self, bad):
        post = engine.Posterior(certain_float_context(3), [0.25, 0.0, 0.75])
        assert cr.expectation(post, np.array([2.0, bad, 4.0])) == 3.5

    def test_exact_expectation_is_an_exact_fraction(self, toy_ctx):
        post = cr.pragmatic_listener(toy_ctx, "A -> C")
        assert post.weights == (F(5, 16), F(11, 16), 0)
        values = toy_ctx.cells[:, 0]
        got = cr.expectation(post, values)
        assert type(got) is F
        assert got == sum(w * v for w, v in zip(post.weights, values.tolist()))
        # the zero-weight state's value is never read
        assert cr.expectation(post, np.array([*values[:2], None], dtype=object)) == got


def test_a_float_alpha_that_overflows_the_softmax_is_rejected():
    ctx = cr.build_default_context(seed=1, n_states=2000)
    with pytest.raises(ContextError) as error:
        cr.speaker_matrix(ctx, Softmax(1e308))
    assert str(error.value) == (
        "alpha 1e+308 overflows the float soft-max; use a smaller alpha "
        "(at 1e300 it is already the argmax), or Argmax from the Python API"
    )
    # -alpha * log(mass) is still finite at 1e300, and the soft-max there
    # is already the argmax limit
    huge = cr.speaker_matrix(ctx, Softmax(1e300))
    assert huge.tobytes() == cr.speaker_matrix(ctx, Argmax()).tobytes()


def test_negative_softmax_alpha_rejected():
    with pytest.raises(ValueError):
        Softmax(-1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_softmax_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Softmax(alpha)


@pytest.mark.parametrize("alpha", [F(3), 3.0])
def test_integral_softmax_alpha_runs_exactly(toy_ctx, alpha):
    # a fresh memo: Softmax(alpha) == Softmax(3), so it would share an entry
    got = cr.speaker_matrix(toy_ctx.with_params(), Softmax(alpha)).tolist()
    assert got == cr.speaker_matrix(toy_ctx, Softmax(3)).tolist()
    assert all(type(p) is F for row in got for p in row)


def test_bool_softmax_alpha_rejected_in_exact_mode(toy_ctx):
    with pytest.raises(ContextError, match="integer alpha"):
        cr.speaker_matrix(toy_ctx.with_params(), Softmax(True))


@pytest.mark.parametrize("fixture", ["toy_ctx", "small_ctx"])
def test_bool_softmax_alpha_rejected_after_softmax_one(request, fixture):
    # Softmax(True) == Softmax(1): a memoised Softmax(1) matrix must not
    # let the bool through
    ctx = request.getfixturevalue(fixture).with_params()
    cr.speaker_matrix(ctx, Softmax(1))
    for alpha in (True, False, np.True_):
        with pytest.raises(ContextError, match="integer alpha"):
            cr.speaker_matrix(ctx, Softmax(alpha))


@pytest.mark.parametrize("rule", [None, Argmax(), Softmax(0)])
@pytest.mark.parametrize("fixture", ["toy_ctx", "small_ctx"])
def test_interpretations_are_the_three_stages(request, fixture, rule):
    ctx = request.getfixturevalue(fixture)
    stages = cr.interpretations(ctx, "A -> C", rule)
    assert {stage: post.weights for stage, post in stages.items()} == {
        "prior": cr.prior_posterior(ctx).weights,
        "literal": cr.literal_listener(ctx, "A -> C").weights,
        "pragmatic": cr.pragmatic_listener(ctx, "A -> C", rule).weights,
    }
    assert cr.relation_beliefs(ctx, "A -> C", rule) == {
        stage: cr.relation_posterior(post) for stage, post in stages.items()
    }


@pytest.mark.parametrize("name", ["toy", "skiing", "garden_party", "sundowners"])
def test_float_backend_reproduces_builtin_values(name):
    defn = cr.builtin(name)
    exact_ctx = defn.to_context()
    float_ctx = exact_ctx.with_params(alpha=float(defn.alpha), theta=float(defn.theta))
    assert (exact_ctx.assertability == float_ctx.assertability).all()
    exact_speaker = np.array([
        [float(p) for p in cr.speaker(exact_ctx, i).values()]
        for i in range(exact_ctx.n_states)
    ])
    assert np.allclose(cr.speaker_matrix(float_ctx), exact_speaker, atol=1e-12)
    for u in exact_ctx.utterances:
        try:
            exact_post = [float(w) for w in cr.pragmatic_listener(exact_ctx, u).weights]
        except ZeroSupportError:
            with pytest.raises(ZeroSupportError):
                cr.pragmatic_listener(float_ctx, u)
            continue
        float_post = list(cr.pragmatic_listener(float_ctx, u).weights)
        assert np.allclose(exact_post, float_post, atol=1e-12)
        exact_surprise = float(cr.utterance_surprise(exact_ctx, u))
        assert cr.utterance_surprise(float_ctx, u) == pytest.approx(exact_surprise, abs=1e-12)
