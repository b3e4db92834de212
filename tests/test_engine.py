from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "read",
        [cr.utterance_masses, cr.speaker_matrix, cr.surprise_vector,
         lambda ctx: cr.speaker_matrix(ctx, Argmax())],
    )
    def test_memoised_arrays_are_read_only(self, toy_ctx, small_ctx, read):
        for ctx in (toy_ctx, small_ctx):
            array = read(ctx)
            assert read(ctx) is array
            with pytest.raises(ValueError):
                array[0] = 0

    def test_with_params_gets_a_fresh_memo(self, toy_ctx):
        before = cr.speaker_matrix(toy_ctx)
        changed = toy_ctx.with_params(alpha=3)
        after = cr.speaker_matrix(changed)
        assert after is not before
        assert cr.speaker(changed, "s1") != cr.speaker(toy_ctx, "s1")
        assert cr.speaker(changed, "s1") == cr.speaker(toy_ctx, "s1", Softmax(3))
        assert cr.speaker_matrix(toy_ctx) is before


class TestPosterior:
    def test_point_mass_expectation(self, skiing):
        ctx = skiing.to_context()
        post = cr.Posterior(ctx, (1, 0))
        assert cr.expectation(post, ctx.cells[:, 0] + ctx.cells[:, 1]) == F(1, 5)
        assert cr.relation_posterior(post)[CausalStructure.AC_POS] == 1

    def test_surprise_vector_sums_to_one(self, small_ctx):
        total = cr.surprise_vector(small_ctx).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


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
    assert stages == {
        "prior": cr.prior_posterior(ctx),
        "literal": cr.literal_listener(ctx, "A -> C"),
        "pragmatic": cr.pragmatic_listener(ctx, "A -> C", rule),
    }
    read = cr.interpretations(ctx, "A -> C", rule, cr.relation_posterior)
    assert read == {stage: cr.relation_posterior(post) for stage, post in stages.items()}


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
