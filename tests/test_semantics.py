from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import condrsa as cr
from condrsa import (
    CausalStructure,
    ContextError,
    JointTable,
    ScenarioContext,
    State,
    assertable,
    default_utterances,
    joint_from_marginals,
    parse_utterance,
)
from condrsa.analysis import relation_array
from condrsa.core import RELATION_ORDER, integer_rows
from condrsa.semantics import bool_matrix_exact

THETA = F(9, 10)


def state(cells, relation=CausalStructure.INDEPENDENT, label=None):
    return State(JointTable(cells), relation, label)


def cell_array(states):
    """The states' own cells as an (n, 4) ``object`` array."""
    return np.array([s.table.cells for s in states], dtype=object)


TOY_S1 = state((F(81, 100), F(9, 100), F(9, 100), F(1, 100)), label="s1")
TOY_S2 = state((F(60, 100), F(5, 100), F(5, 100), F(30, 100)), label="s2")
TOY_S3 = state((F(36, 100), F(24, 100), F(24, 100), F(16, 100)), label="s3")


@st.composite
def boundary_tables(draw, theta):
    """Rational tables that favour the boundary cases of `assertable`: a cell
    or a conditional exactly at ``theta``, a literal of probability zero or
    of exactly 1/2, or none of these."""
    unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
    q, r = draw(unit), draw(unit)
    kind = draw(st.sampled_from(["plain", "cell", "conditional", "zero", "half"]))
    if kind == "plain":
        parts = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(sum))
        return tuple(F(x, sum(parts)) for x in parts)
    if kind == "cell":
        cells = [(1 - theta) * x for x in (q * r, q * (1 - r), 1 - q)]
        cells.insert(draw(st.integers(0, 3)), theta)
        return tuple(cells)
    if kind == "conditional":
        p = draw(st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12))
        return (theta * p, (1 - theta) * p, (1 - p) * q, (1 - p) * (1 - q))
    # a literal's two cells (A, ~A, C, ~C) and the other two
    lit = draw(st.sampled_from([(0, 1), (2, 3), (0, 2), (1, 3)]))
    other = tuple(i for i in range(4) if i not in lit)
    cells = [F(0)] * 4
    if kind == "zero":
        cells[other[0]], cells[other[1]] = q, 1 - q
    else:
        cells[lit[0]], cells[lit[1]] = q / 2, (1 - q) / 2
        cells[other[0]], cells[other[1]] = r / 2, (1 - r) / 2
    return tuple(cells)


@st.composite
def exact_tables(draw, theta):
    """`boundary_tables`, some written with Python ints for their integral
    cells, and one-hot tables of ints."""
    kind = draw(st.sampled_from(["fractions", "ints", "one-hot"]))
    if kind == "one-hot":
        cells = [0] * 4
        cells[draw(st.integers(0, 3))] = 1
        return tuple(cells)
    cells = draw(boundary_tables(theta))
    if kind == "ints":
        return tuple(int(c) if c.denominator == 1 else c for c in cells)
    return cells


class TestAssertable:
    def test_conditional_on_boundary_is_assertable(self):
        # P(c|a) = 0.81/0.9 = 0.9 exactly; only exact arithmetic keeps this
        assert assertable(parse_utterance("A -> C"), TOY_S1, THETA)

    def test_conditional_above_threshold(self):
        # P(c|a) = 12/13
        assert assertable(parse_utterance("A -> C"), TOY_S2, THETA)

    def test_literal_below_threshold(self):
        assert not assertable(parse_utterance("C"), TOY_S2, THETA)
        assert assertable(parse_utterance("C"), TOY_S1, THETA)

    def test_conjunction(self):
        assert not assertable(parse_utterance("A & C"), TOY_S1, THETA)

    def test_likely(self):
        assert assertable(parse_utterance("likely C"), TOY_S3, THETA)
        half = state((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        assert not assertable(parse_utterance("likely C"), half, THETA)

    def test_zero_probability_antecedent_not_assertable(self):
        degenerate = state((0, 0, F(1, 2), F(1, 2)))  # P(a) = 0
        assert not assertable(parse_utterance("A -> C"), degenerate, THETA)

    @given(
        pa=st.fractions(min_value=0, max_value=1, max_denominator=30),
        pc=st.fractions(min_value=0, max_value=1, max_denominator=30),
        theta1=st.fractions(min_value="11/20", max_value=1, max_denominator=30),
        theta2=st.fractions(min_value="11/20", max_value=1, max_denominator=30),
    )
    def test_threshold_monotonicity(self, pa, pc, theta1, theta2):
        lo, hi = sorted((theta1, theta2))
        s = state(joint_from_marginals(pa, pc).cells)
        for u in default_utterances():
            if assertable(u, s, hi):
                assert assertable(u, s, lo)

    @given(
        pa=st.fractions(min_value=0, max_value=1, max_denominator=30),
        theta=st.fractions(min_value="11/20", max_value=1, max_denominator=30),
    )
    def test_negation_duality(self, pa, theta):
        s = state(joint_from_marginals(pa, F(1, 2)).cells)
        pos, neg = parse_utterance("A"), parse_utterance("~A")
        assert not (assertable(pos, s, theta) and assertable(neg, s, theta))

    @given(
        cells=st.lists(st.integers(0, 12), min_size=4, max_size=4).filter(sum),
        theta=st.fractions(min_value="11/20", max_value=1, max_denominator=30),
    )
    def test_conjunction_implies_conditional(self, cells, theta):
        total = sum(cells)
        s = state(tuple(F(c, total) for c in cells))
        conj = parse_utterance("A & C")
        cond = parse_utterance("A -> C")
        if assertable(conj, s, theta):
            assert assertable(cond, s, theta)


class TestDefaultUtterances:
    def test_balanced_set_has_twenty(self):
        utts = default_utterances()
        assert len(utts) == 20
        kinds = [u.kind.value for u in utts]
        assert kinds.count("literal") == 4
        assert kinds.count("likely") == 4
        assert kinds.count("conjunction") == 4
        assert kinds.count("conditional") == 8

    def test_reverse_conditionals_flag(self):
        utts = default_utterances(include_reverse_conditionals=False)
        assert len(utts) == 12 + 4
        conds = [u for u in utts if u.kind.value == "conditional"]
        assert all(c.antecedent.var is cr.Var.A for c in conds)


class TestAssertabilityMatrix:
    def test_toy_matrix_matches_published_table(self, toy_ctx):
        assert toy_ctx.assertability.astype(int).tolist() == [
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
        ]

    def test_single_state_certain(self):
        ctx = ScenarioContext.from_states(
            states=(state((F(1, 2), 0, F(1, 2), 0)),),  # P(c) = 1
            weights=(1,),
            utterances=(parse_utterance("C"),),
            alpha=1,
            theta=THETA,
        )
        assert ctx.assertability.tolist() == [[True]]

    def test_unsatisfiable_state_rejected_at_construction(self):
        with pytest.raises(ContextError, match="no assertable utterance"):
            ScenarioContext.from_states(
                states=(state((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), label="flat"),),
                weights=(1,),
                utterances=(parse_utterance("C"),),
                alpha=1,
                theta=THETA,
            )

    def test_float_and_exact_paths_agree(self, small_ctx):
        # the exact decisions on the exact values of the float cells and theta
        cells = np.frompyfunc(F, 1, 1)(small_ctx.cells.astype(object))
        exact = bool_matrix_exact(
            *integer_rows(cells), small_ctx.utterances, F(small_ctx.theta)
        )
        assert (exact == small_ctx.assertability).all()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_vectorized_exact_matches_scalar_oracle(self, data):
        theta = data.draw(st.one_of(
            st.sampled_from([F(3, 5), F(3, 4), F(9, 10), F(1)]),
            st.fractions(min_value="11/20", max_value=1, max_denominator=20),
        ))
        tables = data.draw(st.lists(boundary_tables(theta), min_size=1, max_size=6))
        states = [state(cells) for cells in tables]
        utterances = default_utterances()
        oracle = [[assertable(u, s, theta) for u in utterances] for s in states]
        matrix = bool_matrix_exact(*integer_rows(cell_array(states)), utterances, theta)
        assert matrix.tolist() == oracle

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_decisions_match_fraction_oracle(self, data):
        """The context's integer decisions equal `assertable` in Fraction
        arithmetic on rows of different denominators, int cells included."""
        theta = data.draw(st.sampled_from([F(51, 100), F(3, 4), F(9, 10), F(19, 20), F(1), 1]))
        tables = data.draw(st.lists(exact_tables(theta), min_size=1, max_size=6))
        states = [state(cells) for cells in tables]
        utterances = default_utterances()
        oracle = [[assertable(u, s, theta) for u in utterances] for s in states]
        matrix = bool_matrix_exact(*integer_rows(cell_array(states)), utterances, theta)
        assert matrix.tolist() == oracle
        weights = [F(1, len(states))] * len(states)
        try:
            ctx = ScenarioContext.from_states(states, weights, utterances, 1, theta)
        except ContextError:  # some state can assert nothing
            assert not all(map(any, oracle))
        else:
            assert ctx.assertability.tolist() == oracle

    @pytest.mark.parametrize("cells, weights, message", [
        *(
            (cells, [1], "the cells of each state must lie in [0, 1] and sum to 1")
            for cells in (
                [[F(-1, 10), F(5, 10), F(3, 10), F(3, 10)]],
                [[F(11, 10), F(-1, 10), 0, 0]],
                [[F(1, 2), F(1, 5), F(1, 10), F(1, 10)]],
                [[1, 0, 0, F(1, 10)]],
            )
        ),
        ([[1, 0, 0, 0], [0, 0, 0, 1]], [F(3, 2), F(-1, 2)],
         "prior weights must be nonnegative, got -1/2"),
        ([[1, 0, 0, 0], [0, 0, 0, 1]], [F(1, 2), F(2, 5)], "prior weights must sum to 1, got 9/10"),
        ([[1, 0, 0, 0], [0, 0, 0, 1]], [1, 1], "prior weights must sum to 1, got 2"),
        ([[F(1, 4)] * 4], [1], "state #0 has no assertable utterance; every state must support "
         "at least one utterance (1 offending state(s))"),
    ])
    def test_invalid_exact_inputs_name_their_fault(self, cells, weights, message):
        with pytest.raises(ContextError) as error:
            ScenarioContext(
                cells=np.array(cells, dtype=object), prior=np.array(weights, dtype=object),
                relations=[0] * len(cells), utterances=default_utterances(),
                alpha=1, theta=THETA,
            )
        assert str(error.value) == message


@st.composite
def float_tables(draw, theta):
    """Float tables: the float casts of `boundary_tables`, whose rows sit on
    ``theta`` in exact arithmetic and within an ulp of it in floats, or
    normalised random cells."""
    if draw(st.booleans()):
        return tuple(map(float, draw(boundary_tables(theta))))
    unit = st.floats(min_value=0, max_value=1, allow_subnormal=False)
    raw = draw(st.lists(unit, min_size=4, max_size=4).filter(lambda xs: sum(xs) > 0))
    return tuple(x / sum(raw) for x in raw)


@st.composite
def float_cases(draw):
    """A rational theta and one to six `float_tables` for it."""
    theta = draw(st.one_of(
        st.sampled_from([F(3, 5), F(3, 4), F(9, 10), F(1)]),
        st.fractions(min_value="11/20", max_value=1, max_denominator=20),
    ))
    return theta, draw(st.lists(float_tables(theta), min_size=1, max_size=6))


class TestFloatOracle:
    """On float cells the scalar oracle reads a negated literal, and a
    negated antecedent's denominator, as ``1 - p``, as the vector path does."""

    def test_negated_literal_is_one_minus_p(self):
        # 0.3 + 0.6 is 0.8999999999999999, but 1 - (0.05 + 0.05) is 0.9
        cells = (0.05, 0.05, 0.3, 0.6)
        ctx = ScenarioContext(
            cells=np.array([cells]), prior=np.array([1.0]), relations=[0],
            utterances=default_utterances(), alpha=3.0, theta=0.9,
        )
        u = default_utterances().index(parse_utterance("~A"))
        assert assertable(parse_utterance("~A"), state(cells), 0.9)
        assert ctx.assertability[0, u]

    @settings(max_examples=150, deadline=None)
    # degenerate rows: P(a) = 0, P(a) = 1, and P(a) = 0.75 + (0.25 - 2**-55),
    # which is 1.0 in floats, so that 1 - P(a) is 0 while P(~a) has a
    # nonzero cell
    @example(case=(F(9, 10), [(0.0, 0.0, 0.5, 0.5)]))
    @example(case=(F(9, 10), [(0.5, 0.5, 0.0, 0.0)]))
    @example(case=(F(3, 4), [(0.75, 0.25 - 2**-55, 2**-55, 0.0)]))
    @given(case=float_cases())
    def test_oracle_matches_the_context_bit_for_bit(self, case):
        theta, tables = case
        # every float operation of the build raises; underflow is left
        # alone, as numpy's default never reports it
        with np.errstate(all="raise", under="ignore"):
            try:
                ctx = ScenarioContext(
                    cells=np.array(tables), prior=np.full(len(tables), 1 / len(tables)),
                    relations=[0] * len(tables), utterances=default_utterances(),
                    alpha=3.0, theta=float(theta),
                )
            except ContextError:  # some state can assert nothing
                assume(False)
        oracle = [[assertable(u, state(cells), ctx.theta) for u in ctx.utterances]
                  for cells in tables]
        assert ctx.assertability.tolist() == oracle


def context_at(alpha, tables, weights, theta=THETA):
    return ScenarioContext(
        cells=np.array(tables, dtype=object),
        prior=np.array(weights, dtype=object),
        relations=[0] * len(tables),
        utterances=default_utterances(),
        alpha=alpha,
        theta=theta,
    )


class TestAssertabilityIgnoresAlpha:
    """A rational table's assertability is decided exactly, whatever alpha
    does to the arithmetic of the soft-max."""

    def test_a_float_soft_max_keeps_exact_assertability(self):
        # 3/10 + 3/5 is 9/10, but 0.3 + 0.6 is 0.8999999999999999
        tables = [(F(3, 10), F(3, 5), F(1, 10), 0), (F(1, 10), F(1, 10), F(1, 10), F(7, 10))]
        a = default_utterances().index(parse_utterance("A"))
        contexts = [context_at(alpha, tables, [F(1, 2)] * 2) for alpha in (3, F(5, 2), 2.5)]
        assert [ctx.exact for ctx in contexts] == [True, False, False]
        assert [bool(ctx.assertability[0, a]) for ctx in contexts] == [True] * 3
        for ctx in contexts[1:]:
            assert ctx.cells.dtype == np.float64 and ctx.alpha == 2.5 and ctx.theta == 0.9
            assert (ctx.assertability == contexts[0].assertability).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_assertability_is_the_same_at_every_alpha(self, data):
        theta = data.draw(st.sampled_from([F(3, 5), F(3, 4), F(9, 10), F(1)]))
        tables = data.draw(st.lists(boundary_tables(theta), min_size=1, max_size=5))
        parts = data.draw(st.lists(
            st.integers(0, 3), min_size=len(tables), max_size=len(tables)
        ).filter(sum))
        weights = [F(w, sum(parts)) for w in parts]
        try:
            exact = context_at(3, tables, weights, theta)
        except ContextError:  # some state can assert nothing
            assume(False)
        for alpha in (F(5, 2), 2.5):
            ctx = context_at(alpha, tables, weights, theta)
            assert not ctx.exact
            assert ctx.assertability.tolist() == exact.assertability.tolist()


class TestContext:
    @pytest.mark.parametrize("name", cr.BUILTIN_NAMES)
    def test_from_states_views_return_the_input(self, name):
        defn = cr.builtin(name)
        ctx = ScenarioContext.from_states(
            defn.states, defn.weights, defn.utterances, defn.alpha, defn.theta
        )
        assert ctx.states == defn.states
        assert ctx.weights == defn.weights
        assert ctx.labels == tuple(s.label for s in defn.states)

    def test_array_constructor_decides_arithmetic_and_validates(self):
        floats = dict(
            cells=[[0.5, 0.0, 0.5, 0.0]], prior=[1.0], relations=[0],
            utterances=(parse_utterance("likely C"),), alpha=1.0, theta=0.9,
        )
        assert not ScenarioContext(**floats).exact
        exact = ScenarioContext(**{
            **floats, "alpha": 1, "theta": THETA,
            "cells": np.array([[F(1, 2), 0, F(1, 2), 0]], dtype=object),
            "prior": np.array([1], dtype=object),
        })
        assert exact.exact
        assert exact.cells.tolist() == [[F(1, 2), F(0), F(1, 2), F(0)]]
        for change, message in (
            ({"cells": [[1.5, -0.5, 0.0, 0.0]]}, r"lie in \[0, 1\]"),
            ({"cells": [[0.5, 0.0, 0.4, 0.0]]}, "sum to 1"),
            ({"prior": [0.5, 0.5]}, "one prior weight"),
            ({"relations": [len(RELATION_ORDER)]}, "relation codes"),
        ):
            with pytest.raises(ContextError, match=message):
                ScenarioContext(**{**floats, **change})

    def test_weights_must_normalize(self):
        with pytest.raises(ContextError, match="sum to 1"):
            ScenarioContext.from_states(
                states=(TOY_S1, TOY_S2),
                weights=(F(1, 2), F(1, 4)),
                utterances=(parse_utterance("likely C"),),
                alpha=1,
                theta=THETA,
            )

    def test_from_unnormalized(self):
        ctx = ScenarioContext.from_unnormalized(
            states=(TOY_S1, TOY_S2),
            weights=(3, 1),
            utterances=(parse_utterance("likely C"), parse_utterance("A -> C")),
            alpha=1,
            theta=THETA,
        )
        assert ctx.weights == (F(3, 4), F(1, 4))

    def test_theta_range(self):
        with pytest.raises(ContextError):
            ScenarioContext.from_states(
                states=(TOY_S1,), weights=(1,),
                utterances=(parse_utterance("C"),), alpha=1, theta=F(1, 2),
            )

    @pytest.mark.parametrize("param", ["alpha", "theta"])
    def test_bool_parameter_rejected(self, toy_ctx, param):
        # is_rational(True) is false, so True would pass as a float 1.0
        with pytest.raises(ContextError, match=f"{param} must be a number, not a bool"):
            toy_ctx.with_params(**{param: True})

    def test_exactness_detection(self, toy_ctx, small_ctx):
        assert toy_ctx.exact
        assert not small_ctx.exact

    def test_cells_are_read_only(self, toy_ctx):
        with pytest.raises(ValueError):
            toy_ctx.cells[0, 0] = 0.5
        with pytest.raises(ValueError):
            toy_ctx.assertability[0, 0] = False

    def test_negative_weight_rejected(self):
        with pytest.raises(ContextError, match="nonnegative"):
            ScenarioContext.from_states(
                states=(TOY_S1, TOY_S2),
                weights=(F(3, 2), F(-1, 2)),
                utterances=(parse_utterance("likely C"),),
                alpha=1,
                theta=THETA,
            )

    def test_duplicate_utterances_rejected(self):
        u = parse_utterance("likely C")
        with pytest.raises(ContextError, match="duplicate"):
            ScenarioContext.from_states(
                states=(TOY_S1,),
                weights=(1,),
                utterances=(u, u),
                alpha=1,
                theta=THETA,
            )


@st.composite
def int_cell_tables(draw):
    """Exact tables whose zero cells and whose cell of 1 are sometimes written
    as the ints 0 and 1, as a scenario file may write them."""
    parts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(sum))
    total = sum(parts)
    if draw(st.booleans()):
        return tuple(p // total if p in (0, total) else F(p, total) for p in parts)
    return tuple(F(p, total) for p in parts)


class TestContextArrays:
    @staticmethod
    def assert_exact_arrays(ctx):
        assert ctx.cells.dtype == object and ctx.cells.shape == (ctx.n_states, 4)
        assert ctx.cells.tolist() == [list(s.table.cells) for s in ctx.states]
        assert all(type(c) is F for row in ctx.cells.tolist() for c in row)
        assert ctx.prior.dtype == object and ctx.prior.shape == (ctx.n_states,)
        assert ctx.prior.tolist() == list(ctx.weights)
        assert all(type(w) is F for w in ctx.prior.tolist())
        assert type(ctx.alpha) is int or ctx.alpha.denominator == 1
        assert not hasattr(ctx, "tables")

    @pytest.mark.parametrize("name", cr.BUILTIN_NAMES)
    def test_exact_builtins_hold_fractions(self, name):
        self.assert_exact_arrays(cr.builtin(name).to_context())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_int_cells_become_fractions(self, data):
        tables = data.draw(st.lists(int_cell_tables(), min_size=1, max_size=5))
        weights = data.draw(st.lists(
            st.integers(0, 3), min_size=len(tables), max_size=len(tables)
        ).filter(sum))
        try:
            ctx = ScenarioContext.from_states(
                states=tuple(state(cells) for cells in tables),
                # int weights where they are 0 or 1, like the int cells
                weights=tuple(w // sum(weights) if w in (0, sum(weights))
                              else F(w, sum(weights)) for w in weights),
                utterances=default_utterances(),
                alpha=1,
                theta=THETA,
            )
        except ContextError:  # some state can assert nothing
            assume(False)
        self.assert_exact_arrays(ctx)

    def test_float_context_reads_cells_and_weights(self, small_ctx):
        assert not hasattr(small_ctx, "tables")
        assert small_ctx.cells.tolist() == [list(map(float, s.table.cells)) for s in small_ctx.states]
        assert small_ctx.cells.dtype == np.float64
        assert small_ctx.prior.dtype == np.float64
        assert small_ctx.prior.tolist() == list(small_ctx.weights)

    def test_relation_codes(self, small_ctx, skiing):
        for ctx in (small_ctx, skiing.to_context()):
            assert ctx.relations.dtype == np.int8
            assert ctx.relations.tolist() == [
                RELATION_ORDER.index(s.relation) for s in ctx.states
            ]
            assert relation_array(ctx) is ctx.relations

    @pytest.mark.parametrize("name", ["cells", "prior", "relations"])
    def test_arrays_are_read_only_and_rebuilt_by_with_params(
        self, toy_ctx, small_ctx, name
    ):
        for ctx in (toy_ctx, small_ctx):
            array = getattr(ctx, name)
            with pytest.raises(ValueError):
                array[0] = array[0]
            changed = ctx.with_params(theta=ctx.theta)
            rebuilt = getattr(changed, name)
            assert rebuilt is not array
            assert rebuilt.tolist() == array.tolist()
            assert not rebuilt.flags.writeable
